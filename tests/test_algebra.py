import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import magh
from magh.algebra import (
    ChainComplexZ,
    HomologyGroup,
    HomologyRow,
    HomologyTable,
    SparseIntMatrix,
    TRIVIAL_GROUP,
    kunneth,
    merge_invariant_factors,
    snf,
)
from magh.errors import (
    DegreeOutOfRange,
    NegativeBetti,
    NotADivisorChain,
    TrivialTorsionFactor,
)
from magh.metric import complete_space, cycle_space, path_space, validate_metric
from magh.posets import magnitude_homology

from oracles import (
    magnitude_complex,
    minor_gcds,
    naive_snf,
    rational_rank,
    tensor,
    tensor_many,
)

F = Fraction


def dense_random(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# --- sparse matrices ---------------------------------------------------------


def test_sparse_basics():
    m = SparseIntMatrix(2, [{}, {1: 5}, {0: 7, 1: -1}])
    assert (m.rows, m.cols, m.nnz) == (2, 3, 3)
    assert SparseIntMatrix(0, []).nnz == 0
    assert SparseIntMatrix.from_dense([[0, 5], [7, 0], [0, -1]]) == SparseIntMatrix(
        3, [{1: 7}, {0: 5, 2: -1}]
    )
    with pytest.raises(IndexError):
        SparseIntMatrix(2, [{2: 1}])
    with pytest.raises(IndexError):
        SparseIntMatrix(2, [{}, {-1: 1}])
    with pytest.raises(TypeError):
        SparseIntMatrix(2, [{0: F(1, 2)}])
    with pytest.raises(ValueError):
        SparseIntMatrix(2, [{0: 1, 1: 0}])


# --- Smith normal form --------------------------------------------------------


def test_snf_fixed_values():
    assert snf([[1, 0], [0, 1]]) == (1, 1)
    assert snf([[2, 0], [0, 3]]) == (1, 6)
    assert snf([[2, 4], [6, 8]]) == (2, 4)
    assert snf([[0, 0], [0, 0]]) == ()
    assert snf([[2]]) == (2,)
    assert snf([[-3]]) == (3,)
    assert snf([[2, 0], [0, 2]]) == (2, 2)


@pytest.mark.parametrize("seed", range(12))
def test_snf_against_minor_gcds(seed):
    rng = random.Random(100 + seed)
    dense = dense_random(rng, rng.randint(1, 4), rng.randint(1, 4), lo=-6, hi=6)
    factors = snf(dense)
    gcds = minor_gcds(dense)
    # product of the first k invariant factors equals the gcd of k x k minors
    prod = 1
    for k, d in enumerate(factors, start=1):
        prod *= d
        assert prod == gcds[k - 1]
    for k in range(len(factors), len(gcds)):
        assert gcds[k] == 0


@pytest.mark.parametrize("seed", range(12))
def test_snf_against_naive_snf(seed):
    rng = random.Random(200 + seed)
    dense = dense_random(rng, rng.randint(1, 5), rng.randint(1, 5))
    assert snf(dense) == naive_snf(dense)


@pytest.mark.parametrize("seed", range(8))
def test_snf_divisibility_and_rank(seed):
    rng = random.Random(300 + seed)
    dense = dense_random(rng, 4, 5)
    factors = snf(dense)
    for d, e in zip(factors, factors[1:]):
        assert d > 0 and e % d == 0
    assert len(factors) == rational_rank(dense)
    assert len(snf(SparseIntMatrix.from_dense(dense))) == len(factors)


# The differential tests below drive both stages of `snf`: unit pivots on
# sparse rows, and the dense reduction of what they leave.

SPARSE_ENTRIES = (0,) * 16 + (1, -1, 2, -2, 3, -3, 6, -6)
HYPOTHESIS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def assert_invariant_factors(dense, factors):
    """`factors` equal the textbook reduction and the gcds of the minors."""
    assert factors == naive_snf(dense), dense
    gcds = minor_gcds(dense)
    prod = 1
    for k, d in enumerate(factors, start=1):
        prod *= d
        assert prod == gcds[k - 1], dense
    assert all(g == 0 for g in gcds[len(factors) :]), dense


@st.composite
def dense_matrices(draw, entries, max_dim):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    cell = st.sampled_from(entries)
    return [[draw(cell) for _ in range(n)] for _ in range(m)]


@st.composite
def unimodular(draw, size):
    """A random integer matrix of determinant +-1: the identity after random
    row additions, its rows then permuted and their signs flipped."""
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(draw(st.integers(0, 2 * size)) if size > 1 else 0):
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.sampled_from((-2, -1, 1, 2)))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    order = draw(st.permutations(range(size)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size))
    return [[s * v for v in u[i]] for s, i in zip(signs, order)]


def dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def smith_products(draw):
    """U * D * V with unimodular U, V and a diagonal D that ends in a
    non-unit; returns the product and D's diagonal, its invariant factors."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    chain = [draw(st.sampled_from((1, 2)))]
    for _ in range(draw(st.integers(0, min(m, n) - 1))):
        chain.append(chain[-1] * draw(st.sampled_from((1, 2, 3, 6))))
    if chain[-1] == 1:
        chain[-1] = 2
    d = [[chain[i] if i == j and i < len(chain) else 0 for j in range(n)] for i in range(m)]
    u, v = (draw(unimodular(k)) for k in (m, n))
    return dense_product(dense_product(u, d), v), tuple(chain)


@HYPOTHESIS
@given(dense_matrices(SPARSE_ENTRIES, max_dim=5))
def test_snf_sparse_small_entries(dense):
    assert_invariant_factors(dense, snf(dense))


@HYPOTHESIS
@given(dense_matrices(SPARSE_ENTRIES, max_dim=14))
def test_snf_sparse_larger_against_naive(dense):
    assert snf(dense) == naive_snf(dense), dense


@HYPOTHESIS
@given(smith_products())
def test_snf_unimodular_products(case):
    product, chain = case
    factors = snf(product)
    assert factors == chain, product
    assert_invariant_factors(product, factors)
    # unit pivots only ever give factors 1, so this one came out of the
    # dense residual stage
    assert factors[-1] > 1


@HYPOTHESIS
@given(dense_matrices((1, -1), max_dim=5))
def test_snf_all_unit_entries(dense):
    assert_invariant_factors(dense, snf(dense))


@HYPOTHESIS
@given(st.integers(0, 6), st.integers(0, 6))
def test_snf_zero_and_empty_shapes(m, n):
    assert snf(SparseIntMatrix(m, [{} for _ in range(n)])) == ()
    if m:
        assert snf([[0] * n for _ in range(m)]) == ()
    else:
        assert snf([]) == ()


def test_snf_of_a_matrix_without_entries():
    # returned before any row index is built
    assert snf(SparseIntMatrix(3, [{}, {}])) == ()
    assert snf(SparseIntMatrix(0, [])) == ()


# --- homology groups ----------------------------------------------------------


def test_group_str_and_trivial():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert HomologyGroup(0).is_trivial()
    with pytest.raises(NotADivisorChain) as exc:
        HomologyGroup(0, (4, 2))
    assert exc.value.factors == (4, 2)
    with pytest.raises(TrivialTorsionFactor):
        HomologyGroup(0, (1, 2))


def test_group_guard_survives_optimize():
    code = (
        "from magh.algebra import HomologyGroup\n"
        "from magh.errors import NotADivisorChain\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "try:\n"
        "    HomologyGroup(0, (2, 3))\n"
        "except NotADivisorChain:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('HomologyGroup(0, (2, 3)) was accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(magh.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_merge_invariant_factors():
    assert merge_invariant_factors([(2,), (4,)]) == (2, 4)
    assert merge_invariant_factors([(2,), (3,)]) == (6,)
    assert merge_invariant_factors([(4,), (6,)]) == (2, 12)
    assert merge_invariant_factors([(), ()]) == ()
    assert merge_invariant_factors([(2, 4), (3,)]) == (2, 12)


def test_direct_sum():
    a = HomologyGroup(1, (2,))
    b = HomologyGroup(2, (4,))
    assert HomologyGroup.direct_sum([a, b]) == HomologyGroup(3, (2, 4))


# --- chain complexes ----------------------------------------------------------


def test_complex_zero_map():
    cx = ChainComplexZ(0, [2, 2])
    assert cx.homology(0) == HomologyGroup(2)
    assert cx.homology(1) == HomologyGroup(2)


def test_complex_times_two():
    cx = ChainComplexZ(0, [1, 1], {1: SparseIntMatrix.from_dense([[2]])})
    assert cx.homology(0) == HomologyGroup(0, (2,))
    assert cx.homology(1) == HomologyGroup(0)


def test_complex_empty_degree():
    cx = ChainComplexZ(0, [0, 3])
    assert cx.homology(0) == HomologyGroup(0)
    assert cx.homology(1) == HomologyGroup(3)


def test_complex_zero_group_is_shared():
    cx = ChainComplexZ(0, [1, 1], {1: SparseIntMatrix.from_dense([[1]])})
    assert cx.homology(0) is TRIVIAL_GROUP
    assert cx.homology(1) is TRIVIAL_GROUP


def test_complex_degree_out_of_range():
    cx = ChainComplexZ(0, [1])
    with pytest.raises(DegreeOutOfRange):
        cx.homology(1)
    assert cx.homology_or_trivial(5) == HomologyGroup(0)


def test_complex_negative_betti_is_named():
    # only a complex whose d^2 is not zero can have one; a valid complex
    # has its second boundary replaced after the check on construction
    one = SparseIntMatrix.from_dense([[1]])
    cx = ChainComplexZ(0, [1, 1, 1], {1: one})
    cx.boundaries[2] = one
    with pytest.raises(NegativeBetti) as exc:
        cx.homology(1)
    assert (exc.value.degree, exc.value.betti) == (1, -1)


def test_complex_validates_d_squared():
    b2 = SparseIntMatrix.from_dense([[1], [0]])
    b1 = SparseIntMatrix.from_dense([[1, 1]])
    message = r"^boundary squared is nonzero at degree 2, column 0$"
    with pytest.raises(ValueError, match=message):
        ChainComplexZ(0, [1, 2, 1], {1: b1, 2: b2})


def test_complex_validates_shapes():
    # a boundary has a row per basis element below and at most a column
    # per basis element; the elements past its last column map to zero
    with pytest.raises(ValueError):
        ChainComplexZ(0, [1, 2], {1: SparseIntMatrix.from_dense([[1, 0, 1]])})
    with pytest.raises(ValueError):
        ChainComplexZ(0, [2, 2], {1: SparseIntMatrix.from_dense([[1]])})
    cx = ChainComplexZ(0, [1, 2], {1: SparseIntMatrix.from_dense([[1]])})
    assert [cx.homology(k) for k in (0, 1)] == [HomologyGroup(0), HomologyGroup(1)]


# --- tensor products ----------------------------------------------------------


def unit_complex():
    # reduced complex of the empty order complex: a single Z in degree -1
    return ChainComplexZ(-1, [1])


def aug_complex():
    # Z at 0 mapping isomorphically onto Z at -1; contractible
    return ChainComplexZ(-1, [1, 1], {0: SparseIntMatrix.from_dense([[1]])})


def test_tensor_unit_shifts():
    b = ChainComplexZ(0, [1, 2], {1: SparseIntMatrix.from_dense([[3, 0]])})
    t = tensor(unit_complex(), b)
    assert t.lo == -1 and t.hi == 0
    for k in t.degrees():
        assert t.homology(k) == b.homology(k + 1)


def test_tensor_two_step_example():
    e = ChainComplexZ(-1, [1, 1])  # Z at -1 and Z at 0, zero map
    t = tensor(e, e)
    assert t.lo == -2 and t.hi == 0
    assert t.sizes == [1, 2, 1]
    for k in range(t.lo + 1, t.hi + 1):
        assert t.boundary(k).nnz == 0


def test_tensor_euler_multiplicative():
    rng = random.Random(7)
    mats = {
        1: SparseIntMatrix.from_dense([[2, 0], [0, 0]]),
    }
    a = ChainComplexZ(0, [2, 2], mats)
    b = aug_complex()
    c = unit_complex()
    for x in (a, b, c):
        for y in (a, b, c):
            assert tensor(x, y).euler_characteristic() == (
                x.euler_characteristic() * y.euler_characteristic()
            )


def test_tensor_contractible_kills_homology():
    a = aug_complex()
    b = ChainComplexZ(0, [1, 1], {1: SparseIntMatrix.from_dense([[2]])})
    t = tensor(a, b)
    for k in t.degrees():
        assert t.homology(k).is_trivial()


def test_tensor_associative_on_homology():
    x = ChainComplexZ(0, [1, 1], {1: SparseIntMatrix.from_dense([[2]])})
    y = ChainComplexZ(-1, [1, 2], {0: SparseIntMatrix.from_dense([[1, 1]])})
    z = aug_complex()
    left = tensor(tensor(x, y), z)
    right = tensor(x, tensor(y, z))
    assert left.lo == right.lo and left.hi == right.hi
    for k in left.degrees():
        assert left.homology(k) == right.homology(k)
    assert tensor_many([x, y, z]).homology_all() == left.homology_all()


# --- Kunneth ------------------------------------------------------------------


def homology_dict(cx):
    """{degree: nonzero group}, the form `kunneth` takes and returns."""
    groups = {k: cx.homology(k) for k in cx.degrees()}
    return {k: g for k, g in groups.items() if not g.is_trivial()}


def cyclic_complex(d, k=0):
    # Z --d--> Z with the target in degree k: Z/d at k, or 0 when d = 1
    return ChainComplexZ(k, [1, 1], {k + 1: SparseIntMatrix.from_dense([[d]])})


@st.composite
def torsion_complexes(draw):
    """Free complexes on degrees -1..2 with known torsion.

    A direct sum of pieces: Z at one degree, or Z --d--> Z across two with
    d in {1, 2, 3, 4, 6} (acyclic for d = 1, Z/d otherwise), after a
    random change of basis in every degree. A change P in degree k turns
    the boundary out of k into D P^-1 and the one into k into P D; with
    P = I + c E_ji these are one column and one row operation.
    """
    lo, hi = -1, 2
    pieces = draw(
        st.lists(
            st.tuples(st.integers(lo, hi - 1), st.sampled_from((0, 1, 2, 3, 4, 6))),
            min_size=1,
            max_size=4,
        )
    )
    sizes = {k: 0 for k in range(lo, hi + 1)}
    units = []
    for k, d in pieces:
        if d:
            units.append((k + 1, sizes[k], sizes[k + 1], d))
            sizes[k + 1] += 1
        sizes[k] += 1
    dense = {k: [[0] * sizes[k] for _ in range(sizes[k - 1])] for k in range(lo + 1, hi + 1)}
    for k, r, c, d in units:
        dense[k][r][c] = d
    for k in range(lo, hi + 1):
        for _ in range(draw(st.integers(0, 3)) if sizes[k] > 1 else 0):
            i, j = draw(st.lists(st.integers(0, sizes[k] - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.sampled_from((-1, 1, 2)))
            if k + 1 in dense:
                into = dense[k + 1]
                into[j] = [x + c * y for x, y in zip(into[j], into[i])]
            for row in dense.get(k, ()):
                row[i] -= c * row[j]
    boundaries = {}
    for k, rows in dense.items():
        boundaries[k] = SparseIntMatrix(
            sizes[k - 1],
            [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(sizes[k])],
        )
    return ChainComplexZ(lo, [sizes[k] for k in range(lo, hi + 1)], boundaries)


@HYPOTHESIS
@given(torsion_complexes(), torsion_complexes())
def test_kunneth_matches_tensor_oracle(a, b):
    assert kunneth(homology_dict(a), homology_dict(b)) == homology_dict(tensor(a, b))


@pytest.mark.parametrize("d", (2, 3, 4, 6))
@pytest.mark.parametrize("e", (2, 3, 4, 6))
def test_kunneth_cyclic_tor_term(d, e):
    # Z/d (x) Z/e and Tor(Z/d, Z/e) are both Z/gcd(d, e), one degree apart
    a, b = cyclic_complex(d), cyclic_complex(e, k=-1)
    g = math.gcd(d, e)
    expected = {} if g == 1 else {-1: HomologyGroup(0, (g,)), 0: HomologyGroup(0, (g,))}
    assert kunneth(homology_dict(a), homology_dict(b)) == expected
    assert homology_dict(tensor(a, b)) == expected


def test_kunneth_free_and_mixed():
    z2, z = {0: HomologyGroup(0, (2,))}, {1: HomologyGroup(3)}
    assert kunneth(z2, z) == {1: HomologyGroup(0, (2, 2, 2))}
    assert kunneth({0: HomologyGroup(1)}, z) == z
    assert kunneth({}, z) == {}
    both = {0: HomologyGroup(1, (4,))}
    assert kunneth(both, both) == {0: HomologyGroup(1, (4, 4, 4)), 1: HomologyGroup(0, (4,))}


# --- magnitude homology -------------------------------------------------------


def test_magnitude_grading_zero():
    p3 = path_space(3)
    rows = magnitude_homology(p3, 0, 3)
    assert rows[0].group == HomologyGroup(3)
    for row in rows[1:]:
        assert row.group.is_trivial()


def test_magnitude_two_point_space():
    sp = validate_metric([[0, 1], [1, 0]])
    rows = {r.n: r.group for r in magnitude_homology(sp, 1, 2)}
    assert rows[1] == HomologyGroup(2)
    assert rows[0].is_trivial() and rows[2].is_trivial()


def test_magnitude_path3_grading2():
    rows = {r.n: r.group for r in magnitude_homology(path_space(3), 2, 3)}
    assert rows[1] == HomologyGroup(0)
    assert rows[2] == HomologyGroup(4)
    assert rows[3] == HomologyGroup(0)


def test_magnitude_cycle4_grading2():
    rows = {r.n: r.group for r in magnitude_homology(cycle_space(4), 2, 2)}
    assert rows[2] == HomologyGroup(12)


def test_magnitude_complete_diagonal():
    k3 = complete_space(3)
    for n in range(3):
        rows = {r.n: r.group for r in magnitude_homology(k3, n, n)}
        assert rows[n] == HomologyGroup(3 * 2**n)


def permuted_complex(cx, seed):
    rng = random.Random(seed)
    perms = {}
    for k in cx.degrees():
        order = list(range(cx.size(k)))
        rng.shuffle(order)
        perms[k] = {old: new for new, old in enumerate(order)}
    boundaries = {}
    for k in range(cx.lo + 1, cx.hi + 1):
        old = cx.boundary(k)
        # a basis element past the last column maps to zero
        columns = [{} for _ in range(cx.size(k))]
        for c, column in enumerate(old.columns):
            columns[perms[k][c]] = {perms[k - 1][r]: v for r, v in column.items()}
        boundaries[k] = SparseIntMatrix(old.rows, columns)
    return ChainComplexZ(cx.lo, list(cx.sizes), boundaries)


@pytest.mark.parametrize("seed", range(5))
def test_homology_invariant_under_basis_shuffle(seed):
    cx = magnitude_complex(cycle_space(4), 2, 3)
    shuffled = permuted_complex(cx, seed)
    for k in cx.degrees():
        assert cx.homology(k) == shuffled.homology(k)


# --- tables -------------------------------------------------------------------


def test_table_roundtrips():
    rows = magnitude_homology(path_space(3), 2, 2)
    rows += magnitude_homology(path_space(3), 1, 2)
    table = HomologyTable(rows)
    assert [(r.l, r.n) for r in table] == sorted((r.l, r.n) for r in rows)
    again = HomologyTable.from_json(table.to_json())
    assert [(r.l, r.n, r.group) for r in again] == [
        (r.l, r.n, r.group) for r in table
    ]
    again = HomologyTable.from_csv(table.to_csv())
    assert [(r.l, r.n, r.group) for r in again] == [
        (r.l, r.n, r.group) for r in table
    ]
    assert table.group(2, 2) == HomologyGroup(4)
    assert table.group(7, 0) is None


def test_table_torsion_serialization():
    row = HomologyRow(F(3, 2), 2, HomologyGroup(1, (2, 4)))
    table = HomologyTable([row])
    assert '"l": "3/2"' in table.to_json()
    assert "3/2,2,1,2;4" in table.to_csv()
    again = HomologyTable.from_csv(table.to_csv())
    assert again.rows[0].group == HomologyGroup(1, (2, 4))
    rendered = table.to_table()
    assert rendered.splitlines()[0].split() == ["l", "n", "betti", "torsion"]
