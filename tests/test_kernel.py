"""The integer distance kernel against plain Fraction arithmetic.

Every space carries an `IntegerView`: distances times the lcm of their
denominators, as ints, and one betweenness table. These tests compare
everything computed from it with the same quantity computed on Fractions,
on integer metrics and on rational metrics whose pairwise-coprime
denominators push the scale past 2**31.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import magh
from magh.chains import chain_total, is_strictly_smooth, length_spectra
from magh.errors import TriangleViolation
from magh.frames import four_cuts, m_x
from magh.metric import metric_closure, validate_metric
from magh.verify import check_d_squared

from oracles import (
    naive_buckets,
    naive_chains,
    naive_four_cuts,
    naive_m_x,
    naive_metric_closure,
    naive_triangle_witness,
)

PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MIN_EDGES = 8  # the eight smallest primes multiply to more than 2**31


@st.composite
def coprime_metrics(draw):
    """Shortest-path metric of a connected graph with weights p/q in (1, 2).

    Every edge has its own prime denominator q. A path of two or more edges
    is longer than 2, so each edge weight is itself a distance and the scale
    is the product of at least MIN_EDGES distinct primes.
    """
    n = draw(st.integers(5, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tree = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]
    others = [p for p in pairs if p not in tree]
    extra = draw(st.integers(max(0, MIN_EDGES - len(tree)), len(PRIMES) - len(tree)))
    chords = draw(st.permutations(others))[:extra]
    primes = draw(st.permutations(PRIMES))
    far = Fraction(2 * n)  # longer than any path through the graph
    d = [[Fraction(0) if i == j else far for j in range(n)] for i in range(n)]
    for (i, j), q in zip(tree + chords, primes):
        d[i][j] = d[j][i] = Fraction(draw(st.integers(q + 1, 2 * q - 1)), q)
    return validate_metric(metric_closure(d), name=f"coprime(n={n})")


@st.composite
def integer_metrics(draw):
    """Shortest-path closure of K_n with integer weights 1..4."""
    n = draw(st.integers(3, 6))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(draw(st.integers(1, 4)))
    return validate_metric(metric_closure(d), name=f"integer(n={n})")


metrics = st.one_of(coprime_metrics(), integer_metrics())
kernel_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@kernel_settings
@given(coprime_metrics())
def test_coprime_scale_exceeds_int32(space):
    view = space.integer_view
    denominators = {v.denominator for row in space.dist for v in row}
    assert view.scale == lcm(*denominators) > 2**31
    for a, b in itertools.product(space.points(), repeat=2):
        assert Fraction(view.idist[a][b], view.scale) == space.d(a, b)
        assert isinstance(view.idist[a][b], int)


@kernel_settings
@given(metrics)
def test_between_matches_fraction_definition(space):
    view = space.integer_view
    d = space.d
    for a, b, c in itertools.product(space.points(), repeat=3):
        expected = c != a and c != b and d(a, b) == d(a, c) + d(c, b)
        assert bool(view.between[a][b] >> c & 1) is expected, (space.dist, a, b, c)
        assert is_strictly_smooth(space, a, c, b) is expected
    for a, b in itertools.product(space.points(), repeat=2):
        members = view.between_points(a, b)
        assert members == tuple(c for c in space.points() if view.between[a][b] >> c & 1)


@kernel_settings
@given(metrics)
def test_buckets_and_lengths_match_fraction_sums(space):
    view = space.integer_view
    spectra = length_spectra(space, 3)
    for n in range(4):
        lengths = set()
        for pts in naive_chains(space, n):
            total = sum((space.d(a, b) for a, b in zip(pts, pts[1:])), Fraction(0))
            length = view.fraction(chain_total(space, pts))
            assert type(length) is Fraction and length == total
            lengths.add(total)
        assert all(type(l) is Fraction for l in spectra[n].lengths)
        assert spectra[n].lengths == tuple(sorted(lengths))


@kernel_settings
@given(metrics)
def test_length_spectra_count_the_chain_table(space):
    spectra = length_spectra(space, 4)
    assert [s.degree for s in spectra] == [0, 1, 2, 3, 4]
    for n, spectrum in enumerate(spectra):
        buckets = naive_buckets(space, n)
        assert spectrum.lengths == tuple(map(space.integer_view.fraction, buckets))
        assert spectrum.counts == tuple(len(b) for b in buckets.values())
    # every chain passes, so every chain of degree 2..n_max is checked
    report = check_d_squared(space, 4)
    assert report.passed
    assert report.params["checked"] == sum(sum(s.counts) for s in spectra[2:])


@kernel_settings
@given(metrics)
def test_m_x_matches_brute_force(space):
    length, witness = naive_m_x(space)
    result = m_x(space)
    assert (result.value, result.witness) == (length, witness), space.dist
    cuts = [(c.points, c.length) for c in four_cuts(space)]
    assert cuts == naive_four_cuts(space)
    assert all(type(c.length) is Fraction for c in four_cuts(space))
    # the pruned scan finds the first cut of the sorted list, witness included
    assert (result.witness, result.value) == (cuts[0] if cuts else (None, None))


@st.composite
def closure_inputs(draw):
    """A nonnegative symmetric matrix with a zero diagonal.

    Off-diagonal entries are ints, non-integer rationals with prime
    denominators, or a "far" sentinel longer than any path through the
    others, which the closure replaces unless the graph is disconnected.
    """
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["int", "rational", "far"]))
    far = Fraction(10**6, 7)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "int":
                v = draw(st.integers(0, 9))
            elif kind == "far" and draw(st.booleans()):
                v = far
            else:
                q = draw(st.sampled_from(PRIMES))
                v = Fraction(draw(st.integers(1, 4 * q)), q)
            d[i][j] = d[j][i] = v
    return d


@kernel_settings
@given(closure_inputs())
def test_metric_closure_matches_fraction_floyd_warshall(matrix):
    before = [list(row) for row in matrix]
    closed = metric_closure(matrix)
    assert matrix == before
    assert closed == naive_metric_closure(matrix)
    assert all(type(row) is list for row in closed)
    assert all(type(v) is Fraction for row in closed for v in row)


@kernel_settings
@given(metrics, st.data())
def test_triangle_witness_matches_fraction_scan(space, data):
    # raise one distance past a two-step path, then up to two more by
    # random amounts, so several violations compete for the first witness
    n = space.n
    matrix = [list(row) for row in space.dist]
    i, j, k = data.draw(st.permutations(range(n)))[:3]
    pairs = [(i, k)] + data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)
    )
    for step, (a, b) in enumerate(pairs):
        if a == b:
            continue
        q = data.draw(st.sampled_from(PRIMES))
        base = matrix[i][j] + matrix[j][k] if step == 0 else matrix[a][b]
        matrix[a][b] = matrix[b][a] = base + Fraction(data.draw(st.integers(1, 3 * q)), q)
    with pytest.raises(TriangleViolation) as info:
        validate_metric(matrix)
    err = info.value
    assert (err.i, err.j, err.k) == naive_triangle_witness(matrix)


def test_guards_survive_optimize():
    # the betweenness table refuses a point between another and itself and
    # validate_metric a triangle violation, each with its first witness and
    # both from the packed pass of `_between_rows`; the interval masks
    # refuse each order that `test_posets.BROKEN_ORDERS` breaks in the
    # table and an intransitive one, `frames.frame_pieces` refuses a frame that
    # repeats a point, and the frame route refuses an unrealized frame
    # below m_X, and the endpoint-block engine refuses a map the isometry
    # search gives that is no isometry, with its first wrong pair, all
    # under -O; none can happen in a validated space, so two spaces are
    # built directly and the last three faults are injected by replacing
    # `_frame_search`, the one search that gives the frame side its chains
    # and their frames, `_junction_mask` and `_isometry_generators`
    code = (
        "from fractions import Fraction\n"
        "import magh.frames as frames\n"
        "from magh.errors import (\n"
        "    ImproperFrame, NotAPartialOrder, SelfBetweenness, TriangleViolation,\n"
        "    UnrealizedFrame,\n"
        ")\n"
        "from magh.metric import FiniteMetricSpace, path_space, validate_metric\n"
        "from magh.posets import _interval_masks, magnitude_homology\n"
        "from oracles import naive_triangle_witness\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "def space(rows):\n"
        "    dist = tuple(tuple(Fraction(v) for v in row) for row in rows)\n"
        "    return FiniteMetricSpace(tuple(map(str, range(len(rows)))), dist)\n"
        "try:\n"
        "    space([[0, 1, 1], [1, 0, 0], [1, 0, 0]]).integer_view\n"
        "except SelfBetweenness as exc:\n"
        "    if (exc.a, exc.c) != (1, 2):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "else:\n"
        "    raise SystemExit('a zero distance was accepted')\n"
        "rows = [[0, 1, 2, 3, 4], [1, 0, 1, 1, 3], [2, 1, 0, 1, 2],\n"
        "        [3, 1, 1, 0, 1], [4, 3, 2, 1, 0]]\n"
        "try:\n"
        "    validate_metric(rows)\n"
        "except TriangleViolation as exc:\n"
        "    if (exc.i, exc.j, exc.k) != naive_triangle_witness(rows):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "else:\n"
        "    raise SystemExit('a triangle violation was accepted')\n"
        "real = frames._frame_search\n"
        "def doubled(*args):\n"
        "    found, steps = real(*args)\n"
        "    return {f[:1] + f: by_degree for f, by_degree in found.items()}, steps\n"
        "frames._frame_search = doubled\n"
        "try:\n"
        "    frames.frame_pieces(path_space(3), [(0, 1)], 2)\n"
        "except ImproperFrame as exc:\n"
        "    if (exc.chain, exc.frame) != ((0, 1), (0, 0, 1)):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "else:\n"
        "    raise SystemExit('an improper frame was accepted')\n"
        "frames._junction_mask = lambda view, prev, x: -1\n"
        "try:\n"
        "    magnitude_homology(path_space(3), 1, 1)\n"
        "except UnrealizedFrame as exc:\n"
        "    if (exc.frame, exc.length) != ((0, 1), 1):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "else:\n"
        "    raise SystemExit('an unrealized frame was used')\n"
        "import magh.metric\n"
        "from magh.algebra import block_homology_rows\n"
        "from magh.errors import NotAnIsometry\n"
        "magh.metric._isometry_generators = lambda idist: [(1, 0, 2, 3)]\n"
        "try:\n"
        "    block_homology_rows(path_space(4), [3], 2)\n"
        "except NotAnIsometry as exc:\n"
        "    if (exc.isometry, exc.a, exc.b) != ((1, 0, 2, 3), 0, 2):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "else:\n"
        "    raise SystemExit('a map that is no isometry was used')\n"
        "from test_posets import BROKEN_ORDERS, broken_path5\n"
        "for kind, witness, edits in BROKEN_ORDERS:\n"
        "    try:\n"
        "        _interval_masks(broken_path5(edits), 0, 4)\n"
        "    except NotAPartialOrder as exc:\n"
        "        if (exc.kind, exc.witness) != (kind, witness):\n"
        "            raise SystemExit(f'wrong witness: {exc}')\n"
        "    else:\n"
        "        raise SystemExit(f'a broken {kind} was accepted')\n"
        "try:\n"
        "    _interval_masks(space(rows), 0, 4)\n"
        "except NotAPartialOrder as exc:\n"
        "    if (exc.kind, exc.witness) != ('transitivity', (1, 2, 3)):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('an intransitive order was accepted')\n"
    )
    paths = (Path(magh.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
