"""The packed length count against the dict count it stands in for.

`length_spectra` counts a space packed (`chains._count_packed`) when its
per-point counts fit in `chains.PACKED_BITS`, and with `count_step`
otherwise. Both must give the same lengths, counts and cap counts, and
`realized_totals` the lengths of the spectra, from the same count.
"""

import random
from fractions import Fraction

import pytest

from magh.chains import (
    PACKED_BITS,
    _count_by_dicts,
    _count_packed,
    _packed_width,
    chain_total,
    length_spectra,
    realized_totals,
)
from magh.errors import EnumerationCapExceeded, NegativeCap
from magh.metric import path_space, validate_metric
from magh.verify import default_suite, full_suite, random_suite

from oracles import naive_chains
from test_posets import rational_grid_space

PACKED_SIDE = (
    full_suite()
    + random_suite(12)
    + [rational_grid_space(rows, cols) for rows, cols in [(2, 3), (3, 3), (3, 4)]]
)


def float_metric(n, seed):
    """Floats in [1, 2), read at their shortest decimal: any such table is
    a metric, and its scale is a large power of ten."""
    rng = random.Random(seed)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.uniform(1, 2)
    return validate_metric(d, name=f"floats({n},{seed})")


def prime_metric(n):
    """1 + 1/p for a distinct prime p per pair: coprime denominators."""
    primes = [p for p in range(101, 400) if all(p % q for q in range(2, 20))]
    d = [[Fraction(0)] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), p in zip(pairs, primes):
        d[i][j] = d[j][i] = 1 + Fraction(1, p)
    return validate_metric(d, name=f"primes({n})")


DICT_SIDE = [float_metric(4, 1), float_metric(5, 2), prime_metric(5)]


def run(count, limit):
    """The degrees a count yields under `limit`, or the steps it refused at."""
    try:
        return list(count(limit))
    except EnumerationCapExceeded as exc:
        assert exc.cap == limit
        return exc.count


def sweep(count):
    """`run` at every cap where the outcome changes, each one less, and
    zero: every degree's cumulative steps and the first cap that passes."""
    outcomes = {}
    limit = 0
    while True:
        outcomes[limit] = result = run(count, limit)
        if not isinstance(result, int):
            return outcomes
        assert result > limit
        outcomes[result - 1] = run(count, result - 1)
        limit = result


@pytest.mark.parametrize("n_max", [0, 1, 4])
@pytest.mark.parametrize("space", PACKED_SIDE, ids=lambda s: s.name)
def test_packed_count_matches_the_dict_count(space, n_max):
    idist = space.integer_view.idist
    width = _packed_width(idist, n_max)
    assert width is not None and width % 8 == 0
    assert width >= (space.n * (space.n - 1) ** n_max).bit_length()
    packed = sweep(lambda limit: _count_packed(idist, n_max, limit, width))
    by_dicts = sweep(lambda limit: _count_by_dicts(idist, n_max, limit))
    assert packed == by_dicts
    # the walk over the supports alone reaches the same lengths in the
    # same steps, and decodes no count
    supports = sweep(lambda limit: _count_packed(idist, n_max, limit, None))
    assert supports == {
        limit: v if isinstance(v, int) else [(t, None) for t, _ in v] for limit, v in packed.items()
    }
    # two refusals per degree 1..n_max, at its steps and one less; a
    # point alone has no step
    assert sum(isinstance(v, int) for v in packed.values()) == (2 * n_max if space.n > 1 else 0)
    spectra = length_spectra(space, n_max)
    passed = packed[max(packed)]
    assert [(list(map(space.integer_view.fraction, t)), c) for t, c in passed] == [
        (list(s.lengths), list(s.counts)) for s in spectra
    ]


@pytest.mark.parametrize("space", DICT_SIDE, ids=lambda s: s.name)
def test_wide_spans_are_counted_with_dicts(space):
    # the packed ints would span the scaled lengths, here billions of
    # fields, so the dict count is the only one run
    n_max = 3
    idist = space.integer_view.idist
    assert _packed_width(idist, n_max) is None
    assert n_max * max(map(max, idist)) > PACKED_BITS
    spectra = length_spectra(space, n_max)
    steps = 0
    for n, spectrum in enumerate(spectra):
        chains = naive_chains(space, n)
        lengths = [space.integer_view.fraction(chain_total(space, pts)) for pts in chains]
        assert spectrum.lengths == tuple(sorted(set(lengths)))
        assert spectrum.counts == tuple(lengths.count(l) for l in spectrum.lengths)
        if n:
            with pytest.raises(EnumerationCapExceeded) as exc:
                length_spectra(space, n_max, cap=steps)
            assert exc.value.count == steps + len(states) * (space.n - 1)
            steps = exc.value.count
        states = {(pts[-1], l) for pts, l in zip(chains, lengths)}
    assert length_spectra(space, n_max, cap=steps) == spectra


def test_huge_n_max_routes_to_dicts_before_sizing_the_fields():
    # the span is bounded before N(N-1)^n_max is built, whose bits grow
    # with n_max; the dict count then stops at the cap within a few degrees
    for space in [path_space(3), path_space(10)]:
        idist = space.integer_view.idist
        assert _packed_width(idist, PACKED_BITS // 8 + 1) is None
        assert _packed_width(idist, 10**8) is None
        with pytest.raises(EnumerationCapExceeded) as huge:
            length_spectra(space, 10**8, cap=10_000)
        with pytest.raises(EnumerationCapExceeded) as dicts:
            for _ in _count_by_dicts(idist, 10**8, 10_000):
                pass
        assert huge.value.count == dicts.value.count > 10_000


def test_edge_degrees_and_one_point():
    none = validate_metric([], name="empty")
    one = validate_metric([[0]], name="point")
    for space in [none, one, full_suite()[0]]:
        assert length_spectra(space, -1) == []
        assert length_spectra(space, -1, cap=0) == []
        idist = space.integer_view.idist
        for n_max in [0, 1, 3]:
            width = _packed_width(idist, n_max)
            assert sweep(lambda limit: _count_packed(idist, n_max, limit, width)) == sweep(
                lambda limit: _count_by_dicts(idist, n_max, limit)
            )
    # no point: no chain of any degree
    assert [(s.lengths, s.counts) for s in length_spectra(none, 3, cap=0)] == [((), ())] * 4
    # one point: one chain of degree 0, none above, and no step
    assert [(s.lengths, s.counts) for s in length_spectra(one, 3, cap=0)] == [
        ((Fraction(0),), (1,)),
        ((), ()),
        ((), ()),
        ((), ()),
    ]


def wide_grid():
    """An L1 grid with coprime denominators (scale 1001): its span passes
    `PACKED_BITS` from n_max 3, so it is counted over dicts there."""
    xs = [Fraction(0), Fraction(8, 7), Fraction(8, 7) + Fraction(12, 11)]
    ys = [Fraction(0), Fraction(14, 13)]
    coords = [(x, y) for y in ys for x in xs]
    d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in coords] for p in coords]
    return validate_metric(d, name="wide-grid-2x3")


def spectra_totals(space, n_max, cap):
    """The lengths of `length_spectra`, as scaled ints, sorted."""
    scaled = space.integer_view.scaled
    return sorted({scaled(l) for s in length_spectra(space, n_max, cap) for l in s.lengths})


@pytest.mark.parametrize("n_max", [0, 1, 4])
@pytest.mark.parametrize(
    "space", default_suite() + [wide_grid(), prime_metric(5)], ids=lambda s: s.name
)
def test_realized_totals_are_the_spectra_lengths(space, n_max):
    # the same lengths, and the same EnumerationCapExceeded count at every
    # cap that stops a degree and one less, packed, where only the
    # supports are walked, and over dicts: the wide grid from n_max 4, the
    # coprime denominators from n_max 1
    if space.name == "wide-grid-2x3":
        assert (_packed_width(space.integer_view.idist, n_max) is None) == (n_max == 4)
    if space.name == "primes(5)":
        assert (_packed_width(space.integer_view.idist, n_max) is None) == (n_max > 0)
    got = sweep(lambda limit: realized_totals(space, n_max, limit))
    assert got == sweep(lambda limit: spectra_totals(space, n_max, limit))
    assert got[max(got)] == realized_totals(space, n_max)
    assert sum(isinstance(v, int) for v in got.values()) == 2 * n_max


def test_realized_totals_of_no_point_and_negative_degrees():
    none = validate_metric([], name="empty")
    assert realized_totals(none, 3, cap=0) == []
    assert realized_totals(path_space(3), -1, cap=0) == []
    with pytest.raises(EnumerationCapExceeded):
        realized_totals(path_space(3), 1, cap=0)
    # the cap is resolved before anything is counted, as for the spectra
    with pytest.raises(NegativeCap):
        realized_totals(path_space(3), -1, cap=-1)
