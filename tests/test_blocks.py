"""The endpoint-block engine against the whole-grading route and the oracle.

The boundary never removes a chain's endpoints, so `magnitude_homology`
reduces one complex per endpoint pair and sums the groups. These tests
compare that with one complex per grading (`magnitude_complex`) and with
the dense naive oracle, on metrics with non-integer rational distances.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from magh.algebra import (
    HomologyGroup,
    _endpoint_blocks,
    complex_from_bases,
    magnitude_complex,
    magnitude_homology,
    magnitude_homology_rows,
)
from magh.chains import enumerate_proper_chains, length_spectrum
from magh.metric import cycle_space, metric_closure, validate_metric

from oracles import naive_magnitude_group


@st.composite
def rational_metrics(draw, max_points):
    """Shortest-path closure of K_n with weights p/q, q in {2, 3, 4}.

    Small numerators over one shared denominator keep geodesic ties, and
    so nonzero boundaries, common; at least one weight is not an integer.
    """
    n = draw(st.integers(3, max_points))
    q = draw(st.sampled_from([2, 3, 4]))
    numerators = st.integers(1, 4 * q).filter(lambda p: p % q)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(draw(numerators), q)
    return validate_metric(metric_closure(d), name=f"rational(n={n},q={q})")


def realized_lengths(space, n_max):
    lengths = set()
    for n in range(n_max + 1):
        lengths.update(length_spectrum(space, n).lengths)
    return sorted(lengths)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rational_metrics(max_points=5))
def test_blocks_match_whole_grading_complex(space):
    lengths = realized_lengths(space, 3)
    rows = magnitude_homology_rows(space, lengths, 3)
    assert [(r.l, r.n) for r in rows] == [(l, n) for l in lengths for n in range(4)]
    for row in rows:
        whole, _ = magnitude_complex(space, row.l, row.n + 1)
        assert row.group == whole.homology(row.n), (space.d, row)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rational_metrics(max_points=5))
def test_blocks_match_naive_oracle(space):
    for l in realized_lengths(space, 2):
        for row in magnitude_homology(space, l, 2):
            group = (row.group.betti, row.group.torsion)
            assert group == naive_magnitude_group(space, l, row.n), (space.d, row)


def test_cycle4_blocks_sum_to_grading():
    space = cycle_space(4)
    by_degree = [enumerate_proper_chains(space, n) for n in range(4)]
    blocks = _endpoint_blocks(by_degree, Fraction(2))
    groups = {
        pair: complex_from_bases(space, bases, 0, 3).homology(2)
        for pair, bases in blocks.items()
    }
    expected = {(a, a): HomologyGroup(2) for a in range(4)}
    expected.update({(a, (a + 2) % 4): HomologyGroup(1) for a in range(4)})
    assert groups == expected
    assert list(blocks) == sorted(expected)
    whole = {r.n: r.group for r in magnitude_homology(space, 2, 2)}[2]
    assert whole == HomologyGroup.direct_sum(groups.values()) == HomologyGroup(12)


def test_many_gradings_equal_one_at_a_time():
    space = cycle_space(5)
    lengths = realized_lengths(space, 2)
    together = magnitude_homology_rows(space, lengths, 2)
    apart = [row for l in lengths for row in magnitude_homology(space, l, 2)]
    assert together == apart
    assert magnitude_homology_rows(space, [], 2) == []
