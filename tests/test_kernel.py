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
from magh.chains import (
    chain_length,
    enumerate_proper_chains,
    is_strictly_smooth,
    length_spectra,
)
from magh.errors import TriangleViolation
from magh.frames import four_cuts, m_x
from magh.metric import metric_closure, validate_metric
from magh.verify import check_d_squared

from oracles import naive_chains, naive_four_cuts, naive_m_x, naive_triangle_witness

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
    for n in range(4):
        buckets = enumerate_proper_chains(space, n)
        assert list(buckets) == sorted(buckets)
        seen = []
        for l, chains in buckets.items():
            assert type(l) is Fraction
            for ch in chains:
                total = sum((space.d(a, b) for a, b in zip(ch.points, ch.points[1:])), Fraction(0))
                assert l == ch.length == total
                length = chain_length(space, ch.points)
                assert type(length) is Fraction and length == total
                seen.append(ch.points)
            assert [ch.points for ch in chains] == sorted(ch.points for ch in chains)
        assert sorted(seen) == naive_chains(space, n)


@kernel_settings
@given(metrics)
def test_length_spectra_count_the_chain_table(space):
    spectra = length_spectra(space, 4)
    assert [s.degree for s in spectra] == [0, 1, 2, 3, 4]
    for n, spectrum in enumerate(spectra):
        buckets = enumerate_proper_chains(space, n)
        assert spectrum.lengths == tuple(buckets)
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
    # the betweenness table refuses a point between another and itself,
    # interval_poset refuses an intransitive order, simple_chains_by_frame
    # refuses a frame that repeats a point, and the frame route refuses an
    # unrealized frame below m_X, all under -O; none can happen in a
    # validated space, so the first two spaces are built directly and the
    # last two faults are injected by replacing `_frame_and_total`, the
    # one helper that gives a chain's frame, and `is_realized_frame`
    code = (
        "from fractions import Fraction\n"
        "import magh.frames as frames\n"
        "from magh.errors import (\n"
        "    ImproperFrame, NotAPartialOrder, SelfBetweenness, UnrealizedFrame,\n"
        ")\n"
        "from magh.metric import FiniteMetricSpace, path_space\n"
        "from magh.posets import interval_poset, magnitude_homology\n"
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
        "real = frames._frame_and_total\n"
        "def doubled(view, pts):\n"
        "    f, total = real(view, pts)\n"
        "    return f[:1] + f, total\n"
        "frames._frame_and_total = doubled\n"
        "try:\n"
        "    frames.simple_chains_by_frame(path_space(3), 1, 1)\n"
        "except ImproperFrame as exc:\n"
        "    if (exc.chain, exc.frame) != ((0, 1), (0, 0, 1)):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "else:\n"
        "    raise SystemExit('an improper frame was accepted')\n"
        "frames.is_realized_frame = lambda space, pts: False\n"
        "try:\n"
        "    magnitude_homology(path_space(3), 1, 1)\n"
        "except UnrealizedFrame as exc:\n"
        "    if (exc.frame, exc.length) != ((0, 1), 1):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "else:\n"
        "    raise SystemExit('an unrealized frame was used')\n"
        "rows = [[0, 1, 2, 3, 4], [1, 0, 1, 1, 3], [2, 1, 0, 1, 2],\n"
        "        [3, 1, 1, 0, 1], [4, 3, 2, 1, 0]]\n"
        "try:\n"
        "    interval_poset(space(rows), 0, 4)\n"
        "except NotAPartialOrder as exc:\n"
        "    if (exc.kind, exc.witness) != ('transitivity', (1, 2, 3)):\n"
        "        raise SystemExit(f'wrong witness: {exc}')\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('an intransitive order was accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(magh.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
