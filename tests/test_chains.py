from fractions import Fraction

import pytest

from magh.chains import (
    ProperChain,
    block_chains,
    boundary,
    chain_length,
    enumerate_proper_chains,
    is_strictly_smooth,
    length_spectra,
    length_spectrum,
)
from magh.errors import EnumerationCapExceeded, NegativeCap
from magh.metric import (
    complete_space,
    cycle_space,
    path_space,
    random_metric,
    validate_metric,
)

from oracles import boundary_of_sum, naive_chains

F = Fraction


def two_point_space():
    return validate_metric([[0, 1], [1, 0]], labels=["a", "b"])


def test_smoothness_examples():
    p3 = path_space(3)
    assert is_strictly_smooth(p3, 0, 1, 2)
    assert not is_strictly_smooth(p3, 0, 1, 0)
    assert not is_strictly_smooth(p3, 0, 0, 1)
    assert not is_strictly_smooth(p3, 0, 2, 1)
    c6 = cycle_space(6)
    assert is_strictly_smooth(c6, 0, 1, 2)
    assert not is_strictly_smooth(c6, 0, 3, 5)


def test_chain_length():
    p3 = path_space(3)
    assert chain_length(p3, (0, 1, 2)) == 2
    assert chain_length(p3, (0,)) == 0
    c6 = cycle_space(6)
    assert chain_length(c6, (0, 1, 2, 4)) == 4


def test_from_points_validation():
    p3 = path_space(3)
    ch = ProperChain.from_points(p3, (0, 1, 2))
    assert ch.degree == 2
    assert ch.length == 2
    with pytest.raises(ValueError):
        ProperChain.from_points(p3, (0, 0, 1))
    with pytest.raises(ValueError):
        ProperChain.from_points(p3, (0, 3))
    with pytest.raises(ValueError):
        ProperChain.from_points(p3, ())


def test_enumerate_two_point_space():
    sp = two_point_space()
    buckets = enumerate_proper_chains(sp, 2)
    assert set(buckets) == {F(2)}
    assert [c.points for c in buckets[F(2)]] == [(0, 1, 0), (1, 0, 1)]


def test_enumerate_path3_degree1():
    buckets = enumerate_proper_chains(path_space(3), 1)
    assert {l: len(cs) for l, cs in buckets.items()} == {F(1): 4, F(2): 2}
    # lexicographic within a bucket
    assert [c.points for c in buckets[F(1)]] == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_enumerate_single_point():
    sp = path_space(1)
    assert enumerate_proper_chains(sp, 1) == {}
    assert enumerate_proper_chains(sp, 0) == {F(0): [ProperChain((0,), F(0))]}


def test_enumerate_no_points():
    # a space with no points loads and has no chains of any degree
    sp = validate_metric([])
    assert [enumerate_proper_chains(sp, n) for n in range(3)] == [{}, {}, {}]


@pytest.mark.parametrize(
    "space",
    [path_space(4), cycle_space(4), complete_space(3), random_metric(4, seed=5)],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_enumeration_matches_naive(space, n):
    buckets = enumerate_proper_chains(space, n)
    flat = sorted(c.points for bucket in buckets.values() for c in bucket)
    assert flat == sorted(naive_chains(space, n))
    for l, bucket in buckets.items():
        for c in bucket:
            assert c.length == l == chain_length(space, c.points)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_proper_chains(cycle_space(6), 4, cap=100)
    assert exc.value.count == 6 * 5**4
    assert exc.value.cap == 100


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("MAGH_CAP", "10")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_proper_chains(cycle_space(6), 4)
    monkeypatch.setenv("MAGH_CAP", "100000")
    enumerate_proper_chains(cycle_space(6), 4)


@pytest.mark.parametrize(
    "run",
    [
        lambda cap: length_spectra(path_space(3), 2, cap),
        lambda cap: enumerate_proper_chains(path_space(3), 2, cap),
        lambda cap: list(block_chains(path_space(3), [2], 2, cap)),
    ],
    ids=["length_spectra", "enumerate_proper_chains", "block_chains"],
)
def test_negative_cap_is_refused_naming_its_source(monkeypatch, run):
    with pytest.raises(NegativeCap) as exc:
        run(-1)
    assert (str(exc.value), exc.value.source, exc.value.value) == (
        "cap must be >= 0, got -1",
        "cap",
        -1,
    )
    monkeypatch.setenv("MAGH_CAP", "-3")
    with pytest.raises(NegativeCap) as exc:
        run(None)
    assert str(exc.value) == "MAGH_CAP must be >= 0, got -3"
    # an explicit cap overrides the env var, 0 included
    with pytest.raises(EnumerationCapExceeded):
        run(0)


def test_length_spectrum():
    spec = length_spectrum(path_space(3), 1)
    assert spec.degree == 1
    assert spec.lengths == (F(1), F(2))
    assert length_spectrum(cycle_space(4), 1).lengths == (F(1), F(2))
    assert length_spectrum(path_space(1), 1).lengths == ()


@pytest.mark.parametrize(
    "space",
    [path_space(5), cycle_space(6), complete_space(4), random_metric(5, seed=4)],
    ids=lambda s: s.name,
)
def test_length_spectra_cap_counts_transitions(space):
    # one step per (last point, length) state of a degree and next point
    n = 4
    states = [
        {(pts[-1], chain_length(space, pts)) for pts in naive_chains(space, j)}
        for j in range(n)
    ]
    steps = sum(len(s) for s in states) * (space.n - 1)
    spectra = length_spectra(space, n, cap=steps)
    assert [sum(s.counts) for s in spectra] == [len(naive_chains(space, j)) for j in range(n + 1)]
    with pytest.raises(EnumerationCapExceeded) as exc:
        length_spectra(space, n, cap=steps - 1)
    assert (exc.value.count, exc.value.cap) == (steps, steps - 1)
    assert length_spectra(space, -1) == []


def test_boundary_path3():
    p3 = path_space(3)
    ch = ProperChain.from_points(p3, (0, 1, 2))
    assert {t.points: c for t, c in boundary(p3, ch).items()} == {(0, 2): -1}
    back = ProperChain.from_points(p3, (0, 1, 0))
    assert boundary(p3, back) == {}


def test_boundary_c6_degree3():
    c6 = cycle_space(6)
    ch = ProperChain.from_points(c6, (0, 1, 2, 3))
    terms = {t.points: c for t, c in boundary(c6, ch).items()}
    assert terms == {(0, 2, 3): -1, (0, 1, 3): 1}


def test_boundary_preserves_length_and_properness():
    sp = random_metric(5, seed=9)
    for n in (2, 3, 4):
        for bucket in enumerate_proper_chains(sp, n).values():
            for ch in bucket:
                for term, coeff in boundary(sp, ch).items():
                    assert coeff in (-1, 1)
                    assert term.length == ch.length
                    assert all(
                        a != b for a, b in zip(term.points, term.points[1:])
                    )


@pytest.mark.parametrize(
    "space",
    [path_space(4), cycle_space(5), complete_space(4), random_metric(5, seed=2)],
    ids=lambda s: s.name,
)
def test_boundary_squares_to_zero(space):
    for n in (2, 3, 4):
        for bucket in enumerate_proper_chains(space, n).values():
            for ch in bucket:
                assert boundary_of_sum(space, boundary(space, ch)) == {}
