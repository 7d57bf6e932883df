from fractions import Fraction

import pytest

from magh.chains import (
    block_chains,
    chain_total,
    is_strictly_smooth,
    length_spectra,
    search_moves,
    smooth_faces,
    start_blocks,
)
from magh.errors import CapNotAnInteger, EnumerationCapExceeded, NegativeCap
from magh.metric import (
    complete_space,
    cycle_space,
    path_space,
    random_metric,
    validate_metric,
)
from magh.posets import magnitude_homology_rows

from oracles import boundary_of_sum, naive_buckets, naive_chains

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


def chain_length(space, pts):
    return space.integer_view.fraction(chain_total(space, pts))


def searched_buckets(space, n):
    """The proper n-chains of the engine's search, as {length: chains}.

    `start_blocks` runs from every start point up to degree n + 1, so
    that degree n is not its top, over every length naive chains of
    degree n have, with the ends at or above the start, the
    representatives when the space has no isometry. It records the
    chains that end there; the others are their reverses, added here.
    Lengths ascend, and each bucket is sorted.
    """
    view = space.integer_view
    wanted = set(naive_buckets(space, n))
    if not wanted:
        return {}
    moves = search_moves(space, max(wanted))
    buckets = {}
    for start in range(space.n):
        ends = (1 << space.n) - (1 << start)
        blocks, _ = start_blocks(start, ends, moves, view.between, wanted, n + 1, 0, 10**9)
        for (total, end), records in blocks.items():
            for pts, _ in records.get(n, ()):
                found = buckets.setdefault(total, [])
                found.append(pts)
                if end != start:
                    found.append(pts[::-1])
    return {view.fraction(t): sorted(buckets[t]) for t in sorted(buckets)}


def test_chain_length():
    p3 = path_space(3)
    assert chain_length(p3, (0, 1, 2)) == 2
    assert chain_length(p3, (0,)) == 0
    c6 = cycle_space(6)
    assert chain_length(c6, (0, 1, 2, 4)) == 4


def test_enumerate_two_point_space():
    sp = two_point_space()
    buckets = searched_buckets(sp, 2)
    assert set(buckets) == {F(2)}
    assert buckets[F(2)] == [(0, 1, 0), (1, 0, 1)]


def test_enumerate_path3_degree1():
    buckets = searched_buckets(path_space(3), 1)
    assert {l: len(cs) for l, cs in buckets.items()} == {F(1): 4, F(2): 2}
    assert buckets[F(1)] == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_enumerate_single_point():
    sp = path_space(1)
    assert searched_buckets(sp, 1) == {}
    assert searched_buckets(sp, 0) == {F(0): [(0,)]}
    assert [s.counts for s in length_spectra(sp, 1)] == [(1,), ()]


def test_enumerate_no_points():
    # a space with no points loads and has no chains of any degree
    sp = validate_metric([])
    assert [searched_buckets(sp, n) for n in range(3)] == [{}, {}, {}]
    assert list(block_chains(sp, [0, 1], 2)) == []


@pytest.mark.parametrize(
    "space",
    [path_space(4), cycle_space(4), complete_space(3), random_metric(4, seed=5)],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_enumeration_matches_naive(space, n):
    buckets = searched_buckets(space, n)
    flat = sorted(pts for bucket in buckets.values() for pts in bucket)
    assert flat == sorted(naive_chains(space, n))
    for l, bucket in buckets.items():
        for pts in bucket:
            assert l == chain_length(space, pts)


def c6_steps(n):
    """The steps `length_spectra` counts through degree n on C_6: one per
    (last point, length) state of each degree below n and next point."""
    space = cycle_space(6)
    return sum(
        len({(pts[-1], chain_total(space, pts)) for pts in naive_chains(space, j)}) * 5
        for j in range(n)
    )


def test_enumeration_cap():
    # degree 1 takes 6 * 5 steps and degree 2 another 18 * 5: 120 > 100
    assert (c6_steps(1), c6_steps(2)) == (30, 120)
    with pytest.raises(EnumerationCapExceeded) as exc:
        length_spectra(cycle_space(6), 4, cap=100)
    assert (exc.value.count, exc.value.cap) == (120, 100)
    # C_6 has m_X = 4, so grading 4 goes to the endpoint-block engine,
    # which checks its count after each prefix's extensions; its isometries
    # move every point to 0, so it searches from start 0 alone, in fewer
    # than 100 steps
    with pytest.raises(EnumerationCapExceeded) as exc:
        magnitude_homology_rows(cycle_space(6), [4], 4, cap=50)
    assert exc.value.cap == 50 < exc.value.count


def test_cap_env_override(monkeypatch):
    runs = [
        lambda: length_spectra(cycle_space(6), 4),
        lambda: magnitude_homology_rows(cycle_space(6), [4], 4),
        lambda: magnitude_homology_rows(cycle_space(6), [2], 4),
    ]
    monkeypatch.setenv("MAGH_CAP", "10")
    for run in runs:
        with pytest.raises(EnumerationCapExceeded) as exc:
            run()
        assert exc.value.cap == 10
    monkeypatch.setenv("MAGH_CAP", "abc")
    for run in runs:
        with pytest.raises(CapNotAnInteger) as exc:
            run()
        assert str(exc.value) == "MAGH_CAP must be an integer, got 'abc'"
    monkeypatch.setenv("MAGH_CAP", "100000")
    for run in runs:
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda cap: length_spectra(path_space(3), 2, cap),
        lambda cap: magnitude_homology_rows(path_space(3), [2], 2, cap),
        lambda cap: list(block_chains(path_space(3), [2], 2, cap)),
    ],
    ids=["length_spectra", "magnitude_homology_rows", "block_chains"],
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
    spec = length_spectra(path_space(3), 1)[1]
    assert spec.degree == 1
    assert spec.lengths == (F(1), F(2))
    assert length_spectra(cycle_space(4), 1)[1].lengths == (F(1), F(2))
    assert length_spectra(path_space(1), 1)[1].lengths == ()


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
    between = path_space(3).integer_view.between
    assert smooth_faces(between, (0, 1, 2)) == [((0, 2), -1)]
    assert smooth_faces(between, (0, 1, 0)) == []


def test_boundary_c6_degree3():
    terms = dict(smooth_faces(cycle_space(6).integer_view.between, (0, 1, 2, 3)))
    assert terms == {(0, 2, 3): -1, (0, 1, 3): 1}


def test_boundary_preserves_length_and_properness():
    sp = random_metric(5, seed=9)
    between = sp.integer_view.between
    for n in (2, 3, 4):
        for total, bucket in naive_buckets(sp, n).items():
            for pts in bucket:
                faces = smooth_faces(between, pts)
                assert len(dict(faces)) == len(faces)
                for face, coeff in faces:
                    assert coeff in (-1, 1)
                    assert chain_total(sp, face) == total
                    assert all(a != b for a, b in zip(face, face[1:]))


@pytest.mark.parametrize(
    "space",
    [path_space(4), cycle_space(5), complete_space(4), random_metric(5, seed=2)],
    ids=lambda s: s.name,
)
def test_boundary_squares_to_zero(space):
    between = space.integer_view.between
    for n in (2, 3, 4):
        for bucket in naive_buckets(space, n).values():
            for pts in bucket:
                assert boundary_of_sum(space, dict(smooth_faces(between, pts))) == {}
