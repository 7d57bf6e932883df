from fractions import Fraction

import pytest

import magh.algebra
import magh.frames
from magh.algebra import TRIVIAL_GROUP, HomologyGroup, complex_from_bases
from magh.chains import ProperChain, chain_length, enumerate_proper_chains
from magh.errors import EnumerationCapExceeded, NotASubcomplex
from magh.frames import (
    four_cuts,
    frame,
    frame_subcomplex,
    frame_table,
    is_frame,
    is_geodesically_simple,
    is_realized_frame,
    m_x,
    simp_decomposition,
    simple_chains_by_frame,
)
from magh.metric import (
    complete_space,
    cycle_space,
    metric_closure,
    path_space,
    random_metric,
    validate_metric,
)
from magh.posets import frame_homology_via_posets

from oracles import frame_bases_by_tables, naive_chains, naive_four_cuts
from test_posets import rp2_face_poset_space

F = Fraction


# --- frames of chains ---------------------------------------------------------


def test_singular_positions_and_frame():
    p3 = path_space(3)
    assert frame(p3, (0, 1, 2)) == (0, 2)
    assert frame(p3, (0, 1, 0)) == (0, 1, 0)
    c6 = cycle_space(6)
    assert frame(c6, (0, 1, 2, 3)) == (0, 3)
    assert frame(c6, (0, 1, 2, 4)) == (0, 4)
    assert frame(c6, (0, 3)) == (0, 3)
    assert frame(p3, (0,)) == (0,)


def test_geodesic_simplicity():
    p3 = path_space(3)
    assert is_geodesically_simple(p3, ProperChain.from_points(p3, (0, 1, 2)))
    assert is_geodesically_simple(p3, ProperChain.from_points(p3, (0, 1, 0)))
    c6 = cycle_space(6)
    # frame (0, 4) has length 2 but the chain walks length 4
    assert not is_geodesically_simple(c6, ProperChain.from_points(c6, (0, 1, 2, 4)))
    assert is_geodesically_simple(c6, ProperChain.from_points(c6, (0, 1, 2, 3)))


def test_is_frame():
    p3 = path_space(3)
    assert is_frame(p3, (0, 2))
    assert is_frame(p3, (0, 1, 0))
    assert not is_frame(p3, (0, 1, 2))  # point 1 is smooth, frame is (0, 2)
    assert not is_frame(p3, (0,))
    assert not is_frame(p3, (0, 0, 1))
    c6 = cycle_space(6)
    assert is_frame(c6, (0, 1, 4))
    assert not is_frame(c6, (0, 1, 2))


def test_realized_frames():
    c4 = cycle_space(4)
    # pair frames have no junction to smooth
    assert is_realized_frame(c4, (0, 2))
    assert is_realized_frame(cycle_space(6), (0, 3))
    # inserting 1 between 2 and 0 makes 2 smooth: d(1, 1) pairs break it
    assert not is_realized_frame(c4, (0, 2, 0))
    # not even a frame
    assert not is_realized_frame(path_space(3), (0, 1, 2))
    # self-framed, but inserting 2 between 1 and 4 smooths the junction at 1
    c6 = cycle_space(6)
    assert is_frame(c6, (0, 1, 4))
    assert not is_realized_frame(c6, (0, 1, 4))


def test_unrealized_frame_routes_disagree():
    # the reason is_realized_frame exists: for C_6 frame (0, 1, 4) the
    # subcomplex has H_3 = 0 while the interval tensor route reports Z
    c6 = cycle_space(6)
    f = (0, 1, 4)
    sub = frame_subcomplex(c6, f, 4)
    assert sub.sizes == [1, 2, 1]
    assert sub.homology(3) == HomologyGroup(0)
    assert frame_homology_via_posets(c6, f, 3) == HomologyGroup(1)


# --- frame subcomplexes ---------------------------------------------------------


def test_frame_subcomplex_c4_diagonal_pair():
    c4 = cycle_space(4)
    sub = frame_subcomplex(c4, (0, 2), 3)
    assert sub.lo == 1 and sub.hi == 3
    assert sub.sizes == [1, 2, 0]
    assert sub.homology(1) == HomologyGroup(0)
    assert sub.homology(2) == HomologyGroup(1)
    assert sub.homology(3) == HomologyGroup(0)


def test_frame_subcomplex_rejects_bad_input():
    c4 = cycle_space(4)
    with pytest.raises(ValueError):
        frame_subcomplex(c4, (0,), 2)
    with pytest.raises(ValueError):
        frame_subcomplex(c4, (0, 2), 0)


def test_simp_decomposition_path3():
    p3 = path_space(3)
    pieces = simp_decomposition(p3, 2, 3)
    assert sorted(pieces) == [
        (0, 1, 0),
        (0, 2),
        (1, 0, 1),
        (1, 2, 1),
        (2, 0),
        (2, 1, 2),
    ]
    assert pieces[(0, 2)].size(2) == 1  # the chain (0, 1, 2)
    assert pieces[(0, 1, 0)].lo == 2
    assert pieces[(0, 1, 0)].sizes == [1, 0]  # only the frame itself
    assert simp_decomposition(p3, 0, 3) == {}


def test_simp_decomposition_two_points():
    import magh.metric as metric

    sp = metric.validate_metric([[0, 1], [1, 0]])
    pieces = simp_decomposition(sp, 2, 3)
    assert sorted(pieces) == [(0, 1, 0), (1, 0, 1)]
    for cx in pieces.values():
        assert cx.lo == 2 and cx.sizes == [1, 0]


@pytest.mark.parametrize(
    "space",
    [cycle_space(4), cycle_space(5), path_space(4), random_metric(4, seed=3)],
    ids=lambda s: s.name,
)
def test_partition_of_simple_chains(space):
    n_top = 3
    lengths = set()
    for n in range(1, n_top + 1):
        for bucket in enumerate_proper_chains(space, n).values():
            lengths.update(ch.length for ch in bucket)
    for l in sorted(lengths):
        by_frame = simple_chains_by_frame(space, l, n_top)
        seen = {}
        for f, by_degree in by_frame.items():
            assert is_frame(space, f)
            assert chain_length(space, f) == l
            for n, chains in by_degree.items():
                for ch in chains:
                    assert frame(space, ch) == f
                    assert ch.points not in seen
                    seen[ch.points] = f
        for n in range(1, n_top + 1):
            for ch in enumerate_proper_chains(space, n).get(l, []):
                if is_geodesically_simple(space, ch):
                    assert ch.points in seen
                else:
                    assert ch.points not in seen


def rational_metric():
    """Closure of K_5 with weights in sixths, geodesic ties kept."""
    w = [F(1, 2), F(5, 6), F(4, 3), F(1, 2), F(3, 2), F(5, 6), F(1, 3), F(2, 3), F(7, 6), F(1, 2)]
    d = [[F(0)] * 5 for _ in range(5)]
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for (i, j), v in zip(pairs, w):
        d[i][j] = d[j][i] = v
    space = validate_metric(metric_closure(d), name="rational(5)")
    assert space.integer_view.scale == 6
    return space


FRAME_SPACES = [
    cycle_space(4),
    cycle_space(5),
    cycle_space(6),
    path_space(4),
    complete_space(3),
    random_metric(4, seed=7),
    random_metric(5, seed=8),
    rational_metric(),
]


def recorded_bases(monkeypatch):
    """Record the bases the frame code hands to complex_from_bases."""
    calls = []

    def record(space, bases, lo, hi):
        calls.append({n: list(chains) for n, chains in bases.items()})
        return complex_from_bases(space, bases, lo, hi)

    monkeypatch.setattr(magh.frames, "complex_from_bases", record)
    return calls


@pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda s: s.name)
def test_frame_bases_match_table_filter(space, monkeypatch):
    calls = recorded_bases(monkeypatch)
    view = space.integer_view
    for n_top in (2, 4):
        totals = {
            sum(view.idist[a][b] for a, b in zip(pts, pts[1:]))
            for n in range(1, n_top + 1)
            for pts in naive_chains(space, n)
        }
        for total in sorted(totals):
            l = view.fraction(total)
            oracle = frame_bases_by_tables(space, total, n_top)
            by_frame = simple_chains_by_frame(space, l, n_top)
            assert list(by_frame) == list(oracle)
            for f, by_degree in by_frame.items():
                assert {n: [ch.points for ch in chains] for n, chains in by_degree.items()} == (
                    oracle[f]
                )
            del calls[:]
            pieces = simp_decomposition(space, l, n_top)
            assert list(pieces) == list(oracle)
            assert calls == list(oracle.values())
            for f, by_degree in oracle.items():
                del calls[:]
                frame_subcomplex(space, f, n_top)
                lo = len(f) - 1
                assert calls == [{n: by_degree.get(n, []) for n in range(lo, n_top + 1)}]
        # every pair is its own frame, as check_frame_injectivity asks
        for a in range(space.n):
            for b in range(space.n):
                if a != b:
                    oracle = frame_bases_by_tables(space, view.idist[a][b], n_top)
                    del calls[:]
                    frame_subcomplex(space, (a, b), n_top)
                    assert calls == [{n: oracle[a, b].get(n, []) for n in range(1, n_top + 1)}]


def test_frame_cap_counts_prefixes_kept():
    # the frame (0, 2) of C_5 has length 2: its search from 0 keeps every
    # proper chain from 0 of degree <= 3 and length <= 2, degree 0
    # included; a whole grading's search keeps those from every point
    space = cycle_space(5)

    def length(pts):
        return sum(space.d(a, b) for a, b in zip(pts, pts[1:]))

    kept = [pts for n in range(4) for pts in naive_chains(space, n) if length(pts) <= 2]
    from_zero = sum(1 for pts in kept if pts[0] == 0)
    # far below the 5 * 4^3 chains of degree 3 the chain table counted
    assert (from_zero, len(kept)) == (9, 45)
    for call, count in [
        (lambda cap: frame_subcomplex(space, (0, 2), 3, cap), from_zero),
        (lambda cap: simp_decomposition(space, 2, 3, cap), len(kept)),
        (lambda cap: simple_chains_by_frame(space, 2, 3, cap), len(kept)),
    ]:
        with pytest.raises(EnumerationCapExceeded) as exc:
            call(count - 1)
        assert (exc.value.count, exc.value.cap) == (count, count - 1)
        call(count)


# --- the frame table ---------------------------------------------------------------


@pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda s: s.name)
def test_frame_table_matches_frame_subcomplexes(space):
    # every frame's groups equal its subcomplex's, and every grading's sum
    # is the direct sum over simp_decomposition
    view = space.integer_view
    points = range(space.n)
    for n_top in (2, 4):
        totals = sorted(
            {
                sum(view.idist[a][b] for a, b in zip(pts, pts[1:]))
                for n in range(1, n_top + 1)
                for pts in naive_chains(space, n)
            }
        )
        blocks = [(t, a, b) for t in totals for a in points for b in points]
        table = frame_table(space, blocks, n_top)
        assert list(table) == blocks
        for total in totals:
            pieces = simp_decomposition(space, view.fraction(total), n_top)
            by_frame = {}
            for (t, a, b), frames in table.items():
                if t == total:
                    for f, groups in frames.items():
                        assert (f[0], f[-1]) == (a, b)
                        by_frame[f] = groups
            assert sorted(by_frame) == list(pieces)
            for f, groups in by_frame.items():
                assert all(not g.is_trivial() for g in groups.values())
                sub = frame_subcomplex(space, f, n_top)
                for n in range(n_top + 2):
                    assert groups.get(n, TRIVIAL_GROUP) == sub.homology_or_trivial(n), (f, n)
            for n in range(n_top + 2):
                assert HomologyGroup.direct_sum(
                    groups.get(n, TRIVIAL_GROUP) for groups in by_frame.values()
                ) == HomologyGroup.direct_sum(
                    cx.homology_or_trivial(n) for cx in pieces.values()
                )


def test_frame_table_keeps_rp2_torsion():
    # the pair frame (bottom, top) of RP^2's face poset reads reduced
    # H_1(RP^2) = Z/2 at n = 3, as the interval route does
    space, bottom, top = rp2_face_poset_space()
    block = (space.integer_view.idist[bottom][top], bottom, top)
    groups = frame_table(space, [block], 4)[block][bottom, top]
    assert groups[3] == HomologyGroup(0, (2,))
    assert 2 not in groups
    assert groups[3] == frame_homology_via_posets(space, (bottom, top), 3)


def test_frame_alone_builds_no_complex(monkeypatch):
    built = []

    class Counting(magh.algebra.ChainComplexZ):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(magh.algebra, "ChainComplexZ", Counting)
    space = path_space(3)
    table = frame_table(space, [(1, 0, 1), (2, 0, 0), (2, 0, 2)], 3)
    assert table == {
        (1, 0, 1): {(0, 1): {1: HomologyGroup(1)}},
        (2, 0, 0): {(0, 1, 0): {2: HomologyGroup(1)}},
        # (0, 2) holds (0, 1, 2) as well as itself
        (2, 0, 2): {(0, 2): {}},
    }
    assert len(built) == 1
    # the lone chain's boundary is still checked, as at a complex's bottom
    with pytest.raises(NotASubcomplex):
        magh.frames._piece_groups(space, {2: [(0, 1, 2)]})
    with pytest.raises(NotASubcomplex):
        complex_from_bases(space, {2: [(0, 1, 2)]}, 2, 2)


def test_frame_table_searches_only_what_it_lacks(monkeypatch):
    searches = []
    original = magh.frames.start_blocks

    def recording(start, moves, wanted, n_top, steps, limit):
        searches.append((start, sorted(wanted)))
        return original(start, moves, wanted, n_top, steps, limit)

    monkeypatch.setattr(magh.frames, "start_blocks", recording)
    space = cycle_space(5)
    first = frame_table(space, [(2, 0, 2), (1, 0, 1), (2, 3, 0)], 3)
    assert searches == [(0, [1, 2]), (3, [2])]
    del searches[:]
    # a held block costs no search and no cap step
    again = frame_table(space, [(2, 3, 0), (2, 0, 2)], 3, cap=0)
    assert searches == []
    assert again == {key: first[key] for key in again}
    # a block from a start already searched for that total is split anew
    frame_table(space, [(2, 0, 3), (1, 0, 1)], 3)
    assert searches == [(0, [2])]
    # and each top degree has its own table
    frame_table(space, [(2, 0, 2)], 4)
    assert searches[1:] == [(0, [2])]
    assert sorted(space.integer_view.frame_groups) == [3, 4]


# --- four-cuts and m_X ----------------------------------------------------------


def test_four_cuts_c4():
    cuts = four_cuts(cycle_space(4))
    assert FourCutPoints(cuts) == naive_four_cuts(cycle_space(4))
    assert ((0, 1, 2, 3), F(3)) in FourCutPoints(cuts)
    assert all(c.length >= 3 for c in cuts)


def FourCutPoints(cuts):
    return [(c.points, c.length) for c in cuts]


def test_four_cuts_sorted():
    cuts = four_cuts(cycle_space(6))
    keys = [(c.length, c.points) for c in cuts]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "space",
    [
        cycle_space(4),
        cycle_space(5),
        cycle_space(6),
        cycle_space(7),
        path_space(5),
        complete_space(4),
        random_metric(4, seed=11),
        random_metric(5, seed=12),
        random_metric(5, seed=13),
    ],
    ids=lambda s: s.name,
)
def test_four_cuts_match_oracle(space):
    assert FourCutPoints(four_cuts(space)) == naive_four_cuts(space)


def test_m_x_values():
    assert m_x(cycle_space(4)).value == 3
    assert m_x(cycle_space(4)).witness == (0, 1, 2, 3)
    assert m_x(cycle_space(5)).value == 3
    assert m_x(cycle_space(6)).value == 4
    assert m_x(cycle_space(6)).witness == (0, 1, 2, 4)


def test_m_x_infinite_cases():
    for space in (path_space(5), complete_space(4), path_space(2)):
        res = m_x(space)
        assert res.is_infinite
        assert res.value is None and res.witness is None
        assert res.to_json_dict() == {"m_x": "inf", "witness": None}


def test_m_x_consistency_with_cuts():
    for space in (cycle_space(4), cycle_space(6), random_metric(5, seed=20)):
        res = m_x(space)
        cuts = four_cuts(space)
        if not cuts:
            assert res.is_infinite
            continue
        assert res.value == min(c.length for c in cuts)
        witness_cut = next(c for c in cuts if c.points == res.witness)
        assert witness_cut.length == res.value
        assert res.to_json_dict()["witness"] == list(res.witness)
