import itertools
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import magh
import magh.frames
from magh.algebra import TRIVIAL_GROUP, HomologyGroup, _blocks_homology
from magh.chains import chain_total, smooth_mask
from magh.errors import EnumerationCapExceeded, NotASubcomplex
from magh.frames import (
    _frame_splits,
    four_cuts,
    frame,
    frame_pieces,
    is_frame,
    is_geodesically_simple,
    is_realized_frame,
    m_x,
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
from magh.verify import default_suite, random_suite

from oracles import (
    frame_complex,
    naive_buckets,
    naive_chains,
    naive_four_cuts,
    naive_frame_bases,
    naive_m_x,
    record_groups,
    self_framed_tuples,
    smooth_by_distances,
)
from test_posets import rational_grid_space, rp2_face_poset_space

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
    assert is_geodesically_simple(p3, (0, 1, 2))
    assert is_geodesically_simple(p3, [0, 1, 0])
    c6 = cycle_space(6)
    # frame (0, 4) has length 2 but the chain walks length 4
    assert not is_geodesically_simple(c6, (0, 1, 2, 4))
    assert is_geodesically_simple(c6, (0, 1, 2, 3))
    assert is_geodesically_simple(c6, (5,))


def test_geodesic_simplicity_refuses_improper_tuples():
    p3 = path_space(3)
    for pts, message in [
        ((0, 0, 1), "chain (0, 0, 1) is not proper: repeated point 0"),
        ((0, 3), "point index 3 out of range for n=3"),
        ((-1, 0), "point index -1 out of range for n=3"),
        ((), "a chain needs at least one point"),
    ]:
        with pytest.raises(ValueError) as info:
            is_geodesically_simple(p3, pts)
        assert str(info.value) == message


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
    sub = frame_complex(c6, f, 4)
    assert sub.sizes == [1, 2, 1]
    assert sub.homology(3) == HomologyGroup(0)
    assert frame_pieces(c6, [f], 4)[f] == {}
    assert frame_homology_via_posets(c6, f, 3) == HomologyGroup(1)


# --- frame subcomplexes ---------------------------------------------------------


def test_frame_subcomplex_c4_diagonal_pair():
    c4 = cycle_space(4)
    sub = frame_complex(c4, (0, 2), 3)
    assert sub.lo == 1 and sub.hi == 3
    assert sub.sizes == [1, 2, 0]
    assert [sub.homology(n) for n in (1, 2, 3)] == [
        HomologyGroup(0),
        HomologyGroup(1),
        HomologyGroup(0),
    ]
    # the chain-level frame route reads the same groups off the package's search
    assert frame_pieces(c4, [(0, 2)], 3) == {(0, 2): {2: HomologyGroup(1)}}


def test_simp_decomposition_path3():
    p3 = path_space(3)
    frames = self_framed_tuples(p3, {2}, 2)
    assert frames == [(0, 2), (2, 0), (0, 1, 0), (1, 0, 1), (1, 2, 1), (2, 1, 2)]
    assert list(naive_frame_bases(p3, 2, 3)) == sorted(frames)
    table = frame_pieces(p3, frames, 3)
    # (0, 2) holds the chain (0, 1, 2) too, (0, 1, 0) only itself
    assert split_by_frame(p3, [(0, 2), (0, 1, 0)], 3) == {
        (0, 1, 0): {2: [(0, 1, 0)]},
        (0, 2): {1: [(0, 2)], 2: [(0, 1, 2)]},
    }
    assert table[0, 2] == {}
    assert table[0, 1, 0] == {2: HomologyGroup(1)}


def test_simp_decomposition_two_points():
    sp = validate_metric([[0, 1], [1, 0]])
    frames = self_framed_tuples(sp, {2}, 2)
    z = {2: HomologyGroup(1)}
    assert frame_pieces(sp, frames, 3) == {(0, 1, 0): z, (1, 0, 1): z}


def split_by_frame(space, frames, n_top):
    """The chains `_frame_splits` files for the given frames, as
    {frame: {degree: point tuples}}, frames sorted."""
    split = {
        f: {n: [pts for pts, _ in records] for n, records in by_degree.items()}
        for new in _frame_splits(space, frames, n_top, None)
        for f, by_degree in new
    }
    return {f: split[f] for f in sorted(split)}


def filed_bases(space, total, n_top):
    """`naive_frame_bases` less what the frame search does not file: the
    chains of degree n_top with no smooth point, by distances, each its
    own frame, and so the frames of degree n_top."""
    out = {}
    for f, by_degree in naive_frame_bases(space, total, n_top).items():
        if len(f) - 1 < n_top:
            assert all(smooth_by_distances(space, pts) for pts in by_degree.get(n_top, ()))
            out[f] = by_degree
        else:
            assert by_degree == {n_top: [f]} and not smooth_by_distances(space, f)
    return out


@pytest.mark.parametrize(
    "space",
    [cycle_space(4), cycle_space(5), path_space(4), random_metric(4, seed=3)],
    ids=lambda s: s.name,
)
def test_partition_of_simple_chains(space):
    n_top = 3
    totals = {chain_total(space, pts) for n in range(1, n_top + 1) for pts in naive_chains(space, n)}
    for total in sorted(totals):
        # every tuple that can be a frame, those of degree n_top included
        frames = self_framed_tuples(space, {total}, n_top)
        seen = {}
        for f, by_degree in split_by_frame(space, frames, n_top).items():
            assert is_frame(space, f)
            assert chain_total(space, f) == total
            for n, chains in by_degree.items():
                for pts in chains:
                    assert frame(space, pts) == f
                    assert pts not in seen
                    seen[pts] = f
        for n in range(1, n_top + 1):
            for pts in naive_buckets(space, n).get(total, ()):
                # a chain of the top degree without a smooth point is its
                # own frame, and is not filed
                filed = n < n_top or smooth_mask(space.integer_view.between, pts)
                assert (pts in seen) == (is_geodesically_simple(space, pts) and bool(filed))


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


@pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda s: s.name)
def test_frame_bases_match_table_filter(space):
    view = space.integer_view
    points = range(space.n)
    for n_top in (2, 4):
        totals = {
            chain_total(space, pts) for n in range(1, n_top + 1) for pts in naive_chains(space, n)
        }
        for total in sorted(totals):
            oracle = filed_bases(space, total, n_top)
            assert split_by_frame(space, self_framed_tuples(space, {total}, n_top), n_top) == oracle
            assert split_by_frame(space, list(oracle), n_top) == oracle
        # every pair is its own frame, as tensor_route asks
        for a in points:
            for b in points:
                if a != b:
                    oracle = filed_bases(space, view.idist[a][b], n_top)
                    got = split_by_frame(space, [(a, b)], n_top)
                    assert got == {(a, b): oracle[a, b]}


def test_frame_cap_counts_prefixes_kept():
    # the frame search keeps, from each start, the start itself and every
    # geodesically simple chain no longer than the length asked for; for
    # a frame request it keeps only those whose frame less its last point
    # starts the frame. On C_6 at length 4 and degree <= 4 both prunings bite
    space = cycle_space(6)
    f = (0, 2, 4)
    heads = {f[:k] for k in range(1, len(f))}

    def length(pts):
        return sum(space.d(a, b) for a, b in zip(pts, pts[1:]))

    short = [pts for n in range(1, 5) for pts in naive_chains(space, n) if length(pts) <= 4]
    simple = [pts for pts in short if length(frame(space, pts)) == length(pts)]
    from_zero = [pts for pts in simple if pts[0] == 0]
    for_f = [pts for pts in from_zero if frame(space, pts)[:-1] in heads]
    assert (len(short), len(simple), len(from_zero), len(for_f)) == (438, 390, 65, 20)
    # every frame of length 4 starts the frame of each simple chain no
    # longer, so a request for all of them keeps every simple prefix
    every = self_framed_tuples(space, {4}, 4)
    assert {g[:k] for g in every for k in range(1, len(g))} >= {
        frame(space, pts)[:-1] for pts in simple
    }
    for call, count in [
        (lambda cap: frame_pieces(space, [f], 4, cap), 1 + len(for_f)),
        (lambda cap: frame_pieces(space, every, 4, cap), space.n + len(simple)),
    ]:
        with pytest.raises(EnumerationCapExceeded) as exc:
            call(count - 1)
        assert (exc.value.count, exc.value.cap) == (count, count - 1)
        call(count)


# --- frame pieces ----------------------------------------------------------------


def compare_with_subcomplexes(space, blocks, n_top):
    """Check `frame_pieces` on the frames of the given blocks against
    `oracles.frame_complex`, frame by frame, and return the frames of
    degree n_top of the blocks.

    A block (total, a, b) lists the frames from a to b of
    `naive_frame_bases` at that length, and their chains are its chains.
    Below n_top every frame's groups are its subcomplex's. The table files
    no chain of degree n_top without a smooth point: such a chain is its
    own frame, so at n_top a frame's groups are its subcomplex's too, and
    a frame of degree n_top has no group.
    """
    frames = [
        f
        for total, a, b in blocks
        for f in naive_frame_bases(space, total, n_top)
        if (f[0], f[-1]) == (a, b)
    ]
    table = frame_pieces(space, frames, n_top)
    assert list(table) == frames
    top_frames = [f for f in frames if len(f) - 1 == n_top]
    for f, groups in table.items():
        if f in top_frames:
            assert groups == {}
            continue
        assert all(not g.is_trivial() for g in groups.values())
        sub = frame_complex(space, f, n_top)
        for n in range(n_top + 2):
            assert groups.get(n, TRIVIAL_GROUP) == sub.homology(n), (f, n)
    return top_frames


@pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda s: s.name)
def test_frame_table_matches_frame_subcomplexes(space):
    # every frame's groups equal its subcomplex's, and every grading's sum
    # is the direct sum over its frame subcomplexes but those of degree
    # n_top, each a lone chain without a smooth point, Z at n_top
    points = range(space.n)
    for n_top in (2, 4):
        totals = sorted(
            {chain_total(space, pts) for n in range(1, n_top + 1) for pts in naive_chains(space, n)}
        )
        blocks = [(t, a, b) for t in totals for a in points for b in points]
        top_frames = compare_with_subcomplexes(space, blocks, n_top)
        for total in totals:
            pieces = {f: frame_complex(space, f, n_top) for f in naive_frame_bases(space, total, n_top)}
            by_frame = frame_pieces(space, list(pieces), n_top)
            omitted = [f for f in pieces if f in top_frames]
            assert all(by_frame[f] == {} for f in omitted)
            for n in range(n_top + 2):
                want = HomologyGroup.direct_sum(cx.homology(n) for cx in pieces.values())
                if n == n_top:
                    want = HomologyGroup(want.betti - len(omitted), want.torsion)
                got = HomologyGroup.direct_sum(
                    groups.get(n, TRIVIAL_GROUP) for groups in by_frame.values()
                )
                assert got == want, (total, n)


def test_frame_table_matches_frame_subcomplexes_on_rp2():
    # RP^2's face poset with a bottom and a top: every frame from the
    # bottom at length 4, where the pair frame (bottom, top) carries Z/2
    # at n = 3
    space, bottom, top = rp2_face_poset_space()
    total = space.integer_view.idist[bottom][top]
    blocks = [(total, bottom, b) for b in range(space.n)]
    assert compare_with_subcomplexes(space, blocks, 4)
    table = frame_pieces(space, [(bottom, top)], 4)
    assert table[bottom, top][3] == HomologyGroup(0, (2,))


def test_frame_table_keeps_rp2_torsion():
    # the pair frame (bottom, top) of RP^2's face poset reads reduced
    # H_1(RP^2) = Z/2 at n = 3, as the interval route does
    space, bottom, top = rp2_face_poset_space()
    groups = frame_pieces(space, [(bottom, top)], 4)[bottom, top]
    assert groups[3] == HomologyGroup(0, (2,))
    assert 2 not in groups
    assert groups[3] == frame_homology_via_posets(space, (bottom, top), 3)


def test_frame_alone_builds_no_complex(monkeypatch):
    # each start's pieces go to one reduction call, as one list of blocks
    built = []

    def counting(blocks):
        built.append([{n: [pts for pts, _ in chains] for n, chains in b.items()} for b in blocks])
        return _blocks_homology(blocks)

    monkeypatch.setattr(magh.frames, "_blocks_homology", counting)
    space = path_space(3)
    table = frame_pieces(space, [(0, 1), (0, 1, 0), (0, 2)], 3)
    assert table == {
        (0, 1): {1: HomologyGroup(1)},
        (0, 1, 0): {2: HomologyGroup(1)},
        # (0, 2) holds (0, 1, 2) as well as itself
        (0, 2): {},
    }
    # every piece is a frame with at most its one-point insertions, whose
    # groups are read off their count: nothing is assembled
    assert built == []
    # on C_6 some pieces are assembled, none of them a single-row one
    c6 = cycle_space(6)
    frame_pieces(c6, self_framed_tuples(c6, {2, 3, 4}, 3), 4)
    assert built
    for blocks in built:
        for by_degree in blocks:
            assert not is_single_row(c6, by_degree), by_degree
    del built[:]
    # the lone chain's boundary is still checked, as at a complex's bottom:
    # the search files (0, 1, 2) with its smooth point 1 in its mask
    [[(f, by_degree)]] = _frame_splits(space, [(0, 2)], 2, None)
    assert f == (0, 2) and by_degree[2] == [((0, 1, 2), 0b10)]
    with pytest.raises(NotASubcomplex):
        reduce_pieces(monkeypatch, [(f, {2: by_degree[2]})])
    assert built == []
    # as the engine's assembly refuses it, with the mask read off the tuple
    mask = smooth_mask(space.integer_view.between, (0, 1, 2))
    with pytest.raises(NotASubcomplex):
        _blocks_homology([{2: [((0, 1, 2), mask)]}])


def is_single_row(space, chains_by_degree):
    """True when the piece is its bottom chain, with no smooth point, and
    one degree up only chains with one smooth point each, by distances,
    whose removal gives that chain."""
    degrees = sorted(chains_by_degree)
    lo = degrees[0]
    if len(chains_by_degree[lo]) != 1 or degrees not in ([lo], [lo, lo + 1]):
        return False
    [base] = chains_by_degree[lo]
    if smooth_by_distances(space, base):
        return False
    for pts in chains_by_degree.get(lo + 1, ()):
        mask = smooth_by_distances(space, pts)
        if bin(mask).count("1") != 1:
            return False
        i = mask.bit_length() - 1
        if pts[:i] + pts[i + 1 :] != base:
            return False
    return True


def single_row_spaces():
    spaces = default_suite() + random_suite(8) + [rational_grid_space(2, 3)]
    params = [pytest.param(space, None, id=space.name) for space in spaces]
    # RP^2's face poset: the frames from the bottom at the length of its
    # torsion frame
    space, bottom, top = rp2_face_poset_space()
    frames = self_framed_tuples(space, {space.integer_view.idist[bottom][top]}, 3, [bottom])
    return params + [pytest.param(space, frames, id=space.name)]


def reduce_pieces(monkeypatch, new):
    """`frame_pieces` on the pieces `new` of one start point, (frame,
    records) each, as if `_frame_splits` had filed them."""
    monkeypatch.setattr(magh.frames, "_frame_splits", lambda *args: iter([new]))
    return frame_pieces(None, [f for f, _ in new], 2)


def recorded_splits(monkeypatch):
    """Record each list of pieces `_frame_splits` hands on."""
    lists = []
    splits = magh.frames._frame_splits

    def recording(*args):
        for new in splits(*args):
            lists.append(new)
            yield new

    monkeypatch.setattr(magh.frames, "_frame_splits", recording)
    return lists


def single_row_reads(monkeypatch, space, frames):
    """(frame, records, groups) of each piece the single-row rule reads in
    `frame_pieces(space, frames, 4)`."""
    lists = recorded_splits(monkeypatch)
    pieces = frame_pieces(space, frames, 4)
    return [
        (f, by_degree, pieces[f])
        for new in lists
        for f, by_degree in new
        if magh.frames._single_row(by_degree) is not None
    ]


def every_frame(space):
    """Every tuple of degree < 4 that is its own frame and as long as some
    distance."""
    totals = {t for row in space.integer_view.idist for t in row if t}
    return self_framed_tuples(space, totals, 3)


@pytest.mark.parametrize("space, frames", single_row_spaces())
def test_single_row_pieces_match_their_assembly(monkeypatch, space, frames):
    # the groups a single-row piece is given are those of its own records
    # assembled and reduced as a one-block complex
    read = single_row_reads(monkeypatch, space, every_frame(space) if frames is None else frames)
    assert read
    for f, by_degree, groups in read:
        chains = {n: [pts for pts, _ in records] for n, records in by_degree.items()}
        assert is_single_row(space, chains), f
        assert groups == record_groups(by_degree), f


def test_single_row_rule_meets_every_count(monkeypatch):
    # pieces of 0, 1 and several insertions all occur in the default suite
    read = [
        piece
        for space in default_suite()
        for piece in single_row_reads(monkeypatch, space, every_frame(space))
    ]
    counts = {len(by_degree.get(len(f), ())) for f, by_degree, _ in read}
    assert {0, 1, 2, 3} <= counts


@pytest.mark.parametrize(
    "above, message",
    [
        # an insertion whose one face is not the frame
        (
            [((0, 1, 2), 0b10), ((0, 3, 1), 0b10)],
            "boundary term (0, 1) of (0, 3, 1) is outside the subcomplex basis at degree 1",
        ),
        # an insertion with two smooth positions
        (
            [((0, 1, 2), 0b110)],
            "boundary term (0, 1) of (0, 1, 2) is outside the subcomplex basis at degree 1",
        ),
    ],
    ids=["foreign-face", "two-bit-mask"],
)
def test_corrupted_single_row_pieces_reach_the_assembly(monkeypatch, above, message):
    built = []

    def counting(blocks):
        built.append(blocks)
        return _blocks_homology(blocks)

    monkeypatch.setattr(magh.frames, "_blocks_homology", counting)
    piece = {1: [((0, 2), 0)], 2: above}
    assert magh.frames._single_row(piece) is None
    with pytest.raises(NotASubcomplex) as info:
        reduce_pieces(monkeypatch, [((0, 2), piece)])
    assert str(info.value) == message
    assert built == [[piece]]
    # as the one-block assembly refuses it
    with pytest.raises(NotASubcomplex) as info:
        _blocks_homology([piece])
    assert str(info.value) == message


def old_is_realized_frame(space, pts):
    """The frame test and the junction test, one after the other."""
    pts = tuple(pts)
    if not is_frame(space, pts):
        return False
    view = space.integer_view
    for i in range(1, len(pts) - 1):
        xi = pts[i]
        left = (pts[i - 1],) + view.between_points(pts[i - 1], xi)
        right = (pts[i + 1],) + view.between_points(xi, pts[i + 1])
        for lpt in left:
            for rpt in right:
                if lpt == pts[i - 1] and rpt == pts[i + 1]:
                    continue
                if view.between[lpt][rpt] >> xi & 1:
                    return False
    return True


def corrupted_c5():
    # C_5 with 3 counted as strictly between 0 and 1, and 1 no longer
    # between 0 and 2
    space = replace(cycle_space(5), name="cycle(5)-corrupted")
    view = space.integer_view
    between = [list(row) for row in view.between]
    between[0][1] |= 1 << 3
    between[0][2] &= ~(1 << 1)
    vars(space)["integer_view"] = replace(view, between=tuple(map(tuple, between)))
    return space


@pytest.mark.parametrize(
    "space",
    default_suite() + [rational_grid_space(2, 3), corrupted_c5()],
    ids=lambda s: s.name,
)
def test_realized_frame_in_one_pass(space):
    # every tuple of degree <= 3, proper or not
    seen = set()
    for m in range(4):
        for pts in itertools.product(range(space.n), repeat=m + 1):
            got = is_realized_frame(space, pts)
            assert got == old_is_realized_frame(space, pts), pts
            seen.add(got)
    assert seen == {True, False}


def test_corrupted_betweenness_fails_the_frame_table_under_O():
    # the corruption of test_corrupted_betweenness_fails_the_block_engine_under_O:
    # point 2 counted as strictly between 0 and 1 in C_4; `frame_pieces`
    # must refuse the frames of each block it breaks, read off the
    # corrupted table, also with asserts off, both where a piece is a lone
    # chain and where a piece is assembled
    code = (
        "from dataclasses import replace\n"
        "from magh.errors import NotASubcomplex\n"
        "from magh.frames import frame_pieces\n"
        "from magh.metric import cycle_space\n"
        "from oracles import naive_frame_bases\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "for block in [(2, 0, 2), (3, 0, 1), (4, 0, 0), (4, 0, 2)]:\n"
        "    total, a, b = block\n"
        "    space = cycle_space(4)\n"
        "    view = space.integer_view\n"
        "    between = [list(row) for row in view.between]\n"
        "    between[0][1] |= 1 << 2\n"
        "    vars(space)['integer_view'] = replace(\n"
        "        view, between=tuple(tuple(row) for row in between)\n"
        "    )\n"
        "    frames = naive_frame_bases(space, total, 4)\n"
        "    try:\n"
        "        frame_pieces(space, [f for f in frames if (f[0], f[-1]) == (a, b)], 4)\n"
        "    except NotASubcomplex as exc:\n"
        "        print(*block, exc)\n"
        "    else:\n"
        "        print(*block, 'computed')\n"
    )
    paths = (Path(magh.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == [
        "2 0 2 computed",
        "3 0 1 chain (0, 1, 2, 1) at bottom degree 3 has nonzero boundary",
        "4 0 0 boundary term (0, 2, 1, 0) of (0, 1, 2, 1, 0) "
        "is outside the subcomplex basis at degree 3",
        "4 0 2 chain (0, 1, 2, 1, 2) at bottom degree 4 has nonzero boundary",
    ]


def recorded_searches(monkeypatch):
    """Record (start, wanted totals, heads) per frame search."""
    searches = []
    original = magh.frames._frame_search

    def recording(view, start, moves, wanted, heads, *rest):
        searches.append((start, sorted(wanted), heads))
        return original(view, start, moves, wanted, heads, *rest)

    monkeypatch.setattr(magh.frames, "_frame_search", recording)
    return searches


def test_frame_pieces_search_only_what_is_asked(monkeypatch):
    searches = recorded_searches(monkeypatch)
    lists = recorded_splits(monkeypatch)

    def reduced():
        return sorted(by_degree[min(by_degree)][0][0] for new in lists for _, by_degree in new)

    space = cycle_space(5)
    first = frame_pieces(space, [(0, 2), (0, 1), (3, 0), (0, 1, 0)], 3)
    assert searches == [(0, [1, 2], {(0,), (0, 1)}), (3, [2], {(3,)})]
    assert reduced() == [(0, 1), (0, 1, 0), (0, 2), (3, 0)]
    # one list per start point, in ascending order
    assert [{f[0] for f, _ in new} for new in lists] == [{0}, {3}]
    del searches[:], lists[:]
    # nothing is kept between calls: a repeat call searches again, counts
    # its steps against the cap again, and gives equal, fresh groups
    with pytest.raises(EnumerationCapExceeded):
        frame_pieces(space, [(3, 0), (0, 2)], 3, cap=0)
    del searches[:]
    again = frame_pieces(space, [(3, 0), (0, 2)], 3)
    assert searches == [(0, [2], {(0,)}), (3, [2], {(3,)})]
    assert again == {f: first[f] for f in again}
    assert all(again[f] is not first[f] for f in again)
    del searches[:]
    # (0, 1, 2) is no frame, and has no group
    assert frame_pieces(space, [(0, 3), (0, 1), (0, 1, 2)], 3)[0, 1, 2] == {}
    assert searches == [(0, [1, 2], {(0,), (0, 1)})]
    del searches[:], lists[:]
    # a frame request keeps only the heads that start a wanted frame, and
    # reduces only the wanted pieces, each once
    pieces = frame_pieces(space, [(1, 3), (1, 2, 1)], 3)
    assert searches == [(1, [2], {(1,), (1, 2)})]
    assert reduced() == [(1, 2, 1), (1, 3)]
    del searches[:]
    assert frame_pieces(space, [(1, 3)], 3) == {(1, 3): pieces[1, 3]}
    assert searches == [(1, [2], {(1,)})]
    del searches[:]
    # a call at another top degree searches for its own chains
    frame_pieces(space, [(0, 2)], 4)
    assert searches == [(0, [2], {(0,)})]


def frame_search_spaces():
    return [
        cycle_space(6),
        random_metric(5, seed=8),
        rational_metric(),
        rational_grid_space(2, 3),
        rp2_face_poset_space()[0],
    ]


@pytest.mark.parametrize("space", frame_search_spaces(), ids=lambda s: s.name)
def test_carried_frame_is_the_frame(space):
    # every chain the search gives is simple, has the frame it is filed
    # under, and lies in that frame's block: its length and endpoints
    view = space.integer_view
    n_top = 3 if space.n > 10 else 4
    totals = sorted({t for t in view.idist[0] if t} | {t for t in view.idist[1] if t})
    frames = self_framed_tuples(space, set(totals), n_top - 1)
    seen = 0
    for f, by_degree in itertools.chain.from_iterable(_frame_splits(space, frames, n_top, None)):
        assert f in frames
        for n, records in by_degree.items():
            for pts, _ in records:
                assert frame(space, pts) == f
                assert is_geodesically_simple(space, pts)
                assert (chain_total(space, pts), pts[0], pts[-1], len(pts) - 1) == (
                    chain_total(space, f),
                    f[0],
                    f[-1],
                    n,
                )
                seen += 1
    assert seen


@pytest.mark.parametrize(
    "space, totals",
    [
        (cycle_space(6), [3, 4]),
        (random_metric(5, seed=8), None),
        (rational_grid_space(2, 3), None),
    ],
    ids=["cycle(6)", "random(5,8)", "rational-grid-2x3"],
)
def test_frame_search_matches_table_filter_at_and_above_m_x(space, totals):
    # at gradings >= m_X the frame pieces are not the whole complex, and
    # the pruning by frame length drops most prefixes
    view = space.integer_view
    n_top = 4
    if totals is None:
        mx = view.scaled(m_x(space).value)
        totals = sorted(
            {t for n in range(1, n_top + 1) for t in naive_buckets(space, n) if t >= mx}
        )
    assert totals
    for total in totals:
        assert naive_frame_bases(space, total, n_top)
        oracle = filed_bases(space, total, n_top)
        assert split_by_frame(space, self_framed_tuples(space, {total}, n_top), n_top) == oracle
        assert split_by_frame(space, list(oracle), n_top) == oracle


@pytest.mark.parametrize("space", frame_search_spaces()[:4], ids=lambda s: s.name)
def test_frame_and_block_requests_agree(space):
    # every frame in one call, and the frames of one endpoint block
    # (length, a, b) per call, give equal groups
    frames = every_frame(space)
    blocks = {}
    for f in frames:
        blocks.setdefault((chain_total(space, f), f[0], f[-1]), []).append(f)
    by_frame = frame_pieces(space, frames, 3)
    by_block = {}
    for block in sorted(blocks):
        by_block.update(frame_pieces(space, blocks[block], 3))
    assert len(blocks) > 1 and any(by_frame.values())
    assert by_block == by_frame


# --- four-cuts and m_X ----------------------------------------------------------


def weighted_grid(wx, wy):
    """L1 metric on a grid with column steps wx and row steps wy.

    Points are numbered row by row. A four-cut turns back in one coordinate
    and moves in the other, so m_X is min(2a + b, a + 2b) for the least
    steps a of wx and b of wy.
    """
    xs = [sum(wx[:c], F(0)) for c in range(len(wx) + 1)]
    ys = [sum(wy[:r], F(0)) for r in range(len(wy) + 1)]
    coords = [(x, y) for y in ys for x in xs]
    d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in coords] for p in coords]
    return validate_metric(d, name=f"grid({','.join(map(str, wx))};{','.join(map(str, wy))})")


GRID_STEPS = [
    ([F(1), F(1)], [F(1)]),  # unit steps: many least cuts tie
    ([F(1, 2)] * 3, [F(1, 2)] * 2),  # equal rational steps, 3x4 points
    ([F(3, 2), F(5, 3)], [F(7, 5)]),
    ([F(5, 4), F(2, 3), F(5, 4)], [F(2, 3), F(7, 3)]),  # a == b, in the middle
    ([F(1, 3)], [F(1, 2), F(1, 5)]),
    ([F(7, 2), F(7, 2)], [F(7, 4), F(7, 4)]),  # a = 2b: the least cuts turn back across rows
]


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
    ]
    + [weighted_grid(wx, wy) for wx, wy in GRID_STEPS],
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


@pytest.mark.parametrize("wx, wy", GRID_STEPS)
def test_m_x_on_weighted_grids(wx, wy):
    space = weighted_grid(wx, wy)
    a, b = min(wx), min(wy)
    res = m_x(space)
    assert res.value == min(2 * a + b, a + 2 * b)
    assert (res.value, res.witness) == naive_m_x(space)
    first = four_cuts(space)[0]
    assert (first.length, first.points) == (res.value, res.witness)


def test_m_x_infinite_cases():
    for space in (path_space(5), complete_space(4), path_space(2)):
        res = m_x(space)
        assert res.is_infinite
        assert res.value is None and res.witness is None
        assert res.to_json_dict() == {"m_x": "inf", "witness": None}


def test_m_x_consistency_with_cuts():
    # in random_metric(5, seed=4, max_w=2) the first least cut met in
    # (x0, x2) order, (0, 3, 2, 4), ties with the witness (0, 1, 4, 2),
    # which lies through the later pair (0, 4) with d(0, 4) = m_X - 1
    tied = random_metric(5, seed=4, max_w=2)
    for space in [random_metric(5, seed=20), tied] + default_suite():
        res = m_x(space)
        cuts = four_cuts(space)
        if not cuts:
            assert res.is_infinite
            continue
        assert res.value == min(c.length for c in cuts)
        assert (res.value, res.witness) == (cuts[0].length, cuts[0].points)
        assert res.to_json_dict()["witness"] == list(res.witness)
