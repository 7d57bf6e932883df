"""The smooth-position masks the chain searches hand to the assembly.

Both searches make a chain's mask as they build the chain, and the
assembly trusts it: bit i set iff x_i is strictly smooth. A wrong bit
would drop a point that is not smooth, or keep one that is, so every mask
is checked here against the faces `smooth_faces` takes and against the
distances themselves. At the engine's top degree n_max + 1 a mask holds
only the faces that are not collapsed (`oracles.collapsed_chains`). The
assembly's matrices skip the entry checks of `SparseIntMatrix`, so they
are checked against the checked constructor.
"""

import sys
from fractions import Fraction
from itertools import chain

import pytest

import magh.frames
from magh.algebra import SparseIntMatrix, block_homology_rows
from magh.chains import block_chains, smooth_faces, smooth_mask
from magh.frames import frame_pieces
from magh.metric import cycle_space, random_metric, validate_metric
from magh.verify import default_suite

from oracles import collapsed_chains, kept_faces, self_framed_tuples, smooth_by_distances
from test_blocks import realized_lengths
from test_collapse import uncollapsed_blocks
from test_posets import rational_grid_space, rp2_face_poset_space


def removed_positions(between, pts):
    """The positions of the points `smooth_faces` removes, as a mask."""
    mask = 0
    for face, sign in smooth_faces(between, pts):
        [i] = [i for i in range(1, len(pts) - 1) if pts[:i] + pts[i + 1 :] == face]
        assert sign == (-1) ** i
        mask |= 1 << i
    return mask


def check_records(space, by_degree):
    between = space.integer_view.between
    seen = 0
    for n, records in by_degree.items():
        for pts, mask in records:
            assert len(pts) == n + 1
            assert mask == removed_positions(between, pts) == smooth_by_distances(space, pts), (
                pts,
                bin(mask),
            )
            seen += 1
    return seen


def mask_cases():
    cases = [(space, None, 3) for space in default_suite()]
    cases += [(rational_grid_space(r, c), None, 3) for r, c in ((2, 3), (3, 3), (2, 4))]
    cases.append((rp2_face_poset_space()[0], Fraction(4), 3))
    return cases


@pytest.mark.parametrize("space, l, n_max", mask_cases(), ids=lambda v: getattr(v, "name", str(v)))
def test_search_masks_are_the_smooth_positions(space, l, n_max):
    view = space.integer_view
    lengths = [l] if l is not None else [x for x in realized_lengths(space, n_max) if x]
    totals = {view.scaled(x) for x in lengths}
    # the chains of degrees n_max and n_max + 1 of the representative
    # blocks, by a naive search, and the ones the engine collapses
    representatives = view.pair_orbits.weights
    naive = [
        bases
        for t in totals
        for pair, bases in uncollapsed_blocks(space, t, n_max).items()
        if pair in representatives
    ]
    expected = {pts for bases in naive for pts in bases.get(n_max, ())}
    collapsed = collapsed_chains(space, expected)
    faced = {pts for bases in naive for pts in bases.get(n_max + 1, ())}
    between = view.between
    blocks = 0
    smooth = 0
    top = 0
    kept = set()
    tops = set()
    for _, _, records in chain.from_iterable(block_chains(space, totals, n_max)):
        below = {n: chains for n, chains in records.items() if n <= n_max}
        blocks += check_records(space, below)
        smooth += sum(1 for chains in below.values() for _, mask in chains if mask)
        kept.update(pts for pts, _ in records.get(n_max, ()))
        # a top chain keeps exactly the faces that are not collapsed, and
        # at least one
        for pts, mask in records.get(n_max + 1, ()):
            assert len(pts) == n_max + 2
            assert mask == kept_faces(space, pts, collapsed), (pts, bin(mask))
            assert mask and mask & ~removed_positions(between, pts) == 0, (pts, bin(mask))
            tops.add(pts)
            top += 1
    # every degree-n_max chain is kept or collapsed, never both, and every
    # top chain with a face that is not collapsed is built, once
    assert kept == expected - collapsed and not kept & collapsed
    assert tops == {pts for pts in faced if kept_faces(space, pts, collapsed)}
    assert top == len(tops)
    # insertion-made top chains are checked too, wherever a point is smooth
    assert blocks and (top or not smooth)
    frames = self_framed_tuples(space, totals, n_max)
    filed = 0
    for f, by_degree in chain.from_iterable(magh.frames._frame_splits(space, frames, n_max, None)):
        filed += check_records(space, by_degree)
        # the frame search's mask is the positions its frame drops
        for records in by_degree.values():
            for pts, mask in records:
                assert tuple(x for i, x in enumerate(pts) if not mask >> i & 1) == f
    assert filed


def test_engine_and_frame_table_take_no_face_again(monkeypatch):
    def refuse(*args):
        raise AssertionError("a chain was tested for smoothness again")

    spaces = [cycle_space(5), random_metric(6, seed=4), rational_grid_space(2, 3)]
    expected = []
    for space in spaces:
        lengths = realized_lengths(space, 3)
        view = space.integer_view
        totals = {view.scaled(l) for l in lengths if l}
        frames = self_framed_tuples(space, totals, 3, [0])
        rows = block_homology_rows(space, lengths, 3)
        expected.append((lengths, frames, rows, frame_pieces(space, frames, 3)))
    # wherever the package holds them, under any name
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "magh"]:
        for key, value in list(vars(module).items()):
            if value is smooth_faces or value is smooth_mask:
                monkeypatch.setattr(module, key, refuse)
    for space, (lengths, frames, rows, table) in zip(spaces, expected):
        fresh = validate_metric(space.dist, name=space.name)
        assert block_homology_rows(fresh, lengths, 3) == rows
        assert frame_pieces(fresh, frames, 3) == table


def test_assembled_matrices_equal_checked_ones(monkeypatch):
    built = []
    real = SparseIntMatrix._assembled

    def recording(cls, rows, columns):
        matrix = real(rows, columns)
        built.append((matrix, SparseIntMatrix(rows, columns)))
        return matrix

    monkeypatch.setattr(SparseIntMatrix, "_assembled", classmethod(recording))
    for space in default_suite():
        lengths = realized_lengths(space, 3)
        block_homology_rows(space, lengths, 3)
        view = space.integer_view
        totals = {view.scaled(l) for l in lengths if l}
        frame_pieces(space, self_framed_tuples(space, totals, 2), 3)
    assert len(built) > 100
    for unchecked, checked in built:
        assert unchecked == checked
        assert (unchecked.rows, unchecked.cols, unchecked.nnz) == (
            checked.rows,
            checked.cols,
            checked.nnz,
        )
        assert unchecked.nnz == sum(1 for column in checked.columns for _ in column)
