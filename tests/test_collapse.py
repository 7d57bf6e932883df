"""The endpoint-block engine's top-degree collapse against uncollapsed blocks.

`chains.block_chains` cancels each faceless degree-n_max chain x that has
a one-face insertion y (d y = +-x) and hands on neither, nor x's other
one-face insertions, and drops the collapsed faces from every top chain
it keeps. That changes only H_{n_max + 1}. Here each block the engine
reduces is compared, at every degree up to n_max, with the same block
built with nothing collapsed by a naive search (`uncollapsed_blocks`, on
`test_blocks.pruned_blocks` and `oracles.endpoint_blocks`) and assembled
by `oracles.complex_from_bases`, torsion included; a block the engine does not
hand on must have no homology there.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from magh.algebra import HomologyGroup
from magh.chains import block_chains
from magh.metric import path_space, random_metric
from magh.verify import default_suite

from oracles import complex_from_bases, record_groups
from test_blocks import pruned_blocks, realized_lengths
from test_frames import GRID_STEPS, weighted_grid
from test_posets import moore_face_poset_space, rational_grid_space, rp2_face_poset_space
from test_wedge import wedge


def uncollapsed_blocks(space, total, n_max):
    """The blocks of length `total`, a scaled int, with nothing collapsed.

    Degrees up to n_max come from the naive pruned search. At n_max + 1,
    which only feeds the boundary into n_max, the block gets every chain
    with a smooth face: each insertion of a point c with d(x_{i-1}, c) +
    d(c, x_i) = d(x_{i-1}, x_i) between two neighbours of a degree-n_max
    chain, read off the distances, in lexicographic order. A top chain with
    no face adds a zero column, which changes no group up to n_max.
    """
    d = space.integer_view.idist
    points = range(space.n)
    inner = [
        [[c for c in points if c != a and c != b and d[a][c] + d[c][b] == d[a][b]] for b in points]
        for a in points
    ]
    blocks = pruned_blocks(space, total, n_max)
    for bases in blocks.values():
        tops = {
            pts[:i] + (c,) + pts[i:]
            for pts in bases.get(n_max, ())
            for i in range(1, n_max + 1)
            for c in inner[pts[i - 1]][pts[i]]
        }
        if tops:
            bases[n_max + 1] = sorted(tops)
    return blocks


def compare_blocks(space, lengths, n_max):
    """Assert every block's groups up to n_max match its uncollapsed block.

    Returns (groups, vanished): the direct sum of the engine's groups per
    (total, degree), counting each block by its orbit's weight, and the
    number of representative uncollapsed blocks that the engine did not
    hand on.
    """
    view = space.integer_view
    weights = view.pair_orbits.weights
    totals = {view.scaled(l) for l in lengths}
    engine = {
        (t, pair): records
        for blocks in block_chains(space, totals, n_max)
        for t, pair, records in blocks
    }
    parts = {}
    vanished = 0
    for t in totals:
        for (a, b), bases in uncollapsed_blocks(space, t, n_max).items():
            if (a, b) not in weights:
                continue
            cx = complex_from_bases(space, bases, min(bases), max(bases))
            full = {n: g for n, g in cx.groups().items() if n <= n_max}
            records = engine.pop((t, (a, b)), None)
            if records is None:
                vanished += 1
                assert full == {}, (space.name, t, a, b)
                continue
            got = {n: g for n, g in record_groups(records).items() if n <= n_max}
            assert got == full, (space.name, t, a, b)
            for n, g in got.items():
                parts.setdefault((t, n), []).extend((g,) * weights[a, b])
    # the engine hands on no block the naive search lacks
    assert engine == {}
    return {key: HomologyGroup.direct_sum(groups) for key, groups in parts.items()}, vanished


@pytest.mark.parametrize("space", default_suite(), ids=lambda s: s.name)
def test_collapse_keeps_default_suite_blocks(space):
    compare_blocks(space, realized_lengths(space, 3), 3)


@pytest.mark.parametrize("wx, wy", GRID_STEPS)
def test_collapse_keeps_weighted_grid_blocks(wx, wy):
    space = weighted_grid(wx, wy)
    compare_blocks(space, realized_lengths(space, 2), 2)


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3)])
def test_collapse_keeps_rational_grid_blocks(rows, cols):
    space = rational_grid_space(rows, cols)
    _, vanished = compare_blocks(space, realized_lengths(space, 3), 3)
    assert vanished


@pytest.mark.parametrize("seed", range(4))
def test_collapse_keeps_random_blocks(seed):
    space = random_metric(7, seed=seed)
    compare_blocks(space, realized_lengths(space, 3), 3)


def test_a_fully_collapsed_block_contributes_zero():
    # P_3 at l = 2, n_max = 1: the block (0, 2) holds only the edge chain
    # (0, 2), which cancels against (0, 1, 2); its groups are zero
    space = path_space(3)
    assert list(block_chains(space, {2}, 1)) == []
    groups, vanished = compare_blocks(space, [Fraction(2)], 1)
    assert groups == {} and vanished == 1


_CORPUS = []


def torsion_spaces():
    """The torsion corpus with MH_3^4 of each: RP^2, the mod-3 and mod-4
    Moore spaces, and RP^2 v Moore 3, which merges Z/2 and Z/3 into Z/6.

    Built once per session; each call gets fresh copies of the spaces, so
    no table the package keeps on a space's view is shared.
    """
    if not _CORPUS:
        rp2, _, rp2_top = rp2_face_poset_space()
        moore3, _, moore3_top = moore_face_poset_space(3)
        _CORPUS.extend(
            [
                (rp2, HomologyGroup(450, (2, 2))),
                (moore3, HomologyGroup(2046, (3, 3))),
                (moore_face_poset_space(4)[0], HomologyGroup(3654, (4, 4))),
                (wedge(rp2, rp2_top, moore3, moore3_top), HomologyGroup(2496, (6, 6))),
            ]
        )
    return [(replace(space), mh3) for space, mh3 in _CORPUS]


@pytest.mark.parametrize("space, mh3", torsion_spaces(), ids=lambda v: getattr(v, "name", str(v)))
def test_collapse_keeps_the_torsion(space, mh3):
    # MH_3^4 of the face-poset spaces carries Z/k twice, once from the
    # (bottom, top) block and once from its reverse
    groups, _ = compare_blocks(space, [Fraction(4)], 3)
    assert groups[space.integer_view.scaled(4), 3] == mh3
