"""The endpoint-block engine's per-start assembly against per-block reduction.

`algebra.block_homology_rows` assembles all the blocks of one start point
together (`algebra._blocks_homology`): each block with its own rows,
d^2 = 0 checked on all of them before any is reduced, and Smith normal
form on each block's own columns. Here every
start's assembly is compared block by block with `oracles.record_groups`
on the same records, which assembles and reduces each block alone, and
the engine's rows with the direct sum of those per-block groups, torsion
included. Two guards are checked under `python -O`: a face found in a
sibling block of the same start is refused, and so is a block whose
ranks do not fit.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import magh
import magh.chains
from magh.algebra import HomologyGroup, HomologyRow, _blocks_homology, block_homology_rows
from magh.chains import block_chains
from magh.metric import random_metric
from magh.verify import full_suite, random_suite

from oracles import record_groups
from test_blocks import realized_lengths
from test_collapse import torsion_spaces
from test_posets import rational_grid_space


def assert_start_assembly_matches(space, gradings, n_max):
    """Assert the engine's rows are the sums of its blocks reduced alone.

    Each start's assembly must give each of its blocks the groups
    `record_groups` gives it alone, and the engine's rows must be
    the direct sums of those, each block counted by its orbit's weight
    (`IntegerView.pair_orbits`). The engine
    reduces the blocks searched here, not a search of its own. Returns the
    rows and the most blocks any one start point has.
    """
    view = space.integer_view
    totals = {view.scaled(l) for l in gradings} - {None}
    starts = list(block_chains(space, totals, n_max))
    weights = view.pair_orbits.weights
    parts = {}
    for blocks in starts:
        assert len({a for _, (a, _), _ in blocks}) == 1
        together = _blocks_homology([records for _, _, records in blocks])
        assert len(together) == len(blocks)
        for (total, pair, records), homology in zip(blocks, together):
            alone = record_groups(records)
            assert {n: HomologyGroup(rank, t) for n, rank, t in homology} == alone
            for n, group in alone.items():
                if n <= n_max:
                    parts.setdefault((total, n), []).extend((group,) * weights[pair])
    want = [
        HomologyRow(l, n, HomologyGroup.direct_sum(parts.get((view.scaled(l), n), ())))
        for l in gradings
        for n in range(n_max + 1)
    ]
    with mock.patch.object(magh.chains, "block_chains", lambda *args: iter(starts)):
        assert block_homology_rows(space, gradings, n_max) == want, space.name
    return want, max(map(len, starts), default=0)


def small_spaces():
    return (
        full_suite()
        + random_suite(12)
        + [random_metric(7, seed=seed) for seed in range(6)]
        + [rational_grid_space(r, c) for r, c in ((2, 3), (3, 3), (2, 4), (3, 4))]
    )


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_start_assembly_matches_per_block_reduction(n_max):
    many = 0
    for space in small_spaces():
        gradings = realized_lengths(space, n_max)
        if n_max == 4 and space.n > 6:
            # every length together takes seconds on these spaces: keep
            # the upper half, where the blocks are largest
            gradings = [l for l in gradings if l >= gradings[-1] / 2]
        _, widest = assert_start_assembly_matches(space, gradings, n_max)
        many += widest > 1
    # most spaces have a start whose blocks are assembled together
    assert many > 20


@pytest.mark.parametrize("space, mh3", torsion_spaces(), ids=lambda v: getattr(v, "name", str(v)))
def test_start_assembly_keeps_the_torsion(space, mh3):
    # the (bottom, top) block carries the torsion, among many siblings
    # of its start
    rows, _ = assert_start_assembly_matches(space, [Fraction(4)], 3)
    assert rows[3].group == mh3


def run_under_O(code):
    env = dict(os.environ, PYTHONPATH=str(Path(magh.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc.stdout.splitlines()


def test_face_in_a_sibling_block_is_refused_under_O():
    # two blocks of start 0: (0, 1) and (0, 2, 1) in one, (0, 4) and
    # (0, 3, 4) in the other; a planted mask gives (0, 3, 4) the face
    # (0, 4), its own, and (0, 3, 1) the face (0, 1), which lies in the
    # sibling block: the assembly must refuse it, as it does when each
    # block is reduced alone
    code = (
        "from magh.algebra import _blocks_homology\n"
        "from magh.errors import NotASubcomplex\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "first = {1: [((0, 1), 0)], 2: [((0, 2, 1), 0b10)]}\n"
        "second = {1: [((0, 4), 0)], 2: [((0, 3, 4), 0b10)]}\n"
        "print(_blocks_homology([first, second]))\n"
        "second[2].append(((0, 3, 1), 0b10))\n"
        "for run in (lambda: _blocks_homology([first, second]),\n"
        "            lambda: _blocks_homology([second])):\n"
        "    try:\n"
        "        run()\n"
        "    except NotASubcomplex as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    else:\n"
        "        raise SystemExit('the sibling face was accepted')\n"
    )
    refused = (
        "NotASubcomplex boundary term (0, 1) of (0, 3, 1) "
        "is outside the subcomplex basis at degree 1"
    )
    assert run_under_O(code) == ["[[], []]", refused, refused]


def test_negative_betti_in_one_block_is_refused_under_O():
    # an elimination that reports one rank too many on the second block's
    # one-column boundary, which it reads off itself, leaves that block
    # betti -1 at degree 1, while the first block's three cycles there
    # would hide it in a sum over the start: the betti numbers are checked
    # block by block
    code = (
        "import magh.algebra\n"
        "from magh.errors import NegativeBetti\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "cycles = {1: [((0, 1), 0), ((0, 2), 0), ((0, 3), 0)]}\n"
        "edge = {1: [((0, 4), 0)], 2: [((0, 5, 4), 0b10)]}\n"
        "print(magh.algebra._blocks_homology([cycles, edge]))\n"
        "magh.algebra._eliminate = lambda rows, columns: (1,) * (len(rows) + 1)\n"
        "try:\n"
        "    magh.algebra._blocks_homology([cycles, edge])\n"
        "except NegativeBetti as exc:\n"
        "    print(type(exc).__name__, exc)\n"
        "else:\n"
        "    raise SystemExit('the negative betti number was summed away')\n"
    )
    assert run_under_O(code) == [
        "[[(1, 3, ())], []]",
        "NegativeBetti betti number -1 at degree 1 is negative",
    ]
