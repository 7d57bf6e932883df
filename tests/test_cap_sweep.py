"""The engine's cap count against the per-parent count it replaced.

`chains.block_chains` counts a block's kept top chains against the cap in
one step when its insertions cannot take the count past the cap, and
parent by parent, as `oracles.per_parent_cap_outcomes` always does, when
they could. Every cap from the step count of the searches alone up to the
full count must give the same outcome on both routes: the same blocks, or
EnumerationCapExceeded with the same step count.
"""

from fractions import Fraction

import pytest

from magh.chains import block_chains, search_moves, start_blocks
from magh.errors import EnumerationCapExceeded
from magh.metric import random_metric

from oracles import per_parent_cap_outcomes
from test_blocks import realized_lengths
from test_orbits import relabeled
from test_posets import rp2_face_poset_space


def search_steps(space, totals, n_max):
    """The steps of the engine's searches alone, with no top chain counted."""
    view = space.integer_view
    moves = search_moves(space, max(totals))
    steps = 0
    for start, ends in enumerate(view.pair_orbits.ends):
        if ends:
            _, steps = start_blocks(
                start, ends, moves, view.between, set(totals), n_max, steps, float("inf")
            )
    return steps


def outcome(space, totals, n_max, cap):
    """What `block_chains` yields under `cap`, or the step count it stopped at."""
    try:
        return list(block_chains(space, totals, n_max, cap))
    except EnumerationCapExceeded as exc:
        assert exc.cap == cap
        return exc.count


def cases():
    spaces = [relabeled(random_metric(7, seed=3), 1), relabeled(random_metric(7, seed=8), 2)]
    out = [(space, realized_lengths(space, 3)) for space in spaces]
    out.append((rp2_face_poset_space()[0], [Fraction(4)]))
    return out


@pytest.mark.parametrize("space, lengths", cases(), ids=lambda v: getattr(v, "name", ""))
def test_every_cap_gives_the_per_parent_outcome(space, lengths):
    view = space.integer_view
    totals = {view.scaled(l) for l in lengths}
    per_parent = per_parent_cap_outcomes(space, totals, 3)
    full = per_parent(float("inf"))
    tops = sum(len(records.get(4, ())) for blocks in full for _, _, records in blocks)
    first = search_steps(space, totals, 3)
    assert tops and outcome(space, totals, 3, first + tops) == full
    raised = []
    for cap in range(first, first + tops):
        got = outcome(space, totals, 3, cap)
        assert got == per_parent(cap), cap
        raised.append(got - cap)
    # every cap below the full count is passed, some by more than one
    # step: after a parent with several kept top chains
    assert min(raised) == 1 and max(raised) > 1
