"""The interval-poset consumers against oracles on plain pair sets.

`interval_poset` keeps the order as up/down bitmasks; the oracles read
the pairs off Fraction distances and never see a mask.
"""

import pytest

from magh.posets import interval_poset, order_complex, poset_component_count, poset_core
from magh.verify import default_suite

from oracles import naive_component_count, naive_core, naive_interval_order, naive_order_complex
from test_frames import GRID_STEPS, weighted_grid
from test_posets import rp2_face_poset_space


def check_against_pair_oracles(space, a, b):
    elements, less = naive_interval_order(space, a, b)
    poset = interval_poset(space, a, b)
    assert list(poset.elements) == elements
    assert poset.less == less
    assert poset_component_count(space, a, b) == naive_component_count(elements, less)
    core = poset_core(poset)
    assert list(core.elements) == naive_core(elements, less)
    assert core.less == {(x, y) for x, y in less if {x, y} <= set(core.elements)}
    simplices = order_complex(poset).simplices
    # each dimension comes out sorted, with no sort of its own
    assert all(found == sorted(found) for found in simplices.values())
    assert simplices == naive_order_complex(elements, less)


@pytest.mark.parametrize(
    "space",
    default_suite() + [weighted_grid(wx, wy) for wx, wy in GRID_STEPS],
    ids=lambda s: s.name,
)
def test_poset_consumers_match_pair_oracles(space):
    for a in range(space.n):
        for b in range(space.n):
            if a != b:
                check_against_pair_oracles(space, a, b)


def test_rp2_interval_matches_pair_oracles():
    space, bottom, top = rp2_face_poset_space()
    check_against_pair_oracles(space, bottom, top)
