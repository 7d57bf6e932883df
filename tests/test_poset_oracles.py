"""The interval-poset consumers against oracles on plain pair sets.

`_interval_masks` reads the order as up/down bitmasks; the oracles read
the pairs off Fraction distances and never see a mask. Pair homology,
the component count and the order checks are also compared with the
per-pair reference route of `oracles`, on valid tables and corrupted
ones.
"""

import random
from dataclasses import replace

import pytest

from magh.algebra import HomologyGroup
from magh.errors import NotAPartialOrder
from magh.metric import cycle_space, path_space, random_metric, set_bits, validate_metric
from magh.posets import (
    _core_masks,
    _interval_masks,
    _order_simplices,
    interval_homology,
    poset_component_count,
)
from magh.verify import default_suite, full_suite, random_suite

from oracles import (
    naive_component_count,
    naive_core,
    naive_interval_order,
    naive_order_complex,
    reference_interval_homology,
    reference_interval_masks,
)
from test_frames import GRID_STEPS, weighted_grid
from test_posets import closed_rows, less_pairs, moore_face_poset_space, rp2_face_poset_space


def check_against_pair_oracles(space, a, b):
    elements, less = naive_interval_order(space, a, b)
    poset = _interval_masks(space, a, b)
    assert poset[0] == elements
    assert less_pairs(*poset[:2]) == less
    assert poset_component_count(space, a, b) == naive_component_count(elements, less)
    core = _core_masks(*poset)
    assert core[0] == naive_core(elements, less)
    assert less_pairs(*core[:2]) == {(x, y) for x, y in less if {x, y} <= set(core[0])}
    levels = _order_simplices(*poset[:2])
    # each dimension comes out sorted, with no sort of its own
    assert all(found == sorted(found) for found in levels)
    assert dict(enumerate(levels)) == naive_order_complex(elements, less)


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


# --- against the per-pair reference route ------------------------------------------


def complete_bipartite_space(m, n):
    """K_{m,n}: two points on one side are 2 apart, and the interval
    between them is the other side, an antichain."""
    size = m + n
    # size is longer than any path, so it stands for a missing edge
    d = [[1 if (i < m) != (j < m) else size for j in range(size)] for i in range(size)]
    for i in range(size):
        d[i][i] = 0
    return validate_metric(closed_rows(d), name=f"K{m},{n}")


def outcome(route, space, a, b):
    """What `route(space, a, b)` returns, or the kind and witness it refuses with."""
    try:
        return route(space, a, b)
    except NotAPartialOrder as exc:
        return exc.kind, exc.witness


def reference_component_count(space, a, b):
    elements, up, _ = reference_interval_masks(space, a, b)
    less = {(x, y) for x, above in zip(elements, up) for y in set_bits(above)}
    return naive_component_count(elements, less)


def check_against_reference(space, pairs):
    for a, b in pairs:
        assert outcome(_interval_masks, space, a, b) == outcome(
            reference_interval_masks, space, a, b
        ), (a, b)
        assert outcome(interval_homology, space, a, b) == outcome(
            reference_interval_homology, space, a, b
        ), (a, b)
        assert outcome(poset_component_count, space, a, b) == outcome(
            reference_component_count, space, a, b
        ), (a, b)


def all_pairs(space):
    return [(a, b) for a in range(space.n) for b in range(space.n) if a != b]


@pytest.mark.parametrize(
    "space",
    full_suite()
    + random_suite(12)
    + [complete_bipartite_space(m, n) for m, n in ((2, 3), (3, 4), (4, 2))],
    ids=lambda s: s.name,
)
def test_pair_route_matches_the_per_pair_reference(space):
    check_against_reference(space, all_pairs(space))


@pytest.mark.parametrize("build", [rp2_face_poset_space, lambda: moore_face_poset_space(3)])
def test_face_poset_pairs_match_the_per_pair_reference(build):
    space = build()[0]
    check_against_reference(space, all_pairs(space))


def test_antichain_cores_are_counted():
    # in K_{m,n} two points of a side bound the whole other side, an
    # antichain; two points of different sides bound nothing
    for m, n in ((2, 3), (3, 4), (4, 2)):
        space = complete_bipartite_space(m, n)
        assert interval_homology(space, 0, 1) == {0: HomologyGroup(n - 1)}
        assert interval_homology(space, m, m + 1) == {0: HomologyGroup(m - 1)}
        assert interval_homology(space, 0, m) == {-1: HomologyGroup(1)}
    # a chain's core is its top alone
    assert interval_homology(path_space(5), 0, 4) == {}


def corrupted(space, edits):
    """`space` with bit c of between[p][q] flipped for each (p, q, c)."""
    view = space.integer_view
    between = [list(row) for row in view.between]
    for p, q, c in edits:
        between[p][q] ^= 1 << c
    vars(space)["integer_view"] = replace(view, between=tuple(map(tuple, between)))
    return space


def test_corrupted_tables_fail_as_the_per_pair_reference():
    # edit tables that validation never sees: every pair must load to the
    # same masks and groups, or be refused with the same kind and least
    # witness, as when each pair checks its own order. Each edit (a, b, x,
    # y) flips "x < y" on both sides of I(a, b), bit x of between[a][y]
    # and bit y of between[x][b], so that some orders pass the two-sided
    # check and fail a later one
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        bases = [cycle_space(6), path_space(5), random_metric(6, seed=seed)]
        for _ in range(8):
            space = rng.choice(bases)
            space = validate_metric(space.dist, name=space.name)
            edits = []
            for _ in range(rng.randint(1, 3)):
                a, b, x, y = (rng.randrange(space.n) for _ in range(4))
                edits += [(a, y, x), (x, b, y)]
            space = corrupted(space, edits)
            check_against_reference(space, all_pairs(space))
            for a, b in all_pairs(space):
                found = outcome(_interval_masks, space, a, b)
                seen.add(found[0] if isinstance(found[0], str) else "loaded")
    assert seen == {"loaded", "two-sided agreement", "antisymmetry", "transitivity"}
