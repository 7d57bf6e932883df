import gc
import itertools
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import magh.posets
from magh.algebra import TRIVIAL_GROUP as TRIVIAL, HomologyGroup, kunneth
from magh.errors import NotAPartialOrder, SamePoint
from magh.frames import is_realized_frame, m_x
from magh.metric import (
    complete_space,
    cycle_space,
    metric_closure,
    path_space,
    random_metric,
    set_bits,
    validate_metric,
)
from magh.posets import (
    _core_masks,
    _interval_masks,
    _order_simplices,
    _reduced_columns,
    frame_homology_by_degree,
    frame_homology_via_posets,
    interval_homology,
    magnitude_homology,
    magnitude_homology_rows,
    mh2_certificate,
    poset_component_count,
)
from magh.verify import default_suite, run_checks

from oracles import (
    ChainComplexZ,
    frame_complex,
    interval_complex,
    naive_component_count,
    naive_core,
    naive_interval_order,
    naive_order_complex,
)

F = Fraction


# --- interval posets ------------------------------------------------------------


def less_pairs(elements, up):
    """The pairs (x, y) of a poset given by its masks with x strictly below y."""
    return {(x, y) for x, above in zip(elements, up) for y in set_bits(above)}


def test_interval_poset_path3():
    elements, up, _ = _interval_masks(path_space(3), 0, 2)
    assert elements == [1]
    assert less_pairs(elements, up) == set()


def test_interval_poset_antichain():
    elements, up, down = _interval_masks(cycle_space(4), 0, 2)
    assert elements == [1, 3]
    assert less_pairs(elements, up) == set()
    assert up == down == [0, 0]


def test_interval_poset_c6_two_chains():
    elements, up, down = _interval_masks(cycle_space(6), 0, 3)
    assert elements == [1, 2, 4, 5]
    # the far-side arc passes 5 first, so 5 sits below 4
    assert less_pairs(elements, up) == {(1, 2), (5, 4)}
    assert up == [1 << 2, 0, 0, 1 << 4]
    assert down == [0, 1 << 1, 1 << 5, 0]


def test_interval_poset_three_chain():
    elements, up, _ = _interval_masks(path_space(5), 0, 4)
    assert elements == [1, 2, 3]
    assert less_pairs(elements, up) == {(1, 2), (2, 3), (1, 3)}
    assert set_bits(up[0]) == [2, 3]


def test_interval_poset_adjacent_empty():
    assert _interval_masks(path_space(3), 0, 1) == ([], [], [])


def test_interval_poset_same_point():
    with pytest.raises(SamePoint):
        _interval_masks(path_space(3), 1, 1)


# each edit (p, q, c, on) sets or clears bit c of between[p][q] in path(5),
# whose interval I(0, 4) is the chain 1 < 2 < 3
BROKEN_ORDERS = [
    # 1 < 3 seen from b only, and 2 < 3 seen from a only
    ("two-sided agreement", (1, 3), [(0, 3, 1, False), (2, 4, 3, False)]),
    # 3 < 2 seen from both sides
    ("antisymmetry", (2, 3), [(0, 2, 3, True), (3, 4, 2, True)]),
    # 3 < 2 and 2 < 1: the least witness is (1, 2)
    (
        "antisymmetry",
        (1, 2),
        [(0, 2, 3, True), (3, 4, 2, True), (0, 1, 2, True), (2, 4, 1, True)],
    ),
    # 1 < 2 < 3 but not 1 < 3, from both sides
    ("transitivity", (1, 2, 3), [(0, 3, 1, False), (1, 4, 3, False)]),
    # 1 < 2 < 3 seen from a only: from the b side alone the interval has no
    # relation, which must not pass for an antichain
    (
        "two-sided agreement",
        (1, 2),
        [(1, 4, 2, False), (1, 4, 3, False), (2, 4, 3, False)],
    ),
]


# between[0][4] loses 2: the order every I(0, b) of path(5) restricts is no
# longer transitive (2 < 3 < 4 but not 2 < 4), yet I(0, 3) = {1 < 2} reads
# none of it
BROKEN_OUTSIDE = [(0, 4, 2, False)]


def broken_path5(edits):
    """path(5) with its betweenness table edited; validation never sees it."""
    space = path_space(5)
    view = space.integer_view
    between = [list(row) for row in view.between]
    for p, q, c, on in edits:
        between[p][q] = between[p][q] | 1 << c if on else between[p][q] & ~(1 << c)
    vars(space)["integer_view"] = replace(view, between=tuple(map(tuple, between)))
    return space


def pair_frame_homology(space, a, b):
    """The groups of the pair frame (a, b) at degrees 0..4, by the frame route."""
    return [frame_homology_via_posets(space, (a, b), n) for n in range(5)]


PAIR_ROUTES = (_interval_masks, interval_homology, poset_component_count, pair_frame_homology)


@pytest.mark.parametrize("kind, witness, edits", BROKEN_ORDERS)
def test_interval_poset_refuses_a_broken_order(kind, witness, edits):
    # pair homology, the component count and the pair frame read the masks
    # as they are, and must refuse the same order with the same witness
    for route in PAIR_ROUTES:
        with pytest.raises(NotAPartialOrder) as info:
            route(broken_path5(edits), 0, 4)
        assert (info.value.kind, info.value.witness) == (kind, witness), route.__name__


def test_a_table_broken_outside_an_interval_still_loads_it():
    intact = path_space(5)
    broken = broken_path5(BROKEN_OUTSIDE)
    assert intact.integer_view.start_order(0)[1]
    assert not broken.integer_view.start_order(0)[1]
    assert less_pairs(*_interval_masks(broken, 0, 3)[:2]) == {(1, 2)}
    for route in PAIR_ROUTES:
        assert route(broken, 0, 3) == route(intact, 0, 3), route.__name__


def test_pair_route_guards_survive_optimize():
    # the order, same-point and d^2 guards of the mask route are raises,
    # not asserts, so they fire with asserts off too; a table broken
    # outside an interval still loads it as the intact one does
    code = (
        "from magh.algebra import groups_from_columns\n"
        "from magh.errors import NotAPartialOrder, SamePoint\n"
        "from magh.metric import path_space\n"
        "from magh.posets import interval_homology\n"
        "from test_posets import BROKEN_ORDERS, BROKEN_OUTSIDE, PAIR_ROUTES, broken_path5\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "for _, _, edits in BROKEN_ORDERS:\n"
        "    for route in PAIR_ROUTES:\n"
        "        try:\n"
        "            route(broken_path5(edits), 0, 4)\n"
        "        except NotAPartialOrder as exc:\n"
        "            print(exc.kind, exc.witness)\n"
        "for route in PAIR_ROUTES:\n"
        "    print(route(broken_path5(BROKEN_OUTSIDE), 0, 3) == route(path_space(5), 0, 3))\n"
        "try:\n"
        "    interval_homology(path_space(3), 1, 1)\n"
        "except SamePoint:\n"
        "    print('same point')\n"
        "try:\n"
        "    groups_from_columns(0, [1, 2, 1], {1: [{0: 1}, {0: 1}], 2: [{0: 1}]})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (Path(magh.__file__).resolve().parents[1], tests)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    routes = len(PAIR_ROUTES)
    refusals = [f"{kind} {witness}" for kind, witness, _ in BROKEN_ORDERS for _ in range(routes)]
    assert proc.stdout.splitlines() == refusals + ["True"] * routes + [
        "same point",
        "boundary squared is nonzero at degree 2, column 0",
    ]


def test_interval_poset_builds_on_random_spaces():
    # exercises the internal order-consistency assertions
    for seed in range(8):
        sp = random_metric(5, seed=seed)
        for a in range(sp.n):
            for b in range(sp.n):
                if a != b:
                    _interval_masks(sp, a, b)


# --- order complexes and reduced chains ------------------------------------------


def interval_simplices(space, a, b):
    """The order-complex simplices of I(a, b), by dimension."""
    elements, up, _ = _interval_masks(space, a, b)
    return _order_simplices(elements, up)


def test_order_complex_shapes():
    levels = interval_simplices(cycle_space(6), 0, 3)
    assert len(levels) == 2
    assert levels[0] == [(1,), (2,), (4,), (5,)]
    assert levels[1] == [(1, 2), (5, 4)]


def test_order_complex_empty():
    assert interval_simplices(path_space(3), 0, 1) == []


def test_order_complex_with_triangle():
    levels = interval_simplices(path_space(5), 0, 4)
    assert len(levels) == 3
    assert levels[1] == [(1, 2), (1, 3), (2, 3)]
    assert levels[2] == [(1, 2, 3)]


def test_reduced_complex_empty_is_z_at_minus_one():
    cx = interval_complex(path_space(3), 0, 1)
    assert cx.lo == -1 and cx.sizes == [1]
    assert cx.homology(-1) == HomologyGroup(1)
    assert _reduced_columns([]) == ([1], {})


def test_reduced_complex_point_is_acyclic():
    cx = interval_complex(path_space(3), 0, 2)
    assert cx.sizes == [1, 1]
    assert cx.homology(-1) == HomologyGroup(0)
    assert cx.homology(0) == HomologyGroup(0)


def test_reduced_complex_two_components():
    cx = interval_complex(cycle_space(4), 0, 2)
    assert cx.sizes == [1, 2]
    assert cx.homology(0) == HomologyGroup(1)
    cx = interval_complex(cycle_space(6), 0, 3)
    assert cx.sizes == [1, 4, 2]
    assert cx.homology(0) == HomologyGroup(1)
    assert cx.homology(1) == HomologyGroup(0)


def test_reduced_complex_cone_is_acyclic():
    cx = interval_complex(path_space(5), 0, 4)
    assert cx.sizes == [1, 3, 3, 1]
    for k in cx.degrees():
        assert cx.homology(k).is_trivial()


def test_component_counts():
    assert poset_component_count(cycle_space(4), 0, 2) == 2
    assert poset_component_count(cycle_space(6), 0, 3) == 2
    assert poset_component_count(path_space(3), 0, 2) == 1
    assert poset_component_count(path_space(3), 0, 1) == 0
    assert poset_component_count(cycle_space(5), 0, 2) == 1


# --- frame homology through posets ------------------------------------------------


def test_frame_homology_adjacent_pair():
    # empty interval: unit complex, so degree 1 carries Z
    p2 = path_space(2)
    assert frame_homology_via_posets(p2, (0, 1), 1) == HomologyGroup(1)
    assert frame_homology_via_posets(p2, (0, 1), 2) == HomologyGroup(0)


def test_frame_homology_pair_examples():
    assert frame_homology_via_posets(cycle_space(4), (0, 2), 2) == HomologyGroup(1)
    assert frame_homology_via_posets(path_space(3), (0, 2), 2) == HomologyGroup(0)
    assert frame_homology_via_posets(cycle_space(6), (0, 3), 2) == HomologyGroup(1)
    assert frame_homology_via_posets(cycle_space(6), (0, 3), 3) == HomologyGroup(0)


def test_frame_homology_two_segment_frame():
    # two antichain intervals tensor to a single Z in degree n = 2m
    assert frame_homology_via_posets(cycle_space(4), (0, 2, 0), 4) == HomologyGroup(1)
    assert frame_homology_via_posets(cycle_space(4), (0, 2, 0), 3) == HomologyGroup(0)


def test_frame_homology_rejects_short_tuple():
    with pytest.raises(ValueError):
        frame_homology_via_posets(path_space(3), (0,), 1)


def test_frame_homology_matches_subcomplex_on_realized_frames():
    c5 = cycle_space(5)
    checked = 0
    for a in range(5):
        for b in range(5):
            if a == b:
                continue
            if not is_realized_frame(c5, (a, b)):
                continue
            sub = frame_complex(c5, (a, b), 4)
            for n in range(1, 4):
                assert sub.homology(n) == frame_homology_via_posets(c5, (a, b), n)
            checked += 1
    assert checked == 20


# the 6-vertex triangulation of the real projective plane: every edge of K_6
# lies on exactly two of these triangles
RP2_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5),
)


_CLOSED = {}


def closed_rows(d):
    """`metric_closure(d)` as a tuple of rows, kept per matrix.

    Closing the larger face-poset graphs is the slow part of building
    them (Python Floyd-Warshall), and tests build the same ones again and
    again. Only the closed rows are kept: each caller validates a fresh
    space from them, so no space, and none of the per-space tables the
    package keeps on its view, is shared between tests.
    """
    key = tuple(map(tuple, d))
    rows = _CLOSED.get(key)
    if rows is None:
        rows = _CLOSED[key] = tuple(map(tuple, metric_closure(d)))
    return rows


_BUILT = {}


def face_poset_space(facets, name):
    """Hasse-graph metric of a simplicial complex's face poset, with a
    bottom and a top added.

    `facets` lists the complex's facets as tuples of vertices; every
    nonempty subset of one is a face. Points: the bottom (), the faces by
    dimension, each dimension in sorted order, then the top. Covering
    faces are joined by edges of length 1, and so are the facets of top
    dimension and the top. When every facet has that dimension, the
    interval from bottom to top is the whole face poset, whose order
    complex is the barycentric subdivision of the complex, so the
    (bottom, top) frame carries its reduced homology shifted up by 2.
    Returns (space, bottom, top).

    Each space is built and validated once per session and kept; every
    call gets a copy of it (`dataclasses.replace`) whose integer view,
    and every table the package keeps on it, is its own, so a test that
    fills or corrupts one leaves the others as they were.
    """
    facets = tuple(tuple(sorted(f)) for f in facets)
    built = _BUILT.get((facets, name))
    if built is None:
        built = _BUILT[facets, name] = _face_poset_space(facets, name)
    space, bottom, top = built
    return replace(space), bottom, top


def _face_poset_space(facets, name):
    """`face_poset_space`, built anew."""
    dim = max(map(len, facets))
    faces = sorted(
        {face for f in facets for k in range(1, len(f) + 1) for face in itertools.combinations(f, k)},
        key=lambda face: (len(face), face),
    )
    points = [()] + faces
    n = len(points) + 1
    top = n - 1
    # n is longer than any path, so it stands for a missing edge
    d = [[0 if i == j else n for j in range(n)] for i in range(n)]
    for i, f in enumerate(points):
        for j, g in enumerate(points):
            if len(g) == len(f) + 1 and set(f) <= set(g):
                d[i][j] = d[j][i] = 1
        if len(f) == dim:
            d[i][top] = d[top][i] = 1
    return validate_metric(closed_rows(d), name=name), 0, top


def rp2_face_poset_space():
    """Hasse-graph metric of RP^2's face poset with a bottom and a top added.

    Points: the bottom (), 6 vertices, 15 edges, 10 triangles, then the top.
    The interval from bottom to top is the whole face poset, whose order
    complex is the barycentric subdivision of RP^2.
    """
    return face_poset_space(RP2_TRIANGLES, "rp2-face-poset")


def moore_space_facets(k):
    """Facets of a triangulated mod-k Moore space, whose reduced homology
    is Z/k in degree 1 alone.

    A disk, a center o (vertex 0) coned off an inner ring w_0 .. w_{3k-1}
    (vertices 1 .. 3k), is glued to a triangle abc (vertices 3k + 1 ..
    3k + 3) along a boundary that wraps k times around it: the outer ring
    v_i = (a, b, c)[i mod 3] is joined to the inner ring by the triangles
    (w_i, w_{i+1}, v_i) and (w_{i+1}, v_i, v_{i+1}), indices mod 3k.
    """
    ring = 3 * k
    w = [1 + i for i in range(ring)]
    v = [ring + 1 + i % 3 for i in range(ring)]
    facets = []
    for i in range(ring):
        j = (i + 1) % ring
        facets += [(0, w[i], w[j]), (w[i], w[j], v[i]), (w[j], v[i], v[j])]
    return facets


def moore_face_poset_space(k):
    """`face_poset_space` of the mod-k Moore space of `moore_space_facets`."""
    return face_poset_space(moore_space_facets(k), f"moore({k})-face-poset")


def test_frame_homology_rp2_face_poset_torsion():
    # MH_n of the (bottom, top) frame is reduced H_{n-2} of RP^2: Z/2 at n = 3
    space, bottom, top = rp2_face_poset_space()
    assert space.n == 33
    assert space.d(bottom, top) == 4
    assert interval_complex(space, bottom, top).sizes == [1, 31, 90, 60]
    assert frame_homology_via_posets(space, (bottom, top), 3) == HomologyGroup(0, (2,))
    for n in (2, 4, 5):
        assert frame_homology_via_posets(space, (bottom, top), n) == HomologyGroup(0)


def test_kunneth_rp2_intervals_tor_term():
    # both directions are the whole face poset: reduced H_1(RP^2) = Z/2;
    # their product has Z/2 (x) Z/2 at degree 2 and Tor(Z/2, Z/2) at 3
    space, bottom, top = rp2_face_poset_space()
    up = interval_homology(space, bottom, top)
    down = interval_homology(space, top, bottom)
    assert up == down == {1: HomologyGroup(0, (2,))}
    z2 = HomologyGroup(0, (2,))
    assert kunneth(up, down) == {2: z2, 3: z2}
    for n, group in ((5, TRIVIAL), (6, z2), (7, z2), (8, TRIVIAL)):
        assert frame_homology_via_posets(space, (bottom, top, bottom), n) == group


# --- cores -----------------------------------------------------------------------


def rational_grid_space(rows, cols):
    """L1 metric on a grid whose column and row steps are non-integer rationals."""
    xs = [F(0), F(3, 2), F(19, 6), F(17, 4), F(139, 28)][:cols]
    ys = [F(0), F(7, 5), F(9, 5), F(79, 30)][:rows]
    coords = [(x, y) for y in ys for x in xs]
    d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in coords] for p in coords]
    return validate_metric(d, name=f"rational-grid-{rows}x{cols}")


@pytest.mark.parametrize(
    "space",
    default_suite() + [rational_grid_space(3, 4), rp2_face_poset_space()[0]],
    ids=lambda s: s.name,
)
def test_core_route_matches_full_order_complex(space):
    for a in range(space.n):
        for b in range(space.n):
            if a != b:
                full = interval_complex(space, a, b).groups()
                assert interval_homology(space, a, b) == full, (a, b)


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3), (3, 4), (4, 5)])
def test_pair_routes_match_oracles_on_rational_grids(rows, cols):
    # an L1 grid's intervals are boxes under the product order; most pairs
    # of a row or a column, and of a box one step wide, have no relation
    space = rational_grid_space(rows, cols)
    relation_free = 0
    for a in range(space.n):
        for b in range(space.n):
            if a == b:
                continue
            elements, less = naive_interval_order(space, a, b)
            relation_free += not less
            full = interval_complex(space, a, b)
            # the frame route meets each pair first, before its groups are held
            for n in range(6):
                assert frame_homology_via_posets(space, (a, b), n) == full.homology(n - 2)
            assert interval_homology(space, a, b) == full.groups(), (a, b)
            assert poset_component_count(space, a, b) == naive_component_count(elements, less)
            assert _core_masks(*_interval_masks(space, a, b))[0] == naive_core(elements, less)
    assert 0 < relation_free < space.n * (space.n - 1)


def rp2_with_beat_point():
    """The RP^2 face-poset space plus a point covering one edge, covered by the top.

    In the interval from bottom to top the new point sits at rank 3 and
    has one lower cover, the edge, so it is a beat point.
    """
    space, bottom, top = rp2_face_poset_space()
    n = space.n + 1
    edge = 7  # the first edge, (0, 1)
    d = [[space.d(i, j) if max(i, j) < space.n else n for j in range(n)] for i in range(n)]
    d[n - 1][n - 1] = 0
    d[edge][n - 1] = d[n - 1][edge] = d[top][n - 1] = d[n - 1][top] = 1
    return validate_metric(closed_rows(d), name="rp2-beat-point"), bottom, top


def test_core_keeps_rp2_torsion_past_a_beat_point():
    space, bottom, top = rp2_with_beat_point()
    assert space.d(bottom, top) == 4
    elements, up, down = _interval_masks(space, bottom, top)
    assert len(elements) == 32
    assert interval_complex(space, bottom, top).sizes == [1, 32, 93, 62]
    core = _core_masks(elements, up, down)[0]
    assert core == [x for x in elements if x != space.n - 1]
    assert interval_homology(space, bottom, top) == {1: HomologyGroup(0, (2,))}


def test_core_of_small_posets():
    assert _core_masks(*_interval_masks(path_space(5), 0, 4)) == ([3], [0], [0])
    # a poset with no beat point is its own core, returned as it is
    antichain = _interval_masks(cycle_space(4), 0, 2)
    assert _core_masks(*antichain)[0] is antichain[0]
    empty = _interval_masks(path_space(3), 0, 1)
    assert _core_masks(*empty)[0] is empty[0]


@st.composite
def strict_orders(draw):
    """Transitive closure of a random DAG on at most 8 elements.

    Labels are odd and shuffled, so the order does not follow label order.
    """
    k = draw(st.integers(0, 8))
    labels = [2 * i + 1 for i in draw(st.permutations(range(k)))]
    pairs = list(itertools.combinations(range(k), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    reach = {i: set() for i in range(k)}
    for (i, j), edge in zip(pairs, edges):
        if edge:
            reach[i].add(j)
    for i in reversed(range(k)):
        for j in list(reach[i]):
            reach[i] |= reach[j]
    up = dict.fromkeys(labels, 0)
    down = dict.fromkeys(labels, 0)
    for i in range(k):
        for j in reach[i]:
            up[labels[i]] |= 1 << labels[j]
            down[labels[j]] |= 1 << labels[i]
    elements = sorted(labels)
    return elements, [up[x] for x in elements], [down[x] for x in elements]


def has_beat_point(elements, less):
    def covers(x, up):
        beyond = {y for y in elements if ((x, y) if up else (y, x)) in less}
        return {y for y in beyond if not any(((z, y) if up else (y, z)) in less for z in beyond)}

    return any(len(covers(x, True)) == 1 or len(covers(x, False)) == 1 for x in elements)


def reduced_groups(elements, up):
    """The nonzero reduced homology of a poset's order complex."""
    return ChainComplexZ(-1, *_reduced_columns(_order_simplices(elements, up))).groups()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(strict_orders())
def test_poset_core_on_strict_orders(poset):
    elements, up, _ = poset
    less = less_pairs(elements, up)
    core = _core_masks(*poset)
    kept = core[0]
    assert set(kept) <= set(elements)
    assert less_pairs(*core[:2]) == {(x, y) for x, y in less if {x, y} <= set(kept)}
    assert not has_beat_point(kept, less_pairs(*core[:2]))
    assert _core_masks(*core) == core
    assert bool(kept) == bool(elements)
    assert reduced_groups(*core[:2]) == reduced_groups(elements, up)
    assert kept == naive_core(elements, less)
    levels = _order_simplices(elements, up)
    assert dict(enumerate(levels)) == naive_order_complex(elements, less)


def test_interval_homology_is_cached_as_a_copy():
    space = cycle_space(6)
    first = interval_homology(space, 0, 3)
    assert first == {0: HomologyGroup(1)}
    first.clear()
    assert interval_homology(cycle_space(6), 0, 3) == {0: HomologyGroup(1)}
    # a pair frame's fold starts at the cached groups, and hands on a copy
    frame = frame_homology_by_degree(space, (0, 3))
    assert frame == {2: HomologyGroup(1)}
    frame.clear()
    assert frame_homology_by_degree(space, (0, 3)) == {2: HomologyGroup(1)}
    assert interval_homology(space, 0, 3) == {0: HomologyGroup(1)}
    assert interval_homology(path_space(2), 0, 1) == {-1: HomologyGroup(1)}
    assert interval_homology(path_space(5), 0, 4) == {}


def test_pair_homology_cache_outlives_a_run(monkeypatch):
    # 70 * 69 = 4830 pairs, more than the old cache of 4096 entries held
    space = complete_space(70)
    built = []
    original = magh.posets._core_masks

    def counting(elements, up, down):
        built.append(tuple(elements))
        return original(elements, up, down)

    monkeypatch.setattr(magh.posets, "_core_masks", counting)
    first = magnitude_homology_rows(space, [1], 2)
    assert [row.group for row in first] == [TRIVIAL, HomologyGroup(4830), TRIVIAL]
    assert len(built) == 4830
    built.clear()
    assert magnitude_homology_rows(space, [1], 2) == first
    assert built == []


def test_a_space_is_freed_after_compute_and_verify():
    # chain tables, pair homology and each start point's order live on the
    # space's view, and nothing at module level keeps a space, its view or
    # an equal one alive after a run, a certificate or an interval's masks
    space = cycle_space(5)
    assert m_x(space).value == 3
    rows = magnitude_homology_rows(space, [1, 2, 3, 4], 3)
    assert [row.group for row in rows if row.l == 2] == [
        TRIVIAL, TRIVIAL, HomologyGroup(10), TRIVIAL,
    ]
    assert all(report.passed for report in run_checks([space], n_max=2))
    assert mh2_certificate(space, 0, 2).components == 1
    assert _interval_masks(space, 1, 3)[0] == [2]
    view = space.integer_view
    assert view.start_orders and view.pair_homology
    refs = [weakref.ref(space), weakref.ref(view)]
    del space, view
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# --- certificates -----------------------------------------------------------------


def test_certificate_c4():
    cert = mh2_certificate(cycle_space(4), 0, 2)
    assert cert.pair == (0, 2)
    assert cert.distance == 2
    assert cert.components == 2
    assert cert.mh2_lower_bound == 1
    assert cert.to_json_dict() == {
        "pair": [0, 2],
        "distance": "2",
        "components": 2,
        "mh2_lower_bound": 1,
    }


def test_certificate_c6_antipodal():
    cert = mh2_certificate(cycle_space(6), 0, 3)
    assert cert.distance == 3
    assert cert.mh2_lower_bound == 1


def test_certificate_c5_is_silent():
    for b in (1, 2, 3, 4):
        assert mh2_certificate(cycle_space(5), 0, b).mh2_lower_bound == 0


def test_certificate_empty_interval():
    cert = mh2_certificate(path_space(2), 0, 1)
    assert cert.components == 0
    assert cert.mh2_lower_bound == 0


def test_certificate_same_point():
    with pytest.raises(SamePoint):
        mh2_certificate(cycle_space(4), 2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda c5, a, b: mh2_certificate(c5, a, b),
        lambda c5, a, b: poset_component_count(c5, a, b),
        lambda c5, a, b: frame_homology_via_posets(c5, (a, b), 2),
        lambda c5, a, b: interval_homology(c5, a, b),
    ],
    ids=["certificate", "components", "frame-homology", "interval-homology"],
)
def test_pair_apis_refuse_points_out_of_range(call):
    # a negative index would wrap to another point of the space, and
    # (0, -2) would be answered on I(0, 3); both ends are checked
    c5 = cycle_space(5)
    for a, b, p in [(0, -2, -2), (0, -1, -1), (-1, 0, -1), (0, 5, 5), (5, 5, 5)]:
        with pytest.raises(ValueError) as info:
            call(c5, a, b)
        assert str(info.value) == f"point index {p} out of range for n=5"
    assert c5.integer_view.pair_homology == {}
    # in range, the pair is answered as before
    assert mh2_certificate(c5, 0, 3).pair == (0, 3)


def test_certificate_bound_equals_reduced_h0():
    for space in (cycle_space(4), cycle_space(6), path_space(4),
                  random_metric(5, seed=31)):
        for a in range(space.n):
            for b in range(space.n):
                if a == b:
                    continue
                cert = mh2_certificate(space, a, b)
                h0 = interval_complex(space, a, b).homology(0)
                assert cert.mh2_lower_bound == h0.betti
                assert h0.torsion == ()


@pytest.mark.parametrize(
    "space",
    [
        cycle_space(4),
        cycle_space(5),
        cycle_space(6),
        path_space(4),
        complete_space(3),
        random_metric(4, seed=41),
        random_metric(4, seed=42),
    ],
    ids=lambda s: s.name,
)
def test_certificate_sound_against_engine(space):
    for a in range(space.n):
        for b in range(space.n):
            if a == b:
                continue
            cert = mh2_certificate(space, a, b)
            l = space.d(a, b)
            rows = {r.n: r.group for r in magnitude_homology(space, l, 2)}
            assert rows[2].betti >= cert.mh2_lower_bound
