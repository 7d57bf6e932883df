"""The frame count below m_X against the depth-first search it replaced.

`posets._frame_groups` counts frames level by level over states, each
with how many frame tuples reach it. The reference is
`oracles.dfs_frame_visits`, the search that visits every frame tuple,
reading the same pair homology table. Both must give the same groups,
name the same unrealized frame and count the same tuples against the
cap; where the cap and an unrealized frame both apply, the count raises
the cap (see `test_cap_counts_the_tuples_visited`). The count also
counts the simplices of the order complexes it builds.
"""

import random
from itertools import chain

import pytest

import magh.frames
from magh.algebra import HomologyGroup
from magh.chains import length_spectra
from magh.errors import EnumerationCapExceeded, UnrealizedFrame
from magh.frames import m_x
from magh.metric import path_space, random_metric, validate_metric
from magh.posets import _frame_groups, _order_simplices, _Steps
from magh.verify import full_suite, random_suite

from oracles import (
    dfs_frame_groups,
    dfs_frame_visits,
    naive_core,
    naive_interval_order,
    naive_order_complex,
)
from test_posets import moore_face_poset_space, rational_grid_space, rp2_face_poset_space


def below_m_x(space, n_max):
    """The gradings 0 < l < m_X realized by chains of degree <= n_max."""
    mx = m_x(space).value
    lengths = chain.from_iterable(s.lengths for s in length_spectra(space, n_max)[1:])
    return sorted({l for l in lengths if l > 0 and (mx is None or l < mx)})


def outcome(run, *args):
    """The groups `run(*args)` gives, or the exception it raises as data."""
    try:
        return run(*args)
    except UnrealizedFrame as exc:
        return "unrealized", exc.frame, exc.length
    except EnumerationCapExceeded as exc:
        return "cap", exc.count, exc.cap


SPACES = (
    full_suite()
    + random_suite(16)
    + [random_metric(7, seed=seed) for seed in range(6)]
    + [rational_grid_space(3, 4), rational_grid_space(3, 3)]
)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.name)
def test_state_count_matches_the_search(space):
    # the same groups at every grading below m_X, and the same count of
    # tuples: the cap passes at it and not one below
    for n_max in (2, 3, 4):
        gradings = below_m_x(space, n_max)
        groups, visited, first = dfs_frame_visits(space, gradings, n_max, realized=False)
        assert first is None
        assert _frame_groups(space, gradings, n_max, None) == groups
        if visited:
            assert _frame_groups(space, gradings, n_max, visited) == groups
            assert outcome(_frame_groups, space, gradings, n_max, visited - 1) == (
                "cap",
                visited,
                visited - 1,
            )


def rp2():
    return rp2_face_poset_space()[0]


def moore3():
    return moore_face_poset_space(3)[0]


@pytest.mark.parametrize(
    "make, witness",
    [(rp2, (0, 1, 0, 7)), (moore3, (0, 1, 0, 14))],
    ids=["rp2", "moore(3)"],
)
def test_forced_gradings_name_the_same_unrealized_frame(make, witness):
    # m_X = 3 on both face-poset spaces: at the gradings 3 and 4 some
    # frames are not realized, and both routes refuse the
    # lexicographically least, however the gradings are asked for
    space = make()
    assert m_x(space).value == 3
    for gradings in ([3], [4], [3, 4]):
        for n_max in (3, 4):
            got = outcome(_frame_groups, space, gradings, n_max, None)
            assert got[0] == "unrealized"
            assert got == outcome(dfs_frame_groups, space, gradings, n_max), (gradings, n_max)
    assert outcome(_frame_groups, space, [3, 4], 4, None) == ("unrealized", witness, 4)


def test_a_junction_refused_early_marks_every_extension(monkeypatch):
    # is_realized_frame patched to refuse the junction (0, 1, 0) alone: a
    # frame through it is refused at a length the junction's own frame
    # does not reach, by both routes, with the same witness
    def no_010(space, pts):
        pts = tuple(pts)
        return len(pts) > 1 and all(pts[i : i + 3] != (0, 1, 0) for i in range(len(pts) - 2))

    monkeypatch.setattr(magh.frames, "is_realized_frame", no_010)
    space = path_space(3)
    for gradings in ([3], [4], [3, 4]):
        want = outcome(dfs_frame_groups, space, gradings, 4)
        assert want[0] == "unrealized" and want[1][:3] == (0, 1, 0) and len(want[1]) > 3
        assert outcome(_frame_groups, space, gradings, 4, None) == want


def grid34():
    return rational_grid_space(3, 4)


@pytest.mark.parametrize(
    "make, gradings",
    [(rp2, [3, 4]), (moore3, [3, 4]), (grid34, None)],
    ids=["rp2", "moore(3)", "rational-grid-3x4"],
)
def test_cap_counts_the_tuples_visited(make, gradings):
    space = make()
    if gradings is None:
        gradings = below_m_x(space, 4)
    final = outcome(dfs_frame_groups, space, gradings, 4)
    # the first run holds every pair's homology, so no simplex is counted
    assert outcome(_frame_groups, space, gradings, 4, None) == final
    _, visited, first = dfs_frame_visits(space, gradings, 4, realized=False)
    assert outcome(_frame_groups, space, gradings, 4, visited) == final
    assert outcome(_frame_groups, space, gradings, 4, visited - 1) == (
        "cap",
        visited,
        visited - 1,
    )
    if first is None:
        assert outcome(dfs_frame_groups, space, gradings, 4, visited - 1) == (
            "cap",
            visited,
            visited - 1,
        )
        return
    # both apply: the search stops at the first unrealized frame, the
    # `position`-th tuple it visits, while the count counts every tuple
    # before it names the least unrealized frame; from `position` up to
    # `visited - 1` the count raises the cap and the search UnrealizedFrame
    position = first[2]
    assert final == ("unrealized",) + first[:2]
    for run in (_frame_groups, dfs_frame_groups):
        assert outcome(run, space, gradings, 4, position - 1) == ("cap", position, position - 1)
    for cap in (position, visited - 1):
        assert outcome(dfs_frame_groups, space, gradings, 4, cap) == final
        assert outcome(_frame_groups, space, gradings, 4, cap) == ("cap", cap + 1, cap)


def order_simplex_count(space, a, b):
    """The simplices of the order complex of I(a, b)'s core, 0 when the
    core has no relation, all from Fraction distances."""
    elements, less = naive_interval_order(space, a, b)
    core = naive_core(elements, less)
    kept = {(x, y) for x, y in less if x in core and y in core}
    if not kept:
        return 0
    return sum(len(simplices) for simplices in naive_order_complex(core, kept).values())


def test_cap_counts_the_simplices_of_pairs_not_held():
    # a fresh space reduces each pair it meets, and the simplices of each
    # core with a relation count with the tuples
    _, visited, _ = dfs_frame_visits(rp2(), [3, 4], 4, realized=False)
    fresh = rp2()
    final = outcome(_frame_groups, fresh, [3, 4], 4, None)
    assert final == ("unrealized", (0, 1, 0, 7), 4)
    simplices = sum(order_simplex_count(fresh, a, b) for a, b in fresh.integer_view.pair_homology)
    assert simplices == 5282
    total = visited + simplices
    assert outcome(_frame_groups, rp2(), [3, 4], 4, total - 1) == ("cap", total, total - 1)
    assert outcome(_frame_groups, rp2(), [3, 4], 4, total) == final


def hypercube(k):
    """The k-cube's graph metric: Hamming distance on k-bit words."""
    points = range(1 << k)
    return validate_metric(
        [[bin(x ^ y).count("1") for y in points] for x in points], name=f"cube({k})"
    )


def test_a_boolean_lattice_interval_stops_at_the_cap():
    # the 7-cube's antipodal interval is a Boolean lattice less its ends,
    # a core with no beat point; forced to grading 7, the count reaches
    # the cap while it builds the intervals from point 0, and holds none
    # that it did not finish
    cube = hypercube(7)
    assert m_x(cube).value == 3
    assert outcome(_frame_groups, cube, [7], 7, 2000) == ("cap", 2001, 2000)
    held = cube.integer_view.pair_homology
    assert held and (0, 127) not in held
    assert all(a == 0 for a, _ in held)
    assert sum(order_simplex_count(cube, a, b) for a, b in held) <= 2000


def test_counted_simplices_are_the_uncounted_ones():
    # the proper part of the Boolean lattice on 4 atoms: counted or not,
    # `_order_simplices` builds the same levels, and the count stops at
    # the simplex that passes the cap
    elements = list(range(1, 15))
    up = [sum(1 << y for y in elements if y != x and x & y == x) for x in elements]
    levels = _order_simplices(elements, up)
    size = sum(map(len, levels))
    assert [len(level) for level in levels] == [14, 36, 24]
    steps = _Steps(size)
    assert _order_simplices(elements, up, steps) == levels
    assert steps.count == size
    with pytest.raises(EnumerationCapExceeded) as exc:
        _order_simplices(elements, up, _Steps(size - 1))
    assert (exc.value.count, exc.value.cap) == (size, size - 1)


def planted(space, seed):
    """The space with every pair's interval homology replaced by a group
    drawn from a menu of torsion, so that Kunneth folds meet Tor terms."""
    menu = [
        {-1: HomologyGroup(1)},
        {0: HomologyGroup(0, (2,))},
        {0: HomologyGroup(1, (2,))},
        {-1: HomologyGroup(1), 0: HomologyGroup(0, (3,))},
        {0: HomologyGroup(0, (2,)), 1: HomologyGroup(0, (3,))},
        {0: HomologyGroup(0, (6,))},
    ]
    rng = random.Random(seed)
    table = space.integer_view.pair_homology
    for a in range(space.n):
        for b in range(space.n):
            if a != b:
                table[a, b] = rng.choice(menu)
    return space


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_torsion_matches_the_search(seed):
    space = planted(random_metric(5, seed=seed + 10), seed)
    gradings = below_m_x(space, 4)
    groups, visited, first = dfs_frame_visits(space, gradings, 4, realized=False)
    assert first is None
    assert _frame_groups(space, gradings, 4, None) == groups
    assert outcome(_frame_groups, space, gradings, 4, visited - 1) == (
        "cap",
        visited,
        visited - 1,
    )
    # torsion of every kind planted, and many copies of it in one group
    assert {d for group in groups.values() for d in group.torsion} == {2, 3, 6}
    assert any(len(group.torsion) > 2 for group in groups.values())
