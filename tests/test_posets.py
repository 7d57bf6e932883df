import itertools
from fractions import Fraction

import pytest

import magh.posets
from magh.algebra import TRIVIAL_GROUP as TRIVIAL, HomologyGroup, kunneth
from magh.errors import SamePoint
from magh.metric import (
    complete_space,
    cycle_space,
    metric_closure,
    path_space,
    random_metric,
    validate_metric,
)
from magh.posets import (
    frame_homology_via_posets,
    interval_complex,
    interval_homology,
    interval_poset,
    magnitude_homology,
    magnitude_homology_rows,
    mh2_certificate,
    order_complex,
    poset_component_count,
    reduced_complex,
)

F = Fraction


# --- interval posets ------------------------------------------------------------


def test_interval_poset_path3():
    poset = interval_poset(path_space(3), 0, 2)
    assert poset.elements == (1,)
    assert poset.less == frozenset()


def test_interval_poset_antichain():
    poset = interval_poset(cycle_space(4), 0, 2)
    assert poset.elements == (1, 3)
    assert poset.less == frozenset()
    assert not poset.lt(1, 3) and not poset.lt(3, 1)


def test_interval_poset_c6_two_chains():
    poset = interval_poset(cycle_space(6), 0, 3)
    assert poset.elements == (1, 2, 4, 5)
    assert poset.lt(1, 2) and not poset.lt(2, 1)
    # the far-side arc passes 5 first, so 5 sits below 4
    assert poset.lt(5, 4) and not poset.lt(4, 5)
    assert not poset.lt(1, 4) and not poset.lt(4, 1)
    assert poset.successors(1) == (2,)
    assert poset.successors(5) == (4,)
    assert poset.successors(2) == ()
    assert len(poset) == 4


def test_interval_poset_three_chain():
    poset = interval_poset(path_space(5), 0, 4)
    assert poset.elements == (1, 2, 3)
    assert poset.lt(1, 2) and poset.lt(2, 3) and poset.lt(1, 3)
    assert poset.successors(1) == (2, 3)


def test_interval_poset_adjacent_empty():
    poset = interval_poset(path_space(3), 0, 1)
    assert poset.elements == ()


def test_interval_poset_same_point():
    with pytest.raises(SamePoint):
        interval_poset(path_space(3), 1, 1)


def test_interval_poset_builds_on_random_spaces():
    # exercises the internal order-consistency assertions
    for seed in range(8):
        sp = random_metric(5, seed=seed)
        for a in range(sp.n):
            for b in range(sp.n):
                if a != b:
                    interval_poset(sp, a, b)


# --- order complexes and reduced chains ------------------------------------------


def test_order_complex_shapes():
    oc = order_complex(interval_poset(cycle_space(6), 0, 3))
    assert oc.dim == 1
    assert oc.simplices[0] == [(1,), (2,), (4,), (5,)]
    assert oc.simplices[1] == [(1, 2), (5, 4)]
    assert oc.vertices() == (1, 2, 4, 5)


def test_order_complex_empty():
    oc = order_complex(interval_poset(path_space(3), 0, 1))
    assert oc.dim == -1
    assert oc.simplices == {}


def test_order_complex_with_triangle():
    oc = order_complex(interval_poset(path_space(5), 0, 4))
    assert oc.dim == 2
    assert oc.simplices[1] == [(1, 2), (1, 3), (2, 3)]
    assert oc.simplices[2] == [(1, 2, 3)]


def test_reduced_complex_empty_is_z_at_minus_one():
    cx = interval_complex(path_space(3), 0, 1)
    assert cx.lo == -1 and cx.sizes == [1]
    assert cx.homology(-1) == HomologyGroup(1)


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
    from magh.frames import frame_subcomplex, is_realized_frame

    c5 = cycle_space(5)
    checked = 0
    for a in range(5):
        for b in range(5):
            if a == b:
                continue
            if not is_realized_frame(c5, (a, b)):
                continue
            sub = frame_subcomplex(c5, (a, b), 4)
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


def rp2_face_poset_space():
    """Hasse-graph metric of RP^2's face poset with a bottom and a top added.

    Points: the bottom (), 6 vertices, 15 edges, 10 triangles, then the top.
    Covering faces are joined by edges of length 1. The interval from bottom
    to top is the whole face poset, whose order complex is the barycentric
    subdivision of RP^2.
    """
    edges = sorted({e for t in RP2_TRIANGLES for e in itertools.combinations(t, 2)})
    faces = [(v,) for v in range(6)] + edges + sorted(RP2_TRIANGLES)
    points = [()] + faces
    n = len(points) + 1
    top = n - 1
    # n is longer than any path, so it stands for a missing edge
    d = [[0 if i == j else n for j in range(n)] for i in range(n)]
    for i, f in enumerate(points):
        for j, g in enumerate(points):
            if len(g) == len(f) + 1 and set(f) <= set(g):
                d[i][j] = d[j][i] = 1
        if len(f) == 3:
            d[i][top] = d[top][i] = 1
    return validate_metric(metric_closure(d), name="rp2-face-poset"), 0, top


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


def test_interval_homology_is_cached_as_a_copy():
    space = cycle_space(6)
    first = interval_homology(space, 0, 3)
    assert first == {0: HomologyGroup(1)}
    first.clear()
    assert interval_homology(cycle_space(6), 0, 3) == {0: HomologyGroup(1)}
    assert interval_homology(path_space(2), 0, 1) == {-1: HomologyGroup(1)}
    assert interval_homology(path_space(5), 0, 4) == {}


def test_pair_homology_cache_outlives_a_run(monkeypatch):
    # 70 * 69 = 4830 pairs, more than the old cache of 4096 entries held
    space = complete_space(70)
    first = magnitude_homology_rows(space, [1], 2)
    assert [row.group for row in first] == [TRIVIAL, HomologyGroup(4830), TRIVIAL]
    built = []
    original = magh.posets.interval_complex

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(magh.posets, "interval_complex", counting)
    assert magnitude_homology_rows(space, [1], 2) == first
    assert built == []


def test_pair_tables_keep_the_spaces_used_last():
    def segment(d):
        return validate_metric([[0, d], [d, 0]])

    for d in range(1, 80):
        assert interval_homology(segment(d), 0, 1) == {-1: HomologyGroup(1)}
    assert len(magh.posets._PAIR_TABLES) == 64
    assert segment(79) in magh.posets._PAIR_TABLES
    assert segment(1) not in magh.posets._PAIR_TABLES


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


def test_certificate_bound_equals_reduced_h0():
    for space in (cycle_space(4), cycle_space(6), path_space(4),
                  random_metric(5, seed=31)):
        for a in range(space.n):
            for b in range(space.n):
                if a == b:
                    continue
                cert = mh2_certificate(space, a, b)
                h0 = interval_complex(space, a, b).homology_or_trivial(0)
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
