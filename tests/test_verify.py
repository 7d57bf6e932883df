import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import magh
import magh.chains
import magh.frames
import magh.posets
import magh.verify as verify_module
from magh.algebra import HomologyGroup, _block_groups
from magh.chains import is_strictly_smooth
from magh.errors import EnumerationCapExceeded
from magh.frames import is_frame, is_realized_frame
from magh.metric import (
    complete_space,
    cycle_space,
    path_space,
    random_metric,
    validate_metric,
)
from magh.posets import frame_homology_by_degree, magnitude_homology_rows
from magh.verify import (
    CHECKS,
    _realized_frames,
    _tensor_groups,
    check_d_squared,
    check_frame_injectivity,
    check_simp_iso,
    check_tensor_route,
    default_suite,
    full_suite,
    random_suite,
    run_checks,
)

from oracles import d_squared_by_tables
from test_frames import corrupted_c5
from test_posets import rational_grid_space, rp2_face_poset_space


def rational_grid(rows, cols):
    """L1 metric on a grid with non-integer rational steps."""
    xs = [Fraction(0), Fraction(3, 2), Fraction(19, 6)][:cols]
    ys = [Fraction(0), Fraction(7, 5)][:rows]
    coords = [(x, y) for y in ys for x in xs]
    d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in coords] for p in coords]
    return validate_metric(d, name=f"rational-grid-{rows}x{cols}")


SAMPLE_SPACES = [
    cycle_space(4),
    cycle_space(5),
    cycle_space(6),
    path_space(4),
    complete_space(3),
    random_metric(4, seed=7),
    random_metric(5, seed=8),
    rational_grid(2, 3),
]


@pytest.mark.parametrize("space", SAMPLE_SPACES, ids=lambda s: s.name)
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checks_pass_on_samples(space, name):
    report = CHECKS[name](space, n_max=3)
    assert report.passed, report.to_json()
    assert report.check == name
    assert report.space == space.name
    assert report.witness is None


def test_d_squared_reports_counts():
    report = check_d_squared(cycle_space(4), 3)
    assert report.params["checked"] > 0
    assert report.params["n_max"] == 3


def test_d_squared_catches_corrupted_smoothness():
    # make one non-smooth triple removable: count point 2 as strictly
    # between 0 and 1 in the space's betweenness table; the single extra
    # term has no cancelling partner, so boundary-of-boundary picks up a
    # residue
    space = cycle_space(4)
    view = space.integer_view
    between = [list(row) for row in view.between]
    between[0][1] |= 1 << 2
    vars(space)["integer_view"] = replace(
        view, between=tuple(tuple(row) for row in between)
    )
    assert is_strictly_smooth(space, 0, 2, 1)
    report = check_d_squared(space, 3)
    assert not report.passed
    # first failure in enumeration order: removing 1 from (0,1,2,1) leaves
    # (0,2,1), whose corrupted boundary then drops to (0,1) uncancelled
    assert report.witness["chain"] == [0, 1, 2, 1]
    assert report.witness["dd_terms"] == [{"points": [0, 1], "coeff": 1}]


def with_between(space, between):
    """The space with its betweenness table replaced, for injecting faults."""
    view = space.integer_view
    vars(space)["integer_view"] = replace(
        view, between=tuple(tuple(row) for row in between)
    )
    return space


def d_squared_outcome(check, space, n_max, cap=None):
    try:
        return check(space, n_max, cap).to_json()
    except EnumerationCapExceeded as exc:
        return ("cap", exc.count, exc.cap)


@pytest.mark.parametrize(
    "space",
    default_suite() + [rational_grid(2, 3)],
    ids=lambda s: s.name,
)
def test_d_squared_matches_table_walk(space):
    for n_max in range(5):
        assert check_d_squared(space, n_max).to_json() == (
            d_squared_by_tables(space, n_max).to_json()
        )


def test_d_squared_matches_table_walk_on_corrupted_tables():
    # random bit flips in the betweenness tables of small spaces, off the
    # diagonal, where every face stays a proper chain; the whole report,
    # status, count and witness, must be the table walk's
    bases = [cycle_space(n) for n in range(3, 7)] + [path_space(n) for n in range(2, 6)]
    bases += [random_metric(n, seed=seed) for n, seed in [(3, 1), (4, 2), (5, 3), (5, 5)]]
    rng = random.Random(2019)
    failures = 0
    for case in range(240):
        base = rng.choice(bases)
        size = base.n
        between = [list(row) for row in base.integer_view.between]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(size), 2)
            between[a][b] ^= 1 << rng.randrange(size)
        fresh = validate_metric([list(row) for row in base.dist], name=base.name)
        space = with_between(fresh, between)
        n_max = rng.randint(2, 4)
        report = check_d_squared(space, n_max).to_json()
        assert report == d_squared_by_tables(space, n_max).to_json(), (case, report)
        failures += '"fail"' in report
    assert 50 < failures < 200


def test_d_squared_matches_table_walk_on_more_corrupted_tables():
    # bit flips in the tables of the non-integer 2x3 grid and of a 7-point
    # space, on the diagonal in every third case: no metric gives those,
    # and they make some faces improper tuples, but the window argument
    # holds for any table. Each report must be the table walk's, and each
    # failure names a window, some with w = y and some with x = z
    rng = random.Random(17)
    reports = []
    for base in (rational_grid(2, 3), random_metric(7, seed=1)):
        size = base.n
        for case in range(30):
            between = [list(row) for row in base.integer_view.between]
            for _ in range(rng.randint(1, 2)):
                a = rng.randrange(size)
                b = a if case % 3 == 0 else rng.choice([p for p in range(size) if p != a])
                between[a][b] ^= 1 << rng.randrange(size)
            fresh = validate_metric([list(row) for row in base.dist], name=base.name)
            space = with_between(fresh, between)
            for n_max in (2, 3, 4):
                report = check_d_squared(space, n_max)
                assert report.to_json() == d_squared_by_tables(space, n_max).to_json(), (case, n_max)
                reports.append(report)
    witnesses = [r.witness["chain"] for r in reports if not r.passed]
    assert 20 < len(witnesses) < len(reports) - 60
    assert all(len(chain) == 4 for chain in witnesses)
    assert any(w == y for w, _, y, _ in witnesses)
    assert any(x == z for _, x, _, z in witnesses)


def counted_smooth_faces(monkeypatch):
    """The chains `smooth_faces` is called on from now, wherever verify or
    chains reads it."""
    calls = []
    real = magh.chains.smooth_faces

    def counted(between, pts):
        calls.append(tuple(pts))
        return real(between, pts)

    for module in (magh.chains, verify_module):
        monkeypatch.setattr(module, "smooth_faces", counted)
    return calls


def test_d_squared_takes_faces_of_its_witness_only(monkeypatch):
    # the windows decide every degree, so a pass takes no boundary at all
    # and a failure only its witness's and its faces'; walking chains again
    # would show up here
    calls = counted_smooth_faces(monkeypatch)
    report = check_d_squared(random_metric(7, seed=1), 5)
    assert report.passed and report.params["checked"] == sum(7 * 6**n for n in range(2, 6))
    assert calls == []
    space = corrupted_cycle4()
    report = check_d_squared(space, 5)
    chain = tuple(report.witness["chain"])
    assert chain == (0, 1, 2, 1)
    assert calls[0] == chain and set(calls[1:]) <= {
        chain[:i] + chain[i + 1 :] for i in (1, 2)
    }
    assert 1 < len(calls) <= 3


def corrupted_cycle4():
    # point 2 counts as strictly between 0 and 1: d^2 first fails at degree 3
    space = cycle_space(4)
    between = [list(row) for row in space.integer_view.between]
    between[0][1] |= 1 << 2
    return with_between(space, between)


@pytest.mark.parametrize(
    "space, clean",
    [
        (cycle_space(4), True),
        (path_space(2), True),
        (complete_space(3), True),
        (corrupted_cycle4(), False),
    ],
    ids=["cycle(4)", "path(2)", "complete(3)", "corrupted-cycle(4)"],
)
def test_d_squared_cap_is_per_degree(space, clean):
    # the table walk's outcome, a report or the exception's count and cap,
    # at every cap on either side of a degree's N(N-1)^n
    size = space.n
    for n_max in range(2, 5):
        counts = [size * (size - 1) ** n for n in range(2, n_max + 1)]
        for cap in sorted({c + e for c in counts for e in (-1, 0)}):
            assert d_squared_outcome(check_d_squared, space, n_max, cap) == (
                d_squared_outcome(d_squared_by_tables, space, n_max, cap)
            ), (n_max, cap)
        # raises at N(N-1)^n - 1 with the top degree's count, passes at it
        if clean:
            with pytest.raises(EnumerationCapExceeded) as exc:
                check_d_squared(space, n_max, cap=counts[-1] - 1)
            assert (exc.value.count, exc.value.cap) == (counts[-1], counts[-1] - 1)
            report = check_d_squared(space, n_max, cap=counts[-1])
            assert report.passed and report.params["checked"] == sum(counts)


def test_d_squared_failure_below_the_cap_is_reported():
    # degree 4 of C_4 has 324 chains, over the cap; the failure at degree 3
    # is found first
    report = check_d_squared(corrupted_cycle4(), 4, cap=4 * 3**4 - 1)
    assert not report.passed
    assert report.witness["chain"] == [0, 1, 2, 1]
    assert report.params["checked"] == d_squared_by_tables(corrupted_cycle4(), 3).params["checked"]


def test_tensor_route_catches_unrealized_frame(monkeypatch):
    # widening "realized" to every self-framed tuple must expose the known
    # counterexample frame (0, 1, 4) on the six-cycle: with no junction
    # mask, every junction that leaves its point unsmooth is realized
    monkeypatch.setattr(verify_module, "_junction_mask", lambda view, prev, x: 0)
    report = check_tensor_route(cycle_space(6), n_max=3, m_max=2)
    assert not report.passed
    assert report.witness["frame"] == [0, 1, 4]
    assert report.witness["n"] == 3
    assert report.witness["subcomplex"] == {"betti": 0, "torsion": []}
    assert report.witness["tensor"] == {"betti": 1, "torsion": []}
    assert report.params["excluded"] == 0


def test_tensor_route_reports_exclusions():
    report = check_tensor_route(cycle_space(6), n_max=3, m_max=2)
    assert report.passed
    assert report.params["excluded"] > 0
    assert report.params["frames"] > 0


def test_realized_frames_match_every_tuple():
    # the frames are grown only through junctions that are not strictly
    # smooth; testing each of the N^(m+1) tuples must find the same ones
    def every_tuple(space, m_max):
        realized = []
        excluded = 0
        for m in range(1, m_max + 1):
            for pts in itertools.product(range(space.n), repeat=m + 1):
                if not is_frame(space, pts):
                    continue
                if is_realized_frame(space, pts):
                    realized.append(pts)
                else:
                    excluded += 1
        return realized, excluded

    # the grid has rational steps, and the corrupted C_5's start order
    # fails its partial-order test
    for space in default_suite() + [rational_grid_space(2, 3), corrupted_c5()]:
        for m_max in range(4):
            assert _realized_frames(space, m_max) == every_tuple(space, m_max), space.name
    assert _realized_frames(cycle_space(6), 2)[1] > 0


def test_tensor_side_folds_torsion_as_the_frame_route():
    # on the RP^2 face-poset space I(bottom, top) and I(top, bottom) are
    # both Z/2 at degree 1, so frames through them fold Tor(Z/2, Z/2);
    # each frame's groups must be those of the one-frame fold
    space, bottom, top = rp2_face_poset_space()
    frames = [f for f in _realized_frames(space, 2)[0] if bottom in f or top in f]
    frames += [(bottom, top, bottom), (top, bottom, top, bottom)]
    n_max = 12
    folded = _tensor_groups(space, frames, n_max)
    assert len(folded) == len(frames)
    for f, groups in zip(frames, folded):
        want = frame_homology_by_degree(space, f)
        assert groups == {n: g for n, g in want.items() if n <= n_max}, f
    z2 = HomologyGroup(0, (2,))
    # (Z/2 (x) Z/2) at 2 and Tor(Z/2, Z/2) at 3, shifted by 4
    assert folded[-2] == {6: z2, 7: z2}
    assert any(g.torsion for groups in folded[:-2] for g in groups.values())
    # at a lower n_max the same products are cut there
    assert _tensor_groups(space, frames[-2:], 6) == [{6: z2}, {}]


def test_simp_iso_grading_window():
    report = check_simp_iso(cycle_space(4), 3)
    assert report.passed
    assert report.params["m_x"] == "3"
    assert report.params["gradings"] == ["1", "2"]
    report = check_simp_iso(path_space(4), 2)
    assert report.params["m_x"] == "inf"


def test_frame_injectivity_counts_ordered_pairs():
    report = check_frame_injectivity(cycle_space(4), 2)
    assert report.passed
    assert report.params["pairs"] == 12


def test_frame_injectivity_reads_the_pair_frames(monkeypatch):
    # with the full side zeroed, the first pair frame with homology fails
    def zeros(space, totals, n_max, cap=None):
        return [(HomologyGroup(0),) * (n_max + 1) for _ in totals]

    monkeypatch.setattr(verify_module, "_block_groups", zeros)
    report = check_frame_injectivity(cycle_space(4), 2)
    assert not report.passed
    assert report.params == {"n_max": 2, "pairs": 1}
    assert report.witness == {
        "frame": [0, 1], "l": "1", "n": 1, "frame_betti": 1, "full_betti": 0,
    }


def test_simp_iso_checks_the_printed_route(monkeypatch):
    # one Z more in the groups `compute` prints below m_X changes its
    # table, and simp_iso fails at that grading and degree
    real = magh.posets._frame_groups

    def one_z_more(space, gradings, n_max, cap):
        groups = real(space, gradings, n_max, cap)
        if gradings:
            group = groups.get((gradings[-1], 2), HomologyGroup(0))
            groups[gradings[-1], 2] = HomologyGroup(group.betti + 1, group.torsion)
        return groups

    before = magnitude_homology_rows(cycle_space(5), [2], 3)
    monkeypatch.setattr(magh.posets, "_frame_groups", one_z_more)
    after = magnitude_homology_rows(cycle_space(5), [2], 3)
    assert [row.group.betti for row in after] == [
        row.group.betti + (row.n == 2) for row in before
    ]
    report = check_simp_iso(cycle_space(5), 3)
    assert not report.passed
    assert report.witness == {
        "l": "2",
        "n": 2,
        "decomposition": {"betti": before[2].group.betti + 1, "torsion": []},
        "full": {"betti": before[2].group.betti, "torsion": []},
    }


def test_frame_injectivity_checks_the_printed_route(monkeypatch):
    # one Z more at degree 2 in the pair frames' interval route fails the
    # first pair: MH_2 at grading 1 is zero on two points
    real = magh.posets.frame_homology_by_degree

    def one_z_more(space, f):
        groups = real(space, f)
        group = groups.get(2, HomologyGroup(0))
        groups[2] = HomologyGroup(group.betti + 1, group.torsion)
        return groups

    monkeypatch.setattr(magh.posets, "frame_homology_by_degree", one_z_more)
    report = check_frame_injectivity(path_space(2), 2)
    assert not report.passed
    assert report.params == {"n_max": 2, "pairs": 1}
    assert report.witness == {
        "frame": [0, 1], "l": "1", "n": 2, "frame_betti": 1, "full_betti": 0,
    }


def test_deeper_tensor_route_with_three_segment_frames():
    # at n_max = 0 the frames of degree 2 and 3 lie above every degree checked
    for n_max in (4, 0):
        for space in (cycle_space(5), path_space(4), random_metric(4, seed=17)):
            report = check_tensor_route(space, n_max=n_max, m_max=3)
            assert report.passed, report.to_json()


def test_run_checks_order_and_determinism():
    spaces = [cycle_space(4), path_space(3)]
    first = run_checks(spaces, n_max=2)
    second = run_checks(spaces, n_max=2)
    assert [r.to_json() for r in first] == [r.to_json() for r in second]
    assert [r.check for r in first] == list(CHECKS) + list(CHECKS)
    assert [r.space for r in first[:4]] == ["cycle(4)"] * 4


def test_run_checks_subset_and_unknown():
    reports = run_checks([cycle_space(4)], checks=["d_squared"], n_max=2)
    assert [r.check for r in reports] == ["d_squared"]
    with pytest.raises(ValueError):
        run_checks([cycle_space(4)], checks=["nope"])


def test_report_json_shape():
    report = check_d_squared(path_space(3), 2)
    data = json.loads(report.to_json())
    assert data == {
        "check": "d_squared",
        "space": "path(3)",
        "status": "pass",
        "params": {"n_max": 2, "checked": data["params"]["checked"]},
        "witness": None,
    }


def test_suite_compositions():
    assert len(full_suite()) == 17
    assert len(default_suite()) == 14
    names = [s.name for s in random_suite(3, seed0=5, sizes=(3, 4))]
    assert names == [
        "random(n=3,seed=5,max_w=9)",
        "random(n=4,seed=6,max_w=9)",
        "random(n=3,seed=7,max_w=9)",
    ]
    for space in default_suite():
        assert space.n >= 1


def test_default_suite_all_green():
    spaces = default_suite()
    reports = run_checks(spaces, n_max=3)
    assert all(r.passed for r in reports), [r.to_json() for r in reports if not r.passed]
    assert len(reports) == 14 * 4
    # the block table keeps each grading's groups, not chains
    for space in spaces:
        view = space.integer_view
        assert list(view.block_groups) == [3]
        for total, groups in view.block_groups[3].items():
            assert isinstance(total, int) and len(groups) == 4
            assert all(isinstance(g, HomologyGroup) for g in groups)


def recorded_frame_searches(monkeypatch):
    """Record each frame search as (request, start, wanted totals, heads),
    and the frames of each call of `_frame_splits`."""
    searches, requests = [], []
    search, splits = magh.frames._frame_search, magh.frames._frame_splits

    def recording_search(view, start, moves, wanted, heads, *rest):
        searches.append((len(requests) - 1, start, set(wanted), heads))
        return search(view, start, moves, wanted, heads, *rest)

    def recording_splits(space, frames, *rest):
        requests.append(list(frames))
        return splits(space, frames, *rest)

    monkeypatch.setattr(magh.frames, "_frame_search", recording_search)
    monkeypatch.setattr(magh.frames, "_frame_splits", recording_splits)
    return searches, requests


def test_simp_iso_runs_no_frame_search(monkeypatch):
    # the decomposition side is the route compute prints: interval posets
    # and Kunneth folds, with no chain of its own
    space = cycle_space(5)
    searches, requests = recorded_frame_searches(monkeypatch)
    report = check_simp_iso(space, n_max=4)
    assert report.params["gradings"] == ["1", "2"]
    assert searches == [] and requests == []


@pytest.mark.parametrize(
    "space",
    [cycle_space(6), random_metric(5, seed=8), rational_grid(2, 3)],
    ids=lambda s: s.name,
)
def test_run_checks_never_searches_a_held_block(monkeypatch, space):
    # only tensor_route searches, in one request for its realized frames,
    # and each start is searched once
    searches, requests = recorded_frame_searches(monkeypatch)
    run_checks([space], n_max=3)
    [frames] = requests
    assert frames == _realized_frames(space, 2)[0]
    starts = [start for _, start, _, _ in searches]
    assert starts == sorted(set(starts)) == sorted({f[0] for f in frames})


@pytest.mark.parametrize(
    "space",
    [cycle_space(6), random_metric(5, seed=8), rational_grid(2, 3)],
    ids=lambda s: s.name,
)
def test_second_run_checks_searches_nothing(monkeypatch, space):
    searches, _ = recorded_frame_searches(monkeypatch)
    engine = []
    block_chains = magh.chains.block_chains

    def recording_blocks(space_, totals, n_max, cap=None):
        engine.append(sorted(totals))
        return block_chains(space_, totals, n_max, cap)

    monkeypatch.setattr(magh.chains, "block_chains", recording_blocks)
    first = run_checks([space], n_max=3)
    assert searches and engine
    searched = [search[1:] for search in searches]
    del searches[:], engine[:]
    # every grading is held, and the frame search, which keeps nothing on
    # the space, runs again as it ran the first time
    assert run_checks([space], n_max=3) == first
    assert engine == []
    assert [search[1:] for search in searches] == searched


def test_verify_output_ignores_hash_seed():
    # the frame search gathers its frames and heads in sets and dicts, and
    # the output must not depend on their hash order
    env = dict(os.environ, PYTHONPATH=str(Path(magh.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "magh", "verify", "--n-max", "3"]
    outputs = set()
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        outputs.add(subprocess.run(argv, capture_output=True, check=True, env=env).stdout)
    assert len(outputs) == 1
    lines = outputs.pop().decode().splitlines()
    assert len(lines) == 14 * 4
    assert all(json.loads(line)["status"] == "pass" for line in lines)


@pytest.mark.parametrize("check", [check_simp_iso, check_frame_injectivity])
def test_full_side_is_the_block_engine(monkeypatch, check):
    # the frame route would make the decomposition its own reference
    calls = []

    def blocks(*args):
        calls.append(args[1])
        return _block_groups(*args)

    monkeypatch.setattr(verify_module, "_block_groups", blocks)
    report = check(cycle_space(5), n_max=3)
    assert report.passed
    # one call holds every grading the check compares, as scaled ints
    # (C_5 has scale 1): those below m_X = 3 for simp_iso, the distances
    # 1 and 2 for frame_injectivity
    assert calls == [[1, 2]]
