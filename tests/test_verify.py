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
import magh.verify as verify_module
from magh.algebra import HomologyGroup, HomologyRow, block_homology_rows
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
from magh.verify import (
    CHECKS,
    _realized_frames,
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
    # counterexample frame (0, 1, 4) on the six-cycle
    monkeypatch.setattr(verify_module, "is_realized_frame", is_frame)
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

    for space in default_suite():
        for m_max in range(4):
            assert _realized_frames(space, m_max) == every_tuple(space, m_max), space.name
    assert _realized_frames(cycle_space(6), 2)[1] > 0


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
    def zeros(space, gradings, n_max, cap=None):
        return [HomologyRow(l, n, HomologyGroup(0)) for l in gradings for n in range(n_max + 1)]

    monkeypatch.setattr(verify_module, "block_homology_rows", zeros)
    report = check_frame_injectivity(cycle_space(4), 2)
    assert not report.passed
    assert report.params == {"n_max": 2, "pairs": 1}
    assert report.witness == {
        "frame": [0, 1], "l": "1", "n": 1, "frame_betti": 1, "full_betti": 0,
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
    # the frame table keeps groups, not chains
    for space in spaces:
        tables = space.integer_view.frame_groups
        assert list(tables) == [4]
        for (total, a, b), frames in tables[4].items():
            for f, groups in frames.items():
                assert (f[0], f[-1]) == (a, b)
                assert all(isinstance(g, HomologyGroup) for g in groups.values())
                assert all(isinstance(n, int) for n in groups)


def recorded_frame_searches(monkeypatch, tables):
    """Record (start, wanted totals, blocks `tables` held) per frame-table search."""
    searches = []
    original = magh.chains.start_blocks

    def recording(start, moves, wanted, n_top, steps, limit):
        searches.append((start, set(wanted), set(tables.get(n_top, ()))))
        return original(start, moves, wanted, n_top, steps, limit)

    monkeypatch.setattr(magh.frames, "start_blocks", recording)
    return searches


def test_simp_iso_searches_each_start_once(monkeypatch):
    space = cycle_space(5)
    searches = recorded_frame_searches(monkeypatch, space.integer_view.frame_groups)
    report = check_simp_iso(space, n_max=4)
    assert report.params["gradings"] == ["1", "2"]
    assert sorted(start for start, _, _ in searches) == list(range(5))
    assert all(wanted == {1, 2} for _, wanted, _ in searches)


@pytest.mark.parametrize(
    "space",
    [cycle_space(6), random_metric(5, seed=8), rational_grid(2, 3)],
    ids=lambda s: s.name,
)
def test_run_checks_never_searches_a_held_block(monkeypatch, space):
    searches = recorded_frame_searches(monkeypatch, space.integer_view.frame_groups)
    run_checks([space], n_max=3)
    assert searches
    for start, wanted, held in searches:
        # each total searched from a start has a block there not held
        for total in wanted:
            assert any((total, start, b) not in held for b in range(space.n))
    # a second run finds every block held
    del searches[:]
    run_checks([space], n_max=3)
    assert searches == []


def test_verify_output_ignores_hash_seed():
    # the frame table gathers its blocks in sets and dicts, and the output
    # must not depend on their hash order
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
        return block_homology_rows(*args)

    monkeypatch.setattr(verify_module, "block_homology_rows", blocks)
    report = check(cycle_space(5), n_max=3)
    assert report.passed
    # one call holds every grading the check compares: those below m_X = 3
    # for simp_iso, the distances 1 and 2 for frame_injectivity
    assert calls == [[Fraction(1), Fraction(2)]]
