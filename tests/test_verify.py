import json
from dataclasses import replace
from fractions import Fraction

import pytest

import magh.verify as verify_module
from magh.algebra import block_homology_rows
from magh.chains import is_strictly_smooth
from magh.frames import is_frame
from magh.metric import complete_space, cycle_space, path_space, random_metric
from magh.verify import (
    CHECKS,
    check_d_squared,
    check_frame_injectivity,
    check_simp_iso,
    check_tensor_route,
    default_suite,
    full_suite,
    random_suite,
    run_checks,
)


SAMPLE_SPACES = [
    cycle_space(4),
    cycle_space(5),
    cycle_space(6),
    path_space(4),
    complete_space(3),
    random_metric(4, seed=7),
    random_metric(5, seed=8),
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
    reports = run_checks(default_suite(), n_max=3)
    assert all(r.passed for r in reports), [r.to_json() for r in reports if not r.passed]
    assert len(reports) == 14 * 4


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
