"""End-to-end acceptance gate.

Ten criteria, each wrapped in the `acceptance` fixture so the run summary
shows one PASS/FAIL line per criterion. Everything is exact integer or
rational arithmetic; there are no tolerances anywhere.
"""

import json
import os
import subprocess
import sys

import pytest

from magh.chains import CAP_ENV_VAR, block_chains, length_spectra
from magh.frames import m_x
from magh.metric import complete_space, cycle_space, path_space
from magh.posets import frame_homology_via_posets, magnitude_homology, mh2_certificate
from magh.verify import (
    check_d_squared,
    check_frame_injectivity,
    check_simp_iso,
    check_tensor_route,
    full_suite,
    random_suite,
)

from oracles import complex_from_bases, naive_four_cuts, naive_magnitude_group
from test_posets import rp2_face_poset_space


def criterion_1_suite():
    spaces = []
    spaces.extend(cycle_space(n) for n in range(3, 9))
    spaces.extend(path_space(n) for n in range(1, 7))
    spaces.extend(complete_space(n) for n in range(1, 6))
    spaces.extend(random_suite(50, seed0=101, sizes=(3, 4, 5, 6)))
    return spaces


def test_criterion_1_d_squared(acceptance):
    with acceptance("1/9 chain-complex axiom: d^2 = 0, n_max=4, 67 spaces"):
        for space in criterion_1_suite():
            report = check_d_squared(space, n_max=4)
            assert report.passed, report.to_json()


def test_criterion_2_trivial_gradings(acceptance):
    with acceptance("2/9 trivial gradings: MH_0^0 = Z^|X|, MH_n^0 = 0, MH_0^l = 0"):
        for space in criterion_1_suite():
            zero_rows = {r.n: r.group for r in magnitude_homology(space, 0, 3)}
            assert zero_rows[0].betti == space.n
            assert zero_rows[0].torsion == ()
            for n in range(1, 4):
                assert zero_rows[n].is_trivial()
            positive = [l for l in length_spectra(space, 2)[2].lengths if l > 0]
            for l in positive:
                rows = {r.n: r.group for r in magnitude_homology(space, l, 0)}
                assert rows[0].is_trivial()


def test_criterion_3_m_x_goldens(acceptance):
    with acceptance("3/9 m_X goldens vs brute-force 4-cut oracle"):
        goldens = [(cycle_space(4), 3), (cycle_space(6), 4)]
        goldens += [(path_space(n), None) for n in range(1, 7)]
        goldens += [(complete_space(n), None) for n in range(1, 6)]
        for space, expected in goldens:
            result = m_x(space)
            assert result.value == expected, space.name
            cuts = naive_four_cuts(space)
            oracle_min = min((length for _, length in cuts), default=None)
            assert result.value == oracle_min, space.name
            if expected is None:
                assert result.is_infinite and result.witness is None
            else:
                assert (result.witness, result.value) in cuts


def test_criterion_4_simp_iso(acceptance):
    with acceptance("4/9 frame decomposition below m_X, full suite + 30 randoms"):
        spaces = full_suite() + random_suite(30, seed0=301)
        for space in spaces:
            report = check_simp_iso(space, n_max=3)
            assert report.passed, report.to_json()


def test_criterion_5_tensor_route(acceptance):
    with acceptance("5/9 dual-route frame homology, m <= 2, n <= 4"):
        spaces = [cycle_space(4), cycle_space(6), path_space(4)]
        spaces += random_suite(20, seed0=201, sizes=(3, 4, 5))
        for space in spaces:
            report = check_tensor_route(space, n_max=4, m_max=2)
            assert report.passed, report.to_json()


def test_criterion_6_closed_geodesic_certificates(acceptance):
    with acceptance("6/9 even-cycle antipodal certificates, C_5 silent"):
        for k in (2, 3, 4):
            space = cycle_space(2 * k)
            cert = mh2_certificate(space, 0, k)
            assert cert.distance == k
            assert cert.mh2_lower_bound >= 1
            rows = {r.n: r.group for r in magnitude_homology(space, k, 2)}
            assert rows[2].betti >= 1
        c5 = cycle_space(5)
        for a in range(5):
            for b in range(5):
                if a != b:
                    assert mh2_certificate(c5, a, b).mh2_lower_bound == 0


def test_criterion_7_frame_injectivity(acceptance):
    with acceptance("7/9 pair-frame rank injectivity, full suite"):
        for space in full_suite():
            report = check_frame_injectivity(space, n_max=3)
            assert report.passed, report.to_json()


def test_criterion_8_tree_diagonality(acceptance):
    with acceptance("8/9 path spaces diagonal, engine vs naive oracle"):
        for n_pts in range(1, 6):
            space = path_space(n_pts)
            for n in range(4):
                for l in sorted(length_spectra(space, n)[n].lengths):
                    group = {r.n: r.group for r in magnitude_homology(space, l, n)}[n]
                    betti, torsion = naive_magnitude_group(space, l, n)
                    assert (group.betti, group.torsion) == (betti, torsion)
                    if l != n:
                        assert group.is_trivial(), (space.name, l, n)
                    else:
                        assert betti > 0


def test_criterion_9_cli_determinism(acceptance, tmp_path):
    label = "9/9 CLI compute byte-identical, 3 runs x PYTHONHASHSEED {0,1,random}"
    with acceptance(label):
        space_file = tmp_path / "c5.json"
        space_file.write_text(cycle_space(5).to_json())
        argv = [sys.executable, "-m", "magh", "compute", "--in", str(space_file)]
        argv += ["--n-max", "3", "--format", "json"]
        outputs = []
        for hash_seed in ("0", "1", "random"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            for _ in range(3):
                proc = subprocess.run(argv, capture_output=True, check=True, env=env)
                outputs.append(proc.stdout)
        assert len(set(outputs)) == 1
        rows = json.loads(outputs[0])
        assert rows, "compute produced an empty table"


def test_criterion_10_rp2_torsion_above_m_x(acceptance, tmp_path):
    label = "10 RP^2 face-poset space: CLI MH_3^4 = Z^450 + (Z/2)^2 above m_X = 3"
    with acceptance(label):
        space, bottom, top = rp2_face_poset_space()
        assert m_x(space).value == 3
        space_file = tmp_path / "rp2.json"
        space_file.write_text(space.to_json())
        argv = [sys.executable, "-m", "magh", "compute", "--in", str(space_file)]
        argv += ["--l", "4", "--n-max", "3", "--format", "json"]
        env = {k: v for k, v in os.environ.items() if k != CAP_ENV_VAR}
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert rows == [
            {"betti": 0, "l": "4", "n": n, "torsion": []} for n in range(3)
        ] + [{"betti": 450, "l": "4", "n": 3, "torsion": [2, 2]}]
        # every chain of length d(a, b) = 4 from a to b is geodesic, so the
        # block of each such pair is its pair frame's subcomplex, whose
        # homology the interval posets give by a route with no chains; the
        # engine builds only the (min, max) block, its orbit's
        # representative, and reversal maps it onto the other, so it must
        # match both pair frames
        total = space.integer_view.scaled(4)
        ends = (min(bottom, top), max(bottom, top))
        blocks = [
            complex_from_bases(
                space,
                {n: [pts for pts, _ in chains] for n, chains in records.items()},
                min(records),
                max(records),
            )
            for blocks in block_chains(space, {total}, 4)
            for _, pair, records in blocks
            if pair == ends
        ]
        assert len(blocks) == 1
        cx = blocks[0]
        for pair in ((bottom, top), (top, bottom)):
            for n in range(2, 5):
                assert cx.homology(n) == frame_homology_via_posets(space, pair, n)
        assert cx.homology(3).torsion == (2,)
