"""Torsion other than Z/2 through the endpoint-block engine.

The mod-3 and mod-4 Moore spaces have reduced homology Z/3 and Z/4 in
degree 1, so the (bottom, top) frame of their face-poset spaces carries
it at MH_3 (Kaneta-Yoshinaga). d(bottom, top) = 4 >= m_X = 3, so
`compute` sends that grading to the engine, and its invariant factors
must come out as (3, 3) and (4, 4): not as Z/2 + Z/2, nor lost in a
merge. Glued at its top to the RP^2 space's, the mod-3 space's Z/3
meets RP^2's Z/2 in one grading, and the engine must merge them into
the factors (6, 6). Each space's (bottom, top) block is checked against
the interval-poset route as well, as acceptance criterion 10 does for
RP^2, and every boundary the engine hands to elimination for RP^2 and
the mod-3 space against `snf` of the checked matrix of its columns.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import magh.algebra
from magh.algebra import HomologyGroup, SparseIntMatrix, block_homology_rows, snf
from magh.chains import CAP_ENV_VAR, block_chains
from magh.frames import m_x
from magh.posets import frame_homology_via_posets, interval_homology

from oracles import complex_from_bases
from test_collapse import torsion_spaces
from test_posets import moore_face_poset_space, rp2_face_poset_space
from test_wedge import wedge

# k -> (points, MH_2^4, MH_3^4)
MOORE = {
    3: (81, HomologyGroup(540), HomologyGroup(2046, (3, 3))),
    4: (105, HomologyGroup(1044), HomologyGroup(3654, (4, 4))),
}


@pytest.mark.parametrize("k", sorted(MOORE))
def test_moore_interval_homology(k):
    space, bottom, top = moore_face_poset_space(k)
    assert space.n == MOORE[k][0]
    assert space.d(bottom, top) == 4 and m_x(space).value == 3
    torsion = {1: HomologyGroup(0, (k,))}
    assert interval_homology(space, bottom, top) == torsion
    assert interval_homology(space, top, bottom) == torsion
    assert frame_homology_via_posets(space, (bottom, top), 3) == HomologyGroup(0, (k,))


@pytest.mark.parametrize("k", sorted(MOORE))
def test_moore_block_engine_torsion(k):
    space, _, _ = moore_face_poset_space(k)
    _, mh2, mh3 = MOORE[k]
    rows = block_homology_rows(space, [4], 3)
    assert [(r.l, r.n) for r in rows] == [(Fraction(4), n) for n in range(4)]
    assert [r.group for r in rows] == [HomologyGroup(0), HomologyGroup(0), mh2, mh3]


@pytest.mark.parametrize("k", sorted(MOORE))
def test_moore_pair_block_matches_the_interval_posets(k):
    # every chain of length d(bottom, top) = 4 from bottom to top is
    # geodesic, so the engine's (bottom, top) block is the pair frame's
    # subcomplex, whose homology the interval posets give with no chains;
    # reversal maps it onto the (top, bottom) block, so it must match both
    # pair frames. Blocks come by start point and bottom is point 0, so
    # only the first start is searched.
    space, bottom, top = moore_face_poset_space(k)
    total = space.integer_view.scaled(4)
    ends = (min(bottom, top), max(bottom, top))
    records = next(
        recs
        for blocks in block_chains(space, {total}, 4)
        for _, pair, recs in blocks
        if pair == ends
    )
    bases = {n: [pts for pts, _ in chains] for n, chains in records.items()}
    cx = complex_from_bases(space, bases, min(records), max(records))
    for pair in ((bottom, top), (top, bottom)):
        for n in range(2, 5):
            assert cx.homology(n) == frame_homology_via_posets(space, pair, n)
    assert cx.homology(3) == HomologyGroup(0, (k,))


def test_wedge_merges_z2_and_z3_into_z6():
    # RP^2's Z^450 + (Z/2)^2 and the mod-3 Moore space's Z^2046 + (Z/3)^2 at
    # MH_3^4, glued at their tops, must merge to invariant factors (6, 6)
    rp2, _, rp2_top = rp2_face_poset_space()
    moore, _, moore_top = moore_face_poset_space(3)
    glued = wedge(rp2, rp2_top, moore, moore_top)
    assert glued.n == 113 and m_x(glued).value == 3
    rows = block_homology_rows(glued, [4], 3)
    assert [r.group for r in rows] == [
        HomologyGroup(0),
        HomologyGroup(0),
        HomologyGroup(540),
        HomologyGroup(2496, (6, 6)),
    ]


def test_moore3_cli_torsion_above_m_x(tmp_path):
    space, _, _ = moore_face_poset_space(3)
    space_file = tmp_path / "moore3.json"
    space_file.write_text(space.to_json())
    argv = [sys.executable, "-m", "magh", "compute", "--in", str(space_file)]
    argv += ["--l", "4", "--n-max", "3", "--format", "json"]
    env = {k: v for k, v in os.environ.items() if k != CAP_ENV_VAR}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        {"betti": 0, "l": "4", "n": 0, "torsion": []},
        {"betti": 0, "l": "4", "n": 1, "torsion": []},
        {"betti": 540, "l": "4", "n": 2, "torsion": []},
        {"betti": 2046, "l": "4", "n": 3, "torsion": [3, 3]},
    ]


@pytest.mark.parametrize(
    "space, mh3", torsion_spaces()[:2], ids=lambda v: getattr(v, "name", str(v))
)
def test_assembled_rows_reduce_as_their_columns(space, mh3, monkeypatch):
    # every boundary the engine reduces at l = 4 reaches `_eliminate` as
    # the rows and columns the assembly wrote; its factors must be those
    # `snf` gives the checked matrix of the same columns, torsion and the
    # dense residual included, and the groups they sum to the corpus's
    reduced = []
    eliminate = magh.algebra._eliminate

    def recording(rows, columns):
        height = 1 + max(rows)
        matrix = SparseIntMatrix(height, [dict(column) for column in columns])
        factors = eliminate(rows, columns)
        reduced.append((matrix, factors))
        return factors

    monkeypatch.setattr(magh.algebra, "_eliminate", recording)
    rows = block_homology_rows(space, [4], 3)
    monkeypatch.undo()
    assert rows[3].group == mh3
    assert len(reduced) > 30
    for matrix, factors in reduced:
        assert factors == snf(matrix), matrix
    # the torsion comes out of a boundary of more than one row and column,
    # which elimination leaves to its dense stage
    assert any(
        matrix.cols > 1 and len(set().union(*matrix.columns)) > 1 and factors[-1] > 1
        for matrix, factors in reduced
    )
