"""The two magnitude homology engines, against each other and the oracle.

The boundary never removes a chain's endpoints, so the endpoint-block
engine, `block_homology_rows`, reduces one complex per endpoint pair and
sums the groups. These tests compare that with one complex per grading
(`oracles.magnitude_complex`) and with the dense naive oracle, and compare the
frame route that `magnitude_homology_rows` takes below m_X with the
block engine, on metrics with non-integer rational distances.
"""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import magh.algebra
import magh.chains
import magh.posets

from magh.algebra import TRIVIAL_GROUP, HomologyGroup, HomologyRow, block_homology_rows
from magh.chains import block_chains, length_spectra, smooth_faces
from magh.errors import AsymmetricTable, EnumerationCapExceeded
from magh.frames import m_x
from magh.metric import (
    cycle_space,
    metric_closure,
    path_space,
    random_metric,
    validate_metric,
)
from magh.posets import magnitude_homology, magnitude_homology_rows
from magh.verify import default_suite, full_suite, random_suite

from oracles import (
    collapsed_chains,
    complex_from_bases,
    endpoint_blocks,
    kept_faces,
    magnitude_complex,
    naive_buckets,
    naive_chains,
    naive_complex_groups,
    naive_magnitude_group,
    pruned_chains,
    smooth_by_distances,
)
from test_frames import GRID_STEPS, weighted_grid
from test_posets import rp2_face_poset_space


@st.composite
def rational_metrics(draw, max_points):
    """Shortest-path closure of K_n with weights p/q, q in {2, 3, 4}.

    Small numerators over one shared denominator keep geodesic ties, and
    so nonzero boundaries, common; at least one weight is not an integer.
    """
    n = draw(st.integers(3, max_points))
    q = draw(st.sampled_from([2, 3, 4]))
    numerators = st.integers(1, 4 * q).filter(lambda p: p % q)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(draw(numerators), q)
    return validate_metric(metric_closure(d), name=f"rational(n={n},q={q})")


def realized_lengths(space, n_max):
    return sorted({l for spectrum in length_spectra(space, n_max) for l in spectrum.lengths})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rational_metrics(max_points=5))
def test_blocks_match_whole_grading_complex(space):
    lengths = realized_lengths(space, 3)
    rows = block_homology_rows(space, lengths, 3)
    assert [(r.l, r.n) for r in rows] == [(l, n) for l in lengths for n in range(4)]
    for row in rows:
        whole = magnitude_complex(space, row.l, row.n + 1)
        assert row.group == whole.homology(row.n), (space.d, row)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rational_metrics(max_points=5))
def test_blocks_match_naive_oracle(space):
    for l in realized_lengths(space, 2):
        for row in block_homology_rows(space, [l], 2):
            group = (row.group.betti, row.group.torsion)
            assert group == naive_magnitude_group(space, l, row.n), (space.d, row)


def test_cycle4_blocks_sum_to_grading():
    space = cycle_space(4)
    by_degree = [naive_buckets(space, n) for n in range(4)]
    blocks = endpoint_blocks(by_degree, space.integer_view.scaled(2))
    groups = {
        pair: complex_from_bases(space, bases, 0, 3).homology(2)
        for pair, bases in blocks.items()
    }
    expected = {(a, a): HomologyGroup(2) for a in range(4)}
    expected.update({(a, (a + 2) % 4): HomologyGroup(1) for a in range(4)})
    assert groups == expected
    assert list(blocks) == sorted(expected)
    whole = {r.n: r.group for r in block_homology_rows(space, [2], 2)}[2]
    assert whole == HomologyGroup.direct_sum(groups.values()) == HomologyGroup(12)


def test_blocks_reduce_only_degrees_with_chains():
    # the engine builds every chain of the wanted lengths below n_max, at
    # n_max all but those it collapses against a one-face top chain, and at
    # n_max + 1 only those with a face it keeps, and stores no empty column,
    # all only for the representative blocks, here, as the space has no
    # isometry, those (a, b) with a <= b; what it leaves out changes no
    # group up to n_max
    space = random_metric(5, seed=3)
    lengths = realized_lengths(space, 3)
    view = space.integer_view
    assert not view.pair_orbits.generators
    assembled = []
    built = {}

    def recording_reduction(blocks):
        for records, (_, _, boundaries, _) in zip(blocks, magh.algebra._assemble(blocks)):
            lo, hi = min(records), max(records)
            assert sorted(records) == list(range(lo, hi + 1))
            for k, columns in boundaries.items():
                faced = sum(1 for _, mask in records.get(k, ()) if mask)
                assembled.append((faced, columns))
        return blocks_homology(blocks)

    def recording_blocks(*args):
        for blocks in block_chains(*args):
            assert blocks and len({a for _, (a, _), _ in blocks}) == 1
            for total, pair, records in blocks:
                assert records
                for n, chains in records.items():
                    built.setdefault(n, []).extend(chains)
            yield blocks

    blocks_homology = magh.algebra._blocks_homology
    with mock.patch.object(magh.algebra, "_blocks_homology", recording_reduction), (
        mock.patch.object(magh.chains, "block_chains", recording_blocks)
    ):
        rows = block_homology_rows(space, lengths, 3)
    # one column per chain with a face, and none of them empty
    assert assembled
    assert all(len(columns) == faced and all(columns) for faced, columns in assembled)
    assert any(not mask for chains in built.values() for _, mask in chains)
    totals = {view.scaled(l) for l in lengths}
    tables = [
        [pts for t in totals for pts in naive_buckets(space, n).get(t, ()) if pts[0] <= pts[-1]]
        for n in range(5)
    ]
    collapsed = collapsed_chains(space, tables[3])
    assert 0 < len(collapsed) < len(tables[3])
    for n, table in enumerate(tables):
        if n == 3:
            table = [pts for pts in table if pts not in collapsed]
        if n == 4:
            faced = [pts for pts in table if smooth_faces(view.between, pts)]
            kept = [pts for pts in faced if kept_faces(space, pts, collapsed)]
            assert 0 < len(kept) < len(faced) < len(table)
            table = kept
        assert sorted(pts for pts, _ in built.get(n, ())) == sorted(table), n
    for row in rows:
        assert row.group == magnitude_complex(space, row.l, 4).homology(row.n), row


def test_block_cap_counts_prefixes_and_kept_insertions():
    # C_5 has m_X = 3, and its rotations and reflections leave one pair
    # orbit per distance 0, 1 and 2, represented by (0, 0), (0, 1) and
    # (0, 2). At gradings 3 and 4 the search, from start 0 alone, keeps
    # every proper chain from 0 of degree <= 2 and length <= 4, every one
    # of degree 3 and length <= 4 that ends at 0, 1 or 2, and every chain
    # of degree 4 and length 3 or 4 of those blocks that has a smooth
    # interior point whose face the engine does not collapse
    space = cycle_space(5)
    orbits = space.integer_view.pair_orbits
    assert orbits.ends == (0b111, 0, 0, 0, 0)
    assert orbits.weights == {(0, 0): 5, (0, 1): 10, (0, 2): 10}
    gradings = [Fraction(3), Fraction(4)]

    def kept(pts):
        return (pts[0], pts[-1]) in orbits.weights

    prefixes = sum(
        1
        for n in range(4)
        for pts in naive_chains(space, n)
        if sum(space.d(a, b) for a, b in zip(pts, pts[1:])) <= 4
        and pts[0] == 0
        and (n < 3 or kept(pts))
    )
    collapsed = collapsed_chains(
        space, [pts for l in gradings for pts in naive_chains(space, 3, l) if kept(pts)]
    )
    tops = [pts for l in gradings for pts in naive_chains(space, 4, l) if kept(pts)]
    faced = sum(1 for pts in tops if smooth_by_distances(space, pts))
    insertions = sum(1 for pts in tops if kept_faces(space, pts, collapsed))
    count = prefixes + insertions
    assert collapsed and 0 < insertions < faced
    assert prefixes < sum(len(naive_chains(space, n)) for n in range(4))
    with pytest.raises(EnumerationCapExceeded) as exc:
        block_homology_rows(space, gradings, 3, cap=count - 1)
    assert (exc.value.count, exc.value.cap) == (count, count - 1)
    rows = block_homology_rows(space, gradings, 3, cap=count)
    assert rows == magnitude_homology_rows(space, gradings, 3)


def test_corrupted_betweenness_fails_the_block_engine_under_O():
    # count point 2 as strictly between 0 and 1 in C_4's betweenness
    # table, as test_d_squared_catches_corrupted_smoothness does: the
    # engine must refuse the blocks this breaks, also with asserts off
    code = (
        "from dataclasses import replace\n"
        "from magh.algebra import block_homology_rows\n"
        "from magh.errors import NotASubcomplex\n"
        "from magh.metric import cycle_space\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "space = cycle_space(4)\n"
        "view = space.integer_view\n"
        "between = [list(row) for row in view.between]\n"
        "between[0][1] |= 1 << 2\n"
        "vars(space)['integer_view'] = replace(\n"
        "    view, between=tuple(tuple(row) for row in between)\n"
        ")\n"
        "for l in (3, 4):\n"
        "    try:\n"
        "        block_homology_rows(space, [l], 3)\n"
        "    except (NotASubcomplex, ValueError) as exc:\n"
        "        print(l, type(exc).__name__, exc)\n"
        "    else:\n"
        "        raise SystemExit(f'grading {l} was computed')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(magh.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    # at l = 3 the corrupted triple (0, 2, 1) is the bottom of its block yet
    # has a face; at l = 4 the face (0, 1, 0) of (0, 2, 1, 0) lies in
    # another block
    assert proc.stdout.splitlines() == [
        "3 NotASubcomplex chain (0, 2, 1) at bottom degree 2 has nonzero boundary",
        "4 NotASubcomplex boundary term (0, 1, 0) of (0, 2, 1, 0) "
        "is outside the subcomplex basis at degree 2",
    ]


def test_asymmetric_between_fails_the_block_engine_under_O():
    # count point 2 as strictly between 1 and 0 in C_4, but not between 0
    # and 1: the engine reduces one block per orbit of pairs under the
    # isometries and reversal, and reads the other blocks off it, so it
    # must refuse a table that is not
    # symmetric, also with asserts off; at gradings 1 and 2 no chain runs
    # through the corrupted triple, so only the symmetry check can refuse
    code = (
        "from dataclasses import replace\n"
        "from magh.algebra import block_homology_rows\n"
        "from magh.errors import AsymmetricTable\n"
        "from magh.metric import cycle_space\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on: not running under -O')\n"
        "space = cycle_space(4)\n"
        "view = space.integer_view\n"
        "between = [list(row) for row in view.between]\n"
        "between[1][0] |= 1 << 2\n"
        "vars(space)['integer_view'] = replace(\n"
        "    view, between=tuple(tuple(row) for row in between)\n"
        ")\n"
        "for l in (1, 2):\n"
        "    try:\n"
        "        block_homology_rows(space, [l], 3)\n"
        "    except AsymmetricTable as exc:\n"
        "        print(l, type(exc).__name__, exc)\n"
        "    else:\n"
        "        raise SystemExit(f'grading {l} was computed')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(magh.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == [
        f"{l} AsymmetricTable between[0][1] != between[1][0]" for l in (1, 2)
    ]


def test_asymmetric_distances_fail_the_block_engine():
    space = cycle_space(4)
    view = space.integer_view
    idist = [list(row) for row in view.idist]
    idist[3][1] += 1
    vars(space)["integer_view"] = replace(view, idist=tuple(tuple(row) for row in idist))
    with pytest.raises(AsymmetricTable) as exc:
        block_homology_rows(space, [1], 2)
    assert (exc.value.table, exc.value.i, exc.value.j) == ("idist", 1, 3)


def pruned_blocks(space, total, n_top):
    """The proper chains of length `total`, a scaled int, up to degree n_top,
    from every start point to every end point, split by endpoint pair.

    The naive search `oracles.pruned_chains`, which drops a prefix once it
    is longer than `total`; it shares no code with `chains.block_chains`
    and skips no direction.
    """
    by_degree = [{total: chains} for chains in pruned_chains(space, total, n_top)]
    return endpoint_blocks(by_degree, total)


def assert_reversal_and_sum(space, lengths, n_max):
    """Every block (l, a, b) has the groups of (l, b, a) up to n_max, and
    the engine's rows are the sums over all ordered pairs."""
    view = space.integer_view
    rows = block_homology_rows(space, lengths, n_max)
    expected = []
    for l in lengths:
        blocks = pruned_blocks(space, view.scaled(l), n_max + 1)
        groups = {
            pair: [
                complex_from_bases(space, bases, 0, n_max + 1).homology(n)
                for n in range(n_max + 1)
            ]
            for pair, bases in blocks.items()
        }
        for (a, b), by_degree in groups.items():
            assert groups[b, a] == by_degree, (space.name, l, a, b)
        expected.extend(
            HomologyGroup.direct_sum(by_degree[n] for by_degree in groups.values())
            for n in range(n_max + 1)
        )
    assert [row.group for row in rows] == expected, space.name
    return rows


def l1_grid_space():
    """A 2 x 3 grid with the L^1 metric of non-integer rational coordinates."""
    xs = [Fraction(0), Fraction(3, 2), Fraction(19, 6)]
    ys = [Fraction(0), Fraction(7, 4)]
    coords = [(x, y) for y in ys for x in xs]
    d = [[abs(x - u) + abs(y - v) for u, v in coords] for x, y in coords]
    return validate_metric(d, name="l1-grid(2x3)")


def test_reversed_blocks_agree_and_sum_to_the_grading():
    spaces = default_suite() + [l1_grid_space()]
    assert any(x.denominator > 1 for row in spaces[-1].dist for x in row)
    for space in spaces:
        lengths = realized_lengths(space, 3)
        rows = assert_reversal_and_sum(space, lengths, 3)
        for row in rows:
            assert row.group == magnitude_complex(space, row.l, 4).homology(row.n), row


def test_reversed_rp2_blocks_carry_the_torsion():
    # criterion 10's grading: the (bottom, top) block and its reverse each
    # carry one Z/2 at degree 3, and the engine, which reduces one of them,
    # counts both
    space, bottom, top = rp2_face_poset_space()
    rows = assert_reversal_and_sum(space, [Fraction(4)], 3)
    assert rows[3].group == HomologyGroup(450, (2, 2))
    blocks = pruned_blocks(space, space.integer_view.scaled(4), 4)
    for pair in ((bottom, top), (top, bottom)):
        cx = complex_from_bases(space, blocks[pair], 0, 4)
        assert cx.homology(3) == HomologyGroup(0, (2,))


def block_groups(space, bases):
    """The nonzero groups of the complex a block's chains span, over the
    degrees from its lowest to its highest."""
    return complex_from_bases(space, bases, min(bases), max(bases)).groups()


def assert_block_groups_match_oracles(space, lengths, n_max):
    """Per block, the oracle complex's groups equal the dense oracle's up to n_max,
    and per grading the blocks sum to the whole grading's complex."""
    view = space.integer_view
    for l in lengths:
        blocks = pruned_blocks(space, view.scaled(l), n_max + 1)
        parts = {n: [] for n in range(n_max + 1)}
        for pair, bases in blocks.items():
            groups = block_groups(space, bases)
            groups = {n: g for n, g in groups.items() if n <= n_max}
            expected = naive_complex_groups(space, bases, n_max)
            assert {n: (g.betti, g.torsion) for n, g in groups.items()} == expected, (l, pair)
            for n, g in groups.items():
                parts[n].append(g)
        whole = magnitude_complex(space, l, n_max + 1)
        for n in range(n_max + 1):
            assert HomologyGroup.direct_sum(parts[n]) == whole.homology(n), (space.name, l, n)


@pytest.mark.parametrize("space", default_suite(), ids=lambda s: s.name)
def test_block_groups_match_oracles_on_the_default_suite(space):
    assert_block_groups_match_oracles(space, realized_lengths(space, 3), 3)


@pytest.mark.parametrize("wx, wy", GRID_STEPS)
def test_block_groups_match_oracles_on_rational_grids(wx, wy):
    space = weighted_grid(wx, wy)
    lengths = realized_lengths(space, 2)
    assert_block_groups_match_oracles(space, lengths, 2)


def test_block_groups_keep_the_rp2_torsion():
    # MH_3^4 of RP^2's face-poset space carries (Z/2)^2, one Z/2 from the
    # (bottom, top) block and one from its reverse
    space, bottom, top = rp2_face_poset_space()
    blocks = pruned_blocks(space, space.integer_view.scaled(4), 4)
    for pair in ((bottom, top), (top, bottom)):
        groups = block_groups(space, blocks[pair])
        assert groups[3] == HomologyGroup(0, (2,))
        assert naive_complex_groups(space, blocks[pair], 3) == {3: (0, (2,))}
    total = HomologyGroup.direct_sum(
        block_groups(space, bases).get(3, TRIVIAL_GROUP) for bases in blocks.values()
    )
    assert total == HomologyGroup(450, (2, 2))
    assert block_homology_rows(space, [4], 3)[3].group == total


def test_many_gradings_equal_one_at_a_time():
    # a fresh space per grading, so that none is read from the block table
    space = cycle_space(5)
    lengths = realized_lengths(space, 2)
    together = block_homology_rows(space, lengths, 2)
    apart = [row for l in lengths for row in block_homology_rows(cycle_space(5), [l], 2)]
    assert together == apart
    assert block_homology_rows(space, [], 2) == []


def test_block_table_searches_only_gradings_it_lacks():
    space = cycle_space(5)
    fresh = block_homology_rows(cycle_space(5), [5], 2)
    searched = []

    def recording_blocks(space_, totals, n_max, cap=None):
        searched.append((sorted(totals), n_max))
        return block_chains(space_, totals, n_max, cap)

    with mock.patch.object(magh.chains, "block_chains", recording_blocks):
        rows = block_homology_rows(space, [3, 4, Fraction(1, 2)], 2)
        assert searched == [([3, 4], 2)]
        # a held grading costs no search and no cap step
        again = block_homology_rows(space, [4, 3], 2, cap=0)
        assert again == rows[3:6] + rows[:3]
        # only the gradings lacking are searched
        more = block_homology_rows(space, [3, 5], 2)
        assert searched[1:] == [([5], 2)]
        assert more == rows[:3] + fresh
        # and each n_max has its own table
        block_homology_rows(space, [3], 3)
        assert searched[2:] == [([3], 3)]
    view = space.integer_view
    assert sorted(view.block_groups) == [2, 3]
    assert sorted(view.block_groups[2]) == [3, 4, 5]
    # a length that is no scaled int is that of no chain, and is not held
    assert rows[6:] == [HomologyRow(Fraction(1, 2), n, TRIVIAL_GROUP) for n in range(3)]


def gradings_below_m_x(space, n_max):
    mx = m_x(space).value
    return [l for l in realized_lengths(space, n_max) if l > 0 and (mx is None or l < mx)]


def assert_frame_route_matches_blocks(space, gradings, n_max):
    # below m_X the router must not enumerate chains
    with mock.patch.object(magh.chains, "block_chains", side_effect=AssertionError):
        frames = magnitude_homology_rows(space, gradings, n_max)
    blocks = block_homology_rows(space, gradings, n_max)
    assert frames == blocks, space.d


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(rational_metrics(max_points=6))
def test_frame_route_matches_blocks_below_m_x(space):
    assert_frame_route_matches_blocks(space, gradings_below_m_x(space, 3), 3)


def test_frame_route_matches_blocks_on_suites():
    compared = 0
    for space in full_suite() + random_suite(8):
        gradings = gradings_below_m_x(space, 3)
        if gradings:
            assert_frame_route_matches_blocks(space, gradings, 3)
            compared += 1
    assert compared == 23


def test_router_splits_at_m_x():
    # C_5 has m_X = 3: gradings 1 and 2 take the frame route, 3 the blocks
    space = cycle_space(5)
    with mock.patch.object(
        magh.posets, "block_homology_rows", wraps=block_homology_rows
    ) as blocks:
        rows = magnitude_homology_rows(space, [3, 0, 2, 1, 3], 2)
    blocks.assert_called_once_with(space, [Fraction(3)], 2, None)
    assert rows == [
        row
        for l in (3, 0, 2, 1, 3)
        for row in block_homology_rows(space, [l], 2)
    ]


def test_frame_route_counts_prefixes_against_cap():
    # only frames that turn back at every junction have nonzero homology in
    # a path, one per directed edge, each giving Z at n = l; block
    # enumeration at degree 6 would visit 8 * 7**6 chains, the frame DFS
    # visits far fewer tuples, and those count against the cap
    space = path_space(8)
    with pytest.raises(EnumerationCapExceeded) as exc:
        magnitude_homology(space, 5, 5, cap=20)
    assert exc.value.cap == 20
    rows = magnitude_homology(space, 5, 5, cap=1000)
    assert [r.group for r in rows] == [HomologyGroup(0)] * 5 + [HomologyGroup(14)]
