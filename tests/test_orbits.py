"""The endpoint-block engine's pair orbits: isometries found, checked and used.

`IntegerView.pair_orbits` finds generators of the space's isometries
(`metric._isometry_generators`), checks each one on every distance, and
splits the ordered point pairs into orbits under them and reversal. The
engine searches and reduces one block per orbit, its least pair, and
counts its groups by the orbit's size. Here the orbits are checked
against the whole isometry group that `oracles.naive_isometries` lists,
and the engine's rows against the same engine with no isometry found
(`_isometry_generators` patched to find none, which is the reversal-only
engine with the blocks a <= b) and against the oracles. The inputs are
the suites, random relabelings of cycles and complete graphs, rational
L1 grids with equal steps, and the torsion corpus.
"""

import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

import magh.metric
from magh.algebra import block_homology_rows
from magh.errors import EnumerationCapExceeded, NotAnIsometry, NotASubcomplex
from magh.metric import (
    complete_space,
    cycle_space,
    random_metric,
    set_bits,
    validate_metric,
)
from magh.verify import full_suite, random_suite

from oracles import (
    collapsed_chains,
    kept_faces,
    magnitude_complex,
    naive_chains,
    naive_isometries,
    naive_pair_orbits,
)
from test_blocks import realized_lengths
from test_collapse import torsion_spaces


def relabeled(space, seed):
    """The space with its points shuffled by a seeded permutation."""
    order = list(range(space.n))
    random.Random(seed).shuffle(order)
    d = [[space.dist[a][b] for b in order] for a in order]
    return validate_metric(d, name=f"{space.name}~{seed}")


def equal_step_grid(rows, cols, step):
    """The L1 grid of rows x cols points, each step `step` in both directions."""
    coords = [(x * step, y * step) for y in range(rows) for x in range(cols)]
    d = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in coords] for p in coords]
    return validate_metric(d, name=f"grid-{rows}x{cols}-{step}")


def relabeled_spaces():
    return [
        relabeled(build(n), seed)
        for build, sizes in ((cycle_space, (4, 5, 6, 7)), (complete_space, (3, 4, 5)))
        for n in sizes
        for seed in (1, 2)
    ]


def grids():
    return [
        equal_step_grid(2, 3, Fraction(3, 2)),
        equal_step_grid(3, 3, Fraction(2, 3)),
        equal_step_grid(2, 4, Fraction(5, 4)),
    ]


SMALL = full_suite() + random_suite(8) + relabeled_spaces() + grids()


def reference_rows(space, gradings, n_max):
    """The engine's rows on a fresh copy of the space with no isometry
    found: the orbits are then the pairs with a <= b and their reverses."""
    with mock.patch.object(magh.metric, "_isometry_generators", lambda idist: []):
        fresh = replace(space)
        assert len(fresh.integer_view.pair_orbits.weights) == space.n * (space.n + 1) // 2
        return block_homology_rows(fresh, gradings, n_max)


def orbit_closure(pair, generators):
    """The orbit of an ordered pair under maps given as tuples and reversal,
    by a fixed-point iteration over sets."""
    orbit = {pair}
    while True:
        grown = orbit | {(b, a) for a, b in orbit}
        grown |= {(g[a], g[b]) for g in generators for a, b in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


def assert_sound_orbits(space):
    """Every generator keeps every distance, and the representatives split
    the N^2 ordered pairs: each pair lies in the orbit of exactly one, the
    least pair of that orbit, whose weight is the orbit's size."""
    n = space.n
    orbits = space.integer_view.pair_orbits
    d = space.dist
    for g in orbits.generators:
        assert sorted(g) == list(range(n))
        for a in range(n):
            for b in range(n):
                assert d[g[a]][g[b]] == d[a][b], (space.name, g, a, b)
    assert sum(orbits.weights.values()) == n * n
    covered = {}
    for rep, weight in orbits.weights.items():
        orbit = orbit_closure(rep, orbits.generators)
        assert min(orbit) == rep and len(orbit) == weight, (space.name, rep)
        for pair in orbit:
            assert pair not in covered, (space.name, pair, rep, covered.get(pair))
            covered[pair] = rep
    assert len(covered) == n * n
    assert orbits.ends == tuple(
        sum(1 << b for b in range(n) if (a, b) in orbits.weights) for a in range(n)
    )


@pytest.mark.parametrize("space", SMALL, ids=lambda s: s.name)
def test_orbits_partition_the_pairs(space):
    assert_sound_orbits(space)


@pytest.mark.parametrize("space", SMALL, ids=lambda s: s.name)
def test_finder_reaches_the_whole_group(space):
    # the generators reach every pair orbit of the whole isometry group,
    # which the oracle lists map by map
    orbits = space.integer_view.pair_orbits
    whole = naive_pair_orbits(space, naive_isometries(space))
    assert [min(orbit) for orbit in whole] == sorted(orbits.weights)
    assert [len(orbit) for orbit in whole] == [orbits.weights[key] for key in sorted(orbits.weights)]


def test_torsion_corpus_orbits_are_sound():
    for space, _ in torsion_spaces():
        assert_sound_orbits(space)
        # the Moore and RP^2 triangulations have isometries; a face-poset
        # space's bottom 0 and top N - 1 are fixed, so its (bottom, top)
        # block is a representative
        orbits = space.integer_view.pair_orbits
        assert orbits.generators, space.name
        if space.d(0, space.n - 1) == 4:
            assert orbits.weights[0, space.n - 1] == 2


def test_no_isometry_keeps_the_reversal_blocks():
    # a space with no isometry but the identity keeps the blocks a <= b,
    # an a < b block counted twice, and so the reversal-only engine's
    # blocks, cap steps and groups
    for space in random_suite(8) + [random_metric(7, seed=s) for s in range(3)]:
        orbits = space.integer_view.pair_orbits
        if orbits.generators:
            continue
        assert orbits.weights == {
            (a, b): 2 if a < b else 1 for a in range(space.n) for b in range(a, space.n)
        }
    # an asymmetric table has no isometry
    asymmetric = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert magh.metric._isometry_generators(tuple(map(tuple, asymmetric))) != []
    asymmetric[0][2] = 3
    assert magh.metric._isometry_generators(tuple(map(tuple, asymmetric))) == []


def engine_steps(space, gradings, n_max, kept):
    """The cap steps of the engine by its rule, from naive chains: one per
    chain of degree <= n_max no longer than the largest grading from a
    start that begins some kept pair, at n_max only those whose endpoints
    are kept, and one per top chain of a kept block with a face that is
    not collapsed."""
    longest = max(gradings)
    starts = {a for a in range(space.n) for b in range(space.n) if kept(a, b)}
    prefixes = sum(
        1
        for n in range(n_max + 1)
        for pts in naive_chains(space, n)
        if pts[0] in starts
        and sum(space.d(a, b) for a, b in zip(pts, pts[1:])) <= longest
        and (n < n_max or kept(pts[0], pts[-1]))
    )
    chains = [
        [pts for l in gradings for pts in naive_chains(space, n, l) if kept(pts[0], pts[-1])]
        for n in (n_max, n_max + 1)
    ]
    collapsed = collapsed_chains(space, chains[0])
    return prefixes + sum(1 for pts in chains[1] if kept_faces(space, pts, collapsed))


def refused_at(space, gradings, n_max, cap):
    with pytest.raises(EnumerationCapExceeded) as exc:
        block_homology_rows(replace(space), gradings, n_max, cap=cap)
    return exc.value.count


@pytest.mark.parametrize(
    "space",
    [random_metric(5, seed=3), random_metric(6, seed=4), cycle_space(6), complete_space(4)],
    ids=lambda s: s.name,
)
def test_cap_steps_fall_only_with_isometries(space):
    # the engine's steps follow its rule over the representatives; on a
    # space with no isometry they are the reversal-only engine's, with
    # the blocks a <= b, and on one with isometries they are fewer
    gradings = realized_lengths(space, 2)[-2:]
    orbits = space.integer_view.pair_orbits
    count = engine_steps(space, gradings, 2, lambda a, b: (a, b) in orbits.weights)
    reversal = engine_steps(space, gradings, 2, lambda a, b: a <= b)
    assert refused_at(space, gradings, 2, count - 1) == count
    block_homology_rows(replace(space), gradings, 2, cap=count)
    if orbits.generators:
        assert count < reversal
    else:
        assert count == reversal


@pytest.mark.parametrize("space", SMALL, ids=lambda s: s.name)
def test_orbit_engine_matches_the_reversal_only_engine(space):
    n_max = 3 if space.n <= 6 else 2
    lengths = realized_lengths(space, n_max)
    rows = block_homology_rows(space, lengths, n_max)
    assert rows == reference_rows(space, lengths, n_max), space.name


@pytest.mark.parametrize("space", SMALL, ids=lambda s: s.name)
def test_orbit_engine_matches_the_oracle(space):
    lengths = realized_lengths(space, 2)
    for row in block_homology_rows(space, lengths, 2):
        assert row.group == magnitude_complex(space, row.l, 3).homology(row.n), (space.name, row)


@pytest.mark.parametrize("space, mh3", torsion_spaces(), ids=lambda v: getattr(v, "name", str(v)))
def test_orbit_engine_keeps_the_torsion(space, mh3):
    rows = block_homology_rows(space, [4], 3)
    assert rows[3].group == mh3
    assert rows == reference_rows(space, [4], 3)


def test_planted_wrong_weight_fails():
    # moving one unit of weight between two orbits keeps the sum N^2, yet
    # the partition check and the comparison with the reversal-only engine
    # both refuse it
    space = cycle_space(5)
    lengths = realized_lengths(space, 3)
    orbits = space.integer_view.pair_orbits
    weights = dict(orbits.weights)
    weights[0, 1] -= 1
    weights[0, 2] += 1
    vars(space.integer_view)["pair_orbits"] = replace(orbits, weights=weights)
    with pytest.raises(AssertionError):
        assert_sound_orbits(space)
    with pytest.raises(AssertionError):
        assert block_homology_rows(space, lengths, 3) == reference_rows(space, lengths, 3)


@pytest.mark.parametrize("nodes", [0, 1, 4, 12])
def test_a_spent_node_budget_keeps_sound_orbits(nodes):
    # past the budget the finder keeps the generators it found: the orbits
    # split, but stay sound, and the groups do not change
    spaces = [cycle_space(8), complete_space(5), relabeled(cycle_space(7), 3)] + grids()
    wholes = [len(space.integer_view.pair_orbits.weights) for space in spaces]
    split = 0
    with mock.patch.object(magh.metric, "ISOMETRY_NODES", nodes):
        for space, whole in zip(spaces, wholes):
            fresh = replace(space)
            assert_sound_orbits(fresh)
            more = len(fresh.integer_view.pair_orbits.weights)
            assert more >= whole
            split += more > whole
            lengths = realized_lengths(space, 2)
            assert block_homology_rows(fresh, lengths, 2) == block_homology_rows(
                space, lengths, 2
            )
    assert split


def test_finder_checks_every_map():
    # a map that is no isometry, or no permutation, is refused with its
    # first wrong pair or entry before any orbit is taken
    space = cycle_space(5)
    for bad, witness in (((1, 0, 2, 3, 4), (0, 2)), ((0, 0, 2, 3, 4), (1, None))):
        with mock.patch.object(magh.metric, "_isometry_generators", lambda idist: [bad]):
            with pytest.raises(NotAnIsometry) as exc:
                replace(space).integer_view.pair_orbits
        assert (exc.value.isometry, exc.value.a, exc.value.b) == (bad, *witness)
    assert set_bits(space.integer_view.pair_orbits.ends[0]) == [0, 1, 2]


@pytest.mark.parametrize(
    "build, a, b, c",
    [(lambda: cycle_space(5), 1, 3, 0), (lambda: complete_space(4), 2, 3, 0)],
    ids=["cycle(5)", "complete(4)"],
)
def test_a_corrupted_betweenness_table_is_still_refused(build, a, b, c):
    # count c as strictly between a and b in both directions: the table
    # stays symmetric, and with the whole group's orbits no block the
    # engine reduces meets the fault; the isometries that do not keep the
    # corrupted table are left out, so the engine reduces a block that
    # meets it and refuses it, as the reversal-only engine does
    space = build()
    view = space.integer_view
    whole = len(view.pair_orbits.generators)
    between = [list(row) for row in view.between]
    between[a][b] |= 1 << c
    between[b][a] |= 1 << c
    vars(space)["integer_view"] = replace(view, between=tuple(map(tuple, between)))
    assert len(space.integer_view.pair_orbits.generators) < whole
    with pytest.raises(NotASubcomplex):
        block_homology_rows(space, [1, 2, 3, 4], 3)
