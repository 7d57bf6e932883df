"""Proper chains, smoothness, enumeration, length spectra and the boundary map.

A proper n-chain is a tuple (x_0, ..., x_n) of point indices with
consecutive entries distinct. Its length is the sum of consecutive
distances. The boundary removes one interior point at a time, and only
when that point is strictly smooth: removing it does not change the
length of the chain.

Inside the package a chain is a bare tuple of points and its length the
scaled int of the space's `IntegerView`. `start_blocks` is the one
length-pruned search from a start point: `block_chains` runs it for the
endpoint blocks the engine reduces, only those (a, b) with a <= b, as
chain reversal maps each block onto its reverse, and the frame code for
its subcomplexes, in both directions. `smooth_faces` is the boundary on
tuples. No whole-space table of chains is kept: the public
`enumerate_proper_chains` builds its one degree on each call. `ProperChain`,
with its `Fraction` length, appears only at the public API:
`enumerate_proper_chains`, `boundary` and `boundary_of_sum` wrap the
tuple kernel. `count_step` is the one chain-count dynamic program:
`length_spectra` counts chains per length with it, without building any,
and `verify` places a chain in the d^2 check's order with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import AsymmetricTable, CapNotAnInteger, EnumerationCapExceeded

DEFAULT_CAP = 5_000_000
CAP_ENV_VAR = "MAGH_CAP"


def resolve_cap(cap=None):
    """Effective enumeration cap: explicit argument, else env var, else default.

    Raises CapNotAnInteger if the env var is set to something else.
    """
    if cap is not None:
        return int(cap)
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise CapNotAnInteger(CAP_ENV_VAR, env) from None
    return DEFAULT_CAP


@dataclass(frozen=True)
class ProperChain:
    """A proper chain with its exact length precomputed."""

    points: tuple
    length: Fraction

    def __hash__(self):
        # equal chains have equal points; leaving the Fraction length out of
        # the hash saves most of the cost of keying dicts by chains
        return hash(self.points)

    @property
    def degree(self):
        return len(self.points) - 1

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        body = ",".join(str(p) for p in self.points)
        return f"ProperChain(({body}), l={self.length})"

    @classmethod
    def from_points(cls, space, points):
        pts = tuple(points)
        if not pts:
            raise ValueError("a chain needs at least one point")
        for p in pts:
            if not 0 <= p < space.n:
                raise ValueError(f"point index {p} out of range for n={space.n}")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"chain {pts} is not proper: repeated point {a}")
        return cls(pts, chain_length(space, pts))


def chain_total(space, points):
    """The length of a tuple of points as a scaled int of the IntegerView."""
    idist = space.integer_view.idist
    return sum(idist[a][b] for a, b in zip(points, points[1:]))


def chain_length(space, points):
    """Sum of consecutive distances along the tuple; 0 for a single point."""
    return space.integer_view.fraction(chain_total(space, points))


def is_strictly_smooth(space, a, c, b):
    """True when c sits strictly between a and b on a geodesic.

    Requires c distinct from both endpoints and d(a,b) = d(a,c) + d(c,b),
    all compared exactly; this reads the space's betweenness table.
    """
    return space.integer_view.between[a][b] >> c & 1 == 1


def search_moves(space, longest):
    """Each point's next points with their step, ascending, no step over `longest`.

    `longest` is a length as a scaled int of the space's IntegerView; the
    result is the `moves` argument of `start_blocks`.
    """
    return [
        [(nxt, d) for nxt, d in enumerate(row) if nxt != last and d <= longest]
        for last, row in enumerate(space.integer_view.idist)
    ]


def start_blocks(start, moves, wanted, n_top, steps, limit):
    """The chains from `start` of degree <= n_top with a length in `wanted`.

    One length-pruned search: each chain is extended by every next point
    of `moves` (from `search_moves` with the largest of `wanted`) in
    ascending order, and a prefix is dropped once it is longer than the
    largest wanted length. Returns (blocks, steps). `blocks` maps (total,
    end point) to {degree: chains}, each degree in lexicographic order; a
    degree with no chain is absent. `steps` is the given count plus one
    for the start and one per prefix kept, degree n_top included, and
    EnumerationCapExceeded is raised as soon as it passes `limit`.
    """
    steps += 1
    if steps > limit:
        raise EnumerationCapExceeded(steps, limit)
    longest = max(wanted)
    blocks = {}
    if 0 in wanted:
        blocks[0, start] = {0: [(start,)]}
    level = [((start,), 0)]
    for n in range(1, n_top + 1):
        grown = []
        for pts, total in level:
            for nxt, d in moves[pts[-1]]:
                t = total + d
                if t > longest:
                    continue
                steps += 1
                ch = pts + (nxt,)
                if n < n_top:
                    grown.append((ch, t))
                if t in wanted:
                    blocks.setdefault((t, nxt), {}).setdefault(n, []).append(ch)
            if steps > limit:
                raise EnumerationCapExceeded(steps, limit)
        level = grown
    return blocks, steps


def block_chains(space, totals, n_max, cap=None):
    """The chains of each endpoint block (a, b), a <= b, whose length is in `totals`.

    `totals` holds lengths as scaled ints of the space's IntegerView.
    Yields (total, (a, b), bases) for every endpoint pair (a, b) with
    a <= b joined by a proper chain of degree <= n_max and length
    `total`, by start point a, then total, then b. `bases` maps a degree
    k to the block's chains: every one of them for k <= n_max, in
    lexicographic order, and at k = n_max + 1 only those with a smooth
    face. A degree with no chain is absent.

    The block (total, b, a) is not yielded for a < b: it has the groups of
    (total, a, b), so a caller summing over all blocks counts each a < b
    block twice. Reversal, (x_0, ..., x_n) -> (x_n, ..., x_0), maps the
    chains of one block one to one onto those of the other, and as d and
    the betweenness table are symmetric it keeps each chain's length and
    smooth points and sends the face that drops x_i to the face that
    drops x_{n-i}. The signs (-1)^i and (-1)^(n-i) differ by (-1)^n, so
    reversal times the sign e_n = (-1)^n e_{n-1} in degree n is an
    isomorphism of chain complexes, torsion included, and it maps the top
    chains with a smooth face onto each other. Both tables are checked
    for symmetry once per call, after the last block, so an error a
    corrupted table causes inside a block is reported first with its
    chain; an asymmetric one raises AsymmetricTable, under `python -O`
    too.

    Degrees 0..n_max come from `start_blocks`, one search per start
    point; the blocks it gives that end below their start are dropped
    before any insertion. Degree n_max + 1 is built by insertion: a point
    c strictly between x_{i-1} and x_i of a degree-n_max chain x of the
    block is inserted at position i, and the result is kept only if i is
    its first smooth position. Removing that point gives x back, so every top chain with
    a smooth face is made exactly once; one without a face changes only
    H_{n_max + 1} and is never built.

    Steps counted against the cap (`resolve_cap`): those of the searches,
    that is every proper chain of degree <= n_max no longer than the
    largest total, degree 0 included, and every insertion kept into a
    block with a <= b. EnumerationCapExceeded is raised as soon as the
    steps pass the cap.
    """
    wanted = set(totals)
    if n_max < 0 or not wanted:
        return
    limit = resolve_cap(cap)
    view = space.integer_view
    between = view.between
    size = space.n
    moves = search_moves(space, max(wanted))
    inner = [[view.between_points(a, b) for b in range(size)] for a in range(size)]
    steps = 0
    for start in range(size):
        blocks, steps = start_blocks(start, moves, wanted, n_max, steps, limit)
        for key in sorted(blocks):
            bases = blocks.pop(key)
            if key[1] < start:
                continue
            made = []
            for pts in bases.get(n_max, ()):
                # a point inserted after the first smooth point x_j lies
                # between x_j and x_{j+1}, so x_j stays smooth: only
                # positions up to j can become the first smooth one
                last = n_max
                for j in range(1, n_max):
                    if between[pts[j - 1]][pts[j + 1]] >> pts[j] & 1:
                        last = j
                        break
                count = len(made)
                for i in range(1, last + 1):
                    left = pts[i - 1]
                    for c in inner[left][pts[i]]:
                        # x_{i-1} must not turn smooth between x_{i-2} and c
                        if i > 1 and between[pts[i - 2]][c] >> left & 1:
                            continue
                        made.append(pts[:i] + (c,) + pts[i:])
                steps += len(made) - count
                if steps > limit:
                    raise EnumerationCapExceeded(steps, limit)
            if made:
                bases[n_max + 1] = made
            yield key[0], (start, key[1]), bases
    for table in ("idist", "between"):
        rows = getattr(view, table)
        for a in range(size):
            for b in range(a):
                if rows[a][b] != rows[b][a]:
                    raise AsymmetricTable(table, b, a)


def enumerate_proper_chains(space, n, cap=None):
    """Map from exact length to the list of proper n-chains of that length.

    Keys ascend; each list is in lexicographic order. Raises
    EnumerationCapExceeded before doing any work if N*(N-1)^n, the number
    of chains, exceeds the cap (`resolve_cap`). Degree k + 1 extends each
    chain of degree k, in their lexicographic order, by every next point
    in ascending order, so each bucket comes out lexicographic without a
    sort. Nothing is cached: every call builds its chains anew.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    size = space.n
    count = size * (size - 1) ** n
    limit = resolve_cap(cap)
    if count > limit:
        raise EnumerationCapExceeded(count, limit)
    view = space.integer_view
    # no step is over the largest distance, so every point moves everywhere
    moves = search_moves(space, max(map(max, view.idist)))
    level = [((p,), 0) for p in range(size)]
    for _ in range(n):
        level = [(pts + (nxt,), total + d) for pts, total in level for nxt, d in moves[pts[-1]]]
    buckets = {}
    for pts, total in level:
        buckets.setdefault(total, []).append(pts)
    out = {}
    for total in sorted(buckets):
        l = view.fraction(total)
        out[l] = [ProperChain(pts, l) for pts in buckets[total]]
    return out


@dataclass(frozen=True)
class LengthSpectrum:
    """The lengths realized by proper chains of one degree, ascending.

    `counts[i]` is the number of chains of length `lengths[i]`.
    """

    degree: int
    lengths: tuple
    counts: tuple


def count_step(idist, states):
    """One degree of the chain-count dynamic program.

    `states[x]` maps a length t, a scaled int, to the number of proper
    k-chains ending at x with length t; the result is the same for k + 1,
    each chain extended by every next point. As d is symmetric, reversal
    makes it also the count of the chains starting at x.
    """
    size = len(states)
    grown = [{} for _ in range(size)]
    for last, (row, by_total) in enumerate(zip(idist, states)):
        for nxt in range(size):
            if nxt == last:
                continue
            target = grown[nxt]
            d = row[nxt]
            for total, count in by_total.items():
                key = total + d
                target[key] = target.get(key, 0) + count
    return grown


def length_spectra(space, n_max, cap=None):
    """The LengthSpectrum of every degree 0..n_max (none if n_max < 0).

    A dynamic-programming count over (last point, int length) that builds
    no chain, one `count_step` per degree. Each (state, next point)
    transition is one step against the cap (`resolve_cap`); before each
    degree is counted, EnumerationCapExceeded is raised if the steps so far
    would pass it.
    """
    limit = resolve_cap(cap)
    view = space.integer_view
    size = space.n
    states = [{0: 1} for _ in range(size)]
    steps = 0
    out = []
    for n in range(n_max + 1):
        if n:
            steps += sum(len(s) for s in states) * (size - 1)
            if steps > limit:
                raise EnumerationCapExceeded(steps, limit)
            states = count_step(view.idist, states)
        counts = {}
        for by_total in states:
            for total, count in by_total.items():
                counts[total] = counts.get(total, 0) + count
        keys = sorted(counts)
        out.append(
            LengthSpectrum(
                degree=n,
                lengths=tuple(view.fraction(t) for t in keys),
                counts=tuple(counts[t] for t in keys),
            )
        )
    return out


def length_spectrum(space, n, cap=None):
    """The LengthSpectrum of degree n; the cap counts as in `length_spectra`."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return length_spectra(space, n, cap)[n]


def smooth_faces(between, pts):
    """The boundary of a proper chain of points, as [(face, sign)].

    `between` is the space's betweenness table. Interior point x_i is
    removed with sign (-1)^i, and only when it is strictly smooth in
    (x_{i-1}, x_i, x_{i+1}). Faces of one proper chain are distinct
    proper chains of the same length, in order of the removed index.
    """
    faces = []
    if len(pts) < 3:
        return faces
    i = 1
    a, c = pts[0], pts[1]
    for b in pts[2:]:
        # (a, c, b) = (x_{i-1}, x_i, x_{i+1})
        if between[a][b] >> c & 1:
            faces.append((pts[:i] + pts[i + 1 :], -1 if i % 2 else 1))
        a, c = c, b
        i += 1
    return faces


def boundary(space, chain):
    """Boundary of a proper chain, as a map term -> integer coefficient.

    Interior point x_i is removed with sign (-1)^i, and only when it is
    strictly smooth in (x_{i-1}, x_i, x_{i+1}). Endpoints are never removed,
    so degree <= 1 chains have zero boundary. Every emitted term is again
    proper and has the same length.
    """
    # removing x_i and x_j, i < j, gives one tuple only if x_i = ... = x_j,
    # which no proper chain has, so no two faces merge; and a smooth point
    # never sits between a point and itself (checked when the betweenness
    # table is built), so faces are proper
    return {
        ProperChain(face, chain.length): sign
        for face, sign in smooth_faces(space.integer_view.between, chain.points)
    }


def boundary_of_sum(space, combo):
    """Extend the boundary linearly to a formal sum {chain: coeff}."""
    out = {}
    for chain, coeff in combo.items():
        if not coeff:
            continue
        for term, sign in boundary(space, chain).items():
            new = out.get(term, 0) + coeff * sign
            if new:
                out[term] = new
            else:
                del out[term]
    return out
