"""Proper chains, smoothness, enumeration, and the boundary map.

A proper n-chain is a tuple (x_0, ..., x_n) of point indices with
consecutive entries distinct. Its length is the sum of consecutive
distances. The boundary removes one interior point at a time, and only
when that point is strictly smooth: removing it does not change the
length of the chain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import EnumerationCapExceeded

DEFAULT_CAP = 5_000_000
CAP_ENV_VAR = "MAGH_CAP"


def resolve_cap(cap=None):
    """Effective enumeration cap: explicit argument, else env var, else default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        return int(env)
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


def chain_length(space, points):
    """Sum of consecutive distances along the tuple; 0 for a single point."""
    view = space.integer_view
    idist = view.idist
    total = 0
    for a, b in zip(points, points[1:]):
        total += idist[a][b]
    return view.fraction(total)


def is_strictly_smooth(space, a, c, b):
    """True when c sits strictly between a and b on a geodesic.

    Requires c distinct from both endpoints and d(a,b) = d(a,c) + d(c,b),
    all compared exactly; this reads the space's betweenness table.
    """
    return space.integer_view.between[a][b] >> c & 1 == 1


@lru_cache(maxsize=256)
def _buckets(space, n, cap):
    """All proper n-chains of a space, bucketed by exact length.

    DFS in ascending point order, so each bucket comes out in lexicographic
    order without an extra sort. Lengths are summed as scaled ints; each
    bucket gets one Fraction key, shared by its chains. Cached by value:
    spaces are immutable and hash by their distance matrices.
    """
    size = space.n
    count = size * (size - 1) ** n if n >= 0 else 0
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    view = space.integer_view
    idist = view.idist
    buckets = {}

    def extend(prefix, length, remaining):
        if remaining == 0:
            buckets.setdefault(length, []).append(tuple(prefix))
            return
        last = prefix[-1]
        row = idist[last]
        for nxt in range(size):
            if nxt != last:
                prefix.append(nxt)
                extend(prefix, length + row[nxt], remaining - 1)
                prefix.pop()

    for start in range(size):
        extend([start], 0, n)
    out = {}
    for total in sorted(buckets):
        l = view.fraction(total)
        out[l] = tuple(ProperChain(pts, l) for pts in buckets[total])
    return out


def enumerate_proper_chains(space, n, cap=None):
    """Map from exact length to the list of proper n-chains of that length.

    Keys ascend; each list is in lexicographic order. Raises
    EnumerationCapExceeded before doing any work if N*(N-1)^n exceeds the
    cap (default 5e6, override via argument or the MAGH_CAP variable).
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    cached = _buckets(space, n, resolve_cap(cap))
    return {l: list(chains) for l, chains in cached.items()}


@dataclass(frozen=True)
class LengthSpectrum:
    """The set of lengths realized by proper chains of one degree."""

    degree: int
    lengths: tuple


def length_spectrum(space, n, cap=None):
    buckets = enumerate_proper_chains(space, n, cap)
    return LengthSpectrum(degree=n, lengths=tuple(sorted(buckets)))


def boundary(space, chain):
    """Boundary of a proper chain, as a map term -> integer coefficient.

    Interior point x_i is removed with sign (-1)^i, and only when it is
    strictly smooth in (x_{i-1}, x_i, x_{i+1}). Endpoints are never removed,
    so degree <= 1 chains have zero boundary. Every emitted term is again
    proper and has the same length.
    """
    between = space.integer_view.between
    pts = chain.points
    terms = {}
    for i in range(1, len(pts) - 1):
        # a smooth point never sits between a point and itself (checked when
        # the table is built), so the face is again proper
        if not between[pts[i - 1]][pts[i + 1]] >> pts[i] & 1:
            continue
        face = pts[:i] + pts[i + 1 :]
        sign = -1 if i % 2 else 1
        term = ProperChain(face, chain.length)
        new = terms.get(term, 0) + sign
        if new:
            terms[term] = new
        else:
            del terms[term]
    return terms


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
