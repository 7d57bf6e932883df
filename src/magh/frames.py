"""Frames, geodesically simple chains, four-cuts, and the invariant m_X.

The frame of a proper chain keeps the endpoints and every interior point
that is NOT strictly smooth between its neighbors. A chain is geodesically
simple when it has the same length as its frame. For each length grading,
the geodesically simple chains split by frame into subcomplexes whose
direct sum computes magnitude homology below the threshold m_X, the
minimum length of a four-cut.

A frame subcomplex's chains come from `chains.start_blocks`, the
length-pruned search the endpoint-block engine runs too: rooted at the
frame's first point for one frame, at every point for a whole grading,
pruned at the grading, and grown in full up to the top degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import complex_from_bases
from .chains import (
    ProperChain,
    chain_length,
    chain_total,
    resolve_cap,
    search_moves,
    start_blocks,
)
from .errors import ImproperFrame
from .metric import format_rational


def singular_positions(space, points):
    """Indices into the chain that survive into the frame."""
    between = space.integer_view.between
    keep = [0]
    for i in range(1, len(points) - 1):
        if not between[points[i - 1]][points[i + 1]] >> points[i] & 1:
            keep.append(i)
    if len(points) > 1:
        keep.append(len(points) - 1)
    return tuple(keep)


def frame(space, chain):
    """The subtuple of singular points of a proper chain.

    For a geodesically simple chain the frame is itself a proper chain with
    the same endpoints. Without simplicity the subtuple can fail properness
    (adjacent equal entries), so this returns a bare tuple and properness
    is only checked where the decomposition relies on it (ImproperFrame).
    """
    pts = chain.points if isinstance(chain, ProperChain) else tuple(chain)
    return tuple(pts[i] for i in singular_positions(space, pts))


def is_geodesically_simple(space, chain):
    """True when the chain's length equals its frame's length."""
    if not isinstance(chain, ProperChain):
        chain = ProperChain.from_points(space, chain)
    return chain_length(space, frame(space, chain)) == chain.length


def is_frame(space, points):
    """True when the tuple is a proper chain equal to its own frame.

    Exactly these tuples appear as frames of geodesically simple chains,
    and only for them does the frame subcomplex have the chain itself as
    bottom generator.
    """
    pts = tuple(points)
    if len(pts) < 2:
        return False
    if any(a == b for a, b in zip(pts, pts[1:])):
        return False
    return frame(space, pts) == pts


def is_realized_frame(space, points):
    """True when inserting interval points into segments preserves the frame.

    The tuple must equal its own frame, and no interior frame point may be
    smoothable by insertions: for a junction x_i, no pair (L, R), with L
    the frame point x_{i-1} or any point strictly between x_{i-1} and x_i,
    and R likewise on the other side, may satisfy d(L, R) = d(L, x_i) +
    d(x_i, R). Under exactly this condition the geodesically simple chains
    with frame F are all ascending-chain insertions into F, which is what
    the interval-poset tensor model counts. A junction of length >= m_X
    can be smoothable: on the 6-cycle, inserting 2 after the 1 in frame
    (0, 1, 4) smooths the 1, and the two homology routes genuinely
    disagree at degree 3. Pair frames have no junctions and always
    qualify.
    """
    pts = tuple(points)
    if not is_frame(space, pts):
        return False
    view = space.integer_view
    between = view.between
    for i in range(1, len(pts) - 1):
        xi = pts[i]
        left = (pts[i - 1],) + view.between_points(pts[i - 1], xi)
        right = (pts[i + 1],) + view.between_points(xi, pts[i + 1])
        for lpt in left:
            for rpt in right:
                if lpt == pts[i - 1] and rpt == pts[i + 1]:
                    continue
                if between[lpt][rpt] >> xi & 1:
                    return False
    return True


def _searches(space, starts, total, n_top, cap):
    """Yield the blocks of `chains.start_blocks` from each point of `starts`.

    The one wanted length is `total`, a scaled int, so each is
    {(total, end): {degree: chains}} for degrees 0..n_top, each degree in
    lexicographic order. The steps of all starts count against one cap
    (`resolve_cap`).
    """
    limit = resolve_cap(cap)
    moves = search_moves(space, total)
    steps = 0
    for start in starts:
        blocks, steps = start_blocks(start, moves, {total}, n_top, steps, limit)
        yield blocks


def _simple_tuples_by_frame(space, l, n_top, cap):
    """`simple_chains_by_frame` with chains as point tuples."""
    total = space.integer_view.scaled(l)
    partition = {}
    # degree-0 chains, the only ones of length 0, carry no frame
    if total is None or total <= 0:
        return partition
    for blocks in _searches(space, range(space.n), total, n_top, cap):
        for key in sorted(blocks):
            for n, chains in blocks[key].items():
                for pts in chains:
                    f = frame(space, pts)
                    if chain_total(space, f) != total:
                        continue
                    if any(a == b for a, b in zip(f, f[1:])):
                        raise ImproperFrame(pts, f)
                    partition.setdefault(f, {}).setdefault(n, []).append(pts)
    return {f: partition[f] for f in sorted(partition)}


def simple_chains_by_frame(space, l, n_top, cap=None):
    """Geodesically simple chains of length l, keyed by frame then degree.

    Degrees run 1..n_top; degree-0 chains carry no frame data and are
    excluded. Keys are sorted lexicographically, bases lexicographically
    within each degree. The chains come from one length-pruned search per
    start point, and the cap counts its steps: every proper chain of degree
    <= n_top no longer than l, degree 0 included.
    """
    l = Fraction(l)
    return {
        f: {n: [ProperChain(pts, l) for pts in basis] for n, basis in by_degree.items()}
        for f, by_degree in _simple_tuples_by_frame(space, l, n_top, cap).items()
    }


def frame_subcomplex(space, f, n_top, cap=None):
    """The subcomplex of geodesically simple chains with the given frame.

    Degrees run from the frame's own degree up to n_top. The basis at each
    degree is filtered out of every chain from f[0] to f[-1] of the
    frame's length, found by the length-pruned search from f[0], and
    independently of any structure theory about where inserted points may
    sit. The cap counts the search's steps: every proper chain from f[0]
    of degree <= n_top no longer than the frame, degree 0 included.
    """
    f = tuple(f)
    lo = len(f) - 1
    if lo < 1:
        raise ValueError(f"a frame needs at least two points, got {f}")
    if n_top < lo:
        raise ValueError(f"n_top {n_top} below frame degree {lo}")
    total = chain_total(space, f)
    [blocks] = _searches(space, f[:1], total, n_top, cap)
    found = blocks.get((total, f[-1]), {})
    bases = {
        n: [pts for pts in found.get(n, ()) if frame(space, pts) == f]
        for n in range(lo, n_top + 1)
    }
    return complex_from_bases(space, bases, lo, n_top)


def simp_decomposition(space, l, n_top, cap=None):
    """All frame subcomplexes of one length grading, keyed by frame.

    The bases partition the geodesically simple chains of length l with
    degrees 1..n_top. For l = 0 there are no positive-degree chains and the
    map is empty.
    """
    l = Fraction(l)
    if l <= 0:
        return {}
    out = {}
    for f, by_degree in _simple_tuples_by_frame(space, l, n_top, cap).items():
        lo = len(f) - 1
        out[f] = complex_from_bases(space, by_degree, lo, n_top)
    return out


@dataclass(frozen=True)
class FourCut:
    """A proper 3-chain whose frame is just its endpoints, cut short.

    Both interior points are strictly smooth, yet d(x_0, x_3) is strictly
    less than the chain's length: the two geodesic segments do not
    concatenate to a geodesic.
    """

    points: tuple
    length: Fraction

    def to_json_dict(self):
        return {"points": list(self.points), "length": format_rational(self.length)}


def four_cuts(space):
    """All four-cuts, sorted by (length, points)."""
    view = space.integer_view
    idist = view.idist
    between = view.between
    n = space.n
    found = []
    for x0 in range(n):
        for x2 in range(n):
            base = idist[x0][x2]
            for x1 in view.between_points(x0, x2):
                row1 = between[x1]
                for x3 in range(n):
                    if not row1[x3] >> x2 & 1:
                        continue
                    total = base + idist[x2][x3]
                    if idist[x0][x3] < total:
                        found.append((total, (x0, x1, x2, x3)))
    # cuts of one length share one Fraction; the list is converted in place
    # so the int pairs are freed as the cuts are built
    found.sort()
    lengths = {}
    for i, (total, points) in enumerate(found):
        if total not in lengths:
            lengths[total] = view.fraction(total)
        found[i] = FourCut(points, lengths[total])
    return found


@dataclass(frozen=True)
class MxResult:
    """The invariant m_X: minimum four-cut length, or None for +infinity."""

    value: object
    witness: object

    @property
    def is_infinite(self):
        return self.value is None

    def to_json_dict(self):
        return {
            "m_x": "inf" if self.value is None else format_rational(self.value),
            "witness": None if self.witness is None else list(self.witness),
        }


def m_x(space):
    """Minimum length of a four-cut, with a lexicographically-first witness.

    Spaces without four-cuts (trees, complete graphs, ...) get value None,
    an explicit infinity: the frame decomposition then computes magnitude
    homology at every positive grading.
    """
    cuts = four_cuts(space)
    if not cuts:
        return MxResult(None, None)
    first = cuts[0]
    return MxResult(first.length, first.points)
