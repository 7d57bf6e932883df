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
pruned at the grading, and grown in full up to the top degree. Each
endpoint block's chains split by frame in one place (`_split_by_frame`),
which every route here goes through.

`frame_table` is the frame side of `verify`. It holds, per top degree,
the nonzero homology of every frame piece of the endpoint blocks asked
for so far, on the space's `IntegerView.frame_groups`, and no chains.
A block it lacks is searched once per start point, over every total
that start still lacks; only the blocks asked for are split, and each
piece is reduced once. A block already held costs no search and no cap
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import HomologyGroup, complex_from_bases
from .chains import (
    ProperChain,
    chain_total,
    resolve_cap,
    search_moves,
    smooth_faces,
    start_blocks,
)
from .errors import ImproperFrame, NotASubcomplex
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


def _frame_and_total(view, pts):
    """The frame of a tuple of points and the frame's length as a scaled int."""
    between = view.between
    idist = view.idist
    keep = [pts[0]]
    total = 0
    for prev, x, nxt in zip(pts, pts[1:], pts[2:]):
        if not between[prev][nxt] >> x & 1:
            total += idist[keep[-1]][x]
            keep.append(x)
    if len(pts) > 1:
        total += idist[keep[-1]][pts[-1]]
        keep.append(pts[-1])
    return tuple(keep), total


def frame(space, chain):
    """The subtuple of singular points of a proper chain.

    For a geodesically simple chain the frame is itself a proper chain with
    the same endpoints. Without simplicity the subtuple can fail properness
    (adjacent equal entries), so this returns a bare tuple and properness
    is only checked where the decomposition relies on it (ImproperFrame).
    """
    pts = chain.points if isinstance(chain, ProperChain) else tuple(chain)
    return _frame_and_total(space.integer_view, pts)[0]


def is_geodesically_simple(space, chain):
    """True when the chain's length equals its frame's length."""
    if not isinstance(chain, ProperChain):
        chain = ProperChain.from_points(space, chain)
    pts = chain.points
    return _frame_and_total(space.integer_view, pts)[1] == chain_total(space, pts)


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


def _split_by_frame(view, total, bases):
    """The geodesically simple chains of one endpoint block, by frame.

    `bases` maps a degree to the block's chains of length `total`; the
    result maps each frame as long as its chains to {degree: chains},
    degrees ascending and each in the order given. A simple chain whose
    frame is not proper raises ImproperFrame.
    """
    partition = {}
    for n in sorted(bases):
        for pts in bases[n]:
            f, t = _frame_and_total(view, pts)
            if t != total:
                continue
            if any(a == b for a, b in zip(f, f[1:])):
                raise ImproperFrame(pts, f)
            partition.setdefault(f, {}).setdefault(n, []).append(pts)
    return partition


def _simple_tuples_by_frame(space, l, n_top, cap):
    """`simple_chains_by_frame` with chains as point tuples."""
    view = space.integer_view
    total = view.scaled(l)
    partition = {}
    # degree-0 chains, the only ones of length 0, carry no frame
    if total is None or total <= 0:
        return partition
    for blocks in _searches(space, range(space.n), total, n_top, cap):
        for key in sorted(blocks):
            partition.update(_split_by_frame(view, total, blocks[key]))
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
    degree is split out of every chain from f[0] to f[-1] of the frame's
    length, found by the length-pruned search from f[0], and
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
    split = _split_by_frame(space.integer_view, total, blocks.get((total, f[-1]), {}))
    by_degree = split.get(f, {})
    bases = {n: by_degree.get(n, []) for n in range(lo, n_top + 1)}
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


_Z = HomologyGroup(1)


def _piece_groups(space, by_degree):
    """The nonzero homology of one frame piece, {degree: group}.

    The piece spans the chains of `by_degree` over the degrees where it has
    any. Its homology at the degrees outside is zero, and so is every
    degree of the frame subcomplex below its first chain. A piece of one
    chain, such as a frame that no insertion keeps at its length, is Z at
    that chain's degree and builds no complex; the chain's boundary must
    vanish, as at the bottom of any complex (NotASubcomplex otherwise).
    """
    if len(by_degree) == 1:
        [(n, chains)] = by_degree.items()
        if len(chains) == 1:
            pts = chains[0]
            if smooth_faces(space.integer_view.between, pts):
                raise NotASubcomplex(f"chain {pts} at bottom degree {n} has nonzero boundary")
            return {n: _Z}
    cx = complex_from_bases(space, by_degree, min(by_degree), max(by_degree))
    groups = {}
    for n in cx.degrees():
        group = cx.homology(n)
        if not group.is_trivial():
            groups[n] = group
    return groups


def frame_table(space, blocks, n_top, cap=None):
    """The homology of every frame piece of the given endpoint blocks.

    `blocks` lists endpoint blocks (total, a, b): the chains from a to b
    whose length, as a scaled int, is `total` > 0. Returns {block: {frame:
    {degree: group}}} for those blocks, where a frame's groups are the
    nonzero ones of `frame_subcomplex(space, frame, n_top)` and a block
    lists every frame of its geodesically simple chains of degree <=
    n_top.

    Kept per space and n_top in `IntegerView.frame_groups`, groups only.
    For the blocks not held yet, each start point is searched once over
    every total it lacks (`chains.start_blocks`), those blocks alone are
    split by frame, and each piece is reduced once. The steps of all those
    searches count against one cap (`resolve_cap`); a held block costs
    none.
    """
    view = space.integer_view
    held = view.frame_groups.setdefault(n_top, {})
    lacking = {}
    for key in blocks:
        if key not in held:
            total, a, b = key
            lacking.setdefault(a, {}).setdefault(total, set()).add(b)
    if lacking:
        limit = resolve_cap(cap)
        moves = search_moves(space, max(max(totals) for totals in lacking.values()))
        steps = 0
        for start in sorted(lacking):
            ends_of = lacking[start]
            found, steps = start_blocks(start, moves, set(ends_of), n_top, steps, limit)
            for total in sorted(ends_of):
                for end in sorted(ends_of[total]):
                    split = _split_by_frame(view, total, found.get((total, end), {}))
                    held[total, start, end] = {
                        f: _piece_groups(space, split[f]) for f in sorted(split)
                    }
    return {key: held[key] for key in blocks}


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
