"""Frames, geodesically simple chains, four-cuts, and the invariant m_X.

The frame of a proper chain keeps the endpoints and every interior point
that is NOT strictly smooth between its neighbors. A chain is geodesically
simple when it has the same length as its frame. For each length grading,
the geodesically simple chains split by frame into subcomplexes whose
direct sum computes magnitude homology below the threshold m_X, the
minimum length of a four-cut.

A frame subcomplex's chains come from one search, `_frame_search`, that
keeps only geodesically simple chains. Each prefix carries its frame head,
the kept points before its last one, so the frame of every chain is known
as it is built, and a prefix is dropped once it is longer than its frame:
that gap never shrinks as the chain grows, so no simple chain is lost. A
prefix whose head starts no frame asked for is dropped too.
The points a frame drops are exactly the strictly smooth ones, so each
chain is filed as a record (points, mask) with those positions as its
mask, under its frame, and reduced by the engine's own assembly without
testing any point again. `frame_pieces` is this chain-level frame route,
which `verify`'s `tensor_route` check compares with the interval-poset
route of `posets`, the one `compute` prints below m_X. Nothing of it is
kept on the space.

A frame is realized when no insertion can smooth one of its junctions.
That is one bit mask per junction (prev, x), `_junction_mask`: the OR of
the up-masks of x in the start orders P_L (`IntegerView.start_order`,
the transposed betweenness rows) over L = prev and the points between
prev and x, tested against nxt and the points between x and nxt.
`is_realized_frame` makes that test at each junction, and `verify`
grows its realized frames with one mask per (prev, last).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import HomologyGroup, _blocks_homology
from .chains import chain_total, resolve_cap, search_moves
from .errors import EnumerationCapExceeded, ImproperFrame, NotASubcomplex
from .metric import format_rational, set_bits


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
    """The subtuple of singular points of a proper chain, a tuple of points.

    For a geodesically simple chain the frame is itself a proper chain with
    the same endpoints. Without simplicity the subtuple can fail properness
    (adjacent equal entries), so this returns a bare tuple and properness
    is only checked where the decomposition relies on it (ImproperFrame).
    """
    return _frame_and_total(space.integer_view, tuple(chain))[0]


def is_geodesically_simple(space, chain):
    """True when the proper chain, a tuple of points, is as long as its frame.

    A tuple that is empty, names a point outside the space or repeats a
    point in two adjacent places is no proper chain: ValueError.
    """
    pts = tuple(chain)
    if not pts:
        raise ValueError("a chain needs at least one point")
    for p in pts:
        if not 0 <= p < space.n:
            raise ValueError(f"point index {p} out of range for n={space.n}")
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise ValueError(f"chain {pts} is not proper: repeated point {a}")
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


def _junction_mask(view, prev, x):
    """The points R that smooth x after `prev` by insertions, as a bit mask.

    The OR of `up_L[x]` over L in {prev} and the points strictly between
    prev and x, `up_L` being the up-masks of the start order P_L
    (`IntegerView.start_order`): bit R is set iff x lies strictly between
    some such L and R. So the junction (prev, x, nxt) is realized iff no
    bit of the mask is nxt or a point strictly between x and nxt; with
    L = prev and R = nxt that includes the test that x is not strictly
    smooth. This reads the table as it is, with no symmetry assumed.
    """
    bad = 0
    for lpt in set_bits(view.between[prev][x] | 1 << prev):
        bad |= view.start_order(lpt)[0][x]
    return bad


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

    The tuple must be proper, and then each junction is one test of its
    mask (`_junction_mask`): the pair (L, R) = (x_{i-1}, x_{i+1}) is the
    test that x_i is not strictly smooth, so the tuple is its own frame
    exactly when that pair fails at every junction.
    """
    pts = tuple(points)
    if len(pts) < 2 or any(a == b for a, b in zip(pts, pts[1:])):
        return False
    view = space.integer_view
    between = view.between
    for prev, xi, nxt in zip(pts, pts[1:], pts[2:]):
        if _junction_mask(view, prev, xi) & (between[xi][nxt] | 1 << nxt):
            return False
    return True


def _frame_search(view, start, moves, wanted, heads, n_top, steps, limit):
    """The geodesically simple chains from `start` of degrees 1..n_top with a
    length in `wanted` and a frame that `heads` can start, by frame.

    Each chain is extended by every next point of `moves` (from
    `chains.search_moves`) in ascending order. A prefix carries its head,
    the kept points before its last one, and the head's length; extending
    it by `nxt` settles only whether the old last point x is kept, which
    it is unless x is strictly smooth between its neighbors. A kept x
    leaves the prefix exactly as long as its frame, and a dropped x leaves
    it longer unless d(head end, nxt) = d(head end, x) + d(x, nxt), by
    the triangle inequality; a prefix longer than its frame, or than the
    largest of `wanted`, is dropped, as no extension of it is simple, and
    so is a prefix whose head is not in the set `heads`. A prefix also
    carries the mask of its dropped positions, bit i set iff x_i is
    strictly smooth: the test that drops x sets its bit, so each chain's
    mask is made with it. A chain of degree n_top with a zero mask is
    counted but not filed: it is its own frame and only a free generator
    at n_top. Returns (found, steps): `found` maps each frame, in the
    order its first chain was met, to {degree: records}, a record being
    (points, mask), degrees ascending and each in lexicographic order.
    `steps` is the given count plus one for the start and one per prefix
    kept, and EnumerationCapExceeded is raised as soon as it passes
    `limit`.
    """
    steps += 1
    if steps > limit:
        raise EnumerationCapExceeded(steps, limit)
    between = view.between
    idist = view.idist
    longest = max(wanted)
    found = {}
    level = [((start,), 0, (), 0, 0)]
    for n in range(1, n_top + 1):
        bit = 1 << n - 1
        top = n == n_top
        grown = []
        for pts, total, head, head_total, mask in level:
            x = pts[-1]
            # no point lies strictly between the start and another, so
            # reading prev = x keeps the start
            prev = pts[-2] if n > 1 else x
            for nxt, d in moves[x]:
                t = total + d
                if t > longest:
                    continue
                if between[prev][nxt] >> x & 1:
                    # x is strictly smooth: the frame becomes head + (nxt,)
                    if t != head_total + idist[head[-1]][nxt]:
                        continue
                    kept, kept_total = head, head_total
                    dropped = mask | bit
                else:
                    # x is kept; the prefix was as long as its frame, so the
                    # head, now ending at x, is as long as the prefix
                    kept = head + (x,)
                    kept_total = total
                    dropped = mask
                    if kept not in heads:
                        continue
                steps += 1
                ch = pts + (nxt,)
                if not top:
                    grown.append((ch, t, kept, kept_total, dropped))
                if t in wanted and (dropped or not top):
                    # a chain that drops nothing is its own frame
                    f = kept + (nxt,) if dropped else ch
                    found.setdefault(f, {}).setdefault(n, []).append((ch, dropped))
            if steps > limit:
                raise EnumerationCapExceeded(steps, limit)
        level = grown
    return found, steps


def _frame_splits(space, frames, n_top, cap):
    """Yield, per start point of `frames` in ascending order, the list
    [(frame, by_degree), ...] of its frames of `frames` with a filed chain.

    Each start point is searched once (`_frame_search`) over the lengths
    of its frames, read off `idist` as the frames are grouped by start,
    for the prefixes whose head starts one of them;
    `by_degree` is as the search files it, so a frame of degree n_top is
    not listed. Every frame the search meets is checked for properness
    before the list is yielded: a simple chain whose frame is not proper
    raises ImproperFrame. The steps of all the searches count against one
    cap (`resolve_cap`).
    """
    view = space.integer_view
    idist = view.idist
    wanted = {}
    for f in frames:
        totals, wanted_frames = wanted.setdefault(f[0], (set(), set()))
        totals.add(sum(idist[a][b] for a, b in zip(f, f[1:])))
        wanted_frames.add(f)
    if not wanted:
        return
    limit = resolve_cap(cap)
    moves = search_moves(space, max(max(totals) for totals, _ in wanted.values()))
    steps = 0
    for start in sorted(wanted):
        totals, wanted_frames = wanted[start]
        heads = {f[:k] for f in wanted_frames for k in range(1, len(f))}
        found, steps = _frame_search(view, start, moves, totals, heads, n_top, steps, limit)
        for f, by_degree in found.items():
            a = f[0]
            for b in f[1:]:
                if a == b:
                    raise ImproperFrame(by_degree[min(by_degree)][0][0], f)
                a = b
        yield [(f, by_degree) for f, by_degree in found.items() if f in wanted_frames]


def _single_row(by_degree):
    """The groups of a single-row piece, {degree: group}, or None.

    A single-row piece has one chain at its bottom degree lo, the frame,
    with no smooth point, and above it only k >= 0 chains of degree
    lo + 1 with exactly one smooth point each, whose removal gives the
    frame: one-point insertions. Its boundary is a 1 x k row of +-1, so
    its homology is Z at lo for k = 0, zero for k = 1, and Z^(k-1) at
    lo + 1 for k >= 2, with no assembly and no `snf`. A lone chain with
    a smooth point raises NotASubcomplex, as at a complex's bottom; any
    other piece that fits no part of the rule gives None, so the
    assembly meets it and raises what it raises.
    """
    lo = min(by_degree)
    bottom = by_degree[lo]
    if len(bottom) != 1 or len(by_degree) > 2:
        return None
    [(base, mask)] = bottom
    if len(by_degree) == 1:
        if mask:
            raise NotASubcomplex(f"chain {base} at bottom degree {lo} has nonzero boundary")
        return {lo: HomologyGroup(1)}
    above = by_degree.get(lo + 1)
    if mask or not above:
        return None
    for pts, bits in above:
        i = bits.bit_length() - 1
        if not bits or bits & bits - 1 or pts[:i] + pts[i + 1 :] != base:
            return None
    betti = len(above) - 1
    return {lo + 1: HomologyGroup(betti)} if betti else {}


def frame_pieces(space, frames, n_top, cap=None):
    """The homology of the frame piece of each given frame, in fresh dicts.

    Returns {frame: {degree: group}}, the nonzero groups of the frame's
    subcomplex, the geodesically simple chains of degree <= n_top with
    that frame. No chain of degree n_top without a smooth point is filed:
    such a chain is the only chain of its frame and only adds a free
    generator at n_top, so a frame of degree n_top has no group, and
    neither has a frame with no simple chain.

    Per start point (`_frame_splits`), single-row pieces are read off
    `_single_row` and the rest go to one `algebra._blocks_homology` call:
    d^2 = 0 checked on every piece before any is reduced, and `snf` on
    each piece's own boundary. Every call searches anew and counts its
    steps against the cap, the chains not filed included.
    """
    frames = [tuple(f) for f in frames]
    pieces = {}
    for new in _frame_splits(space, frames, n_top, cap):
        assembled = []
        for f, by_degree in new:
            groups = _single_row(by_degree)
            if groups is None:
                assembled.append((f, by_degree))
            else:
                pieces[f] = groups
        if assembled:
            homology = _blocks_homology([by_degree for _, by_degree in assembled])
            for (f, _), groups in zip(assembled, homology):
                pieces[f] = {n: HomologyGroup(betti, torsion) for n, betti, torsion in groups}
    return {f: pieces.get(f, {}) for f in frames}


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


def _cuts_through(view, x0, x2):
    """The four-cuts (x0, x1, x2, x3) with the given x0 and x2.

    Yields (total, points) with total the cut's scaled int length, in
    ascending (x1, x3). x1 lies strictly between x0 and x2, x2 strictly
    between x1 and x3, and d(x0, x3) < total. As x1 is on a geodesic from
    x0 to x2, total is d(x0, x2) + d(x2, x3). This is the one definition
    of a four-cut that `four_cuts` and `m_x` read.
    """
    idist = view.idist
    between = view.between
    row0 = idist[x0]
    row2 = idist[x2]
    base = row0[x2]
    for x1 in view.between_points(x0, x2):
        row1 = between[x1]
        for x3, mask in enumerate(row1):
            if mask >> x2 & 1:
                total = base + row2[x3]
                if row0[x3] < total:
                    yield total, (x0, x1, x2, x3)


def four_cuts(space):
    """All four-cuts, sorted by (length, points).

    Cuts of one length share one Fraction.
    """
    view = space.integer_view
    n = space.n
    found = [cut for x0 in range(n) for x2 in range(n) for cut in _cuts_through(view, x0, x2)]
    # the list is converted in place so the int pairs are freed as the
    # cuts are built
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

    The result is `four_cuts(space)[0]`, found without listing the cuts:
    a running least (total, points) is kept, and a pair (x0, x2) is
    skipped once d(x0, x2) is at least the least total so far, since
    every cut through it is longer by d(x2, x3) > 0.
    """
    view = space.integer_view
    best = None
    for x0, row0 in enumerate(view.idist):
        for x2, base in enumerate(row0):
            if best is not None and base >= best[0]:
                continue
            for cut in _cuts_through(view, x0, x2):
                if best is None or cut < best:
                    best = cut
    if best is None:
        return MxResult(None, None)
    total, points = best
    return MxResult(view.fraction(total), points)
