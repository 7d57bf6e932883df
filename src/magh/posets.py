"""Interval posets, order complexes, and the frame route to magnitude homology.

The interval poset I(a, b) consists of the points strictly between a and b
on geodesics, ordered by x < y iff x lies on a geodesic from a to y. It
is stored as two bitmasks per element, the elements above and below it,
read straight off the betweenness rows of a and b; its core, its order
complex and its component count all read those masks. Its order complex,
through the reduced chain complex (augmented: one generator in degree
-1), computes the homology of the frame subcomplex of (a, b); a frame of
higher degree tensors the complexes of its consecutive intervals, whose
homology the Kunneth formula gives from theirs. Pair homology is
reduced on the order complex of the interval's core, which has the same
reduced homology over Z as the whole interval's (Stong), and is often a
single point.

Each step is one helper on plain lists of masks: `_interval_masks` reads
and checks the order, `_core_masks` strips beat points, `_order_simplices`
grows the chains from the `up` masks and `_reduced_columns` writes the
augmented boundary columns. Every interval I(a, b) with the same a is a
restriction of one order on the points, x < y iff x lies between a and
y; `IntegerView.start_order` transposes and tests it once per start
point, so each pair only checks that its two sides agree. Pair homology
runs the steps in one pass and hands the columns to
`algebra.groups_from_columns`, the one d^2 check, Smith normal form and
groups step that the endpoint-block engine shares; a core with no
relation, k points, is counted instead, its homology read off k.

Below m_X, magnitude homology is the direct sum of those frame homologies
(Kaneta-Yoshinaga), so `magnitude_homology_rows` computes every grading
0 < l < m_X from the reduced homology of interval posets, with no chain
enumeration, and leaves gradings l >= m_X to the endpoint-block engine.
The frames are counted, not listed (`_frame_groups`): level by level over
states that hold a frame's last two points, its length, its Kunneth
product and whether it is realized, each with how many frames reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import frames as _frames
from .algebra import (
    HomologyGroup,
    HomologyRow,
    TRIVIAL_GROUP,
    block_homology_rows,
    groups_from_columns,
    kunneth,
    merge_invariant_factors,
)
from .chains import resolve_cap
from .errors import EnumerationCapExceeded, NotAPartialOrder, SamePoint, UnrealizedFrame
from .metric import format_rational, set_bits


def _interval_masks(space, a, b):
    """(elements, up, down) of I(a, b), as lists, with every check made.

    This is the one place the order is read and checked; pair homology
    and the component count read the lists as they are. `up[i]` and
    `down[i]` are int bitmasks over point indices of the elements strictly
    above and below `elements[i]`. A point c belongs iff it is strictly
    smooth between a and b. The order has two equivalent formulations,
    each one row of the space's betweenness table: from the a side, x < y
    iff x lies between a and y, which gives `down`; from the b side, x < y
    iff y lies between x and b, which gives `up`. The a side is the
    restriction of the order P_a of `IntegerView.start_order`, whose
    up-masks are built and tested once per start point. The two sides
    must agree (`up` is the transpose of `down`), checked for every pair.
    Antisymmetry and transitivity are checked per pair only where P_a
    failed its test, since a restriction of a partial order is one. A
    failure raises NotAPartialOrder, also under `python -O`, with the
    least witness. A point outside 0..n-1 raises ValueError, as no index
    wraps, and a == b raises SamePoint.
    """
    n = space.n
    if not (0 <= a < n and 0 <= b < n):
        bad = b if 0 <= a < n else a
        raise ValueError(f"point index {bad} out of range for n={n}")
    if a == b:
        raise SamePoint(a)
    view = space.integer_view
    between = view.between
    inside = between[a][b]
    elements = set_bits(inside)
    up_a, is_order = view.start_order(a)
    row_a = between[a]
    down = [row_a[y] & inside for y in elements]
    up = [between[x][b] & inside for x in elements]
    seen = [up_a[x] & inside for x in elements]  # the up-masks as the a side sees them
    if up != seen:
        for x, above, mask in zip(elements, up, seen):
            if above != mask:
                raise NotAPartialOrder(a, b, "two-sided agreement", (x, set_bits(above ^ mask)[0]))
    if not is_order:
        for x, above, below in zip(elements, up, down):
            if above & below:
                raise NotAPartialOrder(a, b, "antisymmetry", (x, set_bits(above & below)[0]))
        for x, above in zip(elements, up):
            for y in set_bits(above):
                missing = up_a[y] & inside & ~above
                if missing:
                    raise NotAPartialOrder(a, b, "transitivity", (x, y, set_bits(missing)[0]))
    return elements, up, down


def _has_least(mask, up):
    """True when the elements in `mask` have a least one, `up[z]` being above z."""
    if not mask & (mask - 1):  # no element, or a lone one
        return bool(mask)
    rest = mask
    while rest:
        low = rest & -rest
        if mask & ~up[low.bit_length() - 1] == low:
            return True
        rest ^= low
    return False


def _core_masks(elements, up, down):
    """The core of a poset: what is left once no beat point remains.

    The poset is given as `_interval_masks` reads it, and so is the
    core's (elements, up, down), the arguments themselves if it is all of
    it. A beat point has exactly one upper cover or exactly one lower
    cover, that is, the elements above it have a least one or those below
    it a greatest one. Each pass removes, in ascending order, every
    element that is a beat point of what is left at its turn; passes
    repeat until one removes nothing. The core's order complex is a
    strong deformation retract of the poset's (Stong, 1966), so its
    reduced homology over Z, torsion included, is the poset's. A nonempty
    poset keeps at least one element, since a lone element has no cover.
    The core's masks are the poset's restricted to what is left.
    """
    above = dict(zip(elements, up))
    below = dict(zip(elements, down))
    left = start = sum(1 << x for x in elements)
    removed = True
    while removed:
        removed = False
        for x in elements:
            bit = 1 << x
            if left & bit and (
                _has_least(above[x] & left, above) or _has_least(below[x] & left, below)
            ):
                left ^= bit
                removed = True
    if left == start:
        return elements, up, down
    kept = [x for x in elements if left >> x & 1]
    return kept, [above[x] & left for x in kept], [below[x] & left for x in kept]


def _order_simplices(elements, up, steps=None):
    """The chains of a poset, as a list of the simplices of each dimension.

    Each chain grows by the set bits of its top element's `up` mask, in
    ascending order, so each dimension comes out in lexicographic order.
    With `steps`, a `_Steps`, every simplex is counted against its cap as
    it is built, so a large interval stops at the cap, not after it.
    """
    above = dict(zip(elements, up))
    levels = []
    frontier = [(v,) for v in elements]
    if steps is not None:
        steps.take(len(frontier))
    while frontier:
        levels.append(frontier)
        frontier = []
        for s in levels[-1]:
            grown = [s + (y,) for y in set_bits(above[s[-1]])]
            if steps is not None:
                steps.take(len(grown))
            frontier += grown
    return levels


def _reduced_columns(levels):
    """(sizes, boundaries) of the reduced complex of simplices by dimension.

    `sizes` lists the ranks of degrees -1, 0, 1, ...: one copy of Z, then
    one generator per simplex. `boundaries[k]` lists the column dicts of
    the boundary out of degree k, one per k-simplex: the augmentation sends
    every vertex to +1 times the degree -1 generator, and the faces of a
    k-simplex alternate signs in vertex order.
    """
    sizes = [1] + [len(level) for level in levels]
    boundaries = {}
    if levels:
        boundaries[0] = [{0: 1} for _ in levels[0]]
    for k in range(1, len(levels)):
        below = {s: r for r, s in enumerate(levels[k - 1])}
        boundaries[k] = [
            {below[s[:i] + s[i + 1 :]]: -1 if i & 1 else 1 for i in range(k + 1)}
            for s in levels[k]
        ]
    return sizes, boundaries


def poset_component_count(space, a, b):
    """Number of connected components of the comparability graph of I(a, b).

    Each component is flooded from its least element over `up | down`,
    read off `_interval_masks` with its checks.
    """
    elements, up, down = _interval_masks(space, a, b)
    near = {x: above | below for x, above, below in zip(elements, up, down)}
    left = sum(1 << x for x in elements)
    count = 0
    while left:
        count += 1
        frontier = left & -left
        while frontier:
            left &= ~frontier
            reached = 0
            for x in set_bits(frontier):
                reached |= near[x]
            frontier = reached & left
    return count


def _interval_homology(space, a, b, steps=None):
    """`interval_homology` without the copy; callers must not mutate it.

    With `steps`, the simplices of a pair not held yet count against its
    cap (`_order_simplices`).
    """
    table = space.integer_view.pair_homology
    groups = table.get((a, b))
    if groups is None:
        elements, up, _ = _core_masks(*_interval_masks(space, a, b))
        if any(up):
            sizes, boundaries = _reduced_columns(_order_simplices(elements, up, steps))
            groups = groups_from_columns(-1, sizes, boundaries)
        else:
            groups = _antichain_homology(len(elements))
        table[a, b] = groups
    return groups


def _antichain_homology(k):
    """The nonzero reduced homology of k points with no relation.

    Its complex has one boundary map, the augmentation, so there is no
    d^2 to check: Z at -1 for no point, nothing for one, and Z^(k-1) at 0.
    """
    if k == 0:
        return {-1: HomologyGroup(1)}
    return {0: HomologyGroup(k - 1)} if k > 1 else {}


def interval_homology(space, a, b):
    """Reduced homology of the order complex of I(a, b), {degree: group}.

    Only nonzero groups are listed; an empty interval gives Z in degree
    -1. The complex reduced is the order complex of the interval's core,
    a strong deformation retract of the full one (Stong), so torsion is
    kept. Each pair goes once per space from masks to groups: the
    interval's masks (`_interval_masks`, every order check made), its
    core's (`_core_masks`), the core's simplices and augmented boundary
    columns, then `algebra.groups_from_columns`, the d^2 check, Smith
    normal form and groups step the endpoint-block engine shares. Only the
    groups are kept, in the space's `IntegerView.pair_homology`, which the
    frame count shares; this returns a copy. A core with no relation is an
    antichain of k points and builds no simplex: Z at degree -1 for
    k = 0, nothing for k = 1, and Z^(k-1) at degree 0 for k >= 2.
    """
    return dict(_interval_homology(space, a, b))


def frame_homology_by_degree(space, f):
    """Homology of a frame subcomplex through interval posets, every degree.

    For a frame of degree m, the Kunneth formula folds the reduced
    homology of the intervals between consecutive frame points into the
    homology of their tensor product, whose degree k is the frame's degree
    2m + k. Returns a new {degree: group}, nonzero groups only, from one
    fold that starts at the first pair's groups. Each interval's homology
    is reduced on the interval's core, as in `interval_homology`. Valid
    for tuples that are genuinely frames (equal to their own frame); the
    agreement with the direct subcomplex route is what `verify` checks.
    """
    f = tuple(f)
    m = len(f) - 1
    if m < 1:
        raise ValueError(f"a frame needs at least two points, got {f}")
    product = _interval_homology(space, f[0], f[1])
    for a, b in zip(f[1:], f[2:]):
        product = kunneth(product, _interval_homology(space, a, b))
    return {2 * m + k: group for k, group in product.items()}


def frame_homology_via_posets(space, f, n):
    """Degree n of `frame_homology_by_degree`: TRIVIAL_GROUP where it is zero."""
    return frame_homology_by_degree(space, f).get(n, TRIVIAL_GROUP)


class _Steps:
    """A running step count against a cap.

    `take(k)` adds k steps and raises EnumerationCapExceeded(limit + 1,
    limit) once the count passes `limit`: the step that passes it is
    always the (limit + 1)-th, however many are taken at once.
    """

    __slots__ = ("count", "limit")

    def __init__(self, limit):
        self.count = 0
        self.limit = limit

    def take(self, k):
        self.count += k
        if self.count > self.limit:
            raise EnumerationCapExceeded(self.limit + 1, self.limit)


class _Products:
    """Kunneth products of interval homology, interned by value.

    A product is a {degree: group} dict of nonzero groups. `intern` gives
    equal products one id, and the zero product None; `products[id]` is
    (product, least degree). `pair(a, b)` is the id of the reduced
    homology of I(a, b), read once per pair, and `fold(pid, hid)` the id
    of the Kunneth product of two ids, made once per pair of ids. With
    `steps`, a `_Steps`, the simplices of a pair whose homology the space
    does not hold yet count against its cap (`_interval_homology`).
    """

    __slots__ = ("space", "steps", "ids", "products", "pairs", "folds")

    def __init__(self, space, steps=None):
        self.space = space
        self.steps = steps
        self.ids = {}  # product key -> id
        self.products = []
        self.pairs = {}  # (a, b) -> id of its interval homology, or None
        self.folds = {}  # (product id, pair id) -> id of their product, or None

    def intern(self, product):
        if not product:
            return None
        key = tuple(product.items())
        pid = self.ids.get(key)
        if pid is None:
            pid = self.ids[key] = len(self.products)
            self.products.append((product, min(product)))
        return pid

    def pair(self, a, b):
        pid = self.pairs.get((a, b), -1)
        if pid == -1:
            homology = _interval_homology(self.space, a, b, self.steps)
            pid = self.pairs[a, b] = self.intern(homology)
        return pid

    def fold(self, pid, hid):
        gid = self.folds.get((pid, hid), -1)
        if gid == -1:
            product = kunneth(self.products[pid][0], self.products[hid][0])
            gid = self.folds[pid, hid] = self.intern(product)
        return gid


def _frame_groups(space, gradings, n_max, cap):
    """{(l, n): MH_n^l} for gradings 0 < l < m_X, counted level by level over states.

    A frame of degree m is a tuple of m + 1 points that grows one point
    at a time, and only where the junction it leaves behind is not
    strictly smooth, so it is its own frame. Its homology is the Kunneth
    product of its pairs' interval homology, and a frame of length l adds
    H_k of that product to MH_{2m+k}^l. Whether a tuple can grow, and
    what it then adds, depends only on a state (prev, last, total,
    product, realized): its last two points, its length as a scaled int,
    its product, interned by value, and whether its pair and each of its
    junction triples pass `frames.is_realized_frame`, which a frame does
    exactly when all of them do. So each level keeps its states with a
    multiplicity, and one transition stands for that many tuples: it
    takes one `kunneth` per (product, pair homology), interned by
    `_Products`, and tests each pair and each junction triple once,
    through the module attribute, so a patch of it takes effect. A branch stops once it is longer than the
    largest grading, once its least degree 2m + min k passes n_max
    (neither can shrink as the tuple grows), or when its product is zero,
    which a pair with zero reduced homology forces.

    Each state keeps its lexicographically least tuple. A level is filled
    from the states of the one before in the order of their least tuples,
    and each state by ascending next point, so a state is first met with
    its least tuple and every level comes out in that order. Every frame
    that contributes must be realized: otherwise UnrealizedFrame names the
    lexicographically least one that is not, once every level is counted
    (also under -O), which is the first one a depth-first search over the
    tuples would meet.

    The cap counts every tuple reached, a transition as many as its
    state stands for, and the simplices `_order_simplices` builds for a
    pair whose homology the space does not hold yet. It raises
    EnumerationCapExceeded(cap + 1, cap) as soon as the count passes the
    cap, before any UnrealizedFrame.
    """
    view = space.integer_view
    idist = view.idist
    between = view.between
    wanted = {}
    for l in gradings:
        total = view.scaled(l)
        if total is not None:
            wanted[total] = l
    if not wanted:
        return {}
    top = max(wanted)
    steps = _Steps(resolve_cap(cap))
    size = space.n
    interned = _Products(space, steps)
    products = interned.products
    realized = {}  # a pair or a junction triple -> is_realized_frame of it

    def is_realized(pts):
        ok = realized.get(pts)
        if ok is None:
            ok = realized[pts] = _frames.is_realized_frame(space, pts)
        return ok

    betti = {}
    torsion = {}
    unrealized = None
    # degree 0: each point alone, with the product of no pair; prev is the
    # point itself, as no point lies strictly between a point and another
    unit = interned.intern({0: HomologyGroup(1)})
    level = {(a, a, 0, unit, True): [1, (a,)] for a in range(size)}
    m = 0
    while level:
        m += 1
        grown = {}
        for (prev, last, total, pid, ok), (count, least) in level.items():
            row = idist[last]
            smooth = between[prev]
            for nxt in range(size):
                t = total + row[nxt]
                if nxt == last or t > top or smooth[nxt] >> last & 1:
                    continue
                hid = interned.pair(last, nxt)
                if hid is None:
                    continue
                steps.take(count)
                gid = interned.fold(pid, hid)
                if gid is None or 2 * m + products[gid][1] > n_max:
                    continue
                # the new pair, or junction triple, of every tuple of the state
                key = last, nxt, t, gid, ok and is_realized(least[-2:] + (nxt,))
                state = grown.get(key)
                if state is None:
                    grown[key] = [count, least + (nxt,)]
                else:
                    state[0] += count
        level = grown
        for (_, _, total, pid, ok), (count, least) in level.items():
            if total not in wanted:
                continue
            if not ok:
                if unrealized is None or least < unrealized[0]:
                    unrealized = least, wanted[total]
                continue
            for k, group in products[pid][0].items():
                key = total, 2 * m + k
                if key[1] <= n_max:
                    betti[key] = betti.get(key, 0) + group.betti * count
                    if group.torsion:
                        torsion.setdefault(key, []).append(group.torsion * count)
    if unrealized is not None:
        raise UnrealizedFrame(*unrealized)
    return {
        (wanted[total], n): HomologyGroup(b, merge_invariant_factors(torsion.get((total, n), ())))
        for (total, n), b in betti.items()
    }


def magnitude_homology_rows(space, gradings, n_max, cap=None):
    """Magnitude homology rows of several length gradings, degrees 0..n_max.

    Grading 0 is Z^N at degree 0 and 0 above. Every grading 0 < l < m_X,
    which is every positive one when m_X is infinite, comes from the frame
    count of `_frame_groups`; the gradings l >= m_X go to the endpoint-block
    engine, the only place chains are enumerated. Rows come grading by
    grading in the order given, degrees ascending.
    """
    gradings = [Fraction(l) for l in gradings]
    for l in gradings:
        if l < 0:
            raise ValueError(f"length must be >= 0, got {l}")
    if n_max < -1:
        raise ValueError(f"n_max must be >= -1, got {n_max}")
    if not gradings:
        return []
    mx = _frames.m_x(space).value
    below = sorted({l for l in gradings if l > 0 and (mx is None or l < mx)})
    above = sorted({l for l in gradings if mx is not None and l >= mx})
    groups = _frame_groups(space, below, n_max, cap)
    for row in block_homology_rows(space, above, n_max, cap):
        groups[(row.l, row.n)] = row.group
    groups[(Fraction(0), 0)] = HomologyGroup(space.n)
    return [
        HomologyRow(l, n, groups.get((l, n), TRIVIAL_GROUP))
        for l in gradings
        for n in range(n_max + 1)
    ]


def magnitude_homology(space, l, n_max, cap=None):
    """Magnitude homology rows of one length grading, degrees 0..n_max."""
    return magnitude_homology_rows(space, [l], n_max, cap)


@dataclass(frozen=True)
class Certificate:
    """Lower bound on magnitude homology at degree 2, grading d(a, b).

    `mh2_lower_bound` is the number of components of I(a, b) minus one
    (floored at zero), which equals the rank of the reduced degree-0
    homology of its order complex. A positive bound certifies a nonzero
    group without running the full computation.
    """

    pair: tuple
    distance: Fraction
    components: int
    mh2_lower_bound: int

    def to_json_dict(self):
        return {
            "pair": list(self.pair),
            "distance": format_rational(self.distance),
            "components": self.components,
            "mh2_lower_bound": self.mh2_lower_bound,
        }


def mh2_certificate(space, a, b):
    """Certificate for MH_2 at grading d(a, b) from the pair (a, b)."""
    components = poset_component_count(space, a, b)
    return Certificate(
        pair=(a, b),
        distance=space.d(a, b),
        components=components,
        mh2_lower_bound=max(0, components - 1),
    )
