"""Interval posets, order complexes, and the frame route to magnitude homology.

The interval poset I(a, b) consists of the points strictly between a and b
on geodesics, ordered by x < y iff x lies on a geodesic from a to y. Its
order complex, through the reduced chain complex (augmented: one generator
in degree -1), computes the homology of the frame subcomplex of (a, b); a
frame of higher degree tensors the complexes of its consecutive intervals,
whose homology the Kunneth formula gives from theirs.

Below m_X, magnitude homology is the direct sum of those frame homologies
(Kaneta-Yoshinaga), so `magnitude_homology_rows` computes every grading
0 < l < m_X from the reduced homology of interval posets, with no chain
enumeration, and leaves gradings l >= m_X to the endpoint-block engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import frames as _frames
from .algebra import (
    ChainComplexZ,
    HomologyGroup,
    HomologyRow,
    SparseIntMatrix,
    TRIVIAL_GROUP,
    block_homology_rows,
    kunneth,
)
from .chains import resolve_cap
from .errors import EnumerationCapExceeded, NotAPartialOrder, SamePoint, UnrealizedFrame
from .metric import format_rational


@dataclass(frozen=True)
class IntervalPoset:
    """Strict partial order on the points strictly between a and b."""

    a: int
    b: int
    elements: tuple
    less: frozenset  # pairs (x, y) with x strictly below y

    def lt(self, x, y):
        return (x, y) in self.less

    def successors(self, x):
        return tuple(y for y in self.elements if (x, y) in self.less)

    def __len__(self):
        return len(self.elements)


def interval_poset(space, a, b):
    """Build I(a, b), verifying the order is well defined.

    A point c belongs iff it is strictly smooth between a and b. The order
    has two equivalent formulations, from the a side (d(a,y) = d(a,x) +
    d(x,y)) and from the b side (d(x,b) = d(x,y) + d(y,b)); both are read
    from the space's betweenness table and must agree. Antisymmetry and
    transitivity are checked, not assumed: a failure raises
    NotAPartialOrder, also under `python -O`.
    """
    if a == b:
        raise SamePoint(a)
    view = space.integer_view
    between = view.between
    elements = view.between_points(a, b)
    less = set()
    for x in elements:
        for y in elements:
            if x == y:
                continue
            from_a = between[a][y] >> x & 1
            from_b = between[x][b] >> y & 1
            if from_a != from_b:
                raise NotAPartialOrder(a, b, "two-sided agreement", (x, y))
            if from_a:
                less.add((x, y))
    for x, y in less:
        if (y, x) in less:
            raise NotAPartialOrder(a, b, "antisymmetry", (x, y))
    for x, y in less:
        for z, w in less:
            if z == y and (x, w) not in less:
                raise NotAPartialOrder(a, b, "transitivity", (x, y, w))
    return IntervalPoset(a=a, b=b, elements=elements, less=frozenset(less))


@dataclass(frozen=True)
class OrderComplex:
    """Simplices are the totally ordered subsets of a poset.

    `simplices[k]` lists the k-simplices as ascending tuples, in
    lexicographic order.
    """

    simplices: dict

    @property
    def dim(self):
        return max(self.simplices) if self.simplices else -1

    def vertices(self):
        return tuple(s[0] for s in self.simplices.get(0, ()))


def order_complex(poset):
    """All chains of the poset, graded by dimension."""
    up = {x: poset.successors(x) for x in poset.elements}
    simplices = {}
    frontier = [(v,) for v in poset.elements]
    dim = 0
    while frontier:
        simplices[dim] = sorted(frontier)
        nxt = []
        for s in frontier:
            for y in up[s[-1]]:
                nxt.append(s + (y,))
        frontier = nxt
        dim += 1
    return OrderComplex(simplices=simplices)


def reduced_complex(complex_):
    """Reduced (augmented) simplicial chain complex over Z.

    Degree -1 is a single copy of Z; the augmentation sends every vertex to
    +1 times that generator. Faces of a k-simplex alternate signs in vertex
    order. An empty complex is just Z in degree -1, whose homology there is
    Z: the reduced homology of the empty space.
    """
    simplices = complex_.simplices
    dim = max(simplices) if simplices else -1
    sizes = [1] + [len(simplices.get(k, ())) for k in range(dim + 1)]
    boundaries = {}
    if dim >= 0:
        boundaries[0] = SparseIntMatrix(1, [{0: 1} for _ in range(sizes[1])])
    for k in range(1, dim + 1):
        below = {s: r for r, s in enumerate(simplices[k - 1])}
        boundaries[k] = SparseIntMatrix(
            sizes[k],
            [
                {below[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(s))}
                for s in simplices[k]
            ],
        )
    return ChainComplexZ(-1, sizes, boundaries)


def poset_component_count(space, a, b):
    """Number of connected components of the comparability graph of I(a, b)."""
    poset = interval_poset(space, a, b)
    parent = {x: x for x in poset.elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in poset.less:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    return len({find(x) for x in poset.elements})


def interval_complex(space, a, b):
    """Reduced chain complex of the order complex of I(a, b)."""
    return reduced_complex(order_complex(interval_poset(space, a, b)))


_PAIR_TABLES = {}  # space -> its pair table, least recently used first


def _pair_table(space):
    """{(a, b): nonzero reduced homology of I(a, b)} for one space.

    `_interval_homology` fills it as pairs are asked for. Equal spaces
    share a table, and the 64 spaces used last keep theirs. The table is
    stored again under the instance that asks for it, so only the first
    call with a new instance compares spaces by value (distance by
    distance); later calls with it hit by identity.
    """
    table = _PAIR_TABLES.pop(space, None)
    if table is None:
        table = {}
        if len(_PAIR_TABLES) >= 64:
            del _PAIR_TABLES[next(iter(_PAIR_TABLES))]
    _PAIR_TABLES[space] = table
    return table


def _interval_homology(space, a, b):
    """`interval_homology` without the copy; callers must not mutate it."""
    table = _pair_table(space)
    groups = table.get((a, b))
    if groups is None:
        cx = interval_complex(space, a, b)
        groups = {k: cx.homology(k) for k in cx.degrees()}
        groups = table[a, b] = {k: g for k, g in groups.items() if not g.is_trivial()}
    return groups


def interval_homology(space, a, b):
    """Reduced homology of the order complex of I(a, b), {degree: group}.

    Only nonzero groups are listed; an empty interval gives Z in degree
    -1. Cached by value, like chain enumeration: spaces are immutable and
    hash by their distances, so each pair's complex is built and reduced
    once per space, and only its groups are kept, in one table per space
    that the frame DFS shares.
    """
    return dict(_interval_homology(space, a, b))


def frame_homology_via_posets(space, f, n):
    """Homology of a frame subcomplex computed through interval posets.

    For a frame of degree m, the Kunneth formula folds the reduced
    homology of the intervals between consecutive frame points into the
    homology of their tensor product, read at degree n - 2m. Valid for
    tuples that are genuinely frames (equal to their own frame); the
    agreement with the direct subcomplex route is what `verify` checks.
    """
    f = tuple(f)
    m = len(f) - 1
    if m < 1:
        raise ValueError(f"a frame needs at least two points, got {f}")
    product = {0: HomologyGroup(1)}
    for a, b in zip(f, f[1:]):
        product = kunneth(product, _interval_homology(space, a, b))
    return product.get(n - 2 * m, TRIVIAL_GROUP)


def _frame_groups(space, gradings, n_max, cap):
    """{(l, n): MH_n^l} for gradings 0 < l < m_X, by a DFS over frames.

    A tuple grows one point at a time, and only where the junction it
    leaves behind is not strictly smooth, so every tuple visited is its
    own frame. Each carries the Kunneth product of its pairs' interval
    homology; a frame of degree m and length l adds H_k of that product
    to MH_{2m+k}^l. A branch stops once it is longer than the largest
    grading, once its least degree 2m + min k passes n_max (neither can
    shrink as the tuple grows), or when its product is zero, which a pair
    with zero reduced homology forces. Visited tuples count against the
    enumeration cap. Every frame that contributes must pass
    `is_realized_frame` (UnrealizedFrame otherwise, also under -O).
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
    limit = resolve_cap(cap)
    size = space.n
    parts = {}
    visited = 0

    def extend(pts, length, product):
        nonlocal visited
        last = pts[-1]
        prev = pts[-2] if len(pts) > 1 else None
        m = len(pts)  # degree of each extension
        row = idist[last]
        for nxt in range(size):
            total = length + row[nxt]
            if nxt == last or total > top:
                continue
            if prev is not None and between[prev][nxt] >> last & 1:
                continue
            h = _interval_homology(space, last, nxt)
            if not h:
                continue
            visited += 1
            if visited > limit:
                raise EnumerationCapExceeded(visited, limit)
            grown = h if prev is None else kunneth(product, h)
            if not grown or 2 * m + min(grown) > n_max:
                continue
            pts.append(nxt)
            l = wanted.get(total)
            if l is not None:
                if not _frames.is_realized_frame(space, pts):
                    raise UnrealizedFrame(pts, l)
                for k, group in grown.items():
                    if 2 * m + k <= n_max:
                        parts.setdefault((l, 2 * m + k), []).append(group)
            extend(pts, total, grown)
            pts.pop()

    for start in range(size):
        extend([start], 0, None)
    return {key: HomologyGroup.direct_sum(groups) for key, groups in parts.items()}


def magnitude_homology_rows(space, gradings, n_max, cap=None):
    """Magnitude homology rows of several length gradings, degrees 0..n_max.

    Grading 0 is Z^N at degree 0 and 0 above. Every grading 0 < l < m_X,
    which is every positive one when m_X is infinite, comes from the frame
    DFS of `_frame_groups`; the gradings l >= m_X go to the endpoint-block
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
    if a == b:
        raise SamePoint(a)
    components = poset_component_count(space, a, b)
    return Certificate(
        pair=(a, b),
        distance=space.d(a, b),
        components=components,
        mh2_lower_bound=max(0, components - 1),
    )
