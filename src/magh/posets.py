"""Interval posets, order complexes, and the poset route to frame homology.

The interval poset I(a, b) consists of the points strictly between a and b
on geodesics, ordered by x < y iff x lies on a geodesic from a to y. Its
order complex, through the reduced chain complex (augmented: one generator
in degree -1), computes the homology of the frame subcomplex of (a, b); a
frame of higher degree tensors the complexes of its consecutive intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ChainComplexZ,
    HomologyGroup,
    SparseIntMatrix,
    TRIVIAL_GROUP,
    tensor_many,
)
from .errors import NotAPartialOrder, SamePoint
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
        aug = SparseIntMatrix(1, sizes[1])
        for c in range(sizes[1]):
            aug.add(0, c, 1)
        boundaries[0] = aug
    for k in range(1, dim + 1):
        below = {s: r for r, s in enumerate(simplices[k - 1])}
        mat = SparseIntMatrix(sizes[k], sizes[k + 1])
        for c, s in enumerate(simplices[k]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                mat.add(below[face], c, -1 if i % 2 else 1)
        boundaries[k] = mat
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


def frame_homology_via_posets(space, f, n):
    """Homology of a frame subcomplex computed through interval posets.

    For a frame of degree m, tensor the reduced complexes of the intervals
    between consecutive frame points and read off degree n - 2m. Valid for
    tuples that are genuinely frames (equal to their own frame); the
    agreement with the direct subcomplex route is what `verify` checks.
    """
    f = tuple(f)
    m = len(f) - 1
    if m < 1:
        raise ValueError(f"a frame needs at least two points, got {f}")
    parts = [interval_complex(space, f[i], f[i + 1]) for i in range(m)]
    total = tensor_many(parts)
    return total.homology_or_trivial(n - 2 * m)


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
