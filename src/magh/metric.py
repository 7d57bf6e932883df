"""Finite metric spaces with exact rational distances.

Distances are `fractions.Fraction` at every API and I/O boundary; no float
ever enters a comparison. Points are integer indices 0..N-1 with optional
string labels.

Inside, the hot paths work on integers. Each space carries an
`IntegerView`, built once on first use: the distances times `scale`, the
least common multiple of their denominators, as ints, and one table of
which points lie strictly between which pairs on geodesics. Lengths are
summed as ints and turn back into `Fraction`s only where they leave the
package's internals, so the results are exactly those of rational
arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

from .errors import (
    AsymmetricAt,
    MetricError,
    NegativeEntry,
    NegativeOrZeroOffDiagonal,
    NonzeroDiagonal,
    NotSquare,
    NTooSmall,
    SelfBetweenness,
    TriangleViolation,
)


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction, loss-free."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MetricError(f"cannot parse rational from {text!r}: {exc}") from exc


def format_rational(q):
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _to_fraction(value, i, j):
    """Coerce a matrix entry to an exact Fraction.

    Strings and Decimals are parsed exactly. Floats are read through their
    shortest round-tripping decimal representation, so the number a user
    typed is the number we quantize, not its binary perturbation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MetricError(f"entry [{i}][{j}] is a bool, not a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise MetricError(f"entry [{i}][{j}] = {value!r} is not finite")
        return Fraction(repr(value))
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise MetricError(f"entry [{i}][{j}] has unsupported type {type(value).__name__}")


def _scaled(rows):
    """(scale, int rows): Fraction rows times the lcm of their denominators."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return scale, tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows
    )


@dataclass(frozen=True)
class IntegerView:
    """A space's distances scaled to ints, with betweenness tabulated once.

    `idist[a][b]` is d(a, b) * `scale` as an int. `between[a][b]` is a
    bitmask whose bit c is set iff c != a, b and idist[a][b] ==
    idist[a][c] + idist[c][b], i.e. c lies strictly between a and b on a
    geodesic. This table is the one definition of betweenness in the
    package; smoothness, frames, four-cuts and interval posets all read it.

    The view also owns what is derived from it once per space and reused:
    `pair_homology` maps a pair (a, b) to the nonzero reduced homology of
    its interval poset, which the engine reads; and `frame_groups` maps a
    top degree to the frame table of `frames.frame_table`, which `verify`
    reads: for each endpoint block searched, the nonzero homology of each
    frame piece, and no chains. Both fill as they are asked for and live
    exactly as long as the space. No chains are kept on the view.
    """

    scale: int
    idist: tuple
    between: tuple
    pair_homology: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    frame_groups: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def of(cls, dist, scaled=None):
        """Build the view of a distance matrix of Fractions.

        `scaled` is the matrix's (scale, int rows) from `_scaled`, when the
        caller has it already; it is computed here otherwise. Raises
        SelfBetweenness if some point lies strictly between a point
        and itself, which only a matrix with a non-positive off-diagonal
        entry allows; everything that removes a smooth point relies on
        that never happening.
        """
        scale, idist = _scaled(dist) if scaled is None else scaled
        n = len(idist)
        between = []
        for a, row_a in enumerate(idist):
            masks = [0] * n
            for c, row_c in enumerate(idist):
                if c == a:
                    continue
                dac = row_a[c]
                bit = 1 << c
                for b in range(n):
                    if b != c and dac + row_c[b] == row_a[b]:
                        masks[b] |= bit
            if masks[a]:
                raise SelfBetweenness(a, (masks[a] & -masks[a]).bit_length() - 1)
            between.append(tuple(masks))
        return cls(scale=scale, idist=idist, between=tuple(between))

    def between_points(self, a, b):
        """The points strictly between a and b, ascending."""
        mask = self.between[a][b]
        points = []
        while mask:
            low = mask & -mask
            points.append(low.bit_length() - 1)
            mask ^= low
        return tuple(points)

    def fraction(self, total):
        """The Fraction a scaled integer length stands for."""
        return Fraction(total, self.scale)

    def scaled(self, length):
        """The scaled integer a length stands for, or None if it is not one.

        A length that is not a multiple of 1/scale is the length of no
        chain.
        """
        total = Fraction(length) * self.scale
        return total.numerator if total.denominator == 1 else None


@dataclass(frozen=True)
class FiniteMetricSpace:
    """An immutable finite metric space.

    `dist` is a tuple of tuples of Fractions, already validated. Build
    instances through `validate_metric` or the generators below. Spaces
    compare and hash by (labels, dist). `integer_view` is computed from
    `dist` on first use and kept with the instance, together with the
    chain tables and pair homology derived from it. `scaled`
    is `dist` scaled to ints as (scale, int rows), when `validate_metric`
    has done that already for its triangle scan; the view then reuses it.
    """

    labels: tuple
    dist: tuple
    name: str = field(default="", compare=False)
    scaled: tuple = field(default=None, compare=False, repr=False)

    @property
    def n(self):
        return len(self.labels)

    def __len__(self):
        return len(self.labels)

    def d(self, i, j):
        return self.dist[i][j]

    @cached_property
    def integer_view(self):
        return IntegerView.of(self.dist, self.scaled)

    def points(self):
        return range(len(self.labels))

    def __repr__(self):
        tag = self.name or "space"
        return f"<FiniteMetricSpace {tag} n={self.n}>"

    def to_json_dict(self):
        return {
            "labels": list(self.labels),
            "d": [[format_rational(v) for v in row] for row in self.dist],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, source, name=""):
        """Load from a JSON string or an already-parsed dict."""
        if isinstance(source, (str, bytes)):
            try:
                source = json.loads(source)
            except json.JSONDecodeError as exc:
                raise MetricError(f"invalid JSON: {exc}") from exc
        if not isinstance(source, dict):
            raise MetricError("expected a JSON object with 'labels' and 'd'")
        if "d" not in source:
            raise MetricError("missing required field 'd'")
        matrix = source["d"]
        labels = source.get("labels")
        return validate_metric(matrix, labels=labels, name=name)

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.labels)
        for row in self.dist:
            writer.writerow([format_rational(v) for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text, name=""):
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        if not rows:
            raise MetricError("empty CSV input")
        labels = [c.strip() for c in rows[0]]
        matrix = [[c.strip() for c in row] for row in rows[1:]]
        if len(matrix) != len(labels):
            raise MetricError(
                f"CSV has {len(labels)} labels but {len(matrix)} matrix rows"
            )
        return validate_metric(matrix, labels=labels, name=name)


def validate_metric(matrix, labels=None, name=""):
    """Check all metric axioms and return the validated space.

    Axioms are checked in a fixed order with the first witness reported:
    squareness, symmetry, positivity off the diagonal, zero diagonal,
    triangle inequality. Row-major scan order makes witnesses deterministic.
    Every check after squareness compares the distances scaled to ints,
    which keep the signs and the order of the Fractions exactly.
    """
    n = len(matrix)
    rows = []
    for i, raw_row in enumerate(matrix):
        row = list(raw_row)
        if len(row) != n:
            raise NotSquare(n, len(row))
        rows.append([_to_fraction(v, i, j) for j, v in enumerate(row)])

    if labels is None:
        labels = [str(i) for i in range(n)]
    else:
        labels = [str(x) for x in labels]
        if len(labels) != n:
            raise MetricError(f"{len(labels)} labels for {n} points")

    scaled = _scaled(rows)
    idist = scaled[1]
    for i, row_i in enumerate(idist):
        for j in range(i + 1, n):
            if row_i[j] != idist[j][i]:
                raise AsymmetricAt(i, j)
    for i, row_i in enumerate(idist):
        for j, dij in enumerate(row_i):
            if i != j and dij <= 0:
                raise NegativeOrZeroOffDiagonal(i, j)
    for i, row_i in enumerate(idist):
        if row_i[i]:
            raise NonzeroDiagonal(i)
    for i, row_i in enumerate(idist):
        for j, row_j in enumerate(idist):
            dij = row_i[j]
            for k in range(n):
                if row_i[k] > dij + row_j[k]:
                    raise TriangleViolation(i, j, k)

    dist = tuple(tuple(row) for row in rows)
    return FiniteMetricSpace(labels=tuple(labels), dist=dist, name=name, scaled=scaled)


def cycle_space(n):
    """Cycle graph C_n with shortest-path distance d(i,j) = min(|i-j|, n-|i-j|)."""
    if n < 3:
        raise NTooSmall(n, 3)
    matrix = [
        [Fraction(min(abs(i - j), n - abs(i - j))) for j in range(n)]
        for i in range(n)
    ]
    return validate_metric(matrix, name=f"cycle({n})")


def path_space(n):
    """Path graph P_n with d(i,j) = |i-j|."""
    if n < 1:
        raise NTooSmall(n, 1)
    matrix = [[Fraction(abs(i - j)) for j in range(n)] for i in range(n)]
    return validate_metric(matrix, name=f"path({n})")


def complete_space(n):
    """Complete graph K_n: all distinct points at distance 1."""
    if n < 1:
        raise NTooSmall(n, 1)
    matrix = [
        [Fraction(0) if i == j else Fraction(1) for j in range(n)] for i in range(n)
    ]
    return validate_metric(matrix, name=f"complete({n})")


def metric_closure(matrix):
    """Shortest-path closure of a nonnegative symmetric matrix, exactly.

    Returns the largest metric dominated by the input (Floyd-Warshall over
    Fractions). Input rows are not mutated.
    """
    n = len(matrix)
    d = [list(row) for row in matrix]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                via = dik + dk[j]
                if via < row[j]:
                    row[j] = via
    return d


def random_metric(n, seed, max_w=9):
    """Random graph metric: integer weights in 1..max_w on K_n, then closure.

    Deterministic in (n, seed, max_w). Weights are drawn for pairs (i, j)
    with i < j in row-major order.
    """
    if n < 1:
        raise NTooSmall(n, 1)
    if max_w < 1:
        raise ValueError(f"max_w must be >= 1, got {max_w}")
    rng = random.Random(seed)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = Fraction(rng.randint(1, max_w))
            d[i][j] = w
            d[j][i] = w
    closed = metric_closure(d)
    return validate_metric(closed, name=f"random(n={n},seed={seed},max_w={max_w})")


def quantize(matrix, q):
    """Snap every entry to the nearest multiple of 1/q, then re-close.

    Entries are ingested as exact decimals (see `_to_fraction`); an exact
    half-way tie snaps down. Snapping can break the triangle inequality, so
    the shortest-path closure is applied afterwards. The result is a matrix
    of Fractions describing a metric space distinct from the sampled one;
    the caller decides what to do with it (usually `validate_metric`).
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    n = len(matrix)
    snapped = [[Fraction(0)] * n for _ in range(n)]
    for i, raw_row in enumerate(matrix):
        row = list(raw_row)
        if len(row) != n:
            raise NotSquare(n, len(row))
        for j, raw in enumerate(row):
            x = _to_fraction(raw, i, j)
            if x < 0:
                raise NegativeEntry(i, j, raw)
            # nearest integer to x*q, exact ties rounding down
            snapped[i][j] = Fraction(math.ceil(x * q - Fraction(1, 2)), q)
    # inputs are only symmetric up to rounding noise; unify by taking the
    # smaller snapped value so the closure still dominates nothing it should
    for i in range(n):
        snapped[i][i] = Fraction(0)
        for j in range(i + 1, n):
            v = min(snapped[i][j], snapped[j][i])
            snapped[i][j] = v
            snapped[j][i] = v
    return metric_closure(snapped)
