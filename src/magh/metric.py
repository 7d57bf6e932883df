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

The triangle axiom and betweenness read the same sum d(a, c) + d(c, b)
against d(a, b): short of it is a triangle violation, equal to it puts c
between a and b. `_between_rows` works out both in one packed pass, a
few big-int operations per pair, and is the one place either is
computed: `validate_metric` runs it once and hands the table to the
space, whose view reuses it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .errors import (
    AsymmetricAt,
    MetricError,
    NegativeEntry,
    NegativeOrZeroOffDiagonal,
    NonzeroDiagonal,
    NotAnIsometry,
    NotSquare,
    NTooSmall,
    SelfBetweenness,
    TriangleViolation,
)


# the interpreter's default limit on the digits of an int read from text,
# which JSON ints meet in `FiniteMetricSpace.from_json`
MAX_EXPONENT = 4300
# the least int with more than MAX_EXPONENT digits
_TOO_LONG = 10**MAX_EXPONENT


def _exponent_too_large(clean):
    """True when `clean` is a decimal in Fraction's syntax whose exponent,
    after its last e or E, exceeds MAX_EXPONENT in absolute value.

    The exponent's digits are read only when there are few of them, and
    the syntax is checked on a copy with those digits zeroed, so no large
    power is built. A text Fraction refuses gives False, and Fraction's
    own error.
    """
    head, _, exponent = clean.replace("E", "e").rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if not digits.isdecimal() or (len(digits) <= 4 and int(digits) <= MAX_EXPONENT):
        return False
    zeroed = "".join("0" if c.isdecimal() else c for c in exponent)
    try:
        Fraction(f"{head}e{zeroed}")
    except ValueError:
        return False
    return True


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction, loss-free.

    Digits-only "p/q" and "p" are read with int(), about twice as fast as
    Fraction's own parser, which reads every other form and reports what
    is malformed. Fraction builds the whole power of ten an exponent
    names, so a decimal exponent beyond `MAX_EXPONENT` in absolute value
    raises MetricError before it is read.
    """
    clean = str(text).strip()
    num, slash, den = clean.partition("/")
    try:
        if num.isdecimal() and (den.isdecimal() if slash else True):
            return Fraction(int(num), int(den) if slash else 1)
        if not slash and ("e" in clean or "E" in clean) and _exponent_too_large(clean):
            raise ValueError(f"decimal exponent exceeds {MAX_EXPONENT} in absolute value")
        return Fraction(clean)
    except (ValueError, ZeroDivisionError) as exc:
        raise MetricError(f"cannot parse rational from {text!r}: {exc}") from exc


def format_rational(q):
    """Render a Fraction as "p/q", or "p" when the denominator is 1.

    A term too long for the interpreter's int digit limit raises
    MetricError, so a printed length past it is refused like any other
    malformed input.
    """
    if not isinstance(q, Fraction):
        q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise MetricError(f"cannot print rational: a term has more than {limit} digits") from None


def _to_fraction(value, i, j):
    """Coerce a matrix entry to an exact Fraction.

    Strings and Decimals are parsed exactly. Floats are read through their
    shortest round-tripping decimal representation, so the number a user
    typed is the number we quantize, not its binary perturbation. A
    non-finite float or Decimal raises MetricError, and so does a Decimal
    whose exponent exceeds `MAX_EXPONENT` in absolute value, before
    Fraction builds its power of ten, or that has more than `MAX_EXPONENT`
    digits, as `parse_rational` does for text.
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
        if not value.is_finite():
            raise MetricError(f"entry [{i}][{j}] = {value!r} is not finite")
        _, digits, exponent = value.as_tuple()
        if abs(exponent) > MAX_EXPONENT:
            raise MetricError(
                f"entry [{i}][{j}]: decimal exponent exceeds {MAX_EXPONENT} in absolute value"
            )
        if len(digits) > MAX_EXPONENT:
            raise MetricError(f"entry [{i}][{j}]: decimal has more than {MAX_EXPONENT} digits")
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise MetricError(f"entry [{i}][{j}] has unsupported type {type(value).__name__}")


def _printable(q, i, j):
    """`q`, or MetricError naming entry [i][j] when its numerator or
    denominator has more than MAX_EXPONENT digits and so cannot be printed."""
    if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
        raise MetricError(f"entry [{i}][{j}]: a term has more than {MAX_EXPONENT} digits")
    return q


def set_bits(mask):
    """The indices of the set bits of an int bitmask, as an ascending list."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _scaled(rows):
    """(scale, int rows): Fraction rows times the lcm of their denominators.

    Each distinct entry object is scaled once and shared by every place it
    fills; `_fraction_rows` gives a repeated text one Fraction, so a
    loaded matrix has as many objects to scale as it has distinct texts.
    """
    flat = list(chain.from_iterable(rows))
    distinct = dict(zip(map(id, flat), flat))
    scale = math.lcm(*[v.denominator for v in distinct.values()])
    ints = {key: v.numerator * (scale // v.denominator) for key, v in distinct.items()}
    return scale, tuple([tuple(map(ints.__getitem__, map(id, row))) for row in rows])


def _check_symmetric(idist):
    """Raise AsymmetricAt at the first (i, j), i < j, in row-major order
    where idist[i][j] != idist[j][i]."""
    for i, row_i in enumerate(idist):
        for j in range(i + 1, len(idist)):
            if row_i[j] != idist[j][i]:
                raise AsymmetricAt(i, j)


# one binary digit per field, read off its top byte: _GUARD_CLEAR gives
# "1" where the guard bit (the byte's top bit) is clear, _GUARD_SET where
# it is set
_GUARD_CLEAR = bytes(b"10"[byte >> 7] for byte in range(256))
_GUARD_SET = bytes(b"01"[byte >> 7] for byte in range(256))


def _between_rows(idist):
    """(between, short) for a symmetric square matrix of ints, in one pass.

    `between[a][b]` is the bitmask of the points c != a, b with
    idist[a][c] + idist[c][b] == idist[a][b], the table `IntegerView`
    holds; `short` tells whether some c had idist[a][c] + idist[c][b] <
    idist[a][b], a triangle violation.

    Each row is packed into one int, entry c in a field of 8k bits at bit
    8k*c. For a pair a <= b, one sum row_a + row_b + (H - idist[a][b]) at
    every field, H = 2**(8k-1), holds g_c + H in field c, with g_c =
    idist[a][c] + idist[c][b] - idist[a][b]. The width keeps |g_c| < H - 1
    for any ints, negative or not metric, so each field of the sum and of
    the sum less 1 at every field stays in [1, 2H), and no carry or borrow
    crosses into the next: a field's top (guard) bit is clear iff g_c < 0
    in the sum, and iff g_c <= 0 in the sum less 1. Guard bits are read off
    the big-endian bytes, the top byte of each field, as one binary digit
    per point. By symmetry the pair's mask is also that of (b, a).
    """
    n = len(idist)
    if not n:
        return (), False
    lo = min(0, min(map(min, idist)))
    span = max(0, max(map(max, idist))) - lo
    k = ((2 * span + 1).bit_length() + 8) // 8
    size = k * n
    ones = int.from_bytes(b"\1".ljust(k, b"\0") * n, "little")
    guards = ones << 8 * k - 1
    # each row with its entries moved up by -lo >= 0 to pack them as bytes;
    # `lift` puts 2 lo back and adds H at every field
    packed = [
        int.from_bytes(b"".join([(v - lo).to_bytes(k, "little") for v in row]), "little")
        for row in idist
    ]
    lift = 2 * lo * ones + guards
    rows = [[0] * n for _ in range(n)]
    short = False
    for a, row in enumerate(idist):
        base = packed[a] + lift
        out = rows[a]
        for b in range(a, n):
            total = base + packed[b] - row[b] * ones
            bits = int((total - ones).to_bytes(size, "big")[::k].translate(_GUARD_CLEAR), 2)
            if total & guards != guards:
                short = True
                bits &= int(total.to_bytes(size, "big")[::k].translate(_GUARD_SET), 2)
            out[b] = rows[b][a] = bits & ~(1 << a | 1 << b)
    return tuple(map(tuple, rows)), short


# the most nodes `_isometry_generators` visits in one space; past it the
# generators found so far are kept, which splits some orbits but merges
# no pair wrongly
ISOMETRY_NODES = 20_000


def _isometry_generators(idist):
    """Isometries of a symmetric int distance matrix that generate its group,
    as tuples mapping point x to g[x]; none when only the identity is found.

    A backtracking search in the manner of McKay's *Practical graph
    isomorphism* (1981), with each point's sorted distance row as the
    invariant. A base b_0, b_1, ... is chosen until fixing it leaves every
    point alone in its cell, a cell being the points with the same
    invariant and the same distance to each base point. Level by level,
    deepest first, the search looks for an isometry that fixes b_0 ..
    b_{i-1} and sends b_i to each point of b_i's cell not yet in b_i's
    orbit under the generators found, all of which fix b_0 .. b_{i-1}.
    As the stabilizer of b_0 .. b_i is generated already, that adds a
    map from every coset of it in the stabilizer of b_0 .. b_{i-1}, so
    at level 0 the generators found generate the whole group, and no
    group is listed.
    A map is grown one point at a time (`_extend_isometry`), each
    candidate keeping every distance to the points already mapped. Past
    `ISOMETRY_NODES` nodes in all the search stops, keeping what it
    found. An asymmetric matrix gets no isometry.
    """
    n = len(idist)
    if n < 2 or tuple(zip(*idist)) != tuple(idist):
        return []
    keys = [tuple(sorted(row)) for row in idist]
    kinds = {}
    for x, key in enumerate(keys):
        kinds[key] = kinds.get(key, 0) | 1 << x
    if len(kinds) == n:
        return []
    invariant = [kinds[key] for key in keys]
    # at[y][d]: the points at distance d from y
    at = []
    for row in idist:
        by = {}
        for v, d in enumerate(row):
            by[d] = by.get(d, 0) | 1 << v
        at.append(by)
    base = []
    level_cells = []
    cells = invariant
    while True:
        b = next((u for u, c in enumerate(cells) if c & c - 1), None)
        if b is None:
            break
        base.append(b)
        level_cells.append(cells[b])
        row, by = idist[b], at[b]
        cells = [c & by[d] for c, d in zip(cells, row)]
    left = ISOMETRY_NODES
    generators = []
    for i in range(len(base) - 1, -1, -1):
        b = base[i]
        orbit = 1 << b
        for v in set_bits(level_cells[i] & ~orbit):
            if orbit >> v & 1:
                continue
            image = [-1] * n
            cand = invariant
            used = 0
            for u, y in zip(base[: i + 1], base[:i] + [v]):
                image[u] = y
                used |= 1 << y
                by = at[y]
                cand = [c & by.get(d, 0) for c, d in zip(cand, idist[u])]
            found, left = _extend_isometry(idist, at, image, cand, used, left)
            if left < 0:
                return generators
            if found is not None:
                generators.append(found)
                orbit = _point_orbit(b, generators)
    return generators


def _extend_isometry(idist, at, image, cand, used, left):
    """(the first isometry extending a partial map, or None, nodes left).

    `image[u]` is u's image, or -1 for a point not mapped yet; `cand[u]`
    is the bitmask of the points with u's invariant and u's distance to
    each point mapped, from its image; `used` is the bitmask of the
    images; `at[y][d]` the points at distance d from y. A depth-first
    search over an explicit stack, so a space of any size fits: each node
    maps the free point with the fewest free candidates to each of them
    in turn, and costs one of `left`; the search gives up, with `left`
    below 0, when they run out.
    """
    n = len(image)
    stack = []
    while True:
        left -= 1
        if left < 0:
            return None, left
        best = None
        fewest = n + 1
        for u, y in enumerate(image):
            if y < 0:
                free = cand[u] & ~used
                count = free.bit_count()
                if count < fewest:
                    best, fewest, choices = u, count, free
                    if not count:
                        break
        if best is None:
            return tuple(image), left
        if fewest:
            stack.append((best, set_bits(choices)[::-1], cand, used))
        while stack:
            u, options, below, taken = stack[-1]
            if options:
                y = options.pop()
                image[u] = y
                by = at[y]
                cand = [c & by.get(d, 0) for c, d in zip(below, idist[u])]
                used = taken | 1 << y
                break
            image[u] = -1
            stack.pop()
        else:
            return None, left


def _point_orbit(x, generators):
    """The orbit of point x under maps given as tuples, as a bitmask."""
    orbit = 1 << x
    todo = [x]
    while todo:
        y = todo.pop()
        for g in generators:
            z = g[y]
            if not orbit >> z & 1:
                orbit |= 1 << z
                todo.append(z)
    return orbit


def _check_isometry(idist, g):
    """Raise NotAnIsometry unless g is a permutation of the points that
    keeps all N^2 distances; under `python -O` too."""
    n = len(idist)
    seen = 0
    for a, y in enumerate(g):
        if a >= n or not 0 <= y < n or seen >> y & 1:
            raise NotAnIsometry(g, a, None)
        seen |= 1 << y
    if len(g) < n:
        raise NotAnIsometry(g, len(g), None)
    for a, row in enumerate(idist):
        moved = idist[g[a]]
        if tuple(map(moved.__getitem__, g)) != row:
            b = next(b for b, d in enumerate(row) if moved[g[b]] != d)
            raise NotAnIsometry(g, a, b)


def _keeps_between(between, g):
    """True when the map g sends each betweenness mask between[a][b] onto
    between[g a][g b], point by point."""
    for a, row in enumerate(between):
        moved = between[g[a]]
        for b, mask in enumerate(row):
            image = 0
            while mask:
                low = mask & -mask
                image |= 1 << g[low.bit_length() - 1]
                mask ^= low
            if moved[g[b]] != image:
                return False
    return True


@dataclass(frozen=True)
class PairOrbits:
    """The orbits of ordered point pairs under isometries and reversal.

    `generators` are the isometries found (`_isometry_generators`), each
    checked on every distance. Two pairs share an orbit when a product of
    generators and the reversal (a, b) -> (b, a) maps one onto the other;
    each orbit is represented by its lexicographically least pair, so a
    <= b in every representative. `ends[a]` is the bitmask of the points b
    with (a, b) a representative, 0 when a starts none, and
    `weights[a, b]` the size of the orbit of the representative (a, b).
    The weights sum to N^2. With no generator the representatives are the
    pairs with a <= b, of weight 2 when a < b and 1 when a = b.
    """

    generators: tuple
    ends: tuple
    weights: dict


def _orbits_of_pairs(idist, generators):
    """The `PairOrbits` of maps already checked to be isometries of `idist`.

    The orbits are walked over flat pair indices a * N + b in ascending
    order, so the first pair met of each orbit is its least.
    """
    n = len(idist)
    perms = [[b * n + a for a in range(n) for b in range(n)]]
    for g in generators:
        perms.append([x + y for x in [y * n for y in g] for y in g])
    seen = bytearray(n * n)
    ends = [0] * n
    weights = {}
    for p in range(n * n):
        if seen[p]:
            continue
        seen[p] = 1
        todo = [p]
        size = 0
        while todo:
            q = todo.pop()
            size += 1
            for perm in perms:
                r = perm[q]
                if not seen[r]:
                    seen[r] = 1
                    todo.append(r)
        a, b = divmod(p, n)
        ends[a] |= 1 << b
        weights[a, b] = size
    return PairOrbits(tuple(generators), tuple(ends), weights)


@dataclass(frozen=True)
class IntegerView:
    """A space's distances scaled to ints, with betweenness tabulated once.

    `idist[a][b]` is d(a, b) * `scale` as an int. `between[a][b]` is a
    bitmask whose bit c is set iff c != a, b and idist[a][b] ==
    idist[a][c] + idist[c][b], i.e. c lies strictly between a and b on a
    geodesic. This table is the one definition of betweenness in the
    package; smoothness, frames, four-cuts and interval posets all read it.
    It comes from `_between_rows`, the same packed pass that makes
    `validate_metric`'s triangle check, once per load.

    The view also owns what is derived from it once per space and reused:
    `pair_homology` maps a pair (a, b) to the nonzero reduced homology of
    its interval poset, which the engine reads; `start_orders` maps a
    start point a to the up-masks of the order every interval I(a, b)
    restricts, one int per point, and whether that order passed its
    partial-order test (`start_order`); `block_groups` maps n_max
    to the groups of degrees 0..n_max of each length grading the block
    engine (`algebra.block_homology_rows`) has reduced, keyed by scaled
    length; `pair_orbits` holds the orbits of point pairs under the
    isometries found and reversal, whose representatives are the only
    blocks the engine searches and reduces.
    All fill as they are asked for and live exactly as long as the space.
    No chains are kept on the view.
    """

    scale: int
    idist: tuple
    between: tuple
    pair_homology: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    start_orders: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    block_groups: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def of(cls, dist, scaled=None, between=None):
        """Build the view of a distance matrix of Fractions.

        `scaled` is the matrix's (scale, int rows) from `_scaled` and
        `between` its table from `_between_rows`, when the caller has them
        already, as `validate_metric` does; each is computed here
        otherwise. The packed pass reads each pair once and relies on
        symmetry, so a matrix not checked yet raises AsymmetricAt at its
        first asymmetric pair; a triangle violation in it is ignored.
        Raises SelfBetweenness if some point lies strictly between a
        point and itself, which only a matrix with a non-positive
        off-diagonal entry allows; everything that removes a smooth point
        relies on that never happening.
        """
        scale, idist = _scaled(dist) if scaled is None else scaled
        if between is None:
            _check_symmetric(idist)
            between = _between_rows(idist)[0]
        for a, row in enumerate(between):
            if row[a]:
                raise SelfBetweenness(a, set_bits(row[a])[0])
        return cls(scale=scale, idist=idist, between=between)

    def start_order(self, a):
        """(up, is_order) of the order P_a on the points, x < y iff x is between a and y.

        `between[a][y]` is y's down-mask in P_a; `up[x]` is the mask of
        the points above x, the transpose of that row, built once per
        start point and kept in `start_orders`. Bit y of `up[x]` is set
        iff x lies strictly between a and y, whatever the table holds.
        `is_order` is True when P_a is a strict partial order: no point
        lies below itself, and whatever lies below x lies below each y
        above x. Those two give antisymmetry, since x < y < x would put x
        below itself. A validated space's table always passes: a point
        between a and x lies between a and whatever lies beyond x.
        """
        order = self.start_orders.get(a)
        if order is None:
            row = self.between[a]
            up = [0] * len(row)
            broken = 0
            for y, below in enumerate(row):
                bit = 1 << y
                broken |= below & bit
                for x in set_bits(below):
                    up[x] |= bit
                    broken |= row[x] & ~below
            order = self.start_orders[a] = (up, not broken)
        return order

    @cached_property
    def pair_orbits(self):
        """The `PairOrbits` of this space, worked out on first use.

        Every map `_isometry_generators` gives is checked on all N^2
        distances first (`_check_isometry`, NotAnIsometry otherwise). The
        betweenness table is made from the distances, so an isometry
        keeps it too; a map that does not keep this view's table, which
        only a corrupted table allows, is left out, so that the engine's
        guards see every fault such a table causes in some
        representative block.
        """
        generators = []
        for g in _isometry_generators(self.idist):
            _check_isometry(self.idist, g)
            if _keeps_between(self.between, g):
                generators.append(g)
        return _orbits_of_pairs(self.idist, generators)

    def between_points(self, a, b):
        """The points strictly between a and b, ascending."""
        return tuple(set_bits(self.between[a][b]))

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
    homology tables derived from it. `scaled` is `dist` scaled to ints as
    (scale, int rows) and `between` the betweenness table of
    `_between_rows`, when `validate_metric` has worked them out already
    for its checks; the view then reuses them.
    """

    labels: tuple
    dist: tuple
    name: str = field(default="", compare=False)
    scaled: tuple = field(default=None, compare=False, repr=False)
    between: tuple = field(default=None, compare=False, repr=False)

    @property
    def n(self):
        return len(self.labels)

    def __len__(self):
        return len(self.labels)

    def d(self, i, j):
        return self.dist[i][j]

    @cached_property
    def integer_view(self):
        return IntegerView.of(self.dist, self.scaled, self.between)

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
        """Load from a JSON string or an already-parsed dict.

        `d` must be a list of row lists. `labels`, if given and not null,
        must be a list of strings or ints, one per point; an int label is
        read as its decimal string. Any other shape raises MetricError.
        """
        if isinstance(source, (str, bytes)):
            try:
                source = json.loads(source)
            except (ValueError, RecursionError) as exc:
                # ValueError covers malformed JSON, bytes that are not
                # text, and ints past the interpreter's digit limit
                raise MetricError(f"invalid JSON: {exc}") from exc
        if not isinstance(source, dict):
            raise MetricError("expected a JSON object with 'labels' and 'd'")
        if "d" not in source:
            raise MetricError("missing required field 'd'")
        matrix = source["d"]
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise MetricError("field 'd' must be a list of rows, each a list of distances")
        labels = source.get("labels")
        if labels is not None and (
            not isinstance(labels, list)
            or not all(type(x) is str or type(x) is int for x in labels)
        ):
            raise MetricError("field 'labels' must be a list of strings or ints")
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
        """Load from CSV text: a row of labels, then the matrix rows.

        Text the csv module cannot read, such as a field broken by a bare
        carriage return, raises MetricError.
        """
        try:
            rows = [r for r in csv.reader(io.StringIO(text)) if r]
        except csv.Error as exc:
            raise MetricError(f"invalid CSV: {exc}") from exc
        if not rows:
            raise MetricError("empty CSV input")
        labels = [c.strip() for c in rows[0]]
        matrix = [[c.strip() for c in row] for row in rows[1:]]
        if len(matrix) != len(labels):
            raise MetricError(
                f"CSV has {len(labels)} labels but {len(matrix)} matrix rows"
            )
        return validate_metric(matrix, labels=labels, name=name)


def _fraction_rows(matrix):
    """The matrix's entries as Fraction rows, checked square row by row.

    Each distinct string entry is parsed once; a repeated text reuses the
    Fraction of its first occurrence. Rows are read in order and each row
    is checked for length before its entries are converted, so the first
    malformed entry in row-major order raises, as it would with no memo.
    An entry whose numerator or denominator has more digits than
    `MAX_EXPONENT`, which no length of the space could print, raises
    MetricError naming it (`_printable`).
    """
    n = len(matrix)
    parsed = {}
    rows = []
    for i, raw_row in enumerate(matrix):
        row = list(raw_row)
        if len(row) != n:
            raise NotSquare(n, len(row))
        out = []
        for j, v in enumerate(row):
            if type(v) is str:
                q = parsed.get(v)
                if q is None:
                    q = parsed[v] = _printable(parse_rational(v), i, j)
            else:
                q = _printable(_to_fraction(v, i, j), i, j)
            out.append(q)
        rows.append(out)
    return rows


def validate_metric(matrix, labels=None, name=""):
    """Check all metric axioms and return the validated space.

    Axioms are checked in a fixed order with the first witness reported:
    squareness, symmetry, positivity off the diagonal, zero diagonal,
    triangle inequality. Row-major scan order makes witnesses deterministic.
    Entries are read as `_to_fraction` reads them, each distinct string
    once. Every check after squareness compares the distances scaled to
    ints, which keep the signs and the order of the Fractions exactly. The
    triangle inequality is tested by `_between_rows`, whose betweenness
    table the space keeps for its view; only a matrix it finds short
    somewhere is scanned point by point for the first witness (i, j, k).
    """
    n = len(matrix)
    rows = _fraction_rows(matrix)

    if labels is None:
        labels = [str(i) for i in range(n)]
    else:
        labels = [str(x) for x in labels]
        if len(labels) != n:
            raise MetricError(f"{len(labels)} labels for {n} points")

    scaled = _scaled(rows)
    idist = scaled[1]
    _check_symmetric(idist)
    for i, row_i in enumerate(idist):
        for j, dij in enumerate(row_i):
            if i != j and dij <= 0:
                raise NegativeOrZeroOffDiagonal(i, j)
    for i, row_i in enumerate(idist):
        if row_i[i]:
            raise NonzeroDiagonal(i)
    between, short = _between_rows(idist)
    if short:
        for i, row_i in enumerate(idist):
            for j, row_j in enumerate(idist):
                for k in range(n):
                    if row_i[k] > row_i[j] + row_j[k]:
                        raise TriangleViolation(i, j, k)

    dist = tuple(tuple(row) for row in rows)
    return FiniteMetricSpace(
        labels=tuple(labels), dist=dist, name=name, scaled=scaled, between=between
    )


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

    Returns the largest metric dominated by the input, as a new list of
    lists of Fractions; input rows are not mutated. Entries are read as
    `validate_metric` reads them (ints, Fractions, Decimals, finite floats
    by their shortest repr, and "p/q" strings), so a row of the wrong
    length raises NotSquare. What no closure repairs is refused, each
    with its first witness in row-major order: a negative entry
    (NegativeEntry), then an asymmetric pair (AsymmetricAt), then a
    nonzero diagonal entry (NonzeroDiagonal). A zero off-diagonal entry
    is closed like any other. Floyd-Warshall runs on the entries scaled
    to ints by the lcm of their denominators, which is exact.
    """
    rows = _fraction_rows(matrix)
    scale, scaled = _scaled(rows)
    for i, row in enumerate(scaled):
        for j, v in enumerate(row):
            if v < 0:
                raise NegativeEntry(i, j, rows[i][j])
    _check_symmetric(scaled)
    for i, row in enumerate(scaled):
        if row[i]:
            raise NonzeroDiagonal(i)
    d = [list(row) for row in scaled]
    for k, dk in enumerate(d):
        for row in d:
            # row[j] = min(row[j], row[k] + d[k][j]) for every j, in place
            row[:] = map(min, row, map(row[k].__add__, dk))
    fractions = {v: Fraction(v, scale) for v in {v for row in d for v in row}}
    return [[fractions[v] for v in row] for row in d]


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
