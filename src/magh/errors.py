"""Exception types shared across the package.

Every error carries its witness indices as attributes so callers (and the
CLI) can report exactly where a precondition failed.
"""


class MaghError(Exception):
    """Base class for all errors raised by this package."""


class MetricError(MaghError, ValueError):
    """A distance matrix violates one of the metric-space axioms."""


class NotSquare(MetricError):
    def __init__(self, rows, cols):
        super().__init__(f"matrix is not square: {rows} rows, {cols} columns")
        self.rows = rows
        self.cols = cols


class AsymmetricAt(MetricError):
    def __init__(self, i, j):
        super().__init__(f"d[{i}][{j}] != d[{j}][{i}]")
        self.i = i
        self.j = j


class NegativeOrZeroOffDiagonal(MetricError):
    def __init__(self, i, j):
        super().__init__(f"d[{i}][{j}] must be positive for distinct points")
        self.i = i
        self.j = j


class NonzeroDiagonal(MetricError):
    def __init__(self, i):
        super().__init__(f"d[{i}][{i}] must be zero")
        self.i = i


class TriangleViolation(MetricError):
    def __init__(self, i, j, k):
        super().__init__(f"d[{i}][{k}] > d[{i}][{j}] + d[{j}][{k}]")
        self.i = i
        self.j = j
        self.k = k


class NTooSmall(MaghError, ValueError):
    def __init__(self, n, minimum):
        super().__init__(f"need at least {minimum} points, got {n}")
        self.n = n
        self.minimum = minimum


class NegativeEntry(MaghError, ValueError):
    def __init__(self, i, j, value):
        super().__init__(f"entry [{i}][{j}] = {value} is negative")
        self.i = i
        self.j = j
        self.value = value


class EnumerationCapExceeded(MaghError, RuntimeError):
    """Work past the enumeration cap.

    `count` is in the steps of whichever search refused: the chains of a
    whole degree for `enumerate_proper_chains` and the d^2 check, checked before
    any is built; the prefixes kept (chains of degree <= n_max no longer
    than the largest grading) plus the top-degree insertions kept so far
    into the blocks (a, b) with a <= b for the endpoint-block engine; the
    prefixes kept so far for a frame subcomplex or a whole grading's
    frame subcomplexes; the tuples visited so far for the frame search;
    the (state, next point) transitions through the degree that passes
    the cap for the length spectrum count.
    """

    def __init__(self, count, cap):
        super().__init__(
            f"enumeration reaches {count} steps, past the cap of {cap} "
            f"(raise the cap explicitly to proceed)"
        )
        self.count = count
        self.cap = cap


class CapNotAnInteger(MaghError, ValueError):
    """An enumeration cap given as text that is not an integer."""

    def __init__(self, source, text):
        super().__init__(f"{source} must be an integer, got {text!r}")
        self.source = source
        self.text = text


class DegreeOutOfRange(MaghError, IndexError):
    def __init__(self, degree, lo, hi):
        super().__init__(f"degree {degree} outside complex range [{lo}, {hi}]")
        self.degree = degree
        self.lo = lo
        self.hi = hi


class SamePoint(MaghError, ValueError):
    def __init__(self, index):
        super().__init__(f"need two distinct points, got index {index} twice")
        self.index = index


class NotASubcomplex(MaghError, AssertionError):
    """Boundary left a frame subcomplex basis.

    This never fires for a correct implementation; it exists so the closure
    assertion has a named, catchable failure mode.
    """

    def __init__(self, detail):
        super().__init__(detail)
        self.detail = detail


class ImproperFrame(MaghError, AssertionError):
    """A geodesically simple chain whose frame repeats a point.

    A simple chain is as long as its frame, and a point repeated around a
    dropped one would make the frame shorter, so a correct `frame` never
    gives one; the frame decomposition relies on frames being proper.
    """

    def __init__(self, chain, frame):
        super().__init__(f"simple chain {tuple(chain)} has improper frame {tuple(frame)}")
        self.chain = tuple(chain)
        self.frame = tuple(frame)


class UnrealizedFrame(MaghError, AssertionError):
    """A frame below m_X that fails `is_realized_frame`.

    Below m_X no junction can be smoothed by inserting interval points,
    so every frame is realized and the frame route may count its
    geodesically simple chains through interval posets; a frame that is
    not would make that count wrong, so the route refuses it.
    """

    def __init__(self, frame, length):
        super().__init__(f"frame {tuple(frame)} of length {length} below m_X is not realized")
        self.frame = tuple(frame)
        self.length = length


class NotADivisorChain(MaghError, AssertionError):
    """Invariant factors that do not divide each other in order.

    Smith normal form and direct sums always produce d_1 | d_2 | ...; a
    chain that breaks this is a bug, reported with the offending factors.
    """

    def __init__(self, factors):
        super().__init__(f"invariant factors {tuple(factors)} are not a divisor chain")
        self.factors = tuple(factors)


class TrivialTorsionFactor(MaghError, AssertionError):
    """A torsion list that contains a factor of 1 or less."""

    def __init__(self, torsion):
        super().__init__(f"torsion factors must all exceed 1, got {tuple(torsion)}")
        self.torsion = tuple(torsion)


class NegativeBetti(MaghError, AssertionError):
    """Rank bookkeeping gave a negative Betti number at some degree."""

    def __init__(self, degree, betti):
        super().__init__(f"betti number {betti} at degree {degree} is negative")
        self.degree = degree
        self.betti = betti


class SelfBetweenness(MaghError, AssertionError):
    """A point counted strictly between some point and itself.

    d(a, a) = 0 can equal d(a, c) + d(c, a) only when a distance is not
    positive, so no validated space has one; the boundary and the frame
    code rely on x_{i-1} != x_{i+1} around every smooth point.
    """

    def __init__(self, a, c):
        super().__init__(f"point {c} lies strictly between {a} and itself")
        self.a = a
        self.c = c


class AsymmetricTable(MaghError, AssertionError):
    """A distance or betweenness table of an IntegerView that is not symmetric.

    `table` names it ("idist" or "between"), and entry [i][j] differs from
    [j][i]. A validated space has symmetric tables; the endpoint-block
    engine relies on it to reduce one block of each reversed pair.
    """

    def __init__(self, table, i, j):
        super().__init__(f"{table}[{i}][{j}] != {table}[{j}][{i}]")
        self.table = table
        self.i = i
        self.j = j


class NotAPartialOrder(MaghError, AssertionError):
    """The order on an interval poset failed one of its checks.

    `kind` names the check: "two-sided agreement" of the order's two
    formulations, "antisymmetry" or "transitivity"; `witness` holds the
    points that broke it.
    """

    def __init__(self, a, b, kind, witness):
        super().__init__(f"{kind} fails on {tuple(witness)} in I({a}, {b})")
        self.a = a
        self.b = b
        self.kind = kind
        self.witness = tuple(witness)
