"""Exact integer linear algebra and chain complexes over Z.

Everything here is exact: Smith normal form by integer row/column
operations, homology of finitely generated complexes as (betti, torsion),
the Kunneth formula for the homology of a product of complexes, and the
endpoint-block engine for magnitude homology. A boundary matrix is a
`SparseIntMatrix`, one dict {row: coeff} per basis chain with a smooth
face; those chains come first in each degree, so the chains without one
are trailing zero columns and are not stored. `snf` is the
one reduction routine: it reads those columns into sparse rows, clears
+-1 pivots on them and reduces only what is left densely.
Degrees may be negative; reduced complexes of order complexes start at
degree -1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DegreeOutOfRange,
    NegativeBetti,
    NotADivisorChain,
    NotASubcomplex,
    TrivialTorsionFactor,
)
from .metric import format_rational, parse_rational
from . import chains as _chains


class SparseIntMatrix:
    """A rows x cols integer matrix stored as a list of column dicts.

    `columns[c]` maps each row with a nonzero entry in column c to that
    entry; column c of a boundary matrix is the boundary of basis element
    c, and the basis elements past the last column have boundary zero
    (see `ChainComplexZ`). Construction checks every entry once: a row
    outside the matrix raises IndexError, a value that is not an int
    TypeError, and a stored zero ValueError.
    """

    def __init__(self, rows, columns):
        if rows < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.columns = columns = list(columns)
        self.cols = len(columns)
        self.nnz = sum(map(len, columns))
        for c, column in enumerate(columns):
            for r, v in column.items():
                if not 0 <= r < rows:
                    raise IndexError(f"({r}, {c}) outside {rows}x{self.cols}")
                if not isinstance(v, int):
                    raise TypeError(f"entries must be int, got {type(v).__name__}")
                if not v:
                    raise ValueError(f"zero stored at ({r}, {c})")

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        if any(len(row) != cols for row in dense):
            raise ValueError("ragged dense matrix")
        return cls(
            rows, [{r: row[c] for r, row in enumerate(dense) if row[c]} for c in range(cols)]
        )

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.columns == other.columns

    def __repr__(self):
        return f"<SparseIntMatrix {self.rows}x{self.cols} nnz={self.nnz}>"


def snf(matrix):
    """Invariant factors of an integer matrix (Smith normal form diagonal).

    Returns a tuple (d_1, ..., d_r) of positive integers with d_i | d_{i+1};
    r is the rank. A dense list of rows is read through
    `SparseIntMatrix.from_dense`.

    The column dicts are read once into sparse rows {col: value}, with an
    index from each column to the rows that have an entry in it. (Reducing
    the transpose instead, each column as a row, gives the same factors
    but took 5.7 times as many elimination steps on the endpoint blocks
    of the compute-dense benchmark.) The sparse stage clears unit pivots.
    It passes over the rows, shortest first, and in each row takes the +-1
    entry whose column has the fewest entries. Subtracting multiples of
    that row clears the rest of its column, after which column operations
    clear the row without touching anything else: the pivot row and
    column are dropped and count as one invariant factor 1. Boundary
    matrices have few entries per column, nearly all +-1, so this usually
    reduces most of the matrix. It stops when no row is left or a pass
    finds no unit entry. The rows and columns that still have
    entries go to `_smith_dense`, whose factors follow the units. A
    matrix with no entries has no factors and builds no index.
    """
    if not isinstance(matrix, SparseIntMatrix):
        matrix = SparseIntMatrix.from_dense(matrix)
    if not matrix.nnz:
        return ()
    rows = {}
    cols = {}
    for c, column in enumerate(matrix.columns):
        if column:
            cols[c] = set(column)
            for r, v in column.items():
                rows.setdefault(r, {})[c] = v
    units = 0
    found = True
    while found and rows:
        found = False
        for r in sorted(rows, key=lambda r: len(rows[r])):
            row = rows.get(r)
            if row is None:
                continue
            pc = None
            for c, v in row.items():
                if (v == 1 or v == -1) and (pc is None or len(cols[c]) < len(cols[pc])):
                    pc = c
            if pc is None:
                continue
            found = True
            units += 1
            del rows[r]
            for c in row:
                cols[c].discard(r)
            p = row[pc]
            for i in cols.pop(pc):
                target = rows[i]
                q = target[pc] * p  # target[pc] / p, as p is +-1
                for c, v in row.items():
                    new = target.get(c, 0) - q * v
                    if new:
                        if c not in target:
                            cols[c].add(i)
                        target[c] = new
                    else:
                        del target[c]
                        if c != pc:
                            cols[c].discard(i)
                if not target:
                    del rows[i]
    factors = (1,) * units
    if rows:
        index = {c: j for j, c in enumerate(sorted({c for row in rows.values() for c in row}))}
        residual = []
        for r in sorted(rows):
            dense = [0] * len(index)
            for c, v in rows[r].items():
                dense[index[c]] = v
            residual.append(dense)
        factors += _smith_dense(residual)
    if any(e % d for d, e in zip(factors, factors[1:])):
        raise NotADivisorChain(factors)
    return factors


def _smith_dense(a):
    """Invariant factors of a dense matrix, reducing the list of rows in place.

    Pivoting always picks a minimum-magnitude nonzero entry, which keeps
    intermediate integers small. `snf` calls this on what its unit pivots
    leave; the divisor-chain check is left to `snf`.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            p = a[t][t]
            # clear column t; floor quotients leave remainders in [0, p)
            dirty = None
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    qt = v // p
                    if qt:
                        pivot_row = a[t]
                        a[i] = [x - qt * y for x, y in zip(a[i], pivot_row)]
                    if a[i][t]:
                        dirty = i
            if dirty is not None:
                a[t], a[dirty] = a[dirty], a[t]
                continue
            # column t is now p*e_t, so clearing row t only touches row t
            dirty = None
            for j in range(t + 1, n):
                v = a[t][j]
                if v:
                    a[t][j] = v % p
                    if a[t][j]:
                        dirty = j
            if dirty is not None:
                for row in a:
                    row[t], row[dirty] = row[dirty], row[t]
                continue
            # cross is clean; enforce divisibility across the rest
            bad = None
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            pivot_row = a[t]
            a[t] = [x + y for x, y in zip(pivot_row, a[bad])]
        factors.append(a[t][t])
        t += 1
    return tuple(factors)


def _factorize(n):
    """Prime factorization of a positive integer by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def merge_invariant_factors(factor_lists):
    """Invariant factors of a direct sum given each summand's factors.

    Splits everything into prime-power elementary divisors, then rebuilds
    the divisibility chain by pairing the k-th largest power of each prime.
    """
    exps = {}
    for factors in factor_lists:
        for f in factors:
            if f == 1:
                continue
            for p, e in _factorize(f).items():
                exps.setdefault(p, []).append(e)
    if not exps:
        return ()
    for p in exps:
        exps[p].sort(reverse=True)
    width = max(len(v) for v in exps.values())
    chain = []
    for k in range(width):
        val = 1
        for p, powers in exps.items():
            if k < len(powers):
                val *= p ** powers[k]
        chain.append(val)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: Z^betti + sum of Z/d_i."""

    betti: int
    torsion: tuple = ()

    def __post_init__(self):
        if any(e % d for d, e in zip(self.torsion, self.torsion[1:])):
            raise NotADivisorChain(self.torsion)
        if any(d <= 1 for d in self.torsion):
            raise TrivialTorsionFactor(self.torsion)

    def is_trivial(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @staticmethod
    def direct_sum(groups):
        groups = list(groups)
        betti = sum(g.betti for g in groups)
        torsion = merge_invariant_factors([g.torsion for g in groups])
        return HomologyGroup(betti, torsion)


TRIVIAL_GROUP = HomologyGroup(0, ())


class ChainComplexZ:
    """A bounded chain complex of free Z-modules.

    Degrees run lo..hi inclusive. `boundaries[k]` is the map from degree k
    to degree k-1 for lo < k <= hi; the map out of degree lo is zero by
    convention (there is nothing below). A boundary has `size(k - 1)` rows
    and at most `size(k)` columns: the basis elements past its last column
    map to zero, so a basis ordered with its cycles last needs no column
    for them. Construction checks that the square of the boundary is zero.
    """

    def __init__(self, lo, sizes, boundaries=None):
        self.lo = lo
        self.sizes = list(sizes)
        if any(s < 0 for s in self.sizes):
            raise ValueError("negative dimension")
        self.boundaries = {}
        boundaries = boundaries or {}
        for k in range(lo + 1, lo + len(self.sizes)):
            mat = boundaries.get(k)
            if mat is None:
                mat = SparseIntMatrix(self.size(k - 1), [])
            if mat.rows != self.size(k - 1) or mat.cols > self.size(k):
                raise ValueError(
                    f"boundary at degree {k} is {mat.rows}x{mat.cols}, "
                    f"expected {self.size(k - 1)} rows and at most {self.size(k)} columns"
                )
            self.boundaries[k] = mat
        for k in list(boundaries):
            if not lo < k <= self.hi:
                raise ValueError(f"boundary at degree {k} outside range")
        self.check_d_squared()
        self._snf_cache = {}

    @property
    def hi(self):
        return self.lo + len(self.sizes) - 1

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def size(self, k):
        if not self.lo <= k <= self.hi:
            return 0
        return self.sizes[k - self.lo]

    def boundary(self, k):
        if not self.lo < k <= self.hi:
            raise DegreeOutOfRange(k, self.lo + 1, self.hi)
        return self.boundaries[k]

    def check_d_squared(self):
        """Raise ValueError naming the first column whose d(d(column)) is nonzero."""
        for k in range(self.lo + 2, self.hi + 1):
            below = self.boundaries[k - 1].columns
            stored = len(below)
            for c, column in enumerate(self.boundaries[k].columns):
                image = {}
                for r, v in column.items():
                    if r >= stored:  # no column: its boundary is zero
                        continue
                    for s, w in below[r].items():
                        image[s] = image.get(s, 0) + v * w
                if any(image.values()):
                    raise ValueError(
                        f"boundary squared is nonzero at degree {k}, column {c}"
                    )

    def _factors(self, k):
        """Invariant factors of the boundary map at degree k (cached)."""
        if not self.lo < k <= self.hi:
            return ()
        if k not in self._snf_cache:
            self._snf_cache[k] = snf(self.boundaries[k])
        return self._snf_cache[k]

    def homology(self, k):
        """H_k as a HomologyGroup; a zero group is the shared TRIVIAL_GROUP."""
        if not self.lo <= k <= self.hi:
            raise DegreeOutOfRange(k, self.lo, self.hi)
        rank_out = len(self._factors(k))
        factors_in = self._factors(k + 1)
        betti = self.size(k) - rank_out - len(factors_in)
        if betti < 0:
            raise NegativeBetti(k, betti)
        torsion = tuple(d for d in factors_in if d > 1)
        if not betti and not torsion:
            return TRIVIAL_GROUP
        return HomologyGroup(betti, torsion)

    def homology_or_trivial(self, k):
        """Homology at k, with degrees outside the range counting as 0."""
        if not self.lo <= k <= self.hi:
            return TRIVIAL_GROUP
        return self.homology(k)

    def homology_all(self):
        return {k: self.homology(k) for k in self.degrees()}

    def euler_characteristic(self):
        return sum((1 if k % 2 == 0 else -1) * self.size(k) for k in self.degrees())

    def __repr__(self):
        return f"<ChainComplexZ degrees {self.lo}..{self.hi} sizes {self.sizes}>"


def kunneth(h, h2):
    """Homology of the tensor product of two free complexes over Z.

    `h` and `h2` map degrees to the nonzero homology groups of two bounded
    complexes of free Z-modules, such as `ChainComplexZ` holds, and so
    does the result. By the Kunneth formula, H_k of the product is the
    direct sum of H_i (x) H'_j over i + j = k and of Tor(H_i, H'_j) over
    i + j = k - 1. For H = Z^a + sum Z/d and H' = Z^b + sum Z/e, H (x) H'
    is Z^ab + (Z/d)^b + (Z/e)^a + sum Z/gcd(d, e), and Tor(H, H') is
    sum Z/gcd(d, e). No product complex is built.
    """
    betti = {}
    factors = {}
    for i, g in h.items():
        for j, g2 in h2.items():
            k = i + j
            betti[k] = betti.get(k, 0) + g.betti * g2.betti
            if g.torsion or g2.torsion:
                cross = [gcd(d, e) for d in g.torsion for e in g2.torsion]
                factors.setdefault(k, []).extend(
                    (g.torsion * g2.betti, g2.torsion * g.betti, cross)
                )
                factors.setdefault(k + 1, []).append(cross)
    out = {}
    for k in sorted(betti.keys() | factors.keys()):
        group = HomologyGroup(betti.get(k, 0), merge_invariant_factors(factors.get(k, ())))
        if not group.is_trivial():
            out[k] = group
    return out


def complex_from_bases(space, bases_by_degree, lo, hi):
    """The chain complex spanned by the given proper chains, degrees lo..hi.

    `bases_by_degree[k]` lists the basis at degree k, each chain a
    ProperChain or a tuple of points; a missing degree is empty. Every
    boundary term of every basis chain must again lie in the basis one
    degree down (NotASubcomplex otherwise); at the bottom degree the
    boundary must vanish outright. Each degree is ordered faced-first: the
    chains with a smooth face, then those without, each in the order
    given. Column c of the boundary at degree k is the dict {row of face:
    sign} of the faces of chain c, read from `chains.smooth_faces`, and a
    chain with no face gets no column, so those are the boundary's
    trailing zero columns. d^2 = 0 is checked on construction.
    """
    between = space.integer_view.between
    sizes = []
    boundaries = {}
    index = None
    for k in range(lo, hi + 1):
        faced = []
        faceless = []
        columns = []
        for ch in bases_by_degree.get(k, ()):
            pts = tuple(ch)
            faces = _chains.smooth_faces(between, pts)
            if not faces:
                faceless.append(pts)
                continue
            if index is None:
                raise NotASubcomplex(f"chain {pts} at bottom degree {k} has nonzero boundary")
            column = {}
            for face, sign in faces:
                r = index.get(face)
                if r is None:
                    raise NotASubcomplex(
                        f"boundary term {face} of {pts} "
                        f"is outside the subcomplex basis at degree {k - 1}"
                    )
                column[r] = sign
            faced.append(pts)
            columns.append(column)
        if index is not None:
            boundaries[k] = SparseIntMatrix(len(index), columns)
        sizes.append(len(faced) + len(faceless))
        if k < hi:
            index = {pts: r for r, pts in enumerate(faced + faceless)}
    return ChainComplexZ(lo, sizes, boundaries)


@dataclass(frozen=True)
class HomologyRow:
    """One (length, degree) entry of a magnitude homology table."""

    l: Fraction
    n: int
    group: HomologyGroup

    def to_json_dict(self):
        return {
            "l": format_rational(self.l),
            "n": self.n,
            "betti": self.group.betti,
            "torsion": list(self.group.torsion),
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            l=parse_rational(d["l"]),
            n=int(d["n"]),
            group=HomologyGroup(int(d["betti"]), tuple(int(t) for t in d["torsion"])),
        )


def block_homology_rows(space, gradings, n_max, cap=None):
    """Magnitude homology rows of several length gradings, degrees 0..n_max.

    The endpoint-block engine. The boundary never removes a chain's
    endpoints, so the complex of each grading is the direct sum over
    endpoint pairs (a, b) of the complexes of chains from a to b. The
    blocks of all gradings come from one search, `chains.block_chains`:
    every chain up to degree n_max, and at degree n_max + 1, whose only
    role is the incoming boundary at n_max, just the chains with a smooth
    face. It gives only the blocks with a <= b: reversing chains maps
    block (l, a, b) isomorphically onto (l, b, a), so the groups of an
    a < b block are counted twice and those of an a = b block once. Each
    block is assembled over the degrees from its lowest to its highest
    with chains, with no column for a chain without a face, reduced on
    its own, and counts as zero at the degrees outside; the groups are
    summed. The cap counts the steps of that search, which searches both
    directions but inserts top chains only into the blocks it gives. Rows
    come grading by grading in the order given, degrees ascending.

    `posets.magnitude_homology_rows` sends only gradings l >= m_X here;
    `verify` compares the frame decomposition against this full complex.
    """
    gradings = [Fraction(l) for l in gradings]
    for l in gradings:
        if l < 0:
            raise ValueError(f"length must be >= 0, got {l}")
    if n_max < -1:
        raise ValueError(f"n_max must be >= -1, got {n_max}")
    view = space.integer_view
    # a length that is no scaled int (None) is that of no chain
    totals = {view.scaled(l) for l in gradings} - {None}
    parts = {}
    for total, (a, b), bases in _chains.block_chains(space, totals, n_max, cap):
        cx = complex_from_bases(space, bases, min(bases), max(bases))
        for n in range(n_max + 1):
            group = cx.homology_or_trivial(n)
            if not group.is_trivial():
                parts.setdefault((total, n), []).extend((group, group) if a < b else (group,))
    return [
        HomologyRow(l, n, HomologyGroup.direct_sum(parts.get((view.scaled(l), n), ())))
        for l in gradings
        for n in range(n_max + 1)
    ]


class HomologyTable:
    """Rows of magnitude homology sorted by (length, degree)."""

    def __init__(self, rows):
        self.rows = sorted(rows, key=lambda r: (r.l, r.n))

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def group(self, l, n):
        l = Fraction(l)
        for row in self.rows:
            if row.l == l and row.n == n:
                return row.group
        return None

    def to_json(self, indent=None):
        return json.dumps(
            [r.to_json_dict() for r in self.rows], indent=indent, sort_keys=True
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls([HomologyRow.from_json_dict(d) for d in data])

    def to_csv(self):
        lines = ["l,n,betti,torsion"]
        for r in self.rows:
            tor = ";".join(str(t) for t in r.group.torsion)
            lines.append(f"{format_rational(r.l)},{r.n},{r.group.betti},{tor}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        rows = []
        lines = [ln for ln in text.strip().splitlines() if ln]
        for ln in lines[1:]:
            l, n, betti, tor = ln.split(",")
            torsion = tuple(int(t) for t in tor.split(";") if t)
            rows.append(HomologyRow(parse_rational(l), int(n), HomologyGroup(int(betti), torsion)))
        return cls(rows)

    def to_table(self):
        """Human-readable fixed-width rendering."""
        header = ("l", "n", "betti", "torsion")
        body = []
        for r in self.rows:
            tor = ";".join(str(t) for t in r.group.torsion) or "-"
            body.append((format_rational(r.l), str(r.n), str(r.group.betti), tor))
        widths = [
            max(len(header[c]), *(len(row[c]) for row in body)) if body else len(header[c])
            for c in range(4)
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
