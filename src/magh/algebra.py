"""Exact integer linear algebra and the homology of complexes over Z.

Everything here is exact: Smith normal form by integer row/column
operations, homology of finitely generated complexes as (betti, torsion),
the Kunneth formula for the homology of a product of complexes, and the
endpoint-block engine for magnitude homology. A boundary is a list of
column dicts {row: coeff}, one per basis chain with a smooth face; those
chains come first in each degree, so the chains without one are
trailing zero columns and are not stored. `snf` is the one reduction
routine, and `_eliminate` the one elimination behind it: it takes a
matrix held both by sparse rows and by columns, reads a single row or
column off as the gcd of its entries, clears +-1 pivots on the rows and
reduces only what is left densely. `snf` reads a `SparseIntMatrix`'s
columns into rows for it, unless the matrix came with its rows.
`groups_from_columns` is the one step from the boundary columns of one
complex to its groups: it checks d^2 = 0 on them, reduces each nonempty
boundary once and reads the nonzero groups off the invariant factors;
`posets` hands it the augmented columns of each interval's order
complex. A chain record is (points, mask), with bit i of mask set iff
x_i is strictly smooth, so the one assembly, `_assemble`, writes each
column from the mask and tests no point for smoothness. It assembles
several complexes, blocks, in one pass, each with its own rows, and
writes each boundary entry once into its column and once into its row,
so `snf` gets each boundary's rows as they were made. The endpoint-block
engine hands it the representative endpoint blocks of one start point
at a time (`_blocks_homology`): d^2 = 0 checked on the columns of all
of them before any is reduced, each block's boundary at each degree
reduced on its own, and betti numbers and torsion factors per block,
summed into one group per grading and degree. `frames.frame_pieces`
hands the same call the frame pieces of one start point. No complex
object is built: a complex is its lowest degree, its ranks and its
boundaries.
Degrees may be negative; reduced complexes of order complexes start at
degree -1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    NegativeBetti,
    NotADivisorChain,
    NotASubcomplex,
    TrivialTorsionFactor,
)
from .metric import format_rational, parse_rational, set_bits
from . import chains as _chains


class SparseIntMatrix:
    """A rows x cols integer matrix stored as a list of column dicts.

    `columns[c]` maps each row with a nonzero entry in column c to that
    entry; column c of a boundary matrix is the boundary of basis element
    c, and the basis elements past the last column have boundary zero.
    Construction checks every entry once: a row outside the matrix raises
    IndexError, a value that is not an int TypeError, and a stored zero
    ValueError.

    `_assembled` is the one constructor that skips those checks. Only the
    boundary assemblies use it (`_assemble` and `posets._reduced_columns`,
    through their callers), on columns they made themselves: each entry is
    a sign +-1 at the row of a face found in the index of the degree
    below, so the checks could not fail there. Every other caller goes
    through `SparseIntMatrix(rows, columns)`.
    """

    # the sparse rows {row: {col: value}} an assembly wrote beside the
    # columns (`_assembled`); None when `snf` reads them off the columns
    _by_rows = None

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
    def _assembled(cls, rows, columns, by_rows=None):
        """The matrix of columns an assembly made, without the entry checks.

        `columns` is a list of nonempty dicts {row: +-1} with every row in
        range(rows); it is kept, not copied. `by_rows`, if given, holds
        the same entries by rows, {row: {col: +-1}} for each row with one:
        `snf` then reduces those rows and the columns in place instead of
        copying them, and the matrix is spent, its columns None.
        """
        matrix = cls.__new__(cls)
        matrix.rows = rows
        matrix.columns = columns
        matrix.cols = len(columns)
        matrix.nnz = sum(map(len, columns))
        matrix._by_rows = by_rows
        return matrix

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
    `SparseIntMatrix.from_dense`. A copy of each column with entries and
    the sparse rows read off them go to `_eliminate`; dropping the empty
    columns changes no factor. A matrix assembled with its rows
    (`SparseIntMatrix._assembled`) hands both over as they are, to be
    reduced in place.
    """
    if not isinstance(matrix, SparseIntMatrix):
        matrix = SparseIntMatrix.from_dense(matrix)
    rows = matrix._by_rows
    if rows is not None:
        columns = matrix.columns
        matrix._by_rows = matrix.columns = None
        return _eliminate(rows, columns)
    columns = [dict(column) for column in matrix.columns if column]
    rows = {}
    for c, column in enumerate(columns):
        for r, v in column.items():
            rows.setdefault(r, {})[c] = v
    return _eliminate(rows, columns)


def _eliminate(rows, columns):
    """Invariant factors of a sparse integer matrix, reducing it in place.

    The matrix is held twice, by rows and by columns: `rows` maps each
    row with an entry to its dict {col: value}, and `columns` lists the
    columns, each with an entry, as dicts {row: value}. `snf` reads a
    matrix's columns into them, or takes both from a matrix the
    endpoint-block assembly (`_assemble`) wrote each entry of twice.
    Both are reduced together. A matrix with no entries has no factors,
    and one with a single row or column has the gcd of its entries as
    its one factor.

    (Reducing the transpose instead, each column as a row, gives the same
    factors but took 5.7 times as many elimination steps on the endpoint
    blocks of the compute-dense benchmark.) The sparse stage clears unit
    pivots. It passes over the rows, shortest first, and in each row takes
    the +-1 entry whose column has the fewest entries. Subtracting
    multiples of that row clears the rest of its column, after which
    column operations clear the row without touching anything else: the
    pivot row and column are dropped and count as one invariant factor 1.
    Boundary matrices have few entries per column, nearly all +-1, so this
    usually reduces most of the matrix. It stops when no row is left or a
    pass finds no unit entry. The rows and columns that still have
    entries go to `_smith_dense`, whose factors follow the units.
    """
    if not rows:
        return ()
    # a single row or column has one factor, the gcd of its entries
    if len(columns) == 1:
        return (gcd(*columns[0].values()),)
    if len(rows) == 1:
        [row] = rows.values()
        return (gcd(*row.values()),)
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
                if (v == 1 or v == -1) and (pc is None or len(columns[c]) < len(columns[pc])):
                    pc = c
            if pc is None:
                continue
            found = True
            units += 1
            del rows[r]
            for c in row:
                del columns[c][r]
            p = row[pc]
            pivot = columns[pc]
            columns[pc] = None
            for i in pivot:
                target = rows[i]
                q = target[pc] * p  # target[pc] / p, as p is +-1
                for c, v in row.items():
                    new = target.get(c, 0) - q * v
                    if new:
                        target[c] = columns[c][i] = new
                    else:
                        del target[c]
                        if c != pc:
                            del columns[c][i]
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
        # units alone are all 1 and divide each other; only the dense
        # stage's factors can break the chain
        if any(e % d for d, e in zip(factors, factors[1:])):
            raise NotADivisorChain(factors)
    return factors


def _smith_dense(a):
    """Invariant factors of a dense matrix, reducing the list of rows in place.

    Pivoting always picks a minimum-magnitude nonzero entry, which keeps
    intermediate integers small. `_eliminate` calls this on what its unit
    pivots leave; the divisor-chain check is left to `_eliminate`.
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
        if self.torsion:
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


def _check_d_squared(boundaries):
    """Raise ValueError naming the first column whose d(d(column)) is nonzero.

    `boundaries` maps each degree k, ascending, to the column dicts of the
    boundary out of k; a column past the last one below is zero there.
    """
    for k, columns in boundaries.items():
        below = boundaries.get(k - 1)
        if not below:  # the map below is zero
            continue
        stored = len(below)
        for c, column in enumerate(columns):
            image = {}
            for r, v in column.items():
                if r >= stored:  # no column: its boundary is zero
                    continue
                for s, w in below[r].items():
                    image[s] = image.get(s, 0) + v * w
            if any(image.values()):
                raise ValueError(f"boundary squared is nonzero at degree {k}, column {c}")


def _homology(lo, sizes, factors):
    """[(degree, betti, torsion)] of a complex, for the degrees where it is nonzero.

    `sizes` lists the ranks of degrees lo, lo + 1, ...; `factors[k]` holds
    the invariant factors of the boundary out of degree k, and a degree
    missing from it has a zero boundary. H_k has betti number size(k) -
    rank(d_k) - rank(d_{k+1}) and the factors of d_{k+1} above 1 as its
    torsion; a negative betti number raises NegativeBetti.
    """
    out = []
    for k, size in enumerate(sizes, lo):
        into = factors.get(k + 1, ())
        betti = size - len(factors.get(k, ())) - len(into)
        if betti < 0:
            raise NegativeBetti(k, betti)
        torsion = into[into.count(1) :]  # a divisor chain puts its 1s first
        if betti or torsion:
            out.append((k, betti, torsion))
    return out


def kunneth(h, h2):
    """Homology of the tensor product of two free complexes over Z.

    `h` and `h2` map degrees to the nonzero homology groups of two bounded
    complexes of free Z-modules, as `groups_from_columns` returns them,
    and so does the result. By the Kunneth formula, H_k of the product is
    the direct sum of H_i (x) H'_j over i + j = k and of Tor(H_i, H'_j)
    over i + j = k - 1. For H = Z^a + sum Z/d and H' = Z^b + sum Z/e, H (x) H'
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


# mask -> [(i, (-1)^i) for each set bit i of mask]: a memo of a pure
# function, filled as masks are met; chains of degree <= n have fewer than
# 2^n masks
_SIGNED_BITS = {}


def _assemble(blocks):
    """The sizes and boundaries of complexes spanned by given chains.

    `blocks` lists complexes, each as chain records by degree:
    `records[k]` lists its chains of degree k as records (points, mask),
    bit i of mask set iff x_i is strictly smooth. A block runs over the
    degrees from its lowest to its highest key, and a degree missing in
    between is empty. Returns, per block, (lo, sizes, boundaries, rows):
    `sizes` lists its rank at each degree lo, lo + 1, ..., and
    `boundaries[k]`, for each degree k above lo, the column dicts of its
    boundary out of k: one column per chain with a smooth face, and the
    rows of each degree ordered the same way, the chains with a face
    first, each in the order given. The column of a chain is {row of the
    face without x_i: (-1)^i for each bit i of its mask}. Each entry is
    written once more, into the sparse rows {row: {col: sign}} of its
    boundary, `rows[k]` for each boundary with a column, so each boundary
    goes to `_eliminate` as its rows and columns as they are made.

    The blocks are direct summands: each indexes its own chains of each
    degree, so a face counts only in its own chain's block, and a face
    missing from the block one degree down, or a face at the block's
    bottom degree, raises NotASubcomplex. The masks are trusted: the
    searches make them as they build the chains.
    """
    signed = _SIGNED_BITS
    out = []
    for records in blocks:
        lo = min(records)
        hi = max(records)
        # index: each chain of the degree last assembled to its row
        index = {}
        for r, (pts, mask) in enumerate(records[lo]):
            if mask:
                raise NotASubcomplex(f"chain {pts} at bottom degree {lo} has nonzero boundary")
            index[pts] = r
        sizes = [len(index)]
        boundaries = {}
        by_rows = {}
        out.append((lo, sizes, boundaries, by_rows))
        for k in range(lo + 1, hi + 1):
            # the top degree's rows are never looked up
            keep = k < hi
            below = index
            index = {}
            faceless = []
            columns = []
            rows = {}
            c = 0
            for pts, mask in records.get(k, ()):
                if not mask:
                    faceless.append(pts)
                    continue
                spots = signed.get(mask)
                if spots is None:
                    spots = signed[mask] = [(i, -1 if i & 1 else 1) for i in set_bits(mask)]
                column = {}
                for i, sign in spots:
                    face = pts[:i] + pts[i + 1 :]
                    r = below.get(face)
                    if r is None:
                        raise NotASubcomplex(
                            f"boundary term {face} of {pts} "
                            f"is outside the subcomplex basis at degree {k - 1}"
                        )
                    column[r] = sign
                    row = rows.get(r)
                    if row is None:
                        rows[r] = {c: sign}
                    else:
                        row[c] = sign
                columns.append(column)
                if keep:
                    index[pts] = c
                c += 1
            boundaries[k] = columns
            if columns:
                by_rows[k] = rows
            if keep:
                index.update(zip(faceless, range(c, c + len(faceless))))
            sizes.append(c + len(faceless))
    return out


def groups_from_columns(lo, sizes, boundaries):
    """The nonzero homology of a complex given by its boundary columns.

    `sizes` lists the ranks of degrees lo, lo + 1, ...; `boundaries` maps
    each degree k, ascending, to the column dicts {row: +-1} of the
    boundary out of k, a complex assembled by the caller (`_assemble`, or
    the reduced order complexes of `posets`), with any chain that has no
    column last in its degree. This is the one step from columns to the
    groups of one complex: d^2 = 0 is checked on the columns (ValueError
    otherwise, also under `python -O`), each boundary with entries is
    reduced once by `snf`, and the groups are read off by `_homology`.
    Returns {degree: group} for the degrees where the homology is
    nonzero.
    """
    _check_d_squared(boundaries)
    factors = {
        k: snf(SparseIntMatrix._assembled(sizes[k - 1 - lo], columns))
        for k, columns in boundaries.items()
        if columns
    }
    return {k: HomologyGroup(betti, torsion) for k, betti, torsion in _homology(lo, sizes, factors)}


def _blocks_homology(blocks):
    """The homology of each of several complexes of chain records, assembled together.

    `blocks` lists complexes as `_assemble` takes them: the endpoint
    blocks of one start point in the engine, the frame pieces of one
    start point in `frames.frame_pieces`. They are assembled in one
    pass, d^2 = 0 is checked on every block before any is reduced
    (ValueError otherwise, also under `python -O`), and `snf` reduces
    each block's boundary at each degree on its own, from the rows and
    columns the assembly wrote: elimination never crosses blocks. Returns, per block, [(degree, betti, torsion)] for the
    degrees where its homology is nonzero, as `_homology` reads them;
    a negative betti number in any block raises NegativeBetti, so no
    block's can hide in a sum. No HomologyGroup is built.
    """
    assembled = _assemble(blocks)
    for _, _, boundaries, _ in assembled:
        if len(boundaries) > 1:  # one map composes with nothing
            _check_d_squared(boundaries)
    return [
        _homology(
            lo,
            sizes,
            {
                k: snf(SparseIntMatrix._assembled(sizes[k - 1 - lo], boundaries[k], rows))
                for k, rows in by_rows.items()
            },
        )
        for lo, sizes, boundaries, by_rows in assembled
    ]


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
    every chain below degree n_max, and at n_max every chain but the
    faceless ones it cancels against a one-face top chain; at degree
    n_max + 1, whose only role is the incoming boundary at n_max, just the
    chains with a face that is not cancelled, whose masks hold only those
    faces. The cancelled pairs change only H_{n_max + 1}, and a block
    whose chains all cancel is not given. It gives only the orbit
    representatives of `IntegerView.pair_orbits`: an isometry g maps
    block (l, a, b) isomorphically onto (l, g a, g b), and reversing
    chains maps it onto (l, b, a), so the groups of a representative are
    counted as many times as its orbit has pairs. The search hands on the
    blocks of one start point a at a time, and they go, with the
    smooth-position masks the search made, to `_blocks_homology`, which
    assembles them in one pass, each over the degrees from its lowest to
    its highest with chains and with no column for a chain without a
    face, checks d^2 = 0 on every block before reducing any, and reduces
    each block on its own. Their betti numbers up to n_max, times the
    orbit weights, are summed and their torsion factors gathered as many
    times per grading and degree, and each group is made once, from the
    sums: no group is made per block. A block counts as zero at the
    degrees outside its own. The cap counts the steps of that search,
    which searches only from the representatives' start points and counts
    top chains only for the blocks it gives, and only those it hands on.
    Rows come grading by grading in the order given, degrees ascending.

    Each grading's groups are kept per n_max on the space's
    `IntegerView.block_groups`, so a grading already held costs no search
    and no cap step; only the gradings lacking are searched, together
    (`_block_groups`, which `verify` reads by scaled length).

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
    totals = [view.scaled(l) for l in gradings]
    rows = []
    for l, groups in zip(gradings, _block_groups(space, totals, n_max, cap)):
        rows.extend(HomologyRow(l, n, group) for n, group in enumerate(groups))
    return rows


def _block_groups(space, totals, n_max, cap=None):
    """The engine's groups of degrees 0..n_max at each length of `totals`.

    `totals` are lengths as scaled ints of the space's IntegerView, or
    None for a length that is no scaled int, the length of no chain.
    Returns, for each in the order given, the tuple of its n_max + 1
    groups as `block_homology_rows` describes them, read off the space's
    `IntegerView.block_groups` after the lengths it lacks are searched
    together; no Fraction and no row is made. Each orbit representative's
    groups count by its orbit's size, `pair_orbits.weights`.
    """
    view = space.integer_view
    held = view.block_groups.setdefault(n_max, {})
    # a length that is no scaled int (None) is that of no chain
    lacking = set(totals) - held.keys() - {None}
    if lacking:
        # (total, n) -> the betti number and the torsion factor lists summed
        betti = {}
        torsion = {}
        weights = view.pair_orbits.weights
        for blocks in _chains.block_chains(space, lacking, n_max, cap):
            homology = _blocks_homology([records for _, _, records in blocks])
            for (total, pair, _), groups in zip(blocks, homology):
                times = weights[pair]
                for n, rank, factors in groups:
                    if n <= n_max:
                        key = total, n
                        betti[key] = betti.get(key, 0) + times * rank
                        if factors:
                            torsion.setdefault(key, []).extend((factors,) * times)
        for total in lacking:
            held[total] = tuple(
                HomologyGroup(
                    betti.get((total, n), 0),
                    merge_invariant_factors(torsion.get((total, n), ())),
                )
                for n in range(n_max + 1)
            )
    none = (TRIVIAL_GROUP,) * (n_max + 1)
    return [held.get(total, none) for total in totals]


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
