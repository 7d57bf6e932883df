"""Independent oracles the tests compare the package against.

Nothing here reuses package machinery beyond the metric object: chains
come from itertools filters, ranks from dense rational elimination, Smith
normal form from a textbook first-nonzero-pivot reduction, four-cuts
from a three-condition quadruple scan, and triangle witnesses from a
row-major scan. All distance arithmetic is on Fractions. The one
exception is `tensor`, which builds the product of two package complexes
basis element by basis element, so that reducing it checks `kunneth`,
which never builds one. Slow on purpose; oracle scale only.
"""

import itertools
from fractions import Fraction
from math import gcd

from magh.algebra import ChainComplexZ, SparseIntMatrix


def naive_chains(space, n, l=None):
    """All proper n-chains as tuples, optionally filtered by exact length."""
    out = []
    for pts in itertools.product(range(space.n), repeat=n + 1):
        if any(a == b for a, b in zip(pts, pts[1:])):
            continue
        if l is not None:
            total = sum(
                (space.d(a, b) for a, b in zip(pts, pts[1:])), Fraction(0)
            )
            if total != Fraction(l):
                continue
        out.append(pts)
    return out


def naive_boundary_matrix(space, l, n):
    """Dense integer matrix of the degree-n boundary at grading l."""
    rows = naive_chains(space, n - 1, l)
    cols = naive_chains(space, n, l)
    row_index = {pts: r for r, pts in enumerate(rows)}
    dense = [[0] * len(cols) for _ in rows]
    for c, pts in enumerate(cols):
        for i in range(1, n):
            a, mid, b = pts[i - 1], pts[i], pts[i + 1]
            if mid == a or mid == b:
                continue
            if space.d(a, b) != space.d(a, mid) + space.d(mid, b):
                continue
            face = pts[:i] + pts[i + 1 :]
            dense[row_index[face]][c] += -1 if i % 2 else 1
    return dense, len(rows), len(cols)


def rational_rank(dense):
    """Rank by Gaussian elimination over Fraction."""
    a = [[Fraction(v) for v in row] for row in dense]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pv = a[rank][c]
        for r in range(rows):
            if r != rank and a[r][c]:
                factor = a[r][c] / pv
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def naive_snf(dense):
    """Invariant factors by a first-nonzero-pivot textbook reduction."""
    a = [list(row) for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < m and t < n:
        pr = pc = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        a[t], a[pr] = a[pr], a[t]
        for row in a:
            row[t], row[pc] = row[pc], row[t]
        while True:
            moved = False
            for i in range(t + 1, m):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        moved = True
            for j in range(t + 1, n):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        moved = True
            if not moved:
                break
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        factors.append(abs(a[t][t]))
        t += 1
    return tuple(factors)


def naive_magnitude_group(space, l, n):
    """(betti, torsion) of MH_n^l from dense matrices and rational ranks."""
    dim_n = len(naive_chains(space, n, l))
    out_rank = 0
    if n > 0 and dim_n:
        dense_out, rows_out, _ = naive_boundary_matrix(space, l, n)
        if rows_out:
            out_rank = rational_rank(dense_out)
    dense_in, rows_in, cols_in = naive_boundary_matrix(space, l, n + 1)
    in_rank = 0
    torsion = ()
    if rows_in and cols_in:
        factors = naive_snf(dense_in)
        in_rank = len(factors)
        torsion = tuple(d for d in factors if d > 1)
    return dim_n - out_rank - in_rank, torsion


def minor_gcds(dense):
    """d_k = gcd of all k x k minors, for k = 1..min(m, n); 0 when all vanish."""

    def det(rows_idx, cols_idx):
        k = len(rows_idx)
        if k == 1:
            return dense[rows_idx[0]][cols_idx[0]]
        total = 0
        r0 = rows_idx[0]
        rest = rows_idx[1:]
        for pos, c in enumerate(cols_idx):
            v = dense[r0][c]
            if v:
                sub = det(rest, cols_idx[:pos] + cols_idx[pos + 1 :])
                total += (-1 if pos % 2 else 1) * v * sub
        return total

    m = len(dense)
    n = len(dense[0]) if m else 0
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows_idx in itertools.combinations(range(m), k):
            for cols_idx in itertools.combinations(range(n), k):
                g = gcd(g, det(rows_idx, cols_idx))
        out.append(g)
    return out


def naive_four_cuts(space):
    """Quadruples satisfying the three-condition form, sorted by (len, points).

    Conditions: consecutive entries distinct; the middle point of each of
    the two overlapping triples is smooth; the endpoints are strictly
    closer than the path is long.
    """
    d = space.d
    out = []
    for pts in itertools.product(range(space.n), repeat=4):
        x0, x1, x2, x3 = pts
        if x0 == x1 or x1 == x2 or x2 == x3:
            continue
        if d(x0, x2) != d(x0, x1) + d(x1, x2):
            continue
        if d(x1, x3) != d(x1, x2) + d(x2, x3):
            continue
        total = d(x0, x1) + d(x1, x2) + d(x2, x3)
        if d(x0, x3) < total:
            out.append((total, pts))
    out.sort()
    return [(pts, total) for total, pts in out]


def naive_m_x(space):
    """(length, points) of the shortest four-cut, points lexicographically
    first among ties; (None, None) when the space has no four-cut."""
    cuts = naive_four_cuts(space)
    if not cuts:
        return None, None
    pts, total = cuts[0]
    return total, pts


def naive_triangle_witness(matrix):
    """First (i, j, k) in row-major order with d[i][k] > d[i][j] + d[j][k]."""
    d = [[Fraction(v) for v in row] for row in matrix]
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return i, j, k
    return None


def tensor(a, b):
    """Tensor product of two chain complexes over Z.

    Degree k of the product is the direct sum of A_i (x) B_j over i+j=k,
    with d(x (x) y) = dx (x) y + (-1)^i x (x) dy for x in degree i. Basis
    order within a degree: blocks by ascending i, row-major within a block.
    """

    def blocks(k):
        out = []
        for i in range(max(a.lo, k - b.hi), min(a.hi, k - b.lo) + 1):
            out.append((i, k - i))
        return out

    lo = a.lo + b.lo
    hi = a.hi + b.hi
    sizes = []
    offsets = {}
    for k in range(lo, hi + 1):
        off = {}
        total = 0
        for i, j in blocks(k):
            off[(i, j)] = total
            total += a.size(i) * b.size(j)
        offsets[k] = off
        sizes.append(total)

    boundaries = {}
    for k in range(lo + 1, hi + 1):
        columns = [{} for _ in range(sizes[k - lo])]
        src_off = offsets[k]
        dst_off = offsets[k - 1]
        for i, j in blocks(k):
            na, nb = a.size(i), b.size(j)
            if na == 0 or nb == 0:
                continue
            base = src_off[(i, j)]
            sign = 1 if i % 2 == 0 else -1
            da = a.boundaries.get(i)
            db = b.boundaries.get(j)
            for p in range(na):
                for qcol in range(nb):
                    column = columns[base + p * nb + qcol]
                    if da is not None:
                        dbase = dst_off.get((i - 1, j))
                        if dbase is not None:
                            for r, v in da.columns[p].items():
                                column[dbase + r * nb + qcol] = v
                    if db is not None:
                        dbase = dst_off.get((i, j - 1))
                        if dbase is not None:
                            nb1 = b.size(j - 1)
                            for s, v in db.columns[qcol].items():
                                column[dbase + p * nb1 + s] = sign * v
        boundaries[k] = SparseIntMatrix(sizes[k - 1 - lo], columns)
    return ChainComplexZ(lo, sizes, boundaries)


def tensor_many(complexes):
    out = None
    for c in complexes:
        out = c if out is None else tensor(out, c)
    if out is None:
        raise ValueError("tensor_many needs at least one complex")
    return out
