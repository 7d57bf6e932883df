"""Independent oracles the tests compare the package against.

Nothing here reuses package machinery beyond the metric object: chains
come from itertools filters, ranks from dense rational elimination, Smith
normal form from a textbook first-nonzero-pivot reduction, four-cuts
from a three-condition quadruple scan, and triangle witnesses from a
row-major scan. All distance arithmetic is on Fractions, except that
`naive_buckets` groups `naive_chains` by length as a scaled int of the
space's `IntegerView`, so that its keys are the package's. There are two
exceptions. `tensor` builds the product of two package complexes basis
element by basis element, so that reducing it checks `kunneth`, which
never builds one. `magnitude_complex` assembles a whole grading's
buckets as one package complex, the complex the endpoint-block engine
splits by endpoint pair, and `endpoint_blocks` splits buckets by
endpoint pair the way the engine's blocks are meant to come out.
`d_squared_by_tables` is the boundary-of-boundary check as a walk over
each degree's buckets, the route `verify.check_d_squared` replaced, and
`frame_bases_by_tables` filters the frame subcomplexes' bases out of the
buckets. Slow on purpose; oracle scale only.
"""

import itertools
from fractions import Fraction
from math import gcd

from magh.algebra import ChainComplexZ, SparseIntMatrix, complex_from_bases
from magh.chains import resolve_cap, smooth_faces
from magh.errors import EnumerationCapExceeded
from magh.frames import frame
from magh.metric import format_rational
from magh.verify import VerificationReport


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


_BUCKETS = {}


def naive_buckets(space, n):
    """The proper n-chains of `naive_chains` grouped by length.

    Keys are lengths as scaled ints of the space's `IntegerView`,
    ascending; each bucket keeps the lexicographic order of
    `naive_chains`. Kept per (IntegerView, n), not per space, as tests
    swap a corrupted view into a space; callers must not mutate them.
    """
    key = (space.integer_view, n)
    buckets = _BUCKETS.get(key)
    if buckets is None:
        idist = space.integer_view.idist
        grouped = {}
        for pts in naive_chains(space, n):
            total = sum(idist[a][b] for a, b in zip(pts, pts[1:]))
            grouped.setdefault(total, []).append(pts)
        buckets = _BUCKETS[key] = {t: tuple(grouped[t]) for t in sorted(grouped)}
    return buckets


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


def magnitude_complex(space, l, n_top):
    """The chain complex of the proper chains of length l, degrees 0..n_top.

    The basis at degree n lists the proper n-chains of length l as point
    tuples in lexicographic order.
    """
    total = space.integer_view.scaled(l)
    bases = {n: naive_buckets(space, n).get(total, ()) for n in range(n_top + 1)}
    return complex_from_bases(space, bases, 0, n_top)


def endpoint_blocks(by_degree, l):
    """Split the chains of length l by endpoint pair, pairs in sorted order.

    `by_degree[n]` maps lengths to the chains of degree n, as point tuples
    or ProperChains, like `naive_buckets` or enumerate_proper_chains.
    Returns {(a, b): {n: chains from a to b}}, listing only the degrees
    where the pair has chains; each list keeps the order of its bucket.
    """
    blocks = {}
    for n, buckets in enumerate(by_degree):
        for ch in buckets.get(l, ()):
            pts = tuple(ch)
            blocks.setdefault((pts[0], pts[-1]), {}).setdefault(n, []).append(ch)
    return {pair: blocks[pair] for pair in sorted(blocks)}


def d_squared_by_tables(space, n_max, cap=None):
    """`verify.check_d_squared` as a walk over each degree's chain table.

    Visits every chain of degrees 2..n_max by degree, then length, then
    lexicographically, counting each one, and reports the first whose
    boundary-of-boundary is not zero. EnumerationCapExceeded is raised for
    the first degree whose N(N-1)^n chains pass the cap, once the degrees
    below it have passed.
    """
    view = space.integer_view
    between = view.between
    checked = 0
    for n in range(2, n_max + 1):
        count = space.n * (space.n - 1) ** n
        limit = resolve_cap(cap)
        if count > limit:
            raise EnumerationCapExceeded(count, limit)
        face_terms = {}
        for total, bucket in naive_buckets(space, n).items():
            for index, pts in enumerate(bucket):
                dd = {}
                for face, sign in smooth_faces(between, pts):
                    terms = face_terms.get(face)
                    if terms is None:
                        terms = face_terms[face] = smooth_faces(between, face)
                    for term, sign2 in terms:
                        dd[term] = dd.get(term, 0) + sign * sign2
                dd = {term: c for term, c in dd.items() if c}
                if dd:
                    return VerificationReport(
                        check="d_squared",
                        space=space.name or "space",
                        status="fail",
                        params={"n_max": n_max, "checked": checked + index + 1},
                        witness={
                            "chain": list(pts),
                            "l": format_rational(view.fraction(total)),
                            "dd_terms": [
                                {"points": list(term), "coeff": c}
                                for term, c in sorted(dd.items())
                            ],
                        },
                    )
            checked += len(bucket)
    return VerificationReport(
        check="d_squared",
        space=space.name or "space",
        status="pass",
        params={"n_max": n_max, "checked": checked},
    )


def frame_bases_by_tables(space, total, n_top):
    """The geodesically simple chains of length `total`, a scaled int, by
    frame then degree 1..n_top, filtered out of `naive_buckets`.

    Frames and degrees ascend; each basis keeps its bucket's lexicographic
    order.
    """
    idist = space.integer_view.idist
    out = {}
    for n in range(1, n_top + 1):
        for pts in naive_buckets(space, n).get(total, ()):
            f = frame(space, pts)
            if sum(idist[a][b] for a, b in zip(f, f[1:])) == total:
                out.setdefault(f, {}).setdefault(n, []).append(pts)
    return {f: out[f] for f in sorted(out)}


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
    A basis element past the last column of a factor's boundary has
    boundary zero there.
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
                    if da is not None and p < da.cols:
                        dbase = dst_off.get((i - 1, j))
                        if dbase is not None:
                            for r, v in da.columns[p].items():
                                column[dbase + r * nb + qcol] = v
                    if db is not None and qcol < db.cols:
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
