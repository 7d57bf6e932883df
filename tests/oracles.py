"""Independent oracles the tests compare the package against.

Nothing here reuses package machinery beyond the metric object: chains
come from itertools filters, ranks from dense rational elimination, Smith
normal form from a textbook first-nonzero-pivot reduction, four-cuts
from a three-condition quadruple scan, triangle witnesses from a
row-major scan, betweenness from a triple loop, and shortest-path
closures from the textbook Floyd-Warshall loop. All distance arithmetic is on Fractions, except that
`naive_buckets` groups `naive_chains` by length as a scaled int of the
space's `IntegerView`, so that its keys are the package's. There are
exceptions, on purpose. `ChainComplexZ` is a plain complex, its ranks
and boundary columns, whose groups are the package's
`groups_from_columns`. `complex_from_bases` builds one on given chains
with the package's boundary on tuples, `smooth_faces`; `tensor` builds
the product of two basis element by basis element, so that reducing it
checks `kunneth`, which never builds one; `magnitude_complex` assembles
a whole grading's buckets as one, the complex the endpoint-block engine
splits by endpoint pair, and `frame_complex` one frame's subcomplex,
whose bases `naive_frame_bases` filters out of the chains of one length
that `pruned_chains` finds by a naive pruned search.
`endpoint_blocks` splits buckets by endpoint pair the way the engine's
blocks are meant to come out, and `record_groups` reduces one block of
chain records alone, through the engine's own assembly.
`per_parent_cap_outcomes` is `chains.block_chains` as it counted its top
chains against the cap before they were counted per block, one parent at
a time on the package's own search, for every cap from one run.
`euler_characteristic` reads a complex's ranks.
`row_by_row_metric` is the loader one entry at a time, on the package's
own entry parsers, each check a row-major scan: the reference for
`validate_metric`'s row-wide passes.
`smooth_by_distances`, `collapsed_chains` and `kept_faces` read smooth
points off the scaled-int distances of the space's `IntegerView`, not off
its betweenness table.
`d_squared_by_tables` is the boundary-of-boundary check as a walk over
every chain of each degree's buckets, which `verify.check_d_squared`
decides from 4-point windows without walking any chain.
`naive_interval_order` reads an interval poset's pairs off
Fraction distances, and `naive_component_count`, `naive_core` and
`naive_order_complex` work on such plain pair sets, with none of the
package's bitmasks. `interval_complex` and `boundary_of_sum` are thin
helpers over the package: the full order complex of one interval, and
the boundary extended to a formal sum. `reference_interval_masks` is the
per-pair route to an interval's masks, each pair transposing its own
a-side rows and checking its own order, and `reference_interval_homology`
reduces every core through the package's order-complex columns and
`groups_from_columns`, a core without relations included.
`naive_isometries` lists a space's whole isometry group, point by point
on Fraction distances, and `naive_pair_orbits` the orbits of ordered
pairs under it and reversal, as sets.
`self_framed_tuples` lists the tuples that are their own frame, by
distances, and `dfs_frame_groups` is the depth-first search over frame
tuples that `posets._frame_groups` replaced: one Kunneth fold and one
`is_realized_frame` call per tuple, on the package's pair homology.
Slow on purpose; oracle scale only.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import magh.frames
from magh.algebra import (
    TRIVIAL_GROUP,
    HomologyGroup,
    _blocks_homology,
    groups_from_columns,
    kunneth,
)
from magh.chains import resolve_cap, search_moves, smooth_faces, start_blocks
from magh.errors import (
    AsymmetricAt,
    EnumerationCapExceeded,
    NegativeOrZeroOffDiagonal,
    NonzeroDiagonal,
    NotAPartialOrder,
    NotASubcomplex,
    NotSquare,
    SamePoint,
    TriangleViolation,
    UnrealizedFrame,
)
from magh.frames import frame
from magh.metric import _printable, _to_fraction, format_rational, parse_rational, set_bits
from magh.posets import _core_masks, _interval_homology, _order_simplices, _reduced_columns
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


def dense_boundary(space, rows, cols):
    """Dense integer matrix of the boundary from the chains `cols` to `rows`.

    Interior point i of a chain is removed, with sign (-1)^i, where the
    Fraction distances make it strictly between its neighbours; a face
    outside `rows` raises KeyError.
    """
    row_index = {pts: r for r, pts in enumerate(rows)}
    dense = [[0] * len(cols) for _ in rows]
    for c, pts in enumerate(cols):
        for i in range(1, len(pts) - 1):
            a, mid, b = pts[i - 1], pts[i], pts[i + 1]
            if mid == a or mid == b:
                continue
            if space.d(a, b) != space.d(a, mid) + space.d(mid, b):
                continue
            face = pts[:i] + pts[i + 1 :]
            dense[row_index[face]][c] += -1 if i % 2 else 1
    return dense


def naive_boundary_matrix(space, l, n):
    """Dense integer matrix of the degree-n boundary at grading l."""
    rows = naive_chains(space, n - 1, l)
    cols = naive_chains(space, n, l)
    return dense_boundary(space, rows, cols), len(rows), len(cols)


def naive_complex_groups(space, bases, n_max):
    """The nonzero homology of the complex spanned by the given chains.

    `bases` maps degrees to lists of point tuples, and the complex runs
    from its lowest to its highest degree. Returns {n: (betti, torsion)}
    for the degrees n <= n_max where the homology is nonzero, from dense
    boundaries and `naive_snf`.
    """
    lo, hi = min(bases), max(bases)
    factors = {}
    for k in range(lo + 1, hi + 1):
        rows, cols = bases.get(k - 1, ()), bases.get(k, ())
        factors[k] = naive_snf(dense_boundary(space, rows, cols)) if rows and cols else ()
    groups = {}
    for n in range(lo, min(hi, n_max) + 1):
        into = factors.get(n + 1, ())
        betti = len(bases.get(n, ())) - len(factors.get(n, ())) - len(into)
        torsion = tuple(d for d in into if d > 1)
        if betti or torsion:
            groups[n] = (betti, torsion)
    return groups


@dataclass
class ChainComplexZ:
    """A bounded chain complex of free Z-modules, degrees lo..hi.

    `boundaries[k]` lists the column dicts {row: coeff} of the map out of
    degree k, at most one per basis element of degree k: the elements past
    the last column map to zero, and so does a degree with no key. The
    groups are the package's `groups_from_columns`, d^2 check included,
    computed once, when first read.
    """

    lo: int
    sizes: list
    boundaries: dict = field(default_factory=dict)

    @property
    def hi(self):
        return self.lo + len(self.sizes) - 1

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def size(self, k):
        return self.sizes[k - self.lo] if self.lo <= k <= self.hi else 0

    @cached_property
    def _groups(self):
        return groups_from_columns(self.lo, self.sizes, self.boundaries)

    def groups(self):
        """{degree: group} where the homology is nonzero, a new dict."""
        return dict(self._groups)

    def homology(self, k):
        """H_k at any degree, TRIVIAL_GROUP where it is zero."""
        return self._groups.get(k, TRIVIAL_GROUP)


def complex_from_bases(space, bases, lo, hi):
    """The complex spanned by given proper chains at degrees lo..hi.

    `bases[k]` lists the chains of degree k as point tuples; a missing
    degree is empty. Column c at degree k holds the faces of chain c with
    their signs, as the package's boundary on tuples, `smooth_faces`,
    reads them off the betweenness table. A face outside the basis one
    degree down, any face at lo included, raises NotASubcomplex.
    """
    between = space.integer_view.between
    sizes = []
    boundaries = {}
    index = {}
    for k in range(lo, hi + 1):
        chains = [tuple(ch) for ch in bases.get(k, ())]
        columns = []
        for pts in chains:
            column = {}
            for face, sign in smooth_faces(between, pts):
                if face not in index:
                    raise NotASubcomplex(f"face {face} of {pts} is outside the basis")
                column[index[face]] = sign
            columns.append(column)
        if k > lo:
            boundaries[k] = columns
        sizes.append(len(chains))
        index = {pts: r for r, pts in enumerate(chains)}
    return ChainComplexZ(lo, sizes, boundaries)


def record_groups(records):
    """{degree: group} of one block of chain records (points, mask),
    reduced alone by the engine's own `_blocks_homology`."""
    [homology] = _blocks_homology([records])
    return {n: HomologyGroup(betti, torsion) for n, betti, torsion in homology}


def magnitude_complex(space, l, n_top):
    """The chain complex of the proper chains of length l, degrees 0..n_top.

    The basis at degree n lists the proper n-chains of length l as point
    tuples in lexicographic order.
    """
    total = space.integer_view.scaled(l)
    bases = {n: naive_buckets(space, n).get(total, ()) for n in range(n_top + 1)}
    return complex_from_bases(space, bases, 0, n_top)


def smooth_by_distances(space, pts):
    """Bit i set iff d(x_{i-1}, x_{i+1}) = d(x_{i-1}, x_i) + d(x_i, x_{i+1})."""
    d = space.integer_view.idist
    mask = 0
    for i in range(1, len(pts) - 1):
        a, c, b = pts[i - 1], pts[i], pts[i + 1]
        if a != b and d[a][b] == d[a][c] + d[c][b]:
            mask |= 1 << i
    return mask


def collapsed_chains(space, chains):
    """The chains of the endpoint-block engine's top degree n_max that it
    collapses: those among `chains` with no smooth point that have an
    insertion y, a point c inserted at some position i, whose only smooth
    point is c. Then d y = +-x, and the pair cancels.

    Every c on a geodesic from x_{i-1} to x_i is tried, read off the
    distances by `smooth_by_distances`, not the betweenness table.
    """
    d = space.integer_view.idist
    out = set()
    for pts in map(tuple, chains):
        if smooth_by_distances(space, pts):
            continue
        for i in range(1, len(pts)):
            a, b = pts[i - 1], pts[i]
            if any(
                c != a and c != b
                and d[a][c] + d[c][b] == d[a][b]
                and smooth_by_distances(space, pts[:i] + (c,) + pts[i:]) == 1 << i
                for c in range(space.n)
            ):
                out.add(pts)
                break
    return out


def kept_faces(space, pts, collapsed):
    """`smooth_by_distances` less the bits whose face is in `collapsed`:
    the mask the engine gives a chain of its top degree n_max + 1."""
    mask = smooth_by_distances(space, pts)
    for i in range(1, len(pts) - 1):
        if mask >> i & 1 and pts[:i] + pts[i + 1 :] in collapsed:
            mask &= ~(1 << i)
    return mask


def per_parent_cap_outcomes(space, totals, n_max):
    """`chains.block_chains` with its top chains counted parent by parent,
    for every cap at once.

    The same search (`start_blocks`, by the package) and the same
    insertions, read off a whole table of `between_points` windows, but
    each degree-n_max parent's insertions are kept together and walked a
    second time once the block's collapsed parents are known, and the
    steps are checked against the cap after each parent's kept top chains
    are counted. One run with no cap records each point where the steps
    are checked: the end of each start's search and the end of each
    parent. Returns a function of the cap that gives what `block_chains`
    yields under it, as a list, or the step count its
    EnumerationCapExceeded carries: that of the first check the steps
    pass, and for a search the count `start_blocks` raises when it is run
    again alone under the cap.
    """
    wanted = set(totals)
    view = space.integer_view
    between = view.between
    moves = search_moves(space, max(wanted))
    inner = [[view.between_points(a, b) for b in range(space.n)] for a in range(space.n)]
    steps = 0
    starts = []
    # (steps at a check, the search (start, ends, steps before it) or None)
    checks = []
    for start, ends in enumerate(view.pair_orbits.ends):
        if not ends:
            continue
        before = steps
        blocks, steps = start_blocks(
            start, ends, moves, between, wanted, n_max, steps, float("inf")
        )
        checks.append((steps, (start, ends, before)))
        out = []
        for key in sorted(blocks):
            records = blocks[key]
            parents = records.get(n_max, ())
            insertions = []
            for pts, mask in parents:
                last = (mask & -mask).bit_length() - 1 if mask else n_max
                made = []
                lone = False
                for i in range(1, last + 1):
                    left, right = pts[i - 1], pts[i]
                    above = mask >> i + 1 << i + 2 | 1 << i
                    for c in inner[left][right]:
                        if i > 1 and between[pts[i - 2]][c] >> left & 1:
                            continue
                        m = above
                        if i < n_max and between[c][pts[i + 1]] >> right & 1:
                            m |= 2 << i
                        elif not mask:
                            lone = True
                            continue
                        made.append((pts[:i] + (c,) + pts[i:], m))
                insertions.append((lone, made))
            collapsed = {pts for (pts, _), (lone, _) in zip(parents, insertions) if lone}
            top = []
            for gone, made in insertions:
                for y, m in made:
                    i = (m & -m).bit_length() - 1
                    if gone:
                        m &= m - 1
                    if m >> i + 1 & 1 and not m >> i + 3 and y[: i + 1] + y[i + 2 :] in collapsed:
                        m &= ~(2 << i)
                    if m:
                        top.append((y, m))
                        steps += 1
                checks.append((steps, None))
            if collapsed:
                kept = [x for x, (gone, _) in zip(parents, insertions) if not gone]
                if kept:
                    records[n_max] = kept
                else:
                    del records[n_max]
            if top:
                records[n_max + 1] = top
            if records:
                out.append((key[0], (start, key[1]), records))
        if out:
            starts.append(out)

    def outcome(cap):
        for count, search in checks:
            if count > cap:
                if search is None:
                    return count
                start, ends, before = search
                try:
                    start_blocks(start, ends, moves, between, wanted, n_max, before, cap)
                except EnumerationCapExceeded as exc:
                    return exc.count
                raise AssertionError(f"start {start} ends at {count} without passing {cap}")
        return starts

    return outcome


def endpoint_blocks(by_degree, l):
    """Split the chains of length l by endpoint pair, pairs in sorted order.

    `by_degree[n]` maps lengths to the chains of degree n, as point
    tuples, like `naive_buckets`.
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


def pruned_chains(space, total, n_top):
    """The proper chains of length `total`, a scaled int, by degree 0..n_top.

    A naive search from every start point that drops a prefix once it is
    longer than `total`; it shares no code with the package's searches.
    Each degree lists its chains in lexicographic order.
    """
    # each point's steps no longer than `total`, next points ascending
    near = [
        [(x, d) for x, d in enumerate(row) if x != p and d <= total]
        for p, row in enumerate(space.integer_view.idist)
    ]
    by_degree = []
    level = [((p,), 0) for p in range(space.n)]
    for n in range(n_top + 1):
        by_degree.append([pts for pts, t in level if t == total])
        if n < n_top:
            level = [
                (pts + (x,), t + d)
                for pts, t in level
                for x, d in near[pts[-1]]
                if t + d <= total
            ]
    return by_degree


_FRAME_BASES = {}


def naive_frame_bases(space, total, n_top):
    """The geodesically simple chains of length `total`, a scaled int, by
    frame then degree 1..n_top, filtered out of `pruned_chains`.

    Frames and degrees ascend; each basis is in lexicographic order. Kept
    per (IntegerView, total, n_top), as `naive_buckets` is; callers must
    not mutate them.
    """
    key = (space.integer_view, total, n_top)
    found = _FRAME_BASES.get(key)
    if found is None:
        idist = space.integer_view.idist
        out = {}
        for n, chains in enumerate(pruned_chains(space, total, n_top)[1:], 1):
            for pts in chains:
                f = frame(space, pts)
                if sum(idist[a][b] for a, b in zip(f, f[1:])) == total:
                    out.setdefault(f, {}).setdefault(n, []).append(pts)
        found = _FRAME_BASES[key] = {f: out[f] for f in sorted(out)}
    return found


def frame_complex(space, f, n_top):
    """The frame subcomplex of the frame f: its chains of degrees
    len(f) - 1..n_top, from `naive_frame_bases`."""
    total = sum(space.integer_view.idist[a][b] for a, b in zip(f, f[1:]))
    bases = naive_frame_bases(space, total, n_top).get(tuple(f), {})
    return complex_from_bases(space, bases, len(f) - 1, n_top)


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


def naive_metric_closure(matrix):
    """Floyd-Warshall over Fractions, in place on a copy, row by row."""
    d = [[Fraction(v) for v in row] for row in matrix]
    n = len(d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


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


def naive_betweenness(matrix):
    """between[a][b] as a bitmask of the points c != a, b with
    d[a][c] + d[c][b] == d[a][b], by a triple loop over Fractions."""
    d = [[Fraction(v) for v in row] for row in matrix]
    n = len(d)
    return tuple(
        tuple(
            sum(1 << c for c in range(n) if c != a and c != b and d[a][c] + d[c][b] == d[a][b])
            for b in range(n)
        )
        for a in range(n)
    )


def row_by_row_metric(matrix):
    """(dist, (scale, idist), between) of a matrix, read and checked one
    entry at a time, the reference for `metric.validate_metric`.

    Rows are read in order, each checked for length before its entries
    are converted; a repeated text reuses its first Fraction. The checks
    are row-major scans in `validate_metric`'s order, each raising at its
    first witness: symmetry, positivity off the diagonal, zero diagonal,
    triangle inequality. The distances are scaled entry by entry, and
    betweenness comes from a triple loop on the scaled ints.
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
    scale = lcm(*[q.denominator for row in rows for q in row])
    d = tuple(tuple(int(q * scale) for q in row) for row in rows)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise AsymmetricAt(i, j)
    for i in range(n):
        for j in range(n):
            if i != j and d[i][j] <= 0:
                raise NegativeOrZeroOffDiagonal(i, j)
    for i in range(n):
        if d[i][i]:
            raise NonzeroDiagonal(i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    raise TriangleViolation(i, j, k)
    between = tuple(
        tuple(
            sum(1 << c for c in range(n) if c != a and c != b and d[a][c] + d[c][b] == d[a][b])
            for b in range(n)
        )
        for a in range(n)
    )
    return tuple(map(tuple, rows)), (scale, d), between


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
            da = a.boundaries.get(i, ())
            db = b.boundaries.get(j, ())
            for p in range(na):
                for qcol in range(nb):
                    column = columns[base + p * nb + qcol]
                    if p < len(da):
                        dbase = dst_off.get((i - 1, j))
                        if dbase is not None:
                            for r, v in da[p].items():
                                column[dbase + r * nb + qcol] = v
                    if qcol < len(db):
                        dbase = dst_off.get((i, j - 1))
                        if dbase is not None:
                            nb1 = b.size(j - 1)
                            for s, v in db[qcol].items():
                                column[dbase + p * nb1 + s] = sign * v
        boundaries[k] = columns
    return ChainComplexZ(lo, sizes, boundaries)


def euler_characteristic(cx):
    """The alternating sum of the ranks of a complex's degrees."""
    return sum((-1) ** (k % 2) * cx.size(k) for k in cx.degrees())


def tensor_many(complexes):
    out = None
    for c in complexes:
        out = c if out is None else tensor(out, c)
    if out is None:
        raise ValueError("tensor_many needs at least one complex")
    return out


def boundary_of_sum(space, combo):
    """Extend the package's boundary on tuples, `smooth_faces`, linearly to
    a formal sum {chain: coeff} of point tuples."""
    between = space.integer_view.between
    out = {}
    for chain, coeff in combo.items():
        if not coeff:
            continue
        for term, sign in smooth_faces(between, chain):
            new = out.get(term, 0) + coeff * sign
            if new:
                out[term] = new
            else:
                del out[term]
    return out


def interval_complex(space, a, b):
    """Reduced chain complex of the full order complex of I(a, b), not its
    core's: `reference_interval_masks`, then the package's order-complex
    simplices and augmented columns."""
    elements, up, _ = reference_interval_masks(space, a, b)
    return ChainComplexZ(-1, *_reduced_columns(_order_simplices(elements, up)))


def naive_interval_order(space, a, b):
    """(elements, less) of I(a, b) from Fraction distances.

    The elements are the points x != a, b with d(a, x) + d(x, b) =
    d(a, b), ascending, and `less` the set of pairs (x, y) of distinct
    elements with d(a, x) + d(x, y) = d(a, y).
    """
    d = space.d
    elements = [x for x in range(space.n) if x not in (a, b) and d(a, x) + d(x, b) == d(a, b)]
    less = {(x, y) for x in elements for y in elements if x != y and d(a, x) + d(x, y) == d(a, y)}
    return elements, less


def naive_component_count(elements, less):
    """Connected components of the comparability graph, by search over pairs."""
    seen = set()
    count = 0
    for start in elements:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for p, q in less:
                if x in (p, q):
                    y = q if p == x else p
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
    return count


def _covers(x, left, less):
    """The elements of `left` covering x in `less`: minimal among those above x."""
    above = {y for y in left if (x, y) in less}
    return {y for y in above if not any((z, y) in less for z in above)}


def naive_core(elements, less):
    """The elements left once beat points are removed, ascending.

    A beat point has one upper cover or one lower cover among what is
    left. Each pass tries the elements in ascending order, as
    `posets._core_masks` does, and passes repeat until one removes nothing.
    """
    flipped = {(y, x) for x, y in less}
    left = sorted(elements)
    removed = True
    while removed:
        removed = False
        for x in sorted(elements):
            if x in left and 1 in (len(_covers(x, left, less)), len(_covers(x, left, flipped))):
                left.remove(x)
                removed = True
    return left


def naive_order_complex(elements, less):
    """{k: k-simplices}: sets of k + 1 pairwise comparable elements.

    Sets grow by label; each is listed in the order's direction, and each
    degree is sorted.
    """
    comparable = less | {(y, x) for x, y in less}
    sets = [(x,) for x in sorted(elements)]
    out = {}
    k = 0
    while sets:
        out[k] = sorted(
            tuple(sorted(s, key=lambda x: sum((y, x) in less for y in s))) for s in sets
        )
        sets = [
            s + (y,)
            for s in sets
            for y in elements
            if y > s[-1] and all((x, y) in comparable for x in s)
        ]
        k += 1
    return out


def reference_interval_masks(space, a, b):
    """(elements, up, down) of I(a, b), read and checked for this pair alone.

    `down` comes off a's row of the betweenness table and `up` off the
    rows into b. The pair transposes its own `down` masks and checks, in
    this order, that the transpose is `up` (two-sided agreement), then
    antisymmetry, then transitivity, raising NotAPartialOrder with the
    least witness of the first failure; a == b raises SamePoint.
    """
    if a == b:
        raise SamePoint(a)
    between = space.integer_view.between
    inside = between[a][b]
    elements = set_bits(inside)
    down = [between[a][y] & inside for y in elements]
    up_at = [0] * space.n
    for y, below in zip(elements, down):
        for x in set_bits(below):
            up_at[x] |= 1 << y
    up = [between[x][b] & inside for x in elements]
    for x, above in zip(elements, up):
        if above != up_at[x]:
            raise NotAPartialOrder(
                a, b, "two-sided agreement", (x, set_bits(above ^ up_at[x])[0])
            )
    for x, above, below in zip(elements, up, down):
        if above & below:
            raise NotAPartialOrder(a, b, "antisymmetry", (x, set_bits(above & below)[0]))
    for x, above in zip(elements, up):
        for y in set_bits(above):
            missing = up_at[y] & ~above
            if missing:
                raise NotAPartialOrder(a, b, "transitivity", (x, y, set_bits(missing)[0]))
    return elements, up, down


def reference_interval_homology(space, a, b):
    """{degree: group} of I(a, b) from `reference_interval_masks`: the core's
    order complex, its augmented columns and `groups_from_columns`, for
    every core, one without relations included."""
    elements, up, _ = _core_masks(*reference_interval_masks(space, a, b))
    sizes, boundaries = _reduced_columns(_order_simplices(elements, up))
    return groups_from_columns(-1, sizes, boundaries)


def dfs_frame_visits(space, gradings, n_max, cap=None, realized=True):
    """(groups, visited, first) of the depth-first frame search below m_X.

    A tuple grows one point at a time, next points ascending, and only
    where the junction it leaves behind is not strictly smooth. Each
    carries the Kunneth product of its pairs' interval homology
    (`posets._interval_homology`, which reads the space's pair homology
    table); a frame of degree m and length l adds H_k of that product to
    MH_{2m+k}^l. A branch stops once it is longer than the largest
    grading, once 2m + min k passes n_max, or when its product is zero.
    Each tuple visited is one step: EnumerationCapExceeded(visited, cap)
    once the count passes the cap. A contributing tuple that fails
    `magh.frames.is_realized_frame` raises UnrealizedFrame at once with
    `realized`, so the first one in lexicographic order; without it, the
    search runs on, and `first` is (frame, l, visited) of the first such
    tuple, visited counting it, or None. `groups` maps (l, n) to the
    direct sum of the contributions, and `visited` counts every tuple.
    """
    view = space.integer_view
    wanted = {view.scaled(l): l for l in gradings if view.scaled(l) is not None}
    if not wanted:
        return {}, 0, None
    top = max(wanted)
    limit = resolve_cap(cap)
    parts = {}
    visited = 0
    first = None

    def extend(pts, length, product):
        nonlocal visited, first
        last = pts[-1]
        prev = pts[-2] if len(pts) > 1 else None
        m = len(pts)
        for nxt in range(space.n):
            total = length + view.idist[last][nxt]
            if nxt == last or total > top:
                continue
            if prev is not None and view.between[prev][nxt] >> last & 1:
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
                if not magh.frames.is_realized_frame(space, pts):
                    if realized:
                        raise UnrealizedFrame(pts, l)
                    if first is None:
                        first = tuple(pts), l, visited
                for k, group in grown.items():
                    if 2 * m + k <= n_max:
                        parts.setdefault((l, 2 * m + k), []).append(group)
            extend(pts, total, grown)
            pts.pop()

    for start in range(space.n):
        extend([start], 0, None)
    groups = {key: HomologyGroup.direct_sum(found) for key, found in parts.items()}
    return groups, visited, first


def dfs_frame_groups(space, gradings, n_max, cap=None):
    """The groups of `dfs_frame_visits`, each contributing frame tested."""
    return dfs_frame_visits(space, gradings, n_max, cap)[0]


def self_framed_tuples(space, totals, m_max, starts=None):
    """The tuples of degree 1..m_max that are their own frame, with a length
    in `totals` (scaled ints), from the points of `starts` (every point by
    default), in (degree, lexicographic) order.

    Proper tuples with no point smooth by `smooth_by_distances`, grown one
    point at a time and dropped once longer than the largest of `totals`.
    """
    d = space.integer_view.idist
    longest = max(totals, default=-1)
    points = range(space.n)
    level = [((a,), 0) for a in (points if starts is None else sorted(starts))]
    out = []
    for _ in range(m_max):
        level = [
            (pts + (x,), t + d[pts[-1]][x])
            for pts, t in level
            for x in points
            if x != pts[-1]
            and t + d[pts[-1]][x] <= longest
            and not smooth_by_distances(space, pts[-2:] + (x,))
        ]
        out += [pts for pts, t in level if t in totals]
    return out


def naive_isometries(space):
    """Every isometry of the space, as tuples g with point x going to g[x].

    Partial maps grow one point at a time in index order; an image is
    kept when it is unused and has the Fraction distances to the images
    so far that the point has to the points so far. Lists the whole
    group, so small spaces only.
    """
    d = space.dist
    n = space.n
    found = []

    def grow(image):
        x = len(image)
        if x == n:
            found.append(tuple(image))
            return
        for y in range(n):
            if y not in image and all(d[y][image[w]] == d[x][w] for w in range(x)):
                grow(image + [y])

    grow([])
    return found


def naive_pair_orbits(space, isometries):
    """The orbits of ordered point pairs under a whole group of isometries
    and reversal, as a list of frozensets, in order of their least pair."""
    orbits = {}
    for a in range(space.n):
        for b in range(space.n):
            orbit = frozenset(
                pair for g in isometries for pair in ((g[a], g[b]), (g[b], g[a]))
            )
            orbits[min(orbit)] = orbit
    return [orbits[key] for key in sorted(orbits)]
