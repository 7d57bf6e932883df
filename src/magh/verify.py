"""Cross-checks between independent computation routes.

Each check returns a VerificationReport rather than raising: a failing
check is data, with a concrete witness, so suites can report everything
they found. All iteration orders are sorted, making reports byte-stable
across runs. No check builds a whole degree of chains. `d_squared`
walks none: d^2 of a chain is a sum of terms that each read one window
of four consecutive points, so one scan of the windows decides every
degree (see `check_d_squared`), and a failing window is placed in the
chain order with the chain-count dynamic program (`chains.count_step`).
`simp_iso` and `frame_injectivity` check the route `compute` prints
below m_X, interval posets folded by the Kunneth formula
(`posets._frame_groups`, `posets.frame_homology_by_degree`), against the
endpoint-block engine, which keeps every chain; the two share only `snf`
and the betweenness table. The engine keeps each grading's groups on the
space, so a grading both ask for is reduced once. Both read the engine
by scaled length (`algebra._block_groups`) and `simp_iso` takes its
gradings as scaled ints (`chains.realized_totals`), so only the
gradings a report prints become Fractions. `tensor_route` is the one
chain-level cross-check: it compares the frame subcomplexes of the
realized frames of low degree (`frames.frame_pieces`), whose search
keeps only the chains that can end with one of them, with the
interval-poset route, frame by frame. Its frames grow with one junction
mask per pair of last points (`frames._junction_mask`), and its
interval side folds each distinct pair of Kunneth products once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import posets as _posets
from .algebra import TRIVIAL_GROUP, _block_groups
from .chains import count_step, realized_totals, resolve_cap, smooth_faces
from .errors import EnumerationCapExceeded
from .frames import _junction_mask, frame_pieces, m_x
from .metric import (
    complete_space,
    cycle_space,
    format_rational,
    path_space,
    random_metric,
    set_bits,
)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check on one space."""

    check: str
    space: str
    status: str  # "pass" or "fail"
    params: dict = field(default_factory=dict)
    witness: object = None

    @property
    def passed(self):
        return self.status == "pass"

    def to_json_dict(self):
        return {
            "check": self.check,
            "space": self.space,
            "status": self.status,
            "params": self.params,
            "witness": self.witness,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _group_json(group):
    return {"betti": group.betti, "torsion": list(group.torsion)}


def _first_bad_window(space):
    """(total, chain) of the first proper 4-tuple whose d^2 is not zero,
    by length then lexicographically; None if there is none.

    ymask[w][x] holds the points y with x in B(w, y), the up-mask of x in
    the start order P_w (`IntegerView.start_order`), so the last points z of
    the bad windows (w, x, y, z) form one mask: A and B of
    `check_d_squared` are its bits z of ymask[x][y] & ymask[w][x] and of
    ymask[w][y] if y is in ymask[w][x].
    """
    view = space.integer_view
    idist = view.idist
    points = range(space.n)
    ymask = [view.start_order(w)[0] for w in points]
    best = None
    for w, masks in enumerate(ymask):
        for x, wx in enumerate(masks):
            if x == w:
                continue
            for y in points:
                if y == x:
                    continue
                bad = ((ymask[x][y] & wx) ^ (masks[y] if wx >> y & 1 else 0)) & ~(1 << y)
                if not bad:  # zero in every window of a valid space
                    continue
                for z in set_bits(bad):
                    found = (idist[w][x] + idist[x][y] + idist[y][z], (w, x, y, z))
                    if best is None or found < best:
                        best = found
    return best


def _chain_position(space, n, total, pts):
    """1-based position of a proper n-chain among the chains of degrees
    2..n in (degree, length, lexicographic) order, counted without
    building any: walks[k][x] maps a length to the number of proper
    k-step chains from x of that length, by `chains.count_step`.
    """
    idist = space.integer_view.idist
    size = space.n
    walks = [[{0: 1} for _ in range(size)]]
    for _ in range(n):
        walks.append(count_step(idist, walks[-1]))
    position = sum(size * (size - 1) ** k for k in range(2, n)) + 1
    position += sum(c for counts in walks[n] for t, c in counts.items() if t < total)
    # chains of the same length that leave pts at position i for a smaller point
    run = 0
    for i, p in enumerate(pts):
        for c in range(p):
            if i == 0:
                position += walks[n][c].get(total, 0)
            elif c != pts[i - 1]:
                position += walks[n - i][c].get(total - run - idist[pts[i - 1]][c], 0)
        if i:
            run += idist[pts[i - 1]][p]
    return position


def check_d_squared(space, n_max, cap=None):
    """Boundary-of-boundary vanishes for every proper chain of degree <= n_max.

    This exercises the smoothness filter directly: a wrong filter breaks
    the identity on small cycles immediately. Chains are ordered by
    degree, then length, then lexicographically; on a failure the report
    names the first failing one, and `checked` is its position in that
    order. On a pass `checked` is the number of chains of degrees
    2..n_max, N(N-1)^n each.

    No chain is walked. d^2 removes each pair of interior positions
    p < q in both orders. For q >= p + 2 both orders test the same two
    triples with opposite signs and cancel, whatever the betweenness table
    holds. For q = p + 1 they read only the window (w, x, y, z) =
    (x_{p-1}, .., x_{p+2}) and leave B - A, with A = [y in B(x, z)]
    [x in B(w, z)] and B = [x in B(w, y)] [y in B(w, z)]. A window with
    A != B is a degree-3 chain with d^2 = (B - A) (w, z), and degree 2 has
    no pair, so the first failing chain is the first bad window
    (`_first_bad_window`), and with none every degree passes. Its d^2 is
    taken with `smooth_faces`.

    The cap (`resolve_cap`) still bounds each degree's N(N-1)^n chains,
    so that reports do not change: the degrees below the first one over
    the cap are checked, a failure among them is reported, and otherwise
    EnumerationCapExceeded is raised with that degree's count.
    """
    name = space.name or "space"
    size = space.n
    counts = [size * (size - 1) ** n for n in range(2, n_max + 1)]
    limit = resolve_cap(cap)
    over = next((count for count in counts if count > limit), None)
    # the windows are the degree-3 chains; counts never fall with the degree
    best = _first_bad_window(space) if n_max >= 3 and counts[1] <= limit else None
    if best is not None:
        total, pts = best
        between = space.integer_view.between
        dd = {}
        for face, sign in smooth_faces(between, pts):
            for term, sign2 in smooth_faces(between, face):
                dd[term] = dd.get(term, 0) + sign * sign2
        return VerificationReport(
            check="d_squared",
            space=name,
            status="fail",
            params={"n_max": n_max, "checked": _chain_position(space, 3, total, pts)},
            witness={
                "chain": list(pts),
                "l": format_rational(space.integer_view.fraction(total)),
                "dd_terms": [
                    {"points": list(term), "coeff": c}
                    for term, c in sorted(dd.items())
                    if c
                ],
            },
        )
    if over is not None:
        raise EnumerationCapExceeded(over, limit)
    return VerificationReport(
        check="d_squared",
        space=name,
        status="pass",
        params={"n_max": n_max, "checked": sum(counts)},
    )


def check_simp_iso(space, n_max, cap=None):
    """The route `compute` prints below m_X agrees with the full complex.

    For every grading 0 < l < m_X realized up to degree n_max, the direct
    sum of frame homologies, as `compute` prints it (`posets._frame_groups`:
    the reduced homology of interval posets folded by the Kunneth formula,
    with no chains), must equal magnitude homology in degrees 1..n_max,
    betti and torsion both. The gradings are read as scaled ints
    (`chains.realized_totals`), and only those reported become Fractions.
    The full side keeps every chain and splits only by endpoint pair, in
    one block-engine call for every grading, read by scaled length
    (`algebra._block_groups`). On a failure the witness names the first
    grading and degree (l, n) that differ, with both groups. Each side
    counts against the cap on its own.
    """
    mx = m_x(space)
    view = space.integer_view
    top = None if mx.value is None else view.scaled(mx.value)
    totals = [t for t in realized_totals(space, n_max, cap) if t and (top is None or t < top)]
    gradings = [view.fraction(t) for t in totals]
    params = {
        "n_max": n_max,
        "m_x": "inf" if mx.value is None else format_rational(mx.value),
        "gradings": [format_rational(l) for l in gradings],
    }
    name = space.name or "space"
    full = _block_groups(space, totals, n_max, cap)
    printed = _posets._frame_groups(space, gradings, n_max, cap)
    for l, groups in zip(gradings, full):
        for n in range(1, n_max + 1):
            summed = printed.get((l, n), TRIVIAL_GROUP)
            if summed != groups[n]:
                return VerificationReport(
                    check="simp_iso",
                    space=name,
                    status="fail",
                    params=params,
                    witness={
                        "l": format_rational(l),
                        "n": n,
                        "decomposition": _group_json(summed),
                        "full": _group_json(groups[n]),
                    },
                )
    return VerificationReport(check="simp_iso", space=name, status="pass", params=params)


def check_frame_injectivity(space, n_max, cap=None):
    """Each pair frame contributes at most its rank to the full homology.

    For every ordered pair (a, b), the betti number of the frame subcomplex
    of (a, b) at degree n must not exceed the betti number of magnitude
    homology at grading d(a, b). This is a one-sided shadow of the
    decomposition that holds at every grading, not only below m_X. One
    block-engine call gives the full side of every distance at once, and
    the pair frames' side is the route `compute` prints below m_X, the
    reduced homology of the interval I(a, b) shifted by 2
    (`posets.frame_homology_by_degree`), with no chains and no cap step.
    """
    name = space.name or "space"
    idist = space.integer_view.idist
    # each off-diagonal distance, the only nonzero ones, as a scaled int
    totals = sorted({t for row in idist for t in row if t})
    full = dict(zip(totals, _block_groups(space, totals, n_max, cap)))
    frames = [(a, b) for a in range(space.n) for b in range(space.n) if a != b]
    for pairs, (a, b) in enumerate(frames, start=1):
        total = idist[a][b]
        groups = _posets.frame_homology_by_degree(space, (a, b))
        for n in range(1, n_max + 1):
            fb = groups.get(n, TRIVIAL_GROUP).betti
            if fb > full[total][n].betti:
                return VerificationReport(
                    check="frame_injectivity",
                    space=name,
                    status="fail",
                    params={"n_max": n_max, "pairs": pairs},
                    witness={
                        "frame": [a, b],
                        "l": format_rational(space.d(a, b)),
                        "n": n,
                        "frame_betti": fb,
                        "full_betti": full[total][n].betti,
                    },
                )
    return VerificationReport(
        check="frame_injectivity",
        space=name,
        status="pass",
        params={"n_max": n_max, "pairs": len(frames)},
    )


def _realized_frames(space, m_max):
    """Frames of degree <= m_max where the tensor reduction applies, sorted.

    Returns (realized, excluded_count): tuples that equal their own frame
    with no smoothable junction, plus how many self-framed tuples the
    junction criterion rejected. A tuple is its own frame when it is
    proper and no interior point is strictly smooth, so the frames of
    degree m + 1 are those of degree m extended by a point that leaves
    the old last point not strictly smooth; grown degree by degree in
    lexicographic order, each degree comes out sorted. A frame is
    realized when each of its junctions is (`frames.is_realized_frame`),
    so an extension is realized iff the frame it extends is and so is
    its new junction (prev, last, x): a test of the junction mask of
    (prev, last) (`frames._junction_mask`), which is made once per
    (prev, last), with the points that extend it, not once per tuple.
    """
    view = space.integer_view
    between = view.between
    points = range(space.n)
    # (prev, last) -> [(x, whether the junction (prev, last, x) is
    # realized)] for each x that leaves last not strictly smooth
    extensions = {}
    level = [((a, b), True) for a in points for b in points if a != b]
    realized = []
    excluded = 0
    for m in range(1, m_max + 1):
        if m > 1:
            grown = []
            for pts, ok in level:
                key = pts[-2:]
                nexts = extensions.get(key)
                if nexts is None:
                    prev, last = key
                    bad = _junction_mask(view, prev, last)
                    row = between[last]
                    nexts = extensions[key] = [
                        (x, not bad & (row[x] | 1 << x))
                        for x in points
                        if x != last and not between[prev][x] >> last & 1
                    ]
                grown += [(pts + (x,), ok and good) for x, good in nexts]
            level = grown
        for pts, ok in level:
            if ok:
                realized.append(pts)
            else:
                excluded += 1
    return realized, excluded


def _tensor_groups(space, frames, n_max):
    """The interval-poset groups of degrees <= n_max of each frame, in order.

    A frame of degree m has the Kunneth fold of its pairs' interval
    homology, shifted by 2m, as `posets.frame_homology_by_degree` computes
    it. Products are interned by value, as `posets._frame_groups` interns
    them (`posets._Products`), so each distinct (product, pair homology)
    is folded once per call, and each product is shifted and cut at n_max
    once per degree m. Every pair's homology is read, as the one-frame
    fold reads it, before a zero pair makes the product zero. Frames with
    the same groups share one dict; callers must not mutate it.
    """
    interned = _posets._Products(space)
    shifted = {}  # (product id, m) -> its groups by frame degree, up to n_max
    out = []
    for f in frames:
        pid, *rest = [interned.pair(a, b) for a, b in zip(f, f[1:])]
        for hid in rest:
            if pid is None or hid is None:
                pid = None
                break
            pid = interned.fold(pid, hid)
        key = pid, len(f) - 1
        groups = shifted.get(key)
        if groups is None:
            shift = 2 * key[1]
            product = {} if pid is None else interned.products[pid][0]
            groups = shifted[key] = {
                shift + k: group for k, group in product.items() if shift + k <= n_max
            }
        out.append(groups)
    return out


def check_tensor_route(space, n_max, m_max=2, cap=None):
    """Subcomplex homology equals the interval-poset tensor route.

    For every realized frame of degree <= m_max, compare the homology of
    the chain-level subcomplex against the tensor product of reduced
    interval complexes (shifted by twice the frame degree), at each degree
    up to n_max. The subcomplex side comes from `frames.frame_pieces`,
    which searches and reduces only these frames' pieces, on every run;
    the tensor side folds each distinct pair of products once per call
    (`_tensor_groups`). Each frame's groups of degrees 0..n_max are
    compared as one dict, and only on a mismatch are the degrees walked
    for the witness, the first degree that differs. The two routes share
    no code past the metric. Frames
    with a smoothable junction are excluded: insertion does not preserve
    them and the equivalence genuinely fails there (see is_realized_frame).
    Frames of degree above n_max + 1 are left out: the subcomplex of a
    frame of degree m starts at degree m and its tensor route at 2m - 1,
    so both are zero up to n_max.
    """
    name = space.name or "space"
    frames, excluded = _realized_frames(space, min(m_max, n_max + 1))
    pieces = frame_pieces(space, frames, n_max + 1, cap)
    for f, vias in zip(frames, _tensor_groups(space, frames, n_max)):
        groups = {n: group for n, group in pieces[f].items() if n <= n_max}
        if groups == vias:
            continue
        for n in range(n_max + 1):
            direct = groups.get(n, TRIVIAL_GROUP)
            via = vias.get(n, TRIVIAL_GROUP)
            if direct != via:
                return VerificationReport(
                    check="tensor_route",
                    space=name,
                    status="fail",
                    params={
                        "n_max": n_max,
                        "m_max": m_max,
                        "frames": len(frames),
                        "excluded": excluded,
                    },
                    witness={
                        "frame": list(f),
                        "n": n,
                        "subcomplex": _group_json(direct),
                        "tensor": _group_json(via),
                    },
                )
    return VerificationReport(
        check="tensor_route",
        space=name,
        status="pass",
        params={
            "n_max": n_max,
            "m_max": m_max,
            "frames": len(frames),
            "excluded": excluded,
        },
    )


CHECKS = {
    "d_squared": check_d_squared,
    "simp_iso": check_simp_iso,
    "frame_injectivity": check_frame_injectivity,
    "tensor_route": check_tensor_route,
}


def full_suite():
    """Deterministic named spaces used by the standing verification suite."""
    spaces = []
    spaces.extend(cycle_space(n) for n in range(3, 9))
    spaces.extend(path_space(n) for n in range(1, 7))
    spaces.extend(complete_space(n) for n in range(1, 6))
    return spaces


def random_suite(count, seed0=1, sizes=(3, 4, 5, 6), max_w=9):
    """Deterministic family of random graph metrics, sizes cycling."""
    return [
        random_metric(sizes[i % len(sizes)], seed=seed0 + i, max_w=max_w)
        for i in range(count)
    ]


def default_suite(seed=1):
    """Smaller suite the CLI verify subcommand runs by default."""
    spaces = []
    spaces.extend(cycle_space(n) for n in range(3, 7))
    spaces.extend(path_space(n) for n in range(2, 6))
    spaces.extend(complete_space(n) for n in range(3, 5))
    spaces.extend(random_suite(4, seed0=seed, sizes=(3, 4, 5)))
    return spaces


def run_checks(spaces, checks=None, n_max=3, cap=None):
    """Run the named checks over the spaces, yielding reports in order."""
    names = list(checks) if checks else list(CHECKS)
    for bad in set(names) - set(CHECKS):
        raise ValueError(f"unknown check {bad!r}; known: {sorted(CHECKS)}")
    reports = []
    for space in spaces:
        for check_name in names:
            reports.append(CHECKS[check_name](space, n_max=n_max, cap=cap))
    return reports
