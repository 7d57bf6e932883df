"""Cross-checks between independent computation routes.

Each check returns a VerificationReport rather than raising: a failing
check is data, with a concrete witness, so suites can report everything
they found. All iteration orders are sorted, making reports byte-stable
across runs. No check builds a whole degree of chains: `d_squared`
walks the chains once per start point and places a failing one in its
order with the chain-count dynamic program (`chains.count_step`), and
`simp_iso`, `frame_injectivity` and `tensor_route` read their frame side
from one frame table per space (`frames.frame_table`). It keeps the
homology of each frame piece and no chains, so the three checks search
each start point and reduce each piece once between them, and a block
one check has filled costs the next no search and no cap step.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import TRIVIAL_GROUP, HomologyGroup, block_homology_rows
from .chains import chain_total, count_step, length_spectra, resolve_cap, smooth_faces
from .errors import EnumerationCapExceeded
from .frames import frame_table, is_realized_frame, m_x
from .metric import (
    complete_space,
    cycle_space,
    format_rational,
    path_space,
    random_metric,
)
from .posets import frame_homology_by_degree


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


def _first_dd_failure(space, top):
    """(degree, total, chain, dd) of the first chain of degree 2..top whose
    boundary-of-boundary is not zero, in (degree, length, lexicographic)
    order; None if there is none.

    One walk per start point over its proper chains, a degree at a time,
    carrying whether each chain already has a smooth interior point. Only
    a chain with a smooth face has a boundary-of-boundary to check: its
    faces are those of `smooth_faces`, and each face's own faces are read
    from those kept for the faced chains of lower degree from the same
    start, every one of which the walk met first. A face not among them
    has none. At the top degree a chain is built only if it has a face.
    Once a degree has a failure, no higher degree is walked.
    """
    view = space.integer_view
    between = view.between
    size = space.n
    moves = [[nxt for nxt in range(size) if nxt != last] for last in range(size)]
    # smooth[prev][last]: the next points that make `last` strictly smooth
    smooth = [
        [tuple(nxt for nxt, mask in enumerate(row) if mask >> last & 1) for last in range(size)]
        for row in between
    ]
    best = None
    for start in range(size):
        faces_of = {}
        level = [((start, nxt), False) for nxt in moves[start]]
        for n in range(2, top + 1):
            grown = []
            for pts, faced in level:
                prev, last = pts[-2], pts[-1]
                smoothing = smooth[prev][last]
                # at the top degree only the chains with a face are built
                for nxt in moves[last] if faced or n < top else smoothing:
                    ch = pts + (nxt,)
                    has_face = faced or nxt in smoothing
                    if n < top:
                        grown.append((ch, has_face))
                    if not has_face:
                        continue
                    faces = smooth_faces(between, ch)
                    if n < top:
                        faces_of[ch] = faces
                    dd = {}
                    for face, sign in faces:
                        for term, sign2 in faces_of.get(face, ()):
                            dd[term] = dd.get(term, 0) + sign * sign2
                    if any(dd.values()):
                        found = (n, chain_total(space, ch), ch, dd)
                        if best is None or found[:3] < best[:3]:
                            best = found
            if best is not None and best[0] == n:
                top = n
                break
            level = grown
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

    The cap (`resolve_cap`) bounds each degree's N(N-1)^n chains: the
    degrees below the first one over the cap are checked, a failure among
    them is reported, and otherwise EnumerationCapExceeded is raised with
    that degree's count.
    """
    name = space.name or "space"
    size = space.n
    counts = [size * (size - 1) ** n for n in range(2, n_max + 1)]
    top = n_max
    over = None
    if counts:
        limit = resolve_cap(cap)
        for n, count in enumerate(counts, start=2):
            if count > limit:
                top, over = n - 1, count
                break
    best = _first_dd_failure(space, top)
    if best is not None:
        n, total, pts, dd = best
        return VerificationReport(
            check="d_squared",
            space=name,
            status="fail",
            params={"n_max": n_max, "checked": _chain_position(space, n, total, pts)},
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


def _grading_values(space, n_max, mx_value, cap=None):
    """Gradings 0 < l < m_X realized by chains of degree <= n_max."""
    lengths = set()
    for spectrum in length_spectra(space, n_max, cap)[1:]:
        lengths.update(spectrum.lengths)
    out = [l for l in sorted(lengths) if l > 0]
    if mx_value is not None:
        out = [l for l in out if l < mx_value]
    return out


def check_simp_iso(space, n_max, cap=None):
    """Frame decomposition agrees with the full complex below m_X.

    For every grading 0 < l < m_X realized up to degree n_max, the direct
    sum of frame subcomplex homologies must equal magnitude homology in
    degrees 1..n_max, betti and torsion both. The two sides share the
    assembly of complexes from bases: one keeps the geodesically simple
    chains and splits them by frame, reading every endpoint block of
    every grading from the frame table, the other keeps every chain and
    splits only by endpoint pair, in one block-engine call for every
    grading.
    """
    mx = m_x(space)
    gradings = _grading_values(space, n_max, mx.value, cap)
    params = {
        "n_max": n_max,
        "m_x": "inf" if mx.value is None else format_rational(mx.value),
        "gradings": [format_rational(l) for l in gradings],
    }
    name = space.name or "space"
    full = {
        (row.l, row.n): row.group
        for row in block_homology_rows(space, gradings, n_max, cap)
    }
    totals = [space.integer_view.scaled(l) for l in gradings]
    points = range(space.n)
    table = frame_table(space, list(itertools.product(totals, points, points)), n_max + 1, cap)
    parts = {}
    for (total, _, _), pieces in table.items():
        for groups in pieces.values():
            for n, group in groups.items():
                parts.setdefault((total, n), []).append(group)
    for l, total in zip(gradings, totals):
        for n in range(1, n_max + 1):
            summed = HomologyGroup.direct_sum(parts.get((total, n), ()))
            if summed != full[l, n]:
                return VerificationReport(
                    check="simp_iso",
                    space=name,
                    status="fail",
                    params=params,
                    witness={
                        "l": format_rational(l),
                        "n": n,
                        "decomposition": _group_json(summed),
                        "full": _group_json(full[l, n]),
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
    the frame table the pair frames' side, from their blocks (d(a, b), a,
    b).
    """
    name = space.name or "space"
    gradings = sorted({space.d(a, b) for a in range(space.n) for b in range(space.n) if a != b})
    full = {
        (row.l, row.n): row.group
        for row in block_homology_rows(space, gradings, n_max, cap)
    }
    idist = space.integer_view.idist
    blocks = [
        (idist[a][b], a, b) for a in range(space.n) for b in range(space.n) if a != b
    ]
    table = frame_table(space, blocks, n_max + 1, cap)
    for pairs, block in enumerate(blocks, start=1):
        _, a, b = block
        l = space.d(a, b)
        groups = table[block].get((a, b), {})
        for n in range(1, n_max + 1):
            fb = groups.get(n, TRIVIAL_GROUP).betti
            if fb > full[l, n].betti:
                return VerificationReport(
                    check="frame_injectivity",
                    space=name,
                    status="fail",
                    params={"n_max": n_max, "pairs": pairs},
                    witness={
                        "frame": [a, b],
                        "l": format_rational(l),
                        "n": n,
                        "frame_betti": fb,
                        "full_betti": full[l, n].betti,
                    },
                )
    return VerificationReport(
        check="frame_injectivity",
        space=name,
        status="pass",
        params={"n_max": n_max, "pairs": len(blocks)},
    )


def _realized_frames(space, m_max):
    """Frames of degree <= m_max where the tensor reduction applies, sorted.

    Returns (realized, excluded_count): tuples that equal their own frame
    with no smoothable junction, plus how many self-framed tuples the
    junction criterion rejected. A tuple is its own frame when it is
    proper and no interior point is strictly smooth, so the frames of
    degree m + 1 are those of degree m extended by a point that leaves
    the old last point not strictly smooth; grown degree by degree in
    lexicographic order, each degree comes out sorted.
    """
    between = space.integer_view.between
    points = range(space.n)
    level = [(a, b) for a in points for b in points if a != b]
    realized = []
    excluded = 0
    for m in range(1, m_max + 1):
        if m > 1:
            level = [
                pts + (x,)
                for pts in level
                for x in points
                if x != pts[-1] and not between[pts[-2]][x] >> pts[-1] & 1
            ]
        for pts in level:
            if is_realized_frame(space, pts):
                realized.append(pts)
            else:
                excluded += 1
    return realized, excluded


def check_tensor_route(space, n_max, m_max=2, cap=None):
    """Subcomplex homology equals the interval-poset tensor route.

    For every realized frame of degree <= m_max, compare the homology of
    the chain-level subcomplex against the tensor product of reduced
    interval complexes (shifted by twice the frame degree), at each degree
    up to n_max. The subcomplex side is read from the frame table, block
    (length of f, f[0], f[-1]); the tensor side folds each frame's
    intervals once for every degree. The two routes share no code past
    the metric. Frames
    with a smoothable junction are excluded: insertion does not preserve
    them and the equivalence genuinely fails there (see is_realized_frame).
    Frames of degree above n_max + 1 are left out: the subcomplex of a
    frame of degree m starts at degree m and its tensor route at 2m - 1,
    so both are zero up to n_max.
    """
    name = space.name or "space"
    frames, excluded = _realized_frames(space, min(m_max, n_max + 1))
    blocks = [(chain_total(space, f), f[0], f[-1]) for f in frames]
    table = frame_table(space, blocks, n_max + 1, cap)
    for f, block in zip(frames, blocks):
        groups = table[block].get(f, {})
        vias = frame_homology_by_degree(space, f)
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
