"""Cross-checks between independent computation routes.

Each check returns a VerificationReport rather than raising: a failing
check is data, with a concrete witness, so suites can report everything
they found. All iteration orders are sorted, making reports byte-stable
across runs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import HomologyGroup, block_homology_rows
from .chains import chain_table, length_spectra, smooth_faces
from .frames import (
    frame_subcomplex,
    is_frame,
    is_realized_frame,
    m_x,
    simp_decomposition,
)
from .metric import (
    complete_space,
    cycle_space,
    format_rational,
    path_space,
    random_metric,
)
from .posets import frame_homology_via_posets


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


def check_d_squared(space, n_max, cap=None):
    """Boundary-of-boundary vanishes for every proper chain of degree <= n_max.

    This exercises the smoothness filter directly: a wrong filter breaks
    the identity on small cycles immediately. Chains are visited by
    degree, then length, then lexicographically, and the report names the
    first one whose boundary-of-boundary is not zero.
    """
    view = space.integer_view
    between = view.between
    checked = 0
    for n in range(2, n_max + 1):
        # the boundary of each face, shared by the chains of this degree
        face_terms = {}
        for total, bucket in chain_table(space, n, cap).buckets.items():
            for index, pts in enumerate(bucket):
                faces = smooth_faces(between, pts)
                if not faces:
                    continue
                dd = {}
                for face, sign in faces:
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
    chains and splits them by frame, the other keeps every chain and
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
    for l in gradings:
        pieces = simp_decomposition(space, l, n_max + 1, cap)
        for n in range(1, n_max + 1):
            summed = HomologyGroup.direct_sum(
                cx.homology_or_trivial(n) for cx in pieces.values()
            )
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
    block-engine call gives the full side of every distance at once.
    """
    name = space.name or "space"
    gradings = sorted({space.d(a, b) for a in range(space.n) for b in range(space.n) if a != b})
    full = {
        (row.l, row.n): row.group
        for row in block_homology_rows(space, gradings, n_max, cap)
    }
    pairs = 0
    for a in range(space.n):
        for b in range(space.n):
            if a == b:
                continue
            pairs += 1
            l = space.d(a, b)
            sub = frame_subcomplex(space, (a, b), n_max + 1, cap)
            for n in range(1, n_max + 1):
                fb = sub.homology_or_trivial(n).betti
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
        params={"n_max": n_max, "pairs": pairs},
    )


def _realized_frames(space, m_max):
    """Frames of degree <= m_max where the tensor reduction applies, sorted.

    Returns (realized, excluded_count): tuples that equal their own frame
    with no smoothable junction, plus how many self-framed tuples the
    junction criterion rejected.
    """
    realized = []
    excluded = 0
    for m in range(1, m_max + 1):
        for pts in itertools.product(range(space.n), repeat=m + 1):
            if any(x == y for x, y in zip(pts, pts[1:])):
                continue
            if not is_frame(space, pts):
                continue
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
    up to n_max. The two routes share no code past the metric. Frames
    with a smoothable junction are excluded: insertion does not preserve
    them and the equivalence genuinely fails there (see is_realized_frame).
    Frames of degree above n_max + 1 are left out: the subcomplex of a
    frame of degree m starts at degree m and its tensor route at 2m - 1,
    so both are zero up to n_max.
    """
    name = space.name or "space"
    frames, excluded = _realized_frames(space, min(m_max, n_max + 1))
    for f in frames:
        sub = frame_subcomplex(space, f, n_max + 1, cap)
        for n in range(n_max + 1):
            direct = sub.homology_or_trivial(n)
            via = frame_homology_via_posets(space, f, n)
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
