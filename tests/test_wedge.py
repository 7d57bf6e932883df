"""One-point gluings: MH(X v Y) = MH(X) + MH(Y) away from (l, n) = (0, 0).

Glue X and Y at one point, p in X with q in Y, and set d(x, y) = d(x, p)
+ d(q, y) across. Hepworth-Willerton prove the split for graphs; here it
is tested on rational metrics too. The wedges have gradings on both sides
of m_X, so the frame route and the endpoint-block engine both answer.
"""

from fractions import Fraction

import pytest

from magh.algebra import HomologyGroup
from magh.metric import complete_space, cycle_space, random_metric, validate_metric
from magh.posets import magnitude_homology_rows

from test_blocks import realized_lengths


def wedge(x, p, y, q):
    """X and Y glued at p in X and q in Y: X's points, then Y's but q."""
    rest = [j for j in range(y.n) if j != q]
    across = [[x.d(i, p) + y.d(q, j) for j in rest] for i in range(x.n)]
    rows = [list(x.dist[i]) + across[i] for i in range(x.n)]
    for a, j in enumerate(rest):
        rows.append([across[i][a] for i in range(x.n)] + [y.d(j, k) for k in rest])
    return validate_metric(rows, name=f"{x.name}v{y.name}")


def collinear3():
    d = [[Fraction(0), Fraction(1, 3), Fraction(5, 6)]]
    d += [[Fraction(1, 3), Fraction(0), Fraction(1, 2)], [Fraction(5, 6), Fraction(1, 2), Fraction(0)]]
    return validate_metric(d, name="collinear(1/3,1/2)")


@pytest.mark.parametrize(
    "x, y, n_max",
    [
        (cycle_space(5), cycle_space(4), 4),
        (complete_space(4), cycle_space(5), 4),
        (random_metric(5, seed=3), cycle_space(5), 3),
        (collinear3(), cycle_space(5), 4),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_wedge_splits_as_direct_sum(x, y, n_max):
    glued = wedge(x, 0, y, 0)
    assert glued.n == x.n + y.n - 1
    lengths = realized_lengths(glued, n_max)
    assert len(lengths) > 1
    whole, left, right = (
        magnitude_homology_rows(space, lengths, n_max) for space in (glued, x, y)
    )
    assert [(r.l, r.n) for r in whole] == [(r.l, r.n) for r in left] == [(r.l, r.n) for r in right]
    nonzero = 0
    for w, a, b in zip(whole, left, right):
        if (w.l, w.n) == (0, 0):
            continue
        assert w.group == HomologyGroup.direct_sum([a.group, b.group]), (w.l, w.n)
        nonzero += not w.group.is_trivial()
    assert nonzero
