"""Proper chains, smoothness, the chain searches and length spectra.

A proper n-chain is a tuple (x_0, ..., x_n) of point indices with
consecutive entries distinct. Its length is the sum of consecutive
distances, a scaled int of the space's `IntegerView`. The boundary
removes one interior point at a time, and only when that point is
strictly smooth: removing it does not change the length of the chain.

A search hands each chain on as one record (points, mask): bit i of mask
is set iff x_i is strictly smooth, so the boundary drops exactly the
points of the mask, and the assembly (`algebra._assemble`) reads the
faces off it without testing any point again. `start_blocks` is the
engine's length-pruned search from a start point, which settles each
point's bit as it appends the next: `block_chains` runs it for the
endpoint blocks the engine reduces, only the orbit representatives of
`IntegerView.pair_orbits`, as an isometry or chain reversal maps a block
isomorphically onto another of its orbit, so it searches only from the
representatives' start points; it carries the masks through its
insertions, cancels each top chain that has one face against that face,
and hands on the blocks of one start point at a time, which the engine
assembles together. The chain-level frame route searches
only geodesically simple chains, in both directions, per call
(`frames._frame_search`) over the same `search_moves`, whose masks are
the points each frame drops. `smooth_mask` reads the mask off a given
tuple, for chains that come from no search, and `smooth_faces` is the
boundary on tuples built on it. No whole-space table of chains is kept.
`length_spectra` counts chains per length without building any, by a
dynamic program over (last point, length). It holds each point's counts
as one int, a field of fixed width per scaled length, and beside it one
int with a bit per length reached, so a degree is one shift-and-add per
ordered pair of points (`_count_packed`). A space whose lengths span
more fields than `PACKED_BITS` allows, such as one with large coprime
denominators, is counted over dicts instead, one entry per length
reached, by `count_step`, with which `verify` also places a chain in
the d^2 check's order. `realized_totals` reads the lengths the same count
reaches up to a degree as scaled ints, the gradings of `compute --l
spectrum` and of `verify`'s `simp_iso`, with no Fraction per length; on
the packed side it walks the supports alone and keeps no count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import AsymmetricTable, CapNotAnInteger, EnumerationCapExceeded, NegativeCap
from .metric import set_bits

DEFAULT_CAP = 5_000_000
CAP_ENV_VAR = "MAGH_CAP"
# the most bits one point's packed counts may take in `length_spectra`;
# on random rational metrics the packed count was the faster in the median
# below 2**16 bits and the slower above, so past it dicts count
PACKED_BITS = 1 << 16


def resolve_cap(cap=None):
    """Effective enumeration cap: explicit argument, else env var, else default.

    Raises CapNotAnInteger if the env var is set to something other than
    an integer, and NegativeCap, naming `cap` or the env var, for a
    negative cap.
    """
    if cap is not None:
        value, source = int(cap), "cap"
    else:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return DEFAULT_CAP
        try:
            value, source = int(env), CAP_ENV_VAR
        except ValueError:
            raise CapNotAnInteger(CAP_ENV_VAR, env) from None
    if value < 0:
        raise NegativeCap(source, value)
    return value


def chain_total(space, points):
    """The length of a tuple of points as a scaled int of the IntegerView."""
    idist = space.integer_view.idist
    return sum(idist[a][b] for a, b in zip(points, points[1:]))


def is_strictly_smooth(space, a, c, b):
    """True when c sits strictly between a and b on a geodesic.

    Requires c distinct from both endpoints and d(a,b) = d(a,c) + d(c,b),
    all compared exactly; this reads the space's betweenness table.
    """
    return space.integer_view.between[a][b] >> c & 1 == 1


def search_moves(space, longest):
    """Each point's next points with their step, ascending, no step over `longest`.

    `longest` is a length as a scaled int of the space's IntegerView; the
    result is the `moves` argument of `start_blocks` and of the frame
    search.
    """
    return [
        [(nxt, d) for nxt, d in enumerate(row) if nxt != last and d <= longest]
        for last, row in enumerate(space.integer_view.idist)
    ]


def start_blocks(start, ends, moves, between, wanted, n_top, steps, limit):
    """The chains from `start` of degree <= n_top with a length in `wanted`
    that end at a point of the bitmask `ends`, each with its smooth-position
    mask.

    One length-pruned search: each chain is extended by every next point
    of `moves` (from `search_moves` with the largest of `wanted`) in
    ascending order, and a prefix is dropped once it is longer than the
    largest wanted length. At degree n_top, the top of the search, a chain
    that ends outside `ends` is not built at all. A chain carries the mask
    whose bit i is set iff x_i is strictly smooth; appending `nxt` to a
    chain of degree n - 1 settles only x_{n-1}, whose bit comes from the
    betweenness table `between` as `between[x_{n-2}][nxt] >> x_{n-1} & 1`.
    Returns (blocks, steps). `blocks` maps (total, end point) to {degree:
    records}, a record being (points, mask), each degree in lexicographic
    order, for the end points in `ends` only; a degree with no chain is
    absent. `steps` is the given count plus one for the start and one per
    prefix kept, and EnumerationCapExceeded is raised as soon as it passes
    `limit`.
    """
    steps += 1
    if steps > limit:
        raise EnumerationCapExceeded(steps, limit)
    longest = max(wanted)
    # kept[b] is bit b of `ends`, read off a list in the inner loop
    kept = [ends >> b & 1 for b in range(len(moves))]
    blocks = {}
    if 0 in wanted and kept[start]:
        blocks[0, start] = {0: [((start,), 0)]}
    level = [((start,), 0, 0)]
    for n in range(1, n_top + 1):
        top = n == n_top
        # x_0 is an endpoint: degree 1 settles no interior point
        bit = 1 << n - 1 if n > 1 else 0
        grown = []
        for pts, total, mask in level:
            x = pts[-1]
            row = between[pts[-2] if n > 1 else x]
            for nxt, d in moves[x]:
                t = total + d
                if t > longest or top and not kept[nxt]:
                    continue
                steps += 1
                ch = pts + (nxt,)
                m = mask | bit if row[nxt] >> x & 1 else mask
                if not top:
                    grown.append((ch, t, m))
                if t in wanted and kept[nxt]:
                    blocks.setdefault((t, nxt), {}).setdefault(n, []).append((ch, m))
            if steps > limit:
                raise EnumerationCapExceeded(steps, limit)
        level = grown
    return blocks, steps


def block_chains(space, totals, n_max, cap=None):
    """The chains of each representative endpoint block whose length is in `totals`.

    `totals` holds lengths as scaled ints of the space's IntegerView.
    Yields, for each start point a in ascending order that has a block,
    the list of its blocks (total, (a, b), records): one for every end
    point b with (a, b) a representative of `IntegerView.pair_orbits`
    joined to a by a proper chain of degree <= n_max and length `total`,
    by total, then b, except a block whose chains all collapse (below). A
    start's blocks come together because the engine assembles them
    together. `records` maps a degree k to the block's chains as records
    (points, mask), where bit i of mask is set iff x_i is strictly smooth,
    as `smooth_mask` reads it, in lexicographic order: every chain for
    k < n_max, and at k = n_max every chain but the collapsed ones. At
    k = n_max + 1 the mask holds only the faces kept, the smooth positions
    whose face is not collapsed, and only the chains with such a face are
    there. A degree with no chain is absent. The masks are made as the
    chains are, so no chain is tested for smoothness again.

    The other blocks of an orbit are not yielded: each has the groups of
    its representative, so a caller summing over all blocks counts each
    block by its orbit's weight, `pair_orbits.weights[a, b]`. An isometry
    g maps the chains of (total, a, b) one to one onto those of (total,
    g a, g b), keeping each chain's length, smooth points and face
    positions, so it is a chain isomorphism with no sign. Reversal,
    (x_0, ..., x_n) -> (x_n, ..., x_0), maps the chains of (total, a, b)
    onto those of (total, b, a), and as d and the betweenness table are
    symmetric it keeps each chain's length and smooth points and sends the
    face that drops x_i to the face that drops x_{n-i}. The signs (-1)^i
    and (-1)^(n-i) differ by (-1)^n, so reversal times the sign e_n =
    (-1)^n e_{n-1} in degree n is an isomorphism of chain complexes. Both
    keep torsion. With no isometry found the representatives are the
    blocks with a <= b. Both tables are checked for symmetry once per
    call, after the last block, so an error a corrupted table causes
    inside a block is reported first with its chain; an asymmetric one
    raises AsymmetricTable, under `python -O` too.

    Degrees 0..n_max come from `start_blocks`, one search per start
    point of a representative, which records no chain that ends outside
    the start's representative ends and builds none at degree n_max.
    Degree n_max + 1 is built by insertion: a point c strictly between
    x_{i-1} and x_i of a degree-n_max chain x of the block is inserted at
    position i, and the result is kept only if i is its first smooth
    position. Removing that point gives x back, so every
    top chain with a smooth face is made exactly once; one without a face
    changes only H_{n_max + 1} and is never built. The first smooth
    position of x is its mask's lowest set bit. The mask of an insertion
    has no bit below i, bit i set, bit i + 1 for the old x_i, now between
    c and x_{i+1}, tested anew, and the old bits above i moved up by one.

    An insertion y whose mask is 1 << i alone has one face, x, so d y =
    +-x. Its parent is then faceless: were x_j smooth for some j >= i, c
    would carry x's higher bits into y, and for j = i the triangle
    inequality keeps the old x_i smooth between c and x_{i+1}. So x is a
    cycle and (x, y) an elementary collapse with a unit coefficient
    (Kaczynski-Mrozek-Slusarek): removing the pair and the x-entry of
    every other top column changes no group below n_max + 1, torsion
    included, and as x has no boundary d^2 is unchanged. The collapse is
    taken only for a parent whose mask is 0, so a corrupted table that
    gives a one-face insertion a faced parent builds y instead, for the
    assembly's checks to see. Each collapsed x is dropped from degree
    n_max, together with its one-face insertions, whose columns are +-x
    and so zero after the collapse; every other top chain loses the bits
    whose face is collapsed, and one left with no bit is dropped. A
    collapsed chain is faceless, and the face of y that drops y_k for
    k >= i + 2 keeps c smooth at i, so besides x only the face at bit
    i + 1 of a y with no smooth point past i + 2 can be collapsed.

    Steps counted against the cap (`resolve_cap`): those of the searches,
    that is one per start searched and every proper chain from it of
    degree <= n_max no longer than the largest total, degree 0 included,
    less those of degree n_max that end outside its representative ends,
    and every top chain a representative block keeps.
    EnumerationCapExceeded is raised as soon as the steps pass the cap,
    checked after the top chains of each parent are kept.
    """
    wanted = set(totals)
    if n_max < 0 or not wanted:
        return
    limit = resolve_cap(cap)
    view = space.integer_view
    between = view.between
    size = space.n
    moves = search_moves(space, max(wanted))
    inner = [[view.between_points(a, b) for b in range(size)] for a in range(size)]
    steps = 0
    for start, ends in enumerate(view.pair_orbits.ends):
        if not ends:
            continue
        blocks, steps = start_blocks(start, ends, moves, between, wanted, n_max, steps, limit)
        out = []
        for key in sorted(blocks):
            records = blocks.pop(key)
            parents = records.get(n_max, ())
            insertions = []
            collapsed = set()
            for pts, mask in parents:
                # a point inserted after the first smooth point x_j lies
                # between x_j and x_{j+1}, so x_j stays smooth: only
                # positions up to j can become the first smooth one
                last = (mask & -mask).bit_length() - 1 if mask else n_max
                made = []
                # set once a faceless x has a one-face insertion y, d y =
                # +-x; such a y is dropped whatever else x has, so none is
                # built
                lone = False
                for i in range(1, last + 1):
                    left = pts[i - 1]
                    right = pts[i]
                    window = inner[left][right]
                    if not window:
                        continue
                    above = mask >> i + 1 << i + 2 | 1 << i
                    after = pts[i + 1] if i < n_max else None
                    for c in window:
                        # x_{i-1} must not turn smooth between x_{i-2} and c
                        if i > 1 and between[pts[i - 2]][c] >> left & 1:
                            continue
                        m = above
                        if after is not None and between[c][after] >> right & 1:
                            m |= 2 << i
                        elif not mask:
                            lone = True
                            continue
                        made.append((pts[:i] + (c,) + pts[i:], m))
                if lone:
                    collapsed.add(pts)
                insertions.append((lone, made))
            top = []
            for gone, made in insertions:
                count = len(top)
                if not collapsed:
                    top += made
                else:
                    for y, m in made:
                        i = (m & -m).bit_length() - 1
                        if gone:
                            # the face at bit i is x itself
                            m &= m - 1
                        # besides x, only the face at bit i + 1 can be
                        # faceless, and only when y has no smooth point
                        # past i + 2: any other face keeps one
                        if (
                            m >> i + 1 & 1
                            and not m >> i + 3
                            and y[: i + 1] + y[i + 2 :] in collapsed
                        ):
                            m &= ~(2 << i)
                        if m:
                            top.append((y, m))
                steps += len(top) - count
                if steps > limit:
                    raise EnumerationCapExceeded(steps, limit)
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
            yield out
    for table in ("idist", "between"):
        rows = getattr(view, table)
        for a in range(size):
            for b in range(a):
                if rows[a][b] != rows[b][a]:
                    raise AsymmetricTable(table, b, a)


@dataclass(frozen=True)
class LengthSpectrum:
    """The lengths realized by proper chains of one degree, ascending.

    `counts[i]` is the number of chains of length `lengths[i]`.
    """

    degree: int
    lengths: tuple
    counts: tuple


def count_step(idist, states):
    """One degree of the chain-count dynamic program, over dicts.

    `states[x]` maps a length t, a scaled int, to the number of proper
    k-chains ending at x with length t; the result is the same for k + 1,
    each chain extended by every next point. As d is symmetric, reversal
    makes it also the count of the chains starting at x. `length_spectra`
    uses it only for spaces whose span of lengths is too wide for its
    packed count (`PACKED_BITS`); `verify` places a chain with it.
    """
    size = len(states)
    grown = [{} for _ in range(size)]
    for last, (row, by_total) in enumerate(zip(idist, states)):
        for nxt in range(size):
            if nxt == last:
                continue
            target = grown[nxt]
            d = row[nxt]
            for total, count in by_total.items():
                key = total + d
                target[key] = target.get(key, 0) + count
    return grown


def _count_by_dicts(idist, n_max, limit):
    """(totals, counts) of each degree 0..n_max in turn, by `count_step`.

    `totals` ascend and `counts[i]` is the number of chains of length
    `totals[i]`; the cap is counted as in `length_spectra`.
    """
    size = len(idist)
    states = [{0: 1} for _ in range(size)]
    steps = 0
    for n in range(n_max + 1):
        if n:
            steps += sum(len(s) for s in states) * (size - 1)
            if steps > limit:
                raise EnumerationCapExceeded(steps, limit)
            states = count_step(idist, states)
        counts = {}
        for by_total in states:
            for total, count in by_total.items():
                counts[total] = counts.get(total, 0) + count
        totals = sorted(counts)
        yield totals, [counts[t] for t in totals]


def _packed_width(idist, n_max):
    """The field width `_count_packed` needs up to degree n_max >= 0, or
    None when a point's counts would take more than `PACKED_BITS`.

    The width is the bytes that hold N(N-1)^n_max, and N for degree 0, in
    bits; a point's counts span the lengths 0..n_max * max d.
    """
    size = len(idist)
    span = n_max * max(map(max, idist), default=0) + 1
    # a field takes at least 8 bits, so this bounds n_max before the power
    # (off the diagonal d > 0, so only N <= 2 has an unbounded n_max here,
    # and there the power is at most 2)
    if span * 8 > PACKED_BITS:
        return None
    width = -(-max(size, size * (size - 1) ** n_max).bit_length() // 8) * 8
    return width if span * width <= PACKED_BITS else None


def _count_packed(idist, n_max, limit, width):
    """`_count_by_dicts` with each point's counts packed in one int.

    The count of the chains that end at x with length t is the field of
    `width` bits, a multiple of 8, at bit t * width of `states[x]`, and
    bit t of `support[x]` is set iff it is not zero. A degree is one
    shift-and-add per ordered pair of points, and its counts are read
    off the bytes of the states' sum at the set bits of the supports'
    union. `width` must hold N(N-1)^n_max, the chains of the top degree,
    so that no field carries into the next. With `width` None only the
    supports are walked, with the same steps, and each degree's counts
    are None.
    """
    size = len(idist)
    counted = width is not None
    moves = [
        [(nxt, d * width if counted else 0, d) for nxt, d in enumerate(row) if nxt != last]
        for last, row in enumerate(idist)
    ]
    states = [1] * size
    support = [1] * size
    steps = 0
    for n in range(n_max + 1):
        if n:
            steps += sum(s.bit_count() for s in support) * (size - 1)
            if steps > limit:
                raise EnumerationCapExceeded(steps, limit)
            reach = [0] * size
            if counted:
                grown = [0] * size
                for state, seen, row in zip(states, support, moves):
                    for nxt, shift, d in row:
                        grown[nxt] += state << shift
                        reach[nxt] |= seen << d
                states = grown
            else:
                for seen, row in zip(support, moves):
                    for nxt, _, d in row:
                        reach[nxt] |= seen << d
            support = reach
        union = 0
        for seen in support:
            union |= seen
        totals = set_bits(union)
        if not counted:
            yield totals, None
            continue
        nbytes = width // 8
        total = sum(states)
        packed = total.to_bytes((total.bit_length() + 7) // 8, "little")
        yield totals, [
            int.from_bytes(packed[t * nbytes : (t + 1) * nbytes], "little") for t in totals
        ]


def _degree_counts(space, n_max, cap, counted=True):
    """(totals, counts) of each degree 0..n_max in turn, packed where the
    span fits `PACKED_BITS` and over dicts otherwise; none if n_max < 0.

    `counts` is None on the packed side unless `counted`, which walks the
    supports alone with the same steps: only `length_spectra` reads the
    counts. The cap is resolved first, so a bad cap is refused at any
    n_max.
    """
    limit = resolve_cap(cap)
    if n_max < 0:
        return iter(())
    idist = space.integer_view.idist
    width = _packed_width(idist, n_max)
    if width is None:
        return _count_by_dicts(idist, n_max, limit)
    return _count_packed(idist, n_max, limit, width if counted else None)


def length_spectra(space, n_max, cap=None):
    """The LengthSpectrum of every degree 0..n_max (none if n_max < 0).

    A dynamic-programming count over (last point, int length) that builds
    no chain. Each (state, next point) transition, a state being a last
    point with a length that some chain reaches, is one step against the
    cap (`resolve_cap`); before each degree is counted,
    EnumerationCapExceeded is raised if the steps so far would pass it.
    A space whose per-point counts fit in `PACKED_BITS` is counted packed
    (`_count_packed`), any other with `count_step`; both give the same
    spectra and steps.
    """
    fraction = space.integer_view.fraction
    return [
        LengthSpectrum(
            degree=n,
            lengths=tuple(fraction(t) for t in totals),
            counts=tuple(counts),
        )
        for n, (totals, counts) in enumerate(_degree_counts(space, n_max, cap))
    ]


def realized_totals(space, n_max, cap=None):
    """The lengths of the proper chains of degree <= n_max, as sorted scaled ints.

    The union of the lengths of `length_spectra`, from the same count and
    with the same cap steps, but with no count decoded, on the packed
    side none kept, and no Fraction and no spectrum made:
    0 for a space with a point, and every length a chain of degree
    1..n_max reaches. `compute --l spectrum` prints these lengths, and
    `verify`'s `simp_iso` checks those between 0 and m_X.
    """
    lengths = set()
    for totals, _ in _degree_counts(space, n_max, cap, counted=False):
        lengths.update(totals)
    return sorted(lengths)


def smooth_mask(between, pts):
    """The smooth positions of a tuple of points, as a bit mask.

    `between` is the space's betweenness table. Bit i is set iff interior
    point x_i is strictly smooth in (x_{i-1}, x_i, x_{i+1}). This is the
    mask the chain searches carry with each chain they build
    (`start_blocks`, `frames._frame_search`); `smooth_faces` reads it off
    given tuples.
    """
    mask = 0
    for i in range(1, len(pts) - 1):
        if between[pts[i - 1]][pts[i + 1]] >> pts[i] & 1:
            mask |= 1 << i
    return mask


def smooth_faces(between, pts):
    """The boundary of a proper chain of points, as [(face, sign)].

    `between` is the space's betweenness table. Interior point x_i is
    removed with sign (-1)^i, and only when it is strictly smooth in
    (x_{i-1}, x_i, x_{i+1}), that is when bit i of `smooth_mask` is set.
    Faces of one proper chain are distinct proper chains of the same
    length, in order of the removed index.
    """
    mask = smooth_mask(between, pts)
    return [
        (pts[:i] + pts[i + 1 :], -1 if i & 1 else 1)
        for i in range(1, len(pts) - 1)
        if mask >> i & 1
    ]
