"""Hot numeric kernels, vectorised with numpy: each handles all nodes at once,
with no per-node Python loop but one knot search per node for a block of
sample times, which also finds `range_crossings`' segments at its interval
starts. `bfs_tree` walks neighbour bitmasks level by level, as far as its
caller asks; `path_back` reads a path back from those levels and `depths`
each reached node's hop count. The tests hold loop references that the
kernels must match bit for bit.
"""

from __future__ import annotations

import numpy as np


def positions_at(knot_t, knot_x, knot_y, offsets, t):
    """Interpolate every node's position at time t.

    Trajectories are piecewise-linear knot sequences stored flat with per-node
    offsets, at least one knot per node; before the first knot or past the
    last one the node rests there.
    """
    # knots at or before t per node; each node's knot times are sorted, so
    # this equals searchsorted(side="right") within the node's segment. One
    # searchsorted over node-shifted times would not: the shift can round a
    # knot just after t onto t.
    count = np.add.reduceat((knot_t <= t).astype(np.int64), offsets[:-1])
    return _interpolate(knot_t, knot_x, knot_y, offsets, count, t)


def positions_block(knot_t, knot_x, knot_y, offsets, times):
    """Positions for every node at each sample time: shape (len(times), n, 2).

    One pass: one searchsorted per node counts its knots at or before every
    time, and `positions_at`'s expressions run once on (times × nodes)
    arrays, so each sample equals `positions_at` bit for bit.
    """
    count = _knots_at_or_before(knot_t, offsets, times)
    return _interpolate(knot_t, knot_x, knot_y, offsets, count, times[:, None])


def _knots_at_or_before(knot_t, offsets, times):
    """Each node's count of knots at or before each time: (len(times), n)."""
    count = np.empty((times.size, offsets.size - 1), dtype=np.int64)
    for i in range(offsets.size - 1):
        count[:, i] = np.searchsorted(knot_t[offsets[i]:offsets[i + 1]], times,
                                      side="right")
    return count


def _interpolate(knot_t, knot_x, knot_y, offsets, count, t):
    """Positions from each node's count of knots at or before t; `count`'s
    last axis runs over the nodes and `t` broadcasts against it."""
    starts = offsets[:-1]
    last = offsets[1:] - 1
    k = starts + count - 1
    before = k < starts
    k = np.clip(k, starts, last)
    k1 = np.minimum(k + 1, last)
    t0 = knot_t[k]
    t1 = knot_t[k1]
    rest = before | (k == last) | (t1 == t0)
    w = (t - t0) / np.where(rest, 1.0, t1 - t0)
    out = np.empty(k.shape + (2,), dtype=np.float64)
    for col, knot_v in ((0, knot_x), (1, knot_y)):
        v0 = knot_v[k]
        out[..., col] = np.where(rest, v0, v0 + (knot_v[k1] - v0) * w)
    return out


def adjacency(pos, range_m):
    """Unit-disk connectivity, range inclusive, no self-loops."""
    dx = pos[:, 0, None] - pos[None, :, 0]
    dy = pos[:, 1, None] - pos[None, :, 1]
    adj = dx * dx + dy * dy <= range_m * range_m
    np.fill_diagonal(adj, False)
    return adj


def neighbour_bits(adj):
    """Pack a bool adjacency matrix into one int per row: bit v of row u is
    adj[u, v]. One column or more; each row packs to little-endian bytes."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def set_bits(bits):
    """Positions of the set bits of a non-negative int, ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length() - 1)
        bits ^= low
    return ids


def bfs_tree(rows, src, mask=-1, stop=0):
    """The BFS tree from src as its levels: a list of int bitmasks, where
    levels[d] holds the nodes d hops from src.

    `rows` are symmetric neighbour bitmasks as from `neighbour_bits`. Only
    nodes whose bit is set in `mask` are entered (src always is). The walk
    ends after the first level that shares a bit with `stop`, or when no new
    node is reached.
    """
    levels = [1 << src]
    seen = levels[0]
    while not levels[-1] & stop:
        reach = 0
        frontier = levels[-1]
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        new = reach & mask & ~seen
        if not new:
            break
        seen |= new
        levels.append(new)
    return levels


def path_back(rows, levels, dst):
    """The hop path from levels[0]'s node to dst, a node of the last level,
    as a tuple. The parent of v is the lowest id in `rows[v] & previous
    level`: the one canonical rule, so every caller reconstructs the same
    shortest paths."""
    path = [dst]
    for level in reversed(levels[:-1]):
        prev = rows[path[-1]] & level
        path.append((prev & -prev).bit_length() - 1)
    path.reverse()
    return tuple(path)


def depths(levels):
    """Hop count of every node a walk's levels reach, as a {node: depth}
    dict in ascending node id."""
    hops = {v: d for d, level in enumerate(levels) for v in set_bits(level)}
    return dict(sorted(hops.items()))


#: pair-intervals per block of range_crossings' vectorised pass, so that a
#: build's temporaries stay near 130 kB each whatever the network's size
_BLOCK_PAIR_INTERVALS = 16384


def range_crossings(knot_t, knot_x, knot_y, offsets, hi, r2, delta):
    """Where every node pair enters or leaves range r in the span [0, hi).

    Between consecutive knot times every node moves linearly, so on such an
    interval a pair's d² − r² is A τ² + B τ + C in the time τ since its start,
    and the link can flip only at a root. Returns

    - `start`: (n, n) bool, the links at 0;
    - `events`: (times, a, b) arrays sorted by time; at each the link a-b
      flips, so the links at t are `start` with every event at or before t
      applied;
    - `guards`: (lows, highs) of the time spans where d² − r² may lie within
      `delta` of 0, so that the float error of this model or of the exact
      test could decide the sign. Around a root the half-width is
      δ/|dd²/dt| + sqrt(δ/A); a pair whose minimum of d² − r² lies within δ
      of 0 (grazing), or that does not move relative to the other (A = 0)
      with |C| <= δ, is guarded for the whole interval. A link that differs
      across a knot time, where a node jumps (two knots at one time) or
      rounding splits a crossing, flips there, and that instant is guarded.
    """
    n = offsets.size - 1
    starts = offsets[:-1]
    last = offsets[1:] - 1
    # sorted distinct times; np.unique would do, but its first call costs
    # 1.5 MB of resident memory
    breaks = np.sort(np.concatenate(([0.0], knot_t[(knot_t > 0.0) & (knot_t < hi)], [hi])))
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    m = breaks.size - 1
    # each node's segment at each interval start, found as positions_block does
    k = np.clip(_knots_at_or_before(knot_t, offsets, breaks[:-1]) + (starts - 1), starts, last)
    a, b = np.triu_indices(n, 1)
    span = np.diff(breaks)[:, None]
    inside = np.empty((m, a.size), dtype=bool)
    found = []
    # a block of intervals at a time, so the per-node motion and the
    # (intervals × pairs) temporaries stay small; only pairs whose d² − r²
    # comes near 0 on their interval go on to the roots, the others keep one
    # side of the range throughout
    rows = max(1, _BLOCK_PAIR_INTERVALS // max(1, a.size))
    for r in range(0, m, rows):
        block = slice(r, r + rows)
        kb = k[block]
        k1 = np.minimum(kb + 1, last)
        begin = breaks[:-1][block, None]
        t0 = knot_t[kb]
        dt = knot_t[k1] - t0
        moving = (t0 <= begin) & (dt > 0)
        dt = np.where(moving, dt, 1.0)
        motion = []
        for knot_v in (knot_x, knot_y):
            v = np.where(moving, (knot_v[k1] - knot_v[kb]) / dt, 0.0)
            motion.append((knot_v[kb] + v * (begin - t0), v))
        (px, vx), (py, vy) = motion
        dx = px[:, a] - px[:, b]
        dy = py[:, a] - py[:, b]
        ux = vx[:, a] - vx[:, b]
        uy = vy[:, a] - vy[:, b]
        A = ux * ux + uy * uy
        B = 2.0 * (dx * ux + dy * uy)
        C = dx * dx + dy * dy - r2
        inside[block] = C <= 0
        L = span[block]
        with np.errstate(divide="ignore", invalid="ignore"):
            tv = np.clip(np.where(A > 0, -B / (2.0 * A), 0.0), 0.0, L)
        near = (((A * tv + B) * tv + C <= 2.0 * delta)
                & (np.maximum(C, (A * L + B) * L + C) >= -2.0 * delta))
        j, p = np.nonzero(near)
        found.append((j + r, p, A[j, p], B[j, p], C[j, p]))
    j, p, A, B, C = (np.concatenate(parts) for parts in zip(*found))
    L = span[j, 0]
    disc = B * B - 4.0 * A * C
    two = disc > 4.0 * A * delta            # two roots, d² − r² dips below −δ
    graze = ~two                            # near 0 throughout: guard it all
    j2, p2, A, B, C, L, disc = (x[two] for x in (j, p, A, B, C, L, disc))
    sq = np.sqrt(disc)
    q = -0.5 * (B + np.copysign(sq, B))
    tau1 = np.minimum(q / A, C / q)
    tau2 = np.maximum(q / A, C / q)
    half = delta / sq + np.sqrt(delta / A)
    # the links just after each interval start: a root at τ = 0 has passed
    inside[j2, p2] = (tau1 <= 0) & (tau2 > 0)
    enter = (tau1 > 0) & (tau1 < L)
    leave = (tau2 > 0) & (tau2 < L)
    after = inside.copy()
    after[j2[enter], p2[enter]] = True
    after[j2[leave], p2[leave]] = False
    j0, p0 = np.nonzero(after[:-1] != inside[1:])   # a jump, or rounding at a knot
    j0 += 1
    times = np.concatenate((breaks[j2[enter]] + tau1[enter],
                            breaks[j2[leave]] + tau2[leave], breaks[j0]))
    pairs = np.concatenate((p2[enter], p2[leave], p0))
    order = np.argsort(times, kind="stable")
    pairs = pairs[order]
    # guards: root bands reaching into their interval, grazing intervals,
    # and the instants of boundary flips
    lows, highs = [], []
    for tau in (tau1, tau2):
        near = (tau + half >= 0) & (tau - half <= L)
        mid = breaks[j2[near]] + tau[near]
        lows.append(mid - half[near])
        highs.append(mid + half[near])
    lows.append(breaks[j[graze]])
    highs.append(breaks[j[graze] + 1])
    lows.append(breaks[j0])
    highs.append(breaks[j0])
    adj = np.zeros((n, n), dtype=bool)
    adj[a, b] = inside[0]
    adj |= adj.T
    return (adj, (times[order], a[pairs], b[pairs]),
            (np.concatenate(lows), np.concatenate(highs)))


#: pair distances per block of separation_series, so that its two
#: temporaries stay near 130 kB each however long the sampled run
_BLOCK_PAIR_DISTANCES = 16384


def separation_series(block):
    """Average separation A_i(t) per node for a (S, n, 2) position block,
    through two (s, n, n) temporaries for a block of s samples at a time;
    dy² added in place to dx² gives the same bits as summing a (S, n, n, 2)
    array of squares over its last axis, and each sample's row sums are
    those of the whole block."""
    samples, n = block.shape[:2]
    step = max(1, _BLOCK_PAIR_DISTANCES // (n * n))
    series = np.empty((samples, n))
    for s in range(0, samples, step):
        part = block[s:s + step]
        dists = part[:, :, None, 0] - part[:, None, :, 0]
        dists *= dists
        dy = part[:, :, None, 1] - part[:, None, :, 1]
        dy *= dy
        dists += dy
        np.sqrt(dists, out=dists)
        dists.sum(axis=2, out=series[s:s + step])
    series /= n - 1
    return series
