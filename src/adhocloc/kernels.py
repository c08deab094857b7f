"""Hot numeric kernels. One instant's positions are a bisection of each node's
knots on Python floats (`position_at`), which at the networks simulated here
beats any array pass; a block of sample times is vectorised with numpy, one
knot search per node for all of them. That search also counts each node's
knots at every instant some node turns, from which `range_crossings` cuts
each pair's own segments. `bfs_tree` walks neighbour bitmasks level by level,
as far as its caller asks; `path_back` reads a path back from those levels
and `depth` one node's hop count. The tests hold loop references that the
kernels must match bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


def position_at(times, xs, ys, t):
    """One node's position at time t >= 0 from its knot lists: linear between
    knots; before the first knot or past the last one the node rests there.
    Of knots sharing a time, the last one holds at that time."""
    if t < 0:
        raise ValueError(f"negative query time {t}")
    k = bisect_right(times, t) - 1
    if k < 0:
        return xs[0], ys[0]
    if k == len(times) - 1:
        return xs[k], ys[k]
    w = (t - times[k]) / (times[k + 1] - times[k])
    x0, y0 = xs[k], ys[k]
    return x0 + (xs[k + 1] - x0) * w, y0 + (ys[k + 1] - y0) * w


def positions_at(trajectories, t):
    """Every node's `position_at` time t as an (n, 2) array, from trajectories
    with `times`, `xs` and `ys` knot lists."""
    return np.array([position_at(traj.times, traj.xs, traj.ys, t)
                     for traj in trajectories], dtype=np.float64)


def positions_block(knot_t, knot_x, knot_y, offsets, times):
    """Positions for every node at each sample time: shape (len(times), n, 2).

    One pass: one searchsorted per node counts its knots at or before every
    time, and `position_at`'s expressions run once on (times × nodes)
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


def depth(levels, node):
    """Hops from levels[0]'s node to `node`, or None when the walk missed it."""
    for d, level in enumerate(levels):
        if level >> node & 1:
            return d
    return None


def _motion(knot_t, knot_x, knot_y, k, last, begin):
    """One node's motion on each segment: its position at the segment's
    start `begin` and its velocity, the rows x, vx, y, vy of a (4, segments)
    array, from the node's knot index k at `begin` and its last knot's index.
    A node before its first knot or past its last rests there."""
    k1 = np.minimum(k + 1, last)
    t0 = knot_t[k]
    dt = knot_t[k1] - t0
    moving = (t0 <= begin) & (dt > 0)
    dt = np.where(moving, dt, 1.0)
    out = np.empty((4, k.size))
    for row, knot_v in ((0, knot_x), (2, knot_y)):
        out[row + 1] = np.where(moving, (knot_v[k1] - knot_v[k]) / dt, 0.0)
        out[row] = knot_v[k] + out[row + 1] * (begin - t0)
    return out


#: pair-segments per block of range_crossings' vectorised pass, so that a
#: build's temporaries stay near 130 kB each whatever the network's size
_BLOCK_PAIR_INTERVALS = 16384


def range_crossings(knot_t, knot_x, knot_y, offsets, hi, r2, delta):
    """Where every node pair enters or leaves range r in the span [0, hi).

    A pair's d² − r² changes form only where one of its own two nodes turns,
    so each pair is solved on its own segments: from 0, and from each instant
    at which node a or node b passes a knot, to the pair's next such instant
    or to hi. On a segment both nodes move linearly, so d² − r² is
    A τ² + B τ + C in the time τ since its start, and the link can flip only
    at a root; no other node's knot cuts it, so a pair's crossings depend on
    its two nodes alone. Returns

    - `start`: (n, n) bool, the links at 0;
    - `events`: (times, a, b) arrays sorted by time; at each the link a-b
      flips, so the links at t are `start` with every event at or before t
      applied;
    - `guards`: (lows, highs) of the time spans where d² − r² may lie within
      `delta` of 0, so that the float error of this model or of the exact
      test could decide the sign. Around a root the half-width is
      δ/|dd²/dt| + sqrt(δ/A); a pair whose minimum of d² − r² lies within δ
      of 0 (grazing), or that does not move relative to the other (A = 0)
      with |C| <= δ, is guarded for the whole segment. A link that differs
      across the edge between two of a pair's segments, where a node jumps
      (two knots at one time) or rounding splits a crossing, flips there,
      and that instant is guarded.

    A span of length 0 gives each pair one segment of length 0: the start
    rows, and no crossing.
    """
    n = offsets.size - 1
    starts = offsets[:-1]
    last = offsets[1:] - 1
    # the instants at which some node turns, sorted and distinct; np.unique
    # would do, but its first call costs 1.5 MB of resident memory
    breaks = np.sort(np.concatenate(([0.0], knot_t[(knot_t > 0.0) & (knot_t < hi)])))
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    count = _knots_at_or_before(knot_t, offsets, breaks)
    # a node turns at a break where its count of knots grows, and every
    # pair's first segment starts at 0
    turns = np.ones((n, breaks.size), dtype=bool)
    np.greater(count[1:].T, count[:-1].T, out=turns[:, 1:])
    # the pairs' segments in pair order, each pair's in time order, from the
    # one (pairs × breaks) mask, freed before the blocks' temporaries come
    # (kept alive, it raised perfbench chain_stress's peak_rss_mb by 0.45 MB)
    a, b = np.triu_indices(n, 1)
    mask = turns[a]
    mask |= turns[b]
    p, j = np.nonzero(mask)
    del mask
    # each node's segment at each break, found as positions_block does, in
    # the counts' place
    k = count
    k += starts - 1
    np.clip(k, starts, last, out=k)
    # a segment ends where its pair's next one starts, the pair's last at hi
    final = np.append(p[1:] != p[:-1], True)
    end = np.append(breaks[j[1:]], hi)
    end[final] = hi
    inside = np.empty(j.size, dtype=bool)   # the link just after each start
    after = np.empty(j.size, dtype=bool)    # and just before each end
    times, pairs, lows, highs = [], [], [], []
    # a block of segments at a time, so the temporaries stay small; only
    # segments whose d² − r² comes near 0 go on to the roots, the others keep
    # one side of the range throughout
    for s in range(0, j.size, _BLOCK_PAIR_INTERVALS):
        block = slice(s, s + _BLOCK_PAIR_INTERVALS)
        jb, pb = j[block], p[block]
        begin = breaks[jb]
        L = end[block] - begin
        rel = _motion(knot_t, knot_x, knot_y, k[jb, a[pb]], last[a[pb]], begin)
        rel -= _motion(knot_t, knot_x, knot_y, k[jb, b[pb]], last[b[pb]], begin)
        dx, ux, dy, uy = rel
        A = ux * ux + uy * uy
        B = 2.0 * (dx * ux + dy * uy)
        C = dx * dx + dy * dy - r2
        inside[block] = C <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            tv = np.clip(np.where(A > 0, -B / (2.0 * A), 0.0), 0.0, L)
        near = np.flatnonzero(((A * tv + B) * tv + C <= 2.0 * delta)
                              & (np.maximum(C, (A * L + B) * L + C) >= -2.0 * delta))
        A, B, C, L, begin, pb = (x[near] for x in (A, B, C, L, begin, pb))
        disc = B * B - 4.0 * A * C
        two = disc > 4.0 * A * delta        # two roots, d² − r² dips below −δ
        lows.append(begin[~two])            # near 0 throughout: guard it all
        highs.append(end[block][near[~two]])
        i, A, B, C, L, begin, pb, disc = (
            x[two] for x in (near + s, A, B, C, L, begin, pb, disc))
        sq = np.sqrt(disc)
        q = -0.5 * (B + np.copysign(sq, B))
        tau1 = np.minimum(q / A, C / q)
        tau2 = np.maximum(q / A, C / q)
        half = delta / sq + np.sqrt(delta / A)
        # the link just after the start: a root at τ = 0 has passed
        inside[i] = (tau1 <= 0) & (tau2 > 0)
        after[block] = inside[block]
        for tau, link in ((tau1, True), (tau2, False)):    # enter, then leave
            flip = (tau > 0) & (tau < L)
            after[i[flip]] = link
            times.append(begin[flip] + tau[flip])
            pairs.append(pb[flip])
            band = (tau + half >= 0) & (tau - half <= L)
            mid = begin[band] + tau[band]
            lows.append(mid - half[band])
            highs.append(mid + half[band])
    # a jump, or rounding at a knot: the link differs across a segment edge
    edge = np.flatnonzero(~final[:-1] & (after[:-1] != inside[1:])) + 1
    for out in (times, lows, highs):
        out.append(breaks[j[edge]])
    pairs.append(p[edge])
    times, pairs = np.concatenate(times), np.concatenate(pairs)
    order = np.argsort(times, kind="stable")
    pairs = pairs[order]
    adj = np.zeros((n, n), dtype=bool)
    adj[a, b] = inside[j == 0]
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
