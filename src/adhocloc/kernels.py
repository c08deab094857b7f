"""Hot numeric kernels, vectorised with numpy: each handles all nodes at once,
with no per-node Python loop. The tests hold loop references that the
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
    starts = offsets[:-1]
    last = offsets[1:] - 1
    # knots at or before t per node; each node's knot times are sorted, so
    # this equals searchsorted(side="right") within the node's segment. One
    # searchsorted over node-shifted times would not: the shift can round a
    # knot just after t onto t.
    k = starts + np.add.reduceat((knot_t <= t).astype(np.int64), starts) - 1
    before = k < starts
    k = np.clip(k, starts, last)
    k1 = np.minimum(k + 1, last)
    t0 = knot_t[k]
    t1 = knot_t[k1]
    rest = before | (k == last) | (t1 == t0)
    w = (t - t0) / np.where(rest, 1.0, t1 - t0)
    out = np.empty((offsets.size - 1, 2), dtype=np.float64)
    for col, knot_v in ((0, knot_x), (1, knot_y)):
        v0 = knot_v[k]
        out[:, col] = np.where(rest, v0, v0 + (knot_v[k1] - v0) * w)
    return out


def positions_block(knot_t, knot_x, knot_y, offsets, times):
    """Positions for every node at each sample time: shape (len(times), n, 2)."""
    out = np.empty((times.size, offsets.size - 1, 2), dtype=np.float64)
    for j in range(times.size):
        out[j] = positions_at(knot_t, knot_x, knot_y, offsets, times[j])
    return out


def adjacency(pos, range_m):
    """Unit-disk connectivity, range inclusive, no self-loops."""
    dx = pos[:, 0, None] - pos[None, :, 0]
    dy = pos[:, 1, None] - pos[None, :, 1]
    adj = dx * dx + dy * dy <= range_m * range_m
    np.fill_diagonal(adj, False)
    return adj


#: columns packed per matmul in neighbour_bits, so a block's row sum fits int64
_BITS_PER_WORD = 62
_WORD_WEIGHTS = np.left_shift(1, np.arange(_BITS_PER_WORD, dtype=np.int64))


def neighbour_bits(adj):
    """Pack a bool adjacency matrix into one int per row: bit v of row u is
    adj[u, v]. Any number of columns; each 62-column block is one matmul."""
    rows = [0] * adj.shape[0]
    for base in range(0, adj.shape[1], _BITS_PER_WORD):
        block = adj[:, base:base + _BITS_PER_WORD]
        words = (block @ _WORD_WEIGHTS[:block.shape[1]]).tolist()
        rows = [r | w << base for r, w in zip(rows, words)] if base else words
    return rows


def set_bits(bits):
    """Positions of the set bits of a non-negative int, ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length() - 1)
        bits ^= low
    return ids


def bfs_tree(rows, src, mask=-1):
    """Hop counts and BFS parents from src; -1 marks unreachable / root.

    `rows` are symmetric neighbour bitmasks as from `neighbour_bits`. Only
    nodes whose bit is set in `mask` are entered (src always is). Parents are
    canonical: the minimum-id neighbour in the previous level, so every
    caller reconstructs the same shortest paths.
    """
    n = len(rows)
    hops = [-1] * n
    parents = [-1] * n
    hops[src] = 0
    seen = frontier_bits = 1 << src
    frontier = [src]
    d = 0
    while frontier:
        reach = 0
        for u in frontier:
            reach |= rows[u]
        new = reach & mask & ~seen
        if not new:
            break
        seen |= new
        d += 1
        frontier = set_bits(new)
        for v in frontier:
            from_frontier = rows[v] & frontier_bits
            parents[v] = (from_frontier & -from_frontier).bit_length() - 1
            hops[v] = d
        frontier_bits = new
    return np.array(hops, dtype=np.int64), np.array(parents, dtype=np.int64)


def separation_series(block):
    """Average separation A_i(t) per node for a (S, n, 2) position block."""
    diff = block[:, :, None, :] - block[:, None, :, :]
    dists = np.sqrt((diff ** 2).sum(axis=3))
    n = block.shape[1]
    return dists.sum(axis=2) / (n - 1)
