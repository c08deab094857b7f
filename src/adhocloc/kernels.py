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


def bfs_tree(adj, src):
    """Hop counts and BFS parents from src; -1 marks unreachable / root.

    Parents are canonical: the minimum-id neighbour in the previous level, so
    every caller reconstructs the same shortest paths.
    """
    n = adj.shape[0]
    hops = np.full(n, -1, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    hops[src] = 0
    frontier = np.array([src], dtype=np.int64)
    d = 0
    while frontier.size:
        reach = adj[frontier]
        newmask = reach.any(axis=0) & (hops < 0)
        new = np.nonzero(newmask)[0]
        if new.size == 0:
            break
        first = np.argmax(reach[:, new], axis=0)
        parents[new] = frontier[first]
        hops[new] = d + 1
        frontier = new.astype(np.int64)
        d += 1
    return hops, parents


def separation_series(block):
    """Average separation A_i(t) per node for a (S, n, 2) position block."""
    diff = block[:, :, None, :] - block[:, None, :, :]
    dists = np.sqrt((diff ** 2).sum(axis=3))
    n = block.shape[1]
    return dists.sum(axis=2) / (n - 1)
