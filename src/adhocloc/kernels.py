"""Hot numeric kernels in two flavours: numba-jitted loops and pure numpy.

The jitted flavour is selected by default whenever numba imports cleanly;
set ``ADHOCLOC_NO_NUMBA=1`` to force the numpy reference path. Both flavours
stay importable side by side (the ``*_numpy`` names) so the tests can
cross-check them and ``benchmarks/kernel_bench.py`` can time one against the
other. The two paths use the same arithmetic expressions and tie-break rules,
so within one path results are bit-reproducible and across paths they agree
to float rounding.
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_FLAG = "ADHOCLOC_NO_NUMBA"


def _numba_wanted() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() not in ("1", "true", "yes", "on")


NUMBA_ACTIVE = False
if _numba_wanted():
    try:
        from numba import njit

        NUMBA_ACTIVE = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_ACTIVE = False

if not NUMBA_ACTIVE:
    def njit(*args, **kwargs):  # no-op decorator for the fallback path
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap


# ---------------------------------------------------------------------------
# pure-numpy reference implementations
# ---------------------------------------------------------------------------

def positions_at_numpy(knot_t, knot_x, knot_y, offsets, t):
    """Interpolate every node's position at time t.

    Trajectories are piecewise-linear knot sequences stored flat with per-node
    offsets; before the first knot or past the last one the node rests there.
    """
    n = offsets.size - 1
    out = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        s, e = offsets[i], offsets[i + 1]
        seg = knot_t[s:e]
        k = int(np.searchsorted(seg, t, side="right")) - 1
        if k < 0:
            out[i, 0] = knot_x[s]
            out[i, 1] = knot_y[s]
        elif k >= e - s - 1:
            out[i, 0] = knot_x[e - 1]
            out[i, 1] = knot_y[e - 1]
        else:
            t0 = knot_t[s + k]
            t1 = knot_t[s + k + 1]
            if t1 == t0:
                out[i, 0] = knot_x[s + k]
                out[i, 1] = knot_y[s + k]
            else:
                w = (t - t0) / (t1 - t0)
                out[i, 0] = knot_x[s + k] + (knot_x[s + k + 1] - knot_x[s + k]) * w
                out[i, 1] = knot_y[s + k] + (knot_y[s + k + 1] - knot_y[s + k]) * w
    return out


def positions_block_numpy(knot_t, knot_x, knot_y, offsets, times):
    """Positions for every node at each sample time: shape (len(times), n, 2)."""
    out = np.empty((times.size, offsets.size - 1, 2), dtype=np.float64)
    for j in range(times.size):
        out[j] = positions_at_numpy(knot_t, knot_x, knot_y, offsets, times[j])
    return out


def adjacency_numpy(pos, range_m):
    """Unit-disk connectivity, range inclusive, no self-loops."""
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    adj = d2 <= range_m * range_m
    np.fill_diagonal(adj, False)
    return adj


def bfs_tree_numpy(adj, src):
    """Hop counts and BFS parents from src; -1 marks unreachable / root.

    Parents are canonical: the minimum-id neighbour in the previous level, so
    both kernel flavours reconstruct identical shortest paths.
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


def separation_series_numpy(block):
    """Average separation A_i(t) per node for a (S, n, 2) position block."""
    diff = block[:, :, None, :] - block[:, None, :, :]
    dists = np.sqrt((diff ** 2).sum(axis=3))
    n = block.shape[1]
    return dists.sum(axis=2) / (n - 1)


# ---------------------------------------------------------------------------
# numba twins
# ---------------------------------------------------------------------------

@njit(cache=True)
def _positions_at_jit(knot_t, knot_x, knot_y, offsets, t):
    n = offsets.size - 1
    out = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        s = offsets[i]
        e = offsets[i + 1]
        k = int(np.searchsorted(knot_t[s:e], t, side="right")) - 1
        if k < 0:
            out[i, 0] = knot_x[s]
            out[i, 1] = knot_y[s]
        elif k >= e - s - 1:
            out[i, 0] = knot_x[e - 1]
            out[i, 1] = knot_y[e - 1]
        else:
            t0 = knot_t[s + k]
            t1 = knot_t[s + k + 1]
            if t1 == t0:
                out[i, 0] = knot_x[s + k]
                out[i, 1] = knot_y[s + k]
            else:
                w = (t - t0) / (t1 - t0)
                out[i, 0] = knot_x[s + k] + (knot_x[s + k + 1] - knot_x[s + k]) * w
                out[i, 1] = knot_y[s + k] + (knot_y[s + k + 1] - knot_y[s + k]) * w
    return out


@njit(cache=True)
def _positions_block_jit(knot_t, knot_x, knot_y, offsets, times):
    out = np.empty((times.size, offsets.size - 1, 2), dtype=np.float64)
    for j in range(times.size):
        out[j] = _positions_at_jit(knot_t, knot_x, knot_y, offsets, times[j])
    return out


@njit(cache=True)
def _adjacency_jit(pos, range_m):
    n = pos.shape[0]
    r2 = range_m * range_m
    adj = np.empty((n, n), dtype=np.bool_)
    for i in range(n):
        adj[i, i] = False
        for j in range(i + 1, n):
            dx = pos[i, 0] - pos[j, 0]
            dy = pos[i, 1] - pos[j, 1]
            hit = dx * dx + dy * dy <= r2
            adj[i, j] = hit
            adj[j, i] = hit
    return adj


@njit(cache=True)
def _bfs_tree_jit(adj, src):
    n = adj.shape[0]
    hops = np.full(n, -1, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    hops[src] = 0
    d = 0
    while True:
        found = False
        for v in range(n):
            if hops[v] >= 0:
                continue
            for u in range(n):
                if adj[v, u] and hops[u] == d:
                    hops[v] = d + 1
                    parents[v] = u
                    found = True
                    break
        if not found:
            break
        d += 1
    return hops, parents


@njit(cache=True)
def _separation_series_jit(block):
    s_count = block.shape[0]
    n = block.shape[1]
    out = np.empty((s_count, n), dtype=np.float64)
    for s in range(s_count):
        for i in range(n):
            acc = 0.0
            for j in range(n):
                dx = block[s, i, 0] - block[s, j, 0]
                dy = block[s, i, 1] - block[s, j, 1]
                acc += math.sqrt(dx * dx + dy * dy)
            out[s, i] = acc / (n - 1)
    return out


if NUMBA_ACTIVE:
    positions_at = _positions_at_jit
    positions_block = _positions_block_jit
    adjacency = _adjacency_jit
    bfs_tree = _bfs_tree_jit
    separation_series = _separation_series_jit
else:
    positions_at = positions_at_numpy
    positions_block = positions_block_numpy
    adjacency = adjacency_numpy
    bfs_tree = bfs_tree_numpy
    separation_series = separation_series_numpy


NUMPY_VARIANTS = {
    "positions_at": positions_at_numpy,
    "positions_block": positions_block_numpy,
    "adjacency": adjacency_numpy,
    "bfs_tree": bfs_tree_numpy,
    "separation_series": separation_series_numpy,
}

JIT_VARIANTS = {
    "positions_at": _positions_at_jit,
    "positions_block": _positions_block_jit,
    "adjacency": _adjacency_jit,
    "bfs_tree": _bfs_tree_jit,
    "separation_series": _separation_series_jit,
} if NUMBA_ACTIVE else None


def warm_up():
    """Trigger JIT compilation on tiny inputs so timing-sensitive callers pay it up front."""
    knot_t = np.array([0.0, 1.0, 0.0, 1.0])
    knot_x = np.array([0.0, 1.0, 2.0, 3.0])
    knot_y = np.array([0.0, 0.0, 1.0, 1.0])
    offsets = np.array([0, 2, 4], dtype=np.int64)
    pos = positions_at(knot_t, knot_x, knot_y, offsets, 0.5)
    positions_block(knot_t, knot_x, knot_y, offsets, np.array([0.0, 1.0]))
    adj = adjacency(pos, 10.0)
    bfs_tree(adj, 0)
    separation_series(pos[None, :, :])
