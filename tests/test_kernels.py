"""Numeric kernels against brute-force oracles, plus numpy/jit parity."""

import os
import subprocess
import sys

import numpy as np
import networkx as nx
import pytest

from adhocloc import kernels


def flatten_trajectories(trajs):
    """Pack (times, xs, ys) lists into the kernels' flat knot arrays."""
    offsets = np.zeros(len(trajs) + 1, dtype=np.int64)
    for i, (ts, _, _) in enumerate(trajs):
        offsets[i + 1] = offsets[i] + len(ts)
    knot_t = np.concatenate([np.asarray(ts, float) for ts, _, _ in trajs])
    knot_x = np.concatenate([np.asarray(xs, float) for _, xs, _ in trajs])
    knot_y = np.concatenate([np.asarray(ys, float) for _, _, ys in trajs])
    return knot_t, knot_x, knot_y, offsets


def interp_oracle(ts, vs, t):
    """Piecewise-linear interpolation clamped outside the knot range."""
    if t <= ts[0]:
        return vs[0]
    if t >= ts[-1]:
        return vs[-1]
    for k in range(len(ts) - 1):
        if ts[k] <= t <= ts[k + 1]:
            w = (t - ts[k]) / (ts[k + 1] - ts[k])
            return vs[k] + (vs[k + 1] - vs[k]) * w
    raise AssertionError("unreachable")


def random_trajs(rng, n_nodes, n_knots=6, span=50.0):
    trajs = []
    for _ in range(n_nodes):
        ts = np.sort(rng.uniform(0.0, span, n_knots))
        ts[0] = 0.0
        trajs.append((list(ts), list(rng.uniform(0, 1000, n_knots)),
                      list(rng.uniform(0, 500, n_knots))))
    return trajs


class TestPositionKernels:
    def test_positions_at_matches_scalar_interpolation(self):
        rng = np.random.default_rng(0)
        trajs = random_trajs(rng, 8)
        flat = flatten_trajectories(trajs)
        for t in (0.0, 3.7, 25.0, 49.9, 80.0):
            pos = kernels.positions_at_numpy(*flat, t)
            for i, (ts, xs, ys) in enumerate(trajs):
                assert pos[i, 0] == pytest.approx(interp_oracle(ts, xs, t), rel=1e-12)
                assert pos[i, 1] == pytest.approx(interp_oracle(ts, ys, t), rel=1e-12)

    def test_positions_block_stacks_per_time_slices(self):
        rng = np.random.default_rng(1)
        flat = flatten_trajectories(random_trajs(rng, 5))
        times = np.array([0.0, 1.5, 10.0, 60.0])
        block = kernels.positions_block_numpy(*flat, times)
        assert block.shape == (4, 5, 2)
        for j, t in enumerate(times):
            assert np.allclose(block[j], kernels.positions_at_numpy(*flat, t))

    def test_clamping_before_first_and_after_last_knot(self):
        flat = flatten_trajectories([([0.0, 2.0], [10.0, 30.0], [5.0, 5.0])])
        assert np.allclose(kernels.positions_at_numpy(*flat, -1.0), [[10.0, 5.0]])
        assert np.allclose(kernels.positions_at_numpy(*flat, 99.0), [[30.0, 5.0]])


class TestDistanceAndAdjacency:
    def test_adjacency_is_range_inclusive_without_self_loops(self):
        pos = np.array([[0.0, 0.0], [250.0, 0.0], [250.0 + 1e-6, 100.0],
                        [500.0, 0.0]])
        adj = kernels.adjacency_numpy(pos, 250.0)
        assert adj.dtype == np.bool_
        assert not adj.diagonal().any()
        assert adj[0, 1] and adj[1, 0]          # exactly at range
        assert not adj[0, 3]                    # beyond range
        assert adj[1, 3]                        # 250 again, inclusive
        assert np.array_equal(adj, adj.T)

    def test_adjacency_rejects_just_past_the_boundary(self):
        pos = np.array([[0.0, 0.0], [250.0000001, 0.0]])
        assert not kernels.adjacency_numpy(pos, 250.0)[0, 1]


class TestBfsTree:
    def test_depths_match_networkx_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pos = rng.uniform(0, 1000, (18, 2))
            adj = kernels.adjacency_numpy(pos, 280.0)
            depths, parents = kernels.bfs_tree_numpy(adj, 0)
            g = nx.from_numpy_array(adj)
            lengths = nx.single_source_shortest_path_length(g, 0)
            for v in range(18):
                assert depths[v] == lengths.get(v, -1)

    def test_parents_are_canonical_lowest_id_at_previous_depth(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 800, (20, 2))
        adj = kernels.adjacency_numpy(pos, 260.0)
        depths, parents = kernels.bfs_tree_numpy(adj, 0)
        for v in range(20):
            if v == 0 or depths[v] < 0:
                assert parents[v] == -1
                continue
            candidates = [u for u in range(20)
                          if adj[u, v] and depths[u] == depths[v] - 1]
            assert parents[v] == min(candidates)

    def test_unreachable_nodes_get_minus_one(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0], [900.0, 400.0]])
        adj = kernels.adjacency_numpy(pos, 150.0)
        depths, parents = kernels.bfs_tree_numpy(adj, 0)
        assert depths.tolist() == [0, 1, -1]
        assert parents.tolist() == [-1, 0, -1]


class TestSeparationSeries:
    def test_matches_brute_force_mean_distances(self):
        rng = np.random.default_rng(5)
        block = rng.uniform(0, 1000, (7, 6, 2))
        series = kernels.separation_series_numpy(block)
        assert series.shape == (7, 6)
        for j in range(7):
            for i in range(6):
                dists = [np.hypot(*(block[j, i] - block[j, k]))
                         for k in range(6) if k != i]
                assert series[j, i] == pytest.approx(np.mean(dists), rel=1e-12)


@pytest.mark.skipif(kernels.JIT_VARIANTS is None,
                    reason="numba disabled in this process")
class TestJitParity:
    """The compiled kernels must agree with the numpy reference exactly."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        self.flat = flatten_trajectories(random_trajs(rng, 10))
        self.times = np.linspace(0.0, 60.0, 9)
        self.pos = rng.uniform(0, 1000, (16, 2))

    def test_every_kernel_pair_agrees(self):
        ref = kernels.NUMPY_VARIANTS
        jit = kernels.JIT_VARIANTS
        assert set(ref) == set(jit)
        assert np.array_equal(ref["positions_at"](*self.flat, 12.3),
                              jit["positions_at"](*self.flat, 12.3))
        assert np.array_equal(ref["positions_block"](*self.flat, self.times),
                              jit["positions_block"](*self.flat, self.times))
        adj = ref["adjacency"](self.pos, 300.0)
        assert np.array_equal(adj, jit["adjacency"](self.pos, 300.0))
        rd, rp = ref["bfs_tree"](adj, 0)
        jd, jp = jit["bfs_tree"](adj, 0)
        assert np.array_equal(rd, jd) and np.array_equal(rp, jp)
        block = ref["positions_block"](*self.flat, self.times)
        assert np.allclose(ref["separation_series"](block),
                           jit["separation_series"](block), rtol=1e-12)


def test_env_flag_selects_the_numpy_fallback():
    code = ("import adhocloc.kernels as k; "
            "assert not k.NUMBA_ACTIVE; "
            "assert k.JIT_VARIANTS is None; "
            "assert k.adjacency is k.adjacency_numpy; "
            "assert k.bfs_tree is k.bfs_tree_numpy; "
            "print('fallback ok')")
    env = dict(os.environ, **{kernels.ENV_FLAG: "1"})
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "fallback ok" in out.stdout


def test_warm_up_runs_cleanly():
    kernels.warm_up()
