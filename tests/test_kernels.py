"""Numeric kernels against brute-force oracles and bit-exact loop references."""

import tracemalloc

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from adhocloc import kernels
from adhocloc.mobility import Trajectory
from adhocloc.radio import SLACK, LinkSpan, MessageLedger, Radio
from conftest import static_model


def flatten_trajectories(trajs):
    """Pack (times, xs, ys) lists into the kernels' flat knot arrays."""
    offsets = np.zeros(len(trajs) + 1, dtype=np.int64)
    for i, (ts, _, _) in enumerate(trajs):
        offsets[i + 1] = offsets[i] + len(ts)
    knot_t = np.concatenate([np.asarray(ts, float) for ts, _, _ in trajs])
    knot_x = np.concatenate([np.asarray(xs, float) for _, xs, _ in trajs])
    knot_y = np.concatenate([np.asarray(ys, float) for _, _, ys in trajs])
    return knot_t, knot_x, knot_y, offsets


def as_trajectories(trajs):
    """Wrap (times, xs, ys) lists as the trajectories `positions_at` reads."""
    return [Trajectory(list(map(float, ts)), list(map(float, xs)), list(map(float, ys)))
            for ts, xs, ys in trajs]


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


def positions_at_loop(knot_t, knot_x, knot_y, offsets, t):
    """Per-node searchsorted loop: the reference positions_at must match bit for bit."""
    n = offsets.size - 1
    out = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        s, e = offsets[i], offsets[i + 1]
        k = int(np.searchsorted(knot_t[s:e], t, side="right")) - 1
        if k < 0:
            out[i] = knot_x[s], knot_y[s]
        elif k >= e - s - 1:
            out[i] = knot_x[e - 1], knot_y[e - 1]
        else:
            t0 = knot_t[s + k]
            t1 = knot_t[s + k + 1]
            if t1 == t0:
                out[i] = knot_x[s + k], knot_y[s + k]
            else:
                w = (t - t0) / (t1 - t0)
                out[i, 0] = knot_x[s + k] + (knot_x[s + k + 1] - knot_x[s + k]) * w
                out[i, 1] = knot_y[s + k] + (knot_y[s + k + 1] - knot_y[s + k]) * w
    return out


def bfs_tree_frontier(adj, src):
    """Numpy-frontier BFS on a bool matrix: the reference bfs_tree must match."""
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


def neighbour_bits_matmul(adj):
    """One int64 matmul per 62-column block, so no row sum overflows: the
    reference neighbour_bits must match."""
    weights = np.left_shift(1, np.arange(62, dtype=np.int64))
    rows = [0] * adj.shape[0]
    for base in range(0, adj.shape[1], 62):
        block = adj[:, base:base + 62]
        words = (block @ weights[:block.shape[1]]).tolist()
        rows = [r | w << base for r, w in zip(rows, words)]
    return rows


def mask_bits(member):
    """Bitmask with bit v set where member[v] is true."""
    return sum(1 << int(v) for v in np.nonzero(member)[0])


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
        for t in (0.0, 3.7, 25.0, 49.9, 80.0):
            pos = kernels.positions_at(as_trajectories(trajs), t)
            for i, (ts, xs, ys) in enumerate(trajs):
                assert pos[i, 0] == pytest.approx(interp_oracle(ts, xs, t), rel=1e-12)
                assert pos[i, 1] == pytest.approx(interp_oracle(ts, ys, t), rel=1e-12)

    def test_positions_block_stacks_per_time_slices(self):
        rng = np.random.default_rng(1)
        trajs = random_trajs(rng, 5)
        times = np.array([0.0, 1.5, 10.0, 60.0])
        block = kernels.positions_block(*flatten_trajectories(trajs), times)
        assert block.shape == (4, 5, 2)
        for j, t in enumerate(times):
            assert np.array_equal(block[j], kernels.positions_at(as_trajectories(trajs), t))

    def test_clamping_before_first_and_after_last_knot(self):
        trajs = as_trajectories([([1.0, 2.0], [10.0, 30.0], [5.0, 5.0])])
        assert np.allclose(kernels.positions_at(trajs, 0.5), [[10.0, 5.0]])
        assert np.allclose(kernels.positions_at(trajs, 99.0), [[30.0, 5.0]])

    def test_positions_at_is_bit_identical_to_the_per_node_loop(self):
        rng = np.random.default_rng(7)
        queries = 0
        for _ in range(60):
            n = int(rng.integers(1, 12))
            trajs = []
            for _ in range(n):
                k = int(rng.integers(1, 8))          # single-knot nodes included
                # few decimals, so knot times repeat within and across nodes
                ts = np.sort(np.round(rng.uniform(5.0, 45.0, k), int(rng.integers(0, 2))))
                trajs.append((list(ts), list(rng.uniform(0, 1000, k)),
                              list(rng.uniform(0, 500, k))))
            flat = flatten_trajectories(trajs)
            knot_t = flat[0]
            times = np.concatenate([rng.uniform(0.0, 50.0, 8), knot_t,
                                    [knot_t.min() - 1.0, knot_t.max() + 1.0]])
            for t in times:
                assert np.array_equal(kernels.positions_at(as_trajectories(trajs), t),
                                      positions_at_loop(*flat, t)), t
                queries += 1
        assert queries > 1000

    def test_positions_block_is_bit_identical_to_stacked_positions_at(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            trajs = []
            for _ in range(n):
                k = int(rng.integers(1, 8))          # single-knot nodes included
                # few decimals, so knot times repeat within and across nodes
                ts = np.sort(np.round(rng.uniform(5.0, 45.0, k), int(rng.integers(0, 2))))
                trajs.append((list(ts), list(rng.uniform(0, 1000, k)),
                              list(rng.uniform(0, 500, k))))
            flat = flatten_trajectories(trajs)
            knot_t = flat[0]
            times = np.concatenate([rng.uniform(0.0, 50.0, 8), knot_t,
                                    [knot_t.min() - 1.0, knot_t.max() + 1.0]])
            block = kernels.positions_block(*flat, times)
            assert np.array_equal(block, np.stack(
                [kernels.positions_at(as_trajectories(trajs), t) for t in times]))

    def test_duplicate_knot_times_rest_at_the_later_knot(self):
        # a zero-length segment: at t == 2 the node is at the last knot stamped 2
        trajs = as_trajectories([([0.0, 2.0, 2.0, 4.0], [0.0, 10.0, 20.0, 40.0],
                                  [0.0, 0.0, 0.0, 0.0]),
                                 ([1.0], [7.0], [8.0])])
        assert np.array_equal(kernels.positions_at(trajs, 2.0),
                              [[20.0, 0.0], [7.0, 8.0]])
        assert np.array_equal(kernels.positions_at(trajs, 3.0),
                              [[30.0, 0.0], [7.0, 8.0]])


class TestDistanceAndAdjacency:
    def test_adjacency_is_range_inclusive_without_self_loops(self):
        pos = np.array([[0.0, 0.0], [250.0, 0.0], [250.0 + 1e-6, 100.0],
                        [500.0, 0.0]])
        adj = kernels.adjacency(pos, 250.0)
        assert adj.dtype == np.bool_
        assert not adj.diagonal().any()
        assert adj[0, 1] and adj[1, 0]          # exactly at range
        assert not adj[0, 3]                    # beyond range
        assert adj[1, 3]                        # 250 again, inclusive
        assert np.array_equal(adj, adj.T)

    def test_adjacency_equals_the_summed_square_form_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pos = np.round(rng.uniform(0, 1000, (20, 2)), 1)
            # pairs exactly at range, along an axis and along a 3-4-5 diagonal,
            pos[1] = pos[0] + [250.0, 0.0]
            pos[2] = pos[0] + [0.0, -250.0]
            pos[3] = pos[0] + [150.0, 200.0]
            # and pairs on the range circle, where rounding decides the link
            angles = rng.uniform(0.0, 2 * np.pi, 8)
            pos[4:12] = pos[0] + 250.0 * np.column_stack([np.cos(angles), np.sin(angles)])
            diff = pos[:, None, :] - pos[None, :, :]
            ref = (diff ** 2).sum(axis=2) <= 250.0 * 250.0
            np.fill_diagonal(ref, False)
            adj = kernels.adjacency(pos, 250.0)
            assert np.array_equal(adj, ref)

    def test_adjacency_rejects_just_past_the_boundary(self):
        pos = np.array([[0.0, 0.0], [250.0000001, 0.0]])
        assert not kernels.adjacency(pos, 250.0)[0, 1]


class TestNeighbourBits:
    @pytest.mark.parametrize("n", [1, 62, 63, 130])
    def test_round_trips_to_the_bool_matrix_across_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        adj = rng.uniform(size=(n, n)) < 0.4
        adj[:, -1] = True                       # the top bit of every row
        rows = kernels.neighbour_bits(adj)
        assert len(rows) == n and all(type(r) is int for r in rows)
        back = np.array([[r >> v & 1 for v in range(n)] for r in rows], dtype=bool)
        assert np.array_equal(back, adj)

    def test_equals_the_blockwise_matmul_for_every_width(self):
        rng = np.random.default_rng(5)
        for n in range(1, 301):
            adj = rng.uniform(size=(min(n, 7), n)) < 0.5
            adj[:, -1] = True
            assert kernels.neighbour_bits(adj) == neighbour_bits_matmul(adj), n

    def test_set_bits_lists_ids_ascending(self):
        assert kernels.set_bits(0) == []
        assert kernels.set_bits(0b1011) == [0, 1, 3]
        assert kernels.set_bits(1 << 129 | 1 << 62) == [62, 129]


def tree_lists(rows, levels):
    """Hop counts and parents, as lists, read from a walk's levels through
    `depth` and `path_back`; -1 marks unreachable / root."""
    hops = [kernels.depth(levels, v) for v in range(len(rows))]
    hops = [-1 if d is None else d for d in hops]
    parents = [kernels.path_back(rows, levels[:d + 1], v)[-2] if d > 0 else -1
               for v, d in enumerate(hops)]
    return hops, parents


class TestBfsTree:
    def test_depths_match_networkx_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pos = rng.uniform(0, 1000, (18, 2))
            adj = kernels.adjacency(pos, 280.0)
            levels = kernels.bfs_tree(kernels.neighbour_bits(adj), 0)
            g = nx.from_numpy_array(adj)
            lengths = nx.single_source_shortest_path_length(g, 0)
            for v in range(18):
                assert kernels.depth(levels, v) == lengths.get(v)

    def test_parents_are_canonical_lowest_id_at_previous_depth(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 800, (20, 2))
        adj = kernels.adjacency(pos, 260.0)
        rows = kernels.neighbour_bits(adj)
        depths, parents = tree_lists(rows, kernels.bfs_tree(rows, 0))
        for v in range(20):
            if v == 0 or depths[v] < 0:
                assert parents[v] == -1
                continue
            candidates = [u for u in range(20)
                          if adj[u, v] and depths[u] == depths[v] - 1]
            assert parents[v] == min(candidates)

    def test_unreached_nodes_are_absent(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0], [900.0, 400.0]])
        rows = kernels.neighbour_bits(kernels.adjacency(pos, 150.0))
        levels = kernels.bfs_tree(rows, 0)
        assert levels == [0b001, 0b010]
        assert [kernels.depth(levels, v) for v in range(3)] == [0, 1, None]
        assert tree_lists(rows, levels) == ([0, 1, -1], [-1, 0, -1])

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 25, 63, 70]),
           seed=st.integers(0, 2**32 - 1),
           range_m=st.floats(50.0, 600.0),
           member_share=st.floats(0.0, 1.0))
    def test_bit_identical_to_the_numpy_frontier(self, n, seed, range_m, member_share):
        rng = np.random.default_rng(seed)
        pos = np.round(rng.uniform(0, 1000, (n, 2)), 1)
        adj = kernels.adjacency(pos, range_m)
        rows = kernels.neighbour_bits(adj)
        member = rng.uniform(size=n) < member_share
        for src in range(n):
            levels = kernels.bfs_tree(rows, src)
            hops, parents = tree_lists(rows, levels)
            ref_hops, ref_parents = bfs_tree_frontier(adj, src)
            assert all(type(v) is int for v in levels + hops + parents)
            assert np.array_equal(hops, ref_hops)
            assert np.array_equal(parents, ref_parents)
            # a walk that stops at dst is the full walk cut at dst's depth
            for dst in range(n):
                stopped = kernels.bfs_tree(rows, src, stop=1 << dst)
                assert stopped == levels[:hops[dst] + 1 if hops[dst] >= 0 else None]
            # a member mask keeps only the members' links, the source's included
            m = member.copy()
            m[src] = True
            hops, parents = tree_lists(rows, kernels.bfs_tree(rows, src, mask_bits(member)))
            ref_hops, ref_parents = bfs_tree_frontier(adj & m[None, :] & m[:, None], src)
            assert np.array_equal(hops, ref_hops)
            assert np.array_equal(parents, ref_parents)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2, 25, 63, 70]),
           seed=st.integers(0, 2**32 - 1),
           range_m=st.floats(50.0, 600.0))
    def test_shortest_path_equals_the_parent_walk(self, n, seed, range_m):
        rng = np.random.default_rng(seed)
        pos = np.round(rng.uniform(0, 1000, (n, 2)), 1)
        adj = kernels.adjacency(pos, range_m)
        radio = Radio(LinkSpan(static_model(pos), range_m), MessageLedger())
        for src in range(n):
            hops, parents = bfs_tree_frontier(adj, src)
            for dst in range(n):
                if hops[dst] < 0:
                    expected = None
                else:
                    walk = [dst]
                    while walk[-1] != src:
                        walk.append(parents[walk[-1]])
                    expected = tuple(reversed(walk))
                assert radio.route(src, dst, 0.0) == expected

    def test_shortest_path_to_itself_and_to_an_unreachable_node(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0], [900.0, 400.0]])
        radio = Radio(LinkSpan(static_model(pos), 150.0), MessageLedger())
        assert radio.route(1, 1, 0.0) == (1,)
        assert radio.route(2, 2, 0.0) == (2,)
        assert radio.route(0, 2, 0.0) is None
        assert radio.route(2, 0, 0.0) is None
        assert radio.route(1, 0, 0.0) == (1, 0)
        rows = radio.snapshot(0.0)
        assert kernels.path_back(rows, kernels.bfs_tree(rows, 1), 0) == (1, 0)


class TestRangeCrossings:
    def test_a_pairs_crossings_depend_on_its_two_nodes_only(self):
        # a far node whose knots interleave the pair's cuts none of the
        # pair's segments: the crossings, their pairs and the guard bands
        # stay bitwise equal
        rng = np.random.default_rng(8)
        hi, r2, delta = 100.0, 250.0 ** 2, SLACK * 500.0 ** 2
        for _ in range(100):
            pair = [(np.concatenate(([0.0], np.sort(rng.uniform(0.0, hi, 2)), [hi])),
                     *rng.uniform(0.0, 500.0, (2, 4))) for _ in range(2)]
            far = (np.concatenate(([0.0], np.sort(rng.uniform(0.0, hi, 29)))),
                   *rng.uniform(10_000.0, 11_000.0, (2, 30)))
            start, events, guards = kernels.range_crossings(
                *flatten_trajectories(pair), hi, r2, delta)
            joined, joined_events, joined_guards = kernels.range_crossings(
                *flatten_trajectories(pair + [far]), hi, r2, delta)
            assert np.array_equal(joined[:2, :2], start) and not joined[2].any()
            for mine, theirs in zip((*events, *guards), (*joined_events, *joined_guards)):
                assert np.array_equal(mine, theirs)


class TestSeparationSeries:
    def test_matches_brute_force_mean_distances(self):
        rng = np.random.default_rng(5)
        block = rng.uniform(0, 1000, (7, 6, 2))
        series = kernels.separation_series(block)
        assert series.shape == (7, 6)
        for j in range(7):
            for i in range(6):
                dists = [np.hypot(*(block[j, i] - block[j, k]))
                         for k in range(6) if k != i]
                assert series[j, i] == pytest.approx(np.mean(dists), rel=1e-12)

    def test_bit_identical_to_the_four_axis_difference(self):
        rng = np.random.default_rng(6)
        for shape in ((1, 2, 2), (50, 25, 2), (13, 70, 2)):
            block = rng.uniform(0, 1000, shape)
            diff = block[:, :, None, :] - block[:, None, :, :]
            ref = np.sqrt((diff ** 2).sum(axis=3)).sum(axis=2) / (shape[1] - 1)
            assert np.array_equal(kernels.separation_series(block), ref)

    def test_temporaries_stay_under_three_pair_arrays(self):
        # of 200 samples; a 1,000-sample series stays under the same bound,
        # since the temporaries span a block of samples, not the series
        pair_array = 200 * 25 ** 2 * 8
        for samples in (200, 1000):
            block = np.random.default_rng(7).uniform(0, 1000, (samples, 25, 2))
            tracemalloc.start()
            try:
                kernels.separation_series(block)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * pair_array
