"""Trajectories, the Random Waypoint model and the relative-motion metrics."""

import io
import math

import numpy as np
import pytest

from adhocloc.config import NODE_SPEED_PRESETS
from adhocloc.engine import DRAW_BLOCK, stream
from adhocloc.mobility import (RandomWaypointModel, Trajectory, network_mobility,
                               separation_matrix, write_trajectory_csv)
from conftest import (BAND_LOW_MAX, BAND_MEDIUM_MAX, MobilityBand,
                      classify_mobility, scripted_model, static_model)


def avg_separation(model, node, t):
    """Reference A_i(t): mean distance from `node` to every other node."""
    pos = model.positions(t)
    d = np.sqrt(((pos - pos[node]) ** 2).sum(axis=1))
    return float(d.sum() / (model.n_nodes - 1))


def waypoint_knots_loop(n_nodes, width, height, speed_min, speed_max, rng_for_node,
                        horizon):
    """Loop reference for the model's knots: one scalar `uniform` call per
    value, each node's (times, xs, ys) lists."""
    knots = []
    for i in range(n_nodes):
        rng = rng_for_node(i)
        times, xs, ys = [0.0], [rng.uniform(0.0, width)], [rng.uniform(0.0, height)]
        while times[-1] < horizon:
            dest_x = rng.uniform(0.0, width)
            dest_y = rng.uniform(0.0, height)
            speed = rng.uniform(speed_min, speed_max)
            leg = math.hypot(dest_x - xs[-1], dest_y - ys[-1])
            if leg == 0.0:
                continue
            times.append(times[-1] + leg / speed)
            xs.append(dest_x)
            ys.append(dest_y)
        knots.append((times, xs, ys))
    return knots


class TestRandomWaypointModel:
    def make(self, seed=3, horizon=40.0, smin=2.0, smax=8.0):
        return RandomWaypointModel(6, 1000.0, 500.0, smin, smax,
                                   lambda node: stream(seed, "mobility", node),
                                   horizon=horizon)

    def test_positions_stay_inside_the_area(self):
        model = self.make()
        for t in np.linspace(0.0, 40.0, 17):
            pos = model.positions(float(t))
            assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= 1000).all()
            assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= 500).all()

    def test_leg_speeds_respect_the_configured_range(self):
        model = self.make()
        for traj in model.trajectories:
            for k in range(len(traj.times) - 1):
                dt = traj.times[k + 1] - traj.times[k]
                d = np.hypot(traj.xs[k + 1] - traj.xs[k],
                             traj.ys[k + 1] - traj.ys[k])
                assert 2.0 - 1e-9 <= d / dt <= 8.0 + 1e-9

    def test_same_seed_reproduces_the_same_motion(self):
        a, b = self.make(seed=9), self.make(seed=9)
        assert np.array_equal(a.positions(33.3), b.positions(33.3))

    def test_a_longer_horizon_only_appends_knots(self):
        # each node draws from its own substream until its last knot reaches
        # the horizon, so a longer horizon draws the same legs and then more
        short, long = self.make(seed=5, horizon=40.0), self.make(seed=5, horizon=150.0)
        for s, l in zip(short.trajectories, long.trajectories):
            k = len(s.times)
            assert s.times[-2] < 40.0 <= s.times[-1] and l.times[-1] >= 150.0
            assert (l.times[:k], l.xs[:k], l.ys[:k]) == (s.times, s.xs, s.ys)
        assert np.array_equal(short.positions(33.3), long.positions(33.3))

    def test_a_destination_equal_to_the_position_is_redrawn(self):
        class ScriptedRng:
            """Hands out unit fractions: start x, y, then (dest x, dest y,
            speed) per leg; a block past the script is padded with halves."""
            def __init__(self, units):
                self.units = units

            def random(self, size):
                block, self.units = self.units[:size], self.units[size:]
                return np.array(block + [0.5] * (size - len(block)))

        # 0.1 * 1000 and 0.2 * 500 are 100.0, and 1 + 19 * (9 / 19) is 10.0
        rng = ScriptedRng([0.1, 0.2, 0.1, 0.2, 4 / 19, 0.4, 0.2, 9 / 19])
        model = RandomWaypointModel(1, 1000, 500, 1, 20, lambda node: rng, 20.0)
        traj = model.trajectories[0]
        # the zero-length leg leaves no knot; the 300 m leg at 10 m/s does
        assert traj.times == [0.0, 30.0]
        assert (traj.xs, traj.ys) == ([100.0, 400.0], [100.0, 100.0])

    @pytest.mark.parametrize("band", sorted(NODE_SPEED_PRESETS))
    def test_knots_equal_one_uniform_call_per_value(self, band):
        smin, smax = NODE_SPEED_PRESETS[band]
        for seed, horizon in ((1, 200.8), (2, 200.8), (7, 1000.8), (8, 0.5)):
            model = RandomWaypointModel(25, 1000.0, 500.0, smin, smax,
                                        lambda node: stream(seed, "mobility", node),
                                        horizon)
            ref = waypoint_knots_loop(25, 1000.0, 500.0, smin, smax,
                                      lambda node: stream(seed, "mobility", node),
                                      horizon)
            assert [(t.times, t.xs, t.ys) for t in model.trajectories] == ref
            if band == "high" and horizon > 1000:
                # every node takes at least three blocks of draws
                assert min(2 + 3 * (len(t.times) - 1)
                           for t in model.trajectories) > 2 * DRAW_BLOCK

    def test_one_node_position_is_bit_identical_to_all_positions(self):
        # the block kernel is the independent oracle: a knot search per node
        # and numpy's interpolation, against one node's bisection
        rng = np.random.default_rng(17)
        models = [self.make(seed=6)]        # read past its horizon below
        for _ in range(30):
            trajs = []
            for _ in range(int(rng.integers(1, 6))):
                k = int(rng.integers(1, 7))      # single-knot nodes rest
                # one decimal, so knot times repeat: duplicates are jumps
                ts = np.sort(np.round(rng.uniform(0.0, 40.0, k), 1))
                trajs.append(Trajectory(ts.tolist(), rng.uniform(0, 1000, k).tolist(),
                                        rng.uniform(0, 500, k).tolist()))
            models.append(RandomWaypointModel.from_trajectories(trajs))
        checks = 0
        for model in models:
            knots = [t for traj in model.trajectories for t in traj.times]
            times = np.concatenate([knots, rng.uniform(0.0, 45.0, 20), [60.0, 75.5]])
            times = np.concatenate([times, np.nextafter(times, -np.inf),
                                    np.nextafter(times, np.inf)])
            times = times[times >= 0]
            block = model.positions_block(times)
            for j, t in enumerate(times):
                for node in range(model.n_nodes):
                    assert model.position(node, float(t)) == tuple(block[j, node]), t
                    checks += 1
        assert checks > 5000

    def test_negative_query_time_raises(self):
        with pytest.raises(ValueError, match="negative"):
            self.make().positions(-0.1)
        with pytest.raises(ValueError, match="negative"):
            self.make().position(0, -0.1)

    def test_constructor_validation(self):
        factory = lambda node: stream(1, "mobility", node)
        with pytest.raises(ValueError, match="one node"):
            RandomWaypointModel(0, 1000, 500, 1, 2, factory, 10)
        with pytest.raises(ValueError, match="speeds"):
            RandomWaypointModel(3, 1000, 500, 0.0, 2, factory, 10)
        with pytest.raises(ValueError, match="speeds"):
            RandomWaypointModel(3, 1000, 500, 5, 2, factory, 10)
        with pytest.raises(ValueError, match="area"):
            RandomWaypointModel(3, -5, 500, 1, 2, factory, 10)


class TestSeparationMetrics:
    def test_avg_separation_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1000, (9, 2))
        model = static_model(pts)
        series = separation_matrix(model, 4.0, 1.0)
        for node in range(9):
            dists = [np.hypot(*(pts[node] - pts[k])) for k in range(9) if k != node]
            assert avg_separation(model, node, 4.0) == pytest.approx(
                np.mean(dists), rel=1e-12)
            assert series[:, node] == pytest.approx(np.mean(dists), rel=1e-12)

    def test_separation_matrix_samples_the_metric_grid(self):
        model = scripted_model([
            [(0.0, 0.0, 0.0), (20.0, 100.0, 0.0)],
            [(0.0, 50.0, 0.0), (20.0, 50.0, 0.0)],
        ])
        series = separation_matrix(model, 10.0, 1.0)
        assert series.shape == (11, 2)   # grid 0, 1, ..., 10
        for j in range(11):
            assert series[j, 0] == pytest.approx(avg_separation(model, 0, float(j)))

    def test_static_network_has_exactly_zero_mobility(self):
        rng = np.random.default_rng(12)
        model = static_model(rng.uniform(0, 1000, (8, 2)))
        assert network_mobility(model, 50.0, 1.0) == 0.0

    def test_receding_pair_matches_the_closed_form(self):
        # node 1 recedes from a parked node 0 at a constant 3 m/s, so
        # A_i(t) = 100 + 3t for both, each |step| on the unit grid is 3, and
        # each node's M_i equals Mob
        v, duration, dt = 3.0, 10.0, 1.0
        model = scripted_model([
            [(0.0, 0.0, 0.0), (20.0, 0.0, 0.0)],
            [(0.0, 100.0, 0.0), (20.0, 100.0 + 20.0 * v, 0.0)],
        ])
        expected = 10 * v * dt / (duration - dt)
        series = separation_matrix(model, duration, dt)
        assert np.array_equal(series[:, 0], series[:, 1])
        assert network_mobility(model, duration, dt) == pytest.approx(expected, rel=1e-6)

    def test_zigzag_counts_absolute_variation(self):
        # out 20 m and back on a flat grid: |+20| + |-20| over 4 s of grid
        model = scripted_model([
            [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0)],
            [(0.0, 100.0, 0.0), (2.0, 120.0, 0.0), (4.0, 100.0, 0.0),
             (5.0, 100.0, 0.0)],
        ])
        series = separation_matrix(model, 5.0, 1.0)
        total = np.abs(np.diff(series[:, 0])).sum()
        assert total == pytest.approx(40.0)
        # a pair: node 0's M_i is Mob
        assert network_mobility(model, 5.0, 1.0) == pytest.approx(40.0 / 4.0)

    def test_window_validation(self):
        model = static_model([(0, 0), (10, 0)])
        with pytest.raises(ValueError, match="dt < duration"):
            network_mobility(model, 5.0, 5.0)
        with pytest.raises(ValueError, match="dt < duration"):
            network_mobility(model, 5.0, 0.0)

    def test_single_node_network_has_no_separation(self):
        model = static_model([(0, 0)])
        with pytest.raises(ValueError, match="two nodes"):
            separation_matrix(model, 10.0, 1.0)
        with pytest.raises(ValueError, match="two nodes"):
            network_mobility(model, 10.0, 1.0)


class TestBands:
    def test_nominal_targets_classify_into_their_bands(self):
        assert classify_mobility(1.5) is MobilityBand.LOW
        assert classify_mobility(5.0) is MobilityBand.MEDIUM
        assert classify_mobility(10.0) is MobilityBand.HIGH

    def test_band_edges_are_inclusive_below(self):
        assert classify_mobility(BAND_LOW_MAX) is MobilityBand.LOW
        assert classify_mobility(BAND_LOW_MAX + 1e-9) is MobilityBand.MEDIUM
        assert classify_mobility(BAND_MEDIUM_MAX) is MobilityBand.MEDIUM
        assert classify_mobility(BAND_MEDIUM_MAX + 1e-9) is MobilityBand.HIGH

    def test_non_positive_mobility_cannot_be_classified(self):
        with pytest.raises(ValueError, match="positive"):
            classify_mobility(0.0)
        with pytest.raises(ValueError, match="positive"):
            classify_mobility(-1.0)


def test_trajectory_csv_dump_shape():
    model = static_model([(0, 0), (10, 20)])
    buf = io.StringIO()
    rows = write_trajectory_csv(model, 5.0, 1.0, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "node_id,t,x,y"
    assert rows == 2 * 6           # two nodes, samples at 0..5
    assert len(lines) == 1 + rows
    assert lines[1] == "0,0,0,0"
    assert lines[-1] == "1,5,10,20"
    # a step that does not divide the run stops at its last sample within it
    buf = io.StringIO()
    assert write_trajectory_csv(model, 2.0, 0.3, buf) == 2 * 7
    times = [float(line.split(",")[1]) for line in buf.getvalue().splitlines()[1:]]
    assert max(times) <= 2.0
    assert max(times) == pytest.approx(1.8)
