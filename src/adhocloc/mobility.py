"""Random Waypoint trajectories and the relative-motion metrics built on them.

Trajectories are piecewise-linear knot sequences, so positions at arbitrary
times are exact interpolations rather than stepped approximations. Mobility is
quantified through the average separation A_i(t) of a node from all others and
its discrete variation M_i, averaged into the network mobility Mob.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO

import numpy as np

from . import kernels
from .engine import drawn_in_blocks


@dataclass
class Trajectory:
    """Knot times with matching coordinates; linear between knots, clamped outside."""

    times: list[float]
    xs: list[float]
    ys: list[float]


class RandomWaypointModel:
    """Random Waypoint Model over a rectangular area.

    Each node draws a uniform start, then repeats: pick a uniform destination,
    travel there at a uniform speed from [speed_min, speed_max], leave again
    at once (no pause). Every node's legs are drawn at construction, from its
    own RNG substream, until its last knot is at or past the horizon; the
    model never changes afterwards. A longer horizon only appends legs, so
    the knots up to a shorter horizon's last ones are the same. Past a node's
    last knot it rests there.

    The substream's doubles are taken in blocks (`engine.drawn_in_blocks`),
    and each uniform is `low + (high - low) * u`, the expression
    `Generator.uniform` evaluates on one double, so the knots are those of
    one `uniform` call per value. A block may reach past the horizon; nothing
    else reads the substream.
    """

    def __init__(self, n_nodes: int, width: float, height: float,
                 speed_min: float, speed_max: float, rng_for_node, horizon: float):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if not (0 < speed_min <= speed_max):
            raise ValueError("speeds must satisfy 0 < speed_min <= speed_max")
        if width <= 0 or height <= 0:
            raise ValueError("area dimensions must be positive")
        self.n_nodes = n_nodes
        self.horizon = float(horizon)
        self.trajectories: list[Trajectory] = []
        speed_span = speed_max - speed_min
        for i in range(n_nodes):
            units = drawn_in_blocks(rng_for_node(i).random)
            # uniform(0, w) is 0.0 + w * u, which is w * u for u >= 0
            x, y = width * next(units), height * next(units)
            t = 0.0
            times, xs, ys = [t], [x], [y]
            while t < self.horizon:
                dest_x, dest_y = width * next(units), height * next(units)
                speed = speed_min + speed_span * next(units)
                leg = math.hypot(dest_x - x, dest_y - y)
                if leg == 0.0:
                    continue
                t += leg / speed
                x, y = dest_x, dest_y
                times.append(t)
                xs.append(x)
                ys.append(y)
            self.trajectories.append(Trajectory(times, xs, ys))

    @classmethod
    def from_trajectories(cls, trajectories: list[Trajectory]) -> "RandomWaypointModel":
        """Build a model around externally supplied trajectories (tests, replays)."""
        model = cls.__new__(cls)
        model.n_nodes = len(trajectories)
        model.horizon = max(t.times[-1] for t in trajectories)
        model.trajectories = trajectories
        return model

    @cached_property
    def knot_arrays(self) -> tuple:
        """Every node's knots stored flat: (times, xs, ys, per-node offsets)."""
        trajs = self.trajectories
        offsets = np.cumsum([0] + [len(traj.times) for traj in trajs], dtype=np.int64)
        knots = [np.fromiter(chain.from_iterable(getattr(traj, name) for traj in trajs),
                             np.float64, offsets[-1]) for name in ("times", "xs", "ys")]
        return (*knots, offsets)

    def positions(self, t: float) -> np.ndarray:
        """All node positions at time t as an (n, 2) array."""
        return kernels.positions_at(self.trajectories, t)

    def position(self, node: int, t: float) -> tuple[float, float]:
        """One node's position at time t, bit for bit `positions(t)[node]`."""
        traj = self.trajectories[node]
        return kernels.position_at(traj.times, traj.xs, traj.ys, t)

    def positions_block(self, times: np.ndarray) -> np.ndarray:
        knot_t, knot_x, knot_y, offsets = self.knot_arrays
        return kernels.positions_block(knot_t, knot_x, knot_y, offsets,
                                       np.asarray(times, dtype=np.float64))


def _sample_times(duration: float, dt: float) -> np.ndarray:
    if dt <= 0 or dt >= duration:
        raise ValueError(f"need 0 < dt < duration, got dt={dt} duration={duration}")
    steps = int(math.floor((duration - dt) / dt + 1e-9)) + 1
    return np.arange(steps + 1, dtype=np.float64) * dt


def separation_matrix(model: RandomWaypointModel, duration: float, dt: float) -> np.ndarray:
    """A_i(t) sampled on the metric grid: shape (samples, n_nodes)."""
    if model.n_nodes < 2:
        raise ValueError("separation series needs at least two nodes")
    times = _sample_times(duration, dt)
    block = model.positions_block(times)
    return kernels.separation_series(block)


def network_mobility(model: RandomWaypointModel, duration: float, dt: float) -> float:
    """Mob: the M_i averaged over all nodes, where M_i sums |A_i(t+dt) - A_i(t)|
    over the grid and divides by (duration - dt)."""
    series = separation_matrix(model, duration, dt)
    per_node = np.abs(np.diff(series, axis=0)).sum(axis=0) / (duration - dt)
    return float(per_node.mean())


def write_trajectory_csv(model: RandomWaypointModel, duration: float, dt: float,
                         fh: IO[str]) -> int:
    """Dump positions sampled on the Mob metric's grid, which ends within the
    run, as (node_id, t, x, y) rows; returns the row count."""
    times = _sample_times(duration, dt)
    block = model.positions_block(times)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["node_id", "t", "x", "y"])
    writer.writerows([node, f"{t:.9g}", f"{block[j, node, 0]:.9g}", f"{block[j, node, 1]:.9g}"]
                     for node in range(model.n_nodes) for j, t in enumerate(times))
    return model.n_nodes * len(times)
