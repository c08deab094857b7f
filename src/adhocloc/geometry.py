"""Plane geometry for server election and angular zone partitioning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


def centroid(points: Sequence) -> tuple[float, float]:
    """Centre of gravity of a point set: the coordinate-wise mean."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("centroid of an empty point set")
    arr = arr.reshape(-1, 2)
    return float(arr[:, 0].mean()), float(arr[:, 1].mean())


def dist(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def elect_server(candidates: Iterable[int], positions, reference) -> int:
    """The candidate closest to the reference point; ties go to the lowest id.

    `positions` is indexable by node id ((n, 2) array or mapping).
    """
    best = min(candidates, key=lambda v: (dist(positions[v], reference), v), default=None)
    if best is None:
        raise ValueError("cannot elect a server from an empty candidate set")
    return best


def ring_next(zone: int, n_zones: int) -> int:
    """Successor on the virtual ring of zone servers (single cycle)."""
    return (zone + 1) % n_zones


@dataclass(frozen=True)
class ZoneLayout:
    """Angular partition of the plane into n equal sectors about a centre point.

    Zone k spans polar angles (k*alpha, (k+1)*alpha) with alpha = 2*pi/n.
    Boundary rays belong to the lower-indexed adjacent zone, the 0/2pi ray and
    the centre itself to zone 0. One zone is the whole plane.
    """

    n_zones: int
    center: tuple[float, float]

    def __post_init__(self):
        if self.n_zones < 1:
            raise ValueError("need at least one zone")

    @property
    def alpha(self) -> float:
        return TWO_PI / self.n_zones

    def zone_of(self, point) -> int:
        """Zone index containing `point` under the sector-membership rule."""
        dx = point[0] - self.center[0]
        dy = point[1] - self.center[1]
        if dx == 0.0 and dy == 0.0:
            return 0
        theta = math.atan2(dy, dx)
        if theta < 0.0:
            theta += TWO_PI
        ratio = theta / self.alpha
        k = int(math.floor(ratio))
        if ratio == float(k):
            # exactly on a boundary ray: lower-indexed adjacent zone,
            # with the 0 (== 2*pi) ray belonging to zone 0
            return 0 if k % self.n_zones == 0 else k - 1
        if k >= self.n_zones:  # guards theta == 2*pi after rounding
            k = self.n_zones - 1
        return k
