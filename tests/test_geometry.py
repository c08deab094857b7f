"""Plane geometry: distances, centroids, elections and the angular zones."""

import math

import numpy as np
import pytest

from adhocloc.geometry import (TWO_PI, ZoneLayout, centroid, dist, elect_server,
                               ring_next)


class TestScalarHelpers:
    def test_dist_on_a_345_triangle(self):
        assert dist((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0, rel=1e-12)

    def test_centroid_of_square_corners_is_the_centre(self):
        pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        assert centroid(pts) == pytest.approx((1.0, 1.0))

    def test_centroid_of_empty_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            centroid([])

    def test_centroid_matches_numpy_mean_on_random_sets(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-100, 100, (50, 2))
        cx, cy = centroid(pts)
        assert cx == pytest.approx(pts[:, 0].mean(), rel=1e-12)
        assert cy == pytest.approx(pts[:, 1].mean(), rel=1e-12)


class TestElection:
    def test_picks_the_closest_candidate(self):
        pos = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (4.0, 0.0)}
        assert elect_server([0, 1, 2], pos, (5.0, 0.0)) == 2

    def test_exact_ties_go_to_the_lowest_id(self):
        pos = {3: (1.0, 0.0), 7: (-1.0, 0.0), 5: (0.0, 1.0)}
        assert elect_server([7, 5, 3], pos, (0.0, 0.0)) == 3

    def test_candidate_subset_is_respected(self):
        pos = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (4.0, 0.0)}
        assert elect_server([0, 1], pos, (6.0, 0.0)) == 1

    def test_empty_candidate_set_raises(self):
        with pytest.raises(ValueError, match="empty candidate"):
            elect_server([], {}, (0.0, 0.0))


def test_ring_next_walks_a_single_cycle():
    hops = [0]
    for _ in range(4):
        hops.append(ring_next(hops[-1], 4))
    assert hops == [0, 1, 2, 3, 0]


class TestZoneLayout:
    def test_aperture_is_the_full_angle_split_evenly(self):
        assert ZoneLayout(4, (0.0, 0.0)).alpha == pytest.approx(math.pi / 2)
        assert ZoneLayout(2, (0.0, 0.0)).alpha == pytest.approx(math.pi)

    def test_more_than_two_pi_aperture_is_rejected(self):
        with pytest.raises(ValueError, match="one zone"):
            ZoneLayout(0, (0.0, 0.0))
        # one zone is the whole plane, every ray included
        whole = ZoneLayout(1, (0.0, 0.0))
        assert whole.alpha == TWO_PI
        assert {whole.zone_of(p) for p in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                           (-1.0, 0.0), (1.0, -1e-300)]} == {0}

    def test_quadrant_interiors(self):
        layout = ZoneLayout(4, (0.0, 0.0))
        assert layout.zone_of((1.0, 1.0)) == 0
        assert layout.zone_of((-1.0, 1.0)) == 1
        assert layout.zone_of((-1.0, -1.0)) == 2
        assert layout.zone_of((1.0, -1.0)) == 3

    def test_boundary_rays_belong_to_the_lower_zone(self):
        layout = ZoneLayout(4, (0.0, 0.0))
        assert layout.zone_of((1.0, 0.0)) == 0    # the 0 ray stays in zone 0
        assert layout.zone_of((0.0, 1.0)) == 0    # pi/2 ray: zone 0, not 1
        assert layout.zone_of((-1.0, 0.0)) == 1   # pi ray: zone 1, not 2
        assert layout.zone_of((0.0, -1.0)) == 2   # 3*pi/2 ray: zone 2, not 3

    def test_an_angle_that_rounds_onto_two_pi_stays_in_the_last_zone(self):
        # at 61 zones TWO_PI / alpha rounds above 61, and the angle of a
        # point a hair below the 0 ray rounds onto 2*pi
        layout = ZoneLayout(61, (0.0, 0.0))
        assert TWO_PI / layout.alpha > 61
        assert layout.zone_of((1.0, -1e-300)) == 60

    def test_the_centre_belongs_to_zone_zero(self):
        assert ZoneLayout(8, (3.0, 4.0)).zone_of((3.0, 4.0)) == 0

    def test_off_centre_layouts_shift_with_the_centre(self):
        layout = ZoneLayout(2, (100.0, 50.0))
        assert layout.zone_of((100.0, 51.0)) == 0
        assert layout.zone_of((100.0, 49.0)) == 1

    def test_zone_of_matches_the_polar_oracle_everywhere(self):
        rng = np.random.default_rng(7)
        center = (500.0, 250.0)
        pts = rng.uniform((0.0, 0.0), (1000.0, 500.0), (2000, 2))
        for n in (2, 3, 4, 8):
            layout = ZoneLayout(n, center)
            alpha = TWO_PI / n
            for x, y in pts:
                theta = math.atan2(y - center[1], x - center[0]) % TWO_PI
                expected = min(int(theta / alpha), n - 1)
                assert layout.zone_of((x, y)) == expected
