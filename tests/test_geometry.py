"""Geometry tests: exact coverage areas against a rejection-sampling oracle."""

from __future__ import annotations

import numpy as np
import pytest

from chronomesh.errors import DomainError
from chronomesh.geometry import (
    NodePosition,
    Region,
    disk_intersection_area,
    place_nodes,
)


def mc_disk_area(region: Region, cx: float, cy: float, radius: float,
                 n_samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Rejection-sampling area oracle over the disk's clipped bounding box.

    Returns (estimate, standard_error). Sampling the bounding box instead of
    the whole region keeps the acceptance rate high for small disks.
    """
    bx0, bx1 = max(0.0, cx - radius), min(region.width, cx + radius)
    by0, by1 = max(0.0, cy - radius), min(region.height, cy + radius)
    box_area = (bx1 - bx0) * (by1 - by0)
    if box_area <= 0.0 or radius == 0.0:
        return 0.0, 0.0
    xs = rng.uniform(bx0, bx1, size=n_samples)
    ys = rng.uniform(by0, by1, size=n_samples)
    hit = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
    p = hit.mean()
    se = box_area * np.sqrt(p * (1.0 - p) / n_samples)
    return box_area * p, se


def test_fully_contained_disk_is_pi_r_squared():
    region = Region(1.0, 1.0)
    assert disk_intersection_area(region, (0.5, 0.5), 0.25) == pytest.approx(
        np.pi * 0.25**2, rel=1e-12)


def test_radius_covering_region_saturates_at_region_area():
    region = Region(2.0, 1.0)
    assert disk_intersection_area(region, (0.3, 0.4), 10.0) == pytest.approx(2.0, rel=1e-12)
    assert disk_intersection_area(region, (0.3, 0.4), np.inf) == pytest.approx(2.0, rel=1e-12)


def test_zero_radius_gives_zero_area():
    assert disk_intersection_area(Region(), (0.2, 0.9), 0.0) == 0.0


def test_half_plane_clip_closed_form():
    # Disk centred on the left edge midpoint: exactly half of it fits.
    region = Region(4.0, 4.0)
    assert disk_intersection_area(region, (0.0, 2.0), 1.0) == pytest.approx(
        np.pi / 2.0, rel=1e-12)


def test_area_against_rejection_oracle_reference_case():
    # Off-centre disk clipped by one edge of the unit square.
    region = Region(1.0, 1.0)
    exact = disk_intersection_area(region, (0.1, 0.5), 0.3)
    oracle, se = mc_disk_area(region, 0.1, 0.5, 0.3, 10_000_000,
                              np.random.default_rng(20260814))
    assert abs(exact - oracle) / oracle < 1e-3
    assert abs(exact - oracle) < 4.0 * se


def test_area_against_rejection_oracle_random_pairs():
    region = Region(1.0, 1.0)
    rng = np.random.default_rng(7193)
    for _ in range(100):
        cx = rng.uniform(0.0, 1.0)
        cy = rng.uniform(0.0, 1.0)
        radius = rng.uniform(0.05, 1.2)
        exact = disk_intersection_area(region, (cx, cy), radius)
        oracle, se = mc_disk_area(region, cx, cy, radius, 4_000_000, rng)
        assert abs(exact - oracle) <= max(1e-3 * oracle, 4.0 * se), (cx, cy, radius)


def test_area_monotone_and_continuous_in_radius():
    region = Region(1.0, 1.0)
    radii = np.linspace(0.0, 1.6, 2001)
    areas = disk_intersection_area(region, (0.15, 0.7), radii)
    assert np.all(np.diff(areas) >= -1e-12)
    # Increments are bounded by the circumference times the radius step.
    step = radii[1] - radii[0]
    assert np.all(np.diff(areas) <= 2.0 * np.pi * radii[1:] * step + 1e-12)


def test_region_with_a_side_of_zero_rejected():
    with pytest.raises(DomainError):
        Region(0.0, 1.0)


def test_center_outside_region_rejected():
    with pytest.raises(DomainError):
        disk_intersection_area(Region(), (1.2, 0.5), 0.1)
    with pytest.raises(DomainError):
        disk_intersection_area(Region(), (0.5, -0.01), 0.1)


def test_negative_radius_rejected():
    for radius in (-0.2, float("nan"), np.array([0.1, np.nan])):
        with pytest.raises(DomainError):
            disk_intersection_area(Region(), (0.5, 0.5), radius)


def test_place_nodes_uniform_moments():
    region = Region(1.0, 1.0)
    n = 100_000
    positions = place_nodes(region, n, np.random.default_rng(42))
    xs, ys = positions[:, 0], positions[:, 1]
    bound = 3.0 / np.sqrt(12.0 * n)  # 3 sigma for the mean of U(0, 1)
    assert abs(xs.mean() - 0.5) < bound
    assert abs(ys.mean() - 0.5) < bound
    assert xs.min() >= 0.0 and xs.max() <= 1.0
    assert ys.min() >= 0.0 and ys.max() <= 1.0


def test_place_nodes_draw_order_and_array_contract():
    region = Region(2.0, 0.5)
    n = 1000
    positions = place_nodes(region, n, np.random.default_rng(7))
    assert positions.shape == (n, 2)
    assert positions.dtype == np.float64
    replay = np.random.default_rng(7)
    np.testing.assert_array_equal(positions[:, 0], replay.uniform(0.0, 2.0, n))
    np.testing.assert_array_equal(positions[:, 1], replay.uniform(0.0, 0.5, n))


def test_place_nodes_rows_are_the_whole_placements_rows():
    # a row range advances a fresh stream past the other rows' words
    region = Region(2.0, 0.5)
    n = 40_003
    whole = place_nodes(region, n, np.random.default_rng(7))
    for rows in (slice(0, 1), slice(0, 2), slice(16_380, 33_000), slice(n - 3, n),
                 slice(5, None)):
        np.testing.assert_array_equal(
            place_nodes(region, n, np.random.default_rng(7), rows), whole[rows])
    with pytest.raises(DomainError):
        place_nodes(region, n, np.random.default_rng(7), slice(0, 10, 2))


def test_place_nodes_zero_count_rejected():
    with pytest.raises(DomainError):
        place_nodes(Region(), 0, np.random.default_rng(1))


def test_edge_distance_and_corner_reach():
    region = Region(2.0, 1.0)
    assert region.edge_distance(0.3, 0.4) == pytest.approx(0.3)
    assert region.corner_reach(0.0, 0.0) == pytest.approx(np.hypot(2.0, 1.0))
    assert NodePosition(0.25, 0.75) == NodePosition(0.25, 0.75)
