"""Planar geometry: the deployment region and disk coverage areas.

Nodes live in an axis-aligned rectangle. The channel model needs the exact
area of the region covered by a disk centred on a receiver, as a function of
the disk radius; that area function is what turns coverage radii into
pathloss and delay distributions. The intersection area is computed in
closed form from circular-segment integrals, not by quadrature, so the
distribution code can invert it to tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ArrayLike = "np.ndarray | float"


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular deployment region with one corner at (0, 0)."""

    width: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if not (self.width > 0.0 and self.height > 0.0):
            raise DomainError(f"region sides must be positive, got {self.width} x {self.height}")

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    def edge_distance(self, x, y):
        """Distance from an interior point to the nearest region edge."""
        return np.minimum(np.minimum(x, y),
                          np.minimum(self.width - x, self.height - y))

    def corner_reach(self, x: float, y: float) -> float:
        """Largest distance from (x, y) to any region corner.

        A disk of this radius centred at (x, y) covers the whole region, so
        it bounds every radius search performed by the channel code.
        """
        dx = max(x, self.width - x)
        dy = max(y, self.height - y)
        return float(np.hypot(dx, dy))


@dataclass(frozen=True)
class NodePosition:
    """A node location inside the region."""

    x: float
    y: float


def _antideriv(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Integral of sqrt(r^2 - x^2); x is pre-clipped to [-r, r].
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(np.maximum(r * r - x * x, 0.0))
        ratio = np.where(r > 0.0, np.clip(x / np.where(r > 0.0, r, 1.0), -1.0, 1.0), 0.0)
    return 0.5 * (x * root + r * r * np.arcsin(ratio))


def _quarter_plane_area(X: np.ndarray, Y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Area of {x <= X, y <= Y} inside a disk of radius r at the origin.

    Fully vectorized; the integral over x splits at +-sqrt(r^2 - Y^2), where
    the chord y = Y leaves the disk.
    """
    X = np.minimum(np.maximum(X, -r), r)
    Y = np.minimum(np.maximum(Y, -r), r)
    x_y = np.sqrt(np.maximum(r * r - Y * Y, 0.0))

    # Band x in [-r, min(X, -x_y)]: full vertical chord, length 2 sqrt(r^2-x^2).
    hi_full = np.minimum(X, -x_y)
    area = 2.0 * (_antideriv(hi_full, r) - _antideriv(-r, r))
    area = np.where(Y >= 0.0, area, 0.0)

    # Band x in [-x_y, min(X, x_y)]: chord clipped at y = Y.
    hi_mid = np.minimum(X, x_y)
    mid = Y * (hi_mid + x_y) + _antideriv(hi_mid, r) - _antideriv(-x_y, r)
    area = area + np.where(X > -x_y, mid, 0.0)

    # Band x in [x_y, X]: full chord again (only reachable when Y >= 0).
    tail = 2.0 * (_antideriv(X, r) - _antideriv(x_y, r))
    area = area + np.where((Y >= 0.0) & (X > x_y), tail, 0.0)
    return area


def disk_intersection_area(region: Region, center: NodePosition | tuple[float, float],
                           radius: ArrayLike) -> ArrayLike:
    """Exact area of region covered by a disk centred at an interior point.

    radius may be a scalar or an array; the result matches its shape. The
    center must lie inside the region (receivers are deployed nodes).
    """
    cx, cy = (center.x, center.y) if isinstance(center, NodePosition) else center
    if not region.contains(cx, cy):
        raise DomainError(f"disk center ({cx}, {cy}) lies outside the region")
    r = np.asarray(radius, dtype=float)
    if not np.all(r >= 0.0):
        raise DomainError("disk radius must be non-negative, not nan")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    # Beyond the farthest corner the area saturates; capping keeps the
    # segment integrals finite for callers that pass huge radii.
    r = np.minimum(r, region.corner_reach(cx, cy))

    x0, x1 = -cx, region.width - cx
    y0, y1 = -cy, region.height - cy
    area = (_quarter_plane_area(x1, y1, r) - _quarter_plane_area(x0, y1, r)
            - _quarter_plane_area(x1, y0, r) + _quarter_plane_area(x0, y0, r))
    area = np.clip(area, 0.0, region.area)
    return float(area[0]) if scalar else area


def place_nodes(region: Region, n: int, rng: np.random.Generator,
                rows: slice | None = None) -> np.ndarray:
    """Drop n nodes independently and uniformly over the region.

    Returns an (n, 2) float array of (x, y) rows. Draw order is fixed: all x
    coordinates first, then all y coordinates, one word of ``rng`` per
    coordinate. ``rows``, a contiguous slice, returns just those rows of the
    same placement: a fresh ``rng`` is advanced past the other rows' words
    instead of drawing them.
    """
    if n <= 0:
        raise DomainError(f"node count must be positive, got {n}")
    rows = range(n)[rows or slice(None)]
    if rows.step != 1:
        raise DomainError("placement rows must be a contiguous slice")
    placed = np.empty((len(rows), 2))
    skip = rows.start
    for column, side in enumerate((region.width, region.height)):
        if skip:
            rng.bit_generator.advance(skip)
        placed[:, column] = rng.uniform(0.0, side, size=len(rows))
        skip = n - len(rows)
    return placed


def positions_array(positions: np.ndarray) -> np.ndarray:
    """View node positions as an (n, 2) float array."""
    return np.asarray(positions, dtype=float).reshape(-1, 2)
