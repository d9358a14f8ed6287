"""Coverage-driven pathloss and propagation-delay laws.

A transmitter is dropped uniformly over the region; what a fixed receiver j
experiences is induced by the coverage geometry. With A(j, r) the area of
the region within distance r of the receiver and A_T the region area:

- received gain K_j has CDF F(k) = 1 - A(j, rbar(k)) / A_T on [0, 1], where
  rbar(k) is the largest distance at which the gain map still exceeds k.
  Transmitters beyond the cutoff range R contribute an atom at K_j = 0.
- propagation delay D_j has CDF A(j, delay^-1(x)) / A_T up to x = delay(R);
  past that, transmitters the receiver cannot hear are folded into a linear
  ramp of width delay(R + range_pad) - delay(R) so the delay law still
  integrates to one.
- the two are coupled deterministically: K_j = gain(delay^-1(D_j)), so a
  sampled delay in the ramp region implies zero gain.
  ``DelayDistribution.sample_pair`` draws them together.

The compensation offset used by transmitters in the delay regime is the
negated delay of an interior receiver together with its implied gain
(``sample_fix``); the sum of that offset and an independent interior delay
is symmetric about zero, which is what lets the aggregate waveform keep its
crossing in place.

All quantile inversion is bracketed bisection on the exact area function;
no interpolation tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError
from .geometry import NodePosition, Region, disk_intersection_area

# Absolute tolerance for bisection brackets; quantiles inherit it through
# the (Lipschitz) gain and delay maps.
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 120


@dataclass(frozen=True)
class ChannelModel:
    """Region plus the deterministic range maps shared by every link.

    gain(d) must be non-increasing and continuous with gain(0) <= 1 and
    gain(d) = 0 for d >= max_range. delay(d) must be strictly increasing
    with delay(0) = 0. Both must accept numpy arrays. delay_inverse is
    optional; without it the inverse is bisected.
    """

    region: Region
    max_range: float                     # R: gain cutoff distance
    gain: Callable[[np.ndarray], np.ndarray]
    delay: Callable[[np.ndarray], np.ndarray]
    delay_inverse: Callable[[np.ndarray], np.ndarray] | None = None
    range_pad: float | None = None       # outage ramp width in distance; default R / 10
    gate: float = 0.0                    # minimum usable aggregate amplitude

    def __post_init__(self):
        if self.max_range <= 0.0:
            raise ConfigurationError("max_range must be positive")
        if self.range_pad is not None and self.range_pad <= 0.0:
            raise ConfigurationError("range_pad must be positive")
        g0 = float(self.gain(np.array(0.0)))
        if not (0.0 < g0 <= 1.0 + 1e-12):
            raise ConfigurationError(f"gain(0) must lie in (0, 1], got {g0}")
        d0 = float(self.delay(np.array(0.0)))
        if abs(d0) > 1e-15:
            raise ConfigurationError(f"delay(0) must be 0, got {d0}")

    @property
    def pad(self) -> float:
        if self.range_pad is not None:
            return self.range_pad
        if not np.isfinite(self.max_range):
            return 0.1 * max(self.region.width, self.region.height)
        return 0.1 * self.max_range

    def invert_delay(self, x: np.ndarray | float) -> np.ndarray | float:
        """Distance whose one-way delay is x."""
        if self.delay_inverse is not None:
            return self.delay_inverse(x)
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        hi0 = min(self.max_range, _reach_bound(self)) + self.pad
        lo = np.zeros_like(x_arr)
        hi = np.full_like(x_arr, hi0)
        # Grow the bracket for queries beyond the usual support.
        for _ in range(64):
            short = self.delay(hi) < x_arr
            if not np.any(short):
                break
            hi = np.where(short, 2.0 * hi, hi)
        for _ in range(_BISECT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            low_side = self.delay(mid) < x_arr
            lo = np.where(low_side, mid, lo)
            hi = np.where(low_side, hi, mid)
            if np.all(hi - lo < _BISECT_TOL):
                break
        out = 0.5 * (lo + hi)
        return float(out[0]) if np.ndim(x) == 0 else out


def linear_model(region: Region, max_range: float, wave_speed: float = 1.0,
                 range_pad: float | None = None, gate: float = 0.0) -> ChannelModel:
    """Default model: gain falls linearly to zero at R, delay is distance/speed."""
    if wave_speed <= 0.0:
        raise ConfigurationError("wave_speed must be positive")
    return ChannelModel(
        region=region,
        max_range=max_range,
        gain=lambda d: np.maximum(0.0, 1.0 - np.asarray(d, dtype=float) / max_range),
        delay=lambda d: np.asarray(d, dtype=float) / wave_speed,
        delay_inverse=lambda x: np.asarray(x, dtype=float) * wave_speed,
        range_pad=range_pad,
        gate=gate,
    )


def unit_gain_model(region: Region, wave_speed: float = 1.0, gate: float = 0.0) -> ChannelModel:
    """Every transmitter heard at full strength; only delays vary."""
    return ChannelModel(
        region=region,
        max_range=np.inf,
        gain=lambda d: np.ones_like(np.asarray(d, dtype=float)),
        delay=lambda d: np.asarray(d, dtype=float) / wave_speed,
        delay_inverse=lambda x: np.asarray(x, dtype=float) * wave_speed,
        gate=gate,
    )


def _reach_bound(model: ChannelModel) -> float:
    # Largest geometrically meaningful radius anywhere in the region.
    return float(np.hypot(model.region.width, model.region.height))


@dataclass(frozen=True)
class PathlossDistribution:
    """Law of the received gain K_j for one receiver."""

    model: ChannelModel
    receiver: NodePosition
    reach: float = field(init=False)        # radius at which coverage saturates
    effective_range: float = field(init=False)
    area_total: float = field(init=False)
    area_at_range: float = field(init=False)
    _interior: bool = field(init=False)     # coverage disk never meets an edge

    def __post_init__(self):
        region = self.model.region
        if not region.contains(self.receiver.x, self.receiver.y):
            raise DomainError("receiver must lie inside the region")
        reach = region.corner_reach(self.receiver.x, self.receiver.y)
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "effective_range", min(self.model.max_range, reach))
        object.__setattr__(self, "area_total", region.area)
        object.__setattr__(self, "area_at_range", disk_intersection_area(
            region, self.receiver, self.effective_range))
        object.__setattr__(self, "_interior", self.effective_range <= region.edge_distance(
            self.receiver.x, self.receiver.y))

    @property
    def outage_probability(self) -> float:
        """Mass of the atom at K_j = 0 (transmitters out of range)."""
        return 1.0 - self.area_at_range / self.area_total

    def _coverage(self, radius: np.ndarray) -> np.ndarray:
        return disk_intersection_area(self.model.region, self.receiver, radius)

    def sup_radius(self, k: np.ndarray | float) -> np.ndarray | float:
        """Largest distance at which the gain map still exceeds k.

        Saturates at the coverage reach: any radius past it covers the whole
        region, so the distinction stops mattering.
        """
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        lo = np.zeros_like(k_arr)
        hi = np.full_like(k_arr, self.reach)
        gain = self.model.gain
        open_at_reach = gain(hi) > k_arr          # gain never drops below k
        closed_at_zero = gain(lo) <= k_arr        # gain below k from the start
        for _ in range(_BISECT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            above = gain(mid) > k_arr
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
            if np.all(hi - lo < _BISECT_TOL):
                break
        out = 0.5 * (lo + hi)
        out = np.where(open_at_reach, self.reach, out)
        out = np.where(closed_at_zero, 0.0, out)
        return float(out[0]) if np.ndim(k) == 0 else out

    def cdf(self, k: np.ndarray | float) -> np.ndarray | float:
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        inside = np.clip(k_arr, 0.0, 1.0)
        values = 1.0 - self._coverage(self.sup_radius(inside)) / self.area_total
        values = np.where(k_arr < 0.0, 0.0, values)
        values = np.where(k_arr >= 1.0, 1.0, values)
        return float(values[0]) if np.ndim(k) == 0 else values

    def _invert_coverage(self, target_area: np.ndarray) -> np.ndarray:
        # Radius whose coverage area equals target (strictly increasing map).
        if self._interior:
            # coverage never meets an edge, so the area map is exactly pi r^2
            return np.sqrt(target_area / np.pi)
        lo = np.zeros_like(target_area)
        hi = np.full_like(target_area, self.effective_range)
        for _ in range(_BISECT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            below = self._coverage(mid) < target_area
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(hi - lo < _BISECT_TOL):
                break
        return 0.5 * (lo + hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-transform samples of K_j, zeros included."""
        target = rng.uniform(size=size)
        np.subtract(1.0, target, out=target)
        target *= self.area_total
        heard = target < self.area_at_range
        gains = np.zeros(size)
        if np.any(heard):
            radii = self._invert_coverage(target[heard])
            gains[heard] = self.model.gain(radii)
        return gains


@dataclass(frozen=True)
class DelayDistribution:
    """Law of the propagation delay D_j for one receiver, outage ramp included."""

    model: ChannelModel
    receiver: NodePosition
    pathloss: PathlossDistribution = field(init=False)
    ramp_start: float = field(init=False)    # delay(R)
    ramp_end: float = field(init=False)      # delay(R + range_pad)
    slope: float = field(init=False)          # density of the outage ramp

    def __post_init__(self):
        object.__setattr__(self, "pathloss", PathlossDistribution(self.model, self.receiver))
        model = self.model
        finite_range = min(model.max_range, self.pathloss.reach)
        start = float(model.delay(np.array(finite_range)))
        end = float(model.delay(np.array(finite_range + model.pad)))
        if not end > start:
            raise ConfigurationError("delay map must be strictly increasing across the ramp")
        object.__setattr__(self, "ramp_start", start)
        object.__setattr__(self, "ramp_end", end)
        missing = 1.0 - self.pathloss.area_at_range / self.pathloss.area_total
        object.__setattr__(self, "slope", missing / (end - start))

    def r_prime(self, x: np.ndarray | float) -> np.ndarray | float:
        """Distance reached by delay x, clipped to the coverage reach."""
        return np.minimum(self.model.invert_delay(x), self.pathloss.reach)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        area_total = self.pathloss.area_total
        body_x = np.clip(x_arr, 0.0, self.ramp_start)
        body = disk_intersection_area(self.model.region, self.receiver,
                                      self.r_prime(body_x)) / area_total
        ramp = (self.pathloss.area_at_range / area_total
                + self.slope * (np.minimum(x_arr, self.ramp_end) - self.ramp_start))
        values = np.where(x_arr <= self.ramp_start, body, ramp)
        values = np.where(x_arr < 0.0, 0.0, values)
        values = np.where(x_arr > self.ramp_end, 1.0, values)
        return float(values[0]) if np.ndim(x) == 0 else values

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-transform samples of D_j."""
        u = rng.uniform(size=size)
        contact_mass = self.pathloss.area_at_range / self.pathloss.area_total
        delays = np.empty(size)
        heard = u <= contact_mass
        if np.any(heard):
            radii = self.pathloss._invert_coverage(u[heard] * self.pathloss.area_total)
            delays[heard] = self.model.delay(radii)
        if np.any(~heard):
            delays[~heard] = self.ramp_start + (u[~heard] - contact_mass) / self.slope
        return delays

    def sample_pair(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Coupled draws (D_j, K_j): each gain is the gain map at its delay's distance."""
        delays = self.sample(rng, size)
        return delays, self.model.gain(self.model.invert_delay(delays))


@dataclass(frozen=True)
class FixSample:
    """Transmit-side compensation: a negated interior delay and its gain."""

    d_fix: np.ndarray   # <= 0, subtracted from the pulse argument
    k_fix: np.ndarray   # gain implied by the compensated distance


def sample_fix(model: ChannelModel, receiver: NodePosition, rng: np.random.Generator,
               size: int) -> FixSample:
    """Draw the transmit-side compensation pair (d_fix <= 0, k_fix).

    d_fix is a negated draw from the delay law of an interior receiver, one
    whose disk of radius R stays inside the region, which makes the law
    position independent; k_fix reuses the same delay-to-gain coupling as
    reception, evaluated at the reflected delay, so compensation and channel
    stay consistent.
    """
    if not np.isfinite(model.max_range):
        raise DomainError("no interior receivers exist when the gain cutoff is infinite")
    if model.region.edge_distance(receiver.x, receiver.y) < model.max_range:
        raise DomainError(
            f"receiver ({receiver.x}, {receiver.y}) is within max_range of an edge; "
            "the compensation law is defined from interior receivers only")
    delays, gains = DelayDistribution(model, receiver).sample_pair(rng, size)
    return FixSample(-delays, gains)
