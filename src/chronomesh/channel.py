"""Coverage-driven pathloss and propagation-delay laws.

Every link shares two range maps: the gain falls linearly from 1 to 0 at
the cutoff range R (an infinite R means unit gain at any distance), and the
delay is distance over the wave speed. A transmitter is dropped uniformly
over the region; what a fixed receiver j experiences is induced by the
coverage geometry. With A(j, r) the area of the region within distance r of
the receiver and A_T the region area:

- received gain K_j has CDF F(k) = 1 - A(j, rbar(k)) / A_T on [0, 1], where
  rbar(k) = R (1 - k) is the largest distance whose gain still exceeds k.
  Transmitters beyond the cutoff range R contribute an atom at K_j = 0.
- propagation delay D_j has CDF A(j, delay^-1(x)) / A_T up to x = delay(R);
  past that, transmitters the receiver cannot hear are folded into a linear
  ramp of width delay(R + pad) - delay(R) so the delay law still integrates
  to one. The pad is R / 10, or a tenth of the region's longer side when R
  is infinite.
- the two are coupled deterministically: K_j = gain(delay^-1(D_j)), so a
  sampled delay in the ramp region implies zero gain.
  ``DelayDistribution.sample_pair`` draws them together.

The compensation offset used by transmitters in the delay regime is the
negated delay of an interior receiver together with its implied gain
(``sample_fix``); the sum of that offset and an independent interior delay
is symmetric about zero, which is what lets the aggregate waveform keep its
crossing in place.

Quantiles invert the exact area function, with no interpolation tables: in
closed form (A = pi r^2) for a receiver whose coverage disk never meets an
edge, by bracketed bisection otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .geometry import NodePosition, Region, disk_intersection_area

# Absolute tolerance for bisection brackets; quantiles inherit it through
# the (Lipschitz) gain and delay maps.
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 120
_BISECT_BLOCK = 1 << 14


@dataclass(frozen=True)
class ChannelModel:
    """Region plus the range maps shared by every link.

    The gain falls linearly from 1 at distance 0 to 0 at the cutoff range R,
    gain(d) = max(0, 1 - d / R); an infinite R hears every transmitter at
    unit gain. The delay is distance over wave speed, delay(d) = d / c.
    Scenarios default to ``ChannelModel(Region(), 0.25)``.
    """

    region: Region
    max_range: float                     # R: gain cutoff distance
    wave_speed: float = 1.0              # c
    gate: float = 0.0                    # minimum usable aggregate amplitude

    def __post_init__(self):
        # `not x > 0` rather than `x <= 0`, so that nan fails too.
        if not self.max_range > 0.0:
            raise ConfigurationError("max_range must be positive")
        if not self.wave_speed > 0.0:
            raise ConfigurationError("wave_speed must be positive")
        if np.isnan(self.gate):
            raise ConfigurationError("gate must be a number")

    @property
    def pad(self) -> float:
        """Outage ramp width in distance."""
        if not np.isfinite(self.max_range):
            return 0.1 * max(self.region.width, self.region.height)
        return 0.1 * self.max_range

    def gain(self, d: np.ndarray | float) -> np.ndarray | float:
        return np.maximum(0.0, 1.0 - np.asarray(d, dtype=float) / self.max_range)

    def delay(self, d: np.ndarray | float) -> np.ndarray | float:
        return np.asarray(d, dtype=float) / self.wave_speed

    def invert_delay(self, x: np.ndarray | float) -> np.ndarray | float:
        """Distance whose one-way delay is x."""
        return np.asarray(x, dtype=float) * self.wave_speed


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

    def cdf(self, k: np.ndarray | float) -> np.ndarray | float:
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        inside = np.clip(k_arr, 0.0, 1.0)
        # rbar(k) up to the coverage reach; unit gain (R = inf) exceeds every
        # k < 1 anywhere, and k >= 1 is set to 1 below.
        r = self.model.max_range
        radius = (np.full_like(inside, self.reach) if np.isinf(r)
                  else np.minimum(r * (1.0 - inside), self.reach))
        values = 1.0 - self._coverage(radius) / self.area_total
        values = np.where(k_arr < 0.0, 0.0, values)
        values = np.where(k_arr >= 1.0, 1.0, values)
        return float(values[0]) if np.ndim(k) == 0 else values

    def _invert_coverage(self, target_area: np.ndarray) -> np.ndarray:
        # Radius whose coverage area equals target (strictly increasing map).
        if self._interior:
            # coverage never meets an edge, so the area map is exactly pi r^2
            return np.sqrt(target_area / np.pi)
        # Bisected in blocks to keep the area temporaries small. Every bracket
        # halves from [0, effective_range] alike, so all stop on one round.
        radii = np.empty_like(target_area)
        for start in range(0, target_area.size, _BISECT_BLOCK):
            target = target_area[start:start + _BISECT_BLOCK]
            lo = np.zeros_like(target)
            hi = np.full_like(target, self.effective_range)
            for _ in range(_BISECT_MAX_ITER):
                mid = 0.5 * (lo + hi)
                below = self._coverage(mid) < target
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
                if np.all(hi - lo < _BISECT_TOL):
                    break
            radii[start:start + _BISECT_BLOCK] = 0.5 * (lo + hi)
        return radii

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-transform samples of K_j, zeros included."""
        target = rng.uniform(size=size)
        np.subtract(1.0, target, out=target)
        target *= self.area_total
        heard = target < self.area_at_range
        radii = self._invert_coverage(target[heard])
        target[:] = 0.0                     # the gains overwrite the spent draws
        target[heard] = self.model.gain(radii)
        return target


@dataclass(frozen=True)
class DelayDistribution:
    """Law of the propagation delay D_j for one receiver, outage ramp included."""

    model: ChannelModel
    receiver: NodePosition
    pathloss: PathlossDistribution = field(init=False)
    ramp_start: float = field(init=False)    # delay(R)
    ramp_end: float = field(init=False)      # delay(R + pad)
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
