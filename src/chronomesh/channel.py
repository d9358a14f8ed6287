"""Coverage-driven pathloss and propagation-delay laws.

Every link shares two range maps: the gain falls linearly from 1 to 0 at
the cutoff range R (an infinite R means unit gain at any distance), and the
delay is distance over the wave speed. A transmitter is dropped uniformly
over the region; what a fixed receiver j experiences is induced by the
coverage geometry. With A(j, r) the area of the region within distance r of
the receiver, A_T the region area and R_j = min(R, corner reach) the
effective range:

- the transmitter's distance has CDF A(j, r) / A_T below R_j. A receiver
  cannot hear a transmitter beyond R_j, and those all sit in one atom at
  R_j, of mass 1 - A(j, R_j) / A_T.
- received gain K_j has CDF F(k) = 1 - A(j, rbar(k)) / A_T on [0, 1], where
  rbar(k) = R (1 - k) is the largest distance whose gain still exceeds k.
  The unheard transmitters make its atom at K_j = 0.
- propagation delay D_j has CDF A(j, delay^-1(x)) / A_T below delay(R_j),
  where it jumps by the unheard mass to one.
- the two are coupled deterministically, both maps of one distance:
  ``DelayDistribution.sample`` draws (D_j, K_j) together.

The compensation offset used by transmitters in the delay regime is the
negated delay of an interior receiver together with its implied gain
(``sample_fix``); the sum of that offset and an independent interior delay
is symmetric about zero, which is what lets the aggregate waveform keep its
crossing in place.

Only the samplers live here; the tests evaluate the CDFs above in
``tests/channel_oracle.py`` and check the samplers against them. Distances
invert the exact area function, with no interpolation: in closed form
(A = pi r^2) for a receiver whose coverage disk never meets an edge, by
bisection with a fixed number of rounds otherwise. The first 12 of those
rounds are read from the law's table of its own bisection midpoints and
their areas, built on first use: one sorted search finds the bracket that
12 rounds of halving would reach, so the radii keep every bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError
from .geometry import NodePosition, Region, disk_intersection_area

# Absolute tolerance for bisection brackets; quantiles inherit it through
# the (Lipschitz) gain and delay maps.
_BISECT_TOL = 1e-12
_BISECT_BLOCK = 1 << 14
# Bisection levels read from a law's midpoint table: 2^12 - 1 radii, whose
# areas are one evaluation the first time an edge receiver's law is sampled.
_TABLE_LEVELS = 12


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
        if not 0.0 < self.wave_speed < np.inf:
            raise ConfigurationError("wave_speed must be positive and finite")
        if np.isnan(self.gate):
            raise ConfigurationError("gate must be a number")

    def gain(self, d: np.ndarray | float) -> np.ndarray | float:
        return np.maximum(0.0, 1.0 - np.asarray(d, dtype=float) / self.max_range)

    def delay(self, d: np.ndarray | float) -> np.ndarray | float:
        return np.asarray(d, dtype=float) / self.wave_speed


@dataclass(frozen=True)
class PathlossDistribution:
    """Law of the received gain K_j for one receiver."""

    model: ChannelModel
    receiver: NodePosition
    effective_range: float = field(init=False)
    area_total: float = field(init=False)
    area_at_range: float = field(init=False)
    _interior: bool = field(init=False)     # coverage disk never meets an edge

    def __post_init__(self):
        region = self.model.region
        if not region.contains(self.receiver.x, self.receiver.y):
            raise DomainError("receiver must lie inside the region")
        reach = region.corner_reach(self.receiver.x, self.receiver.y)
        object.__setattr__(self, "effective_range", min(self.model.max_range, reach))
        object.__setattr__(self, "area_total", region.area)
        object.__setattr__(self, "area_at_range", disk_intersection_area(
            region, self.receiver, self.effective_range))
        object.__setattr__(self, "_interior", self.effective_range <= region.edge_distance(
            self.receiver.x, self.receiver.y))

    @property
    def _rounds(self) -> int:
        # Every bracket halves from [0, effective_range] alike, so all reach the
        # tolerance after the same number of rounds.
        return max(1, int(np.floor(np.log2(self.effective_range / _BISECT_TOL))) + 1)

    @cached_property
    def _bisection_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Bracket ends after the bisection's first levels, and the areas at the
        midpoints between them.

        Each level inserts ``0.5 * (lo + hi)`` between neighbouring ends, the
        very midpoints bisection from [0, effective_range] computes. Built on
        first use, so that building a law stays one scalar area evaluation.
        """
        ends = np.array([0.0, self.effective_range])
        for _ in range(min(self._rounds, _TABLE_LEVELS)):
            finer = np.empty(2 * ends.size - 1)
            finer[0::2] = ends
            finer[1::2] = 0.5 * (ends[:-1] + ends[1:])
            ends = finer
        return ends, disk_intersection_area(self.model.region, self.receiver, ends[1:-1])

    def _invert_coverage(self, target_area: np.ndarray) -> np.ndarray:
        # Radius whose coverage area equals target (strictly increasing map).
        if self._interior:
            # coverage never meets an edge, so the area map is exactly pi r^2
            return np.sqrt(target_area / np.pi)
        # The table's areas increase with the radius, so the count of midpoints
        # whose area is below a target (searchsorted's side "left") picks the
        # bracket the table's levels of bisection reach. The rounds left are
        # bisected in blocks to keep the area temporaries small.
        ends, areas = self._bisection_table
        rounds = max(0, self._rounds - _TABLE_LEVELS)
        radii = np.empty_like(target_area)
        for start in range(0, target_area.size, _BISECT_BLOCK):
            target = target_area[start:start + _BISECT_BLOCK]
            bracket = np.searchsorted(areas, target)
            lo, hi = ends[bracket], ends[bracket + 1]
            del bracket
            for _ in range(rounds):
                mid = 0.5 * (lo + hi)
                below = disk_intersection_area(self.model.region, self.receiver, mid) < target
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            radii[start:start + _BISECT_BLOCK] = 0.5 * (lo + hi)
        return radii

    def _radii(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Heard mask and heard distances of the transmitters whose coverage areas are ``target``.

        A target below ``area_at_range`` is heard, at the radius it inverts to;
        the rest are the unheard atom at ``effective_range``.
        """
        heard = target < self.area_at_range
        return heard, self._invert_coverage(target[heard])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-transform samples of K_j, zeros included."""
        target = rng.uniform(size=size)
        np.subtract(1.0, target, out=target)
        target *= self.area_total
        heard, radii = self._radii(target)
        target[:] = 0.0                     # the gains overwrite the spent draws
        target[heard] = self.model.gain(radii)
        return target


@dataclass(frozen=True)
class DelayDistribution:
    """Coupled law of the propagation delay D_j and gain K_j for one receiver."""

    model: ChannelModel
    receiver: NodePosition
    pathloss: PathlossDistribution = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "pathloss", PathlossDistribution(self.model, self.receiver))

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draws (D_j, K_j): each transmitter's distance mapped through delay and gain."""
        pathloss = self.pathloss
        radii = rng.uniform(size=size)
        radii *= pathloss.area_total
        heard, heard_radii = pathloss._radii(radii)
        radii[:] = pathloss.effective_range
        radii[heard] = heard_radii
        return self.model.delay(radii), np.where(heard, self.model.gain(radii), 0.0)


def sample_fix(law: DelayDistribution, rng: np.random.Generator,
               size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the transmit-side compensation pair (d_fix <= 0, k_fix) from ``law``.

    d_fix is a negated draw from the delay law of an interior receiver, one
    whose disk of radius R stays inside the region, which makes the law
    position independent; k_fix is the gain at the same distance, as in
    reception, so compensation and channel stay consistent.
    """
    model, receiver = law.model, law.receiver
    if not np.isfinite(model.max_range):
        raise DomainError("no interior receivers exist when the gain cutoff is infinite")
    if model.region.edge_distance(receiver.x, receiver.y) < model.max_range:
        raise DomainError(
            f"receiver ({receiver.x}, {receiver.y}) is within max_range of an edge; "
            "the compensation law is defined from interior receivers only")
    delays, gains = law.sample(rng, size)
    return -delays, gains
