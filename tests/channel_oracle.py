"""Closed-form CDFs of the channel laws, the oracle the channel samplers are checked against.

A run only samples the gain and delay laws; these evaluate the CDFs the
``chronomesh.channel`` docstring gives, from the same exact coverage area,
with the unheard atom's mass and the delay map's inverse they are built from.
"""

from __future__ import annotations

import numpy as np

from chronomesh.channel import ChannelModel, DelayDistribution, PathlossDistribution
from chronomesh.geometry import disk_intersection_area


def pathloss_cdf(law: PathlossDistribution, k: np.ndarray | float) -> np.ndarray | float:
    """F(k) = 1 - A(j, rbar(k)) / A_T of the received gain, with its atom at zero."""
    region, rx = law.model.region, law.receiver
    reach = region.corner_reach(rx.x, rx.y)
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    inside = np.clip(k_arr, 0.0, 1.0)
    # rbar(k) up to the coverage reach; unit gain (R = inf) exceeds every
    # k < 1 anywhere, and k >= 1 is set to 1 below.
    r = law.model.max_range
    radius = (np.full_like(inside, reach) if np.isinf(r)
              else np.minimum(r * (1.0 - inside), reach))
    values = 1.0 - disk_intersection_area(region, rx, radius) / law.area_total
    values = np.where(k_arr < 0.0, 0.0, values)
    values = np.where(k_arr >= 1.0, 1.0, values)
    return float(values[0]) if np.ndim(k) == 0 else values


def invert_delay(model: ChannelModel, x: np.ndarray | float) -> np.ndarray | float:
    """Distance whose one-way delay is x."""
    return np.asarray(x, dtype=float) * model.wave_speed


def outage_probability(law: PathlossDistribution) -> float:
    """Mass of the unheard atom: K_j = 0, and D_j = delay(effective_range)."""
    return 1.0 - law.area_at_range / law.area_total


def delay_cdf(law: DelayDistribution, x: np.ndarray | float) -> np.ndarray | float:
    """CDF of the propagation delay: coverage area below delay(R_j), one at the unheard atom."""
    region, rx, pathloss = law.model.region, law.receiver, law.pathloss
    atom = law.model.delay(pathloss.effective_range)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    # the distance a delay reaches, clipped to the coverage reach
    r_prime = np.minimum(invert_delay(law.model, np.clip(x_arr, 0.0, atom)),
                         region.corner_reach(rx.x, rx.y))
    values = disk_intersection_area(region, rx, r_prime) / pathloss.area_total
    values = np.where(x_arr < 0.0, 0.0, values)
    values = np.where(x_arr >= atom, 1.0, values)
    return float(values[0]) if np.ndim(x) == 0 else values
