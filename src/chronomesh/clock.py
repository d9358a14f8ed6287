"""Node clocks: affine skew and offset plus white readout jitter.

A node's clock reads alpha * (t - delta_bar) + jitter, where the jitter is
redrawn on every read. The reference node defines true time (alpha = 1,
delta_bar = 0, no jitter). A node's fit of its readings reproduces straight
lines, so its offset delta_bar cancels from every time it fires and none is
stored; the engine keeps neither jitters nor skews, but redraws both from
their streams a block at a time. This module draws the skews across the
network, uniformly on a bounded interval (one generator word a node) or as a
point mass (none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class SkewPopulation:
    """Distribution of clock skews across the network.

    Uniform on [alpha_low, alpha_up]; a point mass when the two are equal.
    """

    alpha_low: float = 0.98
    alpha_up: float = 1.02

    def __post_init__(self):
        if not 0.0 < self.alpha_low < math.inf:
            raise ConfigurationError("alpha_low must be positive and finite")
        if not self.alpha_low <= self.alpha_up < math.inf:
            raise ConfigurationError("alpha_up must be finite and >= alpha_low")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n <= 0:
            raise DomainError(f"population size must be positive, got {n}")
        if self.alpha_up == self.alpha_low:
            return np.full(n, self.alpha_low)
        return rng.uniform(self.alpha_low, self.alpha_up, size=n)
