"""Node clocks: affine skew and offset plus white readout jitter.

A node's clock reads alpha * (t - delta_bar) + jitter, where the jitter is
redrawn on every read. The reference node defines true time (alpha = 1,
delta_bar = 0, no jitter). The engine keeps these per-node parameters as
arrays; this module draws the skews across the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class SkewPopulation:
    """Distribution of clock skews across the network.

    density is a vectorized pdf supported on [alpha_low, alpha_up]; None
    means uniform. density_bound must dominate the pdf and drives rejection
    sampling, which keeps arbitrary bounded densities exact. alpha_low ==
    alpha_up degenerates to a point mass.
    """

    alpha_low: float = 0.98
    alpha_up: float = 1.02
    density: Callable[[np.ndarray], np.ndarray] | None = None
    density_bound: float | None = None

    def __post_init__(self):
        if self.alpha_low <= 0.0:
            raise ConfigurationError("alpha_low must be positive")
        if self.alpha_up < self.alpha_low:
            raise ConfigurationError("alpha_up must be >= alpha_low")
        if self.density is not None:
            if self.alpha_up == self.alpha_low:
                raise ConfigurationError("a point-mass population cannot carry a density")
            if self.density_bound is None or self.density_bound <= 0.0:
                raise ConfigurationError("a custom density needs a positive density_bound")

    @staticmethod
    def point_mass(alpha: float = 1.0) -> "SkewPopulation":
        return SkewPopulation(alpha_low=alpha, alpha_up=alpha)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n <= 0:
            raise DomainError(f"population size must be positive, got {n}")
        if self.alpha_up == self.alpha_low:
            return np.full(n, self.alpha_low)
        if self.density is None:
            return rng.uniform(self.alpha_low, self.alpha_up, size=n)
        out = np.empty(n)
        filled = 0
        # Rejection sampling under the stated bound; draw in fixed-size
        # rounds so the stream consumption is reproducible.
        batch = max(2 * n, 1024)
        while filled < n:
            proposals = rng.uniform(self.alpha_low, self.alpha_up, size=batch)
            heights = rng.uniform(0.0, self.density_bound, size=batch)
            pdf = np.asarray(self.density(proposals), dtype=float)
            if np.any(pdf > self.density_bound * (1.0 + 1e-12)):
                raise ConfigurationError("density exceeds its stated density_bound")
            accepted = proposals[heights < pdf]
            take = min(accepted.size, n - filled)
            out[filled:filled + take] = accepted[:take]
            filled += take
        return out
