"""Hop-by-hop skew relay and its error accumulation.

The contrast experiment to the cooperative engine. A chain of nodes spans
the network: node 1 emits m reference pulses at unit spacing, node 2 fits
its relative rate to them by least squares, re-emits m pulses spaced by its
estimate, and so on down the chain. Each stage adds one Gaussian slope
error from fresh jitter on top of the error it inherited, so the variance
of the rate estimate grows linearly with hop count. The cooperative
aggregate has no such ladder: every node hears the same crossing, however
far it sits from the reference, which is the point the two experiments
make together.

The chain length worth simulating comes from the connectivity radius of a
random deployment: with n nodes in a unit square the nearest-neighbor
scale is d = sqrt(log(n)/(pi n)), and crossing the region takes about 1/d
hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import DOMAIN_TRIAL, substream


@dataclass(frozen=True)
class HopEstimate:
    nearest_neighbor_scale: float     # connectivity radius d
    hop_count: float                  # region crossings, 1/d


def hop_count_estimate(n) -> HopEstimate:
    """Connectivity radius and implied chain length for n deployed nodes."""
    if n < 2:
        raise ConfigurationError("need at least two nodes for a hop estimate")
    d = math.sqrt(math.log(n) / (math.pi * n))
    return HopEstimate(d, 1.0 / d)


@dataclass(frozen=True)
class HopChainConfig:
    """A relay chain: ``hops`` unit-rate nodes in a line, window length m per stage."""

    hops: int
    m: int = 3
    sigma2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.hops < 2:
            raise ConfigurationError("a chain needs at least two nodes")
        if self.m < 2:
            raise ConfigurationError("window length m must be at least 2")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ConfigurationError("sigma2 must be nonnegative and finite")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


def predicted_chain_variances(config: HopChainConfig) -> np.ndarray:
    """Variance of the rate estimate at hops 2..hops.

    Stage 2 reads clean reference pulses: Var = 12 sigma^2 / D with
    D = (m-1)m(m+1). Stage i inherits the previous estimate and adds slope
    noise from two jitter sources (the sender's transmit reads and its own
    receive reads), so

        Var_i = Var_{i-1} + 2 (12 sigma^2 / D) = 12 s/D + (i-2) 24 s/D.
    """
    m = config.m
    d_const = (m - 1) * m * (m + 1)
    base = 12.0 * config.sigma2 / d_const
    out = np.empty(config.hops - 1)
    out[0] = base
    for i in range(3, config.hops + 1):
        out[i - 2] = out[i - 3] + base * 2.0
    return out


@dataclass(frozen=True)
class CascadeReport:
    """Per-hop estimates and their spread across trials."""

    hops: np.ndarray                   # hop indices, 2..hops
    alpha_hat_means: np.ndarray
    empirical_variances: np.ndarray
    predicted_variances: np.ndarray
    slope: float                       # variance growth per hop
    intercept: float                   # variance at hop 2
    trials: int

    def contrast_note(self) -> str:
        return ("relay-chain variance grows linearly with hop count, while the "
                "cooperative aggregate shares a single crossing network-wide, "
                "so its per-phase error does not scale with distance")


def _variance_trend(hops: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Weighted straight-line fit of variance against (hop - 2).

    The sampling noise of a variance estimate scales with the variance
    itself, so the fit weights each point by 1/variance^2; an unweighted
    fit would let the noisiest (far) hops swamp the near ones.
    """
    x = hops.astype(float) - 2.0
    if np.all(variances > 0.0):
        w = 1.0 / variances ** 2
    else:
        w = np.ones_like(variances)     # degenerate (noise-free) chain
    sw = w.sum()
    mx = (w * x).sum() / sw
    my = (w * variances).sum() / sw
    sxx = (w * (x - mx) ** 2).sum()
    if sxx == 0.0:
        return 0.0, float(my)
    slope = (w * (x - mx) * (variances - my)).sum() / sxx
    return float(slope), float(my - slope * mx)


def run_cascade(config: HopChainConfig, trials: int) -> CascadeReport:
    """Simulate the relay chain across independent trials.

    One Gaussian slope error per hop; the m-pulse fit is its exact law. The
    least-squares slope over centered indices c turns a read's jitter into
    sd z, sd = sqrt(sigma2 / (c.c)). Hop 2 reads node 1's exact pulses; hop
    i >= 3 adds the sender's and its own jitter to the inherited estimate,
    sd sqrt(2) z.
    """
    if trials < 2:
        raise ConfigurationError("variance needs at least two trials")
    rng = substream(config.seed, DOMAIN_TRIAL)
    centered = np.arange(config.m) - (config.m - 1) / 2.0
    sd = math.sqrt(config.sigma2 / np.dot(centered, centered))

    hop_ids = np.arange(2, config.hops + 1)
    means, variances = np.empty((2, config.hops - 1))
    alpha_hat = np.ones(trials)          # node 1 is the reference, rate 1
    z = np.empty(trials)
    for i in range(2, config.hops + 1):
        rng.standard_normal(out=z)
        z *= sd if i == 2 else sd * math.sqrt(2.0)
        alpha_hat += z
        means[i - 2] = alpha_hat.mean()
        variances[i - 2] = alpha_hat.var(ddof=1)

    slope, intercept = _variance_trend(hop_ids, variances)
    return CascadeReport(hop_ids, means, variances,
                         predicted_chain_variances(config), slope, intercept,
                         trials)
