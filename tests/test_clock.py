"""Clock model tests: affine map round trips, jitter statistics, populations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronomesh.clock import (
    REFERENCE_CLOCK,
    ClockParams,
    SkewPopulation,
    read_clock,
    to_reference,
)
from chronomesh.errors import ConfigurationError, DomainError


@given(
    alpha=st.floats(0.5, 2.0),
    delta=st.floats(-10.0, 10.0),
    t=st.floats(-1e3, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_noiseless_round_trip(alpha, delta, t):
    params = ClockParams(alpha=alpha, delta_bar=delta, sigma2=0.0)
    reading = read_clock(params, t, np.random.default_rng(0))
    assert to_reference(params, reading) == pytest.approx(t, abs=1e-9)


def test_reference_clock_reads_true_time():
    ts = np.linspace(-5.0, 5.0, 11)
    assert np.array_equal(read_clock(REFERENCE_CLOCK, ts, np.random.default_rng(0)), ts)


def test_jitter_variance_and_freshness():
    params = ClockParams(alpha=1.01, delta_bar=0.3, sigma2=0.25)
    rng = np.random.default_rng(97)
    n = 100_000
    reads = read_clock(params, np.full(n, 2.0), rng)
    noise = reads - params.alpha * (2.0 - params.delta_bar)
    assert noise.var() == pytest.approx(0.25, rel=0.05)
    assert abs(noise.mean()) < 4 * 0.5 / np.sqrt(n)
    # Fresh draws per read: successive jitters are uncorrelated.
    lag1 = np.corrcoef(noise[:-1], noise[1:])[0, 1]
    assert abs(lag1) < 0.02


def test_reads_at_same_instant_differ():
    params = ClockParams(alpha=1.0, delta_bar=0.0, sigma2=1e-4)
    rng = np.random.default_rng(5)
    assert read_clock(params, 1.0, rng) != read_clock(params, 1.0, rng)


def test_invalid_clock_params():
    with pytest.raises(DomainError):
        ClockParams(alpha=0.0, delta_bar=0.0, sigma2=1.0)
    with pytest.raises(DomainError):
        ClockParams(alpha=1.0, delta_bar=0.0, sigma2=-1.0)


class TestSkewPopulation:
    def test_point_mass(self):
        pop = SkewPopulation.point_mass(1.0)
        assert np.all(pop.sample(100, np.random.default_rng(0)) == 1.0)

    def test_uniform_ks(self):
        pop = SkewPopulation(alpha_low=0.9, alpha_up=1.1)
        draws = pop.sample(1_000_000, np.random.default_rng(12))
        grid = np.linspace(0.9, 1.1, 2001)
        ecdf = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
        assert np.max(np.abs(ecdf - (grid - 0.9) / 0.2)) < 0.005

    def test_rejection_sampling_matches_triangular_cdf(self):
        # Symmetric triangle on [0.9, 1.1], peak height 10 at 1.0.
        lo, hi, peak = 0.9, 1.1, 10.0
        pop = SkewPopulation(
            alpha_low=lo, alpha_up=hi,
            density=lambda s: peak * (1.0 - np.abs(s - 1.0) / 0.1),
            density_bound=peak,
        )
        draws = pop.sample(400_000, np.random.default_rng(13))
        assert draws.min() >= lo and draws.max() <= hi
        grid = np.linspace(lo, hi, 1001)
        cdf = np.where(grid <= 1.0,
                       50.0 * (grid - lo) ** 2,
                       1.0 - 50.0 * (hi - grid) ** 2)
        ecdf = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
        assert np.max(np.abs(ecdf - cdf)) < 0.005

    def test_density_bound_violation_detected(self):
        pop = SkewPopulation(alpha_low=0.9, alpha_up=1.1,
                             density=lambda s: np.full_like(s, 20.0),
                             density_bound=5.0)
        with pytest.raises(ConfigurationError):
            pop.sample(100, np.random.default_rng(0))

    def test_invalid_population_configs(self):
        with pytest.raises(ConfigurationError):
            SkewPopulation(alpha_low=0.0, alpha_up=1.0)
        with pytest.raises(ConfigurationError):
            SkewPopulation(alpha_low=1.1, alpha_up=0.9)
        with pytest.raises(ConfigurationError):
            SkewPopulation(alpha_low=0.9, alpha_up=1.1, density=lambda s: s)
        with pytest.raises(DomainError):
            SkewPopulation().sample(0, np.random.default_rng(0))
