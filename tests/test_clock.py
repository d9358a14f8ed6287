"""Clock model tests: the readings a phase rolls in, and skew populations."""

from __future__ import annotations

import numpy as np
import pytest

from chronomesh.clock import SkewPopulation
from chronomesh.engine import NetworkState, ScenarioConfig, run_phase
from chronomesh.errors import ConfigurationError, DomainError


def test_reference_clock_reads_true_time():
    # node 0 has unit skew and no jitter: its window is the history it heard
    st = NetworkState(ScenarioConfig(n_nodes=2000, sigma2=1e-4, seed=3))
    report = run_phase(st)
    assert report.crossing is not None
    assert st.history[0, -1] == report.crossing
    assert st.skews(slice(0, 1))[0] == 1.0 and not next(st.windows())[1][0].any()


def test_jitter_variance_and_freshness():
    sigma2, n = 0.04, 20_000
    st = NetworkState(ScenarioConfig(n_nodes=n, sigma2=sigma2, seed=17))
    report = run_phase(st)
    assert report.crossing is not None
    # a reading is alpha (crossing - delta) + noise; the state keeps the noise
    ((_, windows),) = st.windows()          # one block holds every node
    noise = windows[1:, -1].astype(float)
    assert noise.var() == pytest.approx(sigma2, rel=0.05)
    assert abs(noise.mean()) < 4 * np.sqrt(sigma2 / n)
    # Fresh draws per read: the jitter of the reading taken one instant
    # earlier is uncorrelated with this one.
    earlier = windows[1:, -2].astype(float)
    assert abs(np.corrcoef(earlier, noise)[0, 1]) < 0.03


class TestSkewPopulation:
    def test_point_mass(self):
        pop = SkewPopulation(1.0, 1.0)
        assert np.all(pop.sample(100, np.random.default_rng(0)) == 1.0)

    def test_uniform_ks(self):
        pop = SkewPopulation(alpha_low=0.9, alpha_up=1.1)
        draws = pop.sample(1_000_000, np.random.default_rng(12))
        grid = np.linspace(0.9, 1.1, 2001)
        ecdf = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
        assert np.max(np.abs(ecdf - (grid - 0.9) / 0.2)) < 0.005

    def test_invalid_population_configs(self):
        with pytest.raises(ConfigurationError):
            SkewPopulation(alpha_low=0.0, alpha_up=1.0)
        with pytest.raises(ConfigurationError):
            SkewPopulation(alpha_low=1.1, alpha_up=0.9)
        for low, up in ((np.nan, 1.0), (0.9, np.nan), (np.nan, np.nan), (0.9, np.inf)):
            with pytest.raises(ConfigurationError):
                SkewPopulation(alpha_low=low, alpha_up=up)
        with pytest.raises(DomainError):
            SkewPopulation().sample(0, np.random.default_rng(0))
