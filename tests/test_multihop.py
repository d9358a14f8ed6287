"""Relay-chain tests: hop formulas, exactness, and the variance ladder."""

import math
from dataclasses import replace

import numpy as np
import pytest

from chronomesh import multihop
from chronomesh.errors import ConfigurationError
from chronomesh.multihop import (
    CascadeReport,
    HopChainConfig,
    hop_count_estimate,
    predicted_chain_variances,
    run_cascade,
)
from chronomesh.rng import DOMAIN_TRIAL, substream


def per_pulse_cascade(config, trials, rng):
    """Reference relay that simulates every pulse: each hop reads m jittered
    pulse times, fits their spacing by least squares, and re-emits m pulses
    spaced by that estimate with fresh transmit jitter. Returns the
    (hops - 1, trials) rate estimates."""
    m = config.m
    sigma = math.sqrt(config.sigma2)
    steps = np.arange(m, dtype=float)
    centered = steps - steps.mean()
    slope_weights = centered / np.dot(centered, centered)
    fire_times = np.broadcast_to(steps, (trials, m))   # node 1 is exact
    estimates = []
    for i in range(2, config.hops + 1):
        readings = fire_times + sigma * rng.standard_normal((trials, m))
        alpha_hat = readings @ slope_weights
        estimates.append(alpha_hat)
        transmit_jitter = sigma * rng.standard_normal((trials, m))
        fire_times = steps * alpha_hat[:, None] - transmit_jitter
    return np.array(estimates)


def test_hop_estimate_reference_values():
    est = hop_count_estimate(1000)
    assert est.nearest_neighbor_scale == pytest.approx(0.046891436282526934, rel=1e-12)
    assert est.hop_count == pytest.approx(21.325855620520375, rel=1e-12)


def test_hop_estimate_unit_log_case():
    est = hop_count_estimate(math.e)
    assert est.nearest_neighbor_scale == pytest.approx(math.sqrt(1.0 / (math.e * math.pi)), rel=1e-12)


def test_hop_count_grows_with_network_size():
    sizes = [10 ** k for k in range(2, 7)]
    counts = [hop_count_estimate(n).hop_count for n in sizes]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_hop_estimate_rejects_tiny_networks():
    with pytest.raises(ConfigurationError):
        hop_count_estimate(1)


def test_unit_rate_ladder_closed_form():
    cfg = HopChainConfig(hops=10, m=3, sigma2=1.0)
    predicted = predicted_chain_variances(cfg)
    # D = (m-1)m(m+1) = 24: base 12/24 = 0.5, each extra hop adds 24/24 = 1.0
    assert np.allclose(predicted, 0.5 + np.arange(9), rtol=1e-14)


def test_variance_ladder_matches_monte_carlo():
    cfg = HopChainConfig(hops=6, m=3, sigma2=1.0, seed=5)
    rep = run_cascade(cfg, trials=10_000)
    assert rep.empirical_variances.shape == (5,)
    for emp, pred in zip(rep.empirical_variances, rep.predicted_variances):
        assert emp == pytest.approx(pred, rel=0.05)
    assert np.allclose(rep.alpha_hat_means, 1.0, atol=0.05)


def test_variance_trend_regression():
    cfg = HopChainConfig(hops=10, m=3, sigma2=1.0, seed=3)
    rep = run_cascade(cfg, trials=10_000)
    assert rep.slope == pytest.approx(1.0, rel=0.05)
    assert rep.intercept == pytest.approx(0.5, abs=0.025)


@pytest.mark.parametrize("cfg", [
    HopChainConfig(hops=6, m=3, sigma2=1.0, seed=21),
    HopChainConfig(hops=5, m=4, sigma2=0.25, seed=11),
], ids=["unit_m3", "mixed_m4"])
def test_slope_recursion_matches_per_pulse_oracle(cfg):
    trials = 20_000
    oracle = per_pulse_cascade(cfg, trials, np.random.default_rng(cfg.seed + 100))
    rep = run_cascade(cfg, trials)
    oracle_var = oracle.var(axis=1, ddof=1)
    se = np.hypot(oracle_var, rep.empirical_variances) * math.sqrt(2.0 / (trials - 1))
    assert np.all(np.abs(rep.empirical_variances - oracle_var) <= 5.0 * se)
    assert np.all(np.abs(rep.alpha_hat_means - oracle.mean(axis=1))
                  <= 5.0 * np.sqrt((oracle_var + rep.empirical_variances) / trials))
    # without jitter both forms carry the reference rate down the chain exactly
    noiseless = replace(cfg, sigma2=0.0)
    exact = run_cascade(noiseless, 4)
    assert np.allclose(exact.alpha_hat_means, 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(exact.empirical_variances, 0.0, rtol=0.0, atol=1e-24)
    oracle = per_pulse_cascade(noiseless, 4, np.random.default_rng(0))
    assert np.allclose(oracle, 1.0, rtol=0.0, atol=1e-12)


def test_cascade_draws_one_normal_per_trial_per_hop(monkeypatch):
    cfg = HopChainConfig(hops=9, m=5, sigma2=0.3)
    rng, reference = np.random.default_rng(17), np.random.default_rng(17)
    monkeypatch.setattr(multihop, "substream", lambda *key: rng)
    run_cascade(cfg, trials=321)
    for _ in range(cfg.hops - 1):
        reference.standard_normal(321)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_same_seed_reproduces(monkeypatch):
    cfg = HopChainConfig(hops=4, m=3, sigma2=1.0, seed=8)
    a = run_cascade(cfg, trials=500)
    b = run_cascade(cfg, trials=500)
    assert np.array_equal(a.empirical_variances, b.empirical_variances)
    keys = []

    def recorded(*key):
        keys.append(key)
        return substream(*key)

    monkeypatch.setattr(multihop, "substream", recorded)
    external = run_cascade(cfg, trials=500)
    assert keys == [(8, DOMAIN_TRIAL)]
    assert np.array_equal(a.empirical_variances, external.empirical_variances)


def test_report_structure():
    cfg = HopChainConfig(hops=7, m=3, sigma2=0.5, seed=2)
    rep = run_cascade(cfg, trials=100)
    assert isinstance(rep, CascadeReport)
    assert list(rep.hops) == [2, 3, 4, 5, 6, 7]
    assert rep.empirical_variances.shape == (6,)
    assert rep.predicted_variances.shape == (6,)
    note = rep.contrast_note()
    assert "hop" in note and "crossing" in note


def test_config_validation():
    with pytest.raises(ConfigurationError):
        HopChainConfig(hops=1)
    with pytest.raises(ConfigurationError):
        HopChainConfig(hops=3, m=1)
    with pytest.raises(ConfigurationError):
        HopChainConfig(hops=3, sigma2=-1.0)
    for sigma2 in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            HopChainConfig(hops=3, sigma2=sigma2)
    with pytest.raises(ConfigurationError):
        HopChainConfig(hops=3, seed=-1)
    with pytest.raises(ConfigurationError):
        run_cascade(HopChainConfig(hops=3), trials=1)
