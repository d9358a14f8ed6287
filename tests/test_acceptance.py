"""End-to-end acceptance gate.

One test per headline claim, run against the public API the way a user
would drive it. Each test is independently seeded and carries its own
tolerance; the time-bounded ones assert their own wall-clock budget.
Verbose pytest output gives one pass/fail line per criterion.
"""

import os
import time

import numpy as np
import pytest
from scipy import stats

from chronomesh import cli
from chronomesh.channel import ChannelModel, DelayDistribution, sample_fix
from chronomesh.clock import SkewPopulation
from chronomesh.engine import (
    NetworkState,
    ScenarioConfig,
    no_delay_phase_events,
    run_phase,
    run_phases,
)
from chronomesh.estimator import fit, predicted_variance
from chronomesh.geometry import NodePosition, Region
from chronomesh.multihop import HopChainConfig, run_cascade
from chronomesh.pco import PcoConfig, log_charging_map, pco_run_to_sync, random_phases
from chronomesh.rng import DOMAIN_SEED_SWEEP, substream
from chronomesh.waveform import AggregateEvaluator, Pulse
from limit_oracle import LimitSpec, limit_waveform
from test_estimator import alpha_variance


def test_criterion_1_dense_network_crossing_near_target():
    # 400 nodes heard at full strength, total transmit-error variance 0.01;
    # the aggregate crossing should sit within 0.02 of the aimed instant
    # in at least 18 of 20 seeds.
    start = time.perf_counter()
    region = Region(1.0, 1.0)
    hits = 0
    for seed in range(20):
        config = ScenarioConfig(n_nodes=400, sigma2=0.003, regime="no_delay",
                                channel=ChannelModel(region, np.inf),
                                seed=seed)
        assert config.fire_variance == pytest.approx(0.01)
        report = run_phase(NetworkState(config))
        cross = report.crossings[report.primary]
        assert cross.ok
        if abs(cross.location - report.center) <= 0.02:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 18
    assert elapsed < 5.0


def test_criterion_2_crossing_polarity_and_odd_symmetry():
    start = time.perf_counter()

    # crossing location at high density
    config = ScenarioConfig(n_nodes=100_000, regime="no_delay", seed=0)
    report = run_phase(NetworkState(config))
    assert abs(report.crossings[report.primary].location - report.center) <= 0.005

    # amplitude polarity at +-0.2 tau_nz from the target, beyond 3 SE
    before, after = [], []
    for seed in range(10):
        cfg = ScenarioConfig(n_nodes=100_000, regime="no_delay", seed=seed)
        state = NetworkState(cfg)
        events, tau0 = no_delay_phase_events(state)
        shift = 0.2 * state.pulse.tau_nz
        aggregate = AggregateEvaluator(events, state.pulse)
        before.append(aggregate(tau0 - shift))
        after.append(aggregate(tau0 + shift))
    for sign, values in ((1.0, np.array(before)), (-1.0, np.array(after))):
        mean = values.mean()
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert sign * mean > 3.0 * se

    # quadrature oracle: the limit waveform is odd about the target
    spec = LimitSpec(pulse=Pulse(1.0), tau0=0.0,
                     sigma_bar2=config.fire_variance,
                     population=SkewPopulation())
    offsets = np.array([0.05, 0.2, 0.5, 0.8])
    left = limit_waveform(spec, -offsets, tol=1e-10)
    right = limit_waveform(spec, offsets, tol=1e-10)
    assert np.max(np.abs(left + right)) < 1e-8

    assert time.perf_counter() - start < 60.0


def _designs(m: int) -> list:
    """The paper's standard, even_odd and two epsilon designs on their original
    axes, as (regressors, target, window step given to the one-number fit)."""
    k = np.arange(m, dtype=float)
    return [(k, m, m), (2 * k, 2 * m - 1, m - 0.5),
            (k + 0.3, m, m - 0.3), (k - 0.5, m, m + 0.5)]


def _matrix_variance(x: np.ndarray, target: float) -> float:
    design = np.column_stack([np.ones(x.size), x])
    row = np.array([1.0, target])
    return float(row @ np.linalg.inv(design.T @ design) @ row)


def test_criterion_3_prediction_variance_closed_forms():
    start = time.perf_counter()
    m, trials = 3, 100_000
    rng = np.random.default_rng(20240601)
    for _, _, step in _designs(m):
        noise = rng.standard_normal((trials, m))
        phi = fit(noise, step).phi_hat
        assert phi.var(ddof=1) == pytest.approx(predicted_variance(m, step),
                                                rel=0.03)
    # the closed form agrees with the explicit design-matrix algebra on the
    # paper's original regressors
    for m_i in range(2, 51):
        for x, target, step in _designs(m_i):
            assert predicted_variance(m_i, step) == pytest.approx(
                _matrix_variance(x, target), rel=1e-12)
    assert time.perf_counter() - start < 30.0


def test_criterion_4_skew_estimate_law():
    m, trials = 3, 100_000
    rng = np.random.default_rng(77)
    noise = rng.standard_normal((trials, m))
    alpha_hat = fit(noise, m).alpha_hat
    target = alpha_variance(m)
    assert target == pytest.approx(12.0 / ((m - 1) * m * (m + 1)), rel=1e-12)
    assert alpha_hat.var(ddof=1) == pytest.approx(target, rel=0.03)
    p_value = stats.kstest(alpha_hat / np.sqrt(target), "norm").pvalue
    assert p_value > 0.01


def test_criterion_5_steady_state_has_no_trend():
    # The window feedback integrates fresh crossing noise, so a single
    # error path wanders; the claim under test is that nothing systematic
    # pushes the crossings away from the grid. The slope's standard error
    # therefore comes from independent replicate runs, not from the
    # residuals of one autocorrelated path.
    phases = 20
    slopes = []
    for seed in range(12):
        config = ScenarioConfig(n_nodes=100_000, regime="no_delay", seed=seed)
        reports = run_phases(NetworkState(config), phases)
        errors = np.array([r.crossings[r.primary].location - r.center
                           for r in reports])
        slopes.append(np.polyfit(np.arange(float(phases)), errors, 1)[0])
    slopes = np.array(slopes)
    se = slopes.std(ddof=1) / np.sqrt(len(slopes))
    assert abs(slopes.mean()) <= 3.0 * se


def test_criterion_6_delay_compensation_symmetry():
    # oracle-skew runs: the interior crossing stays on target
    offsets = []
    for seed in range(4):
        config = ScenarioConfig(n_nodes=100_000, regime="delay",
                                oracle_alpha=True, seed=seed)
        report = run_phase(NetworkState(config))
        cross = report.crossings[report.primary]
        assert cross.ok
        offsets.append(cross.location - report.center)
    assert abs(np.mean(offsets)) <= 0.005

    # the compensated total delay is mirror-symmetric once gain-weighted
    region = Region(1.0, 1.0)
    model = ChannelModel(region, 0.25)
    receiver = NodePosition(0.5, 0.5)
    rng = np.random.default_rng(99)
    count = 1_000_000
    d_fix, k_fix = sample_fix(DelayDistribution(model, receiver), rng, count)
    delays, gains = DelayDistribution(model, receiver).sample(rng, count)
    total = d_fix + delays
    weight = k_fix * gains
    edges = np.linspace(-0.3, 0.3, 22)
    hist, _ = np.histogram(total, bins=edges, weights=weight)
    hist = hist / hist.sum()
    assert np.max(np.abs(hist - hist[::-1])) < 0.01


def test_criterion_7_multihop_variance_growth():
    config = HopChainConfig(hops=10, m=3, sigma2=1.0, seed=3)
    report = run_cascade(config, trials=10_000)
    assert report.slope == pytest.approx(1.0, rel=0.05)
    assert report.intercept == pytest.approx(0.5, abs=0.025)
    # the report itself must draw the contrast with the cooperative scheme
    note = report.contrast_note()
    assert "hop" in note and "crossing" in note


def test_criterion_8_oscillator_absorption_census():
    synced = 0
    for s in range(100):
        rng = substream(2024, DOMAIN_SEED_SWEEP, s)
        config = PcoConfig(initial_phases=random_phases(5, rng), epsilons=0.2)
        report = pco_run_to_sync(config)
        if report.synchronized and report.cycles < 10_000:
            synced += 1
    assert synced >= 99

    # two-oscillator event times against the direct charging simulation
    f, f_inv = log_charging_map()
    phases = (0.1, 0.7)
    eps = 0.05
    config = PcoConfig(initial_phases=phases, epsilons=eps, max_cycles=200)
    report = pco_run_to_sync(config)
    phi, t, merged = list(phases), 0.0, False
    expected = []
    while len(expected) < len(report.events):
        if merged:
            t += 1.0 - phi[0]
            phi[0] = 0.0
            expected.append(t)
            continue
        j = 0 if phi[0] >= phi[1] else 1
        k = 1 - j
        t += 1.0 - phi[j]
        expected.append(t)
        phi[k] += 1.0 - phi[j]
        phi[j] = 0.0
        charge = f(phi[k]) + eps
        if charge >= 1.0:
            phi, merged = [0.0], True
        else:
            phi[k] = f_inv(charge)
    observed = [event.time for event in report.events]
    assert observed == pytest.approx(expected, abs=1e-10)


def test_criterion_9_runs_are_thread_invariant(tmp_path, monkeypatch):
    outputs = {}
    base = ["pco", "--trials", "40", "--seed", "21"]
    for threads in ("1", "4", "16"):
        monkeypatch.setenv("CHRONOMESH_THREADS", threads)
        out = str(tmp_path / f"census{threads}")
        assert cli.run_command(base + ["--out", out]) == 0
        with open(os.path.join(out, "census.csv"), "rb") as fh:
            outputs[threads] = fh.read()
    assert outputs["1"] == outputs["4"] == outputs["16"]

    # re-running from the recorded manifest reproduces the bytes too
    first = str(tmp_path / "run1")
    monkeypatch.setenv("CHRONOMESH_THREADS", "16")
    assert cli.run_command(["steady", "--nodes", "300", "--phases", "2",
                            "--seed", "6", "--out", first]) == 0
    second = str(tmp_path / "run2")
    monkeypatch.setenv("CHRONOMESH_THREADS", "4")
    assert cli.run_command(["--config", os.path.join(first, "manifest.cfg"),
                            "--out", second]) == 0
    for name in ("phases.csv",):
        with open(os.path.join(first, name), "rb") as a, \
                open(os.path.join(second, name), "rb") as b:
            assert a.read() == b.read()
