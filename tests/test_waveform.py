"""Waveform tests: pulse symmetry, crossing search, limit-waveform checks."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronomesh
from chronomesh import waveform
from chronomesh.clock import SkewPopulation
from chronomesh.errors import DomainError, NumericsError
from chronomesh.waveform import (
    _ANGLE_BLOCK,
    AggregateEvaluator,
    CrossingReport,
    EventArray,
    LimitSpec,
    Pulse,
    default_tau_nz,
    evaluate_aggregate,
    find_zero_crossing,
    limit_waveform,
)


def dense_aggregate(events: EventArray, pulse: Pulse, t) -> np.ndarray:
    # Reference oracle: the direct sum of one pulse copy per event and instant.
    shifted = np.asarray(t, dtype=float)[:, None] - events.arrival[None, :]
    return pulse.evaluate(shifted) @ events.scale


def full_array_prefixes(events: EventArray, pulse: Pulse):
    # Reference oracle: sorted arrivals and the angle-sum prefix sums, built
    # on whole arrays in one pass each.
    order = np.argsort(events.arrival, kind="stable")
    arrivals = events.arrival[order]
    scale = events.scale[order]
    angle = np.pi * arrivals / pulse.tau_nz
    cos_prefix = np.concatenate(([0.0], np.cumsum(np.cos(angle) * scale)))
    sin_prefix = np.concatenate(([0.0], np.cumsum(np.sin(angle) * scale)))
    return arrivals, cos_prefix, sin_prefix


def scan_crossing(events: EventArray, pulse: Pulse, center: float,
                  gate: float = 0.0) -> CrossingReport:
    """Oracle: the grid scan and bisection, on the sorted prefix-sum evaluator.

    The same first-crossing rule find_zero_crossing falls back to, written
    out here so the closed form is always checked against an independent scan.
    """
    aggregate = AggregateEvaluator(events, pulse)
    tau = pulse.tau_nz
    grid = center + np.linspace(-tau, tau, 2 * int(np.ceil(tau / (tau / 1000.0))) + 1)
    amps = aggregate(grid)
    peak = float(np.max(np.abs(amps)))
    if peak < gate:
        return CrossingReport(None, peak, gated=True, no_crossing=False)
    down = np.nonzero((amps[:-1] > 0.0) & (amps[1:] <= 0.0))[0]
    if down.size == 0:
        return CrossingReport(None, peak, gated=False, no_crossing=True)
    lo, hi = grid[down[0]], grid[down[0] + 1]
    while hi - lo >= 1e-12:
        mid = 0.5 * (lo + hi)
        value = aggregate(mid)
        if abs(value) < 1e-12:
            break
        lo, hi = (mid, hi) if value > 0.0 else (lo, mid)
    return CrossingReport(float(0.5 * (lo + hi)), peak, gated=False, no_crossing=False)


def assert_matches_scan(report: CrossingReport, scan: CrossingReport, tol: float = 1e-9,
                        peak_in_window: bool = True):
    assert (report.gated, report.no_crossing) == (scan.gated, scan.no_crossing)
    assert report.ok == scan.ok
    if report.ok:
        assert abs(report.location - scan.location) < tol
    # the grid samples, inside the window only, the peak the closed form reads
    assert scan.max_amplitude <= report.max_amplitude * (1.0 + 1e-12)
    if peak_in_window:
        assert report.max_amplitude == pytest.approx(scan.max_amplitude, rel=1e-4,
                                                     abs=1e-300)


def contributions(events: EventArray, pulse: Pulse, t: float) -> np.ndarray:
    return events.scale * pulse.evaluate(t - events.arrival)


def gaussian_events(n: int, tau0: float, sigma: float, rng, scale=None) -> EventArray:
    fires = tau0 + rng.normal(0.0, sigma, size=n)
    return EventArray.build(fires, np.full(n, 1.0 / n) if scale is None else scale)


class TestPulseShape:
    @given(t=st.floats(-5.0, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_odd_symmetry_exact(self, t):
        pulse = Pulse(1.3)
        assert pulse.evaluate(t) == -pulse.evaluate(-t)

    def test_zero_at_origin_and_outside_support(self):
        pulse = Pulse(0.7)
        assert pulse.evaluate(0.0) == 0.0
        assert pulse.evaluate(0.7) == 0.0
        assert pulse.evaluate(-0.7) == 0.0
        assert pulse.evaluate(5.0) == 0.0

    def test_positive_before_negative_after(self):
        pulse = Pulse(1.0)
        ts = np.linspace(-0.999, -1e-3, 100)
        assert np.all(pulse.evaluate(ts) > 0.0)
        assert np.all(pulse.evaluate(-ts) < 0.0)
        assert np.max(pulse.evaluate(ts)) <= 1.0

    def test_fast_and_generic_paths_agree(self):
        rng = np.random.default_rng(2)
        ev = gaussian_events(5000, 1.0, 0.1, rng)
        grid = np.linspace(-0.5, 2.5, 701)
        fast = evaluate_aggregate(ev, Pulse(1.0), grid)
        slow = dense_aggregate(ev, Pulse(1.0), grid)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_invalid_pulse_params(self):
        for tau_nz in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                Pulse(tau_nz)

    def test_default_tau_nz(self):
        assert default_tau_nz(0.1, 0.5) == pytest.approx(20.0)
        assert default_tau_nz(0.0, 0.9) == 1.0
        for sigma_bar, alpha_low in ((-0.1, 1.0), (float("nan"), 1.0), (float("inf"), 1.0),
                                     (0.1, 0.0), (0.1, float("nan"))):
            with pytest.raises(DomainError):
                default_tau_nz(sigma_bar, alpha_low)


class TestAggregate:
    def test_single_event_recovers_pulse(self):
        pulse = Pulse(1.0)
        ev = EventArray.build([3.0], [0.5], [0.25])
        ts = np.linspace(2.5, 4.0, 17)
        expected = 0.5 * pulse.evaluate(ts - 3.25)
        assert np.allclose(evaluate_aggregate(ev, pulse, ts), expected, atol=1e-15)

    def test_contributions_sum_to_aggregate(self):
        rng = np.random.default_rng(3)
        ev = gaussian_events(1000, 0.0, 0.05, rng)
        t = 0.037
        parts = contributions(ev, Pulse(1.0), t)
        assert parts.shape == (1000,)
        assert parts.sum() == pytest.approx(evaluate_aggregate(ev, Pulse(1.0), t),
                                            abs=1e-12)

    def test_empty_events_rejected(self):
        with pytest.raises(DomainError):
            EventArray.build([])

    def test_events_without_delay_arrive_at_their_fire_times(self):
        fires = np.array([0.5, -0.25, 1.0])
        ev = EventArray.build(fires)
        assert ev.delay is None
        assert ev.arrival is ev.fire
        assert np.array_equal(ev.arrival, fires)
        assert np.array_equal(EventArray.build(fires, delay=[0.0, 0.5, 1.0]).arrival,
                              [0.5, 0.25, 2.0])

    @pytest.mark.parametrize("size", [_ANGLE_BLOCK - 1, _ANGLE_BLOCK, _ANGLE_BLOCK + 1,
                                      3 * _ANGLE_BLOCK + 5])
    def test_prefix_sums_match_full_array_construction(self, size):
        rng = np.random.default_rng(size)
        # fires on a coarse grid, so the stable sort has ties to keep in order
        fires = np.round(rng.normal(4.0, 0.3, size), 3)
        events = EventArray.build(fires, rng.uniform(0.0, 2.0, size), rng.uniform(0.0, 0.1, size))
        pulse = Pulse(0.7)
        arrivals, cos_prefix, sin_prefix = full_array_prefixes(events, pulse)
        evaluator = AggregateEvaluator(events, pulse)
        assert np.array_equal(evaluator._arrivals, arrivals)
        assert np.array_equal(evaluator._cos_prefix, cos_prefix)
        assert np.array_equal(evaluator._sin_prefix, sin_prefix)

    def test_event_columns_of_mismatched_shape_rejected(self):
        with pytest.raises(DomainError):
            EventArray.build([0.0, 1.0], delay=[0.5])
        with pytest.raises(DomainError):
            EventArray.build([0.0, 1.0], scale=[1.0, 1.0, 1.0])


class TestCrossingSearch:
    def test_identical_fires_cross_exactly_at_fire_time(self):
        ev = EventArray.build(np.full(100, 2.0), np.full(100, 0.01))
        report = find_zero_crossing(ev, Pulse(1.0), search_center=2.0)
        assert report.ok and not report.gated and not report.no_crossing
        assert report.location == pytest.approx(2.0, abs=1e-9)

    def test_against_dense_grid_oracle(self):
        # Independent first-crossing logic on a one-million-point grid.
        rng = np.random.default_rng(29)
        pulse = Pulse(1.0)
        ev = gaussian_events(1000, 0.0, 0.15, rng)
        report = find_zero_crossing(ev, pulse, search_center=0.0)
        dense = np.linspace(-1.0, 1.0, 1_000_001)
        amps = evaluate_aggregate(ev, pulse, dense)
        idx = np.nonzero((amps[:-1] > 0.0) & (amps[1:] <= 0.0))[0][0]
        assert report.ok
        assert abs(report.location - dense[idx]) < 2.0 * (dense[1] - dense[0])

    def test_refined_amplitude_is_tiny(self):
        rng = np.random.default_rng(31)
        pulse = Pulse(2.0)
        ev = gaussian_events(5000, 1.0, 0.2, rng)
        report = find_zero_crossing(ev, pulse, search_center=1.0)
        assert abs(evaluate_aggregate(ev, pulse, report.location)) < 1e-9

    def test_monte_carlo_crossing_tightens_with_density(self):
        pulse = Pulse(1.0)
        errors = {}
        for n in (100, 10_000):
            errs = []
            for seed in range(50):
                rng = np.random.default_rng(1000 + seed)
                ev = gaussian_events(n, 5.0, 0.1, rng)
                report = find_zero_crossing(ev, pulse, search_center=5.0)
                assert report.ok
                errs.append(abs(report.location - 5.0))
            errors[n] = np.median(errs)
        assert errors[10_000] < errors[100]

    def test_amplitude_polarity_beyond_three_standard_errors(self):
        rng = np.random.default_rng(37)
        pulse = Pulse(1.0)
        n = 100_000
        ev = gaussian_events(n, 0.0, 0.05, rng)
        for offset, sign in ((-0.2, 1.0), (0.2, -1.0)):
            parts = contributions(ev, pulse, offset) * n  # undo 1/n scaling
            se = parts.std() / np.sqrt(n)
            assert sign * parts.mean() > 3.0 * se

    def test_gate_blocks_weak_aggregates(self):
        ev = EventArray.build(np.array([0.0]), np.array([1e-6]))
        report = find_zero_crossing(ev, Pulse(1.0), 0.0, gate=0.01)
        assert report.gated and report.location is None and not report.no_crossing
        assert report.max_amplitude < 0.01

    def test_no_crossing_reported_separately(self):
        # All pulse mass after the window: the waveform never turns positive.
        ev = EventArray.build(np.array([10.0]))
        report = find_zero_crossing(ev, Pulse(1.0), 0.0)
        assert report.no_crossing and not report.gated and report.location is None

    def test_amplitude_rescaling_leaves_crossing_in_place(self):
        rng = np.random.default_rng(41)
        fires = 1.0 + rng.normal(0.0, 0.1, size=2000)
        pulse = Pulse(1.0)
        base = find_zero_crossing(EventArray.build(fires), pulse, 1.0)
        shrunk = find_zero_crossing(
            EventArray.build(fires, np.full(2000, 1e-3)), pulse, 1.0)
        assert base.ok and shrunk.ok
        assert shrunk.location == pytest.approx(base.location, abs=1e-9)


class TestClosedFormCrossing:
    @pytest.fixture
    def scans(self, monkeypatch):
        """Count the evaluators find_zero_crossing builds, i.e. its fallback scans."""
        built = []
        evaluator = waveform.AggregateEvaluator

        def counting(events, pulse):
            built.append(events.count)
            return evaluator(events, pulse)

        monkeypatch.setattr(waveform, "AggregateEvaluator", counting)
        return built

    @pytest.mark.parametrize("size", [1, 5000, 3 * _ANGLE_BLOCK + 5])
    @pytest.mark.parametrize("with_delay", [False, True], ids=["no_delay", "delay"])
    def test_narrow_arrivals_agree_with_the_scan(self, scans, size, with_delay):
        rng = np.random.default_rng(size + with_delay)
        pulse = Pulse(1.3)
        fires = 4.0 + rng.normal(0.0, 0.02, size)
        delay = rng.uniform(0.0, 0.2, size) if with_delay else None
        events = EventArray.build(fires, rng.uniform(0.0, 1.0, size) / size, delay)
        report = find_zero_crossing(events, pulse, 4.05)
        assert scans == [] and report.ok
        assert_matches_scan(report, scan_crossing(events, pulse, 4.05))
        assert type(report.location) is float

    def test_spread_of_half_the_support_takes_the_fallback(self, scans):
        # a user tau_nz narrower than twice the spread
        rng = np.random.default_rng(61)
        pulse = Pulse(0.3)
        fires = np.concatenate(([0.0, 0.15], rng.uniform(0.0, 0.15, 500)))
        events = EventArray.build(fires, np.full(fires.size, 1e-3))
        report = find_zero_crossing(events, pulse, 0.1)
        assert scans == [fires.size]
        assert report == scan_crossing(events, pulse, 0.1)
        assert report.ok

    def test_just_below_half_the_support_uses_the_closed_form(self, scans):
        fires = np.array([0.0, 0.1499, 0.07])
        events = EventArray.build(fires, [1.0, 2.0, 0.5])
        report = find_zero_crossing(events, Pulse(0.3), 0.1)
        assert scans == []
        assert_matches_scan(report, scan_crossing(events, Pulse(0.3), 0.1))

    def test_negative_scale_takes_the_fallback(self, scans):
        events = EventArray.build([0.0, 0.01, 0.02], [1.0, -0.2, 1.0])
        report = find_zero_crossing(events, Pulse(1.0), 0.0)
        assert scans == [3]
        assert report == scan_crossing(events, Pulse(1.0), 0.0)

    def test_all_scales_zero_is_no_crossing(self, scans):
        # every transmitter in outage: no pulse at all, not a crossing at the centre
        events = EventArray.build(np.linspace(2.0, 2.1, 50), np.zeros(50))
        report = find_zero_crossing(events, Pulse(1.0), 2.05)
        assert scans == []
        assert report.no_crossing and not report.gated and report.location is None
        assert report.max_amplitude == 0.0
        assert_matches_scan(report, scan_crossing(events, Pulse(1.0), 2.05))
        assert find_zero_crossing(events, Pulse(1.0), 2.05, gate=1e-9).gated

    @pytest.mark.parametrize("center", [-1.5, 3.2])
    def test_crossing_outside_the_search_window_is_no_crossing(self, scans, center):
        rng = np.random.default_rng(67)
        events = EventArray.build(1.0 + rng.normal(0.0, 0.01, 400), np.full(400, 0.01))
        report = find_zero_crossing(events, Pulse(1.0), center)
        assert scans == []
        assert report.no_crossing and report.location is None
        assert_matches_scan(report, scan_crossing(events, Pulse(1.0), center),
                            peak_in_window=False)

    @pytest.mark.parametrize("share", [0.0, 0.5, 0.999, 2.0])
    def test_gate_relative_to_the_amplitude_agrees_with_the_scan(self, share):
        rng = np.random.default_rng(71)
        pulse = Pulse(1.0)
        events = EventArray.build(rng.normal(0.0, 0.03, 800), rng.uniform(0.0, 1.0, 800) / 800)
        amplitude = find_zero_crossing(events, pulse, 0.0).max_amplitude
        report = find_zero_crossing(events, pulse, 0.0, gate=share * amplitude)
        assert report.gated == (share > 1.0)
        assert_matches_scan(report, scan_crossing(events, pulse, 0.0, gate=share * amplitude))

    @pytest.mark.parametrize("fires, found", [
        ([8.4, 8.45, 8.5], True),            # crossing near +tau, inside the window
        ([8.45, 8.5, 8.58], False),          # just past +tau: atan2 alone wraps it to -tau
        ([6.52, 6.55, 6.6], True),           # near -tau, inside
        ([6.44, 6.48, 6.52], False),         # just before -tau
    ])
    def test_crossings_at_the_window_edge_are_taken_among_the_arrivals(self, fires, found):
        events = EventArray.build(np.array(fires))
        report = find_zero_crossing(events, Pulse(1.0), 7.5)
        assert report.ok == found
        if found:
            assert min(fires) <= report.location <= max(fires)
        assert_matches_scan(report, scan_crossing(events, Pulse(1.0), 7.5))

    def test_nan_arrivals_take_the_fallback(self, scans):
        events = EventArray.build([0.0, np.nan, 0.01])
        find_zero_crossing(events, Pulse(1.0), 0.0)
        assert scans == [3]


class TestLimitWaveform:
    def spec(self, population=None, sigma_bar2=0.01):
        return LimitSpec(
            pulse=Pulse(1.0),
            tau0=2.0,
            sigma_bar2=sigma_bar2,
            population=population or SkewPopulation(alpha_low=0.9, alpha_up=1.1),
        )

    def test_zero_at_target_and_odd_about_it(self):
        spec = self.spec()
        assert abs(limit_waveform(spec, 2.0)) < 1e-8
        offsets = np.linspace(0.05, 0.95, 7)
        left = limit_waveform(spec, 2.0 - offsets)
        right = limit_waveform(spec, 2.0 + offsets)
        assert np.max(np.abs(left + right)) < 1e-8

    def test_correct_polarity_each_side(self):
        spec = self.spec()
        assert limit_waveform(spec, 1.7) > 0.0
        assert limit_waveform(spec, 2.3) < 0.0

    def test_point_mass_population_matches_gaussian_closed_form(self):
        # With one skew value the limit is the half-sine convolved with one
        # Gaussian. Far from the support edges the truncation is negligible
        # and E[-sin(pi (x - sd Z))] = -sin(pi x) exp(-(pi sd)^2 / 2).
        spec = self.spec(population=SkewPopulation(1.0, 1.0))
        sd = np.sqrt(spec.sigma_bar2)
        damping = np.exp(-0.5 * (np.pi * sd) ** 2)
        for x in (-0.4, -0.1, 0.0, 0.2, 0.4):
            closed = -np.sin(np.pi * x) * damping
            assert limit_waveform(spec, spec.tau0 + x) == pytest.approx(closed, abs=1e-8)

    def test_monte_carlo_aggregate_converges_to_limit(self):
        spec = self.spec()
        rng = np.random.default_rng(53)
        n = 100_000
        alphas = rng.uniform(0.9, 1.1, size=n)
        fires = spec.tau0 + rng.normal(0.0, np.sqrt(spec.sigma_bar2) / alphas)
        ev = EventArray.build(fires, np.full(n, 1.0 / n))
        grid = spec.tau0 + np.linspace(-0.9, 0.9, 50)
        eta = limit_waveform(spec, grid)
        for t, target in zip(grid, eta):
            parts = contributions(ev, spec.pulse, t) * n
            se = parts.std() / np.sqrt(n)
            assert abs(parts.mean() - target) < 3.0 * se, t

    def test_smoothness_on_refining_grids(self):
        spec = self.spec(population=SkewPopulation(1.0, 1.0))
        slope_bound = np.pi / spec.pulse.tau_nz  # sup |d eta / dt|
        for points in (41, 81):
            grid = spec.tau0 + np.linspace(-1.0, 1.0, points)
            values = limit_waveform(spec, grid)
            max_jump = np.max(np.abs(np.diff(values)))
            assert max_jump <= slope_bound * (grid[1] - grid[0]) * 1.1

    def test_unreachable_tolerance_raises_numerics_error(self):
        with pytest.raises(NumericsError):
            limit_waveform(self.spec(), 1.8, tol=1e-16)


def test_simulator_imports_leave_scipy_unloaded():
    # Only limit_waveform needs scipy; it imports it on first use.
    src = str(Path(chronomesh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "import chronomesh, chronomesh.cli, chronomesh.engine\n"
            "assert chronomesh.__file__.startswith(sys.argv[1]), chronomesh.__file__\n"
            "print('scipy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, src], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
