"""Channel-law tests: CDF closed forms, sampler consistency, coupling."""

from __future__ import annotations

import numpy as np
import pytest

from chronomesh.channel import (
    DelayDistribution,
    PathlossDistribution,
    linear_model,
    sample_fix,
    unit_gain_model,
)
from chronomesh.errors import ConfigurationError, DomainError
from chronomesh.geometry import NodePosition, Region

CENTER = NodePosition(0.5, 0.5)


def center_model(max_range=0.25, wave_speed=1.0, range_pad=None):
    return linear_model(Region(1.0, 1.0), max_range, wave_speed, range_pad)


def empirical_cdf(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.sort(samples), grid, side="right") / samples.size


class TestPathlossCdf:
    def test_closed_form_center_receiver(self):
        # Coverage disks around the centre stay inside the unit square, so
        # F(k) = 1 - pi (R (1-k))^2 for the linear gain map.
        law = PathlossDistribution(center_model(), CENTER)
        assert law.cdf(0.0) == pytest.approx(1 - np.pi / 16, abs=1e-10)
        assert law.cdf(0.5) == pytest.approx(1 - np.pi / 64, abs=1e-10)
        assert law.cdf(1.0) == 1.0
        assert law.cdf(-0.3) == 0.0
        assert law.cdf(1.7) == 1.0

    def test_unit_gain_is_point_mass_at_one(self):
        law = PathlossDistribution(unit_gain_model(Region(1.0, 1.0)), CENTER)
        assert law.cdf(0.999999) == pytest.approx(0.0, abs=1e-9)
        assert law.cdf(1.0) == 1.0
        gains = law.sample(np.random.default_rng(3), size=1000)
        assert np.all(gains == 1.0)

    def test_cdf_monotone_and_bounded(self):
        model = center_model()
        dist = PathlossDistribution(model, NodePosition(0.1, 0.3))
        grid = np.linspace(-0.2, 1.2, 701)
        values = dist.cdf(grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_outage_atom_frequency(self):
        model = center_model()
        dist = PathlossDistribution(model, CENTER)
        gains = dist.sample(np.random.default_rng(11), size=1_000_000)
        assert abs(np.mean(gains == 0.0) - dist.outage_probability) < 0.005

    def test_sampler_matches_cdf_ks(self):
        model = center_model()
        for rx, seed in ((CENTER, 5), (NodePosition(0.1, 0.3), 6)):
            dist = PathlossDistribution(model, rx)
            gains = dist.sample(np.random.default_rng(seed), size=1_000_000)
            grid = np.linspace(0.0, 1.0, 2001)
            ks = np.max(np.abs(empirical_cdf(gains, grid) - dist.cdf(grid)))
            assert ks < 0.005, (rx, ks)

    def test_sample_mean_against_analytic_integral(self):
        # E K = (1/A_T) int_0^R (1 - r/R) 2 pi r dr for an interior receiver.
        law = PathlossDistribution(center_model(), CENTER)
        gains = law.sample(np.random.default_rng(17), size=1_000_000)
        exact = 2 * np.pi * (0.25**2 / 2 - 0.25**2 / 3)
        assert gains.mean() == pytest.approx(exact, abs=7e-4)


class TestDelayCdf:
    def test_closed_form_body_and_ramp(self):
        law = DelayDistribution(center_model(max_range=0.25, wave_speed=1.0, range_pad=0.025),
                                CENTER)
        contact = np.pi / 16
        assert law.cdf(-1e-9) == 0.0
        assert law.cdf(0.1) == pytest.approx(np.pi * 0.01, abs=1e-10)
        assert law.cdf(0.25) == pytest.approx(contact, abs=1e-10)
        assert law.cdf(0.2625) == pytest.approx(contact + (1 - contact) / 2, abs=1e-10)
        assert law.cdf(0.275) == pytest.approx(1.0, abs=1e-10)
        assert law.cdf(0.4) == 1.0

    def test_wave_speed_rescales_body(self):
        law = DelayDistribution(center_model(max_range=0.25, wave_speed=2.0), CENTER)
        assert law.cdf(0.05) == pytest.approx(np.pi * 0.01, abs=1e-10)

    def test_cdf_monotone_continuous(self):
        model = center_model()
        dist = DelayDistribution(model, NodePosition(0.2, 0.85))
        grid = np.linspace(-0.05, dist.ramp_end + 0.05, 4001)
        values = dist.cdf(grid)
        assert np.all(np.diff(values) >= -1e-12)
        # No jumps: increments bounded by density sup times the step.
        step = grid[1] - grid[0]
        density_bound = max(2 * np.pi * dist.ramp_start, dist.slope) / 1.0 + 1.0
        assert np.max(np.diff(values)) < density_bound * step * 3

    def test_sampler_matches_cdf_ks(self):
        model = center_model()
        dist = DelayDistribution(model, CENTER)
        delays = dist.sample(np.random.default_rng(23), size=1_000_000)
        grid = np.linspace(0.0, dist.ramp_end, 2001)
        ks = np.max(np.abs(empirical_cdf(delays, grid) - dist.cdf(grid)))
        assert ks < 0.005, ks


class TestCoupling:
    def test_pair_gain_equals_composed_map_exactly(self):
        model = center_model()
        delays, gains = DelayDistribution(model, CENTER).sample_pair(
            np.random.default_rng(31), size=10_000)
        recomputed = model.gain(model.invert_delay(delays))
        assert np.array_equal(gains, recomputed)

    def test_ramp_delays_imply_zero_gain(self):
        model = center_model()
        dist = DelayDistribution(model, CENTER)
        delays, gains = dist.sample_pair(np.random.default_rng(37), size=200_000)
        in_ramp = delays > dist.ramp_start
        assert np.any(in_ramp)
        assert np.all(gains[in_ramp] == 0.0)

    def test_bisected_delay_inverse_agrees_with_closed_form(self):
        region = Region(1.0, 1.0)
        closed = center_model()
        opaque = linear_model(region, 0.25)
        object.__setattr__(opaque, "delay_inverse", None)
        xs = np.linspace(0.0, 0.4, 57)
        assert np.allclose(opaque.invert_delay(xs), closed.invert_delay(xs), atol=1e-11)


class TestFixCompensation:
    def test_fix_samples_negative_with_consistent_gain(self):
        model = center_model()
        fix = sample_fix(model, CENTER, np.random.default_rng(41), size=50_000)
        assert np.all(fix.d_fix <= 0.0)
        assert np.array_equal(fix.k_fix, model.gain(model.invert_delay(-fix.d_fix)))

    def test_fix_plus_delay_is_symmetric_about_zero(self):
        # The compensation offset is a reflected interior delay, so the sum
        # with an independent interior delay must be symmetric about zero.
        model = center_model()
        rng = np.random.default_rng(43)
        n = 1_000_000
        fix = sample_fix(model, CENTER, rng, size=n)
        delays = DelayDistribution(model, CENTER).sample(rng, size=n)
        total = fix.d_fix + delays
        hi = np.max(np.abs(total))
        grid = np.linspace(-hi, hi, 2001)
        g = empirical_cdf(total, grid)
        g_reflected = empirical_cdf(total, -grid)
        residual = np.max(np.abs(g + g_reflected - 1.0))
        assert residual < 0.01, residual
        assert abs(total.mean()) < 4.0 * total.std() / np.sqrt(n)

    def test_interior_guard(self):
        model = center_model()
        with pytest.raises(DomainError):
            sample_fix(model, NodePosition(0.1, 0.5), np.random.default_rng(1), 1)
        with pytest.raises(DomainError):
            sample_fix(unit_gain_model(Region(1.0, 1.0)), CENTER, np.random.default_rng(1), 1)


class TestModelValidation:
    def test_bad_parameters_rejected(self):
        region = Region(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            linear_model(region, -0.5)
        with pytest.raises(ConfigurationError):
            linear_model(region, 0.25, wave_speed=0.0)
        with pytest.raises(ConfigurationError):
            linear_model(region, 0.25, range_pad=-0.1)

    def test_receiver_outside_region_rejected(self):
        with pytest.raises(DomainError):
            PathlossDistribution(center_model(), NodePosition(1.5, 0.5)).cdf(0.5)
