"""Estimator tests: exact fits, closed-form variances, sampling laws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chronomesh.errors import DomainError
from chronomesh.estimator import (
    EVEN_ODD,
    STANDARD,
    DesignVariant,
    alpha_variance,
    epsilon_variant,
    fit,
    predicted_variance,
    shift_to_epsilon_frame,
)

ALL_VARIANTS = [STANDARD, EVEN_ODD, epsilon_variant(0.3),
                epsilon_variant(-0.5), epsilon_variant(1.0)]


def matrix_variance(variant: DesignVariant, m: int, row: np.ndarray) -> float:
    """Independent oracle: row (H^T H)^-1 row^T from the explicit design matrix."""
    H = np.column_stack([np.ones(m), variant.regressors(m)])
    return float(row @ np.linalg.inv(H.T @ H) @ row)


def textbook_fit(values: np.ndarray, variant: DesignVariant):
    """Reference oracle: the normal-equation expressions, one array per term."""
    m = values.shape[-1]
    x = variant.regressors(m)
    sum_x = x.sum()
    sum_xx = (x * x).sum()
    det = m * sum_xx - sum_x * sum_x
    sum_y = values.sum(axis=-1)
    sum_xy = values @ x
    slope = (m * sum_xy - sum_x * sum_y) / det
    intercept = (sum_xx * sum_y - sum_x * sum_xy) / det
    return intercept + variant.target_step(m) * slope, slope


class TestExactFits:
    @given(
        a=st.floats(-50.0, 50.0),
        b=st.floats(-5.0, 5.0),
        m=st.integers(2, 12),
        idx=st.integers(0, len(ALL_VARIANTS) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_noiseless_window_predicts_exactly(self, a, b, m, idx):
        variant = ALL_VARIANTS[idx]
        values = a + b * variant.regressors(m)
        report = fit(values, variant)
        assert report.phi_hat == pytest.approx(a + b * variant.target_step(m), abs=1e-9)
        assert report.alpha_hat == pytest.approx(b, abs=1e-10)

    def test_batched_fit_matches_scalar_fits(self):
        rng = np.random.default_rng(5)
        windows = rng.normal(size=(40, 4))
        batch = fit(windows, STANDARD)
        singles = [fit(w, STANDARD).phi_hat for w in windows]
        assert np.allclose(batch.phi_hat, singles, atol=1e-12)

    @pytest.mark.parametrize("variant", [STANDARD, EVEN_ODD, epsilon_variant(0.37)],
                             ids=["standard", "even_odd", "epsilon"])
    @pytest.mark.parametrize("shape", [(3,), (6,), (1000, 3), (20, 5)])
    def test_fit_matches_textbook_bitwise(self, variant, shape):
        rng = np.random.default_rng(sum(shape))
        windows = 7.0 + np.arange(shape[-1]) * 1.01 + rng.normal(0.0, 0.01, size=shape)
        before = windows.copy()
        report = fit(windows, variant)
        phi, slope = textbook_fit(windows, variant)
        assert np.array_equal(report.phi_hat, phi)
        assert np.array_equal(report.alpha_hat, slope)
        assert np.array_equal(windows, before)
        if windows.ndim == 1:
            assert type(report.phi_hat) is float and type(report.alpha_hat) is float

    def test_epsilon_zero_reduces_to_standard(self):
        rng = np.random.default_rng(7)
        windows = rng.normal(size=(100, 5))
        assert np.array_equal(fit(windows, epsilon_variant(0.0)).phi_hat,
                              fit(windows, STANDARD).phi_hat)

    def test_short_window_rejected(self):
        with pytest.raises(DomainError):
            fit(np.array([1.0]), STANDARD)
        with pytest.raises(DomainError):
            predicted_variance(STANDARD, 1)

    def test_variant_validation(self):
        with pytest.raises(DomainError):
            DesignVariant("weird")
        with pytest.raises(DomainError):
            DesignVariant("standard", offset=0.5)


class TestClosedFormVariances:
    def test_reference_values(self):
        assert predicted_variance(STANDARD, 3, 1.0) == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert predicted_variance(EVEN_ODD, 3, 1.0) == pytest.approx(35.0 / 24.0, rel=1e-15)
        assert alpha_variance(3, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert alpha_variance(2, 1.0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("variant", ALL_VARIANTS,
                             ids=lambda v: f"{v.kind}{v.offset:+.1f}")
    def test_matches_matrix_oracle_across_window_lengths(self, variant):
        for m in range(2, 51):
            target = np.array([1.0, variant.target_step(m)])
            oracle = matrix_variance(variant, m, target)
            assert predicted_variance(variant, m) == pytest.approx(oracle, rel=1e-12)
            if variant.kind != "even_odd":
                slope_oracle = matrix_variance(variant, m, np.array([0.0, 1.0]))
                assert alpha_variance(m) == pytest.approx(slope_oracle, rel=1e-12)

    def test_prediction_variance_decreases_with_window_length(self):
        values = [predicted_variance(STANDARD, m) for m in range(2, 61)]
        assert np.all(np.diff(values) < 0.0)

    def test_offset_does_not_change_slope_variance(self):
        # An offset shifts every regressor alike, so each window's slope,
        # and with it the slope variance, is the standard design's.
        rng = np.random.default_rng(11)
        for m in (2, 3, 10):
            windows = rng.normal(size=(50, m))
            base = fit(windows, STANDARD).alpha_hat
            for eps in (-0.5, 0.3, 2.0):
                assert np.allclose(fit(windows, epsilon_variant(eps)).alpha_hat, base,
                                   rtol=0.0, atol=1e-9)


class TestSamplingLaws:
    def mc_phi(self, variant: DesignVariant, m: int, trials: int, seed: int,
               sigma2: float = 1.0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, np.sqrt(sigma2), size=(trials, m))
        truth = 2.0 + 0.5 * variant.regressors(m)
        report = fit(truth + noise, variant)
        return np.asarray(report.phi_hat) - (2.0 + 0.5 * variant.target_step(m))

    @pytest.mark.parametrize("variant", [STANDARD, EVEN_ODD, epsilon_variant(0.3),
                                         epsilon_variant(-0.5)],
                             ids=lambda v: f"{v.kind}{v.offset:+.1f}")
    def test_prediction_variance_monte_carlo(self, variant):
        m, trials = 3, 100_000
        errors = self.mc_phi(variant, m, trials, seed=211)
        predicted = predicted_variance(variant, m)
        assert errors.var() == pytest.approx(predicted, rel=0.03)
        assert abs(errors.mean()) < 3.0 * np.sqrt(predicted / trials)

    def test_skew_estimate_law(self):
        m, trials, sigma2, alpha = 3, 100_000, 1.0, 1.01
        rng = np.random.default_rng(223)
        truth = 4.0 + alpha * np.arange(m)
        report = fit(truth + rng.normal(0.0, 1.0, size=(trials, m)), STANDARD)
        target_var = alpha_variance(m, sigma2)
        slopes = np.asarray(report.alpha_hat)
        assert slopes.var() == pytest.approx(target_var, rel=0.03)
        ks = stats.kstest(slopes, "norm", args=(alpha, np.sqrt(target_var)))
        assert ks.pvalue > 0.01


class TestEpsilonFrameShift:
    def test_shift_recovers_interior_form(self):
        # An edge node reading crossings at integers + 0.2 converts its
        # window and then predicts as if the offset had been 0.45 all along.
        m, alpha, own, target = 4, 1.03, 0.2, 0.45
        base = 7.0
        readings = alpha * (base + np.arange(m) + own)
        shifted = shift_to_epsilon_frame(readings, alpha, own, target)
        expected = alpha * (base + np.arange(m) + target)
        assert np.allclose(shifted, expected, atol=1e-12)
        report = fit(shifted, epsilon_variant(target))
        # The design predicts the reading at the next integer instant (the
        # fire time), with the offset absorbed into the regressors.
        assert report.phi_hat == pytest.approx(alpha * (base + m), abs=1e-9)
        assert report.alpha_hat == pytest.approx(alpha, abs=1e-10)

    def test_batched_shift(self):
        values = np.zeros((5, 3))
        alphas = np.linspace(0.9, 1.1, 5)
        out = shift_to_epsilon_frame(values, alphas, 0.0, 1.0)
        assert np.allclose(out, alphas[:, None], atol=1e-15)
