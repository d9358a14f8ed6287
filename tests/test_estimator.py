"""Estimator tests: exact fits, closed-form variances, sampling laws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chronomesh.errors import DomainError
from chronomesh.estimator import _FIT_BLOCK, fit, predicted_variance


@dataclass(frozen=True)
class Design:
    """Oracle: one of the paper's sampling designs on its original axes.

    Its (regressors, target) pair is (k, m) for standard, (2k, 2m - 1) for
    even_odd and (k + offset, m) for epsilon. ``step`` is the window step the
    one-number fit is given for the same prediction.
    """

    kind: str
    offset: float = 0.0

    def regressors(self, m: int) -> np.ndarray:
        steps = np.arange(m, dtype=float)
        return 2.0 * steps if self.kind == "even_odd" else steps + self.offset

    def target_step(self, m: int) -> float:
        return 2.0 * m - 1.0 if self.kind == "even_odd" else float(m)

    def step(self, m: int) -> float:
        return m - 0.5 if self.kind == "even_odd" else m - self.offset

    @property
    def spacing(self) -> float:
        """Original regressor units per window step."""
        return 2.0 if self.kind == "even_odd" else 1.0


STANDARD, EVEN_ODD = Design("standard"), Design("even_odd")


def epsilon_design(offset: float) -> Design:
    return Design("epsilon", offset)


ALL_DESIGNS = [STANDARD, EVEN_ODD, epsilon_design(0.3),
               epsilon_design(-0.5), epsilon_design(1.0)]


def alpha_variance(m: int, sigma2: float = 1.0) -> float:
    """Oracle: exact variance of the slope estimate per window step, whatever the target."""
    return sigma2 * 12.0 / ((m - 1.0) * m * (m + 1.0))


def matrix_variance(design: Design, m: int, row: np.ndarray) -> float:
    """Independent oracle: row (H^T H)^-1 row^T from the explicit design matrix."""
    H = np.column_stack([np.ones(m), design.regressors(m)])
    return float(row @ np.linalg.inv(H.T @ H) @ row)


def textbook_fit(values: np.ndarray, design: Design):
    """Reference oracle: the normal-equation expressions, one array per term."""
    m = values.shape[-1]
    x = design.regressors(m)
    sum_x = x.sum()
    sum_xx = (x * x).sum()
    det = m * sum_xx - sum_x * sum_x
    sum_y = values.sum(axis=-1)
    sum_xy = values @ x
    slope = (m * sum_xy - sum_x * sum_y) / det
    intercept = (sum_xx * sum_y - sum_x * sum_xy) / det
    return intercept + design.target_step(m) * slope, slope


class TestExactFits:
    @given(
        a=st.floats(-50.0, 50.0),
        b=st.floats(-5.0, 5.0),
        m=st.integers(2, 12),
        idx=st.integers(0, len(ALL_DESIGNS) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_noiseless_window_predicts_exactly(self, a, b, m, idx):
        design = ALL_DESIGNS[idx]
        values = a + b * design.regressors(m)
        report = fit(values, design.step(m))
        assert report.phi_hat == pytest.approx(a + b * design.target_step(m), abs=1e-9)
        assert report.alpha_hat == pytest.approx(b * design.spacing, abs=1e-10)

    def test_batched_fit_matches_scalar_fits(self):
        rng = np.random.default_rng(5)
        windows = rng.normal(size=(40, 4))
        batch = fit(windows, 4)
        singles = [fit(w, 4).phi_hat for w in windows]
        assert np.allclose(batch.phi_hat, singles, atol=1e-12)

    @pytest.mark.parametrize("design", [STANDARD, EVEN_ODD, epsilon_design(0.37)],
                             ids=["standard", "even_odd", "epsilon"])
    @pytest.mark.parametrize("shape", [(3,), (6,), (1000, 3), (20, 5),
                                       (2 * _FIT_BLOCK + 77, 3), (4, 5, 3)])
    def test_fit_matches_textbook_bitwise(self, design, shape):
        # Bitwise for the unit and doubled designs: doubling every regressor
        # scales each sum by an exact power of two. An offset design differs
        # from the one-number fit only by rounding. The textbook runs on whole
        # arrays, so more than two row blocks with a ragged last one check
        # that fit's blocking moves no bit.
        rng = np.random.default_rng(sum(shape))
        windows = 7.0 + np.arange(shape[-1]) * 1.01 + rng.normal(0.0, 0.01, size=shape)
        before = windows.copy()
        report = fit(windows, design.step(shape[-1]))
        phi, slope = textbook_fit(windows, design)
        if design.kind == "epsilon":
            assert np.allclose(report.phi_hat, phi, rtol=0.0, atol=1e-12)
            assert np.allclose(report.alpha_hat, slope, rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(report.phi_hat, phi)
            assert np.array_equal(report.alpha_hat, design.spacing * slope)
        assert np.array_equal(windows, before)
        if windows.ndim == 1:
            assert type(report.phi_hat) is float and type(report.alpha_hat) is float

    def test_epsilon_zero_reduces_to_standard(self):
        rng = np.random.default_rng(7)
        windows = rng.normal(size=(100, 5))
        assert np.array_equal(fit(windows, epsilon_design(0.0).step(5)).phi_hat,
                              textbook_fit(windows, STANDARD)[0])

    def test_short_window_rejected(self):
        with pytest.raises(DomainError):
            fit(np.array([1.0]), 1.0)
        with pytest.raises(DomainError):
            predicted_variance(1, 1.0)


class TestClosedFormVariances:
    def test_reference_values(self):
        assert predicted_variance(3, 3.0, 1.0) == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert predicted_variance(3, 2.5, 1.0) == pytest.approx(35.0 / 24.0, rel=1e-15)
        assert alpha_variance(3, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert alpha_variance(2, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_unit_variance_matches_the_design_closed_forms_bitwise(self):
        # fire_variance, and through it the default tau_nz, is computed at
        # sigma2 = 1 from these; the general formula must not move their bits.
        for m in range(2, 200):
            assert predicted_variance(m, float(m)) == 2.0 * (2.0 * m + 1.0) / (m * (m - 1.0))
            assert predicted_variance(m, m - 0.5) == (2.0 * m + 1.0) * (2.0 * m - 1.0) / (
                m * (m - 1.0) * (m + 1.0))

    @pytest.mark.parametrize("design", ALL_DESIGNS,
                             ids=lambda d: f"{d.kind}{d.offset:+.1f}")
    def test_matches_matrix_oracle_across_window_lengths(self, design):
        for m in range(2, 51):
            target = np.array([1.0, design.target_step(m)])
            oracle = matrix_variance(design, m, target)
            assert predicted_variance(m, design.step(m)) == pytest.approx(oracle, rel=1e-12)
            if design.kind != "even_odd":
                slope_oracle = matrix_variance(design, m, np.array([0.0, 1.0]))
                assert alpha_variance(m) == pytest.approx(slope_oracle, rel=1e-12)

    def test_prediction_variance_decreases_with_window_length(self):
        values = [predicted_variance(m, float(m)) for m in range(2, 61)]
        assert np.all(np.diff(values) < 0.0)

    def test_offset_does_not_change_slope_variance(self):
        # An offset shifts every regressor alike, so each window's slope,
        # and with it the slope variance, is the standard design's.
        rng = np.random.default_rng(11)
        for m in (2, 3, 10):
            windows = rng.normal(size=(50, m))
            base = fit(windows, m).alpha_hat
            for eps in (-0.5, 0.3, 2.0):
                assert np.allclose(textbook_fit(windows, epsilon_design(eps))[1], base,
                                   rtol=0.0, atol=1e-9)


class TestSamplingLaws:
    def mc_phi(self, design: Design, m: int, trials: int, seed: int,
               sigma2: float = 1.0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, np.sqrt(sigma2), size=(trials, m))
        truth = 2.0 + 0.5 * design.regressors(m)
        report = fit(truth + noise, design.step(m))
        return np.asarray(report.phi_hat) - (2.0 + 0.5 * design.target_step(m))

    @pytest.mark.parametrize("design", [STANDARD, EVEN_ODD, epsilon_design(0.3),
                                        epsilon_design(-0.5)],
                             ids=lambda d: f"{d.kind}{d.offset:+.1f}")
    def test_prediction_variance_monte_carlo(self, design):
        m, trials = 3, 100_000
        errors = self.mc_phi(design, m, trials, seed=211)
        predicted = predicted_variance(m, design.step(m))
        assert errors.var() == pytest.approx(predicted, rel=0.03)
        assert abs(errors.mean()) < 3.0 * np.sqrt(predicted / trials)

    def test_skew_estimate_law(self):
        m, trials, sigma2, alpha = 3, 100_000, 1.0, 1.01
        rng = np.random.default_rng(223)
        truth = 4.0 + alpha * np.arange(m)
        report = fit(truth + rng.normal(0.0, 1.0, size=(trials, m)), m)
        target_var = alpha_variance(m, sigma2)
        slopes = np.asarray(report.alpha_hat)
        assert slopes.var() == pytest.approx(target_var, rel=0.03)
        ks = stats.kstest(slopes, "norm", args=(alpha, np.sqrt(target_var)))
        assert ks.pvalue > 0.01
