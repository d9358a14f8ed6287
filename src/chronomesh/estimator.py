"""Arrival-time prediction from sliding windows of clock readings.

A node records its clock at m successive aggregate crossings. In the node's
timescale those readings are an affine function of the crossing index plus
white jitter, so the natural model is a two-column regression: an intercept
(the reading the clock would have shown at the window's first crossing) and
a slope (the clock skew per unit reference time). The node then fires at the
prediction of the next crossing's reading.

Three sampling designs share this machinery and differ only in where the
observations sit relative to the prediction target:

- standard: crossings at consecutive integers, predict one step ahead.
- even_odd: crossings every second integer (the node listens on the
  opposite parity and transmits on its own), predict the next own-parity
  instant, 2m - 1 half-steps from the window start.
- epsilon: crossings at integers plus a common fractional offset, as seen
  deep inside a delay-spread network; predict the next offset instant.

Fits use the explicit 2x2 normal equations; the closed-form variances below
are exact for white noise and are checked against direct matrix evaluation
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError

VariantKind = Literal["standard", "even_odd", "epsilon"]


@dataclass(frozen=True)
class DesignVariant:
    """Observation design: where the window's crossings sit and what to predict."""

    kind: VariantKind
    offset: float = 0.0   # fractional crossing offset; meaningful for kind="epsilon"

    def __post_init__(self):
        if self.kind not in ("standard", "even_odd", "epsilon"):
            raise DomainError(f"unknown design variant {self.kind!r}")
        if self.kind != "epsilon" and self.offset != 0.0:
            raise DomainError("only the epsilon design carries an offset")

    def regressors(self, m: int) -> np.ndarray:
        """Second design column: observation instants relative to the window start."""
        _check_window_length(m)
        steps = np.arange(m, dtype=float)
        if self.kind == "even_odd":
            return 2.0 * steps
        if self.kind == "epsilon":
            return steps + self.offset
        return steps

    def target_step(self, m: int) -> float:
        """Prediction instant in the same relative units (the row C = [1, step])."""
        _check_window_length(m)
        if self.kind == "even_odd":
            return 2.0 * m - 1.0
        return float(m)


STANDARD = DesignVariant("standard")
EVEN_ODD = DesignVariant("even_odd")


def epsilon_variant(offset: float) -> DesignVariant:
    return DesignVariant("epsilon", offset=offset)


@dataclass(frozen=True)
class EstimateReport:
    """Fit outcome: the firing prediction and the skew estimate behind it."""

    phi_hat: np.ndarray | float        # predicted reading at the target crossing
    alpha_hat: np.ndarray | float      # estimated skew (slope per unit reference time)


def _check_window_length(m: int):
    if m < 2:
        raise DomainError(f"window length must be at least 2, got {m}")


def fit(window: np.ndarray, variant: DesignVariant = STANDARD) -> EstimateReport:
    """Least-squares fit of the window(s) and prediction at the variant's target.

    The window axis is the last; leading axes are independent windows.
    After the two sums every step runs in place, in the textbook order, so at
    most four window-count buffers are live and no intercept array is kept.
    """
    values = np.asarray(window, dtype=float)
    m = values.shape[-1]
    x = variant.regressors(m)
    sum_x = x.sum()
    sum_xx = (x * x).sum()
    det = m * sum_xx - sum_x * sum_x
    sum_y = np.atleast_1d(values.sum(axis=-1))
    sum_xy = np.atleast_1d(values @ x)
    slope = np.multiply(m, sum_xy)
    term = np.multiply(sum_x, sum_y)
    slope -= term
    slope /= det
    phi = np.multiply(sum_xx, sum_y, out=sum_y)
    phi -= np.multiply(sum_x, sum_xy, out=term)
    phi /= det                                      # the intercept
    phi += np.multiply(variant.target_step(m), slope, out=term)
    if values.ndim == 1:
        return EstimateReport(phi_hat=float(phi[0]), alpha_hat=float(slope[0]))
    return EstimateReport(phi_hat=phi, alpha_hat=slope)


def predicted_variance(variant: DesignVariant, m: int, sigma2: float = 1.0) -> float:
    """Exact variance of phi_hat for unit-variance white noise times sigma2."""
    _check_window_length(m)
    if variant.kind == "standard":
        return sigma2 * 2.0 * (2.0 * m + 1.0) / (m * (m - 1.0))
    if variant.kind == "even_odd":
        return sigma2 * (2.0 * m + 1.0) * (2.0 * m - 1.0) / (m * (m - 1.0) * (m + 1.0))
    eps = variant.offset
    return sigma2 * (2.0 * (2.0 * m + 1.0) / (m * (m - 1.0))
                     + 12.0 * eps * (eps - 1.0 - m) / ((m - 1.0) * m * (m + 1.0)))


def alpha_variance(m: int, sigma2: float = 1.0) -> float:
    """Exact variance of the skew estimate; identical across unit-step designs.

    The even_odd design divides it by four through its doubled regressor
    spread, but its slope is still reported per reference-time unit, so the
    closed form below applies to the standard and epsilon designs used for
    skew work.
    """
    _check_window_length(m)
    return sigma2 * 12.0 / ((m - 1.0) * m * (m + 1.0))


def shift_to_epsilon_frame(window: np.ndarray, alpha_known,
                           own_offset, target_offset) -> np.ndarray:
    """Re-express readings taken at integers + own_offset as integers + target_offset.

    Nodes near the region edge see the aggregate crossing at their own
    fractional offset; adding alpha (target - own) to every reading converts
    the window into the common interior form so the epsilon design applies.
    alpha must be the node's true skew, which edge nodes are assumed to know.
    """
    values = np.asarray(window, dtype=float)
    shift = np.asarray(alpha_known, dtype=float) * (
        np.asarray(target_offset, dtype=float) - np.asarray(own_offset, dtype=float))
    return values + np.expand_dims(shift, -1) if np.ndim(shift) else values + shift
