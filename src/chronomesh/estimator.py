"""Arrival-time prediction from sliding windows of clock readings.

One design, one prediction step. A node records its clock at m successive
crossings it listens to. In the node's timescale those readings are an affine
function of the window step k = 0..m-1 plus white jitter, so the natural model
is a two-column regression: an intercept (the reading at the window's first
step) and a slope (the reading's growth per window step). The node fires at
the line's prediction at ``target``, given in window steps.

The regimes differ only in that number:

- no_delay: readings one instant apart, the next instant is step m.
- even_odd: readings every second instant (the node listens on the opposite
  parity and transmits on its own), so its next own instant is step m - 1/2.
- delay: readings taken at integers plus the assumed offset epsilon, so the
  next integer instant is step m - epsilon.

``alpha_hat`` is the slope per window step: the clock skew where windows are
one instant apart, 2 alpha for even_odd windows. Only the delay regime reads
it. Fits use the explicit 2x2 normal equations; the closed-form variances
below are exact for white noise and are checked against direct matrix
evaluation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class EstimateReport:
    """Fit outcome: the firing prediction and the slope behind it."""

    phi_hat: np.ndarray | float        # predicted reading at the target step
    alpha_hat: np.ndarray | float      # estimated slope per window step


def _check_window_length(m: int):
    if m < 2:
        raise DomainError(f"window length must be at least 2, got {m}")


def fit(window: np.ndarray, target: float) -> EstimateReport:
    """Least-squares line through the window(s), predicted at step ``target``.

    The window axis is the last; leading axes are independent windows.
    After the two sums every step runs in place, in the textbook order, so at
    most four window-count buffers are live and no intercept array is kept.
    """
    values = np.asarray(window, dtype=float)
    m = values.shape[-1]
    _check_window_length(m)
    x = np.arange(m, dtype=float)
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
    phi += np.multiply(target, slope, out=term)
    if values.ndim == 1:
        return EstimateReport(phi_hat=float(phi[0]), alpha_hat=float(slope[0]))
    return EstimateReport(phi_hat=phi, alpha_hat=slope)


def predicted_variance(m: int, target: float, sigma2: float = 1.0) -> float:
    """Exact variance of phi_hat at step ``target`` for white noise of variance sigma2."""
    _check_window_length(m)
    lever = target - (m - 1.0) / 2.0     # distance from the window's centre
    return sigma2 * ((m - 1.0) * (m + 1.0) + 12.0 * lever * lever) / (
        (m - 1.0) * m * (m + 1.0))


def alpha_variance(m: int, sigma2: float = 1.0) -> float:
    """Exact variance of the slope estimate per window step, whatever the target."""
    _check_window_length(m)
    return sigma2 * 12.0 / ((m - 1.0) * m * (m + 1.0))
