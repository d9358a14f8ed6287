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
it. Fits use the explicit 2x2 normal equations; the closed-form prediction
variance below is exact for white noise and is checked against direct
matrix evaluation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_FIT_BLOCK = 1 << 14


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

    The window axis is the last; leading axes are independent windows. Rows
    go through the textbook normal equations in blocks of ``_FIT_BLOCK``, so
    only the two outputs are window-count sized; every element sees the same
    operations in the same order as a whole-array evaluation.
    """
    values = np.asarray(window, dtype=float)
    m = values.shape[-1]
    _check_window_length(m)
    if values.ndim == 1:
        phi, slope = _fit_rows(values, target)
        return EstimateReport(phi_hat=float(phi), alpha_hat=float(slope))
    rows = values.reshape(-1, m)
    phi = np.empty(rows.shape[0])
    slope = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _FIT_BLOCK):
        block = slice(start, start + _FIT_BLOCK)
        phi[block], slope[block] = _fit_rows(rows[block], target)
    return EstimateReport(phi_hat=phi.reshape(values.shape[:-1]),
                          alpha_hat=slope.reshape(values.shape[:-1]))


def _fit_rows(values: np.ndarray, target: float):
    m = values.shape[-1]
    x = np.arange(m, dtype=float)
    sum_x = x.sum()
    sum_xx = (x * x).sum()
    det = m * sum_xx - sum_x * sum_x
    sum_y = values.sum(axis=-1)
    sum_xy = values @ x
    slope = (m * sum_xy - sum_x * sum_y) / det
    intercept = (sum_xx * sum_y - sum_x * sum_xy) / det
    return intercept + target * slope, slope


def predicted_variance(m: int, target: float, sigma2: float = 1.0) -> float:
    """Exact variance of phi_hat at step ``target`` for white noise of variance sigma2."""
    _check_window_length(m)
    lever = target - (m - 1.0) / 2.0     # distance from the window's centre
    return sigma2 * ((m - 1.0) * (m + 1.0) + 12.0 * lever * lever) / (
        (m - 1.0) * m * (m + 1.0))

