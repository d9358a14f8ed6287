"""Quadrature oracle: the infinite-density limit of the aggregate waveform.

In the dense limit the aggregate is the pulse smoothed by the transmit-error
law and averaged over the skew population, a deterministic waveform odd about
the target instant. ``limit_waveform`` evaluates it by adaptive quadrature,
so that the waveform tests and acceptance criterion 2 can check Monte-Carlo
aggregates against it. ``pulse_value`` reads the pulse itself, for the direct
sums the waveform tests compare the evaluator with. It is the only code that needs scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from chronomesh.clock import SkewPopulation
from chronomesh.errors import DomainError
from chronomesh.waveform import Pulse


def pulse_value(pulse: Pulse, t) -> np.ndarray | float:
    """Pulse value p(t), the direct reading of the half-sine the waveform sums."""
    t_arr = np.asarray(t, dtype=float)
    out = np.where(np.abs(t_arr) < pulse.tau_nz, -np.sin(np.pi * t_arr / pulse.tau_nz), 0.0)
    return float(out) if out.ndim == 0 else out


class QuadratureError(RuntimeError):
    """The quadrature's error estimate exceeded its accuracy target."""


@dataclass(frozen=True)
class LimitSpec:
    """Parameters of the infinite-density limit waveform.

    sigma_bar2 is the variance of the transmit error expressed in the node
    timescale; a node with skew s therefore fires with error variance
    sigma_bar2 / s^2 in reference time. mean_gain is the expected received
    gain, a pure amplitude factor.
    """

    pulse: Pulse
    tau0: float
    sigma_bar2: float
    population: SkewPopulation
    mean_gain: float = 1.0


def _smoothed_pulse(pulse: Pulse, x: float, sd: float, tol: float) -> tuple[float, float]:
    # E p(x - T) for T ~ N(0, sd^2): convolution against the Gaussian kernel.
    if sd <= 0.0:
        return float(pulse_value(pulse, x)), 0.0
    norm = 1.0 / (sd * np.sqrt(2.0 * np.pi))

    def integrand(u: float) -> float:
        z = (x - u) / sd
        return pulse_value(pulse, u) * norm * np.exp(-0.5 * z * z)

    value, err = quad(integrand, -pulse.tau_nz, pulse.tau_nz,
                      points=[0.0], limit=200, epsabs=tol, epsrel=1e-10)
    return value, err


def limit_waveform(spec: LimitSpec, t, tol: float = 1e-9) -> np.ndarray | float:
    """Limit waveform value(s) at t, exact to roughly 10 * tol.

    Raises QuadratureError, naming the offending t and error estimate, when the
    quadrature error estimates exceed the target.
    """
    if spec.sigma_bar2 < 0.0:
        raise DomainError("sigma_bar2 must be non-negative")

    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    pop = spec.population
    sigma_bar = float(np.sqrt(spec.sigma_bar2))

    out = np.empty(t_arr.size)
    for idx, ti in enumerate(t_arr):
        x = float(ti - spec.tau0)
        if pop.alpha_low == pop.alpha_up:
            value, err = _smoothed_pulse(spec.pulse, x, sigma_bar / pop.alpha_low, tol / 10.0)
        else:
            width = pop.alpha_up - pop.alpha_low

            def skew_weighted(s: float) -> float:
                inner, _ = _smoothed_pulse(spec.pulse, x, sigma_bar / s, tol / 100.0)
                return 1.0 / width * inner

            value, err = quad(skew_weighted, pop.alpha_low, pop.alpha_up,
                              limit=100, epsabs=tol, epsrel=1e-9)
        if err > 10.0 * tol:
            raise QuadratureError(f"limit waveform quadrature did not converge at t = {ti}: "
                                  f"error estimate {err}")
        out[idx] = spec.mean_gain * value
    return float(out[0]) if scalar else out
