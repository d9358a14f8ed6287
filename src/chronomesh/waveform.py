"""Aggregate received waveforms and their zero crossings.

Every transmitter contributes a scaled, shifted copy of one odd pulse, the
half-sine p(t) = -sin(pi t / tau_nz) on the support (-tau_nz, tau_nz) and 0
outside it: positive before the crossing at t = 0, negative after it, with
peak 1. Receivers estimate the common transmit instant as the first
downward zero crossing of the summed waveform.

While every arrival lies inside one pulse support the aggregate is a single
sinusoid, -A sin(pi (t - phi) / tau_nz) with A e^{i pi phi / tau_nz} =
sum_i scale_i e^{i pi arrival_i / tau_nz}, so the crossing is phi, read off
two weighted sums. find_zero_crossing takes that closed form whenever the
scales are non-negative and the arrivals span less than tau_nz / 2, which
holds for the engine's default supports. Otherwise it falls back to a scan
on a coarse grid polished by bisection.

The infinite-density limit of the aggregate is a deterministic waveform:
the pulse smoothed by the transmit-error law and averaged over the skew
population. It is odd about the target instant, which is why the crossing
estimator is consistent; limit_waveform evaluates it by quadrature so the
Monte-Carlo aggregates can be checked against it. That quadrature oracle
(acceptance criterion 3) and the tests are the only users of scipy; the
simulator itself needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import SkewPopulation
from .errors import DomainError, NumericsError

_REFINE_TOL = 1e-12
_ANGLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class Pulse:
    """Half-sine transmit pulse p(t) = -sin(pi t / tau_nz) on (-tau_nz, tau_nz), peak 1."""

    tau_nz: float

    def __post_init__(self):
        if not 0.0 < self.tau_nz < np.inf:
            raise DomainError(f"pulse support must be positive and finite, got {self.tau_nz}")

    def evaluate(self, t) -> np.ndarray | float:
        """Pulse value p(t)."""
        t_arr = np.asarray(t, dtype=float)
        out = np.where(np.abs(t_arr) < self.tau_nz, -np.sin(np.pi * t_arr / self.tau_nz), 0.0)
        return float(out) if out.ndim == 0 else out


def default_tau_nz(sigma_bar: float, alpha_low: float) -> float:
    """Support wide enough that transmit errors stay deep inside the pulse."""
    if not (0.0 <= sigma_bar < np.inf and alpha_low > 0.0):
        raise DomainError("sigma_bar must be finite and >= 0, and alpha_low > 0")
    if sigma_bar == 0.0:
        return 1.0
    return 100.0 * sigma_bar / alpha_low


@dataclass(frozen=True)
class EventArray:
    """Column layout of transmit events for vectorized evaluation.

    delay is None when propagation is instantaneous; arrival is then the
    fire column itself, not a copy.
    """

    fire: np.ndarray
    scale: np.ndarray
    delay: np.ndarray | None = None

    def __post_init__(self):
        if self.fire.shape != self.scale.shape or (
                self.delay is not None and self.delay.shape != self.fire.shape):
            raise DomainError("event columns must share one shape")
        if self.fire.ndim != 1 or self.fire.size == 0:
            raise DomainError("event arrays must be non-empty vectors")

    @staticmethod
    def build(fire, scale=None, delay=None) -> "EventArray":
        fire = np.asarray(fire, dtype=float)
        scale = np.ones(fire.size) if scale is None else np.asarray(scale, dtype=float)
        delay = None if delay is None else np.asarray(delay, dtype=float)
        return EventArray(fire=fire, scale=scale, delay=delay)

    @property
    def arrival(self) -> np.ndarray:
        return self.fire if self.delay is None else self.fire + self.delay

    @property
    def count(self) -> int:
        return self.fire.size


class AggregateEvaluator:
    """Reusable evaluator of one aggregate waveform.

    The sum over in-support events of the half-sine pulse factors through
    the angle-sum identity, so after one sort the waveform at any instant
    costs two binary searches into prefix sums; crossing searches reuse the
    same sorted state.
    """

    def __init__(self, events: EventArray, pulse: Pulse):
        self.events = events
        self.pulse = pulse
        # Event-sized buffers, in order: sort order, sorted arrivals, sine
        # prefix (first holding the sorted scales), then, once the order is
        # dropped, cosine prefix. Phase angles are built a block at a time.
        arrival = events.arrival
        order = np.argsort(arrival, kind="stable")
        self._arrivals = arrival[order]
        del arrival
        # prefix[k] sums the first k sorted events
        self._sin_prefix = np.empty(events.count + 1)
        sin_part = self._sin_prefix[1:]
        # mode="wrap" writes straight into out; the default "raise" buffers it
        np.take(events.scale, order, out=sin_part, mode="wrap")
        del order
        self._cos_prefix = np.empty(events.count + 1)
        cos_part = self._cos_prefix[1:]
        self._cos_prefix[0] = self._sin_prefix[0] = 0.0
        for start in range(0, events.count, _ANGLE_BLOCK):
            block = slice(start, start + _ANGLE_BLOCK)
            angle = np.multiply(np.pi, self._arrivals[block])
            angle /= pulse.tau_nz
            np.cos(angle, out=cos_part[block])
            cos_part[block] *= sin_part[block]
            np.sin(angle, out=angle)
            sin_part[block] *= angle
        np.cumsum(cos_part, out=cos_part)
        np.cumsum(sin_part, out=sin_part)

    def __call__(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        tau = self.pulse.tau_nz
        lo = np.searchsorted(self._arrivals, t_arr - tau, side="right")
        hi = np.searchsorted(self._arrivals, t_arr + tau, side="left")
        cos_sum = self._cos_prefix[hi] - self._cos_prefix[lo]
        sin_sum = self._sin_prefix[hi] - self._sin_prefix[lo]
        angle = np.pi * t_arr / tau
        out = -np.sin(angle) * cos_sum + np.cos(angle) * sin_sum
        return float(out[0]) if scalar else out


def evaluate_aggregate(events: EventArray, pulse: Pulse, t) -> np.ndarray | float:
    """Summed waveform at time(s) t: sum_i scale_i p(t - arrival_i)."""
    return AggregateEvaluator(events, pulse)(t)


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of a zero-crossing search on one aggregate waveform."""

    location: float | None       # refined crossing time; None if not usable
    max_amplitude: float         # closed form: the sinusoid's amplitude A, the
                                 # aggregate's peak; scan: sup of |aggregate|
                                 # over the search grid
    gated: bool                  # amplitude never cleared the detection gate
    no_crossing: bool            # gate cleared but no downward sign change

    @property
    def ok(self) -> bool:
        return self.location is not None


def find_zero_crossing(events: EventArray, pulse: Pulse, search_center: float,
                       gate: float = 0.0) -> CrossingReport:
    """Locate the first downward zero crossing near the search centre.

    Closed form, when the scales are non-negative and the arrivals span less
    than tau_nz / 2: every arrival is then in support on [a_min, a_max],
    where the aggregate is -A sin(pi (t - phi) / tau_nz). Before a_min every
    term is non-negative and after a_max none is positive, so phi, taken
    modulo 2 tau_nz into [a_min, a_max], is the first downward crossing, and
    A, the aggregate's peak, is what the gate sees. A = 0, or a phi farther
    than tau_nz from the search centre, reports no crossing.

    Otherwise it scans [search_center - tau_nz, search_center + tau_nz] on a
    uniform grid of step about tau_nz / 1000 for the first
    positive-to-non-positive sign change, then bisects until the amplitude
    magnitude drops below 1e-12 or the bracket is narrower than 1e-12.
    """
    tau = pulse.tau_nz
    sums = _single_support_sums(events, tau, search_center)
    if sums is None:
        return _scan_crossing(events, pulse, search_center, gate)
    sin_sum, cos_sum, lo, hi = sums
    amplitude = math.hypot(sin_sum, cos_sum)
    if amplitude < gate:
        return CrossingReport(location=None, max_amplitude=amplitude, gated=True,
                              no_crossing=False)
    offset = tau / math.pi * math.atan2(sin_sum, cos_sum)
    # atan2 fixes phi modulo 2 tau; the crossing lies among the arrivals
    offset += 2.0 * tau * round((0.5 * (lo + hi) - offset) / (2.0 * tau))
    if amplitude == 0.0 or not abs(offset) <= tau:
        return CrossingReport(location=None, max_amplitude=amplitude, gated=False,
                              no_crossing=True)
    return CrossingReport(location=float(search_center + offset), max_amplitude=amplitude,
                          gated=False, no_crossing=False)


def _single_support_sums(events: EventArray, tau: float, center: float):
    """S and C of the arrivals about ``center``, with their least and greatest.

    None when the closed form does not apply: a negative or nan scale, or
    arrivals spanning tau / 2 or more (nan arrivals included). Arrivals are
    formed a block at a time, so nothing event-sized is allocated.
    """
    sin_sum = cos_sum = 0.0
    lo, hi = math.inf, -math.inf
    for start in range(0, events.count, _ANGLE_BLOCK):
        block = slice(start, start + _ANGLE_BLOCK)
        weight = events.scale[block]
        if not weight.min() >= 0.0:
            return None
        if events.delay is None:
            angle = np.subtract(events.fire[block], center)
        else:
            angle = np.add(events.fire[block], events.delay[block])
            angle -= center
        lo, hi = np.minimum(lo, angle.min()), np.maximum(hi, angle.max())  # nan sticks
        if not hi - lo < 0.5 * tau:
            return None
        angle *= np.pi
        angle /= tau
        trig = np.sin(angle)
        trig *= weight
        sin_sum += float(trig.sum())
        np.cos(angle, out=trig)
        trig *= weight
        cos_sum += float(trig.sum())
    return sin_sum, cos_sum, float(lo), float(hi)


def _scan_crossing(events: EventArray, pulse: Pulse, search_center: float,
                   gate: float) -> CrossingReport:
    """The fallback: grid scan and bisection over the search window."""
    waveform = AggregateEvaluator(events, pulse)
    # Not a literal 1000: tau / (tau / 1000) rounds up to 1001 for some tau
    # (17.3 is one), and the pinned crossings were found on that grid.
    half_points = int(np.ceil(pulse.tau_nz / (pulse.tau_nz / 1000.0)))
    grid = search_center + np.linspace(-pulse.tau_nz, pulse.tau_nz, 2 * half_points + 1)
    amps = waveform(grid)
    peak = float(np.max(np.abs(amps)))
    if peak < gate:
        return CrossingReport(location=None, max_amplitude=peak, gated=True, no_crossing=False)

    down = np.nonzero((amps[:-1] > 0.0) & (amps[1:] <= 0.0))[0]
    if down.size == 0:
        return CrossingReport(location=None, max_amplitude=peak, gated=False, no_crossing=True)
    lo, hi = grid[down[0]], grid[down[0] + 1]

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        a_mid = waveform(mid)
        if abs(a_mid) < _REFINE_TOL or (hi - lo) < _REFINE_TOL:
            return CrossingReport(location=float(mid), max_amplitude=peak,
                                  gated=False, no_crossing=False)
        if a_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return CrossingReport(location=float(0.5 * (lo + hi)), max_amplitude=peak,
                          gated=False, no_crossing=False)


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
    # scipy is imported here, not at module level, so that simulating never
    # loads it (about 50 MB of resident memory).
    from scipy.integrate import quad

    if sd <= 0.0:
        return float(pulse.evaluate(x)), 0.0
    norm = 1.0 / (sd * np.sqrt(2.0 * np.pi))

    def integrand(u: float) -> float:
        z = (x - u) / sd
        return pulse.evaluate(u) * norm * np.exp(-0.5 * z * z)

    value, err = quad(integrand, -pulse.tau_nz, pulse.tau_nz,
                      points=[0.0], limit=200, epsabs=tol, epsrel=1e-10)
    return value, err


def limit_waveform(spec: LimitSpec, t, tol: float = 1e-9) -> np.ndarray | float:
    """Limit waveform value(s) at t, exact to roughly 10 * tol.

    Raises NumericsError when the quadrature error estimates exceed the
    target, carrying the offending t and error estimate.
    """
    if spec.sigma_bar2 < 0.0:
        raise DomainError("sigma_bar2 must be non-negative")
    from scipy.integrate import quad  # see _smoothed_pulse

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
            raise NumericsError("limit waveform quadrature did not converge",
                                {"t": float(ti), "error_estimate": float(err)})
        out[idx] = spec.mean_gain * value
    return float(out[0]) if scalar else out
