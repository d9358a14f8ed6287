"""Aggregate received waveforms and their zero crossings.

Every transmitter contributes a scaled, shifted instance of one odd pulse, the
half-sine p(t) = -sin(pi t / tau_nz) on the support (-tau_nz, tau_nz) and 0
outside it: positive before the crossing at t = 0, negative after it, with
peak 1. Receivers estimate the common transmit instant as the first
downward zero crossing of the summed waveform.

While every arrival lies inside one pulse support the aggregate is a single
sinusoid, -A sin(pi (t - phi) / tau_nz) with A e^{i pi phi / tau_nz} =
sum_i scale_i e^{i pi arrival_i / tau_nz}, so the crossing is phi, read off
two weighted sums. find_zero_crossing takes that closed form whenever the
scales are non-negative and the arrivals span less than tau_nz / 2, which
holds for the engine's default supports. Otherwise the same rule runs on each
segment between the breakpoints arrival_i -+ tau_nz: one sinusoid apiece.

The infinite-density limit of the aggregate is a deterministic waveform:
the pulse smoothed by the transmit-error law and averaged over the skew
population. It is odd about the target instant, which is why the crossing
estimator is consistent; the tests evaluate it by quadrature and check the
Monte-Carlo aggregates against it. The simulator needs numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_ANGLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class Pulse:
    """Half-sine transmit pulse p(t) = -sin(pi t / tau_nz) on (-tau_nz, tau_nz), peak 1."""

    tau_nz: float

    def __post_init__(self):
        if not 0.0 < self.tau_nz < np.inf:
            raise DomainError(f"pulse support must be positive and finite, got {self.tau_nz}")


def default_tau_nz(sigma_bar: float, alpha_low: float) -> float:
    """Support wide enough that transmit errors stay deep inside the pulse."""
    if not (0.0 <= sigma_bar < np.inf and alpha_low > 0.0):
        raise DomainError("sigma_bar must be finite and >= 0, and alpha_low > 0")
    if sigma_bar == 0.0:
        return 1.0
    return 100.0 * sigma_bar / alpha_low


@dataclass(frozen=True)
class EventArray:
    """Received events as two columns: each pulse's arrival time and its scale.

    A receiver sees only the superposed pulses, so a transmitter's fire time
    and its propagation delay enter as their sum. Events come as such an array
    or as a replayable block source: a function that makes them afresh, a block
    at a time, on every call. Every block but the last holds a multiple of
    ``_ANGLE_BLOCK`` events, so block sums keep a whole array's order.
    """

    arrival: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.arrival.shape != self.scale.shape:
            raise DomainError("event columns must share one shape")
        if self.arrival.ndim != 1 or self.arrival.size == 0:
            raise DomainError("event arrays must be non-empty vectors")

    @staticmethod
    def build(arrival, scale=None) -> "EventArray":
        arrival = np.asarray(arrival, dtype=float)
        scale = np.ones(arrival.size) if scale is None else np.asarray(scale, dtype=float)
        return EventArray(arrival=arrival, scale=scale)

    @property
    def count(self) -> int:
        return self.arrival.size


def join(events: EventArray | Callable[[], Iterable[EventArray]]) -> EventArray:
    """Events as one array: an ``EventArray`` as it is, a block source's blocks joined."""
    if isinstance(events, EventArray):
        return events
    parts = [(p.arrival, p.scale) for p in events()]
    return EventArray(*(np.concatenate(c) for c in zip(*parts)))


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
        order = np.argsort(events.arrival, kind="stable")
        self._arrivals = events.arrival[order]
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

    def _sums(self, t) -> tuple[np.ndarray, np.ndarray]:
        """C and S at t: in-support sums of scale * cos and sin(pi arrival / tau_nz)."""
        tau = self.pulse.tau_nz
        lo = np.searchsorted(self._arrivals, t - tau, side="right")
        hi = np.searchsorted(self._arrivals, t + tau, side="left")
        return (self._cos_prefix[hi] - self._cos_prefix[lo],
                self._sin_prefix[hi] - self._sin_prefix[lo])

    def __call__(self, t) -> np.ndarray | float:
        """Summed waveform at time(s) t: sum_i scale_i p(t - arrival_i)."""
        t_arr = np.asarray(t, dtype=float)
        cos_sum, sin_sum = self._sums(t_arr)
        angle = np.pi * t_arr / self.pulse.tau_nz
        out = -np.sin(angle) * cos_sum + np.cos(angle) * sin_sum
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CrossingReport:
    """Outcome of a zero-crossing search on one aggregate waveform."""

    location: float | None       # crossing time; None if not usable
    max_amplitude: float         # the aggregate's peak, which the gate sees: the
                                 # closed form's A, else the window's exact peak
    gated: bool                  # amplitude never cleared the detection gate
    no_crossing: bool            # gate cleared but no downward sign change

    @property
    def ok(self) -> bool:
        return self.location is not None


def find_zero_crossing(events: EventArray | Callable[[], Iterable[EventArray]], pulse: Pulse,
                       search_center: float, gate: float = 0.0) -> CrossingReport:
    """Locate the first downward zero crossing in (search_center -+ tau_nz].

    Between consecutive breakpoints a_i -+ tau_nz the aggregate is one sinusoid
    -A sin(pi (t - phi) / tau_nz), phi = (tau_nz / pi) atan2(S, C) for the sums
    S and C over the events in support, with downward zeros phi + 2 j tau_nz.
    When the scales are non-negative and the arrivals span less than tau_nz / 2,
    one segment holds [a_min, a_max]; no term is negative before a_min or
    positive after a_max, so the crossing is the zero among the arrivals and A
    is the aggregate's peak. ``events`` is an ``EventArray`` or a replayable
    block source, which this closed form reads in one pass of blocks.
    Otherwise every segment of the window is searched in order on the events
    joined by ``join``, and the gate sees the window's exact peak of
    |aggregate|. A = 0, or no zero in the window, reports no crossing.
    """
    tau = pulse.tau_nz
    sums = _single_support_sums(events, tau, search_center)
    if sums is None:
        location, peak = _segment_search(join(events), pulse, search_center)
    else:
        sin_sum, cos_sum, lo, hi = sums
        peak = math.hypot(sin_sum, cos_sum)
        offset = tau / math.pi * math.atan2(sin_sum, cos_sum)
        # atan2 fixes phi modulo 2 tau; the crossing lies among the arrivals
        offset += 2.0 * tau * round((0.5 * (lo + hi) - offset) / (2.0 * tau))
        location = float(search_center + offset) if peak > 0.0 and abs(offset) <= tau else None
    gated = peak < gate
    return CrossingReport(location=None if gated else location, max_amplitude=peak,
                          gated=gated, no_crossing=not gated and location is None)


def _single_support_sums(events: EventArray | Callable[[], Iterable[EventArray]], tau: float,
                         center: float):
    """S and C of the arrivals about ``center``, with their least and greatest.

    None when the closed form does not apply: a negative or nan scale, or
    arrivals spanning tau / 2 or more (nan arrivals included). Angles are
    formed ``_ANGLE_BLOCK`` at a time, so nothing event-sized is allocated.
    """
    sin_sum = cos_sum = 0.0
    lo, hi = math.inf, -math.inf
    for part in (events,) if isinstance(events, EventArray) else events():
        for start in range(0, part.count, _ANGLE_BLOCK):
            block = slice(start, start + _ANGLE_BLOCK)
            weight = part.scale[block]
            if not weight.min() >= 0.0:
                return None
            angle = np.subtract(part.arrival[block], center)
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
        del part, weight    # the next block is made without this one
    return sin_sum, cos_sum, float(lo), float(hi)


def _segment_search(events: EventArray, pulse: Pulse,
                    search_center: float) -> tuple[float | None, float]:
    """First crossing and peak: the closed form's rule on each segment of the window."""
    waveform = AggregateEvaluator(events, pulse)
    tau, n = pulse.tau_nz, events.count
    # the window's ends and the breakpoints; clipping keeps both runs sorted
    edges = np.empty(2 * n + 2)
    edges[0], edges[-1] = search_center - tau, search_center + tau
    np.subtract(waveform._arrivals, tau, out=edges[1:n + 1])
    np.add(waveform._arrivals, tau, out=edges[n + 1:-1])
    np.clip(edges, edges[0], edges[-1], out=edges)
    edges.sort(kind="stable")
    location, peak = None, 0.0
    for start in range(0, 2 * n + 1, _ANGLE_BLOCK):
        # the block's segments, and one either side for its flatness alone
        first, last = max(start - 1, 0), min(start + _ANGLE_BLOCK + 1, 2 * n + 1)
        left, right = edges[first:last], edges[first + 1:last + 1]
        mid = 0.5 * (left + right)
        cos_sum, sin_sum = waveform._sums(mid)
        amplitude = np.hypot(sin_sum, cos_sum)
        phi = tau / np.pi * np.arctan2(sin_sum, cos_sum)
        at_left, at_right = np.pi / tau * (left - phi), np.pi / tau * (right - phi)
        if location is None:
            zero = phi + 2.0 * tau * np.round((mid - phi) / (2.0 * tau))
            found = (amplitude > 0.0) & (left < zero) & (zero <= right)
            # beside a flat segment the shared end is an exact zero of this sinusoid:
            # a downward one is no crossing on the left, and this one's on the right
            flat = np.pad(amplitude == 0.0, 1)  # none beyond the segments at hand
            found &= ~(flat[:-2] & (np.cos(at_left) > 0.0))
            ends_down = flat[2:] & (amplitude > 0.0) & (np.cos(at_right) > 0.0)
            found |= ends_down
            found[:start - first] = found[start - first + _ANGLE_BLOCK:] = False
            if found.any():
                k = found.argmax()
                location = float(right[k] if ends_down[k] else zero[k])
        # |aggregate| peaks at A if an extremum phi + tau/2 + j tau is inside, else at an end
        inside = np.floor(at_right / np.pi - 0.5) >= np.ceil(at_left / np.pi - 0.5)
        ends = np.maximum(np.abs(np.sin(at_left)), np.abs(np.sin(at_right)))
        peak = max(peak, float(np.max(amplitude * np.where(inside, 1.0, ends))))
    return location, peak
