"""Pulse-coupled oscillators driven by the firing-time update rule.

Oscillators charge along the concave map f(phi) = log(1 + (e^b - 1) phi) / b
from phase to state (Mirollo and Strogatz, 1990), with curvature b > 0, and
fire on reaching full charge. Instead of tracking the state between events,
each oscillator tracks the time X at which it will next fire: receiving a
pulse of strength eps at time z pulls that time forward by

    f_inverse(eps + f(z - x_last)) - (z - x_last),

where x_last is the oscillator's previous firing time, and firing resets
X to x_last + 1. A pulse that would push the state past full charge makes
the receiver fire immediately, joining the sender's instant. Oscillators
that fire at the same instant have identical dynamics from then on, so
they are merged into one permanently absorbed group.

Every oscillator runs at unit rate with no readout jitter here; only the
initial phases differ. All of the richer clock machinery lives in the
engine module, this one exists because the classical emergence-of-synchrony
model falls out of the same firing-time bookkeeping.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError

_MERGE_TOL = 1e-12  # firing instants closer than this are one instant
_MAX_CURVATURE = math.log(sys.float_info.max)  # expm1(b) overflows past it


@functools.lru_cache(maxsize=None)
def log_charging_map(b: float = 3.0) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """The standard concave charging pair f, f_inverse with curvature b.

    Cached, so every config with the same curvature shares one pair.
    """
    if not 0.0 < b < _MAX_CURVATURE:
        raise ConfigurationError(f"curvature b must lie in (0, {_MAX_CURVATURE:.2f})")
    scale = math.expm1(b)

    def f(phi: float) -> float:
        return math.log1p(scale * phi) / b

    def f_inverse(x: float) -> float:
        return math.expm1(b * x) / scale

    return f, f_inverse


@dataclass(frozen=True)
class PcoConfig:
    """Population of coupled oscillators.

    ``epsilons`` may be one strength for everyone or one per oscillator.
    ``curvature`` is the b of ``log_charging_map``, whose pair is concave and
    runs from f(0)=0 to f(1)=1 for every b > 0, so it needs no numeric check.
    """

    initial_phases: tuple[float, ...]
    epsilons: tuple[float, ...] | float = 0.2
    curvature: float = 3.0
    max_cycles: int = 10_000
    f: Callable[[float], float] = field(init=False)
    f_inverse: Callable[[float], float] = field(init=False)

    def __post_init__(self):
        phases = tuple(float(p) for p in self.initial_phases)
        if not phases:
            raise ConfigurationError("need at least one oscillator")
        if any(not 0.0 <= p < 1.0 for p in phases):
            raise ConfigurationError("initial phases must lie in [0, 1)")
        object.__setattr__(self, "initial_phases", phases)

        eps = self.epsilons
        if isinstance(eps, (int, float)):
            eps = (float(eps),) * len(phases)
        else:
            eps = tuple(float(e) for e in eps)
        if len(eps) != len(phases):
            raise ConfigurationError("need one coupling strength per oscillator")
        if any(not e > 0.0 for e in eps):
            raise ConfigurationError("coupling strengths must be positive")
        object.__setattr__(self, "epsilons", eps)

        fwd, inv = log_charging_map(self.curvature)
        object.__setattr__(self, "f", fwd)
        object.__setattr__(self, "f_inverse", inv)
        if self.max_cycles < 1:
            raise ConfigurationError("max_cycles must be at least 1")

    @property
    def n(self) -> int:
        return len(self.initial_phases)


@dataclass
class _Group:
    members: tuple[int, ...]    # sorted node ids, identical dynamics
    x_last: float               # time of the group's previous fire
    next_fire: float            # current X value


@dataclass(frozen=True)
class FireEvent:
    time: float
    members: tuple[int, ...]    # every oscillator that fired at this instant


class PcoState:
    """Mutable firing-time state: one entry per absorbed group."""

    def __init__(self, config: PcoConfig):
        self.config = config
        # phase p means the oscillator last "fired" at -p and will fire at 1-p
        by_phase: list[_Group] = []
        order = sorted(range(config.n), key=lambda i: (-config.initial_phases[i], i))
        for i in order:
            p = config.initial_phases[i]
            if by_phase and abs(-p - by_phase[-1].x_last) <= _MERGE_TOL:
                g = by_phase[-1]
                g.members = tuple(sorted(g.members + (i,)))
            else:
                by_phase.append(_Group((i,), -p, 1.0 - p))
        self.groups = by_phase
        self.fired_events: list[FireEvent] = []

    @property
    def synchronized(self) -> bool:
        return len(self.groups) == 1


def pco_step(state: PcoState) -> FireEvent:
    """Advance to the next firing instant and apply the coupling.

    The earliest group fires; its members' pulses are applied one by one
    (in node-id order) to every other group. A receiver whose state would
    be pushed to full charge, or whose updated firing time falls at or
    before the instant, fires immediately and its pulses join the queue.
    Same-instant firers never couple to each other and are merged.
    """
    config = state.config
    f, f_inv = config.f, config.f_inverse

    t_star = min(g.next_fire for g in state.groups)
    firing = [g for g in state.groups if g.next_fire - t_star <= _MERGE_TOL]
    waiting = [g for g in state.groups if g.next_fire - t_star > _MERGE_TOL]

    queue = [config.epsilons[i] for g in firing for i in g.members]
    head = 0
    while head < len(queue):
        eps = queue[head]
        head += 1
        still_waiting = []
        for g in waiting:
            elapsed = t_star - g.x_last
            charge = eps + f(elapsed)
            if charge >= 1.0:
                firing.append(g)
                queue.extend(config.epsilons[i] for i in g.members)
                continue
            g.next_fire -= f_inv(charge) - elapsed
            if g.next_fire <= t_star:
                firing.append(g)
                queue.extend(config.epsilons[i] for i in g.members)
            else:
                still_waiting.append(g)
        waiting = still_waiting

    members = tuple(sorted(i for g in firing for i in g.members))
    merged = _Group(members, t_star, t_star + 1.0)
    state.groups = waiting + [merged]
    state.groups.sort(key=lambda g: g.members[0])
    event = FireEvent(t_star, members)
    state.fired_events.append(event)
    return event


@dataclass(frozen=True)
class PcoRunReport:
    cycles: int                 # firing events consumed
    synchronized: bool
    events: tuple[FireEvent, ...]


def pco_run_to_sync(config: PcoConfig) -> PcoRunReport:
    """Fire until one absorbed group remains or the cycle budget runs out.

    Hitting the budget is an ordinary outcome (some starting points never
    merge), reported through the ``synchronized`` flag.
    """
    state = PcoState(config)
    cycles = 0
    while not state.synchronized and cycles < config.max_cycles:
        pco_step(state)
        cycles += 1
    return PcoRunReport(cycles, state.synchronized, tuple(state.fired_events))


def random_phases(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Independent uniform starting phases."""
    if n < 1:
        raise ConfigurationError("need at least one oscillator")
    return tuple(float(p) for p in rng.uniform(0.0, 1.0, size=n))
