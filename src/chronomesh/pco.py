"""Pulse-coupled oscillators driven by the firing-time update rule.

Oscillators charge along the concave map f(phi) = log(1 + (e^b - 1) phi) / b
from phase to charge (Mirollo and Strogatz, 1990), with curvature b > 0, and
fire on reaching full charge. Instead of tracking the charge between events,
each oscillator keeps only the time X at which it will next fire, so its
phase at time t is 1 - (X - t). Pulses add up in charge: pulses of total
strength E arriving together at time z move a waiting oscillator to

    X' = z + 1 - f_inverse(f(1 - (X - z)) + E),

and firing resets X to z + 1. A total that brings the charge to full makes
the receiver fire at once, joining the senders' instant, and its own pulses
add to the total. Oscillators that fire at the same instant have identical
dynamics from then on, so they are merged into one permanently absorbed
group.

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
    next_fire: float            # X; the phase at time t is 1 - (X - t)


@dataclass(frozen=True)
class FireEvent:
    time: float
    members: tuple[int, ...]    # every oscillator that fired at this instant


class PcoState:
    """Mutable firing-time state: one entry per absorbed group."""

    def __init__(self, config: PcoConfig):
        self.config = config
        # phase p means the oscillator will fire at 1-p
        self.groups: list[_Group] = []
        order = sorted(range(config.n), key=lambda i: (-config.initial_phases[i], i))
        for i in order:
            x = 1.0 - config.initial_phases[i]
            if self.groups and abs(x - self.groups[-1].next_fire) <= _MERGE_TOL:
                g = self.groups[-1]
                g.members = tuple(sorted(g.members + (i,)))
            else:
                self.groups.append(_Group((i,), x))

    @property
    def synchronized(self) -> bool:
        return len(self.groups) == 1


def pco_step(state: PcoState) -> FireEvent:
    """Advance to the next firing instant and apply the coupling.

    The earliest groups fire, and their members' pulses add up in charge: a
    waiting group at phase phi holds f(phi) + total. A group whose charge
    reaches 1, or whose new firing time falls at or before the instant,
    fires too and adds its own pulses to the total, until no group joins.
    The rest move to the firing time of their final charge. Same-instant
    firers never couple to each other and are merged.
    """
    config = state.config
    f, f_inv, eps = config.f, config.f_inverse, config.epsilons

    t_star = min(g.next_fire for g in state.groups)
    firing = [g for g in state.groups if g.next_fire - t_star <= _MERGE_TOL]
    # each waiting group with the charge it holds at t_star before any pulse
    waiting = [(g, f(1.0 - (g.next_fire - t_star))) for g in state.groups
               if g.next_fire - t_star > _MERGE_TOL]

    total, joined = 0.0, firing
    while joined:
        total += sum(eps[i] for g in joined for i in g.members)
        joined, still_waiting = [], []
        for g, held in waiting:
            charge = held + total
            if charge >= 1.0 or t_star + 1.0 - f_inv(charge) <= t_star:
                joined.append(g)
            else:
                still_waiting.append((g, held))
        firing += joined
        waiting = still_waiting
    for g, held in waiting:
        g.next_fire = t_star + 1.0 - f_inv(held + total)

    members = tuple(sorted(i for g in firing for i in g.members))
    state.groups = [g for g, _ in waiting] + [_Group(members, t_star + 1.0)]
    state.groups.sort(key=lambda g: g.members[0])
    return FireEvent(t_star, members)


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
    state, events = PcoState(config), []
    while not state.synchronized and len(events) < config.max_cycles:
        events.append(pco_step(state))
    return PcoRunReport(len(events), state.synchronized, tuple(events))


def random_phases(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Independent uniform starting phases."""
    if n < 1:
        raise ConfigurationError("need at least one oscillator")
    return tuple(float(p) for p in rng.uniform(0.0, 1.0, size=n))
