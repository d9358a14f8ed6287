"""Coupled-oscillator tests.

The n=2 case doubles as a correctness oracle: the firing-time update can be
checked event by event against a direct simulation of the charging state.
Larger populations are checked through structural invariants and a census
of random starting points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronomesh.errors import ConfigurationError
from chronomesh.pco import (
    FireEvent,
    PcoConfig,
    PcoState,
    log_charging_map,
    pco_run_to_sync,
    pco_step,
    random_phases,
)
from chronomesh.rng import DOMAIN_SEED_SWEEP, substream


def state_variable_fire_times(phases, eps, f, f_inv, n_events):
    """Direct charging-state simulation for two oscillators.

    Tracks the phases themselves: the leader fires, the other's charge
    jumps by the pulse strength, full charge means both fire together.
    Returns the event times.
    """
    phi = list(phases)
    t = 0.0
    times = []
    merged = False
    while len(times) < n_events:
        if merged:
            t += 1.0 - phi[0]
            phi[0] = 0.0
            times.append(t)
            continue
        j = 0 if phi[0] >= phi[1] else 1
        k = 1 - j
        dt = 1.0 - phi[j]
        t += dt
        times.append(t)
        phi[j] = 0.0
        phi[k] += dt
        charge = f(phi[k]) + eps[j]
        if charge >= 1.0:
            phi = [0.0]
            merged = True
        else:
            phi[k] = f_inv(charge)
    return times


def test_single_oscillator_period_is_exact():
    config = PcoConfig(initial_phases=(0.25,))
    state = PcoState(config)
    for k in range(5):
        event = pco_step(state)
        assert event.time == pytest.approx(0.75 + k, abs=0.0)
        assert event.members == (0,)


def test_two_oscillators_absorb():
    config = PcoConfig(initial_phases=(0.0, 0.5), epsilons=0.3, curvature=1.0)
    report = pco_run_to_sync(config)
    assert report.synchronized
    assert report.cycles < config.max_cycles
    # once merged, both fire as one group with period one
    last = [e for e in report.events if e.members == (0, 1)]
    assert last
    assert last[-1].time - last[0].time == pytest.approx(len(last) - 1, abs=1e-9)


def test_two_oscillator_gap_contracts():
    config = PcoConfig(initial_phases=(0.0, 0.5), epsilons=0.3, curvature=1.0)
    state = PcoState(config)
    gaps = []
    while not state.synchronized:
        pco_step(state)
        if len(state.groups) == 2:
            a, b = state.groups
            gaps.append(abs(a.next_fire - b.next_fire))
    # compare the gap at every return of the same oscillator to firing
    for earlier, later in zip(gaps[::2], gaps[2::2]):
        assert later < earlier


@pytest.mark.parametrize("phases,eps", [
    ((0.1, 0.6), (0.2, 0.2)),
    ((0.0, 0.37), (0.15, 0.4)),
    ((0.55, 0.8), (0.05, 0.05)),
])
def test_update_rule_matches_state_variable_oracle(phases, eps):
    config = PcoConfig(initial_phases=phases, epsilons=eps)
    state = PcoState(config)
    times = []
    for _ in range(40):
        event = pco_step(state)
        times.append(event.time)
        if state.synchronized:
            break
    while len(times) < 40:
        times.append(pco_step(state).time)
    oracle = state_variable_fire_times(phases, eps, config.f, config.f_inverse, 40)
    assert np.allclose(times, oracle, atol=1e-10, rtol=0.0)


def test_equal_phases_synchronize_immediately():
    config = PcoConfig(initial_phases=(0.3, 0.3, 0.3))
    report = pco_run_to_sync(config)
    assert report.cycles == 0
    assert report.synchronized


def test_saturating_pulse_fires_receiver_at_once():
    # receiver at phase 0.95 when hit by a strong pulse: charge tops out
    config = PcoConfig(initial_phases=(0.05, 0.999), epsilons=0.9)
    state = PcoState(config)
    event = pco_step(state)
    assert event.members == (0, 1)
    assert state.synchronized


def test_absorption_is_permanent():
    rng = substream(99, DOMAIN_SEED_SWEEP, 0)
    config = PcoConfig(initial_phases=random_phases(5, rng), epsilons=0.25)
    state = PcoState(config)
    counts = []
    for _ in range(200):
        pco_step(state)
        counts.append(len(state.groups))
        if state.synchronized:
            break
    assert min(counts) == counts[-1] == 1
    assert all(b <= a for a, b in zip(counts, counts[1:]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.95), min_size=2, max_size=6),
       st.floats(min_value=0.05, max_value=0.5))
def test_group_count_never_increases(phases, eps):
    config = PcoConfig(initial_phases=tuple(phases), epsilons=eps, max_cycles=300)
    state = PcoState(config)
    previous = len(state.groups)
    last_time = -math.inf
    for _ in range(60):
        event = pco_step(state)
        assert event.time > last_time
        last_time = event.time
        assert len(state.groups) <= previous
        previous = len(state.groups)
        if state.synchronized:
            break


def test_census_of_random_starts_synchronizes():
    reached = 0
    for s in range(100):
        rng = substream(2024, DOMAIN_SEED_SWEEP, s)
        config = PcoConfig(initial_phases=random_phases(5, rng), epsilons=0.2)
        report = pco_run_to_sync(config)
        reached += report.synchronized
    assert reached >= 99


def test_next_fire_view_covers_all_nodes():
    config = PcoConfig(initial_phases=(0.2, 0.7, 0.4))
    state = PcoState(config)
    assert sorted(g.members for g in state.groups) == [(0,), (1,), (2,)]
    next_fire = {g.members[0]: g.next_fire for g in state.groups}
    assert next_fire[1] == pytest.approx(0.3)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=())
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=(0.2, 1.0))
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=(0.2, 0.4), epsilons=(0.1,))
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=(0.2,), epsilons=0.0)
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=(0.2,), max_cycles=0)
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=(0.2,), epsilons=math.nan)
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=(0.2, 0.4), epsilons=(0.1, math.nan))
    with pytest.raises(ConfigurationError):
        PcoConfig(initial_phases=(math.nan,))
    for curvature in (0.0, -1.0, math.nan, math.inf, 800.0):
        with pytest.raises(ConfigurationError):
            PcoConfig(initial_phases=(0.2,), curvature=curvature)
    with pytest.raises(ConfigurationError):
        log_charging_map(b=0.0)


def test_charging_map_round_trip():
    f, f_inv = log_charging_map(b=3.0)
    grid = np.linspace(0.0, 1.0, 101)
    for g in grid:
        assert f_inv(f(g)) == pytest.approx(g, abs=1e-12)
    assert f(0.0) == 0.0
    assert f(1.0) == pytest.approx(1.0, abs=1e-12)

