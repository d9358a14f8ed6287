"""Coupled-oscillator tests.

A direct simulation of the charging state doubles as a correctness oracle:
the firing-time update is checked event by event against it, for two
oscillators and for seeded populations of three to seven with mixed
strengths. Populations are also checked through structural invariants and a
census of random starting points.
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
    """Direct charging-state simulation for n oscillators.

    Tracks every oscillator's phase itself. The leaders fire, and their
    pulses go out one at a time: each adds its strength to the charge every
    other oscillator already holds, and one that reaches full charge fires
    at the same instant and sends its own pulses. Returns the event times
    and the members of each event.
    """
    phi = list(phases)
    t = 0.0
    times, members = [], []
    while len(times) < n_events:
        dt = 1.0 - max(phi)
        t += dt
        phi = [p + dt for p in phi]
        fired = [i for i in range(len(phi)) if phi[i] >= 1.0 - 1e-12]
        charge = [f(p) for p in phi]
        pulses = [eps[i] for i in fired]
        while pulses:
            strength = pulses.pop(0)
            for i in range(len(phi)):
                if i in fired:
                    continue
                charge[i] += strength
                if charge[i] >= 1.0:
                    fired.append(i)
                    pulses.append(eps[i])
        times.append(t)
        members.append(tuple(sorted(fired)))
        phi = [0.0 if i in fired else f_inv(charge[i]) for i in range(len(phi))]
    return times, members


def fire_events(config, n_events):
    state = PcoState(config)
    return [pco_step(state) for _ in range(n_events)]


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


def assert_matches_oracle(phases, eps, n_events=40):
    config = PcoConfig(initial_phases=phases, epsilons=eps)
    events = fire_events(config, n_events)
    times, members = state_variable_fire_times(phases, eps, config.f, config.f_inverse,
                                               n_events)
    assert [e.members for e in events] == members
    assert np.allclose([e.time for e in events], times, atol=1e-10, rtol=0.0)


@pytest.mark.parametrize("phases,eps", [
    ((0.1, 0.6), (0.2, 0.2)),
    ((0.0, 0.37), (0.15, 0.4)),
    ((0.55, 0.8), (0.05, 0.05)),
    # two pulses at once: the receiver's charge rises by their sum
    ((0.7, 0.7, 0.1), (0.03, 0.03, 0.03)),
])
def test_update_rule_matches_state_variable_oracle(phases, eps):
    assert_matches_oracle(phases, eps)


@pytest.mark.parametrize("n", range(3, 8))
def test_update_rule_matches_oracle_with_mixed_strengths(n):
    for k in range(25):
        rng = substream(77, DOMAIN_SEED_SWEEP, n, k)
        phases = random_phases(n, rng)
        eps = tuple(float(e) for e in rng.uniform(0.02, 0.3, size=n))
        assert_matches_oracle(phases, eps)


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


@st.composite
def populations(draw):
    """Starting phases with one coupling strength per oscillator."""
    n = draw(st.integers(min_value=2, max_value=6))
    phases = draw(st.lists(st.floats(min_value=0.0, max_value=0.95), min_size=n, max_size=n))
    eps = draw(st.lists(st.floats(min_value=0.05, max_value=0.5), min_size=n, max_size=n))
    return tuple(phases), tuple(eps)


@settings(max_examples=40, deadline=None)
@given(populations())
def test_group_count_never_increases(population):
    phases, eps = population
    config = PcoConfig(initial_phases=phases, epsilons=eps, max_cycles=300)
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


def test_a_run_reports_one_event_per_cycle():
    # whether it synchronizes or runs out of cycles first
    for max_cycles, synchronized in ((5, False), (10_000, True)):
        report = pco_run_to_sync(PcoConfig(initial_phases=(0.1, 0.4, 0.7), epsilons=0.05,
                                           max_cycles=max_cycles))
        assert report.synchronized == synchronized
        assert report.cycles == len(report.events)


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
    with pytest.raises(ConfigurationError):
        random_phases(0, np.random.default_rng(0))


def test_charging_map_round_trip():
    f, f_inv = log_charging_map(b=3.0)
    grid = np.linspace(0.0, 1.0, 101)
    for g in grid:
        assert f_inv(f(g)) == pytest.approx(g, abs=1e-12)
    assert f(0.0) == 0.0
    assert f(1.0) == pytest.approx(1.0, abs=1e-12)

