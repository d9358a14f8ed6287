"""Network phase engine tests.

Noiseless configurations have exact expected outcomes, so those are checked
to float precision. Noisy checks pin variances against the extrapolation
design's closed forms, and the delay regime is checked against a fixed point
worked out from the channel law directly.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chronomesh import engine
from chronomesh.channel import ChannelModel, DelayDistribution, sample_fix
from chronomesh.clock import SkewPopulation
from chronomesh.engine import (
    EpsilonReport,
    NetworkState,
    ScenarioConfig,
    estimate_epsilon,
    no_delay_phase_events,
    run_phase,
    run_phase_delay,
    run_phases,
)
from chronomesh.errors import ConfigurationError
from chronomesh.estimator import fit, prediction_weights
from chronomesh.geometry import NodePosition, Region, place_nodes
from chronomesh.rng import (DOMAIN_INIT, DOMAIN_PHASE, DOMAIN_PLACEMENT, DOMAIN_SEED_SWEEP,
                            derive_seed, substream)
from chronomesh.waveform import AggregateEvaluator, EventArray, find_zero_crossing, join
from test_waveform import assert_matches_scan, scan_crossing


def quiet_config(**kw):
    defaults = dict(n_nodes=64, m=3, sigma2=0.0,
                    population=SkewPopulation(1.0, 1.0), seed=3)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def windows(state):
    """Every node's float32 jitter window, joined from one pass of the state's redraws."""
    whole = np.empty((state.n, state.config.m), dtype=np.float32)
    for rows, window in state.windows():
        whole[rows] = window
    return whole


def next_fires(state):
    """Reference-time fires of the coming no-delay phase, as the phase draws them."""
    return no_delay_phase_events(state)[0].arrival


@pytest.fixture
def built_fires(monkeypatch):
    """Arrival columns of every event array the engine builds, in build order: the fire
    times, plus each receiver's channel delays in the delay regime."""
    seen = []
    build = EventArray.build

    def spy(arrival, scale=None):
        seen.append(np.array(arrival))
        return build(arrival, scale)

    monkeypatch.setattr(EventArray, "build", staticmethod(spy))
    return seen


def phase_draws(state):
    """The coming phase's draws, each kind taken whole from its own phase stream.

    Returns the fire jitter, the compensation draws (d_fix, k_fix) or None, and
    each receiver's (delays or None, gains).
    """
    cfg = state.config
    path = (cfg.seed, DOMAIN_PHASE, state.phase_count)
    jitter = substream(*path, engine._FIRE).normal(0.0, 1.0, size=state.n) * state.sigma
    jitter[0] = 0.0
    fix = None
    if cfg.regime == "delay" and cfg.compensate_delay:
        probe = state.schedule.receivers[0][0]
        law = DelayDistribution(state.channel, NodePosition(*state.positions[probe]))
        fix = sample_fix(law, substream(*path, engine._FIX), state.n)
    channels = {}
    for node, law, _ in state.schedule.receivers:
        rng = substream(*path, engine._CHANNEL, node)
        channels[node] = (law.sample(rng, state.n) if isinstance(law, DelayDistribution)
                          else (None, law.sample(rng, state.n)))
    return jitter, fix, channels


def receiver_events(state, fires, k_fix, channels):
    """(receiver, events, search offset) of the coming phase from its transmitters' fires."""
    tx = state.schedule.transmit
    out = []
    for node, _, offset in state.schedule.receivers:
        delays, gains = channels[node]
        scales = gains[tx] * k_fix / fires.size
        arrivals = fires if delays is None else fires + delays[tx]
        out.append((node, EventArray.build(arrivals, scales), offset))
    return out


def whole_vector_events(state):
    """(receiver, events, search offset) of the coming phase, built from whole node vectors.

    Each kind of draw is taken whole from its own phase stream, with the
    kernel's floating-point steps: the reference a phase worked in node blocks
    must match.
    """
    cfg, tx = state.config, state.schedule.transmit
    jitter, fix, channels = phase_draws(state)
    centres, slopes = (state.history @ w for w in prediction_weights(cfg.m, cfg.target))
    if cfg.regime != "delay":
        centre, slope = centres[tx.start or 0], slopes[tx.start or 0]
    else:
        # boundary nodes are handed the instant, a line of slope 1
        inside = state.interior(slice(0, state.n))[tx]
        centre = np.where(inside, centres[0], state.next_center)
        slope = np.where(inside, slopes[0], 1.0)
    alphas = state.skews(slice(0, state.n))[tx]
    report = fit(windows(state)[tx], cfg.target)
    fires = report.phi_hat
    k_fix = 1.0
    if fix is not None:
        d_fix, k_fix = fix
        fires += (alphas if cfg.oracle_alpha else alphas * slope + report.alpha_hat) * d_fix[tx]
        k_fix = k_fix[tx]
    fires = (fires - jitter[tx]) / alphas + centre
    return receiver_events(state, fires, k_fix, channels)


class ParentArithmetic:
    """A network run on absolute float64 windows alpha (c - delta) + j.

    This is how windows were kept before offsets were found to cancel: the
    offsets are drawn from the init stream after the skews (the state never
    draws them), init jitter column k from its own stream, every fit runs on
    whole absolute windows, and fires go back to reference time through each
    node's offset. Each phase takes the draws ``run_phase`` takes; ``state``
    supplies the roles, laws, pulse and phase counters. ``residuals`` keeps
    every node's float32 jitter window whole, rolled column by column as
    windows were kept before they were redrawn from their column sources.
    """

    def __init__(self, config):
        self.state = st = NetworkState(config)
        n, m = config.n_nodes, config.m
        rng = substream(config.seed, DOMAIN_INIT)
        self.alphas = config.population.sample(n, rng)
        self.deltas = rng.uniform(-0.5, 0.5, size=n)
        self.alphas[0], self.deltas[0] = 1.0, 0.0
        jitter = np.column_stack([substream(config.seed, DOMAIN_INIT, k, engine._READ)
                                  .standard_normal(n) for k in range(m)]) * st.sigma
        jitter[0] = 0.0
        self.residuals = jitter.astype(np.float32)
        steps = np.arange(m, dtype=float)
        if config.regime == "even_odd":
            # parity 0 fires first and heard tau0-(2m-1), ...; parity 1 heard tau0-2m, ...
            first = st.next_center - 2 * m + (np.arange(n) % 2 == 0)
            instants = first[:, None] + 2.0 * steps
        else:
            instants = (st.next_center - m + steps)[None, :] + self.assumed()[:, None]
        self.windows = (instants - self.deltas[:, None]) * self.alphas[:, None] + jitter

    def assumed(self):
        """Each node's assumed crossing offset: epsilon inside, 0.0 at the edge (the instant)."""
        st = self.state
        if st.config.regime != "delay":
            return np.zeros(st.n)
        return np.where(st.interior(slice(0, st.n)), st.config.epsilon, 0.0)

    def run_phase(self):
        st = self.state
        cfg, sched, tau0 = st.config, st.schedule, float(st.next_center)
        tx, listen = sched.transmit, sched.listen
        jitter, fix, channels = phase_draws(st)
        alphas = self.alphas[tx]
        report = fit(self.windows[tx], cfg.target)
        fires = report.phi_hat
        if cfg.regime == "delay":
            fires = fires + (cfg.epsilon - self.assumed()[tx]) * alphas
        k_fix = 1.0
        if fix is not None:
            d_fix, k_fix = fix
            fires += (alphas if cfg.oracle_alpha else report.alpha_hat) * d_fix[tx]
            k_fix = k_fix[tx]
        fires = (fires - jitter[tx]) / alphas + self.deltas[tx]
        crossings = {node: find_zero_crossing(events, st.pulse, tau0 + offset, st.channel.gate)
                     for node, events, offset in receiver_events(st, fires, k_fix, channels)}
        crossing = crossings[sched.receivers[0][0]]
        if crossing.ok:
            instants = crossing.location if cfg.regime != "delay" else np.where(
                st.interior(slice(0, st.n)), crossing.location, tau0 + self.assumed())
            noise = substream(cfg.seed, DOMAIN_PHASE, st.phase_count, engine._READ).normal(
                0.0, 1.0, size=st.n) * st.sigma
            noise[0] = 0.0
            readings = ((instants - self.deltas) * self.alphas + noise)[listen]
            residuals = noise[listen]
        else:
            readings = fit(self.windows[listen], cfg.m).phi_hat
            residuals = fit(self.residuals[listen], cfg.m).phi_hat
        self.windows[listen] = np.column_stack((self.windows[listen][:, 1:], readings))
        self.residuals[listen] = np.column_stack((self.residuals[listen][:, 1:], residuals))
        st.phase_count += 1
        st.next_center += 1
        return crossings


def set_gate(gate, *states):
    for st in states:
        st.channel = replace(st.channel, gate=gate)


def even_odd_phase(state, built_fires):
    """Run one even_odd phase; return its transmit rows and fires by node (nan if silent)."""
    transmit = state.schedule.transmit
    built_fires.clear()
    rep = run_phase(state)
    (fires,) = built_fires
    by_node = np.full(state.n, np.nan)
    by_node[transmit] = fires
    return rep, transmit, by_node


# -- initialization ------------------------------------------------------

def test_noiseless_init_windows_are_past_instants():
    st = NetworkState(quiet_config())
    assert np.array_equal(st.history, [[0.0, 1.0, 2.0]])
    assert windows(st).shape == (64, 3) and not windows(st).any()


def test_init_residuals_are_fresh_readout_jitter():
    cfg = ScenarioConfig(n_nodes=20_000, m=5, sigma2=0.04, seed=17)
    st = NetworkState(cfg)
    assert np.array_equal(st.history, [np.arange(0, 5, dtype=float)])
    residuals = windows(st)
    assert residuals.dtype == np.float32
    assert abs(residuals[0]).max() == 0.0          # reference node is jitter free
    body = residuals[1:].ravel().astype(float)
    assert np.var(body) == pytest.approx(0.04, rel=0.05)
    assert abs(np.mean(body)) < 4.0 * np.sqrt(0.04 / body.size)


@pytest.mark.parametrize("population", [SkewPopulation(), SkewPopulation(1.0, 1.0)])
def test_init_columns_are_their_own_jitter_streams(population):
    # Init window column k is one normal a node from substream(seed,
    # DOMAIN_INIT, k, _READ), as phase q's readout column is from its phase's,
    # across block seams. The init stream holds the skews alone, so a point
    # mass, which draws no skew, moves no jitter: both populations give these
    # bytes.
    cfg = ScenarioConfig(n_nodes=MULTI_BLOCK_N, m=3, sigma2=1e-4, seed=5, population=population)
    st = NetworkState(cfg)
    jitter = np.column_stack([substream(cfg.seed, DOMAIN_INIT, k, engine._READ)
                              .standard_normal(cfg.n_nodes) for k in range(cfg.m)])
    jitter = (jitter * st.sigma).astype(np.float32)
    jitter[0] = 0.0
    assert windows(st).tobytes() == jitter.tobytes()
    alphas = cfg.population.sample(cfg.n_nodes, substream(cfg.seed, DOMAIN_INIT))
    skews = st.skews(slice(0, st.n))
    assert np.array_equal(skews[1:], alphas[1:]) and skews[0] == 1.0


def test_even_odd_init_spacing():
    st = NetworkState(quiet_config(n_nodes=10, regime="even_odd"))
    # first center is 2m = 6, active parity 0
    assert st.next_center == 6
    assert np.array_equal(st.history, [[1.0, 3.0, 5.0], [0.0, 2.0, 4.0]])


def test_delay_init_offsets():
    cfg = quiet_config(n_nodes=200, regime="delay", epsilon=0.3, seed=12)
    st = NetworkState(cfg)
    base = np.arange(3, dtype=float)
    assert np.array_equal(st.history, [base + 0.3])
    assert not windows(st).any()
    interior = st.interior(slice(0, st.n))
    assert interior.any() and (~interior).any()


# -- no-delay phases -----------------------------------------------------

def test_noiseless_phases_stay_locked():
    st = NetworkState(quiet_config())
    for expected_center in (3.0, 4.0, 5.0):
        fires = next_fires(st)
        rep = run_phase(st)
        assert rep.center == expected_center
        assert not rep.failed
        assert np.allclose(fires, expected_center, atol=1e-10)
        assert rep.crossing == pytest.approx(expected_center, abs=1e-9)
        assert abs(rep.crossing - rep.center) < 1e-9


def test_reference_node_fires_on_the_instant():
    cfg = ScenarioConfig(n_nodes=300, sigma2=1e-3, seed=8)
    st = NetworkState(cfg)
    events, center = no_delay_phase_events(st)
    assert events.arrival[0] == pytest.approx(center, abs=1e-10)
    assert abs(events.arrival[1:] - center).max() > 1e-4


def test_fire_time_variance_matches_design():
    cfg = ScenarioConfig(n_nodes=100_000, m=3, sigma2=1e-2, seed=33)
    st = NetworkState(cfg)
    fires = next_fires(st)
    rep = run_phase(st)
    scaled = (fires - rep.center) * st.skews(slice(0, st.n))
    assert np.var(scaled[1:]) == pytest.approx(cfg.fire_variance, rel=0.03)
    # m = 3: sigma2 * (1 + 2(2m+1)/(m(m-1))) = sigma2 * 10/3
    assert cfg.fire_variance == pytest.approx(1e-2 * 10.0 / 3.0, rel=1e-12)


def test_crossing_near_center_at_moderate_size():
    # transmit error variance 0.01 total -> sigma2 = 0.01 * 3 / 10
    cfg = ScenarioConfig(n_nodes=400, sigma2=0.003, seed=2,
                         channel=ChannelModel(Region(), np.inf))
    st = NetworkState(cfg)
    rep = run_phase(st)
    assert not rep.failed
    assert abs(rep.crossing - rep.center) < 0.02


@pytest.mark.parametrize("regime", ["no_delay", "even_odd"])
def test_windows_advance_with_observations(regime):
    cfg = ScenarioConfig(n_nodes=50, sigma2=1e-4, seed=21, regime=regime)
    st = NetworkState(cfg)
    before, history = windows(st), st.history.copy()
    # even_odd: the parity of the instant fires, the other parity listens
    heard = 1 - st.next_center % 2 if regime == "even_odd" else 0
    listen = np.arange(50) % 2 == heard if regime == "even_odd" else np.ones(50, bool)
    rep = run_phase(st)
    after = windows(st)
    assert np.array_equal(after[listen, :-1], before[listen, 1:])
    assert np.array_equal(after[~listen], before[~listen])
    # the listeners' history reads the crossing; the other parity's is untouched
    assert np.array_equal(st.history[heard], np.append(history[heard, 1:], rep.crossing))
    assert np.array_equal(np.delete(st.history, heard, 0), np.delete(history, heard, 0))
    # readings differ from the crossing only by fresh jitter
    spread = after[:, -1]
    jittered = listen.copy()
    jittered[0] = False
    if listen[0]:
        assert abs(spread[0]) == 0.0
    assert 0.0 < abs(spread[jittered]).max() < 6 * np.sqrt(1e-4)


def test_same_seed_reproduces_bitwise():
    cfg = ScenarioConfig(n_nodes=500, sigma2=1e-4, seed=14)
    runs = []
    for _ in range(2):
        st = NetworkState(cfg)
        runs.append([(next_fires(st), run_phase(st)) for _ in range(2)])
    for (fires_a, a), (fires_b, b) in zip(*runs):
        assert np.array_equal(fires_a, fires_b)
        assert a.crossing == b.crossing
    other = run_phase(NetworkState(ScenarioConfig(n_nodes=500, sigma2=1e-4, seed=15)))
    assert other.crossing != runs[0][0][1].crossing


# First three primary crossings of a 2000-node network, seed 3. Exact
# equality pins every RNG stream and the order of every floating-point
# operation on the build and phase paths, so a change made for memory or
# speed alone must leave these values untouched. Retaken when windows became
# a shared history plus float32 jitter (no stream moved; the values moved by
# at most 6.5e-11), once the parent-arithmetic oracle matched them. A case
# "regime@tau_nz" gives tau_nz explicitly: "delay@2.75" keeps delay's values
# from before unheard transmitters became an atom at the range, when 2.75 was
# its default; "delay" was retaken at the new default, 10 delay(R) = 2.5.
# All were retaken when each init jitter column got its own stream.
PINNED_CROSSINGS = {
    "no_delay": (3.0004894203296564, 4.00237609385328, 5.004426015748545),
    "even_odd": (5.999900969154828, 6.999540195109399, 8.001004708090358),
    "delay": (2.980627961394997, 3.998936335303664, 4.992798871822099),
    "delay@2.75": (2.9806364782377783, 3.998938504878044, 4.992805873665421),
}


def pinned_config(case: str, n_nodes: int) -> ScenarioConfig:
    regime, _, tau_nz = case.partition("@")
    return ScenarioConfig(n_nodes=n_nodes, regime=regime, seed=3,
                          tau_nz=float(tau_nz) if tau_nz else None)


@pytest.mark.parametrize("case", sorted(PINNED_CROSSINGS))
def test_crossings_are_bit_identical_to_pinned_values(case):
    st = NetworkState(pinned_config(case, 2000))
    assert tuple(run_phase(st).crossing for _ in range(3)) == PINNED_CROSSINGS[case]


# Two full 1 << 17-node blocks and a partial one, seed 3: the first two
# primary crossings and the SHA-256 of the residuals and histories after them.
# A seam error in any block draw, fit, sum or window roll changes them.
# Retaken when windows became a shared history plus float32 jitter, once the
# parent-arithmetic oracle matched the crossings. Delay's digest was retaken
# when its history lost the boundary row, which only replayed the grid. The
# cases are PINNED_CROSSINGS' and were retaken with them.
MULTI_BLOCK_N = 2 * (1 << 17) + 2001
MULTI_BLOCK_PINS = {
    "no_delay": ((3.0001959980608546, 4.00020555675703),
                 "9004663c7dd0fdbb6d4b8f87231ac0a5c999a0390103ef389d853788482ca79f"),
    "even_odd": ((5.999783834950708, 6.999819175096504),
                 "0735d1ee6c1940548b6aed4af464e14437520fca325030e924871032330954de"),
    "delay": ((3.00032838163661, 3.999602203240296),
              "e282508a455401f102575c6a186529b320d42d092e5cb10751f158c2d3d2f5dc"),
    "delay@2.75": ((3.0003285495226404, 3.999602093884502),
                   "26bc832bafefec777280ab49c25a58648e63dde8250e85c85a2f833a1c94255d"),
}


@pytest.mark.parametrize("case", sorted(MULTI_BLOCK_PINS))
def test_multi_block_phases_match_whole_vectors_and_pinned_values(case):
    assert 2 * engine._NODE_BLOCK < MULTI_BLOCK_N < 3 * engine._NODE_BLOCK
    st = NetworkState(pinned_config(case, MULTI_BLOCK_N))
    # every receiver, both delay probes included, finds exactly the crossing
    # of the events a whole-vector pass builds
    center = st.next_center
    expected = {node: find_zero_crossing(events, st.pulse, center + offset, st.channel.gate)
                for node, events, offset in whole_vector_events(st)}
    assert len(expected) == (2 if st.config.regime == "delay" else 1)
    first = run_phase(st)
    assert first.crossings == expected
    crossings = (first.crossing, run_phase(st).crossing)
    digest = hashlib.sha256(windows(st).tobytes() + st.history.tobytes()).hexdigest()
    assert (crossings, digest) == MULTI_BLOCK_PINS[case]


def assert_same_crossings(got, want):
    assert list(got) == list(want)
    for node, report in got.items():
        assert (report.ok, report.gated, report.no_crossing) == (
            want[node].ok, want[node].gated, want[node].no_crossing)
        if report.ok:
            assert abs(report.location - want[node].location) <= 1e-8


# a nonzero interior offset, so interior and boundary nodes fire from different frames
ASSUMED_OFFSETS = {"no_delay": {}, "even_odd": {}, "delay": {"epsilon": 0.02}}


@pytest.mark.parametrize("n", [2000, MULTI_BLOCK_N])
@pytest.mark.parametrize("regime", ["no_delay", "even_odd", "delay"])
def test_phases_match_the_parent_arithmetic(regime, n):
    # Offsets cancel and jitter is kept in float32: the crossings of absolute
    # float64 windows with drawn offsets agree to rounding, in one block and
    # across block seams.
    config = ScenarioConfig(n_nodes=n, regime=regime, seed=3, **ASSUMED_OFFSETS[regime])
    st, parent = NetworkState(config), ParentArithmetic(config)
    for _ in range(3):
        assert_same_crossings(run_phase(st).crossings, parent.run_phase())


@pytest.mark.parametrize("regime", ["no_delay", "even_odd", "delay"])
def test_holdover_matches_the_parent_arithmetic(regime):
    # a phase gated between crossings: every listener holds over, delay's
    # interior and boundary histories alike, and the crossings after it agree
    config = ScenarioConfig(n_nodes=2000, regime=regime, seed=3, **ASSUMED_OFFSETS[regime])
    st, parent = NetworkState(config), ParentArithmetic(config)
    for gate in (0.0, 0.0, 1e9, 0.0, 0.0):
        set_gate(gate, st, parent.state)
        got = run_phase(st)
        assert got.failed == (gate > 0.0)
        assert_same_crossings(got.crossings, parent.run_phase())


def test_multi_block_gated_holdover_matches_the_parent_arithmetic():
    # seed 1 gates the first phase of this network (see the holdover test above)
    gated_channel = ChannelModel(Region(), max_range=0.25, gate=1.0)
    config = ScenarioConfig(n_nodes=MULTI_BLOCK_N, sigma2=1e-4, seed=1, channel=gated_channel)
    st, parent = NetworkState(config), ParentArithmetic(config)
    for gate in (1.0, 0.0, 0.0):
        set_gate(gate, st, parent.state)
        got = run_phase(st)
        assert got.failed == (gate > 0.0)
        assert_same_crossings(got.crossings, parent.run_phase())


def stored_per_group(st):
    """How many of each listening group's jitter columns a holdover stored."""
    return [sum(isinstance(source, np.ndarray) for source in sources) for sources in st.columns]


@pytest.mark.parametrize("regime, seed", [("no_delay", 1), ("even_odd", 20), ("delay", 3)])
def test_long_holdover_matches_the_parent_arithmetic(regime, seed):
    # 2m + 1 gated phases in a row, then m + 1 good ones per listening group,
    # across block seams: the stored jitter columns give the crossings of
    # absolute windows and the bytes of jitter windows kept whole, and a
    # group's stored columns drop out once it has heard m good phases. The
    # seeds keep no_delay's and even_odd's receivers off the edge: cheap gain draws.
    config = ScenarioConfig(n_nodes=MULTI_BLOCK_N, regime=regime, seed=seed,
                            **ASSUMED_OFFSETS[regime])
    st, parent = NetworkState(config), ParentArithmetic(config)
    m = config.m
    heard = [[] for _ in st.groups]       # per listening group: which of its phases failed
    for gate in [1e9] * (2 * m + 1) + [0.0] * ((m + 1) * len(st.groups)):
        group = st.schedule.listen.start or 0
        set_gate(gate, st, parent.state)
        got = run_phase(st)
        assert got.failed == (gate > 0.0)
        assert_same_crossings(got.crossings, parent.run_phase())
        assert windows(st).tobytes() == parent.residuals.tobytes()
        heard[group].append(got.failed)
        assert stored_per_group(st) == [sum(failed[-m:]) for failed in heard]
    assert stored_columns(st) == []


@pytest.mark.parametrize("regime", ["no_delay", "even_odd"])
def test_a_window_pass_yields_each_block_once_in_node_order(regime):
    # Readout-stream and stored columns side by side (and init columns in
    # even_odd), across block seams: a pass yields every node block once, from
    # row 0, in the one window buffer, and a pass left unfinished leaves
    # nothing behind that changes the next one.
    st = NetworkState(ScenarioConfig(n_nodes=MULTI_BLOCK_N, regime=regime, seed=3))
    for gate in (0.0, 1e9, 0.0):
        set_gate(gate, st)
        run_phase(st)
    assert stored_columns(st)
    seen = []
    for rows, window in st.windows():
        assert window.shape == (rows.stop - rows.start, st.config.m)
        assert np.shares_memory(window, st._window)
        seen.append(rows)
    assert seen == list(engine._node_blocks(st.n))
    whole = windows(st)
    for rows, window in st.windows():
        if rows.start > 0:
            break                         # abandon the pass after its first block
    assert windows(st).tobytes() == whole.tobytes()


@pytest.mark.parametrize("regime, seed", [("no_delay", 1), ("even_odd", 3)])
def test_a_permanent_outage_stores_at_most_m_columns_per_group(regime, seed):
    # Every phase holds over, 2000 in a row: each group's window keeps at most
    # m stored columns, the oldest dropping out as the newest comes in. The
    # seeds keep the receivers off the edge, so a phase costs well under 1 ms.
    st = NetworkState(ScenarioConfig(n_nodes=20, regime=regime, seed=seed))
    set_gate(1e9, st)
    for _ in range(2000):
        assert run_phase(st).failed
        assert max(stored_per_group(st)) <= st.config.m
    assert stored_per_group(st) == [st.config.m] * len(st.groups)
    assert np.isfinite(windows(st)).all() and np.isfinite(st.history).all()


@pytest.mark.parametrize("regime", ["no_delay", "even_odd", "delay"])
def test_one_gated_phase_stores_at_most_one_column_per_listening_row(regime):
    st = NetworkState(ScenarioConfig(n_nodes=2000, regime=regime, seed=3))
    listening = len(range(st.n)[st.schedule.listen])
    set_gate(1e9, st)
    assert run_phase(st).failed
    (column,) = stored_columns(st)
    assert column.dtype == np.float32 and column.size == listening
    assert held_bytes(st) <= 4 * listening + st.history.nbytes


def test_multi_block_scan_fallback_matches_the_scan_of_whole_events():
    # seed 1 keeps node 0's coverage disk inside the region: cheap gain draws
    st = NetworkState(ScenarioConfig(n_nodes=MULTI_BLOCK_N, seed=1, tau_nz=0.2))
    ((_, events, _),) = whole_vector_events(st)
    joined, center = no_delay_phase_events(st)
    assert np.array_equal(joined.arrival, events.arrival)
    assert np.array_equal(joined.scale, events.scale)
    assert np.ptp(events.arrival) >= st.pulse.tau_nz / 2
    expected = scan_crossing(events, st.pulse, center)
    assert expected.ok
    assert_matches_scan(run_phase(st).crossings[0], expected)


def test_segment_search_holds_at_most_four_event_vectors_beyond_its_evaluator():
    # the breakpoints (two event vectors) and block temporaries; the evaluator
    # keeps its sorted arrivals and both prefix sums
    st = NetworkState(ScenarioConfig(n_nodes=MULTI_BLOCK_N, seed=1, tau_nz=0.2))
    events, center = no_delay_phase_events(st)
    assert np.ptp(events.arrival) >= st.pulse.tau_nz / 2
    evaluator = AggregateEvaluator(events, st.pulse)
    held = sum(a.nbytes for a in (evaluator._arrivals, evaluator._sin_prefix,
                                  evaluator._cos_prefix))
    peak = traced_peak(lambda: find_zero_crossing(events, st.pulse, center))
    assert peak - held <= 4 * 8 * events.count


@pytest.mark.parametrize("regime, seed", [("no_delay", 1), ("even_odd", 4)])
def test_multi_block_gated_phase_rolls_in_the_holdover_fit(regime, seed):
    # each seed puts the first phase's receiver where its gain draws are cheap
    gated_channel = ChannelModel(Region(), max_range=0.25, gate=1.0)
    st = NetworkState(ScenarioConfig(n_nodes=MULTI_BLOCK_N, sigma2=1e-4, seed=seed,
                                     regime=regime, channel=gated_channel))
    heard = 1 - st.next_center % 2 if regime == "even_odd" else 0
    listen = np.arange(st.n) % 2 == heard if regime == "even_odd" else np.ones(st.n, bool)
    before, history = windows(st), st.history.copy()
    rep = run_phase(st)
    assert rep.failed and rep.crossings[rep.primary].gated
    assert_rolled_holdover(st, before, history, listen, [heard])


def assert_rolled_holdover(st, before, history, listen, heard):
    """Each listener rolled in its jitter's fit, each listening history its own fit."""
    m = st.config.m
    after = windows(st)
    assert np.array_equal(after[listen, :-1], before[listen, 1:])
    assert np.array_equal(after[listen, -1], fit(before[listen], m).phi_hat.astype(np.float32))
    assert np.array_equal(after[~listen], before[~listen])
    assert np.array_equal(st.history[heard, :-1], history[heard, 1:])
    assert np.array_equal(st.history[heard, -1], fit(history[heard], m).phi_hat)
    assert np.array_equal(np.delete(st.history, heard, 0), np.delete(history, heard, 0))


@pytest.mark.parametrize("regime", ["no_delay", "even_odd", "delay"])
def test_closed_form_crossings_agree_with_the_scan(monkeypatch, regime):
    # Every receiver of every phase, both delay probes included, takes the
    # closed form; the scan over the same events finds the same crossing.
    seen = []
    closed_form = engine.find_zero_crossing

    def both(events, pulse, search_center, gate=0.0):
        report = closed_form(events, pulse, search_center, gate)
        whole = join(events)
        assert np.ptp(whole.arrival) < pulse.tau_nz / 2
        seen.append((report, scan_crossing(whole, pulse, search_center, gate)))
        return report

    monkeypatch.setattr(engine, "find_zero_crossing", both)
    st = NetworkState(ScenarioConfig(n_nodes=2000, regime=regime, seed=3))
    run_phases(st, 3)
    assert len(seen) == 3 * (2 if regime == "delay" else 1)
    for report, scan in seen:
        assert report.ok
        assert_matches_scan(report, scan)


def test_support_narrower_than_twice_the_spread_takes_the_scan(monkeypatch):
    # a user tau_nz below twice the arrival spread: find_zero_crossing takes
    # the segment search, which finds the scan's crossing
    seen = []
    search = engine.find_zero_crossing

    def scanned(events, pulse, search_center, gate=0.0):
        report = search(events, pulse, search_center, gate)
        whole = join(events)
        assert np.ptp(whole.arrival) >= pulse.tau_nz / 2
        assert_matches_scan(report, scan_crossing(whole, pulse, search_center, gate))
        seen.append(report)
        return report

    monkeypatch.setattr(engine, "find_zero_crossing", scanned)
    st = NetworkState(ScenarioConfig(n_nodes=2000, seed=3, tau_nz=0.2))
    reports = run_phases(st, 2)
    assert len(seen) == 2 and all(r.ok for r in seen)
    assert all(abs(rep.crossing - rep.center) < 0.02 for rep in reports)


def test_even_odd_aggregate_uses_the_reporting_listeners_gain_law():
    st = NetworkState(ScenarioConfig(n_nodes=2000, regime="even_odd", seed=3))
    assert sorted(sched.receivers[0][0] for sched in st.schedules) == [0, 1]
    for sched in st.schedules:
        node, law, _ = sched.receivers[0]
        assert (law.receiver.x, law.receiver.y) == tuple(st.positions[node])


def test_gate_blocks_weak_aggregate():
    gated_channel = ChannelModel(Region(), max_range=0.25, gate=1.0)
    cfg = ScenarioConfig(n_nodes=200, sigma2=1e-4, seed=4, channel=gated_channel)
    st = NetworkState(cfg)
    before, history = windows(st), st.history.copy()
    rep = run_phase(st)
    assert rep.failed
    assert rep.crossings[0].gated
    assert rep.crossing is None
    # holdover: each window rolls in its own extrapolation of the missed instant
    assert_rolled_holdover(st, before, history, np.ones(st.n, bool), [0])
    assert not any(cr.ok for cr in rep.crossings.values())
    # the phase counter still advances so later phases stay on schedule
    assert st.next_center == 4


@pytest.mark.parametrize("regime", ["no_delay", "even_odd", "delay"])
def test_schedule_recovers_after_a_gated_phase(regime):
    # Gate one phase so its crossing is missed; holdover must keep every
    # later crossing on its instant instead of a phase behind.
    st = NetworkState(ScenarioConfig(n_nodes=2000, regime=regime, seed=3))
    run_phases(st, 2)
    channel = st.channel
    st.channel = replace(channel, gate=1e9)
    assert run_phase(st).failed
    st.channel = channel
    reports = run_phases(st, 4)
    assert not any(rep.failed for rep in reports)
    offsets = [rep.crossing - rep.center for rep in reports]
    assert np.all(np.abs(offsets) < 0.05), offsets


def test_no_delay_memory_stays_within_a_few_node_vectors():
    # Seed 0 puts node 0's coverage disk across an edge, so the phase's gain
    # draws go through the coverage bisection.
    n = 200_000
    vector = 8 * n
    st = NetworkState(ScenarioConfig(n_nodes=n, regime="no_delay", seed=0))
    x0, y0 = st.positions[0]
    assert st.rx_gain_dist.effective_range > st.config.region.edge_distance(x0, y0)
    # no node vector is kept: jitter windows and skews are redrawn, the placement is not held
    assert held_bytes(st) <= 0.05 * vector
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = run_phase(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.crossing is not None
    # the phase works in 1 << 17-node blocks; fires, gain draws and the
    # coverage bisection's workspace peak at about 3.0 of these at this n,
    # which holds only while fit casts the float32 jitter a block at a time
    # and a block's redrawn skews are released before its gains are drawn
    assert peak - entry <= 3.3 * vector


def test_phase_memory_does_not_grow_with_the_node_count():
    # Seed 3 keeps node 0's coverage disk inside the region at both sizes, so
    # the gain draws take the closed form; a phase holds one block's working
    # set, whatever the node count.
    peaks = []
    for n in (200_000, 800_000):
        st = NetworkState(ScenarioConfig(n_nodes=n, regime="no_delay", seed=3))
        x0, y0 = st.positions[0]
        assert st.rx_gain_dist.effective_range <= st.config.region.edge_distance(x0, y0)
        peaks.append(traced_peak(lambda: run_phase(st)))
    assert abs(peaks[1] - peaks[0]) <= 1 << 20


def test_delay_phase_memory_does_not_grow_with_the_node_count():
    # Each probe's pass redraws a block's placement for its interior mask and
    # adds the block's delays into its fire times in place, so a delay phase
    # too holds one block's working set, whatever the node count.
    peaks = []
    for n in (200_000, 800_000):
        st = NetworkState(ScenarioConfig(n_nodes=n, regime="delay", seed=3))
        assert n > engine._NODE_BLOCK and len(st.schedule.receivers) == 2
        peaks.append(traced_peak(lambda: run_phase(st)))
    assert abs(peaks[1] - peaks[0]) <= 1 << 20


BLOCK_BUFFERS = {"_window", "_draws"}


def stored_columns(st):
    """The jitter columns a holdover stored, over every listening group."""
    return [source for sources in st.columns for source in sources
            if isinstance(source, np.ndarray)]


def block_buffer_bytes(st) -> int:
    """Bytes of the buffers a phase redraws windows into, at most one block each."""
    assert st._window.shape[0] <= engine._NODE_BLOCK
    assert st._draws.size <= max(engine._NODE_BLOCK, st.config.m)
    return st._window.nbytes + st._draws.nbytes


def held_bytes(st) -> int:
    """Bytes the state holds in arrays: its array attributes beside the block buffers,
    and any stored jitter columns."""
    block_buffer_bytes(st)
    return (sum(v.nbytes for name, v in vars(st).items()
                if isinstance(v, np.ndarray) and name not in BLOCK_BUFFERS)
            + sum(column.nbytes for column in stored_columns(st)))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_fit_and_crossing_work_in_blocks():
    # fit holds its two outputs plus block temporaries, the float32 rows'
    # float64 cast among them; a pass that redraws every block's windows into
    # the state's buffers holds none; the closed-form crossing holds block
    # temporaries only
    n = 200_000
    vector = 8 * n
    st = NetworkState(ScenarioConfig(n_nodes=n, regime="no_delay", seed=0))
    events, center = no_delay_phase_events(st)
    residuals = windows(st)
    assert residuals.dtype == np.float32
    assert traced_peak(lambda: fit(residuals, 3.0)) <= 2.6 * vector

    def redraw_pass():
        for _ in st.windows():
            pass

    for _ in range(2):               # init columns, then a readout stream among them
        assert traced_peak(redraw_pass) <= 0.01 * vector
        run_phase(st)
    assert traced_peak(lambda: find_zero_crossing(events, st.pulse, center)) <= 0.3 * vector


@pytest.mark.parametrize("regime", ["no_delay", "even_odd"])
def test_no_delay_build_stays_within_a_few_node_vectors(regime):
    # No node vector is kept. The build reads the placement rows of nodes 0
    # and 1 alone and draws no skews or jitter; at this n it is mostly the
    # block buffers (1.64 vectors). even_odd's roles are row slices, so it
    # keeps no mask beside them.
    n = 200_000
    config = ScenarioConfig(n_nodes=n, regime=regime, seed=0)
    NetworkState(replace(config, n_nodes=10))  # pays the first build's lazy imports
    assert traced_peak(lambda: NetworkState(config)) <= 1.7 * 8 * n


def test_delay_build_stays_within_a_few_node_vectors():
    # The placement is streamed a small block at a time through both probe
    # searches and the state keeps no interior mask (a phase redraws it per
    # block), so the build peaks near the block buffers (1.64 vectors).
    n = 200_000
    config = ScenarioConfig(n_nodes=n, regime="delay", seed=0)
    NetworkState(replace(config, n_nodes=10))
    built = []
    assert traced_peak(lambda: built.append(NetworkState(config))) <= 1.7 * 8 * n
    assert held_bytes(built[0]) <= 0.05 * 8 * n


@pytest.mark.parametrize("regime", ["no_delay", "even_odd", "delay"])
def test_a_ten_million_node_build_holds_only_block_buffers(regime):
    # 10^7 nodes: the state holds the two block buffers (2.5 MiB at m = 3) and
    # small per-receiver data; no regime allocates anything node-sized.
    config = ScenarioConfig(n_nodes=10_000_000, regime=regime, seed=3)
    NetworkState(replace(config, n_nodes=10))
    built = []
    assert traced_peak(lambda: built.append(NetworkState(config))) < 4 << 20
    assert held_bytes(built[0]) < 1 << 10


@pytest.mark.parametrize("regime", ["no_delay", "even_odd", "delay"])
def test_state_keeps_only_the_receivers_positions(regime):
    config = ScenarioConfig(n_nodes=500, regime=regime, seed=3)
    st = NetworkState(config)
    placed = place_nodes(config.region, config.n_nodes, substream(config.seed, DOMAIN_PLACEMENT))
    laws = {node: law for sched in st.schedules for node, law, _ in sched.receivers}
    probes = {node for node, _, _ in st.schedule.receivers}
    assert set(st.positions) == set(laws) == {"no_delay": {0}, "even_odd": {0, 1},
                                              "delay": probes}[regime]
    for node, xy in st.positions.items():
        assert xy == tuple(placed[node]) == (laws[node].receiver.x, laws[node].receiver.y)
    # no n-sized array beyond the block buffers, here one block of the whole network
    assert block_buffer_bytes(st) == 4 * config.m * config.n_nodes + 8 * config.n_nodes
    kept = {name for name, v in vars(st).items()
            if isinstance(v, np.ndarray) and v.shape[0] == config.n_nodes}
    assert kept - BLOCK_BUFFERS == set()
    assert windows(st).dtype == np.float32


# Seeds per node count that give the delay regime an interior node: at n = 2,
# seed 9 puts node 0 at the edge and node 1 inside.
ORACLE_SEEDS = {1: 1, 2: 9, 2 * engine._NODE_BLOCK + 3: 3}


@pytest.mark.parametrize("regime, n", [(regime, n) for n in sorted(ORACLE_SEEDS)
                                       for regime in ("no_delay", "even_odd", "delay")
                                       if (regime, n) != ("even_odd", 1)])  # needs both parities
def test_build_matches_the_whole_placement_and_skews(regime, n):
    # The build reads placement rows alone and redraws skews per block; both
    # must be what whole-vector draws from the same streams give.
    config = ScenarioConfig(n_nodes=n, regime=regime, seed=ORACLE_SEEDS[n])
    st = NetworkState(config)
    placed = place_nodes(config.region, n, substream(config.seed, DOMAIN_PLACEMENT))
    skews = config.population.sample(n, substream(config.seed, DOMAIN_INIT))
    skews[0] = 1.0
    for rows in engine._node_blocks(n):
        assert np.array_equal(st.skews(rows), skews[rows])
    receivers = {"no_delay": [0], "even_odd": [1, 0], "delay": []}[regime]
    if regime == "delay":
        region = config.region
        interior = region.edge_distance(placed[:, 0], placed[:, 1]) >= config.channel.max_range
        assert np.array_equal(st.interior(slice(0, n)), interior)

        def first_nearest(rows, point):
            off = placed - np.array(point)
            dist2 = np.einsum("ij,ij->i", off, off)
            dist2[~rows] = np.inf
            return int(np.argmin(dist2))

        receivers = [first_nearest(interior, (region.width / 2, region.height / 2))]
        if not interior.all():
            receivers.append(first_nearest(~interior, (0.0, region.height / 2)))
    got = [node for sched in st.schedules for node, _, _ in sched.receivers]
    assert got == receivers
    laws = {node: law for sched in st.schedules for node, law, _ in sched.receivers}
    assert set(st.positions) == set(receivers)
    for node, xy in st.positions.items():
        assert xy == tuple(placed[node]) == (laws[node].receiver.x, laws[node].receiver.y)


def test_delay_probe_search_keeps_the_first_of_tied_nodes(monkeypatch):
    # Ties across and within the blocks of the placement pass go to the first
    # node, as a search over the whole placement picks it.
    block = engine._BUILD_BLOCK
    n = 3 * block
    placed = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 2))
    centre, mid_edge = [block + 5, block + 9, 2 * block], [7, 2 * block + 3]
    placed[centre] = (0.5, 0.5)
    placed[mid_edge] = (0.0, 0.5)
    monkeypatch.setattr(engine, "place_nodes",
                        lambda region, count, rng, rows: placed[rows].copy())
    st = NetworkState(ScenarioConfig(n_nodes=n, regime="delay", seed=0))
    assert [node for node, _, _ in st.schedule.receivers] == [block + 5, 7]
    assert st.positions == {block + 5: (0.5, 0.5), 7: (0.0, 0.5)}


def test_phase_reports_hold_no_node_vectors():
    # A run keeps every report, so a report must not keep anything n-sized:
    # eight phases may retain less than one node vector beyond the state.
    n = 100_000
    st = NetworkState(ScenarioConfig(n_nodes=n, seed=1))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        reports = run_phases(st, 8)
        retained = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert len(reports) == 8 and not any(rep.failed for rep in reports)
    assert retained < 8 * n


# -- even/odd phases -----------------------------------------------------

def test_even_odd_noiseless_exact(built_fires):
    # unit gains: with the default range the reporting listener hears none of
    # its five transmitters with probability 0.804^5 = 0.335
    st = NetworkState(quiet_config(n_nodes=10, regime="even_odd",
                                   channel=ChannelModel(Region(), np.inf)))
    rows = np.arange(st.n)
    listen = st.schedule.listen
    rep, transmit, fires = even_odd_phase(st, built_fires)
    active = rows % 2 == 0
    assert np.array_equal(rows[transmit], rows[active])
    assert np.array_equal(rows[listen], rows[~active])
    assert np.allclose(fires[active], 6.0, atol=1e-10)
    assert np.all(np.isnan(fires[~active]))
    assert rep.crossing == pytest.approx(6.0, abs=1e-9)
    assert abs(rep.crossing - rep.center) < 1e-9


def test_even_odd_alternates_roles(built_fires):
    st = NetworkState(ScenarioConfig(n_nodes=40, sigma2=1e-4,
                                     regime="even_odd", seed=6))
    fired = np.zeros(40)
    for _ in range(4):
        _, _, fires = even_odd_phase(st, built_fires)
        fired += np.isfinite(fires)
    assert np.array_equal(fired, np.full(40, 2.0))


def test_even_odd_fire_variance(built_fires):
    cfg = ScenarioConfig(n_nodes=100_000, m=3, sigma2=1e-2,
                         regime="even_odd", seed=51)
    st = NetworkState(cfg)
    rep, _, fires = even_odd_phase(st, built_fires)
    active = np.isfinite(fires)
    active[0] = False
    scaled = (fires[active] - rep.center) * st.skews(slice(0, st.n))[active]
    # m = 3 alternating design: sigma2 * (1 + 35/24)
    assert cfg.fire_variance == pytest.approx(1e-2 * (1 + 35 / 24), rel=1e-12)
    assert np.var(scaled) == pytest.approx(cfg.fire_variance, rel=0.03)


def test_even_odd_needs_both_parities():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_nodes=1, regime="even_odd")


# -- delay phases --------------------------------------------------------

def test_delay_with_negligible_delays_matches_no_delay():
    fast = ChannelModel(Region(), max_range=0.25, wave_speed=1e9)
    cfg = quiet_config(n_nodes=400, regime="delay", channel=fast, seed=19)
    st = NetworkState(cfg)
    rep = run_phase(st)
    assert not rep.failed
    assert rep.crossing == pytest.approx(rep.center, abs=1e-6)
    for node, _, offset in st.schedule.receivers:
        assert abs(rep.crossings[node].location - (rep.center + offset)) < 1e-6


def test_delay_probes_draw_independently_of_each_other():
    # Each receiver's channel draws and the readings have their own streams,
    # so dropping the boundary probe leaves the interior probe's crossing and
    # every residual and history bit for bit as they were.
    cfg = ScenarioConfig(n_nodes=3000, sigma2=1e-4, regime="delay", seed=7)
    both, alone = NetworkState(cfg), NetworkState(cfg)
    (sched,) = alone.schedules
    alone.schedules = (replace(sched, receivers=sched.receivers[:1]),)
    probe = sched.receivers[0][0]
    assert len(sched.receivers) == 2 and both.interior(slice(probe, probe + 1))[0]
    full, single = run_phase(both), run_phase(alone)
    assert list(single.crossings) == [probe]
    assert single.crossings[probe] == full.crossings[probe]
    assert np.array_equal(windows(alone), windows(both))
    assert np.array_equal(alone.history, both.history)


def test_delay_compensated_crossing_stays_put():
    cfg = ScenarioConfig(n_nodes=20_000, sigma2=1e-4, regime="delay",
                         seed=7, oracle_alpha=True)
    st = NetworkState(cfg)
    rep = run_phase(st)
    probe = rep.primary
    assert st.interior(slice(probe, probe + 1))[0]
    assert abs(rep.crossings[probe].location - rep.center) < 0.01


def test_delay_estimated_alpha_still_centred():
    cfg = ScenarioConfig(n_nodes=100_000, sigma2=1e-4, regime="delay", seed=1)
    st = NetworkState(cfg)
    rep = run_phase(st)
    assert abs(rep.crossing - rep.center) < 0.005


def test_delay_history_reads_the_interior_crossing():
    cfg = ScenarioConfig(n_nodes=3000, sigma2=0.0, regime="delay", seed=7,
                         population=SkewPopulation(1.0, 1.0), epsilon=0.0)
    st = NetworkState(cfg)
    rep = run_phase(st)
    # the one listening group's history reads the interior crossing; boundary
    # nodes are handed the instant and keep no history
    assert st.history.shape == (1, cfg.m)
    assert st.history[0, -1] == rep.crossing
    assert not windows(st).any()


def test_delay_boundary_nodes_fire_on_the_instant(built_fires):
    # Noiseless interior windows read at epsilon past each instant and the fit
    # predicts at step m - epsilon; boundary nodes are handed the instant. So
    # every node, skewed or not, fires on the instant itself.
    cfg = ScenarioConfig(n_nodes=3000, sigma2=0.0, regime="delay", seed=7,
                         epsilon=0.03, compensate_delay=False)
    st = NetworkState(cfg)
    assert np.any(~st.interior(slice(0, st.n))) and np.ptp(st.skews(slice(0, st.n))) > 0.01
    center = st.next_center
    receivers = st.schedule.receivers
    _, _, channels = phase_draws(st)
    run_phase(st)
    # one block and one pass per receiver, each building its arrivals once
    assert len(built_fires) == len(receivers) == 2
    for arrivals, (node, _, _) in zip(built_fires, receivers):
        delays, _ = channels[node]
        assert np.allclose(arrivals - delays, center, rtol=0.0, atol=1e-9)


def test_uncompensated_fixed_point_is_gain_weighted_delay():
    # linear gain K(r) = 1 - r/R over an interior disk: the crossing settles
    # where the gain-weighted mean delay sits,
    #   E[K D] / E[K] = (int (1-r/R) r^2 dr) / (c int (1-r/R) r dr) = R/(2c)
    cfg = ScenarioConfig(n_nodes=1, regime="delay", sigma2=1e-4, seed=42,
                         oracle_alpha=True, compensate_delay=False)
    rep = estimate_epsilon(cfg, n_seeds=12, n_nodes=4000, tol=2e-3, max_iter=10)
    assert isinstance(rep, EpsilonReport)
    assert rep.converged
    assert rep.epsilon == pytest.approx(0.125, abs=0.005)
    assert rep.boundary_epsilon is not None


def test_boundary_epsilon_is_the_rounds_mean_boundary_probe_offset():
    # one round: the report's boundary offset is the mean crossing offset of
    # the boundary probes of that round's child networks, one phase each
    cfg = ScenarioConfig(n_nodes=1, regime="delay", sigma2=1e-4, seed=42, epsilon=0.01)
    rep = estimate_epsilon(cfg, n_seeds=4, n_nodes=2000, max_iter=1)
    offsets = []
    for s in range(4):
        child = replace(cfg, n_nodes=2000, seed=derive_seed(cfg.seed, DOMAIN_SEED_SWEEP, 0, s))
        phase = run_phase(NetworkState(child))
        (boundary,) = set(phase.crossings) - {phase.primary}
        assert phase.crossings[boundary].ok
        offsets.append(phase.crossings[boundary].location - phase.center)
    assert rep.iterations == 1
    assert rep.boundary_epsilon == np.mean(offsets)


def test_epsilon_estimation_refuses_other_regimes_and_no_seeds():
    with pytest.raises(ConfigurationError):
        estimate_epsilon(ScenarioConfig(n_nodes=1))
    with pytest.raises(ConfigurationError):
        estimate_epsilon(ScenarioConfig(n_nodes=1, regime="delay"), n_seeds=0)


def test_epsilon_estimation_stops_when_an_interior_probe_finds_no_crossing():
    # a gate far above every child's peak: each first-round interior probe is gated
    cfg = ScenarioConfig(n_nodes=1, regime="delay", seed=3,
                         channel=ChannelModel(Region(), 0.25, gate=0.6))
    rep = estimate_epsilon(cfg, n_seeds=3, n_nodes=2000, max_iter=3)
    assert rep == EpsilonReport(epsilon=0.0, boundary_epsilon=None, iterations=1,
                                converged=False, history=(0.0,))


def test_compensated_fixed_point_is_near_zero():
    cfg = ScenarioConfig(n_nodes=1, regime="delay", sigma2=1e-4, seed=42,
                         oracle_alpha=True)
    rep = estimate_epsilon(cfg, n_seeds=12, n_nodes=4000, tol=1.5e-3, max_iter=10)
    assert rep.converged
    assert abs(rep.epsilon) < 0.004


def test_epsilon_estimate_ignores_thread_count():
    cfg = ScenarioConfig(n_nodes=1, regime="delay", sigma2=1e-4, seed=13,
                         oracle_alpha=True, compensate_delay=False)
    serial = estimate_epsilon(cfg, n_seeds=8, n_nodes=1500, tol=5e-3,
                              max_iter=4, threads=1)
    pooled = estimate_epsilon(cfg, n_seeds=8, n_nodes=1500, tol=5e-3,
                              max_iter=4, threads=4)
    assert serial.history == pooled.history
    assert serial.epsilon == pooled.epsilon


# -- structure and validation --------------------------------------------

def test_phase_reports_are_sequential():
    st = NetworkState(ScenarioConfig(n_nodes=30, sigma2=1e-4, seed=2))
    reports = run_phases(st, 3)
    assert [r.phase_index for r in reports] == [0, 1, 2]
    assert [r.center for r in reports] == [3.0, 4.0, 5.0]


def test_regime_runner_mismatch_is_rejected():
    st = NetworkState(ScenarioConfig(n_nodes=8, sigma2=0.0, seed=1))
    with pytest.raises(ConfigurationError):
        run_phase_delay(st)
    eo = NetworkState(ScenarioConfig(n_nodes=8, sigma2=0.0,
                                     regime="even_odd", seed=1))
    with pytest.raises(ConfigurationError):
        no_delay_phase_events(eo)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_nodes=0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_nodes=5, m=1)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_nodes=5, sigma2=-0.1)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_nodes=5, regime="sometimes")
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_nodes=5, regime="delay", channel=ChannelModel(Region(), np.inf))
    for field_values in ({"sigma2": np.nan}, {"sigma2": np.inf},
                         {"tau_nz": np.nan}, {"epsilon": np.nan}, {"seed": -1}):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_nodes=5, **field_values)


def test_delay_regime_requires_interior_nodes():
    wide = ChannelModel(Region(), max_range=0.6)
    with pytest.raises(ConfigurationError):
        NetworkState(ScenarioConfig(n_nodes=50, regime="delay",
                                    channel=wide, seed=3))
