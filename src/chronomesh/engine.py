"""Network-scale synchronization phases.

A scenario holds N nodes on a rectangular region. Each node keeps a window of
m past readings of the shared firing instants, taken through its own clock.
A phase consists of: every transmitting node extrapolates its window to the
next firing instant, fires a pulse there, the aggregate waveform is formed at
one or more receivers, its first downward zero crossing is located, and
windows are refreshed with a reading of that crossing.

Three regimes are supported:

- ``no_delay``: all nodes fire every phase, propagation is instantaneous and
  the whole network shares one crossing. Pathloss still scales amplitudes,
  drawn once per phase for a representative receiver, because with zero delay
  the crossing does not depend on who listens.
- ``even_odd``: nodes are split by parity; each phase one half fires while
  the other half listens, so a node never has to hear through its own
  transmission. Windows hold every second instant, which changes the
  extrapolation design but not the steady-state picture.
- ``delay``: propagation takes time. Transmitters subtract a random
  compensation delay drawn from the interior reception law, amplitudes carry
  the coupled gains of both legs, and the aggregate differs per receiver.
  Evaluating N receivers each phase would cost O(N^2), so only a small probe
  set (one interior node plus boundary probes) actually forms its waveform;
  interior nodes share the interior probe's crossing (the law is position
  independent inside), while boundary windows are refreshed at their assumed
  offset, which is exactly the steady-state premise the probes test.

Per-phase randomness comes from ``substream(seed, DOMAIN_PHASE, index)`` and
is consumed in a fixed order: fire jitter, compensation draws (delay regime),
per-probe channel draws, observation jitter. Keeping the order fixed makes a
phase reproducible regardless of how its report is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .channel import (
    ChannelModel,
    DelayDistribution,
    PathlossDistribution,
    linear_model,
    sample_fix,
)
from .clock import ClockParams, SkewPopulation
from .errors import ConfigurationError, DomainError
from .estimator import (
    EVEN_ODD,
    STANDARD,
    epsilon_variant,
    fit,
    predicted_variance,
    shift_to_epsilon_frame,
)
from .geometry import NodePosition, Region, place_nodes, positions_array
from .rng import DOMAIN_INIT, DOMAIN_PHASE, DOMAIN_PLACEMENT, DOMAIN_SEED_SWEEP, derive_seed, substream
from .parallel import run_indexed
from .waveform import CrossingReport, EventArray, Pulse, default_tau_nz, find_zero_crossing, sine_pulse

REGIMES = ("no_delay", "even_odd", "delay")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and advance one network.

    ``sigma2`` is the clock-readout jitter variance. ``epsilon`` is the
    offset from integer instants that interior nodes assume their crossings
    sit at (delay regime); ``boundary_epsilon`` is the same assumption for
    edge nodes, which see a thinner transmitter population. ``v_factor``
    rescales amplitudes by 1/v to model a mismatch between the believed and
    actual node count; the crossing location is invariant to it.
    """

    n_nodes: int
    m: int = 3
    sigma2: float = 1e-4
    regime: str = "no_delay"
    population: SkewPopulation = field(default_factory=SkewPopulation)
    delta_bar_range: tuple[float, float] = (-0.5, 0.5)
    region: Region = field(default_factory=Region)
    channel: ChannelModel | None = None
    tau_nz: float | None = None
    a_max: float = 1.0
    v_factor: float = 1.0
    grid_step: float | None = None
    epsilon: float = 0.0
    boundary_epsilon: float = 0.0
    oracle_alpha: bool = False
    compensate_delay: bool = True
    boundary_probe_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.m < 2:
            raise ConfigurationError("window length m must be at least 2")
        if self.sigma2 < 0.0:
            raise ConfigurationError("sigma2 must be nonnegative")
        if self.regime not in REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        lo, hi = self.delta_bar_range
        if hi < lo:
            raise ConfigurationError("delta_bar_range must be ordered")
        if self.v_factor <= 0.0:
            raise ConfigurationError("v_factor must be positive")
        if self.tau_nz is not None and self.tau_nz <= 0.0:
            raise ConfigurationError("tau_nz must be positive")
        if self.a_max <= 0.0:
            raise ConfigurationError("a_max must be positive")
        if self.boundary_probe_count < 0:
            raise ConfigurationError("boundary_probe_count must be nonnegative")
        if self.channel is not None and self.channel.region != self.region:
            raise ConfigurationError("channel region does not match scenario region")
        if self.regime == "delay":
            model = self.channel
            if model is not None and not np.isfinite(model.max_range):
                raise ConfigurationError("delay regime needs a finite channel range")

    @property
    def variant(self):
        if self.regime == "even_odd":
            return EVEN_ODD
        if self.regime == "delay":
            return epsilon_variant(self.epsilon)
        return STANDARD

    @property
    def fire_variance(self) -> float:
        """Variance of one node's firing error in its own clock units."""
        return self.sigma2 * (1.0 + predicted_variance(self.variant, self.m, 1.0))


@dataclass(frozen=True)
class NodeState:
    """Read-only view of one node, materialized on demand."""

    node_id: int
    position: NodePosition
    clock: ClockParams
    window: np.ndarray
    role: str                      # reference | member | interior | boundary
    parity: int
    epsilon_i: float
    alpha_known: float | None      # boundary nodes track their skew exactly


@dataclass(frozen=True)
class PhaseReport:
    """Outcome of one phase."""

    phase_index: int
    center: float                            # the integer instant aimed at
    primary: int                             # receiver whose crossing drives updates
    crossings: dict[int, CrossingReport]     # receiver node id -> search report
    fire_times: np.ndarray                   # reference-time fires, nan if silent
    sync_errors: np.ndarray                  # |crossing - target| per node, nan if unknown
    failed: bool

    @property
    def crossing(self) -> float | None:
        """Location of the primary receiver's crossing, if found."""
        report = self.crossings[self.primary]
        return report.location if report.ok else None


class NetworkState:
    """Mutable state of a scenario between phases.

    Node data is stored as arrays; ``state[i]`` builds a NodeState view.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        n = config.n_nodes
        region = config.region
        channel = config.channel
        if channel is None:
            channel = linear_model(region, max_range=0.25 * min(region.width, region.height))
        self.channel = channel

        rng_place = substream(config.seed, DOMAIN_PLACEMENT)
        self.positions = positions_array(place_nodes(region, n, rng_place))

        rng_init = substream(config.seed, DOMAIN_INIT)
        self.alphas = config.population.sample(n, rng_init)
        lo, hi = config.delta_bar_range
        self.deltas = rng_init.uniform(lo, hi, size=n)
        self.sigma = np.full(n, np.sqrt(config.sigma2))
        # node 0 is the reference: exact clock, zero offset, zero jitter
        self.alphas[0] = 1.0
        self.deltas[0] = 0.0
        self.sigma[0] = 0.0

        edge = region.edge_distance(self.positions[:, 0], self.positions[:, 1])
        if np.isfinite(channel.max_range):
            self.interior = edge >= channel.max_range
        else:
            self.interior = np.ones(n, dtype=bool)
        self.parity = np.arange(n) % 2

        self.eps_i = np.where(self.interior, config.epsilon, config.boundary_epsilon)

        tau_nz = config.tau_nz
        if tau_nz is None:
            tau_nz = default_tau_nz(np.sqrt(config.fire_variance), config.population.alpha_low)
            if config.regime == "delay":
                # keep the search window wider than the whole delay spread
                span = channel.delay(channel.max_range + channel.pad)
                tau_nz = max(tau_nz, 10.0 * span)
        self.pulse = sine_pulse(tau_nz, config.a_max)

        self.probes: list[int] = []
        self.rx_gain_dist: PathlossDistribution | None = None
        self.probe_dists: dict[int, DelayDistribution] = {}
        if config.regime == "delay":
            self._setup_probes()
        else:
            rx = NodePosition(*self.positions[0])
            self.rx_gain_dist = PathlossDistribution(self.channel, rx)

        self.phase_count = 0
        if config.regime == "even_odd":
            self.next_center = 2 * config.m
        else:
            self.next_center = config.m
        self._init_windows(rng_init)

    # -- construction helpers -------------------------------------------

    def _setup_probes(self):
        cfg = self.config
        region = cfg.region
        if not np.any(self.interior):
            raise ConfigurationError(
                "delay regime needs at least one interior node; "
                "shrink the channel range or enlarge the region")
        centered = self.positions - np.array([region.width / 2, region.height / 2])
        dist2 = np.einsum("ij,ij->i", centered, centered)
        dist2 = np.where(self.interior, dist2, np.inf)
        probe = int(np.argmin(dist2))
        self.probes = [probe]
        boundary = np.nonzero(~self.interior)[0]
        if boundary.size and cfg.boundary_probe_count > 0:
            # prefer mid-edge boundary nodes; corners see the thinnest population
            anchor = np.array([0.0, region.height / 2])
            off = self.positions[boundary] - anchor
            order = boundary[np.argsort(np.einsum("ij,ij->i", off, off), kind="stable")]
            self.probes.extend(int(i) for i in order[:cfg.boundary_probe_count])
        for node in self.probes:
            rx = NodePosition(*self.positions[node])
            self.probe_dists[node] = DelayDistribution(self.channel, rx)

    def _init_windows(self, rng: np.random.Generator):
        """Steady-state windows: exact past instants read with fresh jitter."""
        cfg = self.config
        m = cfg.m
        n = cfg.n_nodes
        steps = np.arange(m, dtype=float)
        # Built in two (n, m) buffers, in the arithmetic order of
        # alphas * (instants - deltas) + jitter * sigma.
        jitter = rng.normal(0.0, 1.0, size=(n, m))
        jitter *= self.sigma[:, None]
        windows = np.empty((n, m))
        if cfg.regime == "even_odd":
            # active parity holds tau0-(2m-1), ..., tau0-1; the other holds
            # tau0-2m, ..., tau0-2, so both are spaced by 2
            active = self.parity == (self.next_center % 2)
            first = np.where(active, self.next_center - (2 * m - 1), self.next_center - 2 * m)
            np.add(first[:, None], 2.0 * steps, out=windows)
        else:
            windows[:] = (self.next_center - m) + steps
            if cfg.regime == "delay":
                windows += self.eps_i[:, None]
        windows -= self.deltas[:, None]
        windows *= self.alphas[:, None]
        windows += jitter
        self.windows = windows

    # -- sequence protocol ----------------------------------------------

    @property
    def n(self) -> int:
        return self.config.n_nodes

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> NodeState:
        if not 0 <= i < self.n:
            raise IndexError(i)
        if i == 0:
            role = "reference"
        elif self.config.regime == "delay":
            role = "interior" if self.interior[i] else "boundary"
        else:
            role = "member"
        return NodeState(
            node_id=i,
            position=NodePosition(*self.positions[i]),
            clock=ClockParams(float(self.alphas[i]), float(self.deltas[i]),
                              float(self.sigma[i] ** 2)),
            window=self.windows[i].copy(),
            role=role,
            parity=int(self.parity[i]),
            epsilon_i=float(self.eps_i[i]),
            alpha_known=float(self.alphas[i]) if role == "boundary" else None,
        )

    def nodes(self) -> Iterator[NodeState]:
        return (self[i] for i in range(self.n))


def _phase_rng(state: NetworkState, rng: np.random.Generator | None) -> np.random.Generator:
    if rng is not None:
        return rng
    return substream(state.config.seed, DOMAIN_PHASE, state.phase_count)


def _roll_windows(state: NetworkState, readings: np.ndarray, mask: np.ndarray | None = None):
    if mask is None:
        windows = state.windows
        # column by column: a 2-D overlapping copy would buffer (n, m - 1)
        for k in range(windows.shape[1] - 1):
            windows[:, k] = windows[:, k + 1]
        windows[:, -1] = readings
    else:
        rolled = np.concatenate(
            [state.windows[mask, 1:], readings[mask, None]], axis=1)
        state.windows[mask] = rolled


def no_delay_phase_events(state: NetworkState,
                          rng: np.random.Generator | None = None,
                          ) -> tuple[EventArray, float, np.random.Generator]:
    """Fires and amplitude scales for the coming no-delay phase.

    Shared by the phase runner and by trace export, so a dumped waveform
    shows exactly the aggregate whose crossing the phase would use.
    """
    cfg = state.config
    if cfg.regime != "no_delay":
        raise ConfigurationError("state was built for a different regime")
    rng = _phase_rng(state, rng)
    # Only phi_hat is used; dropping the report frees its slope and
    # intercept arrays before the gain draw. The in-place steps keep the
    # arithmetic order of (phi_hat - jitter * sigma) / alphas + deltas.
    fires = fit(state.windows, STANDARD, cfg.sigma2).phi_hat
    fire_jitter = rng.normal(0.0, 1.0, state.n)
    fire_jitter *= state.sigma
    fires -= fire_jitter
    del fire_jitter
    fires /= state.alphas
    fires += state.deltas
    scales = state.rx_gain_dist.sample(rng, state.n)
    scales /= state.n * cfg.v_factor
    return EventArray.build(fires, scales), float(state.next_center), rng


def run_phase_no_delay(state: NetworkState, rng: np.random.Generator | None = None) -> PhaseReport:
    """One phase with instantaneous propagation; every node transmits."""
    cfg = state.config
    events, tau0, rng = no_delay_phase_events(state, rng)
    fires = events.fire
    crossing = find_zero_crossing(events, state.pulse, search_center=tau0,
                                  gate=state.channel.gate, grid_step=cfg.grid_step)

    sync = np.full(state.n, np.nan)
    failed = not crossing.ok
    if crossing.ok:
        obs_jitter = rng.normal(0.0, 1.0, state.n) * state.sigma
        readings = state.alphas * (crossing.location - state.deltas) + obs_jitter
        _roll_windows(state, readings)
        sync[:] = abs(crossing.location - tau0)

    phase_index = state.phase_count
    state.phase_count += 1
    state.next_center += 1
    return PhaseReport(phase_index, tau0, 0, {0: crossing}, fires, sync, failed)


def run_phase_even_odd(state: NetworkState, rng: np.random.Generator | None = None) -> PhaseReport:
    """One phase where the parity matching the instant fires, the rest listen."""
    cfg = state.config
    if cfg.regime != "even_odd":
        raise ConfigurationError("state was built for a different regime")
    rng = _phase_rng(state, rng)
    tau0 = float(state.next_center)
    active = state.parity == (state.next_center % 2)
    listeners = ~active
    if not np.any(active) or not np.any(listeners):
        raise ConfigurationError("even_odd regime needs both parities present")

    report = fit(state.windows[active], EVEN_ODD, cfg.sigma2)
    fire_jitter = rng.normal(0.0, 1.0, state.n) * state.sigma
    fires = np.full(state.n, np.nan)
    fires[active] = ((report.phi_hat - fire_jitter[active]) / state.alphas[active]
                     + state.deltas[active])

    gains = state.rx_gain_dist.sample(rng, state.n)
    n_active = int(np.count_nonzero(active))
    scales = gains[active] / (n_active * cfg.v_factor)
    events = EventArray.build(fires[active], scales)
    crossing = find_zero_crossing(events, state.pulse, search_center=tau0,
                                  gate=state.channel.gate, grid_step=cfg.grid_step)

    sync = np.full(state.n, np.nan)
    failed = not crossing.ok
    if crossing.ok:
        obs_jitter = rng.normal(0.0, 1.0, state.n) * state.sigma
        readings = state.alphas * (crossing.location - state.deltas) + obs_jitter
        _roll_windows(state, readings, mask=listeners)
        sync[listeners] = abs(crossing.location - tau0)

    listener_probe = int(np.nonzero(listeners)[0][0])
    phase_index = state.phase_count
    state.phase_count += 1
    state.next_center += 1
    return PhaseReport(phase_index, tau0, listener_probe,
                       {listener_probe: crossing}, fires, sync, failed)


def run_phase_delay(state: NetworkState, rng: np.random.Generator | None = None) -> PhaseReport:
    """One phase with propagation delays and transmit-side compensation.

    Only probe receivers evaluate their aggregate. Interior windows are
    refreshed with the interior probe's crossing; boundary windows keep the
    steady-state assumption and are refreshed at their assumed offsets.
    """
    cfg = state.config
    if cfg.regime != "delay":
        raise ConfigurationError("state was built for a different regime")
    rng = _phase_rng(state, rng)
    tau0 = float(state.next_center)
    eps = cfg.epsilon

    windows = state.windows
    boundary = ~state.interior
    if np.any(boundary):
        windows = windows.copy()
        windows[boundary] = shift_to_epsilon_frame(
            windows[boundary], state.alphas[boundary], state.eps_i[boundary], eps)
    report = fit(windows, epsilon_variant(eps), cfg.sigma2)
    alpha_used = state.alphas if cfg.oracle_alpha else report.alpha_hat

    fire_jitter = rng.normal(0.0, 1.0, state.n) * state.sigma
    if cfg.compensate_delay:
        fix = sample_fix(state.channel, NodePosition(*state.positions[state.probes[0]]),
                         rng, state.n)
        d_fix, k_fix = fix.d_fix, fix.k_fix
    else:
        d_fix = np.zeros(state.n)
        k_fix = np.ones(state.n)
    targets = report.phi_hat + alpha_used * d_fix
    fires = (targets - fire_jitter) / state.alphas + state.deltas

    crossings: dict[int, CrossingReport] = {}
    for node in state.probes:
        delays = state.probe_dists[node].sample(rng, state.n)
        gains = state.channel.gain(state.channel.invert_delay(delays))
        scales = k_fix * gains / (state.n * cfg.v_factor)
        center = tau0 + (eps if state.interior[node] else state.eps_i[node])
        events = EventArray.build(fires, scales, delays)
        crossings[node] = find_zero_crossing(
            events, state.pulse, search_center=center,
            gate=state.channel.gate, grid_step=cfg.grid_step)

    interior_probe = state.probes[0]
    interior_crossing = crossings[interior_probe]
    sync = np.full(state.n, np.nan)
    failed = not interior_crossing.ok
    if interior_crossing.ok:
        obs_jitter = rng.normal(0.0, 1.0, state.n) * state.sigma
        loc = interior_crossing.location
        instants = np.where(state.interior, loc, tau0 + state.eps_i)
        readings = state.alphas * (instants - state.deltas) + obs_jitter
        _roll_windows(state, readings)
        sync[state.interior] = abs(loc - (tau0 + eps))
        for node in state.probes[1:]:
            if crossings[node].ok:
                sync[node] = abs(crossings[node].location - (tau0 + state.eps_i[node]))

    phase_index = state.phase_count
    state.phase_count += 1
    state.next_center += 1
    return PhaseReport(phase_index, tau0, interior_probe, crossings, fires,
                       sync, failed)


_PHASE_RUNNERS = {
    "no_delay": run_phase_no_delay,
    "even_odd": run_phase_even_odd,
    "delay": run_phase_delay,
}


def run_phase(state: NetworkState, rng: np.random.Generator | None = None) -> PhaseReport:
    return _PHASE_RUNNERS[state.config.regime](state, rng)


def run_phases(state: NetworkState, count: int) -> list[PhaseReport]:
    return [run_phase(state) for _ in range(count)]


@dataclass(frozen=True)
class EpsilonReport:
    """Fixed-point estimate of the steady-state crossing offsets."""

    epsilon: float
    boundary_epsilon: float | None
    iterations: int
    converged: bool
    history: tuple[float, ...]


def estimate_epsilon(config: ScenarioConfig, *, n_seeds: int = 50,
                     n_nodes: int = 10_000, tol: float = 1e-3,
                     max_iter: int = 12, threads: int | None = None) -> EpsilonReport:
    """Iterate the assumed interior offset until it matches the observed one.

    Each round rebuilds ``n_seeds`` fresh networks of ``n_nodes`` nodes that
    assume the current offset, runs one phase each, and replaces the offset
    with the mean observed crossing offset. Boundary probes drive the shared
    boundary offset the same way. Non-convergence is reported, not raised.
    """
    if config.regime != "delay":
        raise ConfigurationError("offset estimation only applies to the delay regime")
    if n_seeds < 1 or max_iter < 1:
        raise ConfigurationError("need at least one seed and one iteration")
    eps = config.epsilon
    beps = config.boundary_epsilon
    saw_boundary = False
    history = [eps]
    converged = False
    iterations = 0
    for it in range(max_iter):
        def one_seed(s: int, _it=it, _eps=eps, _beps=beps):
            child = derive_seed(config.seed, DOMAIN_SEED_SWEEP, _it, s)
            cfg = replace(config, n_nodes=n_nodes, seed=child,
                          epsilon=_eps, boundary_epsilon=_beps)
            st = NetworkState(cfg)
            rep = run_phase_delay(st)
            interior_probe = st.probes[0]
            cr = rep.crossings[interior_probe]
            interior_offset = cr.location - rep.center if cr.ok else np.nan
            boundary_offsets = [
                rep.crossings[p].location - rep.center
                for p in st.probes[1:] if rep.crossings[p].ok
            ]
            return interior_offset, boundary_offsets

        results = run_indexed(one_seed, n_seeds, threads=threads)
        interior = np.array([r[0] for r in results])
        if np.any(np.isnan(interior)):
            return EpsilonReport(eps, beps if saw_boundary else None, it + 1,
                                 False, tuple(history))
        new_eps = float(np.mean(interior))
        b_all = [off for r in results for off in r[1]]
        iterations = it + 1
        moved = abs(new_eps - eps)
        eps = new_eps
        if b_all:
            saw_boundary = True
            beps = float(np.mean(b_all))
        history.append(eps)
        if moved < tol:
            converged = True
            break
    return EpsilonReport(eps, beps if saw_boundary else None, iterations,
                         converged, tuple(history))
