"""Network-scale synchronization phases.

A scenario holds N nodes on a rectangular region. Each node keeps a window of
m past readings of the shared firing instants, taken through its own clock.
One kernel, ``run_phase``, runs a phase of every regime: each transmitting
node extrapolates its window to the next firing instant and fires a pulse
there; each receiver draws its channel, forms the aggregate waveform and
locates its first downward zero crossing; listeners roll a reading of that
crossing into their windows; the phase then advances. The regimes differ
only in data fixed when the network is built: which rows transmit and
listen, which receivers probe the aggregate and where they search, and the
window step each fit predicts at (``ScenarioConfig.target``).

- ``no_delay``: all nodes fire every phase, propagation is instantaneous and
  the whole network shares one crossing. Pathloss still scales amplitudes,
  drawn once per phase for a representative receiver, because with zero delay
  the crossing does not depend on who listens.
- ``even_odd``: nodes are split by parity; each phase one half fires while
  the other half listens, so a node never has to hear through its own
  transmission. Windows hold every second instant, so the next own instant
  is half a window step past the last reading; the steady-state picture is
  the same.
- ``delay``: propagation takes time. Transmitters subtract a random
  compensation delay drawn from the interior reception law, amplitudes carry
  the coupled gains of both legs, and the aggregate differs per receiver.
  Evaluating N receivers each phase would cost O(N^2), so only a small probe
  set (one interior node plus one boundary probe) actually forms its
  waveform; interior nodes share the interior probe's crossing (the law is
  position independent inside), while boundary windows are refreshed at
  their assumed offset, which is exactly the steady-state premise the probes
  test. Every fit predicts at step m - epsilon; a boundary node then moves
  its prediction by alpha (epsilon - eps_i) for its own offset.

When the primary receiver finds no crossing (gated or no sign change), the
phase is flagged ``failed`` and each listener holds over: it rolls in its own
one-step extrapolation of its window, the reading of the instant it listened
for, so the schedule carries on instead of slipping by a phase.

Per-phase randomness comes from ``substream(seed, DOMAIN_PHASE, index)`` and
is consumed in a fixed order: fire jitter, compensation draws (delay regime),
per-probe channel draws, observation jitter. Keeping the order fixed makes a
phase reproducible regardless of how its report is consumed. A held-over
phase draws no observation jitter.

A phase reports only its receivers' crossings: nothing per node outlives it,
so a run of many phases holds one or two ``CrossingReport``s per phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelModel, DelayDistribution, PathlossDistribution, sample_fix
from .clock import SkewPopulation
from .errors import ConfigurationError
from .estimator import fit, predicted_variance
from .geometry import NodePosition, Region, place_nodes, positions_array
from .rng import DOMAIN_INIT, DOMAIN_PHASE, DOMAIN_PLACEMENT, DOMAIN_SEED_SWEEP, derive_seed, substream
from .parallel import run_indexed
from .waveform import CrossingReport, EventArray, Pulse, default_tau_nz, find_zero_crossing

REGIMES = ("no_delay", "even_odd", "delay")

# Row selector of every node: indexing with it keeps views, an all-True mask copies.
_ALL = slice(None)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and advance one network.

    ``sigma2`` is the clock-readout jitter variance. ``epsilon`` is the
    offset from integer instants that interior nodes assume their crossings
    sit at (delay regime); ``boundary_epsilon`` is the same assumption for
    edge nodes, which see a thinner transmitter population. ``v_factor``
    rescales amplitudes by 1/v to model a mismatch between the believed and
    actual node count; the crossing location is invariant to it. The
    channel carries the deployment region; ``region`` reads it from there.
    """

    n_nodes: int
    m: int = 3
    sigma2: float = 1e-4
    regime: str = "no_delay"
    population: SkewPopulation = field(default_factory=SkewPopulation)
    delta_bar_range: tuple[float, float] = (-0.5, 0.5)
    channel: ChannelModel = ChannelModel(Region(), 0.25)
    tau_nz: float | None = None
    v_factor: float = 1.0
    epsilon: float = 0.0
    boundary_epsilon: float = 0.0
    oracle_alpha: bool = False
    compensate_delay: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.m < 2:
            raise ConfigurationError("window length m must be at least 2")
        # Each check is written so that nan fails it too.
        if not 0.0 <= self.sigma2 < np.inf:
            raise ConfigurationError("sigma2 must be nonnegative and finite")
        if self.regime not in REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        lo, hi = self.delta_bar_range
        if not -np.inf < lo <= hi < np.inf:
            raise ConfigurationError("delta_bar_range must be finite and ordered")
        if not self.v_factor > 0.0:
            raise ConfigurationError("v_factor must be positive")
        if self.tau_nz is not None and not 0.0 < self.tau_nz < np.inf:
            raise ConfigurationError("tau_nz must be positive and finite")
        if not np.isfinite(self.epsilon) or not np.isfinite(self.boundary_epsilon):
            raise ConfigurationError("epsilon and boundary_epsilon must be finite")
        if self.regime == "delay" and not np.isfinite(self.channel.max_range):
            raise ConfigurationError("delay regime needs a finite channel range")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")

    @property
    def region(self) -> Region:
        return self.channel.region

    @property
    def target(self) -> float:
        """Window step of the next instant, where a transmitter's fit predicts."""
        if self.regime == "even_odd":
            return self.m - 0.5          # windows hold every second instant
        if self.regime == "delay":
            return self.m - self.epsilon
        return float(self.m)

    @property
    def fire_variance(self) -> float:
        """Variance of one node's firing error in its own clock units."""
        return self.sigma2 * (1.0 + predicted_variance(self.m, self.target, 1.0))


@dataclass(frozen=True)
class PhaseReport:
    """Outcome of one phase."""

    phase_index: int
    center: float                            # the integer instant aimed at
    primary: int                             # receiver whose crossing drives updates
    crossings: dict[int, CrossingReport]     # receiver node id -> search report
    failed: bool

    @property
    def crossing(self) -> float | None:
        """Location of the primary receiver's crossing, if found."""
        report = self.crossings[self.primary]
        return report.location if report.ok else None


@dataclass(frozen=True)
class Schedule:
    """Roles in one phase; rows are selected by ``_ALL`` or by a mask."""

    transmit: slice | np.ndarray
    listen: slice | np.ndarray
    follow: np.ndarray | None    # listeners reading the crossing; the rest their assumed instant
    receivers: tuple             # (node id, channel law, search offset), primary first


class NetworkState:
    """Mutable state of a scenario between phases, one array row per node.

    Every regime keeps ``positions`` (n, 2), ``alphas``, ``deltas`` and the
    (n, m) ``windows``; only the delay regime adds the boolean ``interior``
    and ``eps_i``, each node's assumed crossing offset (both None otherwise).
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        n = config.n_nodes
        region = config.region
        channel = self.channel = config.channel

        rng_place = substream(config.seed, DOMAIN_PLACEMENT)
        self.positions = positions_array(place_nodes(region, n, rng_place))

        rng_init = substream(config.seed, DOMAIN_INIT)
        self.alphas = config.population.sample(n, rng_init)
        lo, hi = config.delta_bar_range
        self.deltas = rng_init.uniform(lo, hi, size=n)
        self.sigma = float(np.sqrt(config.sigma2))
        # node 0 is the reference: exact clock, zero offset, zero jitter
        self.alphas[0] = 1.0
        self.deltas[0] = 0.0

        self.interior = self.eps_i = None
        if config.regime == "delay":      # ScenarioConfig keeps its range finite
            self.interior = (region.edge_distance(self.positions[:, 0], self.positions[:, 1])
                             >= channel.max_range)
            self.eps_i = np.where(self.interior, config.epsilon, config.boundary_epsilon)

        tau_nz = config.tau_nz
        if tau_nz is None:
            tau_nz = default_tau_nz(np.sqrt(config.fire_variance), config.population.alpha_low)
            if config.regime == "delay":
                # keep the search window wider than the whole delay spread
                span = channel.delay(channel.max_range + channel.pad)
                tau_nz = max(tau_nz, 10.0 * span)
        self.pulse = Pulse(tau_nz)

        self.probes: list[int] = []
        self.rx_gain_dist: PathlossDistribution | None = None
        self.fix_receiver: NodePosition | None = None  # delay: compensation law's receiver
        if config.regime == "delay":
            self.schedules = self._delay_schedules()
        else:
            self.schedules = self._shared_schedules()

        self.phase_count = 0
        if config.regime == "even_odd":
            self.next_center = 2 * config.m
        else:
            self.next_center = config.m
        self._init_windows(rng_init)

    # -- construction helpers -------------------------------------------

    def _shared_schedules(self) -> tuple[Schedule, ...]:
        # One aggregate serves every listener, drawn with the gain law of the
        # node that reports it.
        self.rx_gain_dist = PathlossDistribution(self.channel, NodePosition(*self.positions[0]))
        if self.config.regime == "no_delay":
            return (Schedule(_ALL, _ALL, None, ((0, self.rx_gain_dist, 0.0),)),)
        # even_odd: in the phase of an instant of parity p, parity p fires
        # and the first listener reports the crossing
        schedules = []
        for p in (0, 1):
            active = self.parity == p
            listeners = np.flatnonzero(~active)
            receivers = ()
            if 0 < listeners.size < self.config.n_nodes:
                node = int(listeners[0])
                law = self.rx_gain_dist if node == 0 else PathlossDistribution(
                    self.channel, NodePosition(*self.positions[node]))
                receivers = ((node, law, 0.0),)
            schedules.append(Schedule(active, ~active, None, receivers))
        return tuple(schedules)

    def _delay_schedules(self) -> tuple[Schedule, ...]:
        cfg = self.config
        region = cfg.region
        if not np.any(self.interior):
            raise ConfigurationError(
                "delay regime needs at least one interior node; "
                "shrink the channel range or enlarge the region")
        centered = self.positions - np.array([region.width / 2, region.height / 2])
        dist2 = np.einsum("ij,ij->i", centered, centered)
        dist2 = np.where(self.interior, dist2, np.inf)
        self.probes = [int(np.argmin(dist2))]
        boundary = np.nonzero(~self.interior)[0]
        if boundary.size:
            # prefer a mid-edge boundary node; corners see the thinnest population
            off = self.positions[boundary] - np.array([0.0, region.height / 2])
            self.probes.append(int(boundary[np.argmin(np.einsum("ij,ij->i", off, off))]))
        receivers = tuple(
            (node, DelayDistribution(self.channel, NodePosition(*self.positions[node])),
             float(self.eps_i[node]))
            for node in self.probes)
        if cfg.compensate_delay:
            self.fix_receiver = NodePosition(*self.positions[self.probes[0]])
        return (Schedule(_ALL, _ALL, self.interior, receivers),)

    def _init_windows(self, rng: np.random.Generator):
        """Steady-state windows: exact past instants read with fresh jitter.

        The jitter is drawn straight into the window buffer, then each column
        adds alphas * (instant - deltas), one node vector at a time.
        """
        cfg = self.config
        m = cfg.m
        windows = np.empty((cfg.n_nodes, m))
        rng.standard_normal(out=windows)
        windows *= self.sigma
        windows[0] = 0.0
        if cfg.regime == "even_odd":
            # the coming phase's transmitters hold tau0-(2m-1), ..., tau0-1;
            # its listeners hold tau0-2m, ..., tau0-2, so both are spaced by 2
            first = np.where(self.schedule.transmit, self.next_center - (2 * m - 1),
                             self.next_center - 2 * m)
        reading = np.empty(cfg.n_nodes)
        for k in range(m):
            if cfg.regime == "even_odd":
                np.add(first, 2.0 * k, out=reading)
            else:
                reading.fill(self.next_center - m + k)
                if cfg.regime == "delay":
                    reading += self.eps_i
            reading -= self.deltas
            reading *= self.alphas
            windows[:, k] += reading
        self.windows = windows

    def _jitter(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Readout jitter, one entry per node; node 0's is exactly zero."""
        draws = rng.normal(0.0, 1.0, size=size)
        draws *= self.sigma
        draws[0] = 0.0
        return draws

    @property
    def n(self) -> int:
        return self.config.n_nodes

    @property
    def parity(self) -> np.ndarray:
        return np.arange(self.n) % 2

    @property
    def schedule(self) -> Schedule:
        """Roles for the coming phase."""
        return self.schedules[self.next_center % len(self.schedules)]


def _require_regime(state: NetworkState, regime: str):
    if state.config.regime != regime:
        raise ConfigurationError("state was built for a different regime")


def _roll_windows(windows: np.ndarray, rows: slice | np.ndarray, readings: np.ndarray):
    # column by column: a 2-D overlapping copy would buffer (rows, m - 1)
    for k in range(windows.shape[1] - 1):
        windows[rows, k] = windows[rows, k + 1]
    windows[rows, -1] = readings


def _transmit(state: NetworkState, sched: Schedule, rng: np.random.Generator):
    """Fire times of the transmitting rows, and their compensation gains if any.

    Only phi_hat (and the slope when compensating) outlives the fit; the
    in-place steps keep the order of (phi + alpha d_fix - jitter) / alphas + deltas.
    Delay-regime readings sit at integers + eps_i while the target assumes
    integers + epsilon; the fit is linear in a constant shift, so adding
    alpha (epsilon - eps_i), with the node's true skew, makes up the difference.
    """
    cfg = state.config
    tx = sched.transmit
    report = fit(state.windows[tx], cfg.target)
    fires = report.phi_hat
    if state.eps_i is not None:
        shift = np.subtract(cfg.epsilon, state.eps_i[tx])
        shift *= state.alphas[tx]
        fires += shift
        del shift
    if state.fix_receiver is not None:
        skew = state.alphas[tx] if cfg.oracle_alpha else report.alpha_hat
    del report
    fire_jitter = state._jitter(rng, state.n)
    k_fix = None
    if state.fix_receiver is not None:
        fix = sample_fix(state.channel, state.fix_receiver, rng, state.n)
        fires += skew * fix.d_fix[tx]
        k_fix = fix.k_fix[tx]
    fires -= fire_jitter[tx]
    del fire_jitter
    fires /= state.alphas[tx]
    fires += state.deltas[tx]
    return fires, k_fix


def _receive(state: NetworkState, sched: Schedule, law, fires: np.ndarray,
             k_fix: np.ndarray | None, rng: np.random.Generator) -> EventArray:
    """One channel draw through the receiver's law: the events its aggregate sums."""
    tx = sched.transmit
    delays = None
    if isinstance(law, DelayDistribution):
        delays, gains = law.sample_pair(rng, state.n)
        delays = delays[tx]
    else:
        gains = law.sample(rng, state.n)
    scales = gains[tx]
    del gains
    if k_fix is not None:
        scales *= k_fix
    scales /= fires.size * state.config.v_factor
    return EventArray.build(fires, scales, delays)


def no_delay_phase_events(state: NetworkState) -> tuple[EventArray, float]:
    """Events of the coming no-delay phase and the instant they aim at.

    Built by the kernel's own steps, so a dumped waveform is exactly the
    aggregate whose crossing the phase would use.
    """
    _require_regime(state, "no_delay")
    rng = substream(state.config.seed, DOMAIN_PHASE, state.phase_count)
    sched = state.schedule
    fires, k_fix = _transmit(state, sched, rng)
    _, law, _ = sched.receivers[0]
    return _receive(state, sched, law, fires, k_fix, rng), float(state.next_center)


def run_phase(state: NetworkState) -> PhaseReport:
    """One phase of the state's regime: transmit, receive, update, advance."""
    sched = state.schedule
    if not sched.receivers:
        raise ConfigurationError("a phase needs a transmitter and a listener; "
                                 "even_odd needs both parities present")
    rng = substream(state.config.seed, DOMAIN_PHASE, state.phase_count)
    tau0 = float(state.next_center)

    fires, k_fix = _transmit(state, sched, rng)

    crossings: dict[int, CrossingReport] = {}
    for node, law, offset in sched.receivers:
        events = _receive(state, sched, law, fires, k_fix, rng)
        crossings[node] = find_zero_crossing(events, state.pulse, search_center=tau0 + offset,
                                             gate=state.channel.gate)
        del events
    del fires, k_fix

    primary = sched.receivers[0][0]
    crossing = crossings[primary]
    if crossing.ok:
        loc = crossing.location
        obs_jitter = state._jitter(rng, state.n)
        instants = loc if sched.follow is None else np.where(sched.follow, loc, tau0 + state.eps_i)
        # in place, in the order of alphas * (instants - deltas) + jitter
        readings = np.subtract(instants, state.deltas)
        readings *= state.alphas
        readings += obs_jitter
        _roll_windows(state.windows, sched.listen, readings[sched.listen])
    else:
        # holdover: roll in the reading each listener predicted for this instant
        held = fit(state.windows[sched.listen], state.config.m).phi_hat
        _roll_windows(state.windows, sched.listen, held)

    phase_index = state.phase_count
    state.phase_count += 1
    state.next_center += 1
    return PhaseReport(phase_index, tau0, primary, crossings, not crossing.ok)


def run_phase_delay(state: NetworkState) -> PhaseReport:
    """run_phase on a state that must be in the delay regime."""
    _require_regime(state, "delay")
    return run_phase(state)


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
