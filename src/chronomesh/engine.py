"""Network-scale synchronization phases.

A scenario holds N nodes on a rectangular region. Each node keeps a window of
m past readings of the shared firing instants, taken through its own clock and
kept as the instants its group heard plus its own jitter (see ``NetworkState``).
One kernel, ``run_phase``, runs a phase of every regime: each transmitting
node extrapolates its window to the next firing instant and fires a pulse
there; each receiver draws its channel, forms the aggregate waveform and
locates its first downward zero crossing; listeners roll a reading of that
crossing into their windows; the phase then advances. The regimes differ
only in data fixed when the network is built: which rows transmit and
listen, which receivers probe the aggregate, and the window step each fit
predicts at (``ScenarioConfig.target``).

- ``no_delay``: all nodes fire every phase, propagation is instantaneous and
  the whole network shares one crossing. Pathloss still scales amplitudes,
  drawn once per phase for a representative receiver, because with zero delay
  the crossing does not depend on who listens.
- ``even_odd``: nodes are split by parity; each phase one half fires while
  the other half listens, so a node never has to hear through its own
  transmission. Each half is a stride-2 slice of the node rows. Windows hold
  every second instant, so the next own instant is half a window step past
  the last reading; the steady-state picture is the same.
- ``delay``: propagation takes time. Transmitters subtract a random
  compensation delay drawn from the interior reception law, amplitudes carry
  the coupled gains of both legs, and the aggregate differs per receiver.
  Evaluating N receivers each phase would cost O(N^2), so only a small probe
  set (one interior node plus one boundary probe) actually forms its
  waveform. Interior nodes share the interior probe's crossing (the law is
  position independent inside) and fit at step m - epsilon. Boundary nodes
  are handed the instant itself and keep no history, so only the boundary
  probe reports what they would hear.

Every receiver searches around the listeners' forecast: the one-step
extrapolation of the listening group's history, where the instant they listen
for should fall. The shared time base random-walks off the integer grid (the
extrapolator reproduces any line, so nothing pulls it back), and a search
about the grid instant would lose the crossing once the walk passed tau_nz.
When the primary receiver finds no crossing (gated or no sign change), the
phase is flagged ``failed`` and each listener holds over: the history rolls
in that forecast and each listener its own one-step extrapolation of its
jitter, so the schedule carries on instead of slipping by a phase.

Each kind of draw has its own stream: the skews ``substream(seed,
DOMAIN_INIT)``, init window column k ``substream(seed, DOMAIN_INIT, k,
_READ)``, and per phase ``substream(seed, DOMAIN_PHASE, phase, kind[,
node])``: fire jitter, compensation draws (delay regime), each receiver's
channel draws (indexed by its node id) and observation jitter (none on
holdover). Each stream is drawn in node order, a jitter stream one normal a
node, so a phase is reproducible however its report is consumed, and no
receiver's draws move another receiver's or the readings.

Memory: the state holds no node vector (see ``NetworkState``). A window's
jitter is redrawn a block at a time from the streams that drew it, the skews
from theirs, and delay's interior mask from the placement, which is never
held whole: the build reads the rows its receivers need, or streams it a
block at a time in delay, and each phase draws every channel from its
receiver's law. Only a holdover stores jitter columns, at most m per group;
beyond such a column a phase allocates nothing node-sized, working
``_NODE_BLOCK`` rows at a time. Every block starts at an even row, so a
role's slice of a block selects the block's share of that role. Each pass
of a receiver, or of a holdover's fits, opens its streams afresh and reads
each front to back: it redraws the windows block by block into two buffers
the state keeps, recomputes its transmitters' fire times, adds a delay
draw's delays into them in place, and adds each block's arrivals and scales
to the closed-form sums. A good phase's roll only names its readout stream as
the newest column. Blocks cut the same draws and keep every blocked sum's
partitions, so no result depends on the block size; whole event columns are
joined only for the segment search, ``no_delay_phase_events`` and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelModel, DelayDistribution, PathlossDistribution, sample_fix
from .clock import SkewPopulation
from .errors import ConfigurationError
from .estimator import fit, predicted_variance, prediction_weights
from .geometry import NodePosition, Region, place_nodes, positions_array
from .rng import DOMAIN_INIT, DOMAIN_PHASE, DOMAIN_PLACEMENT, DOMAIN_SEED_SWEEP, derive_seed, substream
from .parallel import run_indexed
from .waveform import CrossingReport, EventArray, Pulse, default_tau_nz, find_zero_crossing, join

REGIMES = ("no_delay", "even_odd", "delay")

# Rows per block of a phase pass: a multiple of twice the angle and fit blocks,
# so one parity's transmitters in a block fill whole partitions of the sums and
# fits; large, because each block's gain bisection pays a fixed cost per call.
# It and _BUILD_BLOCK are even, so every block starts at an even row and an
# even_odd role's stride-2 slice of a block keeps the parity it has network-wide.
_NODE_BLOCK = 1 << 17
_BUILD_BLOCK = 1 << 14     # rows per block of the delay build's placement pass
# Kinds of phase draw, each with its own substream(seed, DOMAIN_PHASE, phase, kind[, node]).
_FIRE, _FIX, _CHANNEL, _READ = range(4)


def _node_blocks(n: int, size: int = _NODE_BLOCK):
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and advance one network.

    ``sigma2`` is the clock-readout jitter variance. ``epsilon`` is the
    offset from integer instants that interior nodes assume their crossings
    sit at (delay regime); boundary nodes assume none, as they are handed the
    instant. The channel carries the deployment region; ``region`` reads it
    from there.
    """

    n_nodes: int
    m: int = 3
    sigma2: float = 1e-4
    regime: str = "no_delay"
    population: SkewPopulation = field(default_factory=SkewPopulation)
    channel: ChannelModel = ChannelModel(Region(), 0.25)
    tau_nz: float | None = None
    epsilon: float = 0.0
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
        if self.regime == "even_odd" and self.n_nodes < 2:
            raise ConfigurationError("even_odd needs a node of each parity")
        if self.tau_nz is not None and not 0.0 < self.tau_nz < np.inf:
            raise ConfigurationError("tau_nz must be positive and finite")
        if not np.isfinite(self.epsilon):
            raise ConfigurationError("epsilon must be finite")
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
    forecast: float                          # the listeners' forecast, where receivers searched
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
    """Roles in one phase, each a slice of the node rows.

    ``slice(None)`` is every node; even_odd's ``slice(p, None, 2)`` is parity p.
    Blocks start at even rows, so a role slices a block as it slices the network.
    """

    transmit: slice
    listen: slice
    receivers: tuple             # (node id, channel law), primary first


def _nearest(placed: np.ndarray, rows: np.ndarray, point: tuple[float, float]):
    """Squared distance and index of the first of the ``rows`` (a boolean mask) nearest
    ``point``; inf when the mask is empty."""
    off = placed - np.array(point)
    dist2 = np.einsum("ij,ij->i", off, off)
    dist2[~rows] = np.inf
    i = int(np.argmin(dist2))
    return float(dist2[i]), i


class NetworkState:
    """Mutable state of a scenario between phases.

    Node i's window holds readings alpha_i (c_k - delta_i) + j_ik of the
    instants c_k it heard. ``fit`` is linear and reproduces lines, so the
    window's fit is alpha_i (c_hat - delta_i) + fit(J_i): the offset delta_i
    cancels from every fire time and is never drawn. So the state keeps
    ``history``, the instants heard by each group of nodes that listen
    together, one row each: one in no_delay and delay, row p for parity p in
    even_odd. Delay's row is the interior crossing; boundary nodes are handed
    the instant and read no history. It holds no node vector: every window
    column's jitter is the stream that drew it, so ``columns`` keeps, per
    listening group (``groups``, each a slice of the node rows: one in
    no_delay and delay, one per parity in even_odd), the source of each of
    its m window columns, and ``windows`` redraws every block's float32 J
    from them in one pass (node 0's are zero). Only a holdover stores a
    column, its listeners' jitter fits, until m good phases push it out. The
    skews alpha_i are the init stream's only draws, so ``skews`` redraws them
    a block at a time, and ``interior`` redraws a block's delay interior mask
    from its placement rows. The placement is never held whole: ``positions``
    maps each receiver's node id to its (x, y), node 0 in no_delay, nodes 0
    and 1 in even_odd and the probes in delay, each read from the placement
    stream.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        channel = self.channel = config.channel

        self.rx_gain_dist: PathlossDistribution | None = None
        self.fix_law: DelayDistribution | None = None  # delay: the compensation law
        if config.regime == "delay":
            self.schedules = self._delay_schedules()
        else:
            self.schedules = self._shared_schedules()
        self.positions = {node: (law.receiver.x, law.receiver.y)
                          for sched in self.schedules for node, law in sched.receivers}

        self.sigma = float(np.sqrt(config.sigma2))

        tau_nz = config.tau_nz
        if tau_nz is None:
            tau_nz = default_tau_nz(np.sqrt(config.fire_variance), config.population.alpha_low)
            if config.regime == "delay":
                # keep the search window wider than the whole heard delay spread
                tau_nz = max(tau_nz, 10.0 * channel.delay(channel.max_range))
        self.pulse = Pulse(tau_nz)

        self.phase_count = 0
        if config.regime == "even_odd":
            self.next_center = 2 * config.m
        else:
            self.next_center = config.m
        self._init_windows()
        # block buffers a phase redraws windows into: one block's float32 windows
        # and float64 draws, held so each block reuses them
        block = min(self.n, _NODE_BLOCK)
        self._window = np.empty((block, config.m), dtype=np.float32)
        self._draws = np.empty(block)

    # -- construction helpers -------------------------------------------

    def _placed(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the placement, drawn alone from a fresh placement stream."""
        cfg = self.config
        return positions_array(place_nodes(cfg.region, cfg.n_nodes,
                                           substream(cfg.seed, DOMAIN_PLACEMENT), rows))

    def _shared_schedules(self) -> tuple[Schedule, ...]:
        # One aggregate serves every listener, drawn with the gain law of the
        # node that reports it.
        placed = [NodePosition(*xy) for xy in self._placed(slice(0, 2)).tolist()]
        self.rx_gain_dist = PathlossDistribution(self.channel, placed[0])
        if self.config.regime == "no_delay":
            return (Schedule(slice(None), slice(None), ((0, self.rx_gain_dist),)),)
        # even_odd: in the phase of an instant of parity p, parity p fires
        # and the first listener, node 1 - p, reports the crossing
        laws = (PathlossDistribution(self.channel, placed[1]), self.rx_gain_dist)
        return tuple(Schedule(slice(p, None, 2), slice(1 - p, None, 2), ((1 - p, laws[p]),))
                     for p in (0, 1))

    def _inside(self, placed: np.ndarray) -> np.ndarray:
        """Which of the ``placed`` nodes lie at least the channel range from every edge."""
        # ScenarioConfig keeps the delay regime's range finite
        edge = self.config.region.edge_distance(placed[:, 0], placed[:, 1])
        return edge >= self.channel.max_range

    def interior(self, rows: slice) -> np.ndarray:
        """Delay regime: the interior mask of the nodes ``rows``, redrawn from their placement."""
        return self._inside(self._placed(rows))

    def _delay_schedules(self) -> tuple[Schedule, ...]:
        cfg = self.config
        region = cfg.region
        # One pass over the placement, a block at a time: per target, the squared
        # distance, node and position of the first nearest candidate so far (the
        # interior probe, then a mid-edge boundary node; corners see the thinnest
        # population).
        targets = ((region.width / 2, region.height / 2), (0.0, region.height / 2))
        nearest = [(np.inf, None, None)] * len(targets)
        for rows in _node_blocks(self.n, _BUILD_BLOCK):
            placed = self._placed(rows)
            inside = self._inside(placed)
            for k, candidates in enumerate((inside, ~inside)):
                dist2, i = _nearest(placed, candidates, targets[k])
                if dist2 < nearest[k][0]:
                    nearest[k] = (dist2, rows.start + i, NodePosition(*placed[i].tolist()))
        if nearest[0][1] is None:
            raise ConfigurationError(
                "delay regime needs at least one interior node; "
                "shrink the channel range or enlarge the region")
        receivers = tuple((node, DelayDistribution(self.channel, position))
                          for _, node, position in nearest if node is not None)
        if cfg.compensate_delay:
            self.fix_law = receivers[0][1]
        return (Schedule(slice(None), slice(None), receivers),)

    def _init_windows(self):
        """Steady-state windows: exact past instants, and every jitter column an init draw."""
        cfg = self.config
        m = cfg.m
        steps = np.arange(m, dtype=float)
        if cfg.regime == "even_odd":
            # the coming phase's transmitters, parity 0, heard tau0-(2m-1), ..., tau0-1;
            # its listeners tau0-2m, ..., tau0-2, so both are spaced by 2
            self.history = (self.next_center - 2 * m + 2.0 * steps) + np.array([[1.0], [0.0]])
            self.groups = (slice(0, None, 2), slice(1, None, 2))
        else:
            offset = cfg.epsilon if cfg.regime == "delay" else 0.0
            self.history = ((self.next_center - m + steps) + offset)[None, :]
            self.groups = (slice(None),)
        self.columns = [tuple(range(-m, 0))] * len(self.groups)

    def _stream(self, source: int) -> np.random.Generator:
        """A fresh generator on a window column's stream: init column source + m when
        source < 0, else phase source's readout jitter."""
        cfg = self.config
        if source < 0:
            return substream(cfg.seed, DOMAIN_INIT, source + cfg.m, _READ)
        return substream(cfg.seed, DOMAIN_PHASE, source, _READ)

    def windows(self):
        """Yield (rows, J) for every node block in order: the float32 jitter windows of
        the nodes ``rows``, redrawn into the window buffer, which the next block reuses.

        Each group's window column is a source: an int names a stream, q < 0
        init column q + m and q >= 0 phase q's readout jitter, each one normal
        per node in node order (``_normals``); after a holdover, an array holds
        that column for the group's rows. A pass opens each stream once and
        reads it front to back.
        """
        streams: dict[int, list] = {}        # source -> (role, window column) it fills
        for role, sources in zip(self.groups, self.columns):
            for k, source in enumerate(sources):
                if not isinstance(source, np.ndarray):
                    streams.setdefault(source, []).append((role, k))
        opened = [(self._stream(source), columns) for source, columns in streams.items()]
        for rows in _node_blocks(self.n):
            window = self._window[:rows.stop - rows.start]
            for role, sources in zip(self.groups, self.columns):
                first = len(range(rows.start)[role])     # the group's index of its first row
                for k, source in enumerate(sources):
                    if isinstance(source, np.ndarray):
                        column = window[role, k]
                        column[:] = source[first:first + column.size]
            for rng, columns in opened:
                draws = self._normals(rng, rows)
                for role, k in columns:
                    window[role, k] = draws[role]
            yield rows, window

    def skews(self, rows: slice) -> np.ndarray:
        """Clock skews of the nodes ``rows`` (a contiguous slice); node 0's is exactly 1.

        The init stream holds the skews alone, one word a node (none for a
        point mass), so a block's are redrawn alone by advancing a fresh init
        stream to its first row.
        """
        rng = substream(self.config.seed, DOMAIN_INIT)
        rng.bit_generator.advance(rows.start)
        skews = self.config.population.sample(rows.stop - rows.start, rng)
        if rows.start == 0:
            skews[0] = 1.0
        return skews

    def _normals(self, rng: np.random.Generator, rows: slice) -> np.ndarray:
        """sigma times one normal from ``rng`` per node of the block ``rows``, node 0's exactly
        zero, drawn into the draw buffer, which the next call reuses."""
        draws = self._draws[:rows.stop - rows.start]
        rng.standard_normal(out=draws)
        draws *= self.sigma
        if rows.start == 0:
            draws[0] = 0.0
        return draws

    @property
    def n(self) -> int:
        return self.config.n_nodes

    @property
    def schedule(self) -> Schedule:
        """Roles for the coming phase."""
        return self.schedules[self.next_center % len(self.schedules)]


def _require_regime(state: NetworkState, regime: str):
    if state.config.regime != regime:
        raise ConfigurationError("state was built for a different regime")


def _by_history(values: np.ndarray, role: slice, inside: np.ndarray | None):
    """Each node's entry of per-history ``values``, for a role's share of a block: in delay
    entry 0 where ``inside`` (the share's interior mask) holds and entry 1, the boundary's,
    at the edge; otherwise the role's one row, which is p for even_odd's parity-p role
    ``slice(p, None, 2)`` and 0 in no_delay."""
    if inside is None:
        return values[role.start or 0]
    return np.where(inside, values[0], values[1])


def _block_events(state: NetworkState, sched: Schedule, law, rows: slice, window, n_tx: int,
                  heard, fire_rng, fix_rng, rng: np.random.Generator) -> EventArray | None:
    """A node block's events: fits of its jitter ``window``, fire times from ``fire_rng`` and
    ``fix_rng``, channel from ``rng``; in delay each arrival is a fire time plus its delay.

    None when the block holds no transmitter. A node's window is alpha (history - delta)
    + J, so its fit, taken back to reference time, is its history's prediction plus
    fit(J) / alpha, and its slope is alpha times its history's plus J's; ``heard`` holds
    each history's (prediction, slope).
    """
    cfg = state.config
    size = rows.stop - rows.start
    tx = sched.transmit
    centres, slopes = heard
    inside = state.interior(rows)[tx] if cfg.regime == "delay" else None
    report = fit(window[tx], cfg.target)
    fires = report.phi_hat
    alphas = state.skews(rows)[tx]
    k_fix = None
    if fix_rng is not None:
        d_fix, k_fix = sample_fix(state.fix_law, fix_rng, size)
        alpha_hat = alphas if cfg.oracle_alpha else (
            alphas * _by_history(slopes, tx, inside) + report.alpha_hat)
        fires += alpha_hat * d_fix[tx]
        k_fix = k_fix[tx]
    del report
    fires -= state._normals(fire_rng, rows)[tx]
    fires /= alphas
    del alphas                   # before the gain draws, which set the phase's peak
    fires += _by_history(centres, tx, inside)
    if isinstance(law, DelayDistribution):
        delays, gains = law.sample(rng, size)
        fires += delays[tx]      # the arrivals
    else:
        gains = law.sample(rng, size)
    scales = gains[tx] if k_fix is None else gains[tx] * k_fix
    return EventArray.build(fires, scales / n_tx) if fires.size else None


def _receiver_events(state: NetworkState, sched: Schedule, node: int, law):
    """A receiver's replayable block source: each call opens the phase's streams afresh and
    makes its events a node block at a time."""
    cfg = state.config
    n_tx = len(range(state.n)[sched.transmit])
    path = (cfg.seed, DOMAIN_PHASE, state.phase_count)
    # every node of a group shares its history, so one weighted sum predicts for all of them
    heard = np.array([state.history @ w for w in prediction_weights(cfg.m, cfg.target)])
    if cfg.regime == "delay":   # the oracle ROADMAP item 4 removes: the boundary gets the instant
        heard = np.column_stack((heard, (state.next_center, 1.0)))

    def blocks():
        fire_rng, rng = substream(*path, _FIRE), substream(*path, _CHANNEL, node)
        fix_rng = None if state.fix_law is None else substream(*path, _FIX)
        # filter holds no block once it is handed on, so a pass holds one at a time
        return filter(None, (_block_events(state, sched, law, rows, window, n_tx, heard,
                                           fire_rng, fix_rng, rng)
                             for rows, window in state.windows()))
    return blocks


def _roll(state: NetworkState, listen: slice, crossing: CrossingReport, forecast: float):
    """Shift the listening group's window by one: its history takes in the crossing and its
    jitter columns this phase's readout stream; on holdover the history takes in the group's
    ``forecast`` and the columns each listener's jitter fit, computed now and stored."""
    group = listen.start or 0
    column, heard = state.phase_count, crossing.location
    if not crossing.ok:
        heard = forecast
        column = np.empty(len(range(state.n)[listen]), dtype=np.float32)
        for rows, window in state.windows():
            first = len(range(rows.start)[listen])
            fits = fit(window[listen], state.config.m).phi_hat
            column[first:first + fits.size] = fits
    state.columns[group] = state.columns[group][1:] + (column,)
    state.history[group] = (*state.history[group, 1:], heard)


def no_delay_phase_events(state: NetworkState) -> tuple[EventArray, float]:
    """Events of the coming no-delay phase and the instant they aim at.

    Joined from the kernel's own block pass, so a dumped waveform is exactly
    the aggregate whose crossing the phase would use.
    """
    _require_regime(state, "no_delay")
    sched = state.schedule
    node, law = sched.receivers[0]
    return join(_receiver_events(state, sched, node, law)), float(state.next_center)


def run_phase(state: NetworkState) -> PhaseReport:
    """One phase of the state's regime: transmit, receive, update, advance."""
    sched = state.schedule
    tau0, m = float(state.next_center), state.config.m
    # where the listeners expect the instant: the one-step extrapolation of their history
    forecast = float(state.history[sched.listen.start or 0] @ prediction_weights(m, m)[0])
    crossings: dict[int, CrossingReport] = {}
    for node, law in sched.receivers:
        events = _receiver_events(state, sched, node, law)
        crossings[node] = find_zero_crossing(events, state.pulse, search_center=forecast,
                                             gate=state.channel.gate)

    primary = sched.receivers[0][0]
    crossing = crossings[primary]
    _roll(state, sched.listen, crossing, forecast)

    phase_index = state.phase_count
    state.phase_count += 1
    state.next_center += 1
    return PhaseReport(phase_index, tau0, forecast, primary, crossings, not crossing.ok)


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
    boundary_epsilon: float | None     # the last completed round's mean boundary-probe offset
    iterations: int
    converged: bool
    history: tuple[float, ...]


def estimate_epsilon(config: ScenarioConfig, *, n_seeds: int = 50,
                     n_nodes: int = 10_000, tol: float = 1e-3,
                     max_iter: int = 12, threads: int | None = None) -> EpsilonReport:
    """Iterate the assumed interior offset until it matches the observed one.

    Each round rebuilds ``n_seeds`` fresh networks of ``n_nodes`` nodes that
    assume the current offset, runs one phase each, and replaces the offset
    with the mean observed crossing offset. The report's ``boundary_epsilon``
    is the mean offset of the boundary probes that found a crossing in the
    last completed round, None if none did. Non-convergence is reported, not
    raised.
    """
    if config.regime != "delay":
        raise ConfigurationError("offset estimation only applies to the delay regime")
    if n_seeds < 1 or max_iter < 1:
        raise ConfigurationError("need at least one seed and one iteration")
    eps, beps, history = config.epsilon, None, [config.epsilon]
    for it in range(max_iter):
        def one_seed(s: int):
            child = derive_seed(config.seed, DOMAIN_SEED_SWEEP, it, s)
            rep = run_phase_delay(NetworkState(replace(config, n_nodes=n_nodes, seed=child,
                                                       epsilon=eps)))
            offsets = {node: cr.location - rep.center if cr.ok else np.nan
                       for node, cr in rep.crossings.items()}
            return offsets.pop(rep.primary), [off for off in offsets.values() if np.isfinite(off)]

        results = run_indexed(one_seed, n_seeds, threads=threads)
        interior = np.array([r[0] for r in results])
        if np.any(np.isnan(interior)):
            return EpsilonReport(eps, beps, it + 1, False, tuple(history))
        new_eps = float(np.mean(interior))
        b_all = [off for r in results for off in r[1]]
        beps = float(np.mean(b_all)) if b_all else None
        moved, eps = abs(new_eps - eps), new_eps
        history.append(eps)
        if moved < tol:
            return EpsilonReport(eps, beps, it + 1, True, tuple(history))
    return EpsilonReport(eps, beps, max_iter, False, tuple(history))
