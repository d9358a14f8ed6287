"""The benchmark's workloads: generated inputs, one timed operation, checks.

Each workload turns the benchmark seed into chronomesh configs, times one
repeatable operation through the package's public entry points, and checks
the outputs. ``trace_pass`` runs a fixed amount of the same work from a fresh
start, so an untraced and a traced pass must give identical outputs.

Why these three (see README.md for the layer map):

- steady_1m: one dense no_delay network stepped phase after phase; the
  largest working set, the case the paper is about.
- epsilon_sweep: estimate_epsilon on the delay regime; many small networks
  built and stepped on the thread pool.
- baselines: the pco census and relay cascade through the CLI; no channel,
  waveform or engine work, so it is the bypass workload for those layers.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from chronomesh import cli, engine
from chronomesh.geometry import Region, disk_intersection_area
from chronomesh.multihop import hop_count_estimate
from chronomesh.rng import DOMAIN_PLACEMENT, substream
from timing import timed

# Default channel range of a unit-square scenario (engine: 0.25 * min side).
_RANGE = 0.25
# steady_1m keeps node 0's coverage area, and so the number of gain draws
# that need the coverage inversion each phase, within about +-3 % across
# seeds. Seed 0 (area 0.1515, disk across one edge) lies inside the band.
COVERAGE_BAND = (0.148, 0.156)
# Builds tried before giving up when the placement stream no longer matches
# the node-0 predictor below.
_MAX_SEARCH_BUILDS = 40
# Criterion 2's crossing bound and criterion 7's slope tolerance.
CROSSING_BOUND = 0.005
SLOPE_REL_TOL = 0.05
# Each hop's empirical variance must lie within this many standard errors
# (relative SE sqrt(2 / (trials - 1))) of the closed-form ladder, and their
# mean relative deviation within MEAN_DEVIATION_TOL (its sd over 20 seeds is
# 0.012; the hops share one chain, so it barely averages down). Criterion
# 7's intercept bound of 0.025 is not used: at 477 hops the fitted intercept
# varies with sd ~0.011 across seeds (seed 5 reads 0.528), so that bound
# would fail correct runs.
HOP_VARIANCE_SES = 6.0
MEAN_DEVIATION_TOL = 0.05
# Set-up samples per run: network builds (steady_1m) or fresh-interpreter
# imports (the others); the run reports their median.
SETUP_BUILDS = 3
SETUP_REPEATS = 5
# Fixed workload sizes: pco census oscillators, relay cascade trials, and
# phases in a steady_1m trace pass.
OSCILLATORS = 5
CASCADE_TRIALS = 10_000
TRACE_PHASES = 2
_THREADS_VAR = "CHRONOMESH_THREADS"


@dataclass
class Outcome:
    """What one operation (or one trace pass) did and whether it was right."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: object = None         # outputs a traced pass must reproduce
    rates: dict[str, float] = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def import_setup_samples(root: Path, config_code: str) -> list[float]:
    """CPU seconds to import chronomesh and build the configs, SETUP_REPEATS times.

    Each sample is taken in a fresh interpreter (so the import is real), and
    timed inside it, which leaves interpreter start-up out.
    """
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
            "import timing\n"
            "def setup():\n"
            f"    sys.path.insert(0, {str(root / 'src')!r})\n"
            "    import chronomesh, chronomesh.cli, chronomesh.engine\n"
            f"    {config_code}\n"
            "print(repr(timing.timed(setup)[1].cpu))\n")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Steady1m:
    """One no_delay network of n nodes, built once and stepped phase by phase."""

    name = "steady_1m"
    layers = {"geometry", "channel", "waveform", "estimator", "engine", "clock", "rng"}

    def __init__(self, seed: int, root: Path, n_nodes: int = 1_000_000):
        self.seed = seed
        self.root = root
        self.n_nodes = n_nodes
        self.config = None
        self.state = None
        self.node0 = None

    def _predicted_candidates(self):
        """Scenario seeds whose node 0 is predicted to sit in the coverage band.

        Replays place_nodes' documented draw order (all x, then all y) to
        get node 0 without building the network.
        """
        region = Region()
        for k in range(100_000):
            candidate = self.seed * 100_000 + k
            rng = substream(candidate, DOMAIN_PLACEMENT)
            x0 = rng.uniform(0.0, region.width, size=self.n_nodes)[0]
            y0 = rng.uniform(0.0, region.height, size=self.n_nodes)[0]
            area = disk_intersection_area(region, (x0, y0), _RANGE)
            if COVERAGE_BAND[0] <= area <= COVERAGE_BAND[1]:
                yield candidate
        raise RuntimeError("no scenario seed puts node 0 in the coverage band")

    def _node0(self, state) -> dict:
        dist = state.rx_gain_dist
        x, y = (float(v) for v in state.positions[0])
        edge = dist.effective_range > state.config.region.edge_distance(x, y)
        return {"scenario_seed": state.config.seed, "node0": [x, y],
                "coverage_area": float(dist.area_at_range),
                "channel.edge_receivers": int(edge)}

    def _build(self, scenario_seed: int):
        config = engine.ScenarioConfig(n_nodes=self.n_nodes, regime="no_delay",
                                       seed=scenario_seed)
        state, clock = timed(engine.NetworkState, config)
        return config, state, clock.cpu

    def setup(self) -> list[float]:
        samples = []
        for candidate in self._predicted_candidates():
            self.state = None
            self.config, self.state, seconds = self._build(candidate)
            samples.append(seconds)
            area = self.state.rx_gain_dist.area_at_range
            if COVERAGE_BAND[0] <= area <= COVERAGE_BAND[1]:
                break
            if len(samples) >= _MAX_SEARCH_BUILDS:
                raise RuntimeError("placement no longer matches the node-0 predictor")
        while len(samples) < SETUP_BUILDS:
            self.state = None
            self.config, self.state, seconds = self._build(self.config.seed)
            samples.append(seconds)
        self.node0 = self._node0(self.state)
        return samples

    def _check_phase(self, report) -> list[str]:
        loc = report.crossing
        if loc is None or not math.isfinite(loc):
            return [f"phase {report.phase_index}: no crossing"]
        if abs(loc - report.center) > CROSSING_BOUND:
            return [f"phase {report.phase_index}: crossing {loc - report.center:+.3g} "
                    f"from centre exceeds {CROSSING_BOUND}"]
        return []

    def op(self) -> Outcome:
        report = engine.run_phase(self.state)
        problems = self._check_phase(report)
        return Outcome(1, len(problems), problems, report.crossing)

    def trace_pass(self) -> Outcome:
        if self.config is None:
            self.config = engine.ScenarioConfig(
                n_nodes=self.n_nodes, regime="no_delay",
                seed=next(self._predicted_candidates()))
        state = engine.NetworkState(self.config)
        reports = [engine.run_phase(state) for _ in range(TRACE_PHASES)]
        if self.node0 is None:
            self.node0 = self._node0(state)
        problems = [p for r in reports for p in self._check_phase(r)]
        return Outcome(len(reports), len(problems), problems,
                       tuple(r.crossing for r in reports))

    def single_worker(self, reference: Outcome, reference_wall: float):
        return None        # no thread pool on this path

    def named(self, op_times, outcomes) -> dict:
        return {"phase_s_p50": (median(op_times), "s")}

    def inputs(self) -> dict:
        return {"n_nodes": self.n_nodes, **(self.node0 or {})}


class EpsilonSweep:
    """estimate_epsilon on the delay regime with tol=0, a fixed round count."""

    name = "epsilon_sweep"
    layers = Steady1m.layers | {"parallel"}

    def __init__(self, seed: int, root: Path, n_seeds: int = 50, n_nodes: int = 10_000,
                 rounds: int = 2):
        self.seed = seed
        self.root = root
        self.n_seeds = n_seeds
        self.n_nodes = n_nodes
        self.rounds = rounds
        self.config = engine.ScenarioConfig(n_nodes=n_nodes, regime="delay", seed=seed)

    def setup(self) -> list[float]:
        code = (f"chronomesh.engine.ScenarioConfig(n_nodes={self.n_nodes}, "
                f"regime='delay', seed={self.seed})")
        return import_setup_samples(self.root, code)

    def _estimate(self, threads=None) -> Outcome:
        report = engine.estimate_epsilon(self.config, n_seeds=self.n_seeds,
                                         n_nodes=self.n_nodes, tol=0.0,
                                         max_iter=self.rounds, threads=threads)
        children = self.n_seeds * self.rounds
        history = report.history
        problems = []
        if len(history) != self.rounds + 1 or report.iterations != self.rounds:
            problems.append(f"history has {len(history)} entries, want {self.rounds + 1}")
        elif not all(math.isfinite(e) for e in history):
            problems.append(f"non-finite interior offset in {history}")
        # estimate_epsilon only reports that some child failed, so a failed
        # check counts every child network of the call
        return Outcome(children, children if problems else 0, problems,
                       (history, report.boundary_epsilon))

    def op(self) -> Outcome:
        return self._estimate()

    def trace_pass(self) -> Outcome:
        return self._estimate()

    def single_worker(self, reference: Outcome, reference_wall: float):
        outcome, clock = timed(self._estimate, threads=1)
        if outcome.fingerprint != reference.fingerprint:
            outcome.failed = outcome.attempted
            outcome.problems.append("epsilon history differs at 1 worker")
        return outcome, clock.wall / reference_wall

    def named(self, op_times, outcomes) -> dict:
        children = self.n_seeds * self.rounds
        return {"child_networks_per_s": (median(children / t for t in op_times), "1/s")}

    def inputs(self) -> dict:
        return {"scenario_seed": self.seed, "n_seeds": self.n_seeds,
                "n_nodes": self.n_nodes, "rounds": self.rounds}


class Baselines:
    """A pco census and a relay cascade, both through cli.run_command."""

    name = "baselines"
    layers = {"cli", "parallel", "pco", "multihop", "rng"}

    def __init__(self, seed: int, root: Path, pco_trials: int = 2000, hops: int | None = None):
        self.seed = seed
        self.root = root
        self.pco_trials = pco_trials
        # the chain that crosses a 1e6-node deployment, as in steady_1m
        self.hops = hops or round(hop_count_estimate(1_000_000).hop_count)
        self.work_dir = root / ".perfbench_out" / "cli"
        self.census_argv = ["pco", "--trials", str(pco_trials), "--nodes", str(OSCILLATORS),
                            "--seed", str(seed)]
        self.cascade_argv = ["multihop", "--hops", str(self.hops), "--trials",
                             str(CASCADE_TRIALS), "--seed", str(seed)]

    def setup(self) -> list[float]:
        code = f"argv = [{self.census_argv!r}, {self.cascade_argv!r}]"
        return import_setup_samples(self.root, code)

    def _command(self, argv, files):
        """Run one CLI command into a fresh directory; exit code, wall seconds, file bytes."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        out = tempfile.mkdtemp(dir=self.work_dir)
        try:
            code, clock = timed(cli.run_command, argv + ["--out", out])
            data = {}
            for name in files:
                path = os.path.join(out, name)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        data[name] = fh.read()
            return code, clock.wall, data
        finally:
            shutil.rmtree(out)

    def _census(self):
        code, wall, data = self._command(self.census_argv, ["census.csv"])
        problems = []
        if code != 0:
            problems.append(f"pco census exited {code}")
        else:
            rows = data.get("census.csv", b"").decode("ascii").splitlines()[1:]
            if len(rows) != self.pco_trials:
                problems.append(f"census.csv has {len(rows)} rows, want {self.pco_trials}")
        return problems, wall, data

    def _cascade(self):
        code, wall, data = self._command(self.cascade_argv, ["multihop.csv", "contrast.txt"])
        if code != 0:
            return [f"multihop exited {code}"], wall, data
        trend = dict(line.split(" = ") for line in
                     data.get("contrast.txt", b"").decode("ascii").splitlines()
                     if " = " in line)
        slope = float(trend.get("variance_slope_per_hop", "nan"))
        rows = [line.split(",") for line in
                data.get("multihop.csv", b"").decode("ascii").splitlines()[1:]]
        deviation = [float(r[2]) / float(r[3]) - 1.0 for r in rows]
        bound = HOP_VARIANCE_SES * math.sqrt(2.0 / (CASCADE_TRIALS - 1))
        off = [r[0] for r, d in zip(rows, deviation) if not abs(d) <= bound]
        mean_deviation = sum(deviation) / max(len(deviation), 1)
        problems = []
        if len(rows) != self.hops - 1:
            problems.append(f"multihop.csv has {len(rows)} rows, want {self.hops - 1}")
        # slope 1.0 is the variance growth per hop for sigma2 = 1, m = 3
        if not abs(slope - 1.0) <= SLOPE_REL_TOL:
            problems.append(f"cascade variance slope {slope} outside criterion 7")
        if off:
            problems.append(f"cascade variance off the closed form at hops {off[:5]}")
        if not abs(mean_deviation) <= MEAN_DEVIATION_TOL:
            problems.append(f"cascade variances deviate from the closed form by "
                            f"{mean_deviation:+.3f} on average")
        return problems, wall, data

    def op(self) -> Outcome:
        census_problems, census_wall, census = self._census()
        cascade_problems, cascade_wall, cascade = self._cascade()
        failed = bool(census_problems) + bool(cascade_problems)
        return Outcome(2, failed, census_problems + cascade_problems, {**census, **cascade},
                       {"pco_trials_per_s": self.pco_trials / census_wall,
                        "cascade_hop_trials_per_s": self.hops * CASCADE_TRIALS / cascade_wall})

    def trace_pass(self) -> Outcome:
        return self.op()

    def single_worker(self, reference: Outcome, reference_wall: float):
        # only the census runs on the pool; compare it against the census
        # of the reference operation
        saved = os.environ.get(_THREADS_VAR)
        os.environ[_THREADS_VAR] = "1"
        try:
            problems, wall, data = self._census()
        finally:
            if saved is None:
                del os.environ[_THREADS_VAR]
            else:
                os.environ[_THREADS_VAR] = saved
        if data.get("census.csv") != reference.fingerprint.get("census.csv"):
            problems.append("census.csv differs at 1 worker")
        reference_census = self.pco_trials / reference.rates["pco_trials_per_s"]
        return Outcome(1, bool(problems), problems, data), wall / reference_census

    def named(self, op_times, outcomes) -> dict:
        return {name: (median(o.rates[name] for o in outcomes), "1/s")
                for name in ("pco_trials_per_s", "cascade_hop_trials_per_s")}

    def inputs(self) -> dict:
        return {"cli_seed": self.seed, "pco_trials": self.pco_trials,
                "cascade_hops": self.hops, "cascade_trials": CASCADE_TRIALS}


WORKLOADS = {w.name: w for w in (Steady1m, EpsilonSweep, Baselines)}
