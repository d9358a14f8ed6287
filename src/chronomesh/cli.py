"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment modules:

- ``waveform``: dump one phase's aggregate amplitude trace and its crossing.
- ``steady`` / ``evenodd`` / ``delay``: run synchronization phases and log
  per-phase crossings.
- ``pco``: fire-event log for one oscillator population, or a census of
  random starting points when ``--trials`` asks for more than one (fewer
  than one is a configuration error).
- ``multihop``: relay-chain variance ladder.
- ``channel-sample``: coupled delay/gain draws for one receiver.

Configuration is layered: built-in defaults, then an INI-style ``--config``
file with one section per module, then command-line flags. Every run writes
``manifest.cfg`` next to its CSVs with all values resolved; running that
manifest reproduces the outputs byte for byte, whatever CHRONOMESH_THREADS
says. All floats are printed with 17 significant digits so round-trips
lose nothing.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import ChannelModel, DelayDistribution
from .clock import SkewPopulation
from .engine import NetworkState, ScenarioConfig, no_delay_phase_events, run_phases
from .errors import ConfigurationError, DomainError, NumericsError
from .geometry import NodePosition, Region
from .multihop import HopChainConfig, run_cascade
from .parallel import run_indexed
from .pco import PcoConfig, pco_run_to_sync, random_phases
from .rng import DOMAIN_INIT, DOMAIN_SAMPLE, DOMAIN_SEED_SWEEP, derive_seed, substream
from .waveform import evaluate_aggregate, find_zero_crossing

COMMANDS = ("waveform", "steady", "evenodd", "delay", "pco", "multihop",
            "channel-sample")

_RUN_DEFAULTS = {"seed": "0", "out": "."}

_SCENARIO_DEFAULTS = {
    "nodes": "400",
    "m": "3",
    "sigma2": "0.0001",
    "phases": "1",
    "alpha_low": "0.98",
    "alpha_up": "1.02",
    "delta_low": "-0.5",
    "delta_high": "0.5",
    "gain": "linear",          # linear | unit
    "range": "0.25",
    "wave_speed": "1.0",
    "gate": "0.0",
    "epsilon": "0.0",
    "boundary_epsilon": "0.0",
    "oracle_alpha": "false",
    "compensate_delay": "true",
    "v_factor": "1.0",
    "tau_nz": "auto",
    "grid_points": "2001",
    "receiver_x": "0.5",
    "receiver_y": "0.5",
    "samples": "1000",
}

_PCO_DEFAULTS = {
    "oscillators": "5",
    "epsilon": "0.2",
    "curvature": "3.0",
    "max_cycles": "10000",
    "trials": "1",
}

_MULTIHOP_DEFAULTS = {
    "hops": "10",
    "m": "3",
    "sigma2": "1.0",
    "trials": "10000",
}

_SECTION_DEFAULTS = {
    "run": _RUN_DEFAULTS,
    "scenario": _SCENARIO_DEFAULTS,
    "pco": _PCO_DEFAULTS,
    "multihop": _MULTIHOP_DEFAULTS,
}

_REGIME_BY_COMMAND = {
    "waveform": "no_delay",
    "steady": "no_delay",
    "evenodd": "even_odd",
    "delay": "delay",
}


@dataclass(frozen=True)
class RunManifest:
    """Fully resolved description of one run."""

    command: str
    seed: int
    out_dir: str
    version: str
    source: str                       # config path the run started from
    sections: dict[str, dict[str, str]]

    def render(self) -> str:
        lines = ["[manifest]",
                 f"version = {self.version}",
                 f"source = {self.source}",
                 f"command = {self.command}",
                 f"seed = {self.seed}",
                 f"out = {self.out_dir}",
                 ""]
        for name in ("scenario", "pco", "multihop"):
            lines.append(f"[{name}]")
            section = self.sections[name]
            lines.extend(f"{k} = {section[k]}" for k in sorted(section))
            lines.append("")
        return "\n".join(lines)


# -- config plumbing ------------------------------------------------------

def _load_config(path: str) -> dict[str, dict[str, str]]:
    # values are literal: a manifest records paths and numbers as they were
    # given, so neither "%" nor an inline "#" is special; "#" starts a comment
    # only at the start of a line
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="ascii") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from None
    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        target = "run" if name == "manifest" else name
        if target not in _SECTION_DEFAULTS:
            raise ConfigurationError(f"unknown config section [{name}]")
        known = _SECTION_DEFAULTS[target]
        body = sections.setdefault(target, {})
        for key, value in parser.items(name):
            if name == "manifest" and key in ("version", "source"):
                continue
            if key not in known and not (target == "run" and key == "command"):
                raise ConfigurationError(f"unknown key {key!r} in section [{name}]")
            body[key] = value
    return sections


def _resolve(args: argparse.Namespace) -> RunManifest:
    file_sections = _load_config(args.config) if args.config else {}
    sections = {}
    for name, defaults in _SECTION_DEFAULTS.items():
        merged = dict(defaults)
        merged.update(file_sections.get(name, {}))
        sections[name] = merged

    command = args.command or sections["run"].pop("command", None)
    if command is None:
        raise ConfigurationError("no command given on the command line or in the config")
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")

    overrides = {
        ("run", "seed"): args.seed,
        ("run", "out"): args.out,
        ("scenario", "nodes"): args.nodes,
        ("scenario", "m"): args.m,
        ("scenario", "sigma2"): args.sigma2,
        ("scenario", "phases"): args.phases,
        ("pco", "oscillators"): args.nodes,
        ("multihop", "hops"): args.hops,
        ("multihop", "m"): args.m,
        ("multihop", "sigma2"): args.sigma2,
        ("multihop", "trials"): args.trials,
        ("pco", "trials"): args.trials,
        ("scenario", "samples"): args.trials,
    }
    for (section, key), value in overrides.items():
        if value is not None:
            sections[section][key] = str(value)

    seed = _parse_int(sections["run"]["seed"], "run.seed")
    out_dir = sections["run"]["out"]
    return RunManifest(command, seed, out_dir, __version__,
                       args.config or "(command line)", sections)


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use output directory {path}: {exc.strerror}") from None


def _parse_int(raw: str, label: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{label} must be an integer, got {raw!r}") from None


def _parse_float(raw: str, label: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"{label} must be a finite number, got {raw!r}")
    return value


def _parse_bool(raw: str, label: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"{label} must be a boolean, got {raw!r}")


def build_scenario(manifest: RunManifest) -> ScenarioConfig:
    raw = manifest.sections["scenario"]
    gain_kind = raw["gain"].strip().lower()
    if gain_kind == "unit":
        max_range = math.inf
    elif gain_kind == "linear":
        max_range = _parse_float(raw["range"], "scenario.range")
    else:
        raise ConfigurationError(f"scenario.gain must be linear or unit, got {raw['gain']!r}")
    channel = ChannelModel(Region(), max_range,
                           wave_speed=_parse_float(raw["wave_speed"], "scenario.wave_speed"),
                           gate=_parse_float(raw["gate"], "scenario.gate"))
    tau_raw = raw["tau_nz"].strip().lower()
    tau_nz = None if tau_raw == "auto" else _parse_float(raw["tau_nz"], "scenario.tau_nz")
    population = SkewPopulation(_parse_float(raw["alpha_low"], "scenario.alpha_low"),
                                _parse_float(raw["alpha_up"], "scenario.alpha_up"))
    return ScenarioConfig(
        n_nodes=_parse_int(raw["nodes"], "scenario.nodes"),
        m=_parse_int(raw["m"], "scenario.m"),
        sigma2=_parse_float(raw["sigma2"], "scenario.sigma2"),
        regime=_REGIME_BY_COMMAND.get(manifest.command, "no_delay"),
        population=population,
        delta_bar_range=(_parse_float(raw["delta_low"], "scenario.delta_low"),
                         _parse_float(raw["delta_high"], "scenario.delta_high")),
        channel=channel,
        tau_nz=tau_nz,
        v_factor=_parse_float(raw["v_factor"], "scenario.v_factor"),
        epsilon=_parse_float(raw["epsilon"], "scenario.epsilon"),
        boundary_epsilon=_parse_float(raw["boundary_epsilon"], "scenario.boundary_epsilon"),
        oracle_alpha=_parse_bool(raw["oracle_alpha"], "scenario.oracle_alpha"),
        compensate_delay=_parse_bool(raw["compensate_delay"], "scenario.compensate_delay"),
        seed=manifest.seed,
    )


# -- CSV emission ---------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    text = str(value)
    text.encode("ascii")
    return text


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


# -- subcommands ----------------------------------------------------------

def _cmd_waveform(manifest: RunManifest) -> None:
    config = build_scenario(manifest)
    state = NetworkState(config)
    events, center = no_delay_phase_events(state)
    crossing = find_zero_crossing(events, state.pulse, search_center=center,
                                  gate=state.channel.gate)
    points = _parse_int(manifest.sections["scenario"]["grid_points"],
                        "scenario.grid_points")
    if points < 2:
        raise ConfigurationError("scenario.grid_points must be at least 2")
    grid = center + np.linspace(-state.pulse.tau_nz, state.pulse.tau_nz, points)
    amplitude = evaluate_aggregate(events, state.pulse, grid)
    out = manifest.out_dir
    write_csv(os.path.join(out, "waveform.csv"), ["t", "amplitude"],
              zip(grid, amplitude))
    location = crossing.location if crossing.ok else math.nan
    write_csv(os.path.join(out, "crossing.csv"),
              ["center", "location", "max_amplitude", "gated", "no_crossing"],
              [(center, location, crossing.max_amplitude,
                crossing.gated, crossing.no_crossing)])


def _cmd_phases(manifest: RunManifest) -> None:
    state = NetworkState(build_scenario(manifest))
    count = _parse_int(manifest.sections["scenario"]["phases"], "scenario.phases")
    if count < 1:
        raise ConfigurationError("scenario.phases must be at least 1")
    reports = run_phases(state, count)
    if manifest.command == "delay":
        rows = []
        for rep in reports:
            for node in sorted(rep.crossings):
                cr = rep.crossings[node]
                role = "interior" if state.interior[node] else "boundary"
                assumed = state.eps_i[node]
                location = cr.location if cr.ok else math.nan
                offset = location - (rep.center + assumed) if cr.ok else math.nan
                rows.append((rep.phase_index, rep.center, node, role, assumed,
                             location, offset, cr.gated, cr.no_crossing))
        write_csv(os.path.join(manifest.out_dir, "phases.csv"),
                  ["phase", "center", "receiver", "role", "assumed_offset",
                   "crossing", "offset_error", "gated", "no_crossing"],
                  rows)
        return
    rows = []
    for rep in reports:
        cr = rep.crossings[rep.primary]
        location = cr.location if cr.ok else math.nan
        error = abs(location - rep.center) if cr.ok else math.nan
        rows.append((rep.phase_index, rep.center, location, error,
                     cr.gated, cr.no_crossing))
    write_csv(os.path.join(manifest.out_dir, "phases.csv"),
              ["phase", "center", "crossing", "abs_error", "gated", "no_crossing"],
              rows)


def _cmd_pco(manifest: RunManifest) -> None:
    raw = manifest.sections["pco"]
    trials = _parse_int(raw["trials"], "pco.trials")
    if trials < 1:
        raise ConfigurationError("pco.trials must be at least 1")
    n = _parse_int(raw["oscillators"], "pco.oscillators")
    curvature = _parse_float(raw["curvature"], "pco.curvature")
    epsilon = _parse_float(raw["epsilon"], "pco.epsilon")
    max_cycles = _parse_int(raw["max_cycles"], "pco.max_cycles")

    def run(seed: int):
        phases = random_phases(n, substream(seed, DOMAIN_INIT))
        return pco_run_to_sync(PcoConfig(initial_phases=phases, epsilons=epsilon,
                                         curvature=curvature, max_cycles=max_cycles))

    out = manifest.out_dir
    if trials > 1:
        def one(s: int):
            report = run(derive_seed(manifest.seed, DOMAIN_SEED_SWEEP, s))
            return s, report.cycles, report.synchronized

        rows = run_indexed(one, trials)
        write_csv(os.path.join(out, "census.csv"),
                  ["seed", "cycles", "synchronized"], rows)
        return
    report = run(manifest.seed)
    rows = [(k, e.time, len(e.members), ";".join(map(str, e.members)))
            for k, e in enumerate(report.events)]
    write_csv(os.path.join(out, "events.csv"),
              ["event", "time", "group_size", "members"], rows)


def _cmd_multihop(manifest: RunManifest) -> None:
    raw = manifest.sections["multihop"]
    config = HopChainConfig(hops=_parse_int(raw["hops"], "multihop.hops"),
                            m=_parse_int(raw["m"], "multihop.m"),
                            sigma2=_parse_float(raw["sigma2"], "multihop.sigma2"),
                            seed=manifest.seed)
    trials = _parse_int(raw["trials"], "multihop.trials")
    report = run_cascade(config, trials)
    out = manifest.out_dir
    write_csv(os.path.join(out, "multihop.csv"),
              ["hop", "alpha_hat_mean", "empirical_variance", "predicted_variance"],
              zip(report.hops, report.alpha_hat_means,
                  report.empirical_variances, report.predicted_variances))
    with open(os.path.join(out, "contrast.txt"), "w", encoding="ascii") as fh:
        fh.write(report.contrast_note() + "\n")
        fh.write(f"variance_slope_per_hop = {format(report.slope, '.17g')}\n")
        fh.write(f"variance_at_first_hop = {format(report.intercept, '.17g')}\n")


def _cmd_channel_sample(manifest: RunManifest) -> None:
    config = build_scenario(manifest)
    raw = manifest.sections["scenario"]
    receiver = NodePosition(_parse_float(raw["receiver_x"], "scenario.receiver_x"),
                            _parse_float(raw["receiver_y"], "scenario.receiver_y"))
    count = _parse_int(raw["samples"], "scenario.samples")
    if count < 1:
        raise ConfigurationError("scenario.samples must be at least 1")
    rng = substream(manifest.seed, DOMAIN_SAMPLE)
    delays, gains = DelayDistribution(config.channel, receiver).sample_pair(rng, count)
    write_csv(os.path.join(manifest.out_dir, "samples.csv"),
              ["sample", "delay", "gain"],
              ((i, d, g) for i, (d, g) in enumerate(zip(delays, gains))))


_RUNNERS = {
    "waveform": _cmd_waveform,
    "steady": _cmd_phases,
    "evenodd": _cmd_phases,
    "delay": _cmd_phases,
    "pco": _cmd_pco,
    "multihop": _cmd_multihop,
    "channel-sample": _cmd_channel_sample,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronomesh",
        description="cooperative time-synchronization experiments")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="experiment to run (may come from the config file)")
    parser.add_argument("--config", help="INI config file or a saved manifest")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--nodes", type=int, help="node / oscillator count")
    parser.add_argument("--m", type=int, help="observation window length")
    parser.add_argument("--sigma2", type=float, help="clock readout jitter variance")
    parser.add_argument("--phases", type=int, help="synchronization phases to run")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials / samples")
    parser.add_argument("--hops", type=int, help="relay chain length")
    return parser


def run_command(argv: list[str]) -> int:
    """Parse argv, run the experiment, return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest = _resolve(args)
        _make_out_dir(manifest.out_dir)
        _RUNNERS[manifest.command](manifest)
        with open(os.path.join(manifest.out_dir, "manifest.cfg"), "w",
                  encoding="ascii") as fh:
            fh.write(manifest.render())
    except (ConfigurationError, DomainError) as exc:
        print(f"chronomesh: error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"chronomesh: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
