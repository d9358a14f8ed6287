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
file with one section per module, then command-line flags. ``_SETTINGS``
declares every key once, with its default text and its parser, and
``_FLAGS`` says which keys each flag overrides. Every value is parsed when
the run is resolved, whichever command reads it, so a run never records a
value it could not re-run. Every run writes ``manifest.cfg`` next to its CSVs
with all values resolved; running that manifest reproduces the outputs byte
for byte, whatever CHRONOMESH_THREADS says. All floats are printed with 17
significant digits so round-trips lose nothing.
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
from .errors import ConfigurationError, DomainError
from .geometry import NodePosition, Region
from .multihop import HopChainConfig, run_cascade
from .parallel import run_indexed
from .pco import PcoConfig, pco_run_to_sync, random_phases
from .rng import DOMAIN_INIT, DOMAIN_SAMPLE, DOMAIN_SEED_SWEEP, derive_seed, substream
from .waveform import AggregateEvaluator, find_zero_crossing

COMMANDS = ("waveform", "steady", "evenodd", "delay", "pco", "multihop",
            "channel-sample")


def _typed(kind: str, convert, accept=lambda value: True):
    """Parser of one setting's text; text that ``convert`` or ``accept`` refuses names ``kind``."""
    def parse(raw: str):
        try:
            value = convert(raw.strip().lower())
        except (KeyError, ValueError):
            raise ValueError(kind) from None
        if not accept(value):
            raise ValueError(kind)
        return value
    return parse


_INT = _typed("an integer", int)
_FLOAT = _typed("a finite number", float, math.isfinite)
_BOOL = _typed("a boolean", {**dict.fromkeys(("true", "yes", "on", "1"), True),
                             **dict.fromkeys(("false", "no", "off", "0"), False)}.__getitem__)


# section -> key -> (default text, parser). Range checks stay with the
# configs and commands that read a value: one flag feeds several sections,
# and a count valid in one (samples >= 1) is invalid in another (trials >= 2).
_SETTINGS = {
    "run": {
        "seed": ("0", _typed("a non-negative integer", int, lambda seed: seed >= 0)),
        "out": (".", str),
    },
    "scenario": {
        "nodes": ("400", _INT),
        "m": ("3", _INT),
        "sigma2": ("0.0001", _FLOAT),
        "phases": ("1", _INT),
        "alpha_low": ("0.98", _FLOAT),
        "alpha_up": ("1.02", _FLOAT),
        "gain": ("linear", _typed("linear or unit",
                                  {"linear": "linear", "unit": "unit"}.__getitem__)),
        "range": ("0.25", _FLOAT),
        "wave_speed": ("1.0", _FLOAT),
        "gate": ("0.0", _FLOAT),
        "epsilon": ("0.0", _FLOAT),
        "oracle_alpha": ("false", _BOOL),
        "compensate_delay": ("true", _BOOL),
        "tau_nz": ("auto", _typed("auto or a finite number",
                                  lambda raw: None if raw == "auto" else float(raw),
                                  lambda tau: tau is None or math.isfinite(tau))),
        "grid_points": ("2001", _INT),
        "receiver_x": ("0.5", _FLOAT),
        "receiver_y": ("0.5", _FLOAT),
        "samples": ("1000", _INT),
    },
    "pco": {
        "oscillators": ("5", _INT),
        "epsilon": ("0.2", _FLOAT),
        "curvature": ("3.0", _FLOAT),
        "max_cycles": ("10000", _INT),
        "trials": ("1", _INT),
    },
    "multihop": {
        "hops": ("10", _INT),
        "m": ("3", _INT),
        "sigma2": ("1.0", _FLOAT),
        "trials": ("10000", _INT),
    },
}

# flag -> (argparse type, help, the section.key settings it overrides)
_FLAGS = {
    "seed": (int, "master seed", ("run.seed",)),
    "out": (str, "output directory", ("run.out",)),
    "nodes": (int, "node / oscillator count", ("scenario.nodes", "pco.oscillators")),
    "m": (int, "observation window length", ("scenario.m", "multihop.m")),
    "sigma2": (float, "clock readout jitter variance", ("scenario.sigma2", "multihop.sigma2")),
    "phases": (int, "synchronization phases to run", ("scenario.phases",)),
    "trials": (int, "Monte-Carlo trials / samples",
               ("multihop.trials", "pco.trials", "scenario.samples")),
    "hops": (int, "relay chain length", ("multihop.hops",)),
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
    source: str                             # config path the run started from
    sections: dict[str, dict[str, str]]     # the text of every setting, as rendered
    values: dict[str, dict[str, object]]    # the same settings, parsed

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    @property
    def out_dir(self) -> str:
        return self.values["run"]["out"]

    def render(self) -> str:
        lines = ["[manifest]",
                 f"version = {__version__}",
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
        # paths are recorded as their bytes, even bytes that are not UTF-8
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from None
    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        target = "run" if name == "manifest" else name
        if target not in _SETTINGS:
            raise ConfigurationError(f"unknown config section [{name}]")
        body = sections.setdefault(target, {})
        for key, value in parser.items(name):
            if name == "manifest" and key in ("version", "source"):
                continue
            if key not in _SETTINGS[target] and not (target == "run" and key == "command"):
                raise ConfigurationError(f"unknown key {key!r} in section [{name}]")
            body[key] = value
    return sections


def _resolve(args: argparse.Namespace) -> RunManifest:
    # text given in the file, then by flags; defaults fill the rest
    given = _load_config(args.config) if args.config else {}
    command = args.command or given.get("run", {}).pop("command", None)
    if command is None:
        raise ConfigurationError("no command given on the command line or in the config")
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    for flag, (_, _, targets) in _FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        for target in targets:
            section, key = target.split(".")
            given.setdefault(section, {})[key] = str(value)

    sections, values = {}, {}
    for name, table in _SETTINGS.items():
        text = sections[name] = {key: default for key, (default, _) in table.items()}
        text.update(given.get(name, {}))
        parsed = values[name] = {}
        for key, (_, parse) in table.items():
            try:
                parsed[key] = parse(text[key])
            except ValueError as exc:
                raise ConfigurationError(f"{name}.{key} must be {exc}, got {text[key]!r}") from None
    source, out = args.config or "(command line)", values["run"]["out"]
    for what, path in (("--config", source), ("run.out", out)):
        if "\n" in path or "\r" in path:      # the manifest records each on a line of its own
            raise ConfigurationError(f"{what} must be a path without line breaks, got {path!r}")
    if not out or out != out.strip():         # the manifest's reader strips each value
        raise ConfigurationError("run.out must be a non-empty path without leading or "
                                 f"trailing whitespace, got {out!r}")
    nearest = os.path.abspath(out)            # write_csv makes the missing directories
    while not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise ConfigurationError(f"run.out must be a directory, but {nearest!r} is not one, "
                                 f"got {out!r}")
    return RunManifest(command, source, sections, values)


def build_scenario(manifest: RunManifest) -> ScenarioConfig:
    s = manifest.values["scenario"]
    max_range = math.inf if s["gain"] == "unit" else s["range"]
    channel = ChannelModel(Region(), max_range, wave_speed=s["wave_speed"], gate=s["gate"])
    return ScenarioConfig(
        n_nodes=s["nodes"], m=s["m"], sigma2=s["sigma2"],
        regime=_REGIME_BY_COMMAND.get(manifest.command, "no_delay"),
        population=SkewPopulation(s["alpha_low"], s["alpha_up"]),
        channel=channel, tau_nz=s["tau_nz"], epsilon=s["epsilon"],
        oracle_alpha=s["oracle_alpha"], compensate_delay=s["compensate_delay"],
        seed=manifest.seed)


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
    # every runner writes a CSV first, so a refused run leaves no output directory
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


# -- subcommands ----------------------------------------------------------

def _cmd_waveform(manifest: RunManifest) -> None:
    points = manifest.values["scenario"]["grid_points"]
    if points < 2:
        raise ConfigurationError("scenario.grid_points must be at least 2")
    state = NetworkState(build_scenario(manifest))
    events, center = no_delay_phase_events(state)
    crossing = find_zero_crossing(events, state.pulse, search_center=center,
                                  gate=state.channel.gate)
    grid = center + np.linspace(-state.pulse.tau_nz, state.pulse.tau_nz, points)
    amplitude = AggregateEvaluator(events, state.pulse)(grid)
    out = manifest.out_dir
    write_csv(os.path.join(out, "waveform.csv"), ["t", "amplitude"],
              zip(grid, amplitude))
    location = crossing.location if crossing.ok else math.nan
    write_csv(os.path.join(out, "crossing.csv"),
              ["center", "location", "max_amplitude", "gated", "no_crossing"],
              [(center, location, crossing.max_amplitude,
                crossing.gated, crossing.no_crossing)])


def _cmd_phases(manifest: RunManifest) -> None:
    count = manifest.values["scenario"]["phases"]
    if count < 1:
        raise ConfigurationError("scenario.phases must be at least 1")
    state = NetworkState(build_scenario(manifest))
    reports = run_phases(state, count)
    if manifest.command == "delay":
        rows = []
        for rep in reports:
            for node in sorted(rep.crossings):
                cr = rep.crossings[node]
                # interior nodes assume epsilon; boundary nodes are handed the instant
                role, assumed = (("interior", state.config.epsilon) if node == rep.primary
                                 else ("boundary", 0.0))
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
    p = manifest.values["pco"]
    trials = p["trials"]
    if trials < 1:
        raise ConfigurationError("pco.trials must be at least 1")

    def run(seed: int):
        phases = random_phases(p["oscillators"], substream(seed, DOMAIN_INIT))
        return pco_run_to_sync(PcoConfig(initial_phases=phases, epsilons=p["epsilon"],
                                         curvature=p["curvature"], max_cycles=p["max_cycles"]))

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
    h = manifest.values["multihop"]
    config = HopChainConfig(hops=h["hops"], m=h["m"], sigma2=h["sigma2"], seed=manifest.seed)
    report = run_cascade(config, h["trials"])
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
    s = manifest.values["scenario"]
    receiver = NodePosition(s["receiver_x"], s["receiver_y"])
    count = s["samples"]
    if count < 1:
        raise ConfigurationError("scenario.samples must be at least 1")
    rng = substream(manifest.seed, DOMAIN_SAMPLE)
    delays, gains = DelayDistribution(config.channel, receiver).sample(rng, count)
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
    for flag, (kind, text, _) in _FLAGS.items():
        parser.add_argument(f"--{flag}", type=kind, help=text)
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
        _RUNNERS[manifest.command](manifest)
        with open(os.path.join(manifest.out_dir, "manifest.cfg"), "w",
                  encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(manifest.render())
    except (ConfigurationError, DomainError) as exc:
        print(f"chronomesh: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:          # an output file the run could not write
        print(f"chronomesh: error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
