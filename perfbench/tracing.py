"""Spans and counters recorded around the calls into each chronomesh module.

The tracer patches each layer's public callable at the place where its caller
looks it up (a module global of the calling module, or a method on its
class), records one span per call, and restores every attribute on exit.
Nothing under ``src/`` is changed. Spans stay in memory until the run ends.

A span is ``(id, name, start, end, parent, thread)``. Work items that
``run_indexed`` hands to pool threads take the enclosing map span as parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chronomesh import channel, cli, clock, engine, multihop, parallel, pco, waveform


@dataclass(frozen=True)
class Hook:
    owner: object          # module or class whose attribute is replaced
    attr: str
    span: str              # span name; its first part names the layer
    choose: Callable | None = None   # fn(args, kwargs) -> span name, per call
    before: Callable | None = None   # fn(tracer, args, kwargs) -> (args, kwargs)
    after: Callable | None = None    # fn(tracer, args, kwargs, result)

    @property
    def layer(self) -> str:
        return self.span.split(".")[0]

    @property
    def label(self) -> str:
        return f"{self.owner.__name__.rsplit('.', 1)[-1]}.{self.attr}"


def _drawn(tracer, args, kwargs, result):
    # sample(self, rng, size=None)
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    tracer.count("channel.draws", 1 if size is None else int(size))


def _stream_made(tracer, args, kwargs, result):
    tracer.count("rng.streams")


def _radii_evaluated(tracer, args, kwargs, result):
    tracer.count("geometry.area_evals", np.size(args[2] if len(args) > 2 else kwargs["radius"]))


def _law_built(tracer, args, kwargs, result):
    # A law built inside another law (the pathloss part of a delay law) is
    # part of that construction, not a construction of its own.
    if tracer.parent_name() == "channel.build":
        return
    law = args[0]
    pathloss = getattr(law, "pathloss", law)
    rx = pathloss.receiver
    tracer.count("channel.dist_builds")
    if pathloss.effective_range > pathloss.model.region.edge_distance(rx.x, rx.y):
        tracer.count("channel.edge_receivers")


def _evaluator_span(args, kwargs):
    return "waveform.scan" if np.size(args[1]) > 1 else "waveform.bisect"


def _evaluated(tracer, args, kwargs, result):
    size = np.size(args[1])
    if size > 1:
        tracer.count("waveform.grid_points", size)
    else:
        tracer.count("waveform.bisect_evals")


def _crossing_found(tracer, args, kwargs, result):
    tracer.count("waveform.crossings")
    if not result.ok:
        tracer.count("waveform.crossing_failures")


def _map_items(tracer, args, kwargs):
    fn = args[0] if args else kwargs.pop("fn")
    count = args[1] if len(args) > 1 else kwargs.pop("count")
    threads = args[2] if len(args) > 2 else kwargs.pop("threads", None)
    cap = threads if threads is not None else parallel.thread_cap()
    tracer.count("parallel.items", count)
    tracer.maximum("parallel.workers", min(cap, max(count, 1)))
    return (tracer.pool_item(fn), count, threads), {}


def _pco_ran(tracer, args, kwargs, result):
    tracer.count("pco.runs")
    if result.synchronized:
        tracer.count("pco.synced")


def _cascade_ran(tracer, args, kwargs, result):
    trials = kwargs.get("trials", args[1] if len(args) > 1 else None)
    tracer.count("multihop.hop_trials", args[0].hops * trials)


def _csv_rows(tracer, args, kwargs):
    path, header, rows = args

    def counted():
        for row in rows:
            tracer.count("cli.csv_rows")
            yield row

    return (path, header, counted()), kwargs


def hooks() -> list[Hook]:
    """Every boundary the tracer instruments, one entry per lookup site."""
    return [
        Hook(engine, "place_nodes", "geometry.place"),
        Hook(engine, "positions_array", "geometry.place"),
        Hook(channel, "disk_intersection_area", "geometry.area", after=_radii_evaluated),
        Hook(channel.PathlossDistribution, "__post_init__", "channel.build", after=_law_built),
        Hook(channel.DelayDistribution, "__post_init__", "channel.build", after=_law_built),
        Hook(channel.PathlossDistribution, "sample", "channel.sample",
             after=_drawn),
        Hook(channel.DelayDistribution, "sample", "channel.sample",
             after=_drawn),
        Hook(engine, "sample_fix", "channel.sample"),
        Hook(waveform.AggregateEvaluator, "__init__", "waveform.sort",
             after=lambda t, a, k, r: t.count("waveform.events", a[0].events.count)),
        Hook(waveform.AggregateEvaluator, "__call__", "waveform.scan",
             choose=_evaluator_span, after=_evaluated),
        Hook(engine, "find_zero_crossing", "waveform.crossing", after=_crossing_found),
        Hook(engine, "fit", "estimator.fit",
             after=lambda t, a, k, r: t.count("estimator.fit_rows", np.shape(a[0])[0])),
        Hook(engine.NetworkState, "__init__", "engine.build"),
        Hook(engine, "run_phase", "engine.phase"),
        Hook(engine, "run_phase_delay", "engine.phase"),
        Hook(clock.SkewPopulation, "sample", "clock.sample"),
        Hook(engine, "substream", "rng.stream", after=_stream_made),
        Hook(engine, "derive_seed", "rng.stream", after=_stream_made),
        Hook(cli, "substream", "rng.stream", after=_stream_made),
        Hook(cli, "derive_seed", "rng.stream", after=_stream_made),
        Hook(multihop, "substream", "rng.stream", after=_stream_made),
        Hook(engine, "run_indexed", "parallel.map", before=_map_items),
        Hook(cli, "run_indexed", "parallel.map", before=_map_items),
        Hook(pco.PcoConfig, "__post_init__", "pco.config"),
        Hook(cli, "pco_run_to_sync", "pco.run", after=_pco_ran),
        Hook(pco, "pco_step", "pco.step", after=lambda t, a, k, r: t.count("pco.steps")),
        Hook(cli, "run_cascade", "multihop.cascade", after=_cascade_ran),
        Hook(cli, "run_command", "cli.command"),
        Hook(cli, "write_csv", "cli.csv", before=_csv_rows),
    ]


def hooked_attributes() -> dict[tuple[int, str], object]:
    """Current value of every hooked attribute, keyed by (owner id, name)."""
    return {(id(h.owner), h.attr): vars(h.owner)[h.attr] for h in hooks()}


class Tracer:
    """Context manager that installs the hooks and collects spans and counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.hits: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, key: str, amount=1):
        with self._lock:
            self.counts[key] += amount

    def count_hit(self, label: str):
        with self._lock:
            self.hits[label] += 1

    def maximum(self, key: str, value):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def pool_item(self, fn):
        """Wrap a run_indexed work item so its spans hang off the map span."""
        frame = self._stack()[-1]

        def item(i):
            stack = self._stack()
            stack.append(frame)
            try:
                return self.call("parallel.item", fn, i)
            finally:
                stack.pop()

        return item

    # -- patching -------------------------------------------------------

    def _wrap(self, hook: Hook, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count_hit(hook.label)
            name = hook.span if hook.choose is None else hook.choose(args, kwargs)
            if hook.before is None:
                result = self.call(name, original, *args, **kwargs)
            else:
                result = self.call(name, self._before_then, hook, original, args, kwargs)
            if hook.after is not None:
                hook.after(self, args, kwargs, result)
            return result
        return wrapper

    def _before_then(self, hook: Hook, original, args, kwargs):
        # runs inside the span, so work the hook hands on (pool items) can
        # name it as parent
        args, kwargs = hook.before(self, args, dict(kwargs))
        return original(*args, **kwargs)

    def __enter__(self) -> "Tracer":
        for hook in hooks():
            original = vars(hook.owner)[hook.attr]
            self._saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(hook, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- summaries ------------------------------------------------------

    def busy(self, names: set[str]) -> float:
        """Seconds inside spans named in names, nested repeats counted once.

        Spans on different threads add up, so busy time can exceed wall time.
        """
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span_id, name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            outer = True
            while parent is not None:
                anc = by_id.get(parent)
                if anc is None:
                    break
                if anc[1] in names:
                    outer = False
                    break
                parent = anc[4]
            if outer:
                total += end - start
        return total

    def self_time(self, name: str) -> float:
        """Summed self time of spans named name: duration minus child cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        total = 0.0
        for span_id, span_name, start, end, _, _ in self.spans:
            if span_name != name:
                continue
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            total += (end - start) - covered
        return total

    def write_spans(self, path):
        """Write every span as one JSON line, start and end relative to the first."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            for span_id, name, start, end, parent, thread in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "thread": thread}) + "\n")


def _share(names):
    return lambda t, wall: t.busy(names) / wall


def _count(key):
    return lambda t, wall: t.counts[key]


def _sync_ratio(t, wall):
    runs = t.counts["pco.runs"]
    return t.counts["pco.synced"] / runs if runs else 0.0


# Per-layer metrics of a traced pass: (name, unit, better, fn(tracer, wall)).
# Busy time is given as a share of the traced pass's wall time, summed over
# threads; multiply by trace.wall_s for seconds. Counts cover the whole pass.
LAYER_METRICS = [
    ("geometry.place_share", "ratio", "lower", _share({"geometry.place"})),
    ("geometry.area_share", "ratio", "lower", _share({"geometry.area"})),
    ("geometry.area_evals", "count", "lower", _count("geometry.area_evals")),
    ("channel.sample_share", "ratio", "lower", _share({"channel.sample"})),
    ("channel.draws", "count", "lower", _count("channel.draws")),
    ("channel.dist_builds", "count", "lower", _count("channel.dist_builds")),
    ("channel.edge_receivers", "count", "lower", _count("channel.edge_receivers")),
    ("waveform.sort_share", "ratio", "lower", _share({"waveform.sort"})),
    ("waveform.events", "count", "lower", _count("waveform.events")),
    ("waveform.scan_share", "ratio", "lower", _share({"waveform.scan"})),
    ("waveform.grid_points", "count", "lower", _count("waveform.grid_points")),
    ("waveform.bisect_share", "ratio", "lower", _share({"waveform.bisect"})),
    ("waveform.bisect_evals", "count", "lower", _count("waveform.bisect_evals")),
    ("waveform.crossings", "count", "higher", _count("waveform.crossings")),
    ("waveform.crossing_failures", "count", "lower", _count("waveform.crossing_failures")),
    ("estimator.fit_share", "ratio", "lower", _share({"estimator.fit"})),
    ("estimator.fit_rows", "count", "lower", _count("estimator.fit_rows")),
    ("engine.build_share", "ratio", "lower", _share({"engine.build"})),
    ("engine.build_self_share", "ratio", "lower",
     lambda t, wall: t.self_time("engine.build") / wall),
    ("engine.phase_share", "ratio", "lower", _share({"engine.phase"})),
    ("engine.phase_self_share", "ratio", "lower",
     lambda t, wall: t.self_time("engine.phase") / wall),
    ("clock.sample_share", "ratio", "lower", _share({"clock.sample"})),
    ("rng.streams", "count", "lower", _count("rng.streams")),
    ("rng.stream_share", "ratio", "lower", _share({"rng.stream"})),
    ("parallel.map_share", "ratio", "lower", _share({"parallel.map"})),
    ("parallel.items", "count", "higher", _count("parallel.items")),
    ("parallel.workers", "count", "higher", _count("parallel.workers")),
    ("pco.config_share", "ratio", "lower", _share({"pco.config"})),
    ("pco.step_share", "ratio", "lower", _share({"pco.step"})),
    ("pco.steps", "count", "lower", _count("pco.steps")),
    ("pco.sync_ratio", "ratio", "higher", _sync_ratio),
    ("multihop.cascade_share", "ratio", "lower", _share({"multihop.cascade"})),
    ("multihop.hop_trials", "count", "higher", _count("multihop.hop_trials")),
    ("cli.command_share", "ratio", "lower", _share({"cli.command"})),
    ("cli.csv_share", "ratio", "lower", _share({"cli.csv"})),
    ("cli.csv_rows", "count", "higher", _count("cli.csv_rows")),
]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, tuple[float, str]]:
    return {name: (float(fn(tracer, wall)), unit) for name, unit, _, fn in LAYER_METRICS}


def observed_layers(tracer: Tracer) -> set[str]:
    """Layers with at least one span (pool-item wrappers excluded)."""
    return {s[1].split(".")[0] for s in tracer.spans if s[1] != "parallel.item"}


def unhit_hooks(tracer: Tracer, layers: set[str]) -> list[str]:
    """Hooks of the given layers that were never called."""
    return sorted(h.label for h in hooks() if h.layer in layers and tracer.hits[h.label] == 0)
