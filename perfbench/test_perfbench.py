"""Tests of the benchmark itself, on small versions of its workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_package()

import tracing  # noqa: E402  (needs chronomesh on the path)
from workloads import Baselines, EpsilonSweep, Steady1m  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

BYPASSED_ON_BASELINES = ("channel.", "geometry.area_", "waveform.")
BYPASSED_ON_STEADY = ("pco.", "multihop.")


def _zero_metrics(metrics, prefixes):
    return {k: v for k, (v, _) in metrics.items() if k.startswith(prefixes) and v != 0}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    """Keep the test runs' spans and CLI files out of the checkout's results."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_baselines_trace_reads_zero_on_bypassed_layers(out_dir):
    workload = Baselines(3, ROOT, pco_trials=40, hops=10)
    workload.work_dir = out_dir / "cli"
    metrics, flags, attempted, failed, problems = run.traced(workload)
    assert (failed, problems) == (0, [])
    assert _zero_metrics(metrics, BYPASSED_ON_BASELINES) == {}
    assert flags["not_observed"] == [] and flags["unexpected"] == []
    assert metrics["pco.steps"][0] > 0
    assert metrics["multihop.hop_trials"][0] == 10 * 10_000
    assert metrics["cli.csv_rows"][0] == 40 + 9
    assert metrics["parallel.items"][0] == 40
    assert metrics["parallel.speedup_vs_1"][0] > 0


def test_steady_trace_reads_zero_on_bypassed_layers(out_dir):
    workload = Steady1m(0, ROOT, n_nodes=20_000)
    metrics, flags, attempted, failed, problems = run.traced(workload)
    assert (failed, problems) == (0, [])
    assert _zero_metrics(metrics, BYPASSED_ON_STEADY) == {}
    assert flags["not_observed"] == [] and flags["unexpected"] == []
    assert metrics["channel.draws"][0] == 2 * 20_000
    assert metrics["channel.dist_builds"][0] == 1
    assert metrics["channel.edge_receivers"][0] == 1
    assert metrics["waveform.crossings"][0] == 2
    assert metrics["estimator.fit_rows"][0] == 2 * 20_000
    assert metrics["parallel.speedup_vs_1"][0] == 0.0


def test_epsilon_pool_spans_hang_off_the_map_span():
    workload = EpsilonSweep(0, ROOT, n_seeds=4, n_nodes=2000, rounds=1)
    with tracing.Tracer() as tracer:
        outcome = workload.trace_pass()
    assert outcome.failed == 0
    by_id = {s[0]: s for s in tracer.spans}
    maps = [s for s in tracer.spans if s[1] == "parallel.map"]
    items = [s for s in tracer.spans if s[1] == "parallel.item"]
    assert len(maps) == 1 and len(items) == 4
    assert all(s[4] == maps[0][0] for s in items)
    builds = [s for s in tracer.spans if s[1] == "engine.build"]
    assert len(builds) == 4
    assert all(by_id[s[4]][1] == "parallel.item" for s in builds)
    assert tracer.counts["channel.edge_receivers"] == 4


def test_tracer_restores_attributes_after_an_error():
    before = tracing.hooked_attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert tracing.hooked_attributes() != before
            raise RuntimeError("boom")
    after = tracing.hooked_attributes()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_overlapping_children():
    tracer = tracing.Tracer()
    tracer.spans = [(1, "engine.build", 0.0, 10.0, None, 0),
                    (2, "geometry.place", 1.0, 4.0, 1, 0),
                    (3, "clock.sample", 3.0, 5.0, 1, 1),
                    (4, "geometry.place", 2.0, 3.0, 2, 0)]
    assert tracer.self_time("engine.build") == pytest.approx(6.0)
    assert tracer.busy({"geometry.place"}) == pytest.approx(3.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    layer = [(n, u) for n, u, _, _ in tracing.LAYER_METRICS] + list(run.TRACE_EXTRA)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "baselines",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
