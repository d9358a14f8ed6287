"""chronomesh benchmark.

    python3 perfbench/run.py --workload steady_1m --seed 0 --seconds 45 --trace 0

Runs one workload (or ``all``) against the chronomesh sources in ``src/`` of
the checkout this file sits in. With ``--trace 0`` it runs the workload's
operation once untimed, then times it for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed untraced pass, the
same pass traced, and the thread-pool map again at one worker, and reports
the per-layer metrics.
Every line before the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics. Results, provenance
and spans are also written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# The workloads BENCHMARK.json gates, in its order. epsilon_sweep runs only
# by hand: its 12 s operations give few samples a run, and its runs do not
# fit in the time all gated runs may take together.
NAMES = ("steady_1m", "baselines")
UNGATED = ("epsilon_sweep",)

# (name, unit) of the end-to-end metrics, the same for every workload.
END_TO_END = [("setup_s", "s"), ("op_cpu_s_p50", "s"), ("peak_rss_mb", "MB")]
# Per-layer metrics a traced run adds to tracing.LAYER_METRICS.
TRACE_EXTRA = [("trace.wall_s", "s"), ("trace.overhead_share", "ratio"),
               ("parallel.speedup_vs_1", "x")]


def load_package():
    """Import chronomesh from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "chronomesh" / "__init__.py").is_file():
        raise ImportError(f"no chronomesh sources under {src}")
    sys.path.insert(0, str(src))
    import chronomesh
    if Path(chronomesh.__file__).resolve().parent != (src / "chronomesh").resolve():
        raise ImportError(f"chronomesh was imported from {chronomesh.__file__}, not {src}")
    return chronomesh


def provenance(workload) -> dict:
    import numpy
    import scipy
    from chronomesh import parallel

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chronomesh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "CHRONOMESH_THREADS": os.environ.get("CHRONOMESH_THREADS"),
        "thread_cap": parallel.thread_cap(),
        "workload": workload.name,
        "seed": workload.seed,
        "inputs": workload.inputs(),
    }


def measure(workload, seconds: float):
    """End-to-end run: set-up samples, one warm-up operation, then operations
    until seconds pass. The warm-up is checked but not timed."""
    from timing import timed

    setup = workload.setup()
    clocks, outcomes = [], [workload.op()]
    start = time.perf_counter()
    while True:
        outcome, clock = timed(workload.op)
        clocks.append(clock)
        outcomes.append(outcome)
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    op_wall = [c.wall for c in clocks]
    op_cpu = [c.cpu for c in clocks]

    values = {
        "setup_s": statistics.median(setup),
        "op_cpu_s_p50": statistics.median(op_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    named = dict(workload.named(op_wall, outcomes[1:]))
    named["op_wall_s_p50"] = (statistics.median(op_wall), "s")
    named["wall_s"] = (wall, "s")
    named["failed_share"] = (failed / attempted, "ratio")
    samples = {"setup_s": setup, "op_cpu_s_p50": op_cpu, "op_wall_s_p50": op_wall}
    return metrics, named, samples, attempted, failed, problems


def traced(workload):
    """Untraced pass, traced pass, and the pool map again at one worker."""
    import tracing

    from timing import timed

    reference, untraced = timed(workload.trace_pass)
    untraced_wall = untraced.wall

    before = tracing.hooked_attributes()
    with tracing.Tracer() as tracer:
        t0 = time.perf_counter()
        outcome = workload.trace_pass()
        traced_wall = time.perf_counter() - t0
    after = tracing.hooked_attributes()

    outcomes = [reference, outcome]
    problems = []
    if outcome.fingerprint != reference.fingerprint:
        outcome.failed = outcome.attempted
        problems.append("traced pass changed the outputs")
    restored = [key[1] for key in before if after[key] is not before[key]]
    if restored:
        problems.append(f"attributes not restored after tracing: {restored}")

    metrics = tracing.layer_metrics(tracer, traced_wall)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    one = workload.single_worker(reference, untraced.wall)
    speedup = 0.0
    if one is not None:
        single, speedup = one
        outcomes.append(single)
    metrics["parallel.speedup_vs_1"] = (speedup, "x")

    observed = tracing.observed_layers(tracer)
    flags = {
        "not_observed": sorted(workload.layers - observed),
        "unexpected": sorted(observed - workload.layers),
        "hooks_not_hit": tracing.unhit_hooks(tracer, workload.layers),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{workload.name}-seed{workload.seed}-spans.jsonl")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + (1 if restored else 0)
    problems = [p for o in outcomes for p in o.problems] + problems
    return metrics, flags, attempted, failed, problems


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, ROOT)
    info = {}
    if trace:
        metrics, flags, attempted, failed, problems = traced(workload)
        named = {}
        info["flags"] = flags
        for key in ("not_observed", "unexpected"):
            if flags[key]:
                print(f"{name}: layers {key.replace('_', ' ')}: {', '.join(flags[key])}")
    else:
        metrics, named, samples, attempted, failed, problems = measure(workload, seconds)
        info["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        info["samples"] = samples
    for key, (value, unit) in {**metrics, **named}.items():
        extra = f" (n={len(info['samples'][key])})" if key in info.get("samples", {}) else ""
        print(f"{name}: {key} = {value:.6g} {unit}{extra}")
    for problem in sorted(set(problems)):
        print(f"{name}: FAILED CHECK ({problems.count(problem)}x): {problem}")
    info["provenance"] = provenance(workload)
    print(f"{name}: provenance {json.dumps(info['provenance'], sort_keys=True)}")

    result = {
        "correct": (failed == 0 and not problems
                    and all(math.isfinite(v) for v, _ in metrics.values())),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, problems=problems, **info)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + UNGATED + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        # one process per workload, so peak RSS is per workload
        status = 0
        for name in NAMES + UNGATED:
            status |= subprocess.run([sys.executable, __file__, "--workload", name,
                                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]).returncode
        return status

    try:
        load_package()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
