"""The benchmark's one command: run a workload, check it, print its metrics.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the run measures the
end-to-end metrics with nothing wrapped; with ``--trace 1`` it wraps the
program's layers from outside and reports the per-layer metrics instead.
Lines before the last describe the host and the samples behind each
metric; the last line is the result::

    {"correct": true, "attempted": 8, "failed": 0,
     "metrics": {"setup_s": {"value": 0.041, "unit": "s"}, ...}}

Any failed correctness check makes ``correct`` false and the exit code 1.
``--scale tiny`` shrinks every workload to a few seconds, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

WORKLOADS = ("epoch-churn", "serve-closed", "serve-open-churn", "paper-suite")

#: every end-to-end metric and its unit; each workload reports all of them
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: every per-layer metric and its unit; a layer a workload does not run
#: reads zero there
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in (
        "churn.apply", "adversary.population", "idspace.ring",
        "inputgraph.make_input_graph", "inputgraph.route_many",
        "core.evaluate", "core.measure_qf", "core.evaluate_robustness",
    )},
    "core.build_new_graph.self_s": "s",
    "core.build_new_graph.searches": "count",
    "inputgraph.route_many.calls": "count",
    "inputgraph.route_many.queries": "count",
    "inputgraph.route_many.hops": "count",
    "inputgraph.route_many.ns_per_hop": "ns",
    "core.step.coverage": "ratio",
    "serve.answer.us_p50": "us",
    "core.search_batch.us_p50": "us",
    "inputgraph.route_many.us_p50": "us",
    "serve.canonical_response.us_p50": "us",
    "serve.request.server_p50_ms": "ms",
    "serve.request.server_p99_ms": "ms",
    "serve.request.other_us": "us",
    "serve.publish.s": "s",
    "serve.step.s": "s",
    "serve.build_snapshot.s": "s",
    "serve.epochs_published": "count",
    "serve.p99_ms.publishing": "ms",
    "serve.p99_ms.quiet": "ms",
    "loadgen.send_lag_p99_ms": "ms",
    **{f"experiments.E{i}.s": "s" for i in range(1, 16)},
    **{f"experiments.{e}-full.s": "s" for e in ("E2", "E3", "E5")},
    "sim.spawn_map.s": "s",
    "sim.pool.spawns": "count",
    "sim.pool.reuses": "count",
    "sim.shm.bytes": "B",
    "sim.shm.pipe_bytes": "B",
    "sim.shm.input_bytes": "B",
    "sim.sweep.cells": "count",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def run_workload(args, tmp: str):
    from perfbench import epoch, serve, suite

    trace = bool(args.trace)
    if args.workload == "epoch-churn":
        return epoch.run(args.seed, args.seconds, trace, args.scale)
    if args.workload == "paper-suite":
        return suite.run(args.seed, trace, args.scale, tmp)
    live = args.workload == "serve-open-churn"
    return serve.run(args.seed, args.seconds, trace, args.scale, live, tmp)


def result_line(result, trace: bool) -> dict:
    wanted = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for name, unit in wanted.items():
        value, _ = result.metrics.get(name, (0.0, unit))
        if name not in result.metrics and not trace:
            result.problems.append(f"end-to-end metric {name} not measured")
        metrics[name] = {"value": value if math.isfinite(value) else None,
                         "unit": unit}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'repro'}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from perfbench.common import host_record

    host = host_record()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        result = run_workload(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    line = result_line(result, bool(args.trace))
    print("host " + json.dumps(host, sort_keys=True))
    print("samples " + json.dumps(result.samples, sort_keys=True))
    for note in result.notes:
        print(f"note: {note}")
    for problem in result.problems:
        print(f"FAILED: {problem}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
