"""``paper-suite``: every experiment table, on the process backend.

All 15 experiments at fast scale, then E2, E3 and E5 at ``--full`` scale,
as ``repro experiments --backend process --workers 2`` with no cache, in
one child process (:mod:`perfbench.launch`).  It is the one workload that
runs ``repro.sim`` (sweeps, the warm pool, shared-memory transport),
``repro.pow`` and ``repro.baselines``.

Set-up runs from launch until the warm pool's workers have imported the
experiments; the run makes two passes and launches set-up alone once
more, for a median of three.  The tables the child prints must equal, byte for byte, the
tables rendered in this process on the default in-process backend; that
check runs after the timed suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import monotonic

from .common import (
    HERE, ROOT, Result, describe, median, percentile, program_env, read_events,
)
from .tracing import load_spans

WORKERS = 2
SCALES = {
    "full": {"fast": [f"E{i}" for i in range(1, 16)],
             "full": ["E2", "E3", "E5"], "setups": 3},
    "tiny": {"fast": ["E8", "E10", "E13"], "full": ["E3"], "setups": 2},
}
TIMEOUT_S = 170.0
#: suite passes per untraced run; their tables pool for the latencies
PASSES = 2


def suite_argvs(seed: int, scale: str) -> list[list[str]]:
    cfg = SCALES[scale]
    backend = ["--backend", "process", "--workers", str(WORKERS)]
    return [
        ["--seed", str(seed), "experiments", *cfg["fast"], *backend],
        ["--seed", str(seed), "experiments", *cfg["full"], "--full", *backend],
    ]


def launch(seed: int, scale: str, out: str, trace: bool, setup_only: bool,
           events: str | None = None) -> tuple[float, str, dict]:
    """Run the launcher; returns (launch time, its stdout, its out file)."""
    argv = [
        sys.executable, str(HERE / "launch.py"), "--layers", "suite",
        "--out", out, "--warm-workers", str(WORKERS),
        "--argv-json", json.dumps(suite_argvs(seed, scale)),
    ]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    env = program_env(**({"REPRO_TELEMETRY": events} if events else {}))
    t_launch = monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S, check=True)
    with open(out, encoding="utf-8") as fh:
        return t_launch, proc.stdout, json.load(fh)


def reference_tables(seed: int, scale: str) -> list[tuple[str, str]]:
    """(label, text) per table, rendered in this process, as the CLI prints."""
    from repro.experiments import run_experiment

    cfg = SCALES[scale]
    out = []
    for fast, names in ((True, cfg["fast"]), (False, cfg["full"])):
        for name in names:
            table = run_experiment(name, seed=seed, fast=fast)
            out.append((name if fast else f"{name}-full",
                        table.render() + "\n\n"))
    return out


def compare_tables(printed: str, reference: list[tuple[str, str]],
                   result: Result) -> None:
    result.attempted += len(reference)
    pos = 0
    for label, text in reference:
        if printed[pos:pos + len(text)] != text:
            result.fail(1, f"table {label} differs from the in-process render")
        pos += len(text)
    if pos != len(printed):
        result.fail(1, f"{len(printed) - pos} unexpected byte(s) after "
                       f"the last table")


def table_walls(launched: dict) -> dict[str, float]:
    """Parent-side wall per table, labelled ``E2`` or ``E2-full``."""
    walls = {}
    for span in load_spans(launched["spans"]):
        if span.name == "experiments.run":
            label = span.fields["id"] + ("" if span.fields["fast"] else "-full")
            walls[label] = span.wall
    return walls


def layer_metrics(launched: dict, events: list[dict], result: Result) -> None:
    for label, wall in table_walls(launched).items():
        result.put(f"experiments.{label}.s", wall, "s")
    spans = load_spans(launched["spans"])
    result.put("sim.spawn_map.s",
               sum(s.wall for s in spans if s.name == "sim.spawn_map"), "s")

    def total(kind: str, key: str) -> float:
        return sum(e.get(key, 0) for e in events if e["type"] == kind)

    result.put("sim.pool.spawns",
               sum(1 for e in events if e["type"] == "pool.spawn"), "count")
    result.put("sim.pool.reuses",
               sum(1 for e in events if e["type"] == "pool.reuse"), "count")
    result.put("sim.shm.bytes", total("shm.bytes", "shm_bytes"), "B")
    result.put("sim.shm.pipe_bytes", total("shm.bytes", "pickle_bytes"), "B")
    result.put("sim.shm.input_bytes",
               total("shm.input_bytes", "shm_bytes"), "B")
    result.put("sim.sweep.cells", total("sweep.run", "cells"), "count")


def run(seed: int, trace: bool, scale: str, tmp: str) -> Result:
    """Two passes of the suite, whatever --seconds says: one pass is one
    unit of work (10 to 15 s on the reference host)."""
    result = Result()
    out = os.path.join(tmp, "suite.json")

    if trace:
        _, bare_printed, bare = launch(seed, scale, out, False, False)
        events = os.path.join(tmp, "events.jsonl")
        _, printed, traced = launch(seed, scale, out, True, False, events)
        reference = reference_tables(seed, scale)
        compare_tables(bare_printed, reference, result)
        compare_tables(printed, reference, result)
        bare_s = bare["t_end"] - bare["t_ready"]
        traced_s = traced["t_end"] - traced["t_ready"]
        result.put("trace.overhead_pct", (traced_s - bare_s) / bare_s * 100.0,
                   "%")
        layer_metrics(traced, read_events(events), result)
        if traced["missing"]:
            result.notes.append(f"layers not found: {traced['missing']}")
        return result

    setups, suite_walls, walls_ms, printed, peaks = [], [], [], [], []
    for _ in range(SCALES[scale]["setups"] - PASSES):
        t_launch, _, launched = launch(seed, scale, out, False, True)
        setups.append(launched["t_ready"] - t_launch)
    for _ in range(PASSES):
        t_launch, text, launched = launch(seed, scale, out, False, False)
        setups.append(launched["t_ready"] - t_launch)
        suite_walls.append(launched["t_end"] - launched["t_ready"])
        walls_ms += [w * 1e3 for w in table_walls(launched).values()]
        printed.append(text)
        peaks.append(launched["peak_rss_mb"])
    reference = reference_tables(seed, scale)
    for text in printed:
        compare_tables(text, reference, result)

    result.put("setup_s", median(setups), "s")
    result.put("peak_rss_mb", max(peaks), "MB")
    result.put("throughput_per_s", len(walls_ms) / sum(suite_walls), "1/s")
    result.put("latency_p50_ms", median(walls_ms), "ms")
    result.put("latency_p99_ms", percentile(walls_ms, 99.0), "ms")
    result.samples["setup_s"] = describe(setups)
    result.samples["suite_s"] = describe(suite_walls)
    result.samples["table_wall_ms"] = describe(walls_ms)
    return result
