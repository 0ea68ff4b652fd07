"""``serve-closed`` and ``serve-open-churn``: the query service under load.

The service runs as a child process (``python -m repro serve run``, or
:mod:`perfbench.launch` when traced) and this process drives it over two
connections (:mod:`perfbench.loadgen`).

* ``serve-closed``: n = 4096, no epochs, so the snapshot is static and
  every cost is on the per-request path (parse, a one-probe
  ``search_batch``, ``canonical_response``, drain).  Closed loop.
* ``serve-open-churn``: n = 4096 with live epochs under 5% churn, paced so
  publishes run for the whole window.  Open loop, Poisson arrivals at
  500 QPS: below saturation, so p99 shows the stalls the step and the
  snapshot build cause, not a growing queue.

Every response line is then byte-compared with the offline oracle
(:func:`repro.serve.oracle.verify_responses`), outside the timed window.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import socket
import subprocess
import sys
import time
from time import monotonic

from .common import (
    HERE, ROOT, Result, describe, median, peak_rss_mb_of, percentile,
    program_env, read_events, stop_process,
)
from .loadgen import Queries, closed_loop, open_loop
from .tracing import load_spans

SCALES = {
    "full": {"n": 4096, "setups": 5, "warmup_s": 1.0, "rate": 500.0},
    "tiny": {"n": 256, "setups": 2, "warmup_s": 0.2, "rate": 200.0},
}
BETA = 0.05
CHURN = 0.05
PROBES = 500
EPOCH_PERIOD_S = 0.1
#: more epochs than any window can publish: the service steps until stopped
LIVE_EPOCHS = 100_000
BANNER_TIMEOUT_S = 60.0
#: the end-to-end figures are medians over slices this long: ~1000
#: requests each at 500 QPS, so each slice's p99 has ten beyond it
SLICE_S = 2.0


def serve_argv(seed: int, n: int, live: bool) -> list[str]:
    return [
        "--seed", str(seed), "serve", "run", "-n", str(n),
        "--beta", str(BETA), "--epochs", str(LIVE_EPOCHS if live else 0),
        "--churn", str(CHURN), "--probes", str(PROBES),
        "--epoch-period", str(EPOCH_PERIOD_S),
    ]


def serve_config(seed: int, n: int, live: bool):
    from repro.serve import ServeConfig

    return ServeConfig(
        n=n, beta=BETA, seed=seed, topology="chord",
        epochs=LIVE_EPOCHS if live else 0, churn_rate=CHURN, probes=PROBES,
        epoch_period_s=EPOCH_PERIOD_S,
    )


class Server:
    """One service process, from launch to its ``serving on`` banner."""

    def __init__(self, argv: list[str], env: dict):
        self.t_launch = monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BANNER_TIMEOUT_S)
        banner = self.proc.stdout.readline() if ready else ""
        self.setup_s = monotonic() - self.t_launch
        if not banner.startswith("serving on "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"service did not start: {banner!r}")
        host, port = banner.split()[2].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        try:
            with socket.create_connection((self.host, self.port), 10) as s:
                s.sendall(b'{"op": "stop"}\n')
                s.recv(4096)
        except OSError:
            self.proc.kill()
        stop_process(self.proc)
        self.proc.stdout.read()
        self.proc.stdout.close()


def launch(seed: int, n: int, live: bool, trace_dir: str | None) -> Server:
    """The plain CLI, or the tracing launcher writing into ``trace_dir``."""
    argv = serve_argv(seed, n, live)
    if trace_dir is None:
        return Server([sys.executable, "-m", "repro", *argv], program_env())
    argv += ["--telemetry", os.path.join(trace_dir, "events.jsonl")]
    return Server([
        sys.executable, str(HERE / "launch.py"), "--layers", "serve",
        "--trace", "--out", os.path.join(trace_dir, "launch.json"),
        "--argv-json", json.dumps([argv]),
    ], program_env())


def drive(server: Server, n: int, seed: int, live: bool, scale: str,
          seconds: float):
    cfg = SCALES[scale]
    queries = Queries(n, seed)
    if live:
        coro = open_loop(server.host, server.port, queries, seed,
                         cfg["rate"], cfg["warmup_s"], seconds)
    else:
        coro = closed_loop(server.host, server.port, queries,
                           cfg["warmup_s"], seconds)
    # the generator's own collector pauses would read as service latency;
    # its samples hold no cycles, so nothing leaks meanwhile
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(coro)
    finally:
        gc.enable()


def verify_lines(config, lines: list[str]) -> list[str]:
    """Oracle problems for the response lines (one per bad line)."""
    from repro.serve import verify_responses

    return verify_responses(config, lines, max_problems=len(lines) + 1)


def check(config, samples, result: Result) -> None:
    result.attempted += len(samples)
    unanswered = sum(1 for s in samples if s.line is None)
    if unanswered:
        result.fail(unanswered, f"{unanswered} request(s) got no answer")
    lines = [s.line for s in samples if s.line is not None]
    problems = verify_lines(config, lines) if lines else []
    if problems:
        result.fail(len(problems), f"{len(problems)} response(s) failed the "
                                   f"oracle; first: {problems[0]}")


def measured(samples):
    return [s for s in samples if not s.warm]


def slices(window, seconds: float) -> list[list]:
    """The window cut into ~2 s slices by scheduled send time."""
    count = max(1, round(seconds / SLICE_S))
    start = min(s.sched for s in window)
    out: list[list] = [[] for _ in range(count)]
    for s in window:
        out[min(count - 1, int((s.sched - start) / seconds * count))].append(s)
    return out


def end_to_end(samples, seconds: float, result: Result) -> None:
    """Each metric is the median over the window's slices, so a burst of
    host noise or stalls moves one slice's figure, not the run's."""
    window = measured(samples)
    parts = slices(window, seconds)
    units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p99_ms": "ms"}
    per_slice: dict[str, list[float]] = {name: [] for name in units}
    for part in parts:
        answered = sum(1 for s in part if s.line is not None)
        per_slice["throughput_per_s"].append(answered * len(parts) / seconds)
        if not part:
            continue
        lat_ms = [s.latency * 1e3 for s in part]
        per_slice["latency_p50_ms"].append(median(lat_ms))
        per_slice["latency_p99_ms"].append(percentile(lat_ms, 99.0))
    for name, values in per_slice.items():
        result.put(name, median(values), units[name])
        result.samples[f"slice_{name}"] = describe(values)
    lat_ms = [s.latency * 1e3 for s in window]
    result.samples["window_latency_ms"] = describe(lat_ms)
    result.samples["window_p99_ms"] = percentile(lat_ms, 99.0)
    result.samples["send_lag_p99_ms"] = percentile(
        [(s.sent - s.sched) * 1e3 for s in window], 99.0)


def layer_metrics(trace_dir: str, samples, live: bool, result: Result) -> None:
    from .epoch import layer_metrics as step_layers

    with open(os.path.join(trace_dir, "launch.json"), encoding="utf-8") as fh:
        launched = json.load(fh)
    if launched["missing"]:
        result.notes.append(f"layers not found: {launched['missing']}")
    spans = load_spans(launched["spans"])
    events = read_events(os.path.join(trace_dir, "events.jsonl"))
    requests = [e["latency_s"] for e in events if e["type"] == "serve.request"]
    publishes = [e for e in events if e["type"] == "serve.publish"]

    def walls(name: str, parent: str | None = None) -> list[float]:
        return [s.wall for s in spans if s.name == name and (
            parent is None
            or (s.parent is not None and s.parent.name == parent))]

    def us_p50(values: list[float]) -> float:
        return median(values) * 1e6 if values else 0.0

    answer = walls("serve.answer")
    canon = walls("serve.canonical_response")
    result.put("serve.answer.us_p50", us_p50(answer), "us")
    result.put("core.search_batch.us_p50",
               us_p50(walls("core.search_batch")), "us")
    result.put("inputgraph.route_many.us_p50",
               us_p50(walls("inputgraph.route_many", "core.search_batch")),
               "us")
    result.put("serve.canonical_response.us_p50", us_p50(canon), "us")
    if requests:
        result.put("serve.request.server_p50_ms", median(requests) * 1e3, "ms")
        result.put("serve.request.server_p99_ms",
                   percentile(requests, 99.0) * 1e3, "ms")
        mean = sum(requests) / len(requests)
        if answer and canon:
            mean -= sum(answer) / len(answer) + sum(canon) / len(canon)
        result.put("serve.request.other_us", mean * 1e6, "us")
    lag = [(s.sent - s.sched) * 1e3 for s in measured(samples)]
    result.put("loadgen.send_lag_p99_ms", percentile(lag, 99.0), "ms")
    if not live:
        return

    step_layers(spans, result)
    result.put("serve.epochs_published", len(publishes), "count")
    for name, values in (
        ("serve.publish.s", [e["wall_s"] for e in publishes]),
        ("serve.step.s", walls("core.step")),
        ("serve.build_snapshot.s", walls("serve.build_snapshot")),
    ):
        result.put(name, median(values) if values else 0.0, "s")
    # publish windows on the monotonic clock: events carry wall-clock ends
    offset = time.time() - monotonic()
    windows = [(e["ts"] - offset - e["wall_s"], e["ts"] - offset)
               for e in publishes]
    busy, quiet = [], []
    for s in measured(samples):
        overlaps = any(a < s.done and s.sched < b for a, b in windows)
        (busy if overlaps else quiet).append(s.latency * 1e3)
    for name, values in (("publishing", busy), ("quiet", quiet)):
        result.put(f"serve.p99_ms.{name}",
                   percentile(values, 99.0) if values else 0.0, "ms")


def run(seed: int, seconds: float, trace: bool, scale: str, live: bool,
        tmp: str) -> Result:
    result = Result()
    n = SCALES[scale]["n"]
    config = serve_config(seed, n, live)

    if not trace:
        setups = []
        for _ in range(SCALES[scale]["setups"] - 1):
            server = launch(seed, n, live, None)
            setups.append(server.setup_s)
            server.stop()
        server = launch(seed, n, live, None)
        setups.append(server.setup_s)
        try:
            samples = drive(server, n, seed, live, scale, seconds)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        check(config, samples, result)
        end_to_end(samples, seconds, result)
        result.put("setup_s", median(setups), "s")
        result.put("peak_rss_mb", rss, "MB")
        result.samples["setup_s"] = describe(setups)
        return result

    # traced: half the window bare, half traced, for the overhead
    halves = []
    for trace_dir in (None, tmp):
        server = launch(seed, n, live, trace_dir)
        try:
            halves.append(drive(server, n, seed, live, scale, seconds / 2))
        finally:
            server.stop()
        check(config, halves[-1], result)
    bare, traced = (median([s.latency for s in measured(h)]) for h in halves)
    result.put("trace.overhead_pct", (traced - bare) / bare * 100.0, "%")
    layer_metrics(tmp, halves[1], live, result)
    return result
