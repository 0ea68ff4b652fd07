"""``epoch-churn``: the epoch protocol's step, in this process.

Chord, n = 8192, beta = 0.05, 5% uniform churn, 500 probes.  Construction
searches (``ChordGraph.route_many`` + ``GroupGraph.evaluate``) dominate a
step; the serving, sweep and pool code sit idle.  beta stays at 0.05:
from beta ~0.08 the pair collapses to all-red within a few epochs, the
number of searches routed drops, and step cost would track the collapse
instead of the code.

The run builds the simulator a few times (set-up), then replays the same
seed twice for a fixed number of steps.  The second replay is the oracle
for the first: every :class:`~repro.core.dynamic.EpochReport` must
fingerprint identically, and ``fraction_red`` must stay below 0.5.  With
tracing on, the first replay runs bare and the second traced, so their
step times give the tracing overhead and the fingerprints show that
tracing changed nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from .common import Result, describe, median, peak_rss_mb_self, percentile
from .tracing import EPOCH_LAYERS, Tracer, children_of

SCALES = {
    # nominal_step_s: the step wall on the reference host when the
    # benchmark was defined; it fixes the step count per --seconds, so
    # every commit runs the same steps whatever its speed
    "full": {"n": 8192, "probes": 500, "nominal_step_s": 3.7, "setups": 7},
    "tiny": {"n": 256, "probes": 100, "nominal_step_s": 0.05, "setups": 3},
}
BETA = 0.05
CHURN = 0.05


def steps_for(seconds: float, scale: str) -> int:
    """Steps per replay: the two replays together fill ``seconds``."""
    return max(1, round(seconds / (2 * SCALES[scale]["nominal_step_s"])))


def make_simulator(seed: int, scale: str):
    from repro.churn import UniformChurn
    from repro.core import EpochSimulator, SystemParams

    cfg = SCALES[scale]
    return EpochSimulator(
        SystemParams(n=cfg["n"], beta=BETA, seed=seed),
        topology="chord",
        churn=UniformChurn(rate=CHURN),
        probes=cfg["probes"],
        rng=np.random.default_rng(seed),
    )


def _feed(h, value) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    else:
        h.update(repr(value).encode())


def fingerprint(report) -> str:
    """SHA-256 over every field of an ``EpochReport``, arrays included."""
    h = hashlib.sha256()
    _feed(h, report)
    return h.hexdigest()


def replay(seed: int, steps: int, scale: str, sim=None):
    """Step a simulator for ``seed``; per step: (wall, searches, report)."""
    sim = sim if sim is not None else make_simulator(seed, scale)
    out = []
    for _ in range(steps):
        t0 = time.perf_counter()
        report = sim.step()
        wall = time.perf_counter() - t0
        searches = report.build_1.searches_routed + (
            report.build_2.searches_routed if report.build_2 is not None else 0
        )
        out.append((wall, int(searches), report))
    return out


def digest(steps) -> list[tuple[int, str, float]]:
    """What the gate needs of each step: (epoch, fingerprint, fraction_red)."""
    return [(r.epoch, fingerprint(r), r.fraction_red) for _, _, r in steps]


def check(first, second, result: Result) -> None:
    """The second replay's digests must equal the first's, step by step."""
    for (epoch, a, _), (_, b, _) in zip(first, second):
        if a != b:
            result.fail(2, f"epoch {epoch}: replay fingerprint differs")
    for epoch, _, red in first + second:
        if not red < 0.5:
            result.fail(1, f"epoch {epoch}: fraction_red {red}")


def layer_metrics(spans: list, result: Result) -> None:
    """Per-step layer times, counts and trace coverage of traced steps."""
    kids = children_of(spans)
    steps = [s for s in spans if s.name == "core.step"]

    def descendants(span):
        todo = list(kids.get(id(span), ()))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(kids.get(id(s), ()))

    per_step: list[dict] = []
    routes, builds = [], []
    for step in steps:
        totals: dict[str, float] = {}
        for s in descendants(step):
            totals[s.name] = totals.get(s.name, 0.0) + s.wall
            if s.name == "core.build_new_graph":
                builds.append(s)
                own = s.wall - sum(c.covered for c in kids.get(id(s), ()))
                totals["build_self"] = totals.get("build_self", 0.0) + own
            elif s.name == "inputgraph.route_many":
                routes.append(s)
        per_step.append(totals)

    def step_median(key: str) -> float:
        return median([t.get(key, 0.0) for t in per_step]) if per_step else 0.0

    for name in (
        "churn.apply", "adversary.population", "idspace.ring",
        "inputgraph.make_input_graph", "inputgraph.route_many",
        "core.evaluate", "core.measure_qf", "core.evaluate_robustness",
    ):
        result.put(f"{name}.s", step_median(name), "s")
    result.put("core.build_new_graph.self_s", step_median("build_self"), "s")

    # counts are totals over the traced steps, whose number --seconds fixes
    hops = sum(s.fields["hops"] for s in routes)
    result.put("inputgraph.route_many.calls", len(routes), "count")
    result.put("inputgraph.route_many.queries",
               sum(s.fields["queries"] for s in routes), "count")
    result.put("inputgraph.route_many.hops", hops, "count")
    result.put("inputgraph.route_many.ns_per_hop",
               sum(s.wall for s in routes) / hops * 1e9 if hops else 0.0, "ns")
    result.put("core.build_new_graph.searches",
               sum(s.fields["searches"] for s in builds), "count")
    step_wall = sum(s.wall for s in steps)
    covered = sum(c.covered for s in steps for c in kids.get(id(s), ()))
    result.put("core.step.coverage", covered / step_wall if step_wall else 0.0,
               "ratio")


def run(seed: int, seconds: float, trace: bool, scale: str) -> Result:
    result = Result()
    steps = steps_for(seconds, scale)

    setups = []
    sim = None
    for _ in range(SCALES[scale]["setups"]):
        sim = None
        t0 = time.perf_counter()
        sim = make_simulator(seed, scale)
        setups.append(time.perf_counter() - t0)

    first = replay(seed, steps, scale, sim=sim)
    # keep only what the gate and the metrics need, so the first replay's
    # reports are freed before the second builds its own
    first_walls = [w for w, _, _ in first]
    searches = sum(c for _, c, _ in first)
    first = digest(first)
    sim = None
    tracer = Tracer()
    if trace:
        tracer.install(EPOCH_LAYERS)
    try:
        second = replay(seed, steps, scale)
    finally:
        tracer.uninstall()
    second_walls = [w for w, _, _ in second]
    searches += sum(c for _, c, _ in second)
    result.attempted = 2 * steps
    check(first, digest(second), result)

    if trace:
        layer_metrics(tracer.spans, result)
        bare, traced = median(first_walls), median(second_walls)
        result.put("trace.overhead_pct", (traced - bare) / bare * 100.0, "%")
        if tracer.missing:
            result.notes.append(f"layers not found: {tracer.missing}")
        return result

    walls = first_walls + second_walls
    result.put("setup_s", median(setups), "s")
    result.put("peak_rss_mb", peak_rss_mb_self(), "MB")
    result.put("throughput_per_s", searches / sum(walls), "1/s")
    result.put("latency_p50_ms", median(walls) * 1e3, "ms")
    result.put("latency_p99_ms", percentile(walls, 99.0) * 1e3, "ms")
    result.samples["setup_s"] = describe(setups)
    result.samples["epoch_step_s"] = describe(walls)
    result.samples["searches_per_s"] = {"value": searches / sum(walls),
                                        "n": len(walls)}
    return result
