"""Spans recorded from outside the program, around its public functions.

The benchmark never edits ``src/``: a :class:`Tracer` replaces a function
where its caller looks it up (a module attribute or a class attribute)
with a wrapper that records one span per call, and puts the original back
on :meth:`Tracer.uninstall`.  Spans nest per thread, stay in memory until
the run ends, and carry optional counts taken from the call's result.

A span has three times: ``t0`` at entry, ``t1`` when the wrapped call
returned, ``t2`` after the count hook ran.  A layer's own time is
``t1 - t0``; the interval a child covers inside its parent is
``t2 - t0``, so the cost of counting is neither the child's time nor its
parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter

__all__ = [
    "EPOCH_LAYERS",
    "SERVE_LAYERS",
    "SUITE_LAYERS",
    "Span",
    "TABLE_LAYERS",
    "Tracer",
    "children_of",
    "load_spans",
]


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "t2", "fields")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = self.t2 = 0.0
        self.fields: dict = {}

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def covered(self) -> float:
        return self.t2 - self.t0


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a ``name`` span per call; ``count(args, kwargs,
        result) -> dict`` adds counts to the span after the call."""
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = span.t2 = perf_counter()
                stack.pop()
            if count is not None:
                span.fields = count(args, kwargs, result)
                span.t2 = perf_counter()
            return result

        return traced

    def install(self, layers) -> None:
        """Wrap every ``(module, attribute path, span name, count)`` target.

        A target the program no longer has is recorded in :attr:`missing`
        and skipped, so its metrics read zero instead of the run crashing.
        """
        for module_name, path, name, count in layers:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            had = attr in vars(owner)
            saved = vars(owner).get(attr)
            setattr(owner, attr, self.wrap(name, original, count))
            self._undo.append((owner, attr, had, saved))

    def uninstall(self) -> None:
        """Put every wrapped function back as it was."""
        while self._undo:
            owner, attr, had, saved = self._undo.pop()
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    def dump(self) -> list:
        """The spans as JSON-ready rows ``[name, t0, t1, t2, parent, fields]``."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.t0, s.t1, s.t2,
             -1 if s.parent is None else index[id(s.parent)], s.fields]
            for s in self.spans
        ]


def load_spans(rows: list) -> list[Span]:
    """Rebuild :meth:`Tracer.dump` rows into linked spans."""
    spans: list[Span] = []
    for name, t0, t1, t2, parent, fields in rows:
        span = Span(name, spans[parent] if parent >= 0 else None)
        span.t0, span.t1, span.t2, span.fields = t0, t1, t2, fields
        spans.append(span)
    return spans


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """``id(parent) -> direct children`` for a list of spans."""
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(id(s.parent), []).append(s)
    return out


# -- the layers each workload wraps ------------------------------------------


def _route_counts(args, kwargs, batch) -> dict:
    queries = int(batch.paths.shape[0])
    return {"queries": queries, "hops": int(batch.hop_counts.sum())}


def _build_counts(args, kwargs, report) -> dict:
    return {"searches": int(report.searches_routed)}


def _experiment_id(args, kwargs, table) -> dict:
    return {"id": str(args[0]).upper(), "fast": bool(kwargs.get("fast", True))}


#: the epoch step and the layers below it, patched where ``step`` looks
#: them up (``repro.core.dynamic``'s module names, the classes' methods)
EPOCH_LAYERS = [
    ("repro.core.dynamic", "EpochSimulator.step", "core.step", None),
    ("repro.churn.models", "UniformChurn.apply", "churn.apply", None),
    ("repro.adversary.strategies", "UniformAdversary.population",
     "adversary.population", None),
    ("repro.core.dynamic", "Ring", "idspace.ring", None),
    ("repro.core.dynamic", "make_input_graph", "inputgraph.make_input_graph",
     None),
    ("repro.core.dynamic", "build_new_graph", "core.build_new_graph",
     _build_counts),
    ("repro.inputgraph.chord", "ChordGraph.route_many", "inputgraph.route_many",
     _route_counts),
    ("repro.core.group_graph", "GroupGraph.evaluate", "core.evaluate", None),
    ("repro.core.dynamic", "measure_qf", "core.measure_qf", None),
    ("repro.core.dynamic", "evaluate_robustness", "core.evaluate_robustness",
     None),
]

#: the per-request path and the publish path of the serving layer
SERVE_LAYERS = EPOCH_LAYERS + [
    ("repro.serve.snapshot", "EpochSnapshot.answer", "serve.answer", None),
    ("repro.core.secure_routing", "SecureRouter.search_batch",
     "core.search_batch", None),
    ("repro.serve.service", "canonical_response", "serve.canonical_response",
     None),
    ("repro.serve.service", "build_snapshot", "serve.build_snapshot", None),
]

#: one span per table: the untraced suite keeps this one for its timings
TABLE_LAYERS = [
    ("repro.experiments", "run_experiment", "experiments.run", _experiment_id),
]

#: the suite's parent process: one span per table, one per pool map
SUITE_LAYERS = TABLE_LAYERS + [
    ("repro.sim.sweep", "spawn_map", "sim.spawn_map", None),
]
