"""Shared pieces of the benchmark: statistics, results, host record, processes."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100] (inf-safe)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if pos == lo or ordered[hi] == ordered[lo]:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values) -> float:
    return percentile(values, 50.0)


def describe(values) -> dict:
    """Median, quartiles and sample count of one timing sample."""
    return {
        "median": median(values),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
        "n": len(values),
    }


@dataclass
class Result:
    """What one run measured and whether its outputs checked out."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit), the metrics the result line carries
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: name -> describe() of the samples behind a metric, for the report
    samples: dict[str, dict] = field(default_factory=dict)
    #: things worth reporting that do not fail the run
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


def peak_rss_mb_self() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """A live process's peak resident set, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_record() -> dict:
    """Host facts recorded next to the metrics (never used to scale them)."""
    import numpy as np

    from repro.analysis.benchio import measure_calibration

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "calibration_wall_s": measure_calibration(),
    }


def program_env(**extra: str) -> dict:
    """Environment for a child process running the program from ``src``."""
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def stop_process(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    """Wait for ``proc`` to end; kill it if it does not within the timeout."""
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30.0)


def read_events(path: str) -> list[dict]:
    """The program's telemetry events from a jsonl file (none if absent)."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
