"""Run the program's CLI in a child process, timed and optionally traced.

The benchmark starts this script instead of ``python -m repro`` when it
needs to see inside the child:

* ``--trace`` installs the span wrappers of :mod:`perfbench.tracing`
  (``--layers serve`` or ``--layers suite``) before the CLI runs;
* ``--layers suite`` without ``--trace`` still wraps ``run_experiment``
  alone, which times each table at the cost of one clock read per table;
* ``--warm-workers N`` boots the program's warm process pool and has
  every worker import the experiments before the clock stops for set-up;
* ``--setup-only`` exits once set-up is done.

Each entry of ``--argv-json`` (a JSON list of argument lists) is one
``repro.cli.main`` call, all in this process.  At exit the script writes
``--out``: set-up and end times on the system-wide monotonic clock, the
spans, the layers it could not find, and the peak RSS of the largest
process it ran.

    python3 perfbench/launch.py --out o.json --layers suite \\
        --argv-json '[["--seed", "1", "experiments", "E8"]]'
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def _warm(_) -> int:
    """Pool task: import what the suite's cells need, then report in."""
    import repro.experiments  # noqa: F401

    time.sleep(0.05)  # hold this worker so the next task lands on another
    return os.getpid()


def warm_pool(workers: int) -> int:
    """Boot the warm pool; returns how many workers answered."""
    try:
        from repro.sim.pool import get_pool
    except ImportError:
        return 0
    pool = get_pool(workers)
    pids: set[int] = set()
    for _ in range(5):
        pids.update(pool.map(_warm, range(workers)))
        if len(pids) >= workers:
            break
    return len(pids)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--argv-json", required=True)
    p.add_argument("--layers", choices=["serve", "suite"], required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--warm-workers", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from perfbench import tracing
    import repro.cli

    tracer = tracing.Tracer()
    if args.layers == "serve":
        layers = tracing.SERVE_LAYERS if args.trace else []
    else:
        layers = tracing.SUITE_LAYERS if args.trace else tracing.TABLE_LAYERS
    tracer.install(layers)
    warmed = warm_pool(args.warm_workers) if args.warm_workers else 0
    t_ready = time.monotonic()
    code = 0
    if not args.setup_only:
        for cli_argv in json.loads(args.argv_json):
            code = repro.cli.main(cli_argv) or code
    sys.stdout.flush()
    t_end = time.monotonic()
    tracer.uninstall()
    try:
        from repro.sim.pool import shutdown_pool
    except ImportError:
        pass
    else:
        shutdown_pool()  # reap the workers so their peak RSS is counted
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "t_ready": t_ready,
            "t_end": t_end,
            "warmed": warmed,
            "missing": tracer.missing,
            "peak_rss_mb": peak_kib / 1024.0,
            "spans": tracer.dump(),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
