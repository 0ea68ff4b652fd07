"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload epoch-churn --seed 1 --seconds 12 --trace 0

See ``perfbench/README.md`` for what each workload and metric means.
"""
