"""The benchmark's own tests: every workload at tiny scale, and its gates.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import epoch, run, serve, suite
from perfbench.common import ROOT, Result


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    if not trace:
        for name, metric in line["metrics"].items():
            assert math.isfinite(metric["value"]) and metric["value"] > 0, name


def test_tampered_response_line_fails_the_run(monkeypatch, capsys):
    real = serve.verify_lines

    def tampered(config, lines):
        answer = json.loads(lines[-1])
        answer["hops"] += 1
        return real(config, lines[:-1] + [json.dumps(answer, sort_keys=True,
                                                     separators=(",", ":"))])

    monkeypatch.setattr(serve, "verify_lines", tampered)
    code = run.main(["--workload", "serve-closed", "--seed", "2",
                     "--seconds", "0.5", "--scale", "tiny"])
    line = last_json(capsys.readouterr().out)
    assert code == 1
    assert line["correct"] is False and line["failed"] == 1


def test_altered_table_fails_the_run(monkeypatch, capsys):
    real = suite.compare_tables

    def altered(printed, reference, result):
        real(printed.replace("0", "1", 1), reference, result)

    monkeypatch.setattr(suite, "compare_tables", altered)
    code = run.main(["--workload", "paper-suite", "--seed", "2",
                     "--seconds", "1", "--scale", "tiny"])
    line = last_json(capsys.readouterr().out)
    assert code == 1
    assert line["correct"] is False and line["failed"] >= 1


def test_diverging_epoch_report_fails_the_check():
    first = epoch.replay(4, 2, "tiny")
    second = epoch.replay(4, 2, "tiny")
    wall, searches, report = second[1]
    second[1] = (wall, searches,
                 dataclasses.replace(report, departures=report.departures + 1))
    result = Result()
    epoch.check(epoch.digest(first), epoch.digest(second), result)
    assert not result.correct and result.failed == 2


#: the first two tiny-scale epochs for seed 0; the program promises
#: byte-identical trajectories across refactors
PINNED_TINY_SEED0 = ["775dddde163a715f", "dc746f423e69946e"]


def test_epoch_trajectory_is_pinned():
    reports = [r for _, _, r in epoch.replay(0, 2, "tiny")]
    assert [epoch.fingerprint(r)[:16] for r in reports] == PINNED_TINY_SEED0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "epoch-churn", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
