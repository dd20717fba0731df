"""Smoke run of the benchmark at tiny size.

Each workload runs once, traced: every metric named in
``BENCHMARK.json`` must print with its unit (the per-layer ones in the
result line, the end-to-end ones in the untraced pass's table) and
nothing may fail.  One untraced run checks the result line's
end-to-end form.  warm-query's traced run pays ``repro-serve``'s ~10 s
close stall.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    diagnostics = json.loads(next(line for line in lines
                                  if line.startswith("diagnostics "))
                             .split(" ", 1)[1])
    assert diagnostics["failed_frac"] == 0
    return lines, result


def _check_metrics(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for metric in declared:
        value = metrics[metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_metric(workload):
    lines, result = _run(workload, trace=1)
    _check_metrics(result["metrics"], SPEC["per_layer"])
    for metric in SPEC["end_to_end"]:
        pattern = (rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                   rf"{re.escape(metric['unit'])}$")
        assert any(re.match(pattern, line) for line in lines), metric


def test_untraced_result_holds_end_to_end_metrics():
    _, result = _run("cold-order", trace=0)
    _check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-order",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
