"""Tests of the benchmark itself, on smoke-sized workloads.

    python3 -m pytest perfbench

They run in seconds on the code paths of the full workloads: the loop
program at int:4, 5 fuzz runs per pair, and only the criterion-5 item of
the ladder.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import one_pass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = tracing.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {tuple(line.split()[1:4:2]) for line in lines}
    shown = dict(units)
    if trace == "0":
        shown.update(run.REPORTED, error_rate="ratio")
        shown.update(run.FUZZ_LATENCY if workload == "fuzz" else run.READING_SPLIT)
    for name, unit in shown.items():
        assert (name, unit) in printed, name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.absent_targets"] == 0
        # spans cover the pass: only the benchmark's own bookkeeping is left
        assert 0 <= metrics["trace.unaccounted_s"] < 0.1 * metrics["trace.pass_s"]
        assert any("unaccounted" in line for line in lines), lines


def test_wrong_expected_answer_trips_the_gate(tmp_path):
    expected = workloads.load_expected()
    expected["ladder"]["c5/akd"]["verdict"] = "FAILS"
    ops = workloads.build_ops("ladder", 1, True, tmp_path, expected)
    result = one_pass.run_pass(ops, "plain", time.perf_counter())
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["failures"] == ["c5/akd: HOLDS, expected FAILS"]


def test_readings_that_disagree_fail_both_ops(tmp_path):
    ops = workloads.build_ops("ladder", 1, True, tmp_path)
    failures = workloads.disagreements(ops, {"c5/akd": 0, "c5/nid": 1})
    assert set(failures) == {"c5/akd", "c5/nid"}
    assert workloads.disagreements(ops, {"c5/akd": 0, "c5/nid": 0}) == {}


def test_removed_layer_is_reported_absent(monkeypatch):
    import epiflow.logic

    monkeypatch.delattr(epiflow.logic, "expand")
    tracer = tracing.Tracer()
    tracer.start()
    tracer.stop()
    assert tracer.absent == ["epiflow.logic.expand"]
    assert tracer.metrics()["logic.expand_s"] == 0.0
    assert tracing.wrapped_targets() == []


def test_tracer_wraps_and_unwraps_every_target():
    tracer = tracing.Tracer()
    tracer.start()
    try:
        assert len(tracing.wrapped_targets()) == len(tracing.TARGETS)
    finally:
        tracer.stop()
    assert tracing.wrapped_targets() == []


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _bench("--workload", "fuzz", "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
