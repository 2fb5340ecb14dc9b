"""``--scale 0.02`` smoke of all five workloads plus the traced run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench import BENCH_DIR, REPO_ROOT, cli, report, runner
from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS, end_to_end_for

CONTRACT_END_TO_END = {m.name for m in END_TO_END if m.contract}
CONTRACT_PER_LAYER = {m.name for m in PER_LAYER if m.contract}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke(workload, tmp_path) -> None:
    samples = tmp_path / "samples.jsonl"
    result = runner.run_workload(workload, seed=7, seconds=0.2, scale=0.02,
                                 samples_path=samples, setup_launches=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == CONTRACT_END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Re-reporting from the checkpoint gives the same numbers, and every
    # end-to-end metric this workload emits is there by name.
    summary = report.summarize(report.load(samples))[workload]
    assert set(summary) == {m.name for m in end_to_end_for(workload)}
    for name, metric in result["metrics"].items():
        assert summary[name].value == metric["value"]
    assert summary["failed_share"].value == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke(workload, tmp_path) -> None:
    samples = tmp_path / "samples.jsonl"
    result = runner.run_workload(workload, seed=7, seconds=0.2, scale=0.02,
                                 trace=True, samples_path=samples)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == CONTRACT_PER_LAYER
    values = report.layer_values(report.load(samples))[workload]
    # Every metric predicted to move on this workload was measured here
    # (non-contract ones need the full ``bench trace``).
    for metric in PER_LAYER:
        if metric.contract and workload in metric.on:
            assert metric.name in values, metric.name


def test_command_line_contract() -> None:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "sim-classic",
         "--seed", "11", "--seconds", "0.2", "--scale", "0.02", "--trace",
         "0"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_trace_command_and_trace_flag_select_the_same_run(monkeypatch,
                                                         capsys) -> None:
    seen = []

    def fake(name, **kwargs):
        seen.append(kwargs["trace"])
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    monkeypatch.setattr(runner, "run_workload", fake)
    assert cli.main(["trace", "--workload", "sim-classic"]) == 0
    assert cli.main(["--workload", "sim-classic", "--trace", "1"]) == 0
    assert cli.main(["--workload", "sim-classic"]) == 0
    assert seen == [True, True, False]


def test_a_failed_verification_exits_non_zero(monkeypatch, capsys) -> None:
    monkeypatch.setattr(runner, "run_workload", lambda name, **kwargs: {
        "correct": False, "attempted": 4, "failed": 1, "metrics": {}})
    assert cli.main(["--workload", "sim-classic"]) == 1
    # The result is still the last line: the failure is reported, not lost.
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 1


def test_fails_without_a_result_outside_the_repository(tmp_path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no program to measure: exit non-zero, print no result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "sim-classic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
