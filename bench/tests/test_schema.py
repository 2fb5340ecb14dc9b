"""Schema checks on ``BENCHMARK.json`` and the metric table behind it."""

from __future__ import annotations

import json
import re

from bench import REPO_ROOT
from bench.metrics import (END_TO_END, PER_LAYER, WORKLOADS, benchmark_json)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

DOC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_derived_from_the_metric_table() -> None:
    assert DOC == benchmark_json(DOC["run_seconds"])


def test_top_level_shape() -> None:
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["paths"] == ["bench"]
    assert 1 <= DOC["run_seconds"] <= 60
    assert len(DOC["command"]) <= 32
    assert all(len(part) <= 200 for part in DOC["command"])
    assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # 4 + 22 runs per workload, each with set-up, must end within 3420 s.
    runs = 4 + 22 * len(DOC["workloads"])
    assert runs * (DOC["run_seconds"] + 12) <= 3420


def test_limits_and_names() -> None:
    assert 2 <= len(DOC["workloads"]) <= 8
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    names = ([w["name"] for w in DOC["workloads"]]
             + [m["name"] for m in DOC["end_to_end"]]
             + [m["name"] for m in DOC["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in DOC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DOC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in DOC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DOC["end_to_end"] + DOC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_setup_s_has_the_largest_bound() -> None:
    by_name = {m["name"]: m for m in DOC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])


def test_predictions_refer_to_declared_names() -> None:
    end_to_end = {m.name for m in END_TO_END}
    for metric in END_TO_END:
        assert set(metric.workloads) <= set(WORKLOADS), metric.name
    for metric in PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.on, f"{metric.name} predicts no workload"
        assert set(metric.on) <= set(WORKLOADS), metric.name
        assert set(metric.flat_on) <= set(WORKLOADS), metric.name
        assert not set(metric.on) & set(metric.flat_on), metric.name


def test_every_optimisation_has_a_bypass_workload() -> None:
    """Each layer's timing metrics name a workload that exercises the layer
    and one on which the prediction is no change."""
    for metric in PER_LAYER:
        if metric.unit in ("us", "ns") and metric.name.split(".")[0] in (
                "baselines", "nn", "core", "memsim"):
            assert metric.flat_on, metric.name
