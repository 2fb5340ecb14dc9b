"""Tests for the seed-sweep driver and CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import pytest

from repro.harness import fleet
from repro.harness.export import export_rows_csv
from repro.harness.fig5 import Fig5Config
from repro.harness.variance import VarianceRow, fig5_seed_sweep


class TestSeedSweep:
    def test_aggregates_across_seeds(self):
        rows = fig5_seed_sweep(
            seeds=(0, 1),
            config=Fig5Config(applications=("mcf",), n_accesses=4_000),
            models=("hebbian",))
        assert len(rows) == 1
        row = rows[0]
        assert row.application == "mcf"
        assert len(row.per_seed) == 2
        assert row.worst == min(row.per_seed)
        assert row.mean == pytest.approx(sum(row.per_seed) / 2)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            fig5_seed_sweep(seeds=())


class TestExport:
    def test_dict_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        count = export_rows_csv(path, [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert count == 2
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["a"] == "1"
        assert parsed[1]["b"] == "4.0"

    def test_dataclass_rows(self, tmp_path):
        row = VarianceRow(application="x", model="m", mean=1.0, std=0.1,
                          per_seed=(0.9, 1.1))
        path = tmp_path / "v.csv"
        export_rows_csv(path, [row])
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["application"] == "x"
        assert parsed[0]["per_seed"] == "0.9;1.1"

    def test_heterogeneous_keys_union(self, tmp_path):
        path = tmp_path / "h.csv"
        export_rows_csv(path, [{"a": 1}, {"b": 2}])
        with path.open() as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == ["a", "b"]
            parsed = list(reader)
        assert parsed[0]["b"] == ""
        assert parsed[1]["b"] == "2"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_rows_csv(tmp_path / "e.csv", [])

    def test_bad_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            export_rows_csv(tmp_path / "t.csv", [object()])


@dataclass
class _Row:
    name: str
    value: int


def test_export_plain_dataclass(tmp_path):
    path = tmp_path / "p.csv"
    assert export_rows_csv(path, [_Row("x", 1), _Row("y", 2)]) == 2


def test_sweep_runs_each_baseline_once_and_warm_cache_nothing(
        tmp_path, monkeypatch):
    """One ``none`` job per (app, seed) whatever the model count; a second
    sweep on the same cache_dir computes no job at all."""
    ran: list[str] = []
    real = fleet.simulate

    def counting(trace, prefetcher, *args, **kwargs):
        ran.append(prefetcher.name)
        return real(trace, prefetcher, *args, **kwargs)

    def sweep() -> list[VarianceRow]:
        return fig5_seed_sweep(
            seeds=(0, 1), jobs=1, cache_dir=tmp_path,
            config=Fig5Config(applications=("mcf",), n_accesses=2_000,
                              vocab_size=64))

    monkeypatch.setattr(fleet, "simulate", counting)
    cold = sweep()
    assert sorted(ran) == ["cls-hebbian"] * 2 + ["cls-lstm"] * 2 + ["none"] * 2

    def boom(job: dict) -> dict:  # pragma: no cover - must not run
        raise AssertionError(f"a cached job was recomputed: {job}")

    monkeypatch.setattr(fleet, "run_lane_job", boom)
    assert sweep() == cold
