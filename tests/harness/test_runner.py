"""The parallel, cached grid runner.

Cell functions live at module level so ``ProcessPoolExecutor`` can pickle
them into workers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.harness import fleet
from repro.harness.fig5 import Fig5Config, fig5_job, run_fig5
from repro.harness.fleet import baseline_job, run_lane_job, score
from repro.harness.runner import (
    SpecError,
    canonicalize_spec,
    resolve_jobs,
    run_grid,
    spec_key,
)


def _square_cell(spec: dict) -> dict:
    if spec.get("log"):
        with open(spec["log"], "a", encoding="utf-8") as fh:
            fh.write(f"{spec['x']}\n")
    return {"value": spec["x"] ** 2}


def _specs(n: int, log: str | None = None) -> list[dict]:
    return [{"kind": "square", "x": x, "log": log} for x in range(n)]


class TestRunGrid:
    def test_serial_matches_parallel(self):
        serial = run_grid(_specs(8), _square_cell)
        parallel = run_grid(_specs(8), _square_cell, jobs=2)
        assert serial == parallel == [{"value": x ** 2} for x in range(8)]

    def test_results_in_spec_order(self):
        specs = _specs(5)[::-1]
        assert run_grid(specs, _square_cell, jobs=2) == [
            {"value": x ** 2} for x in (4, 3, 2, 1, 0)]

    def test_duplicate_specs_computed_once(self, tmp_path):
        log = str(tmp_path / "calls.log")
        specs = _specs(3, log=log) + _specs(3, log=log)
        results = run_grid(specs, _square_cell)
        assert results[:3] == results[3:]
        assert len(Path(log).read_text().splitlines()) == 3

    def test_second_invocation_served_from_cache(self, tmp_path):
        cache = tmp_path / "cache"
        log = str(tmp_path / "calls.log")
        specs = _specs(4, log=log)
        first = run_grid(specs, _square_cell, cache_dir=cache)
        assert len(Path(log).read_text().splitlines()) == 4
        assert len(list(cache.glob("*.json"))) == 4
        second = run_grid(specs, _square_cell, cache_dir=cache)
        assert second == first
        # no new cell executions: all four served from disk
        assert len(Path(log).read_text().splitlines()) == 4

    def test_spec_change_invalidates_only_that_cell(self, tmp_path):
        cache = tmp_path / "cache"
        log = str(tmp_path / "calls.log")
        run_grid(_specs(3, log=log), _square_cell, cache_dir=cache)
        changed = _specs(3, log=log)
        changed[1]["x"] = 99
        results = run_grid(changed, _square_cell, cache_dir=cache)
        assert results[1] == {"value": 99 ** 2}
        # 3 initial executions + 1 for the changed cell
        assert len(Path(log).read_text().splitlines()) == 4

    def test_cache_file_is_inspectable_json(self, tmp_path):
        cache = tmp_path / "cache"
        spec = {"kind": "square", "x": 7, "log": None}
        run_grid([spec], _square_cell, cache_dir=cache)
        payload = json.loads((cache / f"{spec_key(spec)}.json").read_text())
        assert payload["spec"] == spec
        assert payload["result"] == {"value": 49}

    def test_spec_key_is_order_insensitive(self):
        assert (spec_key({"a": 1, "b": 2})
                == spec_key({"b": 2, "a": 1}))
        assert spec_key({"a": 1}) != spec_key({"a": 2})


class TestResolveJobs:
    def test_auto_detects_from_available_cores(self):
        import os

        try:
            cores = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            cores = os.cpu_count() or 1
        assert resolve_jobs(None, 64) == min(cores, 64)

    def test_auto_honors_affinity_mask(self, monkeypatch):
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert resolve_jobs(None, 64) == 3

    def test_auto_falls_back_without_affinity_api(self, monkeypatch):
        import repro.harness.runner as runner_mod

        monkeypatch.delattr(runner_mod.os, "sched_getaffinity",
                            raising=False)
        cores = runner_mod.os.cpu_count() or 1
        assert resolve_jobs(None, 64) == min(cores, 64)

    def test_auto_caps_at_grid_size(self):
        assert resolve_jobs(None, 1) == 1  # serial: pool beats one cell

    def test_explicit_jobs_capped_at_grid_size(self):
        assert resolve_jobs(8, 3) == 3

    def test_zero_and_one_mean_serial(self):
        assert resolve_jobs(0, 10) == 1
        assert resolve_jobs(1, 10) == 1

    def test_auto_matches_serial_results(self):
        auto = run_grid(_specs(6), _square_cell, jobs=None)
        serial = run_grid(_specs(6), _square_cell, jobs=1)
        assert auto == serial == [{"value": x ** 2} for x in range(6)]


class TestCanonicalSpecs:
    def test_tuple_and_list_share_a_key(self):
        # json round-trips tuples as lists, so a cached cell written with a
        # tuple must be found again by the list-shaped spec (and vice versa).
        assert spec_key({"ws": (1, 2, 3)}) == spec_key({"ws": [1, 2, 3]})

    def test_nested_dict_key_order_insensitive(self):
        assert (spec_key({"sim": {"a": 1, "b": 2}})
                == spec_key({"sim": {"b": 2, "a": 1}}))

    def test_numpy_scalar_rejected_with_field_path(self):
        with pytest.raises(SpecError, match=r"spec\['sim'\]\['seed'\]"):
            spec_key({"sim": {"seed": np.int64(3)}})

    def test_numpy_array_rejected(self):
        with pytest.raises(SpecError, match="ndarray"):
            spec_key({"weights": np.zeros(3)})

    def test_nan_rejected(self):
        with pytest.raises(SpecError, match="NaN/inf"):
            spec_key({"lr": float("nan")})

    def test_inf_rejected_inside_list(self):
        with pytest.raises(SpecError, match=r"spec\['xs'\]\[1\]"):
            spec_key({"xs": [1.0, float("inf")]})

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(SpecError, match="non-string key"):
            spec_key({"by_seed": {0: "a"}})

    def test_callable_rejected(self):
        with pytest.raises(SpecError, match="function"):
            spec_key({"fn": _square_cell})

    def test_canonicalize_normalizes_tuples(self):
        assert canonicalize_spec({"ws": (1, (2, 3))}) == {"ws": [1, [2, 3]]}

    def test_allowed_primitives_pass_through(self):
        spec = {"s": "x", "i": 1, "f": 0.5, "b": True, "n": None}
        assert canonicalize_spec(spec) == spec


class TestFig5ThroughRunner:
    CONFIG = Fig5Config(applications=("resnet",), n_accesses=4_000, seed=3)

    def test_parallel_and_cached_identical_to_serial(self, tmp_path):
        serial = run_fig5(self.CONFIG, models=("hebbian",))
        parallel = run_fig5(self.CONFIG, models=("hebbian",), jobs=2,
                            cache_dir=tmp_path / "cache")
        cached = run_fig5(self.CONFIG, models=("hebbian",),
                          cache_dir=tmp_path / "cache")
        assert serial.rows == parallel.rows == cached.rows
        assert serial.rows[0].trace_name == "resnet"

    def test_cell_spec_ignores_sibling_apps(self):
        """A Fig. 5 job's spec does not depend on the sibling apps."""
        wide = Fig5Config(applications=("resnet", "mcf"), n_accesses=4_000)
        narrow = Fig5Config(applications=("resnet",), n_accesses=4_000)
        assert (spec_key(fig5_job("resnet", "hebbian", wide))
                == spec_key(fig5_job("resnet", "hebbian", narrow)))

    def test_cell_roundtrips_summary_fields(self):
        job = fig5_job("resnet", "hebbian", self.CONFIG)
        row = run_lane_job(job)
        base = run_lane_job(baseline_job(job))
        assert row["trace_name"] == base["trace_name"] == "resnet"
        assert row["prefetcher_name"] == "cls-hebbian"
        assert base["prefetcher_name"] == "none"
        assert json.loads(json.dumps(row)) == row
        summary = score(row, base)
        assert summary.misses_baseline == base["demand_misses"] > 0
        assert summary.misses_with_prefetch == row["demand_misses"]

    def test_baseline_runs_once_per_app(self, monkeypatch):
        """Two models on two apps: four model runs, two ``none`` runs."""
        ran: list[tuple[str, str]] = []
        real = fleet.simulate

        def counting(trace, prefetcher, *args, **kwargs):
            ran.append((trace.name, prefetcher.name))
            return real(trace, prefetcher, *args, **kwargs)

        monkeypatch.setattr(fleet, "simulate", counting)
        config = Fig5Config(applications=("resnet", "mcf"),
                            n_accesses=2_000, vocab_size=64)
        result = run_fig5(config, jobs=1)
        assert len(result.rows) == 4
        assert sorted(ran) == sorted(
            [(app, name) for app in ("resnet", "mcf")
             for name in ("cls-hebbian", "cls-lstm", "none")])
        for row in result.rows:
            assert row.misses_baseline > 0

    def test_warm_cache_computes_no_job(self, tmp_path, monkeypatch):
        cold = run_fig5(self.CONFIG, models=("hebbian",),
                        cache_dir=tmp_path)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a cached job was recomputed")

        monkeypatch.setattr(fleet, "simulate", boom)
        warm = run_fig5(self.CONFIG, models=("hebbian",), cache_dir=tmp_path)
        assert warm.rows == cold.rows
