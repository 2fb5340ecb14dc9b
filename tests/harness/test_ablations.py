"""Smoke tests for the ablation drivers (small sizes; benches run them big)."""

from __future__ import annotations

import pytest

from repro.harness import ablations, fleet
from repro.harness.ablations import (
    ablation_adaptation,
    ablation_availability,
    ablation_encoding,
    ablation_length_width,
    ablation_noise_robustness,
    ablation_prediction_mode,
    ablation_sampling,
    ablation_sparsity,
)


class TestSampling:
    def test_rows_and_cost_ordering(self):
        rows = ablation_sampling(n_accesses=4_000, seed=0)
        by_policy = {r["policy"]: r for r in rows}
        assert by_policy["always"]["train_fraction"] == 1.0
        assert by_policy["every4"]["train_fraction"] == pytest.approx(0.25, abs=0.01)
        # cheaper policies train on strictly fewer samples
        assert (by_policy["every4"]["trained_steps"]
                < by_policy["always"]["trained_steps"])


class TestLengthWidth:
    def test_grid_complete(self):
        rows = ablation_length_width(n_accesses=3_000, lengths=(1, 2),
                                     widths=(1, 2), delays=(0, 4))
        assert len(rows) == 8

    def test_delay_hurts_short_length(self):
        rows = ablation_length_width(n_accesses=4_000, lengths=(1,),
                                     widths=(1,), delays=(0, 4))
        timely = next(r for r in rows if r["delay_accesses"] == 0)
        late = next(r for r in rows if r["delay_accesses"] == 4)
        assert late["misses_removed_pct"] < timely["misses_removed_pct"]


class TestEncoding:
    def test_memcached_defeats_both_encoders(self):
        rows = ablation_encoding(n_accesses=4_000)
        memcached = [r for r in rows if r["workload"] == "memcached"]
        assert all(r["misses_removed_pct"] < 15.0 for r in memcached)

    def test_pointer_chase_is_learnable(self):
        rows = ablation_encoding(n_accesses=4_000)
        chase = [r for r in rows if r["workload"] == "pointer_chase"]
        assert max(r["misses_removed_pct"] for r in chase) > 10.0


class TestAvailability:
    def test_both_protocols_run(self):
        rows = ablation_availability(n_accesses=3_000)
        protocols = {r["protocol"] for r in rows}
        assert protocols == {"train-in-place", "shadow-copy"}
        in_place = next(r for r in rows if r["protocol"] == "train-in-place")
        assert in_place["redeploys"] == 0


class TestNoise:
    def test_curves_for_both_families(self):
        rows = ablation_noise_robustness(seed=0)
        models = {r["model"] for r in rows}
        assert models == {"hebbian", "lstm"}
        for model in models:
            curve = {r["sigma"]: r["confidence"] for r in rows
                     if r["model"] == model}
            assert curve[0.0] > 0.5
            assert curve[0.05] > 0.5 * curve[0.0]  # robust to small noise


class TestSparsity:
    def test_grid_and_monotone_cost(self):
        rows = ablation_sparsity(connectivities=(0.05, 0.25),
                                 activations=(0.05, 0.25))
        assert len(rows) == 4
        # more connectivity -> more parameters
        low = next(r for r in rows
                   if r["connectivity"] == 0.05 and r["activation"] == 0.05)
        high = next(r for r in rows
                    if r["connectivity"] == 0.25 and r["activation"] == 0.05)
        assert high["parameters"] > low["parameters"]

    def test_paper_setting_learns(self):
        rows = ablation_sparsity(connectivities=(0.125,), activations=(0.10,))
        assert rows[0]["confidence"] > 0.7


#: Every ablation that takes a cache_dir, at test sizes.
CACHED = {
    "sampling": lambda cache: ablation_sampling(n_accesses=1_500,
                                                cache_dir=cache),
    "length_width": lambda cache: ablation_length_width(
        n_accesses=1_500, lengths=(1,), widths=(1, 2), delays=(0, 4),
        cache_dir=cache),
    "prediction_mode": lambda cache: ablation_prediction_mode(
        n_accesses=1_500, delays=(0,), cache_dir=cache),
    "encoding": lambda cache: ablation_encoding(n_accesses=1_000,
                                                cache_dir=cache),
    "availability": lambda cache: ablation_availability(n_accesses=1_500,
                                                        cache_dir=cache),
    "sparsity": lambda cache: ablation_sparsity(
        connectivities=(0.125,), activations=(0.10,), cache_dir=cache),
}


@pytest.mark.parametrize("name", sorted(CACHED))
def test_warm_cache_computes_no_job(name, tmp_path, monkeypatch):
    cold = CACHED[name](tmp_path)

    def boom(spec: dict) -> dict:  # pragma: no cover - must not run
        raise AssertionError(f"a cached job was recomputed: {spec}")

    monkeypatch.setattr(fleet, "run_lane_job", boom)
    monkeypatch.setattr(ablations, "_sparsity_cell", boom)
    assert CACHED[name](tmp_path) == cold


def test_adaptation_windows_follow_the_phase_switch():
    rows = ablation_adaptation(n_per_phase=600, window=300)
    assert {r["model"] for r in rows} == {"hebbian", "hebbian+recall", "lstm"}
    assert [r["window"] for r in rows if r["model"] == "lstm"] == [0, 1]
    assert all(r["misses_removed_pct"] <= 100.0 for r in rows)
