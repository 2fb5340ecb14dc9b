"""Tests for the Figure 6 harness drivers (small scales)."""

from __future__ import annotations

import pytest

from repro.harness import fig6
from repro.harness.fig6 import (
    Fig6Config,
    modeled_inference_ns,
    run_disaggregated,
    run_irregular_node,
    run_uvm,
)

CONFIG = Fig6Config(n_nodes=2, node_apps=("resnet", "graph500"),
                    accesses_per_node=3_000, n_streams=3,
                    accesses_per_stream=900, seed=0)


#: Exact outcomes on ``CONFIG``: per arm, one ``(demand_misses,
#: prefetch_hits, total_stall_ns)`` per node.  A refactor of how a cell
#: runs must leave every number where it is.
DISAGG_GOLDEN = {
    "baseline": [(1560, 0, 4824000), (306, 0, 1187400)],
    "decentralized_hebbian": [(376, 1184, 1390400), (306, 0, 1187400)],
    "decentralized_lstm": [(1562, 284, 4829800), (306, 0, 1187400)],
    "decentralized_leap": [(510, 1050, 1779000), (288, 21, 1135200)],
    "centralized_hebbian": [(1009, 1256, 3226100), (360, 57, 1344000)],
}
IRREGULAR_GOLDEN = {
    "baseline": [(3000, 0, 9000000)],
    "hebbian": [(2251, 749, 6827900)],
    "leap": [(3000, 0, 9000000)],
}
#: ``(total_faults, prefetch_hits, total_time_ns, rounds, fault_batches)``.
UVM_GOLDEN = {
    "baseline": (1957, 0, 25864880, 900, 878),
    "shared": (2052, 35, 26079840, 900, 879),
    1: (1957, 0, 25864880, 900, 878),
    2: (1957, 0, 25864880, 900, 878),
}
#: ``CONFIG`` at ``benchmarks/test_fig6_target_systems.py``'s 2 000
#: accesses per stream, where the per-stream models learn enough to
#: prefetch (on ``CONFIG``'s 900 they issue nothing useful).
PREFETCHING_CONFIG = Fig6Config(n_nodes=2, node_apps=("resnet", "graph500"),
                                accesses_per_node=3_000, n_streams=3,
                                accesses_per_stream=2_000, seed=0)
PREFETCHING_UVM_GOLDEN = {
    "baseline": (5985, 0, 61920000, 1998, 1998),
    "shared": (5980, 4, 61910000, 1998, 1998),
    1: (5941, 43, 61832000, 1998, 1998),
    2: (5595, 373, 61140000, 1998, 1998),
    4: (3701, 2284, 52384960, 1998, 1799),
}


def node_fields(result):
    return [(n.demand_misses, n.prefetch_hits, n.total_stall_ns)
            for n in result.nodes]


def uvm_fields(result):
    return (result.total_faults, result.prefetch_hits, result.total_time_ns,
            result.rounds, result.fault_batches)


@pytest.fixture(scope="module")
def disagg():
    return run_disaggregated(CONFIG, jobs=1)


class TestDisaggregated:
    def test_all_arms_present(self, disagg):
        assert disagg.baseline.placement == "none"
        assert disagg.decentralized_hebbian.placement == "decentralized"
        assert disagg.centralized_hebbian.placement == "centralized"
        assert len(disagg.decentralized_leap.nodes) == 2

    def test_delays_derived_from_model_latency(self, disagg):
        assert disagg.hebbian_delay_accesses >= 1
        assert disagg.lstm_delay_accesses > 5 * disagg.hebbian_delay_accesses

    def test_speedups_positive(self, disagg):
        for speedup in (disagg.hebbian_speedup, disagg.lstm_speedup,
                        disagg.leap_speedup, disagg.centralized_speedup):
            assert speedup > 0.0

    def test_nodes_cover_all_apps(self, disagg):
        names = {n.trace_name for n in disagg.baseline.nodes}
        assert names == {"resnet", "graph500"}

    def test_golden(self, disagg):
        assert (disagg.hebbian_delay_accesses,
                disagg.lstm_delay_accesses) == (11, 163)
        for arm, nodes in DISAGG_GOLDEN.items():
            assert node_fields(getattr(disagg, arm)) == nodes, arm


    def test_workers_and_result_cache_change_nothing(self, disagg, tmp_path,
                                                     monkeypatch):
        """The per-node cells are lane jobs: two workers and a result
        cache give the serial comparison, and a rerun is served from the
        cache without running a single cell."""
        parallel = run_disaggregated(CONFIG, jobs=2, cache_dir=tmp_path)
        assert parallel == disagg
        # 2 nodes x (baseline + hebbian + lstm + leap)
        assert len(list(tmp_path.glob("*.json"))) == 8

        def not_cached(job):
            raise AssertionError(f"cell recomputed: {job}")

        monkeypatch.setattr(fig6, "run_lane_job", not_cached)
        assert run_disaggregated(CONFIG, jobs=1, cache_dir=tmp_path) == disagg


class TestIrregularNode:
    def test_leap_does_nothing_hebbian_learns(self):
        comparison = run_irregular_node(Fig6Config(accesses_per_node=4_000,
                                                   seed=0))
        assert comparison.leap_speedup == pytest.approx(1.0, abs=0.02)
        assert comparison.hebbian_speedup > 1.05
        assert comparison.leap.total_misses == comparison.baseline.total_misses

    def test_golden(self):
        comparison = run_irregular_node(CONFIG)
        for arm, nodes in IRREGULAR_GOLDEN.items():
            assert node_fields(getattr(comparison, arm)) == nodes, arm


class TestUVM:
    def test_width_sweep_runs(self):
        comparison = run_uvm(CONFIG, widths=(1, 2))
        assert set(comparison.per_stream_by_width) == {1, 2}
        assert comparison.baseline.accesses == comparison.shared.accesses
        for result in comparison.per_stream_by_width.values():
            assert result.accesses == comparison.baseline.accesses
        assert uvm_fields(comparison.baseline) == UVM_GOLDEN["baseline"]
        assert uvm_fields(comparison.shared) == UVM_GOLDEN["shared"]
        for width, result in comparison.per_stream_by_width.items():
            assert uvm_fields(result) == UVM_GOLDEN[width], width

    def test_golden_where_the_per_stream_models_prefetch(self):
        comparison = run_uvm(PREFETCHING_CONFIG, widths=(1, 2, 4))
        golden = PREFETCHING_UVM_GOLDEN
        assert uvm_fields(comparison.baseline) == golden["baseline"]
        assert uvm_fields(comparison.shared) == golden["shared"]
        for width, result in comparison.per_stream_by_width.items():
            assert uvm_fields(result) == golden[width], width
        assert any(result.prefetch_hits > 0
                   for result in comparison.per_stream_by_width.values())


class TestLatencyModel:
    def test_inference_ns_order(self):
        hebbian = modeled_inference_ns("hebbian")
        lstm = modeled_inference_ns("lstm")
        assert 1_000 < hebbian < 20_000      # microseconds
        assert lstm > 100_000                 # >100 us
