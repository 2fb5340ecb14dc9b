"""Tests for the disaggregated-memory system: per-node lane jobs and the
switch-centralized loop."""

from __future__ import annotations

import pytest

from repro.baselines import NextLinePrefetcher
from repro.harness import trace_cache
from repro.harness.fig6 import node_job, run_node_jobs
from repro.systems.disaggregated import DisaggregatedSystem
from repro.systems.latency import DISAGGREGATED_FABRIC


def node_recipes(n: int = 2, length: int = 600) -> list[dict]:
    return [{"pattern": "stride", "n": length, "working_set": 100,
             "element_size": 4096, "base": 0x1000_0000 * (i + 1), "seed": i}
            for i in range(n)]


def node_traces(n: int = 2, length: int = 600):
    return [trace_cache.materialize(recipe)
            for recipe in node_recipes(n, length)]


def per_node(prefetcher: dict, n: int = 2, length: int = 600):
    jobs = [node_job(recipe, prefetcher, memory_fraction=0.5)
            for recipe in node_recipes(n, length)]
    return run_node_jobs({"arm": jobs}, jobs=1)["arm"]


class TestValidation:
    def test_needs_traces(self):
        with pytest.raises(ValueError):
            DisaggregatedSystem(node_traces=[])

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            DisaggregatedSystem(node_traces=node_traces(), memory_fraction=0)


class TestRuns:
    def test_baseline_all_nodes_present(self):
        result = per_node({"prefetcher": "none"}, n=3)
        assert len(result.nodes) == 3
        assert result.placement == "none"
        assert all(n.accesses == 600 for n in result.nodes)

    def test_misses_cost_remote_latency(self):
        fabric = DISAGGREGATED_FABRIC
        nextline = {"prefetcher": "nextline", "args": {"degree": 2}}
        for result in (per_node(nextline, n=1),
                       DisaggregatedSystem(node_traces=node_traces(1))
                       .run_centralized(NextLinePrefetcher)):
            node = result.nodes[0]
            assert 0 < node.demand_misses < node.accesses
            expected = (node.demand_misses * fabric.remote_fetch_ns
                        + (node.accesses - node.demand_misses)
                        * fabric.local_access_ns)
            assert node.total_stall_ns == expected

    def test_decentralized_prefetch_reduces_latency(self):
        base = per_node({"prefetcher": "none"})
        run = per_node({"prefetcher": "nextline", "args": {"degree": 2}})
        assert run.placement == "decentralized"
        assert run.mean_access_ns < base.mean_access_ns
        assert run.speedup_over(base) > 1.1

    def test_centralized_sees_all_streams(self):
        seen_streams = set()

        class Spy:
            name = "spy"

            def on_miss(self, event):
                seen_streams.add(event.stream_id)
                return []

        system = DisaggregatedSystem(node_traces=node_traces(3))
        assert system.run_centralized(Spy).placement == "centralized"
        assert seen_streams == {0, 1, 2}

    def test_centralized_handles_unequal_lengths(self):
        traces = node_traces(2)
        traces[1] = traces[1].slice(0, 100)
        system = DisaggregatedSystem(node_traces=traces)
        result = system.run_centralized(NextLinePrefetcher)
        assert result.nodes[0].accesses == 600
        assert result.nodes[1].accesses == 100

    def test_speedup_identity(self):
        base = per_node({"prefetcher": "none"}, n=1)
        assert base.speedup_over(base) == pytest.approx(1.0)
