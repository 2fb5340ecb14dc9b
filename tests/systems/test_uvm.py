"""Tests for the CPU-GPU UVM system simulator."""

from __future__ import annotations

import pytest

from repro.baselines import NextLinePrefetcher
from repro.patterns.generators import PatternSpec, stride
from repro.systems.driver import PerStreamPrefetcher
from repro.systems.uvm import UVMSystem


def stream_traces(n: int = 4, length: int = 400):
    return [stride(PatternSpec(n=length, working_set=100, element_size=4096,
                               base=0x1000_0000 * (i + 1), seed=i))
            for i in range(n)]


class TestValidation:
    def test_needs_traces(self):
        with pytest.raises(ValueError):
            UVMSystem(stream_traces=[])

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            UVMSystem(stream_traces=stream_traces(), memory_fraction=0)


class TestLockstep:
    def test_processes_every_access(self):
        system = UVMSystem(stream_traces=stream_traces(3, 200))
        result = system.run(None)
        assert result.accesses == 600
        assert result.rounds >= 200

    def test_fault_batching_cheaper_than_serial(self):
        """Concurrent faults in one round share one fault-handling latency."""
        system = UVMSystem(stream_traces=stream_traces(4, 200),
                           memory_fraction=0.25)
        result = system.run(None)
        serial_cost = result.total_faults * system.fabric.remote_fetch_ns
        assert result.total_time_ns < serial_cost

    def test_unequal_stream_lengths(self):
        traces = stream_traces(2, 300)
        traces[1] = traces[1].slice(0, 50)
        result = UVMSystem(stream_traces=traces).run(None)
        assert result.accesses == 350

    def test_prefetching_increases_throughput(self):
        system = UVMSystem(stream_traces=stream_traces(4, 400),
                           memory_fraction=0.5, prefetch_delay_rounds=1)
        base = system.run(None)
        run = system.run(PerStreamPrefetcher(
            factory=lambda: NextLinePrefetcher(degree=2)))
        assert run.total_faults < base.total_faults
        assert run.throughput_accesses_per_us > base.throughput_accesses_per_us

    def test_speedup_metric(self):
        system = UVMSystem(stream_traces=stream_traces(2, 200))
        base = system.run(None)
        assert base.speedup_over(base) == pytest.approx(1.0)

    def test_fault_rate(self):
        system = UVMSystem(stream_traces=stream_traces(1, 100),
                           memory_fraction=1.0)
        result = system.run(None)
        assert 0.0 < result.fault_rate <= 1.0
