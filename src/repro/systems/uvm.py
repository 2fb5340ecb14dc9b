"""CPU-GPU unified-virtual-memory simulator (§4, Figure 6 right).

The paper's characterization of UVM: SIMT execution produces *many
concurrent faults*; lockstep execution means one fault can stall many
threads, so the prefetcher should be *throughput*-optimized; and because
software visibility lives only in the CPU-side driver, prefetching is
necessarily *centralized* over the interleaved access streams of all SMs.

Model: ``n_streams`` access streams advance in lockstep rounds against a
shared device memory.  All faults raised in a round are serviced as one
batch — the batch pays one fault-handling latency plus a per-page transfer
cost, matching the far-fault batching of real UVM drivers.  A single
driver-resident prefetcher observes every fault (stream-tagged) and its
predictions are installed into device memory after the timeliness delay.

Throughput = total accesses / total simulated time; prefetch *width*
(§5.2) matters here exactly as the paper argues: wider prediction removes
more faults per batch even at lower per-prediction accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memsim.events import MissEvent
from ..memsim.pagecache import MISS
from ..memsim.pagecache_reference import ReferencePageCache
from ..memsim.prefetch_queue import PrefetchQueue
from ..memsim.prefetcher import Prefetcher
from ..patterns.trace import Trace
from .latency import UVM_FABRIC, FabricLatency


@dataclass
class UVMResult:
    """Outcome of one UVM run."""

    accesses: int
    rounds: int
    fault_batches: int
    total_faults: int
    prefetch_hits: int
    total_time_ns: int
    fabric: FabricLatency

    @property
    def throughput_accesses_per_us(self) -> float:
        if self.total_time_ns == 0:
            return 0.0
        return 1000.0 * self.accesses / self.total_time_ns

    @property
    def fault_rate(self) -> float:
        return self.total_faults / self.accesses if self.accesses else 0.0

    def speedup_over(self, baseline: "UVMResult") -> float:
        if self.total_time_ns == 0:
            return 1.0
        return baseline.total_time_ns / self.total_time_ns


@dataclass
class UVMSystem:
    """Lockstep multi-stream GPU over a shared device memory.

    Attributes:
        stream_traces: One access trace per SIMT stream (SM/warp group).
        memory_fraction: Device memory as a fraction of the combined
            footprint.
        fabric: Latency constants (fault handling dominates).
        page_size: Bytes per page.
        per_page_transfer_ns: Additional cost per distinct page migrated
            in a fault batch.
        prefetch_delay_rounds: Rounds before an issued prefetch lands.
    """

    stream_traces: list[Trace]
    memory_fraction: float = 0.5
    fabric: FabricLatency = UVM_FABRIC
    page_size: int = 4096
    per_page_transfer_ns: int = 2_000
    prefetch_delay_rounds: int = 2

    def __post_init__(self) -> None:
        if not self.stream_traces:
            raise ValueError("need at least one stream trace")
        if not 0 < self.memory_fraction <= 1:
            raise ValueError("memory_fraction must be in (0, 1]")
        if self.prefetch_delay_rounds < 0:
            raise ValueError("prefetch_delay_rounds must be >= 0")

    def run(self, prefetcher: Prefetcher | None) -> UVMResult:
        """Simulate to completion with the given driver-side prefetcher
        (``None``: no prefetching)."""
        pages = [t.pages(self.page_size) for t in self.stream_traces]
        footprint = len({int(p) for ps in pages for p in ps})
        capacity = max(1, int(footprint * self.memory_fraction))
        device = ReferencePageCache(capacity_pages=capacity)
        queue = PrefetchQueue(delay_accesses=self.prefetch_delay_rounds)

        cursors = [0] * len(self.stream_traces)
        total_time = 0
        rounds = 0
        fault_batches = 0
        accesses_done = 0
        total_accesses = sum(len(t) for t in self.stream_traces)

        while accesses_done < total_accesses:
            for landed in queue.landed_unique(rounds):
                device.insert_prefetch(landed)

            # Lockstep: one access per still-running stream this round.
            faults: list[MissEvent] = []
            for sid, trace in enumerate(self.stream_traces):
                i = cursors[sid]
                if i >= len(trace):
                    continue
                cursors[sid] += 1
                accesses_done += 1
                page = int(pages[sid][i])
                if device.access(page) == MISS:
                    device.fill(page)
                    faults.append(MissEvent(
                        index=i, address=int(trace.addresses[i]),
                        page=page, stream_id=sid,
                        timestamp=int(trace.timestamps[i])))

            if faults:
                fault_batches += 1
                distinct = {f.page for f in faults}
                total_time += (self.fabric.remote_fetch_ns
                               + len(distinct) * self.per_page_transfer_ns)
                if prefetcher is not None:
                    for event in faults:
                        for predicted in prefetcher.on_miss(event):
                            if predicted != event.page:
                                queue.issue(int(predicted), rounds)
            else:
                total_time += self.fabric.local_access_ns
            rounds += 1

        return UVMResult(
            accesses=total_accesses,
            rounds=rounds,
            fault_batches=fault_batches,
            total_faults=device.stats.demand_misses,
            prefetch_hits=device.stats.prefetch_hits,
            total_time_ns=total_time,
            fabric=self.fabric,
        )
