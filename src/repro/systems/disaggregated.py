"""Disaggregated-memory system (§4, Figure 6 left).

The paper's characterization: compute nodes fault on one page at a time,
so the prefetcher should be *latency*-optimized; scarce switch resources
force a *decentralized* design with one prefetcher per node, which also
means each prefetcher sees a single un-interleaved access stream and can
use a smaller network.

Each node runs its own trace against its own local memory, with misses
fetched from the remote pool at fabric latency.  Two prefetcher
placements are compared (A7):

- ``decentralized``: an independent prefetcher per node (the paper's
  choice for this system).  A node is then exactly one ``simulate()``
  lane, so these runs are lane jobs (``harness.fig6``), priced here by
  :meth:`NodeResult.priced`;
- ``centralized``: one shared prefetcher observing all nodes' misses
  interleaved (what a switch-resident design would see) —
  :meth:`DisaggregatedSystem.run_centralized`, the one loop kept here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memsim.events import MissEvent
from ..memsim.pagecache import MISS
from ..memsim.pagecache_reference import ReferencePageCache
from ..memsim.prefetch_queue import PrefetchQueue
from ..patterns.trace import Trace
from .driver import PrefetcherFactory
from .latency import DISAGGREGATED_FABRIC, FabricLatency


@dataclass
class NodeResult:
    """Per-node outcome."""

    node_id: int
    trace_name: str
    accesses: int
    demand_misses: int
    prefetch_hits: int
    total_stall_ns: int

    @classmethod
    def priced(cls, node_id: int, trace_name: str, accesses: int,
               demand_misses: int, prefetch_hits: int,
               fabric: FabricLatency) -> "NodeResult":
        """A node's counts with its stall: every miss pays a remote fetch,
        every other access a local one."""
        return cls(node_id=node_id, trace_name=trace_name, accesses=accesses,
                   demand_misses=demand_misses, prefetch_hits=prefetch_hits,
                   total_stall_ns=(demand_misses * fabric.remote_fetch_ns
                                   + (accesses - demand_misses)
                                   * fabric.local_access_ns))

    @property
    def miss_rate(self) -> float:
        return self.demand_misses / self.accesses if self.accesses else 0.0

    @property
    def mean_access_ns(self) -> float:
        return self.total_stall_ns / self.accesses if self.accesses else 0.0


@dataclass
class DisaggResult:
    """System-level outcome of one disaggregated run."""

    placement: str
    nodes: list[NodeResult]
    fabric: FabricLatency

    @property
    def total_misses(self) -> int:
        return sum(n.demand_misses for n in self.nodes)

    @property
    def mean_access_ns(self) -> float:
        accesses = sum(n.accesses for n in self.nodes)
        stall = sum(n.total_stall_ns for n in self.nodes)
        return stall / accesses if accesses else 0.0

    def speedup_over(self, baseline: "DisaggResult") -> float:
        """Mean-access-latency improvement vs a baseline run."""
        if self.mean_access_ns == 0:
            return 1.0
        return baseline.mean_access_ns / self.mean_access_ns


@dataclass
class DisaggregatedSystem:
    """N compute nodes + remote memory pool + one switch-centralized
    prefetcher.

    Attributes:
        node_traces: One access trace per compute node.
        memory_fraction: Each node's local memory as a fraction of its
            trace footprint.
        fabric: Latency constants.
        page_size: Bytes per page.
        prefetch_delay_accesses: Accesses of a node's stream between a
            prefetch's issue and its landing.
    """

    node_traces: list[Trace]
    memory_fraction: float = 0.5
    fabric: FabricLatency = DISAGGREGATED_FABRIC
    page_size: int = 4096
    prefetch_delay_accesses: int = 0

    def __post_init__(self) -> None:
        if not self.node_traces:
            raise ValueError("need at least one node trace")
        if not 0 < self.memory_fraction <= 1:
            raise ValueError("memory_fraction must be in (0, 1]")

    def run_centralized(self, prefetcher_factory: PrefetcherFactory
                        ) -> DisaggResult:
        """A single shared prefetcher observing all nodes' misses.

        Node streams advance round-robin; the shared prefetcher receives
        the interleaved miss stream (stream_id = node), and its predictions
        are routed back to the faulting node's local memory.
        """
        shared = prefetcher_factory()
        caches = [ReferencePageCache(self._capacity(t))
                  for t in self.node_traces]
        queues = [PrefetchQueue(self.prefetch_delay_accesses)
                  for _ in self.node_traces]
        pages = [t.pages(self.page_size) for t in self.node_traces]
        cursors = [0] * len(self.node_traces)

        remaining = sum(len(t) for t in self.node_traces)
        while remaining:
            for node_id, trace in enumerate(self.node_traces):
                i = cursors[node_id]
                if i >= len(trace):
                    continue
                cursors[node_id] += 1
                remaining -= 1
                cache, queue = caches[node_id], queues[node_id]
                for landed in queue.landed_unique(i):
                    cache.insert_prefetch(landed)
                page = int(pages[node_id][i])
                if cache.access(page) == MISS:
                    cache.fill(page)
                    event = MissEvent(index=i, address=int(trace.addresses[i]),
                                      page=page, stream_id=node_id,
                                      timestamp=int(trace.timestamps[i]))
                    for predicted in shared.on_miss(event):
                        if predicted != page:
                            queue.issue(int(predicted), i)

        nodes = [
            NodeResult.priced(n, t.name, len(t), caches[n].stats.demand_misses,
                              caches[n].stats.prefetch_hits, self.fabric)
            for n, t in enumerate(self.node_traces)
        ]
        return DisaggResult(placement="centralized", nodes=nodes,
                            fabric=self.fabric)

    def _capacity(self, trace: Trace) -> int:
        return max(1, int(trace.footprint_pages(self.page_size)
                          * self.memory_fraction))
