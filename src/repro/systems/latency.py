"""Fabric latency parameters for the §4 target systems.

Defaults follow the magnitudes the paper cites: microsecond-scale
cross-node latencies in disaggregated racks (MIND [27]) and tens of
microseconds for GPU UVM fault handling (Allen & Ge [7]).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FabricLatency:
    """Latency constants for one deployment fabric (nanoseconds).

    Attributes:
        local_access_ns: Hit in local/fast memory.
        remote_fetch_ns: Demand fetch over the fabric (what a miss costs).
        inference_ns: Model inference latency on the prefetch path; the
            timeliness delay is derived from this (see ``delay_accesses``).
    """

    local_access_ns: int = 100
    remote_fetch_ns: int = 3_000
    inference_ns: int = 3_000

    def __post_init__(self) -> None:
        if min(self.local_access_ns, self.remote_fetch_ns,
               self.inference_ns) < 0:
            raise ValueError("latencies must be non-negative")

    def delay_accesses(self, mean_gap_ns: float,
                       inference_ns: int | None = None) -> int:
        """Accesses elapsing before a prefetch lands (timeliness, §5.2).

        ``mean_gap_ns`` should be the *stall-inclusive* mean time per
        access (e.g., a baseline run's mean access latency), since that is
        the rate at which the application actually advances.
        ``inference_ns`` overrides the fabric default — pass the model's
        modeled latency so timeliness reflects the prefetcher itself
        (the Hebbian network's few-microsecond inference vs the LSTM's
        >150 us is exactly the paper's deployability argument).
        """
        if mean_gap_ns <= 0:
            return 0
        total = (self.inference_ns if inference_ns is None else inference_ns
                 ) + self.remote_fetch_ns
        return max(0, int(total // mean_gap_ns))


#: Disaggregated rack (MIND-like): ~3 us one-sided remote access.
DISAGGREGATED_FABRIC = FabricLatency(
    local_access_ns=100,
    remote_fetch_ns=3_000,
    inference_ns=3_000,
)

#: CPU-GPU UVM: a far fault costs ~20-50 us of driver + PCIe work [7].
UVM_FABRIC = FabricLatency(
    local_access_ns=40,
    remote_fetch_ns=25_000,
    inference_ns=5_000,
)
