"""Windowed time-series accumulation over a run's counter stream.

The paper's claims are measurements *over* a run (online accuracy under a
phase change, Figure 3; stall behaviour in deployments, Figure 6), but the
simulator's :class:`~repro.memsim.pagecache.CacheStats` only accumulates
end-of-run totals.  :class:`WindowAccumulator` turns those monotone
counters into per-interval deltas: the simulator runs each engine over
window-aligned segments and hands the accumulator one snapshot per
boundary; the accumulator differences consecutive snapshots and derives
the per-window rates (miss rate, prefetch accuracy, coverage, timeliness)
from the deltas alone.

Because both simulation engines stop at the same window boundaries, a
span-batched run and a per-access scalar run produce byte-identical
window records — observation is pure accounting, never simulation input
(``tests/telemetry/test_engine_parity.py`` pins this).
"""

from __future__ import annotations

from typing import Mapping

from ..core.metrics import window_rates
from ..memsim.pagecache import CacheStats

#: CacheStats counters snapshotted at every window boundary, in schema
#: order.  All are monotone non-decreasing, so deltas are well-defined.
STAT_FIELDS = (
    "accesses",
    "hits",
    "demand_misses",
    "prefetch_hits",
    "prefetches_issued",
    "prefetches_redundant",
    "prefetches_evicted_unused",
    "demand_evictions_by_prefetch",
    "writebacks",
)


def snapshot_stats(stats: CacheStats) -> tuple[int, ...]:
    """Copy the monotone counters of ``stats`` (cheap: nine int reads)."""
    return (
        stats.accesses,
        stats.hits,
        stats.demand_misses,
        stats.prefetch_hits,
        stats.prefetches_issued,
        stats.prefetches_redundant,
        stats.prefetches_evicted_unused,
        stats.demand_evictions_by_prefetch,
        stats.writebacks,
    )


class WindowAccumulator:
    """Differences counter snapshots into per-window records.

    Attributes:
        interval: Accesses per window (> 0).
        windows: Emitted window records, in order, JSON-ready.
    """

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.windows: list[dict] = []
        self._prev_stats: tuple[int, ...] = (0,) * len(STAT_FIELDS)
        self._prev_resident = 0
        self._prev_extra: dict[str, int | float] = {}
        self._prev_index = 0

    def boundaries(self, n: int) -> list[int]:
        """Window-aligned segment ends covering ``[0, n)`` (last is ``n``)."""
        stops = list(range(self.interval, n, self.interval))
        stops.append(n)
        return stops

    def reset(self) -> None:
        """Discard all windows and snapshots (a new run begins)."""
        self.windows = []
        self._prev_stats = (0,) * len(STAT_FIELDS)
        self._prev_resident = 0
        self._prev_extra = {}
        self._prev_index = 0

    def emit(self, end_index: int, stats: CacheStats, resident: int,
             queue_depth: int,
             extra: Mapping[str, int | float] | None = None) -> dict:
        """Close the window ending at ``end_index`` and record it.

        ``extra`` carries component counters (e.g. the prefetcher's
        ``telemetry_counters()``): integer values are treated as monotone
        counters and differenced against the previous window's snapshot;
        floats are gauges and recorded as-is.
        """
        current = snapshot_stats(stats)
        deltas = {name: now - before for name, now, before
                  in zip(STAT_FIELDS, current, self._prev_stats)}
        record: dict = {
            "record": "window",
            "index_start": self._prev_index,
            "index_stop": end_index,
        }
        record.update(deltas)
        # Evictions are not a CacheStats counter, but they are implied
        # exactly: every fill or non-redundant prefetch insertion beyond
        # what residency grew by displaced a page.
        fills = (deltas["demand_misses"] + deltas["prefetches_issued"]
                 - deltas["prefetches_redundant"])
        record["evictions"] = fills - (resident - self._prev_resident)
        record["resident"] = resident
        record["queue_depth"] = queue_depth
        record.update(window_rates(deltas))
        if extra:
            for name, value in extra.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    record[name] = value  # gauge
                else:
                    prev = self._prev_extra.get(name, 0)
                    record[name] = value - int(prev)
            self._prev_extra = dict(extra)
        self._prev_stats = current
        self._prev_resident = resident
        self._prev_index = end_index
        self.windows.append(record)
        return record
