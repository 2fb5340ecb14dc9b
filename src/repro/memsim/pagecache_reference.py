"""The retained OrderedDict reference implementation of the page cache.

This is the seed ``PageCache`` (an ``OrderedDict`` whose insertion order
*is* the LRU order), kept verbatim as the executable specification for
the array-backed :class:`~repro.memsim.pagecache.PageCache` that replaced
it on the hot path.  ``tests/memsim/test_pagecache_fuzz.py`` drives both
implementations through randomized access/fill/insert_prefetch
interleavings and asserts every :class:`~repro.memsim.pagecache.CacheStats`
counter — including the writeback and pollution paths — is equal after
every single operation, the same contract the dense Hebbian reference
under ``tests/nn/`` holds the network's kernels to.  It is also the
cache of ``simulate()``'s scalar engine, the one engine without the
compiled kernels, and of ``repro.systems``' two shared-stream loops.

Do not optimize this file; its value is being obviously correct.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .pagecache import HIT, MISS, PREFETCH_HIT, CacheStats


@dataclass
class ReferencePageCache:
    """LRU page cache over an ``OrderedDict`` (the seed implementation).

    Attributes:
        capacity_pages: Maximum number of resident pages (> 0).
        stats: Counter block, updated in place.
    """

    capacity_pages: int
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        # page -> [is_undemanded_prefetch, is_dirty]
        self._resident: OrderedDict[int, list[bool]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._resident)

    def telemetry_counters(self) -> dict[str, int | float]:
        """Named counters for the telemetry sink, same names and meanings
        as the array-backed engine's (ints: monotone; floats: gauges)."""
        stats = self.stats
        undemanded = sum(1 for entry in self._resident.values() if entry[0])
        return {
            "cache_accesses": stats.accesses,
            "cache_hits": stats.hits,
            "cache_demand_misses": stats.demand_misses,
            "cache_prefetch_hits": stats.prefetch_hits,
            "cache_writebacks": stats.writebacks,
            "cache_resident": float(len(self._resident)),
            "cache_undemanded": float(undemanded),
        }

    def __contains__(self, page: int) -> bool:
        return page in self._resident

    def access(self, page: int, store: bool = False) -> str:
        """A demand access: returns ``HIT``, ``PREFETCH_HIT`` or ``MISS``."""
        stats = self.stats
        stats.accesses += 1
        resident = self._resident
        entry = resident.get(page)
        if entry is None:
            stats.demand_misses += 1
            return MISS
        resident.move_to_end(page)
        stats.hits += 1
        if store:
            entry[1] = True
        if entry[0]:
            entry[0] = False
            stats.prefetch_hits += 1
            return PREFETCH_HIT
        return HIT

    def fill(self, page: int, store: bool = False) -> None:
        """Install a page on demand (after a miss)."""
        resident = self._resident
        entry = resident.get(page)
        if entry is not None:
            entry[0] = False
            if store:
                entry[1] = True
            resident.move_to_end(page)
            return
        if len(resident) >= self.capacity_pages:
            was_prefetch, dirty = resident.popitem(last=False)[1]
            stats = self.stats
            if dirty:
                stats.writebacks += 1
            if was_prefetch:
                stats.prefetches_evicted_unused += 1
        resident[page] = [False, store]

    def insert_prefetch(self, page: int) -> bool:
        """Install a prefetched page.  Returns False if it was redundant."""
        stats = self.stats
        stats.prefetches_issued += 1
        resident = self._resident
        if page in resident:
            stats.prefetches_redundant += 1
            resident.move_to_end(page)
            return False
        if len(resident) >= self.capacity_pages:
            was_prefetch, dirty = resident.popitem(last=False)[1]
            if dirty:
                stats.writebacks += 1
            if was_prefetch:
                stats.prefetches_evicted_unused += 1
            else:
                stats.demand_evictions_by_prefetch += 1
        resident[page] = [True, False]
        return True

    def resident_pages(self) -> list[int]:
        return list(self._resident)

    def dirty_pages(self) -> int:
        return sum(1 for entry in self._resident.values() if entry[1])
