"""A fixed-capacity paged memory with LRU replacement and prefetch tracking.

This is the "local/fast memory" of Figure 1: demand accesses either hit or
miss; on a miss the page is filled from slow memory; a prefetcher may
insert pages ahead of demand.  The cache distinguishes prefetched pages
that have not yet been demanded, so it can account prefetch *accuracy*
(issued prefetches that were used) and *pollution* (prefetches evicted
unused, and demand pages evicted by prefetches).

Representation (PR 4): instead of an ``OrderedDict`` walk, residency
lives in fixed numpy slot arrays (``last_use`` / ``undemanded`` /
``dirty``), with LRU order carried by a strictly increasing logical
clock: every operation that would ``move_to_end`` in the reference
implementation stamps ``last_use[slot]`` with a fresh clock value, so
"least recently used" is exactly "minimum stamp".  Page lookup is a
``page -> slot`` dict, or — once :meth:`PageCache.attach_universe` maps
the trace's pages to compact ids — a cid-indexed slot array, which makes
residency over a trace chunk a single vectorized gather (the heart of
the ``first_nonresident`` scan, and the table the compiled hit walk of
the span-batched engine reads).

Eviction is lazy-LRU by minimum timestamp: an ``argpartition`` over
``last_use`` snapshots the ``_VICTIM_BATCH`` oldest slots into a victim
queue, and entries whose stamp no longer matches the slot's live
``last_use`` (touched, evicted, or reused since the snapshot) are
skipped lazily.  A matching entry is provably the global minimum — every
slot outside the snapshot was younger than the whole snapshot at refill
time and can only have grown younger since — i.e. the same victim the
``OrderedDict``'s ``popitem(last=False)`` would choose.

The bulk APIs account a whole hit run (:meth:`PageCache.access_run`) or
demand-miss run (:meth:`PageCache.fill_run`) in a handful of vectorized
operations; the auto-engine probe runs on them, and they are the numpy
reference the compiled scans are fuzzed against.  The retained ``OrderedDict`` implementation lives in
``pagecache_reference.py``; ``tests/memsim/test_pagecache_fuzz.py`` pins
this class against it counter-for-counter after every operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Result codes from :meth:`PageCache.access`.
HIT = "hit"
MISS = "miss"
PREFETCH_HIT = "prefetch_hit"

#: ``last_use`` sentinel for unoccupied slots — larger than any live stamp,
#: so vectorized min/argpartition victim selection never picks a free slot.
_FREE = np.iinfo(np.int64).max

#: Vectorized membership scans read the trace in windows of this size.
_SCAN_CHUNK = 2048

#: Scalar evictions refill the victim queue with this many candidates at
#: a time; one argpartition then amortizes over the whole batch.
_VICTIM_BATCH = 64


def _fancy_assign_is_last_wins() -> bool:
    """Probe whether duplicate-index fancy assignment writes in order.

    CPython numpy assigns fancy-indexed elements front to back, so for
    duplicate indices the last value wins — exactly the per-access clock
    semantics ``access_run`` needs — but the ordering is not contractual,
    so it is verified once at import and the ``np.unique``-based
    last-touch stamping is kept as the fallback.
    """
    target = np.zeros(64, dtype=np.int64)
    index = np.arange(4096) % 64
    target[index] = np.arange(4096)
    return bool((target == np.arange(4032, 4096)).all())


_FANCY_LAST_WINS = _fancy_assign_is_last_wins()


@dataclass
class CacheStats:
    """Raw counters maintained by :class:`PageCache`."""

    accesses: int = 0
    hits: int = 0
    demand_misses: int = 0
    prefetch_hits: int = 0
    prefetches_issued: int = 0
    prefetches_redundant: int = 0
    prefetches_evicted_unused: int = 0
    demand_evictions_by_prefetch: int = 0
    writebacks: int = 0

    @property
    def prefetches_useful(self) -> int:
        return self.prefetch_hits

    @property
    def miss_rate(self) -> float:
        return self.demand_misses / self.accesses if self.accesses else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches that were demanded before eviction."""
        issued = self.prefetches_issued - self.prefetches_redundant
        return self.prefetch_hits / issued if issued else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of would-be misses the prefetcher converted to hits."""
        would_miss = self.demand_misses + self.prefetch_hits
        return self.prefetch_hits / would_miss if would_miss else 0.0

    def as_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "demand_misses": self.demand_misses,
            "prefetch_hits": self.prefetch_hits,
            "prefetches_issued": self.prefetches_issued,
            "prefetches_redundant": self.prefetches_redundant,
            "prefetches_evicted_unused": self.prefetches_evicted_unused,
            "demand_evictions_by_prefetch": self.demand_evictions_by_prefetch,
            "writebacks": self.writebacks,
            "miss_rate": self.miss_rate,
            "prefetch_accuracy": self.prefetch_accuracy,
            "coverage": self.coverage,
        }


@dataclass
class PageCache:
    """Array-backed LRU page cache.

    Attributes:
        capacity_pages: Maximum number of resident pages (> 0).
        stats: Counter block, updated in place.
    """

    capacity_pages: int
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        cap = self.capacity_pages
        self._page = np.zeros(cap, dtype=np.int64)
        self._last_use = np.full(cap, _FREE, dtype=np.int64)
        self._undemanded = np.zeros(cap, dtype=bool)
        self._dirty = np.zeros(cap, dtype=bool)
        # pop() hands out slot 0 first; order is unobservable but fixed.
        self._free: list[int] = list(range(cap - 1, -1, -1))
        self._clock = 0
        self._n_resident = 0
        # Snapshot of the oldest (stamp, slot) pairs, in LRU order; stale
        # entries are detected by stamp mismatch and skipped.
        self._victims: list[tuple[int, int]] = []
        self._victim_idx = 0
        # Count of resident undemanded prefetches, so the scalar hit path
        # can skip the per-access array probe when none exist.
        self._n_undemanded = 0
        # Residency index.  Without a universe: the ``_slot`` dict alone.
        # With one: ``_slot_of_cid`` is authoritative for universe pages
        # (``_cid_of_slot`` is its inverse) and ``_slot`` holds only
        # out-of-universe pages (speculative prefetches) — they can never
        # appear in a demand stream, so bulk scans need not see them.
        self._slot: dict[int, int] = {}
        self._universe: np.ndarray | None = None
        self._cid_of: dict[int, int] = {}
        self._slot_of_cid: np.ndarray | None = None
        self._cid_of_slot = np.full(cap, -1, dtype=np.int64)
        # Optional compiled scan kernels (see nn/backends): when attached,
        # the membership scans run as single compiled calls instead of
        # windowed numpy gathers.
        self._kern: Any = None
        self._scan_scratch: np.ndarray | None = None
        self._scan_stamp = 0

    def __len__(self) -> int:
        return self._n_resident

    def telemetry_counters(self) -> dict[str, int | float]:
        """Named counters for the telemetry sink (ints: monotone; floats:
        gauges)."""
        stats = self.stats
        return {
            "cache_accesses": stats.accesses,
            "cache_hits": stats.hits,
            "cache_demand_misses": stats.demand_misses,
            "cache_prefetch_hits": stats.prefetch_hits,
            "cache_writebacks": stats.writebacks,
            "cache_resident": float(self._n_resident),
            "cache_undemanded": float(self._n_undemanded),
        }

    def __contains__(self, page: int) -> bool:
        return self._lookup(page) is not None

    def _lookup(self, page: int) -> int | None:
        soc = self._slot_of_cid
        if soc is None:
            return self._slot.get(page)
        cid = self._cid_of.get(page, -1)
        if cid >= 0:
            slot = soc[cid]
            return int(slot) if slot >= 0 else None
        return self._slot.get(page)

    # ------------------------------------------------------------------
    # Scalar API (reference semantics; see pagecache_reference.py)
    # ------------------------------------------------------------------
    def access(self, page: int, store: bool = False) -> str:
        """A demand access: returns ``HIT``, ``PREFETCH_HIT`` or ``MISS``.

        On a miss the caller is expected to call :meth:`fill`; the cache does
        not auto-fill so simulators can model fill latency explicitly.
        ``store`` marks the page dirty so its eventual eviction costs a
        writeback to slow memory.
        """
        stats = self.stats
        stats.accesses += 1
        slot = self._lookup(page)
        if slot is None:
            stats.demand_misses += 1
            return MISS
        self._last_use[slot] = self._clock
        self._clock += 1
        stats.hits += 1
        if store:
            self._dirty[slot] = True
        if self._n_undemanded and self._undemanded[slot]:
            self._undemanded[slot] = False
            self._n_undemanded -= 1
            stats.prefetch_hits += 1
            return PREFETCH_HIT
        return HIT

    def fill(self, page: int, store: bool = False) -> None:
        """Install a page on demand (after a miss)."""
        slot = self._lookup(page)
        if slot is not None:
            if self._n_undemanded and self._undemanded[slot]:
                self._undemanded[slot] = False
                self._n_undemanded -= 1
            if store:
                self._dirty[slot] = True
            self._last_use[slot] = self._clock
            self._clock += 1
            return
        if self._n_resident >= self.capacity_pages:
            self._evict_lru(by_prefetch=False)
        self._install(page, undemanded=False, dirty=store)

    def insert_prefetch(self, page: int) -> bool:
        """Install a prefetched page.  Returns False if it was redundant."""
        stats = self.stats
        stats.prefetches_issued += 1
        slot = self._lookup(page)
        if slot is not None:
            stats.prefetches_redundant += 1
            self._last_use[slot] = self._clock
            self._clock += 1
            return False
        if self._n_resident >= self.capacity_pages:
            self._evict_lru(by_prefetch=True)
        self._install(page, undemanded=True, dirty=False)
        return True

    def resident_pages(self) -> list[int]:
        """Resident pages in LRU-to-MRU order (the reference's dict order)."""
        occupied = np.flatnonzero(self._last_use != _FREE)
        order = occupied[np.argsort(self._last_use[occupied])]
        return [int(p) for p in self._page[order]]

    def dirty_pages(self) -> int:
        return int(np.count_nonzero(self._dirty))

    # ------------------------------------------------------------------
    # Scalar internals
    # ------------------------------------------------------------------
    def _install(self, page: int, undemanded: bool, dirty: bool) -> None:
        slot = self._free.pop()
        self._page[slot] = page
        stamp = self._clock
        self._clock = stamp + 1
        self._last_use[slot] = stamp
        if undemanded:
            self._undemanded[slot] = True
            self._n_undemanded += 1
        if dirty:
            self._dirty[slot] = True
        self._n_resident += 1
        soc = self._slot_of_cid
        if soc is None:
            self._slot[page] = slot
            return
        cid = self._cid_of.get(page, -1)
        if cid >= 0:
            soc[cid] = slot
            self._cid_of_slot[slot] = cid
        else:
            self._slot[page] = slot

    def _refill_victims(self) -> list[tuple[int, int]]:
        """Snapshot the oldest slots into the victim queue, LRU-first.

        Valid under later mutation: any slot outside the snapshot is
        younger than every snapshot entry and only gets younger, so while
        one snapshot entry still matches its slot's live stamp, the first
        such entry is the true LRU minimum.
        """
        last_use = self._last_use
        batch = min(_VICTIM_BATCH, self._n_resident)
        part = last_use.argpartition(batch - 1)[:batch]
        order = part[last_use[part].argsort()]
        victims = list(zip(last_use[order].tolist(), order.tolist()))
        self._victims = victims
        self._victim_idx = 0
        return victims

    def _evict_lru(self, by_prefetch: bool) -> None:
        last_use = self._last_use
        victims = self._victims
        idx = self._victim_idx
        while True:
            if idx >= len(victims):
                victims = self._refill_victims()
                idx = 0
            stamp, slot = victims[idx]
            idx += 1
            if last_use[slot] == stamp:
                break
        self._victim_idx = idx
        stats = self.stats
        if self._dirty[slot]:
            stats.writebacks += 1
            self._dirty[slot] = False
        if self._undemanded[slot]:
            stats.prefetches_evicted_unused += 1
            self._undemanded[slot] = False
            self._n_undemanded -= 1
        elif by_prefetch:
            stats.demand_evictions_by_prefetch += 1
        last_use[slot] = _FREE
        self._free.append(slot)
        self._n_resident -= 1
        soc = self._slot_of_cid
        if soc is None:
            del self._slot[int(self._page[slot])]
            return
        cid = self._cid_of_slot[slot]
        if cid >= 0:
            soc[cid] = -1
            self._cid_of_slot[slot] = -1
        else:
            del self._slot[int(self._page[slot])]

    # ------------------------------------------------------------------
    # Bulk API (the auto-engine probe; the compiled scans' reference)
    # ------------------------------------------------------------------
    def attach_universe(self, universe: np.ndarray) -> None:
        """Enable the bulk APIs for a known page universe.

        ``universe`` is the sorted array of distinct pages a trace touches
        (``Trace.page_index``); accesses are then described by compact ids
        (positions in ``universe``), and residency over a trace chunk
        becomes one vectorized gather of the cid-indexed slot table.
        """
        self._universe = universe
        self._cid_of = {int(p): i for i, p in enumerate(universe.tolist())}
        soc = np.full(len(universe), -1, dtype=np.int64)
        extra: dict[int, int] = {}
        for page, slot in self._slot.items():
            cid = self._cid_of.get(page, -1)
            if cid >= 0:
                soc[cid] = slot
                self._cid_of_slot[slot] = cid
            else:
                extra[page] = slot
        self._slot = extra
        self._slot_of_cid = soc

    def attach_kernels(self, kernels: Any) -> None:
        """Route the bulk membership scans through compiled kernels.

        Requires :meth:`attach_universe` first (the kernels scan the
        cid-indexed slot table).  The scratch array plus a monotone stamp
        give :meth:`miss_run_length` O(run) duplicate detection without
        per-call clearing.
        """
        self._require_universe()
        self._kern = kernels
        universe = self._universe
        assert universe is not None
        self._scan_scratch = np.zeros(len(universe), dtype=np.int64)
        self._scan_stamp = 0

    def _require_universe(self) -> np.ndarray:
        soc = self._slot_of_cid
        if soc is None:
            raise RuntimeError("bulk API requires attach_universe() first")
        return soc

    def first_nonresident(self, cids: np.ndarray, start: int, stop: int) -> int:
        """Index of the first access in ``cids[start:stop]`` whose page is
        not resident, or ``stop`` if the whole range hits."""
        soc = self._require_universe()
        if self._kern is not None:
            return self._kern.first_nonresident(soc, cids, start, stop)
        i = start
        # Geometric window growth: short spans (miss-dense workloads) pay
        # for a small gather, long ones amortize big gathers.
        width = 64
        while i < stop:
            j = min(i + width, stop)
            window = soc[cids[i:j]]
            k = int(window.argmin())  # absent slots are -1, the minimum
            if window[k] < 0:
                return i + k
            i = j
            if width < _SCAN_CHUNK:
                width <<= 2
        return stop

    def access_run(self, cids: np.ndarray, stores: np.ndarray) -> None:
        """Account a run of demand accesses that are all hits, in bulk.

        Equivalent to ``access(page, store)`` per element given every page
        is resident: recency is stamped at each page's *last* touch
        position (the value the per-access clock would leave), stores mark
        dirty, and each undemanded prefetched page counts one prefetch hit
        at its first touch.
        """
        soc = self._require_universe()
        n = len(cids)
        if n == 0:
            return
        slots = soc[cids]
        clock = self._clock
        stats = self.stats
        stats.accesses += n
        stats.hits += n
        if self._n_undemanded:
            # Need distinct touched slots for prefetch-hit accounting (and
            # they give exact last-touch stamps for free).
            uniq, first_rev = np.unique(slots[::-1], return_index=True)
            self._last_use[uniq] = clock + (n - 1) - first_rev
            undemanded = self._undemanded[uniq]
            fresh = int(np.count_nonzero(undemanded))
            if fresh:
                self._undemanded[uniq[undemanded]] = False
                self._n_undemanded -= fresh
                stats.prefetch_hits += fresh
        elif _FANCY_LAST_WINS:
            self._last_use[slots] = np.arange(clock, clock + n)
        else:
            uniq, first_rev = np.unique(slots[::-1], return_index=True)
            self._last_use[uniq] = clock + (n - 1) - first_rev
        self._clock = clock + n
        if stores.any():
            self._dirty[slots[stores]] = True

    def miss_run_length(self, cids: np.ndarray, start: int, stop: int) -> int:
        """Length of the bulk-fillable demand-miss run starting at ``start``.

        ``start`` must be a miss.  The run extends while pages are
        non-resident *and* mutually distinct (a repeat would hit its own
        fill), capped at ``capacity_pages`` so :meth:`fill_run`'s batched
        eviction can never victimize a page installed by the same run.
        """
        soc = self._require_universe()
        limit = min(stop, start + min(self.capacity_pages, _SCAN_CHUNK))
        if self._kern is not None:
            # One linear compiled pass handles residency and the earliest
            # duplicate cut together (stamped-scratch seen set).
            self._scan_stamp += 1
            return self._kern.miss_run_length(
                soc, cids, start, limit, self._scan_scratch,
                self._scan_stamp)
        # Scalar fast path: scattered-miss workloads have run length 1 far
        # more often than not, and two scalar reads beat a window gather.
        if start + 1 >= limit:
            return 1
        nxt = cids[start + 1]
        if nxt == cids[start] or soc[nxt] >= 0:
            return 1
        k = 0
        i = start
        width = 16
        while i < limit:
            j = min(i + width, limit)
            nonresident = soc[cids[i:j]] < 0
            m = int(nonresident.argmin())  # first resident; 0 when all miss
            if nonresident[m]:
                k += j - i
                i = j
                width <<= 2
                continue
            k += m
            break
        if k > 1:
            segment = cids[start:start + k]
            order = np.argsort(segment, kind="stable")
            ordered = segment[order]
            dup = ordered[1:] == ordered[:-1]
            if dup.any():
                # Cut before the earliest second occurrence of any page.
                k = int(order[1:][dup].min())
        return k

    def fill_run(self, pages: np.ndarray, cids: np.ndarray,
                 stores: np.ndarray) -> None:
        """Bulk demand-miss resolution: k distinct non-resident pages.

        Equivalent to ``access`` (returning MISS) followed by ``fill`` for
        each page.  Victim equivalence: every page installed by the run is
        stamped above all pre-run residents, so the scalar loop's t-th
        eviction takes the t-th oldest pre-run resident — exactly the
        ``n_evict`` smallest stamps selected here in one argpartition.
        """
        soc = self._require_universe()
        k = len(pages)
        if k == 0:
            return
        stats = self.stats
        stats.accesses += k
        stats.demand_misses += k
        n_evict = self._n_resident + k - self.capacity_pages
        if n_evict > 0:
            self._evict_bulk(n_evict)
        free = self._free
        slots_list = free[len(free) - k:][::-1]  # pop() order
        del free[len(free) - k:]
        slots = np.asarray(slots_list, dtype=np.int64)
        self._page[slots] = pages
        clock = self._clock
        self._last_use[slots] = np.arange(clock, clock + k)
        self._clock = clock + k
        self._dirty[slots] = stores
        self._n_resident += k
        soc[cids] = slots
        self._cid_of_slot[slots] = cids

    def _evict_bulk(self, n_evict: int) -> None:
        """Evict the ``n_evict`` least-recently-used pages (demand path)."""
        last_use = self._last_use
        if n_evict == 1:
            victims = np.array([last_use.argmin()])
        else:
            victims = last_use.argpartition(n_evict - 1)[:n_evict]
        stats = self.stats
        dirty = self._dirty[victims]
        writebacks = int(np.count_nonzero(dirty))
        if writebacks:
            stats.writebacks += writebacks
            self._dirty[victims] = False
        if self._n_undemanded:
            undemanded = self._undemanded[victims]
            unused = int(np.count_nonzero(undemanded))
            if unused:
                stats.prefetches_evicted_unused += unused
                self._undemanded[victims] = False
                self._n_undemanded -= unused
        last_use[victims] = _FREE
        self._free.extend(victims.tolist())
        self._n_resident -= n_evict
        soc = self._slot_of_cid
        assert soc is not None
        victim_cids = self._cid_of_slot[victims]
        in_universe = victim_cids >= 0
        soc[victim_cids[in_universe]] = -1
        self._cid_of_slot[victims] = -1
        if not in_universe.all():
            # Out-of-universe pages (speculative prefetches) still live in
            # the dict overlay.
            slot_map = self._slot
            for page in self._page[victims[~in_universe]].tolist():
                del slot_map[page]
