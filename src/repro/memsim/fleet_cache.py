"""Multi-tenant (tenant, slot) page-cache state for the fleet engine (PR 8).

One :class:`~repro.memsim.pagecache.PageCache` holds one tenant's
residency in per-slot arrays.  :class:`FleetPageCache` stacks N such
caches into (tenant, slot) matrices — ``last_use`` / ``page_of_slot`` /
``undemanded`` / ``dirty`` / ``cid_of_slot`` of shape ``(T, S)`` and the
cid-indexed slot table ``soc`` of shape ``(T, U)`` — plus per-lane
``(T,)`` vectors for every :class:`~repro.memsim.pagecache.CacheStats`
counter, the LRU clock, and the residency counts.  The fleet engine
(``memsim/fleet.py``) then advances *all* lanes with a handful of
vectorized operations per lockstep round instead of paying the Python
dispatch floor once per lane per event.

Bit-identity per lane
---------------------
Every lane behaves exactly like an independent single-tenant
``PageCache`` (and therefore like the ``OrderedDict``
``memsim/pagecache_reference.py`` specification):

* The entry points are the ones the cohort calls: :meth:`hit_walk`
  (every lane's hit run, lockstep) and :meth:`fill_step` (one demand
  miss per lane) are the tenant-axis forms of ``PageCache.access`` and
  ``PageCache.fill``, and :meth:`insert_prefetch` (a landing) is
  ``PageCache.insert_prefetch`` with a leading lane index.
* The batched lazy-LRU victim queue keeps one ``(stamp, slot)`` snapshot
  row per lane (refilled by a per-tenant ``argpartition`` over the 2-D
  stamp matrix) and pops with the same stale-stamp skip: a matching
  entry is provably the lane's true LRU minimum (every slot outside the
  snapshot was younger at refill time and stamps only grow), so the
  victim *choice* is independent of snapshot boundaries and of how many
  lanes share a refill call.
* Slot numbering differs from the single-tenant free list (a lane below
  capacity installs into virgin slot ``n_resident``; at capacity the
  evicted slot is reused immediately), which is unobservable: evictions
  happen only at capacity and the freed slot is always consumed by the
  same operation, so LRU order, residency, and every counter are
  unaffected.

``tests/memsim/test_fleet_cache.py`` fuzz-pins randomized interleavings
of those entry points against ``ReferencePageCache`` counter-for-counter
after every operation, read back through :meth:`lanes_stats`,
:meth:`resident_pages` and ``n_resident``.

Like the single-tenant bulk API, demand residency is authoritative in
``soc`` (demand pages always come from the trace's page universe);
out-of-universe pages (speculative prefetches) live in a per-lane dict
overlay that bulk scans never need to consult.
"""

from __future__ import annotations

import numpy as np

from .pagecache import _FREE, _VICTIM_BATCH, CacheStats

__all__ = ["FleetPageCache"]

#: Names of the per-lane counter vectors, in ``CacheStats`` field order.
_STAT_FIELDS = (
    "accesses", "hits", "demand_misses", "prefetch_hits",
    "prefetches_issued", "prefetches_redundant", "prefetches_evicted_unused",
    "demand_evictions_by_prefetch", "writebacks",
)


class FleetPageCache:
    """N independent LRU page caches stored as (tenant, slot) matrices.

    Args:
        n_lanes: Number of tenant lanes (T).
        slot_capacity: Slot matrix width (S) — the maximum per-lane
            ``capacity_pages`` this fleet can host.
        universe_capacity: Slot-table width (U) — the maximum per-lane
            page-universe size.
    """

    def __init__(self, n_lanes: int, slot_capacity: int,
                 universe_capacity: int) -> None:
        if n_lanes <= 0 or slot_capacity <= 0 or universe_capacity <= 0:
            raise ValueError("fleet dimensions must be positive")
        self.n_lanes = n_lanes
        self.slot_capacity = slot_capacity
        self.universe_capacity = universe_capacity
        shape = (n_lanes, slot_capacity)
        self.last_use = np.full(shape, _FREE, dtype=np.int64)
        self.page_of_slot = np.zeros(shape, dtype=np.int64)
        self.undemanded = np.zeros(shape, dtype=bool)
        self.dirty = np.zeros(shape, dtype=bool)
        self.cid_of_slot = np.full(shape, -1, dtype=np.int64)
        self.soc = np.full((n_lanes, universe_capacity), -1, dtype=np.int64)
        self.capacity = np.zeros(n_lanes, dtype=np.int64)
        self.clock = np.zeros(n_lanes, dtype=np.int64)
        self.n_resident = np.zeros(n_lanes, dtype=np.int64)
        self.n_undemanded = np.zeros(n_lanes, dtype=np.int64)
        self.accesses = np.zeros(n_lanes, dtype=np.int64)
        self.hits = np.zeros(n_lanes, dtype=np.int64)
        self.demand_misses = np.zeros(n_lanes, dtype=np.int64)
        self.prefetch_hits = np.zeros(n_lanes, dtype=np.int64)
        self.prefetches_issued = np.zeros(n_lanes, dtype=np.int64)
        self.prefetches_redundant = np.zeros(n_lanes, dtype=np.int64)
        self.prefetches_evicted_unused = np.zeros(n_lanes, dtype=np.int64)
        self.demand_evictions_by_prefetch = np.zeros(n_lanes, dtype=np.int64)
        self.writebacks = np.zeros(n_lanes, dtype=np.int64)
        # Lazy-LRU victim queue: one snapshot row per lane, consumed
        # front-to-back with the stale-stamp skip.
        self.vq_stamp = np.full((n_lanes, _VICTIM_BATCH), _FREE,
                                dtype=np.int64)
        self.vq_slot = np.zeros((n_lanes, _VICTIM_BATCH), dtype=np.int64)
        self.vq_idx = np.zeros(n_lanes, dtype=np.int64)
        self.vq_len = np.zeros(n_lanes, dtype=np.int64)
        # Per-lane page -> cid map (shared across lanes replaying the same
        # trace) and the out-of-universe overlay.
        self._cid_of: list[dict[int, int]] = [{} for _ in range(n_lanes)]
        self._extra: list[dict[int, int]] = [{} for _ in range(n_lanes)]

    # ------------------------------------------------------------------
    # Lane lifecycle (load / drain / refill)
    # ------------------------------------------------------------------
    def attach_lanes(self, lanes: np.ndarray, capacities: np.ndarray,
                     universe_sizes: np.ndarray,
                     cid_ofs: list[dict[int, int]]) -> None:
        """Reset ``lanes`` and bind each to a capacity and a page universe,
        for a whole refill batch at once.  Lanes replaying the same trace
        share one prebuilt ``page -> cid`` dict in ``cid_ofs``.

        ``universe_sizes`` carries each lane's page-universe size (the
        caller holds the prebuilt ``cid_ofs`` dicts, so the arrays
        themselves are not needed here — only the width check).
        """
        if np.any((capacities <= 0) | (capacities > self.slot_capacity)):
            bad = int(capacities[(capacities <= 0)
                                 | (capacities > self.slot_capacity)][0])
            raise ValueError(
                f"lane capacity {bad} outside (0, {self.slot_capacity}]")
        if np.any(universe_sizes > self.universe_capacity):
            bad = int(universe_sizes[
                universe_sizes > self.universe_capacity][0])
            raise ValueError(
                f"universe of {bad} pages exceeds fleet width "
                f"{self.universe_capacity}")
        self.reset_lanes(lanes)
        self.capacity[lanes] = capacities
        for lane, cid_of in zip(lanes.tolist(), cid_ofs):
            self._cid_of[lane] = cid_of

    def reset_lanes(self, lanes: np.ndarray) -> None:
        """Return ``lanes`` to the empty-cache state (drain before
        refill)."""
        self.last_use[lanes] = _FREE
        self.undemanded[lanes] = False
        self.dirty[lanes] = False
        self.cid_of_slot[lanes] = -1
        self.soc[lanes] = -1
        self.clock[lanes] = 0
        self.n_resident[lanes] = 0
        self.n_undemanded[lanes] = 0
        for name in _STAT_FIELDS:
            getattr(self, name)[lanes] = 0
        self.vq_idx[lanes] = 0
        self.vq_len[lanes] = 0
        for lane in lanes.tolist():
            self._cid_of[lane] = {}
            self._extra[lane] = {}

    def lanes_stats(self, lanes: np.ndarray) -> list[CacheStats]:
        """Each lane's counters as a ``CacheStats`` block: nine vector
        gathers for the whole batch."""
        columns = [getattr(self, name)[lanes].tolist()
                   for name in _STAT_FIELDS]
        return [CacheStats(*row) for row in zip(*columns)]

    # ------------------------------------------------------------------
    # Landings (PageCache.insert_prefetch with a leading lane index)
    # ------------------------------------------------------------------
    def insert_prefetch(self, lane: int, page: int) -> bool:
        """Install a prefetched page on ``lane``; False if redundant."""
        self.prefetches_issued[lane] += 1
        cid = self._cid_of[lane].get(page, -1)
        slot = (int(self.soc[lane, cid]) if cid >= 0
                else self._extra[lane].get(page, -1))
        if slot >= 0:
            self.prefetches_redundant[lane] += 1
            self.last_use[lane, slot] = self.clock[lane]
            self.clock[lane] += 1
            return False
        if self.n_resident[lane] >= self.capacity[lane]:
            slot = self._evict_lru(lane)
        else:
            slot = int(self.n_resident[lane])
        self.page_of_slot[lane, slot] = page
        self.last_use[lane, slot] = self.clock[lane]
        self.clock[lane] += 1
        self.undemanded[lane, slot] = True
        self.n_undemanded[lane] += 1
        self.n_resident[lane] += 1
        if cid >= 0:
            self.soc[lane, cid] = slot
            self.cid_of_slot[lane, slot] = cid
        else:
            self._extra[lane][page] = slot
        return True

    def resident_pages(self, lane: int) -> list[int]:
        """Lane residents in LRU-to-MRU order (the reference dict order)."""
        row = self.last_use[lane]
        occupied = np.flatnonzero(row != _FREE)
        order = occupied[np.argsort(row[occupied])]
        return [int(p) for p in self.page_of_slot[lane, order]]

    def _evict_lru(self, lane: int) -> int:
        """Evict ``lane``'s LRU page for a landing; returns the freed
        slot."""
        while True:
            idx = int(self.vq_idx[lane])
            if idx >= self.vq_len[lane]:
                self._refill_rows(np.array([lane], dtype=np.int64))
                idx = 0
            stamp = int(self.vq_stamp[lane, idx])
            slot = int(self.vq_slot[lane, idx])
            self.vq_idx[lane] = idx + 1
            if self.last_use[lane, slot] == stamp:
                break
        if self.dirty[lane, slot]:
            self.writebacks[lane] += 1
            self.dirty[lane, slot] = False
        if self.undemanded[lane, slot]:
            self.prefetches_evicted_unused[lane] += 1
            self.undemanded[lane, slot] = False
            self.n_undemanded[lane] -= 1
        else:
            self.demand_evictions_by_prefetch[lane] += 1
        self.last_use[lane, slot] = _FREE
        self.n_resident[lane] -= 1
        cid = int(self.cid_of_slot[lane, slot])
        if cid >= 0:
            self.soc[lane, cid] = -1
            self.cid_of_slot[lane, slot] = -1
        else:
            del self._extra[lane][int(self.page_of_slot[lane, slot])]
        return slot

    # ------------------------------------------------------------------
    # Batched victim queue
    # ------------------------------------------------------------------
    def _refill_rows(self, rows: np.ndarray) -> None:
        """Snapshot the oldest slots of every row in ``rows``, LRU-first.

        One ``argpartition`` over the 2-D stamp matrix serves all rows.
        The batch size is a pure performance knob (every pop re-checks
        liveness and a live head entry is always the true minimum), so
        clamping it to the smallest row capacity keeps the selection
        rectangular without affecting victim choice.
        """
        batch = int(min(_VICTIM_BATCH, self.capacity[rows].min()))
        stamps = self.last_use[rows]
        part = np.argpartition(stamps, batch - 1, axis=1)[:, :batch]
        picked = np.take_along_axis(stamps, part, axis=1)
        order = np.argsort(picked, axis=1)
        self.vq_slot[rows, :batch] = np.take_along_axis(part, order, axis=1)
        self.vq_stamp[rows, :batch] = np.take_along_axis(picked, order,
                                                         axis=1)
        self.vq_idx[rows] = 0
        self.vq_len[rows] = batch

    def _take_victims(self, lanes: np.ndarray) -> np.ndarray:
        """Pop one LRU victim slot per lane (lanes must be full)."""
        out = np.empty(lanes.size, dtype=np.int64)
        pending = lanes
        pending_pos = np.arange(lanes.size)
        while pending.size:
            empty = self.vq_idx[pending] >= self.vq_len[pending]
            if empty.any():
                self._refill_rows(pending[empty])
            idx = self.vq_idx[pending]
            stamps = self.vq_stamp[pending, idx]
            slots = self.vq_slot[pending, idx]
            self.vq_idx[pending] = idx + 1
            live = self.last_use[pending, slots] == stamps
            out[pending_pos[live]] = slots[live]
            stale = ~live
            pending = pending[stale]
            pending_pos = pending_pos[stale]
        return out

    # ------------------------------------------------------------------
    # Vectorized lockstep API (the fleet engine's inner loop)
    # ------------------------------------------------------------------
    def hit_walk(self, lanes: np.ndarray, cids2d: np.ndarray,
                 stores2d: np.ndarray, pos: np.ndarray,
                 limit: np.ndarray,
                 trace_row: np.ndarray | None = None) -> None:
        """Advance every lane through its hit run, all lanes per step.

        For each lane ``t`` in ``lanes``, replays demand accesses
        ``cids2d[t, pos[t]:]`` with exact per-access ``PageCache.access``
        semantics until the first non-resident access (the lane's next
        miss) or ``limit[t]``, updating ``pos`` in place.  When
        ``trace_row`` is given, lane ``t`` reads trace row
        ``trace_row[t]`` instead (lanes replaying the same trace share
        one packed row).  This is the tenant-axis
        ``first_nonresident`` + ``access_run`` fusion: each lockstep
        iteration advances every still-walking lane one access with ~a
        dozen vectorized operations, so total work is
        O(total accesses), not O(lanes x rounds).
        """
        act = lanes
        rows = act if trace_row is None else trace_row[act]
        while act.size:
            p = pos[act]
            walking = p < limit[act]
            act = act[walking]
            if not act.size:
                break
            rows = rows[walking]
            p = pos[act]
            slots = self.soc[act, cids2d[rows, p]]
            hit = slots >= 0
            act = act[hit]
            if not act.size:
                break
            rows = rows[hit]
            slots = slots[hit]
            p = p[hit]
            clk = self.clock[act]
            self.last_use[act, slots] = clk
            self.clock[act] = clk + 1
            self.accesses[act] += 1
            self.hits[act] += 1
            stores = stores2d[rows, p]
            if stores.any():
                self.dirty[act[stores], slots[stores]] = True
            und = self.undemanded[act, slots]
            if und.any():
                ul = act[und]
                self.undemanded[ul, slots[und]] = False
                self.n_undemanded[ul] -= 1
                self.prefetch_hits[ul] += 1
            pos[act] = p + 1

    def fill_step(self, lanes: np.ndarray, cids: np.ndarray,
                  pages: np.ndarray, stores: np.ndarray) -> None:
        """Resolve one demand miss per lane, for many lanes at once.

        Equivalent to ``PageCache.access`` returning MISS followed by
        ``PageCache.fill`` on each lane (each lane appears at most once
        per call; the pages are known non-resident and in-universe).
        Evictions drain the batched victim queue, with the same
        accounting order as a landing's eviction: writeback, then
        unused-prefetch pollution (the demand path never counts
        ``demand_evictions_by_prefetch``).
        """
        self.accesses[lanes] += 1
        self.demand_misses[lanes] += 1
        need = self.n_resident[lanes] >= self.capacity[lanes]
        slots = np.empty(lanes.size, dtype=np.int64)
        if need.any():
            ev_lanes = lanes[need]
            vslots = self._take_victims(ev_lanes)
            was_dirty = self.dirty[ev_lanes, vslots]
            self.writebacks[ev_lanes] += was_dirty
            self.dirty[ev_lanes, vslots] = False
            was_und = self.undemanded[ev_lanes, vslots]
            self.prefetches_evicted_unused[ev_lanes] += was_und
            self.undemanded[ev_lanes, vslots] = False
            self.n_undemanded[ev_lanes] -= was_und
            self.last_use[ev_lanes, vslots] = _FREE
            old_cids = self.cid_of_slot[ev_lanes, vslots]
            in_uni = old_cids >= 0
            self.soc[ev_lanes[in_uni], old_cids[in_uni]] = -1
            self.cid_of_slot[ev_lanes, vslots] = -1
            if not in_uni.all():
                out_lanes = ev_lanes[~in_uni]
                out_slots = vslots[~in_uni]
                out_pages = self.page_of_slot[out_lanes, out_slots]
                for t, page in zip(out_lanes.tolist(), out_pages.tolist()):
                    del self._extra[t][int(page)]
            self.n_resident[ev_lanes] -= 1
            slots[need] = vslots
        fresh = ~need
        if fresh.any():
            slots[fresh] = self.n_resident[lanes[fresh]]
        self.page_of_slot[lanes, slots] = pages
        clk = self.clock[lanes]
        self.last_use[lanes, slots] = clk
        self.clock[lanes] = clk + 1
        self.dirty[lanes, slots] = stores
        self.n_resident[lanes] += 1
        self.soc[lanes, cids] = slots
        self.cid_of_slot[lanes, slots] = cids
