"""Multi-tenant (tenant, slot) page-cache state for the fleet engine (PR 8).

One :class:`~repro.memsim.pagecache.PageCache` holds one tenant's
residency in per-slot arrays.  :class:`FleetPageCache` stacks N such
caches into (tenant, slot) matrices — ``last_use`` / ``page_of_slot`` /
``undemanded`` / ``dirty`` / ``cid_of_slot`` of shape ``(T, S)`` and the
cid-indexed slot table ``soc`` of shape ``(T, U + extension)`` — plus
per-lane ``(T,)`` vectors for every
:class:`~repro.memsim.pagecache.CacheStats` counter, the LRU clock, and
the residency counts.  The fleet engine
(``memsim/fleet.py``) then advances *all* lanes with a handful of
vectorized operations per lockstep round instead of paying the Python
dispatch floor once per lane per event.

Bit-identity per lane
---------------------
Every lane behaves exactly like an independent single-tenant
``PageCache`` (and therefore like the ``OrderedDict``
``memsim/pagecache_reference.py`` specification):

* The entry points are the ones the cohort calls: :meth:`hit_walk`
  (every lane's hit run, lockstep), :meth:`fill_step` (one demand miss
  per lane) and :meth:`land` (one landed prefetch per lane) are the
  tenant-axis forms of ``PageCache.access``, ``PageCache.fill`` and
  ``PageCache.insert_prefetch``; :meth:`cids_of` names a lane's
  prefetched pages when they are issued.  A lane with several landings
  due takes them in rounds, one :meth:`land` call each.
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

Residency lives in ``soc`` alone.  Demand pages always come from the
trace's page universe; a prefetched page outside it (a speculative
prediction) gets an *extension* cid from the lane's universe size up
when :meth:`cids_of` first meets it, kept in a per-lane page → cid dict
that is read only at issue.  ``soc`` is widened (a new array: callers
that bound the old one rebind) when an extension cid falls outside it,
so its width follows what lanes use.
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
        universe_capacity: The maximum per-lane page-universe size (U),
            and the width ``soc`` starts at.
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
        # Per-lane page -> cid maps: the universe's (shared across lanes
        # replaying the same trace), and the lane's own extension, which
        # names out-of-universe pages from the universe size up.
        self._cid_of: list[dict[int, int]] = [{} for _ in range(n_lanes)]
        self._ext_of: list[dict[int, int]] = [{} for _ in range(n_lanes)]
        self._ext_base = [0] * n_lanes

    # ------------------------------------------------------------------
    # Lane lifecycle (load / drain / refill)
    # ------------------------------------------------------------------
    def attach_lanes(self, lanes: np.ndarray, capacities: np.ndarray,
                     universe_sizes: np.ndarray,
                     cid_ofs: list[dict[int, int]]) -> None:
        """Reset ``lanes`` and bind each to a capacity and a page universe,
        for a whole refill batch at once.  Lanes replaying the same trace
        share one prebuilt ``page -> cid`` dict in ``cid_ofs``.

        ``universe_sizes`` carries each lane's page-universe size: the
        width check, and where the lane's extension cids start.
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
        for lane, cid_of, size in zip(lanes.tolist(), cid_ofs,
                                      universe_sizes.tolist()):
            self._cid_of[lane] = cid_of
            self._ext_base[lane] = size

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
            self._ext_of[lane] = {}

    def lanes_stats(self, lanes: np.ndarray) -> list[CacheStats]:
        """Each lane's counters as a ``CacheStats`` block: nine vector
        gathers for the whole batch."""
        columns = [getattr(self, name)[lanes].tolist()
                   for name in _STAT_FIELDS]
        return [CacheStats(*row) for row in zip(*columns)]

    # ------------------------------------------------------------------
    # Landings (PageCache.insert_prefetch, a round of lanes at a time)
    # ------------------------------------------------------------------
    def cids_of(self, lanes: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """The cid of page ``pages[i]`` on lane ``lanes[i]``.  A page
        outside the lane's universe gets the lane's next extension cid
        the first time it is asked for; ``soc`` is reallocated wider
        when one falls outside it."""
        cid_of, ext_of, ext_base = self._cid_of, self._ext_of, self._ext_base
        found = []
        for lane, page in zip(lanes.tolist(), pages.tolist()):
            cid = cid_of[lane].get(page)
            if cid is None:
                ext = ext_of[lane]
                cid = ext.get(page)
                if cid is None:
                    cid = ext[page] = ext_base[lane] + len(ext)
            found.append(cid)
        cids = np.array(found, dtype=np.int64)
        width = self.soc.shape[1]
        if cids.size and int(cids.max()) >= width:
            wider = np.full((self.n_lanes,
                             max(int(cids.max()) + 1, width + width // 4)),
                            -1, dtype=np.int64)
            wider[:, :width] = self.soc
            self.soc = wider
        return cids

    def land(self, lanes: np.ndarray, cids: np.ndarray,
             pages: np.ndarray) -> None:
        """Install one landed prefetch per lane, for many lanes at once:
        page ``pages[i]`` (cid ``cids[i]``) on lane ``lanes[i]``, each
        lane at most once per call.  A resident page is redundant and
        only refreshed; otherwise a full lane first evicts its LRU page —
        ``PageCache.insert_prefetch``'s accounting, lane by lane."""
        self.prefetches_issued[lanes] += 1
        slots = self.soc[lanes, cids]
        resident = slots >= 0
        if resident.any():
            again = lanes[resident]
            self.prefetches_redundant[again] += 1
            clk = self.clock[again]
            self.last_use[again, slots[resident]] = clk
            self.clock[again] = clk + 1
            fresh = ~resident
            lanes, cids, pages = lanes[fresh], cids[fresh], pages[fresh]
        slots = self._install_slots(lanes, by_prefetch=True)
        self.page_of_slot[lanes, slots] = pages
        clk = self.clock[lanes]
        self.last_use[lanes, slots] = clk
        self.clock[lanes] = clk + 1
        self.undemanded[lanes, slots] = True
        self.n_undemanded[lanes] += 1
        self.n_resident[lanes] += 1
        self.soc[lanes, cids] = slots
        self.cid_of_slot[lanes, slots] = cids

    def resident_pages(self, lane: int) -> list[int]:
        """Lane residents in LRU-to-MRU order (the reference dict order)."""
        row = self.last_use[lane]
        occupied = np.flatnonzero(row != _FREE)
        order = occupied[np.argsort(row[occupied])]
        return [int(p) for p in self.page_of_slot[lane, order]]

    def _install_slots(self, lanes: np.ndarray,
                       by_prefetch: bool) -> np.ndarray:
        """The slot each lane installs its next page into: its next
        virgin slot below capacity, else its LRU victim, evicted here —
        a writeback if dirty, then an unused prefetch, or (for a
        landing) a demand page evicted by a prefetch."""
        slots = self.n_resident[lanes]
        full = (slots >= self.capacity[lanes]).nonzero()[0]
        if full.size:
            ev_lanes = lanes[full]
            vslots = self._take_victims(ev_lanes)
            was_dirty = self.dirty[ev_lanes, vslots]
            self.writebacks[ev_lanes] += was_dirty
            self.dirty[ev_lanes, vslots] = False
            was_und = self.undemanded[ev_lanes, vslots]
            self.prefetches_evicted_unused[ev_lanes] += was_und
            self.undemanded[ev_lanes, vslots] = False
            self.n_undemanded[ev_lanes] -= was_und
            if by_prefetch:
                self.demand_evictions_by_prefetch[ev_lanes] += ~was_und
            self.last_use[ev_lanes, vslots] = _FREE
            self.soc[ev_lanes, self.cid_of_slot[ev_lanes, vslots]] = -1
            self.cid_of_slot[ev_lanes, vslots] = -1
            self.n_resident[ev_lanes] -= 1
            slots[full] = vslots
        return slots

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
        slots = self._install_slots(lanes, by_prefetch=False)
        self.page_of_slot[lanes, slots] = pages
        clk = self.clock[lanes]
        self.last_use[lanes, slots] = clk
        self.clock[lanes] = clk + 1
        self.dirty[lanes, slots] = stores
        self.n_resident[lanes] += 1
        self.soc[lanes, cids] = slots
        self.cid_of_slot[lanes, slots] = cids
