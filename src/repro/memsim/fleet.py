"""The multi-tenant fleet engine: N simulation lanes in one batched loop.

One ``simulate()`` call advances one (trace, prefetcher, cache) lane and
pays the Python/numpy dispatch floor per event.  :class:`FleetCohort`
runs up to ``width`` independent lanes against a single
:class:`~repro.memsim.fleet_cache.FleetPageCache`, advancing *every*
lane per vectorized operation:

* **Lockstep rounds.**  Each :meth:`FleetCohort.step` lands the due
  prefetches — one ``FleetPageCache.land`` call takes every lane's
  *j*-th due landing — then walks all active lanes through their hit
  runs at once (``FleetPageCache.hit_walk``, or one compiled
  ``rk_fleet_hit_walk`` call routed through ``repro.nn.backends``), then
  resolves the stalled lanes' demand misses with one batched
  ``fill_step``.  Miss *handling* keeps every prefetcher's callback
  sequence that of the single-tenant engines: a lane with a prefetcher
  of its own gets its callback, scalar; the lanes of a stacked CLS group
  (``core/cls_fleet.py``) go to the group as four gathered columns and
  come back as one ragged ``(pages, owner)`` pair, issued only where
  there are pages.
* **In-flight prefetches are arrays.**  Each lane's queue is a FIFO ring
  of (landing index, cid, page) rows in the cohort's own matrices, with
  head / tail counts: a lane's delay is constant and it issues at
  non-decreasing access indices, so issue order is landing order (as
  ``PrefetchQueue`` notes) and ``next_landing`` is the ring head's.
  A round's predictions are pushed with one scatter.
* **Null lanes run to completion.**  Lanes with the null prefetcher
  never issue, so with a compiled backend each is replayed start-to-end
  inside one ``rk_fleet_null_run`` call per cohort step.
* **Drain and refill.**  Finished lanes report a
  :class:`~repro.memsim.simulator.SimResult` and their slot is free for
  :meth:`FleetCohort.load` — :meth:`FleetCohort.drain` keeps a cohort
  full from a pending queue (the one scheduler loop, under both
  :func:`run_cohort` and ``repro.harness.fleet.run_fleet``).

Bit-identity per lane: round boundaries mirror the scalar engine's event
order exactly — landings are processed before the access they precede
(``next_landing <= pos``), the walk limit is clamped to the next landing
so residency is constant inside a walk, and a miss advances the lane by
one access after fill + prediction issue.  Combined with the
fuzz-pinned fleet cache, an N-lane cohort reproduces the stats, miss
indices, and learned prefetcher state of N independent ``simulate()``
calls (``tests/memsim/test_fleet_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..nn.backends import resolve_backend, sim_kernels
from ..patterns.trace import Trace
from .events import MissEvent
from .fleet_cache import FleetPageCache
from .prefetch_queue import NO_PENDING
from .prefetcher import Prefetcher
from .simulator import SimConfig, SimResult

__all__ = ["FleetCohort", "FleetLaneSpec"]

#: ``FleetCohort._group_of`` values below the stacked groups' indices: a
#: lane whose misses call its own prefetcher, a lane whose misses call
#: nothing (the null prefetcher).
_OWN_CALLBACK = -1
_NO_CALLBACK = -2

#: Columns of every lane's in-flight ring at first (doubled as needed;
#: a power of two, so a count maps to its column with a mask).
_RING_COLUMNS = 8


@dataclass(frozen=True)
class FleetLaneSpec:
    """One tenant lane: a trace replayed against a prefetcher instance.

    Each lane needs its *own* prefetcher instance (lanes learn
    independently); traces and configs may be shared freely.

    Deliberately *not* a ``run_grid`` cache-key spec: it binds live
    objects (the trace arrays, a stateful prefetcher) for the engine's
    identity-keyed sharing, so it never enters ``spec_key``.
    """

    trace: Trace  # repro-lint: disable=RL005  (live object, not a cache key)
    prefetcher: Prefetcher  # repro-lint: disable=RL005  (stateful, per-lane)
    config: SimConfig = SimConfig()


@dataclass
class _PackedTrace:
    """Load-ready per-(trace, config) data, shared across lanes.

    Keyed by ``(id(trace), id(config))`` — identity, not equality, so the
    hot path skips hashing the config dataclass per lane.  Both objects
    are kept in the entry, pinning their ids for the cache's lifetime
    (no stale-id aliasing); equal-but-distinct configs simply pack
    twice, which costs memory, never correctness.
    """

    trace: Trace
    config: SimConfig
    n: int
    capacity: int
    cids: np.ndarray
    pages: np.ndarray
    stores: np.ndarray
    universe_size: int
    cid_of: dict[int, int]


@dataclass
class _Lane:
    """Mutable per-slot state while a lane is in flight."""

    spec: FleetLaneSpec
    on_miss_fast: Any
    on_miss: Any
    stream_ids: np.ndarray | None


class FleetCohort:
    """A fixed-width shard of concurrently simulated tenant lanes.

    Args:
        width: Number of lane slots (T).
        slot_capacity: Maximum per-lane cache capacity this cohort hosts.
        universe_capacity: Maximum per-lane page-universe size.
        trace_capacity: Maximum per-lane trace length.
        backend: Kernel backend name for the fleet walks (``"auto"`` /
            ``"numpy"`` / ``"c"``, as in ``simulate``).
        record_miss_indices: Collect per-lane miss indices in results.
        stacked_cls: Batch same-config learned (CLS/Hebbian) lanes
            through one stacked model call per round
            (``core/cls_fleet.py``).  ``False`` keeps every lane on the
            scalar per-miss callback path — the zero-regression escape
            hatch; both paths are bit-identical per lane.
    """

    def __init__(self, width: int, *, slot_capacity: int,
                 universe_capacity: int, trace_capacity: int,
                 backend: str = "auto",
                 record_miss_indices: bool = False,
                 stacked_cls: bool = True) -> None:
        if width <= 0 or trace_capacity <= 0:
            raise ValueError("fleet cohort dimensions must be positive")
        self.width = width
        self.trace_capacity = trace_capacity
        self.backend_used = resolve_backend(backend, domain="sim")
        self._kern = sim_kernels(self.backend_used)
        self.cache = FleetPageCache(width, slot_capacity, universe_capacity)
        shape = (width, trace_capacity)
        self._cids2d = np.zeros(shape, dtype=np.int64)
        self._pages2d = np.zeros(shape, dtype=np.int64)
        self._stores2d = np.zeros(shape, dtype=bool)
        # What a miss tells its prefetcher, by trace row like the pages:
        # a round's misses are one gather per column.
        self._addresses2d = np.zeros(shape, dtype=np.int64)
        self._timestamps2d = np.zeros(shape, dtype=np.int64)
        # Trace-row indirection: lane t reads trace row _trace_row[t], so
        # lanes replaying the same (trace, config) share one packed row
        # and a refill of a pooled trace copies nothing.  Rows are
        # refcounted; W rows always suffice (distinct packs <= lanes).
        self._trace_row = np.zeros(width, dtype=np.int64)
        self._row_refs = np.zeros(width, dtype=np.int64)
        self._row_key: list[int | None] = [None] * width
        self._row_of: dict[int, int] = {}
        self._free_rows = list(range(width - 1, -1, -1))
        self._n_len = np.zeros(width, dtype=np.int64)
        self._pos = np.zeros(width, dtype=np.int64)
        self._limit = np.zeros(width, dtype=np.int64)
        self._next_landing = np.full(width, NO_PENDING, dtype=np.int64)
        # In-flight prefetches: lane t's queue is entries _ring_head[t] ..
        # _ring_tail[t] - 1 (counts, column = count & mask) of the rows of
        # _ring_at (landing index), _ring_cid and _ring_page.
        self._delay = np.zeros(width, dtype=np.int64)
        self._ring_head = np.zeros(width, dtype=np.int64)
        self._ring_tail = np.zeros(width, dtype=np.int64)
        self._ring_at = np.zeros((width, _RING_COLUMNS), dtype=np.int64)
        self._ring_cid = np.zeros((width, _RING_COLUMNS), dtype=np.int64)
        self._ring_page = np.zeros((width, _RING_COLUMNS), dtype=np.int64)
        self._active = np.zeros(width, dtype=bool)
        self._is_null = np.zeros(width, dtype=bool)
        self._lanes: list[_Lane | None] = [None] * width
        self._results: list[SimResult | None] = [None] * width
        self._record = record_miss_indices
        # Lane t's recorded miss indices are _miss_idx[t, :_miss_n[t]]
        # (the compiled null replay writes the same rows); without
        # recording the matrix stays a (T, 1) stub nothing writes.
        self._miss_n = np.zeros(width, dtype=np.int64)
        self._miss_idx = np.zeros(
            shape if record_miss_indices else (width, 1), dtype=np.int64)
        # page -> cid dicts shared across lanes replaying the same trace
        # (keyed by the memoized universe array's identity; the array is
        # kept in the value so the id stays live).
        self._cid_cache: dict[int, tuple[np.ndarray, dict[int, int]]] = {}
        # Packed per-(trace, config) load data, shared across lanes
        # replaying the same trace (identity-keyed; see _PackedTrace).
        self._pack_cache: dict[tuple[int, int], _PackedTrace] = {}
        # Stacked learned lanes: CLSFleetGroup.group_key -> its group and
        # that group's index, the groups by index, and per slot the lane's
        # group index (or one of the two callback codes) and its slot
        # inside that group.
        self._stacked_cls = stacked_cls
        self._cls_groups: dict[Any, Any] = {}
        self._group_index: dict[Any, int] = {}
        self._groups: list[Any] = []
        self._group_of = np.full(width, _NO_CALLBACK, dtype=np.int64)
        self._cls_slot = np.zeros(width, dtype=np.intp)
        self._max_prefetches = np.zeros(width, dtype=np.int64)
        self._hit_walk: Callable[[int], None] | None = None
        self._null_run: Callable[[int, int], None] | None = None
        self._lanes_buf = np.zeros(width, dtype=np.int64)
        self._bind_kernels()

    def _bind_kernels(self) -> None:
        """Bind the compiled walks to the cohort's arrays — again whenever
        the cache reallocates ``soc`` (:meth:`_push`)."""
        if self._kern is not None:
            cache = self.cache
            self._hit_walk = self._kern.bind_fleet_hit_walk(
                lanes_buf=self._lanes_buf, trace_row=self._trace_row,
                soc=cache.soc, cids=self._cids2d,
                stores=self._stores2d, last_use=cache.last_use,
                dirty=cache.dirty, undemanded=cache.undemanded,
                pos=self._pos, limit=self._limit, clock=cache.clock,
                n_undemanded=cache.n_undemanded,
                prefetch_hits=cache.prefetch_hits, hits=cache.hits,
                accesses=cache.accesses)
            # The kernel records into lane rows of _miss_idx with the
            # trace-matrix stride (record=0 never writes).
            self._null_run = self._kern.bind_fleet_null_run(
                lanes_buf=self._lanes_buf, trace_row=self._trace_row,
                soc=cache.soc,
                cids=self._cids2d, pages=self._pages2d,
                stores=self._stores2d, page_of_slot=cache.page_of_slot,
                last_use=cache.last_use, dirty=cache.dirty,
                cid_of_slot=cache.cid_of_slot, capacity=cache.capacity,
                n_len=self._n_len, pos=self._pos, clock=cache.clock,
                n_resident=cache.n_resident, hits=cache.hits,
                demand_misses=cache.demand_misses,
                writebacks=cache.writebacks, accesses=cache.accesses,
                miss_idx=self._miss_idx, miss_n=self._miss_n)

    @classmethod
    def for_specs(cls, specs: list[FleetLaneSpec], *, width: int | None = None,
                  backend: str = "auto",
                  record_miss_indices: bool = False,
                  stacked_cls: bool = True) -> "FleetCohort":
        """Size a cohort to host any lane drawn from ``specs``."""
        if not specs:
            raise ValueError("for_specs requires at least one lane spec")
        slot_cap = 1
        uni_cap = 1
        trace_cap = 1
        seen: dict[tuple[int, int], tuple[int, int, int]] = {}
        for spec in specs:
            # Fleets routinely replay a shared trace pool across many
            # lanes; size each distinct (trace, config) pair once.
            # Identity keys are safe here: every keyed object is held
            # live by `specs` for the whole loop.
            key = (id(spec.trace), id(spec.config))
            dims = seen.get(key)
            if dims is None:
                universe, _ = spec.trace.page_index(spec.config.page_size)
                dims = (spec.config.resolve_capacity(spec.trace),
                        len(universe), len(spec.trace))
                seen[key] = dims
            slot_cap = max(slot_cap, dims[0])
            uni_cap = max(uni_cap, dims[1])
            trace_cap = max(trace_cap, dims[2])
        return cls(width if width is not None else len(specs),
                   slot_capacity=slot_cap, universe_capacity=uni_cap,
                   trace_capacity=trace_cap, backend=backend,
                   record_miss_indices=record_miss_indices,
                   stacked_cls=stacked_cls)

    # ------------------------------------------------------------------
    # Lane lifecycle
    # ------------------------------------------------------------------
    def free_slots(self) -> list[int]:
        """Slots currently available for :meth:`load`."""
        return [s for s in range(self.width)
                if not self._active[s] and self._results[s] is None]

    def active_count(self) -> int:
        return int(np.count_nonzero(self._active))

    def _packed(self, spec: FleetLaneSpec) -> _PackedTrace:
        """Load-ready (trace, config) data, built once per distinct pair."""
        trace = spec.trace
        config = spec.config
        key = (id(trace), id(config))
        packed = self._pack_cache.get(key)
        if packed is not None:
            return packed
        n = len(trace)
        if n == 0 or n > self.trace_capacity:
            raise ValueError(
                f"trace length {n} outside (0, {self.trace_capacity}]")
        universe, cids = trace.page_index(config.page_size)
        cached = self._cid_cache.get(id(universe))
        if cached is None or cached[0] is not universe:
            cached = (universe,
                      {int(p): i for i, p in enumerate(universe.tolist())})
            self._cid_cache[id(universe)] = cached
        packed = _PackedTrace(
            trace=trace, config=config, n=n,
            capacity=config.resolve_capacity(trace),
            cids=cids,
            pages=trace.pages(config.page_size),
            stores=trace.kinds != 0,
            universe_size=len(universe),
            cid_of=cached[1])
        self._pack_cache[key] = packed
        return packed

    def load(self, slot: int, spec: FleetLaneSpec) -> None:
        """Admit a lane into ``slot`` (which must be free or harvested)."""
        self.load_many([slot], [spec])

    def load_many(self, slots: list[int], specs: list[FleetLaneSpec]) -> None:
        """Admit one lane per ``(slot, spec)`` pair in a single batch.

        Per-lane load cost is the fleet's throughput floor at scale (the
        compiled walks amortize everything else), so the cache resets and
        slot-vector writes happen once per batch.  Validation runs for
        the whole batch before any state is touched.
        """
        if len(slots) != len(specs):
            raise ValueError("load_many needs one spec per slot")
        if not slots:
            return
        if len(set(slots)) != len(slots):
            raise ValueError("load_many names a slot more than once")
        packs: list[_PackedTrace] = []
        for slot, spec in zip(slots, specs):
            if not 0 <= slot < self.width:
                raise ValueError(f"slot {slot} outside [0, {self.width})")
            if self._active[slot]:
                raise ValueError(f"slot {slot} is still active")
            if self._results[slot] is not None:
                raise ValueError(f"slot {slot} holds a result not yet "
                                 "harvested")
            prefetcher = spec.prefetcher
            on_access = getattr(prefetcher, "on_access", None)
            if on_access is not None and getattr(prefetcher,
                                                 "wants_accesses", True):
                raise ValueError(
                    "fleet engine cannot drive per-access observers; run "
                    "wants_accesses prefetchers through simulate() instead")
            if spec.config.prefetch_delay_accesses < 0:
                raise ValueError("prefetch_delay_accesses must be >= 0")
            packs.append(self._packed(spec))
        group_of = self._cls_groups_for(specs)
        lanes = np.asarray(slots, dtype=np.int64)
        self.cache.attach_lanes(
            lanes,
            np.array([p.capacity for p in packs], dtype=np.int64),
            np.array([p.universe_size for p in packs], dtype=np.int64),
            [p.cid_of for p in packs])
        nulls: list[bool] = []
        rows: list[int] = []
        cls_slots: list[int] = []
        for i, (slot, spec, packed) in enumerate(zip(slots, specs, packs)):
            trace = spec.trace
            prefetcher = spec.prefetcher
            row = self._row_of.get(id(packed))
            if row is None:
                row = self._free_rows.pop()
                n = packed.n
                self._cids2d[row, :n] = packed.cids
                self._pages2d[row, :n] = packed.pages
                self._stores2d[row, :n] = packed.stores
                self._addresses2d[row, :n] = trace.addresses
                self._timestamps2d[row, :n] = trace.timestamps
                self._row_of[id(packed)] = row
                self._row_key[row] = id(packed)
            self._row_refs[row] += 1
            rows.append(row)
            is_null = bool(getattr(prefetcher, "is_null", False))
            nulls.append(is_null)
            own = group_of[i] < 0 and not is_null
            if own:
                group_of[i] = _OWN_CALLBACK
            self._lanes[slot] = _Lane(
                spec=spec,
                on_miss_fast=getattr(prefetcher, "on_miss_fast", None),
                on_miss=prefetcher.on_miss,
                stream_ids=trace.stream_ids if own else None)
            cls_slots.append(self._groups[group_of[i]].adopt(prefetcher)
                             if group_of[i] >= 0 else 0)
            self._results[slot] = None
        self._group_of[lanes] = group_of
        self._cls_slot[lanes] = cls_slots
        self._max_prefetches[lanes] = [
            spec.config.max_prefetches_per_miss for spec in specs]
        self._delay[lanes] = [
            spec.config.prefetch_delay_accesses for spec in specs]
        self._ring_head[lanes] = 0
        self._ring_tail[lanes] = 0
        self._trace_row[lanes] = rows
        self._n_len[lanes] = [p.n for p in packs]
        self._pos[lanes] = 0
        self._limit[lanes] = 0
        self._next_landing[lanes] = NO_PENDING
        self._is_null[lanes] = nulls
        self._miss_n[lanes] = 0
        self._active[lanes] = True

    def _cls_groups_for(self, specs: list[FleetLaneSpec]) -> list[int]:
        """Each spec's :class:`CLSFleetGroup`, as its index in
        ``_groups`` (``_NO_CALLBACK``: none — the model kernels or the
        lane-state arrays cannot step the lane).  Lanes group by
        :meth:`CLSFleetGroup.group_key`, so a group's lanes share every
        value a round reads as configuration.  Every group is sized once
        for the lanes this batch brings it — one grow, not a doubling
        chain that copies the group's weight slab and state arrays each
        time."""
        groups = [_NO_CALLBACK] * len(specs)
        if not self._stacked_cls:
            return groups
        # Deferred import: core.cls_fleet imports back into this package
        # for the prefetcher types.
        from ..core.cls_fleet import CLSFleetGroup
        members: dict[Any, list[int]] = {}
        for i, spec in enumerate(specs):
            key = CLSFleetGroup.group_key(spec.prefetcher)
            if key is not None:
                members.setdefault(key, []).append(i)
        for key, rows in members.items():
            group = self._cls_groups.get(key)
            if group is None:
                group = CLSFleetGroup(specs[rows[0]].prefetcher,
                                      capacity=len(rows))
                self._cls_groups[key] = group
                self._group_index[key] = len(self._groups)
                self._groups.append(group)
            else:
                group.reserve(len(rows))
            index = self._group_index[key]
            for i in rows:
                groups[i] = index
        return groups

    def _lane(self, slot: int) -> _Lane:
        lane = self._lanes[slot]
        assert lane is not None
        return lane

    def harvest(self, slot: int) -> SimResult:
        """Take the finished lane's result, freeing the slot for reuse."""
        result = self._results[slot]
        if result is None:
            raise ValueError(f"slot {slot} has no finished result")
        self._results[slot] = None
        self._lanes[slot] = None
        return result

    def _finish_many(self, slots: list[int]) -> None:
        lanes = np.asarray(slots, dtype=np.int64)
        stats = self.cache.lanes_stats(lanes)
        capacities = self.cache.capacity[lanes].tolist()
        # Hand the stacked model state back, a group's leaving lanes at a
        # time, so every prefetcher leaves the cohort exactly as
        # simulate() would have left it (learned weights included).
        group_of = self._group_of[lanes]
        for index, group in enumerate(self._groups):
            leaving = lanes[group_of == index].tolist()
            if leaving:
                group.release_many(
                    self._cls_slot[leaving].tolist(),
                    [self._lane(slot).spec.prefetcher for slot in leaving])
        self._group_of[lanes] = _NO_CALLBACK
        recorded = self._miss_n[lanes].tolist() if self._record \
            else [0] * len(slots)
        for slot, cache_stats, capacity, n_missed in zip(
                slots, stats, capacities, recorded):
            spec = self._lane(slot).spec
            miss_indices = self._miss_idx[slot, :n_missed].tolist()
            self._results[slot] = SimResult(
                trace_name=spec.trace.name,
                prefetcher_name=spec.prefetcher.name,
                capacity_pages=capacity,
                stats=cache_stats,
                config=spec.config,
                miss_indices=miss_indices,
                engine_used="fleet",
                backend_used=self.backend_used)
        self._active[lanes] = False
        for row in self._trace_row[lanes].tolist():
            self._row_refs[row] -= 1
            if self._row_refs[row] == 0:
                key = self._row_key[row]
                assert key is not None
                del self._row_of[key]
                self._row_key[row] = None
                self._free_rows.append(row)

    def _issue(self, slot: int, i: int, page: int,
               predictions: list[int]) -> None:
        """Queue one miss's predictions — identical for both miss paths."""
        if predictions:
            limit = self._max_prefetches.item(slot)
            if len(predictions) > limit:
                predictions = predictions[:limit]
            kept = [int(p) for p in predictions if p != page]
            if kept:
                self._push(np.array([slot]), np.array([len(kept)]),
                           np.full(len(kept), i, dtype=np.int64),
                           np.array(kept, dtype=np.int64))

    def _issue_ragged(self, slots: np.ndarray, index: np.ndarray,
                      found: np.ndarray, owner: np.ndarray) -> None:
        """:meth:`_issue` for a stacked group's round: ``found[k]`` is a
        prediction of the miss of ``slots[owner[k]]`` at access
        ``index[owner[k]]`` (``owner`` ascending; a group never predicts
        the missed page itself)."""
        counts = np.bincount(owner, minlength=slots.size)
        limit = self._max_prefetches[slots]
        if (counts > limit).any():
            nth = np.arange(owner.size) - (counts.cumsum() - counts)[owner]
            kept = nth < limit[owner]
            found, owner = found[kept], owner[kept]
            counts = np.minimum(counts, limit)
        rows = counts.nonzero()[0]
        self._push(slots[rows], counts[rows], index[owner], found)

    def _push(self, lanes: np.ndarray, counts: np.ndarray, at: np.ndarray,
              pages: np.ndarray) -> None:
        """Append ``counts[j]`` prefetches to lane ``lanes[j]``'s ring
        (distinct lanes; the entries lane by lane, in issue order), the
        ``k``-th issued at access ``at[k]`` for page ``pages[k]``."""
        owner = lanes.repeat(counts)
        width = self.cache.soc.shape[1]
        cids = self.cache.cids_of(owner, pages)
        if self.cache.soc.shape[1] != width:
            self._bind_kernels()
        need = int((self._ring_tail[lanes] + counts
                    - self._ring_head[lanes]).max())
        if need > self._ring_at.shape[1]:
            self._grow_rings(need)
        tail = self._ring_tail[lanes]
        first = counts.cumsum() - counts
        column = ((tail - first).repeat(counts) + np.arange(owner.size)) \
            & (self._ring_at.shape[1] - 1)
        self._ring_at[owner, column] = at + self._delay[owner]
        self._ring_cid[owner, column] = cids
        self._ring_page[owner, column] = pages
        self._ring_tail[lanes] = tail + counts
        head = self._ring_head[lanes] & (self._ring_at.shape[1] - 1)
        self._next_landing[lanes] = self._ring_at[lanes, head]

    def _grow_rings(self, need: int) -> None:
        """Double the rings until ``need`` entries fit, every lane's queue
        moved to columns ``0 ..`` in order."""
        old = self._ring_at.shape[1]
        new = old
        while new < need:
            new *= 2
        rows = np.arange(self.width)[:, None]
        column = (self._ring_head[:, None] + np.arange(old)) & (old - 1)
        for name in ("_ring_at", "_ring_cid", "_ring_page"):
            ring = np.zeros((self.width, new), dtype=np.int64)
            ring[:, :old] = getattr(self, name)[rows, column]
            setattr(self, name, ring)
        self._ring_tail -= self._ring_head
        self._ring_head[:] = 0

    def _land(self, due: np.ndarray) -> None:
        """Land every prefetch due on lanes ``due`` (each has one at
        least): round ``j`` is the ``j``-th due landing of each lane, so a
        lane's landings keep their order and its duplicates fall into
        separate rounds."""
        pos = self._pos
        head, tail = self._ring_head, self._ring_tail
        ring_at = self._ring_at
        mask = ring_at.shape[1] - 1
        lanes = due
        while lanes.size:
            column = head[lanes] & mask
            self.cache.land(lanes, self._ring_cid[lanes, column],
                            self._ring_page[lanes, column])
            head[lanes] += 1
            lanes = lanes[head[lanes] < tail[lanes]]
            lanes = lanes[ring_at[lanes, head[lanes] & mask] <= pos[lanes]]
        self._next_landing[due] = np.where(
            head[due] < tail[due], ring_at[due, head[due] & mask], NO_PENDING)

    # ------------------------------------------------------------------
    # The batched loop
    # ------------------------------------------------------------------
    def step(self) -> list[int]:
        """Advance every active lane one round; returns finished slots.

        A round is: due landings -> lockstep hit walk (limit = next
        landing or end-of-trace) -> one batched fill for every stalled
        lane -> those misses to their prefetchers: a scalar callback per
        lane that has one of its own, one ``miss_round`` per stacked CLS
        group.  Null lanes skip the round structure entirely on compiled
        backends (one ``rk_fleet_null_run`` drives each to completion).
        """
        finished: list[int] = []
        act = np.flatnonzero(self._active)
        if act.size == 0:
            return finished
        if self._null_run is not None:
            null_lanes = act[self._is_null[act]]
            if null_lanes.size:
                self._lanes_buf[:null_lanes.size] = null_lanes
                self._null_run(int(null_lanes.size), int(self._record))
                null_slots = null_lanes.tolist()
                self._finish_many(null_slots)
                finished.extend(null_slots)
                act = act[~self._is_null[act]]
                if act.size == 0:
                    return finished
        pos = self._pos
        next_landing = self._next_landing
        cache = self.cache
        due = act[next_landing[act] <= pos[act]]
        if due.size:
            self._land(due)
        self._limit[act] = np.minimum(self._n_len[act], next_landing[act])
        limit_view = self._limit
        if self._hit_walk is not None:
            self._lanes_buf[:act.size] = act
            self._hit_walk(int(act.size))
        else:
            cache.hit_walk(act, self._cids2d, self._stores2d, pos,
                           limit_view, trace_row=self._trace_row)
        missed = act[pos[act] < limit_view[act]]
        if missed.size:
            p = pos[missed]
            rows_m = self._trace_row[missed]
            cids = self._cids2d[rows_m, p]
            pages = self._pages2d[rows_m, p]
            stores = self._stores2d[rows_m, p]
            cache.fill_step(missed, cids, pages, stores)
            if self._record:
                n_missed = self._miss_n[missed]
                self._miss_idx[missed, n_missed] = p
                self._miss_n[missed] = n_missed + 1
            group_of = self._group_of[missed]
            addresses = self._addresses2d[rows_m, p]
            timestamps = self._timestamps2d[rows_m, p]
            own = (group_of == _OWN_CALLBACK).nonzero()[0]
            for slot, i, page, address, timestamp in zip(
                    missed[own].tolist(), p[own].tolist(),
                    pages[own].tolist(), addresses[own].tolist(),
                    timestamps[own].tolist()):
                lane = self._lane(slot)
                assert lane.stream_ids is not None
                stream_id = int(lane.stream_ids[i])
                if lane.on_miss_fast is not None:
                    predictions = lane.on_miss_fast(
                        i, address, page, stream_id, timestamp)
                else:
                    predictions = lane.on_miss(MissEvent(
                        index=i, address=address, page=page,
                        stream_id=stream_id, timestamp=timestamp))
                self._issue(slot, i, page, predictions)
            # One stacked call per group, after the scalar lanes.
            for index, group in enumerate(self._groups):
                rows = (group_of == index).nonzero()[0]
                if not rows.size:
                    continue
                slots = missed[rows]
                found, owner = group.miss_round(
                    self._cls_slot[slots], addresses[rows], pages[rows],
                    timestamps[rows])
                if found.size:
                    self._issue_ragged(slots, p[rows], found, owner)
            pos[missed] = p + 1
        done = act[pos[act] >= self._n_len[act]].tolist()
        if done:
            self._finish_many(done)
            finished.extend(done)
        return finished

    def run_to_completion(self) -> dict[int, SimResult]:
        """Step until every loaded lane finishes; results keyed by slot."""
        results: dict[int, SimResult] = {}
        while self.active_count():
            for slot in self.step():
                results[slot] = self.harvest(slot)
        return results

    def drain(self, specs: Sequence[FleetLaneSpec]
              ) -> Iterator[list[tuple[int, SimResult]]]:
        """Run ``specs`` through this cohort, refilling freed slots.

        Yields once per :meth:`step` with the ``(spec index, result)``
        pairs of the lanes that finished on it.  Lanes are admitted in
        spec order — as many as there are free slots up front, then one
        per freed slot right after the step that freed it, each batch
        through one :meth:`load_many` — so a caller can date every
        admission from the yields alone (wall clocks stay out of
        ``memsim``).
        """
        pending = list(range(len(specs) - 1, -1, -1))
        slot_spec: dict[int, int] = {}

        def refill(slots: list[int]) -> None:
            batch = slots[:len(pending)]
            indices = [pending.pop() for _ in batch]
            slot_spec.update(zip(batch, indices))
            self.load_many(batch, [specs[i] for i in indices])

        refill(self.free_slots())
        while self.active_count():
            finished = self.step()
            yield [(slot_spec.pop(slot), self.harvest(slot))
                   for slot in finished]
            refill(finished)


def run_cohort(specs: list[FleetLaneSpec], *, backend: str = "auto",
               record_miss_indices: bool = False,
               width: int | None = None,
               stacked_cls: bool = True) -> list[SimResult]:
    """Run ``specs`` through one cohort; results in spec order.

    Convenience wrapper for tests and small fleets — the shard scheduler
    in ``repro.harness.fleet`` adds config grouping and timing.
    """
    cohort = FleetCohort.for_specs(specs, width=width, backend=backend,
                                   record_miss_indices=record_miss_indices,
                                   stacked_cls=stacked_cls)
    out: list[SimResult | None] = [None] * len(specs)
    for done in cohort.drain(specs):
        for index, result in done:
            out[index] = result
    return [r for r in out if r is not None]
