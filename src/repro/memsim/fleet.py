"""The multi-tenant fleet engine: N simulation lanes in one batched loop.

One ``simulate()`` call advances one (trace, prefetcher, cache) lane.
:class:`FleetCohort` runs up to ``width`` independent lanes, each on
``simulate()``'s own compiled engine, and batches what lies between
their kernel calls — the prefetchers' turns:

* **One engine per lane.**  Each lane slot is an ``rk_sim`` context, the
  struct ``simulate()``'s ``_CompiledEngine`` binds; its fields are rows
  of per-slot arrays (cid -> slot table, page of each cid, the slot
  arrays, the in-flight ring, the victim snapshot, stats, state and a
  row of miss indices).  A round is one ``rk_sim_lanes`` call: every
  active lane issues its pending predictions, lands what is due, walks
  its hits and fills its next demand miss — or, with the null
  prefetcher, runs to its end.  Without a compiler the same rounds run
  through :func:`_sim_run`, ``rk_sim_run``'s Python twin, over the same
  arrays.
* **Batched misses.**  The round's misses keep every prefetcher's
  callback sequence that of the single-tenant engines: a lane with a
  prefetcher of its own gets its callback, scalar; the lanes of a
  stacked CLS group (``core/cls_fleet.py``) go to the group as four
  gathered columns and come back as one ragged ``(pages, owner)`` pair.
  The predictions are cut to ``max_prefetches_per_miss``, named by cid
  (a page outside the trace's universe takes the lane's next extension
  cid, numbered as ``_CompiledEngine._extend`` numbers them) and written
  to the lane's issue row for its next kernel call.
* **Drain and refill.**  Finished lanes report a
  :class:`~repro.memsim.simulator.SimResult` and their slot is free for
  :meth:`FleetCohort.load` — :meth:`FleetCohort.drain` keeps a cohort
  full from a pending queue (the one scheduler loop, under both
  :func:`run_cohort` and ``repro.harness.fleet.run_fleet``).  A load
  resets the rows a fresh ``PageCache`` would start empty.

Bit-identity per lane: a lane runs ``simulate()``'s kernel under
``simulate()``'s issue protocol, and lanes share no cache state, so an
N-lane cohort reproduces the stats, miss indices, and learned prefetcher
state of N independent ``simulate()`` calls
(``tests/memsim/test_fleet_engine.py``, ``tests/memsim/test_lane_step.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Iterator, Sequence

import numpy as np

from ..nn.backends import resolve_backend, sim_kernels
from ..patterns.trace import Trace
from .events import MissEvent
from .pagecache import _FREE, _STAT_FIELDS, _VICTIM_BATCH, CacheStats
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

#: ``rk_sim``'s state row (``SIM_*`` in the C source) and its stats row
#: (``CacheStats``' fields in order).
(_CLOCK, _RESIDENT, _UNDEMANDED, _HEAD, _TAIL, _MISSES, _VN,
 _VI) = range(8)
(_ACCESSES, _HITS, _DEMAND_MISSES, _PREFETCH_HITS, _ISSUED, _REDUNDANT,
 _EVICTED_UNUSED, _DISPLACED, _WRITEBACKS) = range(len(_STAT_FIELDS))

#: The ``rk_sim`` fields that are rows of the cohort's per-slot arrays
#: (``FleetCohort._<name>``), slot ``t``'s context on row ``t``.
_SLOT_ROWS = ("soc", "page_of_cid", "page_of_slot", "last_use",
              "cid_of_slot", "dirty", "undemanded", "ring_at", "ring_cid",
              "issue", "miss_idx", "vstamp", "vslot", "stats", "state")


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
    universe: np.ndarray
    cid_of: dict[int, int]


@dataclass
class _Lane:
    """Mutable per-slot state while a lane is in flight."""

    spec: FleetLaneSpec
    on_miss_fast: Any
    on_miss: Any
    stream_ids: np.ndarray | None


# ----------------------------------------------------------------------
# rk_sim_run without a compiler
# ----------------------------------------------------------------------
def _sim_run(s: Any, start: int, stop: int, n_issue: int) -> int:
    """``rk_sim_run``'s Python twin, statement for statement: ``s`` holds
    the fields of ``rk_sim`` (numpy rows and ints).  Issues ``s.issue``'s
    first ``n_issue`` cids at access ``start - 1``, runs accesses
    ``[start, stop)`` and returns the first demand miss's index (already
    filled), or ``stop``; in null mode it never returns early."""
    cids, stores, soc, last_use = s.cids, s.stores, s.soc, s.last_use
    ring_at, ring_cid, undemanded = s.ring_at, s.ring_cid, s.undemanded
    mask = s.ring_mask
    st = s.state[:_VN].tolist()
    c = [0] * len(_STAT_FIELDS)
    clock = st[_CLOCK]
    for k in range(n_issue):
        ring_at[st[_TAIL] & mask] = start - 1 + s.delay
        ring_cid[st[_TAIL] & mask] = s.issue[k]
        st[_TAIL] += 1
    next_landing = (int(ring_at[st[_HEAD] & mask]) if st[_HEAD] < st[_TAIL]
                    else NO_PENDING)
    i = start
    while i < stop:
        while next_landing <= i:
            cid = int(ring_cid[st[_HEAD] & mask])
            st[_HEAD] += 1
            next_landing = (int(ring_at[st[_HEAD] & mask])
                            if st[_HEAD] < st[_TAIL] else NO_PENDING)
            c[_ISSUED] += 1
            slot = int(soc[cid])
            if slot >= 0:
                c[_REDUNDANT] += 1
                last_use[slot] = clock
                clock += 1
                continue
            slot = _take_slot(s, st, c, True)
            _install(s, slot, cid, clock)
            clock += 1
            undemanded[slot] = True
            st[_UNDEMANDED] += 1
        cid = int(cids[i])
        slot = int(soc[cid])
        if slot >= 0:
            last_use[slot] = clock
            clock += 1
            if stores[i]:
                s.dirty[slot] = True
            if st[_UNDEMANDED] and undemanded[slot]:
                undemanded[slot] = False
                st[_UNDEMANDED] -= 1
                c[_PREFETCH_HITS] += 1
            c[_HITS] += 1
            i += 1
            continue
        c[_DEMAND_MISSES] += 1
        if s.record:
            s.miss_idx[st[_MISSES]] = i
        st[_MISSES] += 1
        slot = _take_slot(s, st, c, False)
        _install(s, slot, cid, clock)
        clock += 1
        s.dirty[slot] = stores[i]
        if not s.is_null:
            break
        i += 1
    st[_CLOCK] = clock
    s.state[:_VN] = st
    c[_ACCESSES] = c[_HITS] + c[_DEMAND_MISSES]
    s.stats += c
    return i


def _take_slot(s: Any, st: list[int], c: list[int],
               by_prefetch: bool) -> int:
    """``rk_take_slot``: a virgin slot below capacity, else the LRU
    page's, evicted."""
    if st[_RESIDENT] < s.capacity:
        st[_RESIDENT] += 1
        return st[_RESIDENT] - 1
    slot = _pop_victim(s)
    if s.dirty[slot]:
        c[_WRITEBACKS] += 1
        s.dirty[slot] = False
    if s.undemanded[slot]:
        c[_EVICTED_UNUSED] += 1
        st[_UNDEMANDED] -= 1
        s.undemanded[slot] = False
    elif by_prefetch:
        c[_DISPLACED] += 1
    s.soc[s.cid_of_slot[slot]] = -1
    return slot


def _pop_victim(s: Any) -> int:
    """``rk_pop_victim``: the snapshot's next live entry, refilled with
    the oldest ``_VICTIM_BATCH`` slots when it runs dry (the cache is
    full then, so every stamp is distinct and the order is unique)."""
    state = s.state
    while True:
        if state[_VI] >= state[_VN]:
            oldest = np.argsort(s.last_use[:s.capacity])[:_VICTIM_BATCH]
            s.vstamp[:oldest.size] = s.last_use[oldest]
            s.vslot[:oldest.size] = oldest
            state[_VN] = oldest.size
            state[_VI] = 0
        stamp = int(s.vstamp[state[_VI]])
        slot = int(s.vslot[state[_VI]])
        state[_VI] += 1
        if stamp != _FREE and s.last_use[slot] == stamp:
            return slot


def _install(s: Any, slot: int, cid: int, stamp: int) -> None:
    s.page_of_slot[slot] = s.page_of_cid[cid]
    s.last_use[slot] = stamp
    s.soc[cid] = slot
    s.cid_of_slot[slot] = cid


class _SimLanes:
    """``c_backend.CSimLanes`` without a compiler: each slot's context is
    a namespace of the same rows the compiled contexts point at, and a
    round runs :func:`_sim_run` lane by lane."""

    def __init__(self, width: int) -> None:
        self._sims = [SimpleNamespace() for _ in range(width)]

    def point(self, name: str, array: np.ndarray, lanes: np.ndarray,
              rows: np.ndarray) -> None:
        for lane, row in zip(lanes.tolist(), rows.tolist()):
            setattr(self._sims[lane], name, array[row])

    def set(self, name: str, lanes: np.ndarray, values: Any) -> None:
        for lane, value in zip(lanes.tolist(),
                               np.broadcast_to(values, lanes.shape).tolist()):
            setattr(self._sims[lane], name, value)

    def run(self, lanes: np.ndarray, pos: np.ndarray, stop: np.ndarray,
            n_issue: np.ndarray) -> None:
        for lane in lanes.tolist():
            pos[lane] = _sim_run(self._sims[lane], int(pos[lane]),
                                 int(stop[lane]), int(n_issue[lane]))


class FleetCohort:
    """A fixed-width shard of concurrently simulated tenant lanes.

    Args:
        width: Number of lane slots (T).
        slot_capacity: Maximum per-lane cache capacity this cohort hosts.
        universe_capacity: Maximum per-lane page-universe size.
        trace_capacity: Maximum per-lane trace length.
        backend: Kernel backend name for the lanes' engine (``"auto"`` /
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
        if (width <= 0 or trace_capacity <= 0 or slot_capacity <= 0
                or universe_capacity <= 0):
            raise ValueError("fleet cohort dimensions must be positive")
        self.width = width
        self.trace_capacity = trace_capacity
        self.backend_used = resolve_backend(backend, domain="sim")
        kern = sim_kernels(self.backend_used)
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
        # Lane t's next kernel call starts at access _pos[t] and first
        # issues the _n_issue[t] cids of its issue row.
        self._pos = np.zeros(width, dtype=np.int64)
        self._n_issue = np.zeros(width, dtype=np.int64)
        # The rk_sim rows (_SLOT_ROWS): the cid -> slot table and the page
        # of each cid (widened by _widen), the slot arrays, the in-flight
        # ring (_grow_rings), the issue row (sized at load), the recorded
        # miss indices (a (T, 1) stub nothing writes without recording),
        # the victim snapshot, stats and state.
        self._soc = np.full((width, universe_capacity), -1, dtype=np.int64)
        self._page_of_cid = np.zeros((width, universe_capacity),
                                     dtype=np.int64)
        slots_shape = (width, slot_capacity)
        self._page_of_slot = np.zeros(slots_shape, dtype=np.int64)
        self._last_use = np.zeros(slots_shape, dtype=np.int64)
        self._cid_of_slot = np.zeros(slots_shape, dtype=np.int64)
        self._dirty = np.zeros(slots_shape, dtype=bool)
        self._undemanded = np.zeros(slots_shape, dtype=bool)
        self._ring_at = np.zeros((width, _RING_COLUMNS), dtype=np.int64)
        self._ring_cid = np.zeros((width, _RING_COLUMNS), dtype=np.int64)
        self._issue = np.zeros((width, 1), dtype=np.int64)
        self._miss_idx = np.zeros(
            shape if record_miss_indices else (width, 1), dtype=np.int64)
        # A snapshot holds at most one entry per slot of the lane.
        victims = (width, min(_VICTIM_BATCH, slot_capacity))
        self._vstamp = np.zeros(victims, dtype=np.int64)
        self._vslot = np.zeros(victims, dtype=np.int64)
        self._stats = np.zeros((width, len(_STAT_FIELDS)), dtype=np.int64)
        self._state = np.zeros((width, 8), dtype=np.int64)
        self._slots = np.arange(width, dtype=np.int64)
        self._sims = (kern.sim_lanes(width) if kern is not None
                      else _SimLanes(width))
        self._point(*_SLOT_ROWS)
        self._sims.set("ring_mask", self._slots, _RING_COLUMNS - 1)
        self._sims.set("record", self._slots, int(record_miss_indices))
        # Per slot: the universe's page -> cid dict (shared across lanes
        # replaying the same trace), the lane's own extension dict, which
        # names out-of-universe pages from the universe size up, and that
        # size.
        self._cid_of: list[dict[int, int]] = [{} for _ in range(width)]
        self._ext_of: list[dict[int, int]] = [{} for _ in range(width)]
        self._universe_size = [0] * width
        self._active = np.zeros(width, dtype=bool)
        self._lanes: list[_Lane | None] = [None] * width
        self._results: list[SimResult | None] = [None] * width
        self._record = record_miss_indices
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

    def _point(self, *names: str) -> None:
        """Aim the ``rk_sim`` fields ``names`` of every slot at its row of
        the per-slot array — again whenever one is replaced."""
        for name in names:
            self._sims.point(name, getattr(self, "_" + name), self._slots,
                             self._slots)

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
        capacity = config.resolve_capacity(trace)
        if capacity > self._last_use.shape[1]:
            raise ValueError(f"lane capacity {capacity} outside "
                             f"(0, {self._last_use.shape[1]}]")
        if len(universe) > self._soc.shape[1]:
            raise ValueError(f"universe of {len(universe)} pages exceeds "
                             f"fleet width {self._soc.shape[1]}")
        cached = self._cid_cache.get(id(universe))
        if cached is None or cached[0] is not universe:
            cached = (universe,
                      {int(p): i for i, p in enumerate(universe.tolist())})
            self._cid_cache[id(universe)] = cached
        packed = _PackedTrace(
            trace=trace, config=config, n=n, capacity=capacity, cids=cids,
            pages=trace.pages(config.page_size),
            stores=trace.kinds != 0,
            universe=universe,
            cid_of=cached[1])
        self._pack_cache[key] = packed
        return packed

    def load(self, slot: int, spec: FleetLaneSpec) -> None:
        """Admit a lane into ``slot`` (which must be free or harvested)."""
        self.load_many([slot], [spec])

    def load_many(self, slots: list[int], specs: list[FleetLaneSpec]) -> None:
        """Admit one lane per ``(slot, spec)`` pair in a single batch.

        Per-lane load cost is the fleet's throughput floor at scale, so
        the row resets and context writes happen once per batch.
        Validation runs for the whole batch before any state is touched.
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
            packs.append(self._packed(spec))
        group_of = self._cls_groups_for(specs)
        lanes = np.asarray(slots, dtype=np.int64)
        max_prefetches = [spec.config.max_prefetches_per_miss
                          for spec in specs]
        if max(max_prefetches) > self._issue.shape[1]:
            issue = np.zeros((self.width, max(max_prefetches)),
                             dtype=np.int64)
            issue[:, :self._issue.shape[1]] = self._issue
            self._issue = issue
            self._point("issue")
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
            universe = packed.universe
            self._page_of_cid[slot, :universe.size] = universe
            self._cid_of[slot] = packed.cid_of
            self._ext_of[slot] = {}
            self._universe_size[slot] = universe.size
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
        self._max_prefetches[lanes] = max_prefetches
        # What a fresh PageCache and an empty queue start from; the other
        # rows are written before they are read.
        self._soc[lanes] = -1
        self._dirty[lanes] = False
        self._undemanded[lanes] = False
        self._stats[lanes] = 0
        self._state[lanes] = 0
        self._trace_row[lanes] = rows
        self._sims.point("cids", self._cids2d, lanes, self._trace_row[lanes])
        self._sims.point("stores", self._stores2d, lanes,
                         self._trace_row[lanes])
        sims = self._sims
        sims.set("capacity", lanes, [p.capacity for p in packs])
        sims.set("delay", lanes,
                 [spec.config.prefetch_delay_accesses for spec in specs])
        sims.set("is_null", lanes, nulls)
        self._n_len[lanes] = [p.n for p in packs]
        self._pos[lanes] = 0
        self._n_issue[lanes] = 0
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
        stats = [CacheStats(*row) for row in self._stats[lanes].tolist()]
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
        recorded = self._state[lanes, _MISSES].tolist() if self._record \
            else [0] * len(slots)
        for slot, cache_stats, n_missed in zip(slots, stats, recorded):
            spec = self._lane(slot).spec
            self._results[slot] = SimResult(
                trace_name=spec.trace.name,
                prefetcher_name=spec.prefetcher.name,
                capacity_pages=self._packed(spec).capacity,
                stats=cache_stats,
                config=spec.config,
                miss_indices=self._miss_idx[slot, :n_missed].tolist(),
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

    # ------------------------------------------------------------------
    # Issue: a miss's predictions, as cids in the lane's issue row
    # ------------------------------------------------------------------
    def _cids_of(self, lanes: list[int], pages: list[int]) -> list[int]:
        """The cid of page ``pages[k]`` on lane ``lanes[k]``.  A page
        outside the lane's universe takes the lane's next extension cid
        the first time it is named; the slot tables and page-of-cid rows
        are widened when one falls outside them."""
        cid_of, ext_of, base = self._cid_of, self._ext_of, self._universe_size
        cids = []
        named: list[tuple[int, int, int]] = []
        for lane, page in zip(lanes, pages):
            cid = cid_of[lane].get(page)
            if cid is None:
                ext = ext_of[lane]
                cid = ext.get(page)
                if cid is None:
                    cid = ext[page] = base[lane] + len(ext)
                    named.append((lane, cid, page))
            cids.append(cid)
        if named:
            at, new, of = zip(*named)
            if max(new) >= self._soc.shape[1]:
                self._widen(max(new) + 1)
            self._page_of_cid[at, new] = of
        return cids

    def _widen(self, need: int) -> None:
        """Reallocate the cid-indexed rows at least ``need`` wide."""
        old = self._soc.shape[1]
        width = max(need, 2 * old)
        soc = np.full((self.width, width), -1, dtype=np.int64)
        soc[:, :old] = self._soc
        page_of_cid = np.zeros((self.width, width), dtype=np.int64)
        page_of_cid[:, :old] = self._page_of_cid
        self._soc, self._page_of_cid = soc, page_of_cid
        self._point("soc", "page_of_cid")

    def _issue_one(self, slot: int, page: int, predictions: list[int]
                   ) -> None:
        """Queue one own-callback miss's predictions, as simulate() cuts
        them: the first ``max_prefetches_per_miss``, less the miss page."""
        if predictions:
            limit = self._max_prefetches.item(slot)
            if len(predictions) > limit:
                predictions = predictions[:limit]
            kept = [int(p) for p in predictions if p != page]
            if kept:
                self._issue[slot, :len(kept)] = self._cids_of(
                    [slot] * len(kept), kept)
                self._n_issue[slot] = len(kept)

    def _issue_ragged(self, slots: np.ndarray, found: np.ndarray,
                      owner: np.ndarray) -> None:
        """:meth:`_issue_one` for a stacked group's round: ``found[k]`` is
        a prediction of the miss of ``slots[owner[k]]`` (``owner``
        ascending; a group never predicts the missed page itself)."""
        counts = np.bincount(owner, minlength=slots.size)
        limit = self._max_prefetches[slots]
        if (counts > limit).any():
            nth = np.arange(owner.size) - (counts.cumsum() - counts)[owner]
            kept = nth < limit[owner]
            found, owner = found[kept], owner[kept]
            counts = np.minimum(counts, limit)
        lanes = slots[owner]
        nth = np.arange(owner.size) - (counts.cumsum() - counts)[owner]
        self._issue[lanes, nth] = self._cids_of(lanes.tolist(),
                                                found.tolist())
        self._n_issue[slots] = counts

    def _grow_rings(self, need: int) -> None:
        """Re-lay every lane's in-flight ring into one of at least
        ``need`` columns (``_CompiledEngine._grow_ring``, row-wise)."""
        old = self._ring_at.shape[1]
        size = 1 << (need - 1).bit_length()
        rows = self._slots[:, None]
        at = self._state[:, _HEAD, None] + np.arange(old)
        for name in ("_ring_at", "_ring_cid"):
            grown = np.zeros((self.width, size), dtype=np.int64)
            grown[rows, at & (size - 1)] = getattr(self, name)[
                rows, at & (old - 1)]
            setattr(self, name, grown)
        self._point("ring_at", "ring_cid")
        self._sims.set("ring_mask", self._slots, size - 1)

    # ------------------------------------------------------------------
    # The batched loop
    # ------------------------------------------------------------------
    def step(self) -> list[int]:
        """Advance every active lane one round; returns finished slots.

        A round is one kernel call over the active lanes (each issues its
        pending predictions, then runs to its next demand miss; a null
        lane runs to its end), then those misses to their prefetchers: a
        scalar callback per lane that has one of its own, one
        ``miss_round`` per stacked CLS group.  The predictions wait in
        the lanes' issue rows for the next round.
        """
        finished: list[int] = []
        act = np.flatnonzero(self._active)
        if act.size == 0:
            return finished
        pos = self._pos
        n_len = self._n_len
        self._sims.run(act, pos, n_len, self._n_issue)
        self._n_issue[act] = 0
        missed = act[pos[act] < n_len[act]]
        if missed.size:
            p = pos[missed]
            rows_m = self._trace_row[missed]
            pages = self._pages2d[rows_m, p]
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
                self._issue_one(slot, page, predictions)
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
                    self._issue_ragged(slots, found, owner)
            state = self._state
            need = int((state[missed, _TAIL] - state[missed, _HEAD]
                        + self._n_issue[missed]).max())
            if need > self._ring_at.shape[1]:
                self._grow_rings(need)
            pos[missed] = p + 1
        done = act[pos[act] >= n_len[act]].tolist()
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
