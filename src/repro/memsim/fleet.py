"""The multi-tenant fleet engine: N simulation lanes in one batched loop.

One ``simulate()`` call advances one (trace, prefetcher, cache) lane.
:class:`FleetCohort` runs up to ``width`` independent lanes, each a slot
of the lane store ``simulate()``'s compiled engine is a one-slot case of
(``memsim/lanes.py``), and batches what lies between their kernel
calls — the prefetchers' turns:

* **One engine per lane.**  A round is one ``rk_sim_lanes`` call over
  the store's active slots: every lane issues its pending predictions,
  lands what is due, walks its hits and fills its next demand miss — or,
  with the null prefetcher, runs to its end.
* **Batched misses.**  The round's misses keep every prefetcher's
  callback sequence that of the single-tenant engines: a lane with a
  prefetcher of its own gets its callback, scalar; the lanes of a
  stacked CLS group (``core/cls_fleet.py``) go to the group as four
  gathered columns and come back as one ragged ``(pages, owner)`` pair.
  The store cuts the predictions as ``simulate()`` does and names them
  by cid into the lanes' issue rows for their next kernel call.
* **Drain and refill.**  Finished lanes report a
  :class:`~repro.memsim.simulator.SimResult` and their slot is free for
  :meth:`FleetCohort.load` — :meth:`FleetCohort.drain` keeps a cohort
  full from a pending queue (the one scheduler loop, under both
  :func:`run_cohort` and ``repro.harness.fleet.run_fleet``).  A load
  resets the slot's rows to a fresh cache's.

Bit-identity per lane: a lane runs ``simulate()``'s kernel under
``simulate()``'s issue protocol, and lanes share no cache state, so an
N-lane cohort reproduces the stats, miss indices, and learned prefetcher
state of N independent ``simulate()`` calls
(``tests/memsim/test_fleet_engine.py``, ``tests/memsim/test_lane_step.py``).

A cohort needs the compiled simulator kernels (backend ``"c"``), as
``simulate(engine="batched")`` does: without them there is no round to
batch, and ``repro.harness.fleet.run_fleet`` runs each lane through
``simulate()`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from ..nn.backends import resolve_backend, sim_kernels
from ..patterns.trace import Trace
from .events import MissEvent
from .lanes import _HEAD, _TAIL, SimLanes
from .prefetcher import Prefetcher, observes_accesses
from .simulator import SimConfig, SimResult

__all__ = ["FleetCohort", "FleetLaneSpec"]

#: ``FleetCohort._group_of`` values below the stacked groups' indices: a
#: lane whose misses call its own prefetcher, a lane whose misses call
#: nothing (the null prefetcher).
_OWN_CALLBACK = -1
_NO_CALLBACK = -2


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
        backend: Kernel backend name for the lanes' engine (``"auto"`` /
            ``"c"``, as in ``simulate``); ``ValueError`` for one that
            resolves to no simulator kernels (``"numpy"``).
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
        self.backend_used = resolve_backend(backend, domain="sim")
        kern = sim_kernels(self.backend_used)
        if kern is None:
            raise ValueError(
                f"a fleet cohort needs the compiled simulator kernels, and "
                f"backend {self.backend_used!r} has none; run_fleet runs "
                f"such lanes through simulate()")
        self.width = width
        self.trace_capacity = trace_capacity
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
        self._store = SimLanes(width, slot_capacity=slot_capacity,
                               universe_capacity=universe_capacity,
                               trace_capacity=trace_capacity, kern=kern,
                               record=record_miss_indices)
        self._active = np.zeros(width, dtype=bool)
        self._lanes: list[_Lane | None] = [None] * width
        self._results: list[SimResult | None] = [None] * width
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
        if n > self.trace_capacity:
            raise ValueError(
                f"trace length {n} outside [0, {self.trace_capacity}]")
        universe, cids = trace.page_index(config.page_size)
        capacity = config.resolve_capacity(trace)
        store = self._store
        if capacity > store.last_use.shape[1]:
            raise ValueError(f"lane capacity {capacity} outside "
                             f"(0, {store.last_use.shape[1]}]")
        if len(universe) > store.soc.shape[1]:
            raise ValueError(f"universe of {len(universe)} pages exceeds "
                             f"fleet width {store.soc.shape[1]}")
        packed = _PackedTrace(
            trace=trace, config=config, n=n, capacity=capacity, cids=cids,
            pages=trace.pages(config.page_size),
            stores=trace.kinds != 0,
            universe=universe)
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
            if observes_accesses(spec.prefetcher):
                raise ValueError(
                    "fleet engine cannot drive per-access observers; run "
                    "wants_accesses prefetchers through simulate() instead")
            packs.append(self._packed(spec))
        group_of = self._cls_groups_for(specs)
        lanes = np.asarray(slots, dtype=np.int64)
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
        self._trace_row[lanes] = rows
        store = self._store
        store.load(lanes, [p.universe for p in packs],
                   [p.capacity for p in packs],
                   [spec.config for spec in specs], nulls)
        store.point_trace(lanes, self._trace_row[lanes], self._cids2d,
                          self._stores2d)
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
        store = self._store
        for slot in slots:
            spec = self._lane(slot).spec
            self._results[slot] = SimResult(
                trace_name=spec.trace.name,
                prefetcher_name=spec.prefetcher.name,
                capacity_pages=self._packed(spec).capacity,
                stats=store.stats_of(slot),
                config=spec.config,
                miss_indices=store.misses_of(slot),
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
        store = self._store
        store.run(act, pos, n_len, self._n_issue)
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
                if predictions:
                    self._n_issue[slot] = store.cut(slot, page, predictions)
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
                    self._n_issue[slots] = store.cut_ragged(slots, found,
                                                            owner)
            state = store.state
            need = int((state[missed, _TAIL] - state[missed, _HEAD]
                        + self._n_issue[missed]).max())
            if need > store.ring_at.shape[1]:
                store.grow_rings(need)
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
