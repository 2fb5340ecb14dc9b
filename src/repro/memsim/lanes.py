"""The ``rk_sim`` lane store: the rows one compiled cache step runs on.

:class:`SimLanes` holds ``width`` ``rk_sim`` contexts (the struct
``rk_sim_run`` in ``nn/backends/c_backend.py`` steps), slot ``t``'s
fields pointing at row ``t`` of per-slot arrays (``_SLOT_ROWS``), and
everything that writes or reads those rows: the load-time resets, the
issue cut (a miss's predictions named by cid into the slot's issue
row), extension cids for pages outside the lane's universe, ring growth
and the harvest of a slot's ``CacheStats`` and miss indices.  A
context's address never changes and a reallocated row is pointed at
again, so a caller binds a slot once.  ``simulate()``'s compiled engine
is a one-slot store asked once per miss; ``FleetCohort`` runs a round
of slots per call.  The store needs the compiled kernels: without them
``simulate()`` is the scalar engine and a fleet is ``simulate()`` per
lane (``repro.harness.fleet.run_fleet``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .pagecache import _STAT_FIELDS, _VICTIM_BATCH, CacheStats

if TYPE_CHECKING:  # pragma: no cover - simulator imports this module
    from .simulator import SimConfig

#: Columns of every lane's in-flight ring at first (grown as needed; a
#: power of two, so a count maps to its column with a mask).
_RING_COLUMNS = 8

#: ``rk_sim``'s state row (``SIM_*`` in the C source).
(_CLOCK, _RESIDENT, _UNDEMANDED, _HEAD, _TAIL, _MISSES, _VN,
 _VI) = range(8)

#: The ``rk_sim`` fields that are rows of the store's per-slot arrays
#: (``SimLanes.<name>``), slot ``t``'s context on row ``t``.
_SLOT_ROWS = ("soc", "page_of_cid", "page_of_slot", "last_use",
              "cid_of_slot", "dirty", "undemanded", "ring_at", "ring_cid",
              "issue", "miss_idx", "vstamp", "vslot", "stats", "state")


class SimLanes:
    """``width`` ``rk_sim`` contexts over rows of per-slot arrays, named
    as the ``rk_sim`` fields (``soc``, ``state``, ...): callers read the
    rows and write them only through the methods below.  A lane's
    universe must fit ``universe_capacity`` (extension cids widen the
    rows); ``kern`` is the compiled simulator kernels
    (``sim_kernels("c")``)."""

    def __init__(self, width: int, *, slot_capacity: int,
                 universe_capacity: int, trace_capacity: int, kern: Any,
                 record: bool) -> None:
        self.width = width
        slots = (width, slot_capacity)
        # The cid -> slot table and the page of each cid (widened by
        # _widen), the slot arrays, the in-flight ring (grow_rings), the
        # issue row (sized at load), the recorded miss indices (a (T, 1)
        # stub nothing writes without recording), the victim snapshot —
        # at most one entry per slot of the lane — stats and state.
        self.soc = np.full((width, universe_capacity), -1, dtype=np.int64)
        self.page_of_cid = np.zeros((width, universe_capacity),
                                    dtype=np.int64)
        self.page_of_slot = np.zeros(slots, dtype=np.int64)
        self.last_use = np.zeros(slots, dtype=np.int64)
        self.cid_of_slot = np.zeros(slots, dtype=np.int64)
        self.dirty = np.zeros(slots, dtype=bool)
        self.undemanded = np.zeros(slots, dtype=bool)
        self.ring_at = np.zeros((width, _RING_COLUMNS), dtype=np.int64)
        self.ring_cid = np.zeros((width, _RING_COLUMNS), dtype=np.int64)
        self.issue = np.zeros((width, 1), dtype=np.int64)
        self.miss_idx = np.zeros((width, trace_capacity if record else 1),
                                 dtype=np.int64)
        victims = (width, min(_VICTIM_BATCH, slot_capacity))
        self.vstamp = np.zeros(victims, dtype=np.int64)
        self.vslot = np.zeros(victims, dtype=np.int64)
        self.stats = np.zeros((width, len(_STAT_FIELDS)), dtype=np.int64)
        self.state = np.zeros((width, 8), dtype=np.int64)
        self._slots = np.arange(width, dtype=np.int64)
        self._sims = kern.sim_lanes(width)
        self._point(*_SLOT_ROWS)
        self._sims.set("ring_mask", self._slots, _RING_COLUMNS - 1)
        self._sims.set("record", self._slots, int(record))
        self._record = record
        # The arrays the trace fields point at, kept alive.
        self._traces: tuple[np.ndarray, np.ndarray] | None = None
        # Per slot: the universe's page -> cid dict (shared across lanes
        # replaying the same universe), the lane's own extension dict,
        # the universe size the extension cids start from, and the cap.
        self._cid_of: list[dict[int, int]] = [{} for _ in range(width)]
        self._ext_of: list[dict[int, int]] = [{} for _ in range(width)]
        self._universe_size = [0] * width
        self._max_prefetches = np.zeros(width, dtype=np.int64)
        # The same caps, and views of the issue rows, for one lane's cut.
        self._limits = [0] * width
        self._issue_rows = list(self.issue)
        # page -> cid dicts by the memoized universe array's identity
        # (the array is kept in the value so the id stays live).
        self._cid_cache: dict[int, tuple[np.ndarray, dict[int, int]]] = {}

    def _point(self, *names: str) -> None:
        """Aim the ``rk_sim`` fields ``names`` of every slot at its row of
        the per-slot array — again whenever one is replaced."""
        self._sims.point({name: getattr(self, name) for name in names},
                         self._slots, self._slots)

    def load(self, lanes: np.ndarray, universes: Sequence[np.ndarray],
             capacities: Sequence[int], configs: Sequence["SimConfig"],
             nulls: Sequence[bool]) -> None:
        """Start slots ``lanes`` on a fresh cache and an empty queue: a
        lane of ``universes[k]`` pages (``Trace.page_index``),
        ``capacities[k]`` slots and ``configs[k]``'s delay and cap; a null
        lane runs to its end in one call.  The other rows are written
        before they are read."""
        limits = [config.max_prefetches_per_miss for config in configs]
        if max(limits) > self.issue.shape[1]:
            issue = np.zeros((self.width, max(limits)), dtype=np.int64)
            issue[:, :self.issue.shape[1]] = self.issue
            self.issue = issue
            self._issue_rows = list(issue)
            self._point("issue")
        for slot, universe, limit in zip(lanes.tolist(), universes, limits):
            cached = self._cid_cache.get(id(universe))
            if cached is None or cached[0] is not universe:
                cached = (universe, {int(p): i for i, p
                                     in enumerate(universe.tolist())})
                self._cid_cache[id(universe)] = cached
            self.page_of_cid[slot, :universe.size] = universe
            self._cid_of[slot] = cached[1]
            self._ext_of[slot] = {}
            self._universe_size[slot] = universe.size
            self._limits[slot] = limit
        self._max_prefetches[lanes] = limits
        self.soc[lanes] = -1
        self.dirty[lanes] = False
        self.undemanded[lanes] = False
        self.stats[lanes] = 0
        self.state[lanes] = 0
        sims = self._sims
        sims.set("capacity", lanes, capacities)
        sims.set("delay", lanes,
                 [config.prefetch_delay_accesses for config in configs])
        sims.set("is_null", lanes, nulls)

    def point_trace(self, lanes: np.ndarray, rows: np.ndarray,
                    cids: np.ndarray, stores: np.ndarray) -> None:
        """Slot ``lanes[k]`` replays row ``rows[k]`` of the 2-D ``cids``
        (each access's cid) and ``stores`` (each access is a store)."""
        self._traces = (cids, stores)
        self._sims.point({"cids": cids, "stores": stores}, lanes, rows)

    def run(self, lanes: np.ndarray, pos: np.ndarray, stop: np.ndarray,
            n_issue: np.ndarray) -> None:
        """One round: slot ``t`` of ``lanes`` issues its ``n_issue[t]``
        cids, then runs from ``pos[t]`` to its next demand miss or
        ``stop[t]``, which is left in ``pos[t]``."""
        self._sims.run(lanes, pos, stop, n_issue)

    def runner(self, slot: int) -> Callable[[int, int, int], int]:
        """``rk_sim_run`` on ``slot``'s context, called with ``(start,
        stop, n_issue)``: returns the next demand miss's index, or
        ``stop``."""
        return self._sims.runner(slot)

    def grow_rings(self, need: int) -> None:
        """Re-lay every slot's in-flight ring into one of at least
        ``need`` columns."""
        old = self.ring_at.shape[1]
        size = 1 << (need - 1).bit_length()
        rows = self._slots[:, None]
        at = self.state[:, _HEAD, None] + np.arange(old)
        for name in ("ring_at", "ring_cid"):
            grown = np.zeros((self.width, size), dtype=np.int64)
            grown[rows, at & (size - 1)] = getattr(self, name)[
                rows, at & (old - 1)]
            setattr(self, name, grown)
        self._point("ring_at", "ring_cid")
        self._sims.set("ring_mask", self._slots, size - 1)

    def _cid(self, slot: int, page: int) -> int:
        """The cid of ``page`` on ``slot``: its place in the lane's
        universe, else the lane's extension cid for it — the next one
        from the universe size up, the first time it is named."""
        cid = self._cid_of[slot].get(page)
        if cid is not None:
            return cid
        ext = self._ext_of[slot]
        cid = ext.get(page)
        if cid is None:
            cid = ext[page] = self._universe_size[slot] + len(ext)
            if cid >= self.soc.shape[1]:
                self._widen(cid + 1)
            self.page_of_cid[slot, cid] = page
        return cid

    def _widen(self, need: int) -> None:
        """Reallocate the cid-indexed rows at least ``need`` wide."""
        old = self.soc.shape[1]
        width = max(need, 2 * old)
        soc = np.full((self.width, width), -1, dtype=np.int64)
        soc[:, :old] = self.soc
        page_of_cid = np.zeros((self.width, width), dtype=np.int64)
        page_of_cid[:, :old] = self.page_of_cid
        self.soc, self.page_of_cid = soc, page_of_cid
        self._point("soc", "page_of_cid")

    def cut(self, slot: int, page: int, predictions: Sequence[Any]) -> int:
        """Write one miss's predictions to ``slot``'s issue row as the
        scalar engine issues them — the first ``max_prefetches_per_miss``,
        less the miss page ``page`` — and return how many were kept."""
        limit = self._limits[slot]
        if len(predictions) > limit:
            predictions = predictions[:limit]
        issue = self._issue_rows[slot]
        cid_get = self._cid_of[slot].get
        k = 0
        for predicted in predictions:
            if predicted != page:
                cid = cid_get(predicted)
                issue[k] = (cid if cid is not None
                            else self._cid(slot, int(predicted)))
                k += 1
        return k

    def cut_ragged(self, slots: np.ndarray, found: np.ndarray,
                   owner: np.ndarray) -> np.ndarray:
        """:meth:`cut` for a round's misses at once: ``found[k]`` is a
        prediction of the miss of ``slots[owner[k]]`` (``owner``
        ascending; no miss page among them).  Returns each slot's kept
        count."""
        counts = np.bincount(owner, minlength=slots.size)
        limit = self._max_prefetches[slots]
        if (counts > limit).any():
            nth = np.arange(owner.size) - (counts.cumsum() - counts)[owner]
            kept = nth < limit[owner]
            found, owner = found[kept], owner[kept]
            counts = np.minimum(counts, limit)
        lanes = slots[owner]
        nth = np.arange(owner.size) - (counts.cumsum() - counts)[owner]
        cid_of = self._cid_of
        cids = []
        for lane, page in zip(lanes.tolist(), found.tolist()):
            cid = cid_of[lane].get(page)
            cids.append(cid if cid is not None else self._cid(lane, page))
        self.issue[lanes, nth] = cids
        return counts

    def stats_of(self, slot: int) -> CacheStats:
        return CacheStats(*self.stats[slot].tolist())

    def misses_of(self, slot: int) -> list[int]:
        """The slot's recorded miss indices (none without recording)."""
        n = self.state.item(slot, _MISSES) if self._record else 0
        return self.miss_idx[slot, :n].tolist()
