"""Differential fuzz of the fleet's lane step against the reference.

A cohort round runs every active lane through ``rk_sim_run`` to its
next demand miss, then asks the lane's prefetcher and leaves the
predictions in the lane's issue row for the next round.  After *every*
round each lane must equal an independent ``ReferencePageCache`` +
``PrefetchQueue`` replay of the same accesses (the scalar engine's loop)
advanced to the same access:

* every ``CacheStats`` counter;
* the residents in LRU order, each with its undemanded and dirty flag;
* the in-flight prefetches in landing order — the ring plus the issue
  row still waiting for the next call;
* the recorded miss indices.

The scripted prefetchers push the lane step's edges: several landings
due at one access, a page in flight twice, the miss page itself,
out-of-universe pages (fresh ones every time, so a lane's cid rows
widen mid-run), more predictions than ``max_prefetches_per_miss``, long
delays that outgrow the in-flight ring, capacity 1, stores and
writebacks, null lanes beside learning ones, recording on and off.

A cohort needs the C backend.  On ``numpy`` a fleet is ``run_fleet``'s
``simulate()`` per lane, and its cases hold each lane's result to the
reference at the lane's end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.fleet import run_fleet
from repro.memsim import CacheStats, PrefetchQueue, ReferencePageCache
from repro.memsim.events import MissEvent
from repro.memsim.fleet import FleetCohort, FleetLaneSpec
from repro.memsim.pagecache import MISS
from repro.memsim.prefetcher import NullPrefetcher
from repro.memsim.simulator import SimConfig, SimResult
from repro.nn.backends import available_backends
from repro.patterns.trace import Trace
from repro.seeding import child_rng

BACKENDS = list(available_backends("sim"))

#: rk_sim's state row: resident count, ring head and tail, misses.
_RESIDENT, _HEAD, _TAIL, _MISSES = 1, 3, 4, 5


class _Script:
    """Seeded predictions that stress the issue path: nothing, the miss
    page and a duplicate, the last miss's pages again (in flight twice
    under a delay), fresh out-of-universe pages and negative ones, a run
    longer than ``max_prefetches_per_miss``, random in-universe pages
    (redundant landings).  Event path only: no ``on_miss_fast``."""

    name = "script"

    def __init__(self, seed: int, top: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._top = top
        self._fresh = 0
        self._last: list[int] = []

    def on_miss(self, event: MissEvent) -> list[int]:
        page = event.page
        kind = int(self._rng.integers(0, 6))
        if kind == 0:
            out: list[int] = []
        elif kind == 1:
            out = [page, page + 1, page + 1]
        elif kind == 2:
            out = list(self._last)
        elif kind == 3:
            self._fresh += 3
            out = [self._top + 1000 + self._fresh + j for j in range(3)]
            out.append(-1 - self._fresh % 5)
        elif kind == 4:
            out = [page + d for d in range(1, 20)]
        else:
            out = self._rng.integers(0, self._top, size=4).tolist()
        self._last = out[:3]
        return out


class _Listed:
    """The ``k``-th miss predicts ``script[k % len(script)]``."""

    name = "listed"

    def __init__(self, script: list[list[int]]) -> None:
        self._script = script
        self._k = 0

    def on_miss(self, event: MissEvent) -> list[int]:
        out = self._script[self._k % len(self._script)]
        self._k += 1
        return list(out)


class _Reference:
    """One lane's scalar replay (``simulate()``'s scalar engine loop on
    ``ReferencePageCache`` + ``PrefetchQueue``), run to any access."""

    def __init__(self, spec: FleetLaneSpec, prefetcher) -> None:
        config = spec.config
        self.config = config
        self.cache = ReferencePageCache(config.resolve_capacity(spec.trace))
        self.queue = PrefetchQueue(
            delay_accesses=config.prefetch_delay_accesses)
        self.pages = spec.trace.pages(config.page_size).tolist()
        self.stores = (spec.trace.kinds != 0).tolist()
        self.addresses = spec.trace.addresses.tolist()
        self.prefetcher = prefetcher
        self.misses: list[int] = []
        self.i = 0
        self.most_landed = 0
        self.in_flight_twice = False

    def run_to(self, stop: int) -> None:
        cache, queue = self.cache, self.queue
        while self.i < stop:
            i = self.i
            landed = queue.landed(i)
            self.most_landed = max(self.most_landed, len(landed))
            for page in landed:
                cache.insert_prefetch(page)
            page, store = self.pages[i], self.stores[i]
            if cache.access(page, store) == MISS:
                cache.fill(page, store)
                self.misses.append(i)
                if not getattr(self.prefetcher, "is_null", False):
                    predictions = self.prefetcher.on_miss(MissEvent(
                        index=i, address=self.addresses[i], page=page,
                        stream_id=0, timestamp=i))
                    limit = self.config.max_prefetches_per_miss
                    for predicted in predictions[:limit]:
                        if predicted != page:
                            queue.issue(int(predicted), i)
                    flying = [entry[2] for entry in queue._queue[queue._head:]]
                    self.in_flight_twice |= len(set(flying)) < len(flying)
            self.i += 1

    def residents(self) -> list[tuple[int, bool, bool]]:
        return [(page, entry[0], entry[1])
                for page, entry in self.cache._resident.items()]

    def in_flight(self) -> list[tuple[int, int]]:
        return [(at, page) for at, _, page
                in self.queue._queue[self.queue._head:]]


def _lane_residents(cohort: FleetCohort, t: int
                    ) -> list[tuple[int, bool, bool]]:
    store = cohort._store
    n = int(store.state[t, _RESIDENT])
    order = np.argsort(store.last_use[t, :n], kind="stable")
    return list(zip(store.page_of_slot[t, order].tolist(),
                    store.undemanded[t, order].tolist(),
                    store.dirty[t, order].tolist()))


def _lane_in_flight(cohort: FleetCohort, t: int, delay: int
                    ) -> list[tuple[int, int]]:
    """The ring's entries, then the issue row the next call issues at
    the last miss (``pos - 1``)."""
    store = cohort._store
    page_of = store.page_of_cid[t]
    mask = store.ring_at.shape[1] - 1
    head, tail = store.state[t, [_HEAD, _TAIL]].tolist()
    ring = [(int(store.ring_at[t, k & mask]),
             int(page_of[store.ring_cid[t, k & mask]]))
            for k in range(head, tail)]
    at = int(cohort._pos[t]) - 1 + delay
    return ring + [(at, int(page_of[cid])) for cid in
                   store.issue[t, :cohort._n_issue[t]].tolist()]


def _assert_lane(cohort: FleetCohort, t: int, ref: _Reference,
                 record: bool) -> None:
    store = cohort._store
    assert (CacheStats(*store.stats[t].tolist()).as_dict()
            == ref.cache.stats.as_dict())
    assert _lane_residents(cohort, t) == ref.residents()
    assert _lane_in_flight(
        cohort, t, ref.config.prefetch_delay_accesses) == ref.in_flight()
    if record:
        n = int(store.state[t, _MISSES])
        assert store.miss_idx[t, :n].tolist() == ref.misses


def _run_checked(specs: list[FleetLaneSpec], refs: list[_Reference],
                 backend: str, record: bool, width: int | None = None
                 ) -> FleetCohort | None:
    """Drain the lanes through a cohort of ``width`` slots (a freed slot
    is refilled with the next lane), each lane checked against its
    reference after every round.  On ``numpy``, which has no cohort
    (``None`` is returned), each ``run_fleet`` lane is checked at its
    end."""
    if backend == "numpy":
        report = run_fleet(specs, backend=backend,
                           record_miss_indices=record)
        assert report.n_cohorts == 0
        for ref, outcome in zip(refs, report.outcomes):
            ref.run_to(len(ref.pages))
            result = outcome.result
            assert result.stats.as_dict() == ref.cache.stats.as_dict()
            assert result.miss_indices == (ref.misses if record else [])
        return None
    cohort = FleetCohort.for_specs(specs, width=width, backend=backend,
                                   record_miss_indices=record)
    pending = list(range(len(specs) - 1, -1, -1))
    lane_of: dict[int, int] = {}

    def refill(slots: list[int]) -> None:
        batch = slots[:len(pending)]
        lane_of.update((slot, pending.pop()) for slot in batch)
        cohort.load_many(batch, [specs[lane_of[slot]] for slot in batch])

    refill(cohort.free_slots())
    while cohort.active_count():
        active = np.flatnonzero(cohort._active).tolist()
        finished = cohort.step()
        for t in active:
            ref = refs[lane_of[t]]
            ref.run_to(int(cohort._pos[t]))
            if t in finished:
                result: SimResult = cohort.harvest(t)
                assert result.stats.as_dict() == ref.cache.stats.as_dict()
                assert result.miss_indices == (ref.misses if record else [])
            else:
                _assert_lane(cohort, t, ref, record)
        refill(finished)
    assert not pending
    return cohort


def _trace(rng: np.random.Generator, n: int, top: int, name: str) -> Trace:
    """Neighbouring pages with random jumps over ``top`` pages, half of
    the accesses stores."""
    pages = (np.cumsum(rng.integers(-2, 4, size=n))
             + rng.integers(0, 3, size=n) * (top // 3)) % top
    return Trace(name=name, addresses=pages.astype(np.int64) * 4096,
                 kinds=rng.integers(0, 2, size=n),
                 metadata={"seed": 0})


#: (capacity, delay, max_prefetches_per_miss) of the fuzz's lanes.
_LANES = ((1, 0, 64), (3, 1, 12), (8, 4, 64), (5, 40, 12), (16, 0, 3),
          (2, 7, 0), (6, 2, 64))


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stream", range(3))
def test_fuzz_lane_steps_match_reference(stream: int, backend: str,
                                         record: bool,
                                         width: int | None) -> None:
    """Eight lanes, all in the cohort at once or drained through three
    slots (a refilled slot starts like a fresh cache)."""
    rng = child_rng(20490, stream)
    specs, refs = [], []
    for t, (capacity, delay, limit) in enumerate(_LANES + ((4, 3, 64),)):
        top = int(rng.integers(10, 60))
        trace = _trace(rng, int(rng.integers(150, 400)), top, f"lane{t}")
        config = SimConfig(capacity_pages=capacity,
                           prefetch_delay_accesses=delay,
                           max_prefetches_per_miss=limit)
        null = t == len(_LANES)  # the last lane: a null one
        seed = stream * 100 + t
        specs.append(FleetLaneSpec(
            trace=trace, config=config,
            prefetcher=NullPrefetcher() if null else _Script(seed, top)))
        refs.append(_Reference(specs[-1], NullPrefetcher() if null
                               else _Script(seed, top)))
    cohort = _run_checked(specs, refs, backend, record, width)
    # The edges were reached: the ring grew, cid rows widened, several
    # landings fell due at one access, a page was in flight twice.
    if cohort is not None:
        assert cohort._store.ring_at.shape[1] > 8
        assert cohort._store.soc.shape[1] > max(
            len(spec.trace.page_index()[0]) for spec in specs)
    assert max(ref.most_landed for ref in refs) > 1
    assert any(ref.in_flight_twice for ref in refs)
    assert sum(ref.cache.stats.writebacks for ref in refs) > 0


@settings(max_examples=40, deadline=None)
@given(pages=st.lists(st.tuples(st.integers(0, 11), st.booleans()),
                      min_size=1, max_size=80),
       script=st.lists(st.lists(st.integers(-3, 20), max_size=6),
                       min_size=1, max_size=8),
       capacity=st.integers(1, 6), delay=st.integers(0, 5))
def test_hypothesis_lane_matches_reference(
        pages: list[tuple[int, bool]], script: list[list[int]],
        capacity: int, delay: int) -> None:
    """A drawn lane between two busy neighbours stays equal to its
    reference after every round, on every backend."""
    trace = Trace(name="drawn",
                  addresses=np.array([p for p, _ in pages]) * 4096,
                  kinds=np.array([s for _, s in pages], dtype=np.int64),
                  metadata={"seed": 0})
    rng = np.random.default_rng(len(pages))
    noisy = _trace(rng, 120, 16, "noisy")
    configs = (SimConfig(capacity_pages=4, prefetch_delay_accesses=2),
               SimConfig(capacity_pages=capacity,
                         prefetch_delay_accesses=delay),
               SimConfig(capacity_pages=2))
    for backend in BACKENDS:
        lanes = [(noisy, _Script(1, 16), _Script(1, 16)),
                 (trace, _Listed(script), _Listed(script)),
                 (noisy, _Script(2, 16), _Script(2, 16))]
        specs = [FleetLaneSpec(trace=tr, prefetcher=mine, config=config)
                 for (tr, mine, _), config in zip(lanes, configs)]
        refs = [_Reference(spec, theirs)
                for spec, (_, _, theirs) in zip(specs, lanes)]
        _run_checked(specs, refs, backend, record=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_out_of_universe_page_lands_again_after_a_demand_eviction(
        backend: str) -> None:
    """An extension cid is the page's name for the lane's life: the page
    lands (displacing the dirty demand page), a demand fill evicts it
    unused, it lands again (not redundant) and a third time in the same
    access (redundant)."""
    outside = 1000
    trace = Trace(name="outside", addresses=np.array([0, 1, 1]) * 4096,
                  kinds=np.array([1, 0, 0]), metadata={"seed": 0})
    script = [[outside], [outside, outside], []]
    spec = FleetLaneSpec(trace=trace, prefetcher=_Listed(script),
                         config=SimConfig(capacity_pages=1))
    ref = _Reference(spec, _Listed(script))
    cohort = _run_checked([spec], [ref], backend, record=True)
    stats = ref.cache.stats
    assert (stats.prefetches_issued, stats.prefetches_redundant,
            stats.prefetches_evicted_unused, stats.writebacks,
            stats.demand_evictions_by_prefetch) == (3, 1, 2, 1, 2)
    # The lane's one extension cid, from its universe size up.
    if cohort is not None:
        assert cohort._store._ext_of[0] == {outside: 2}
