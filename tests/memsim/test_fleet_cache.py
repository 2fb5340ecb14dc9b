"""Fuzz-pins the (tenant, slot) FleetPageCache against the reference.

Every lane of :class:`repro.memsim.fleet_cache.FleetPageCache` must be
observationally identical to an independent
:class:`repro.memsim.ReferencePageCache`: same residency order and every
``CacheStats`` counter equal after every operation — under arbitrary
cross-lane interleavings (lanes share the victim-queue matrices and the
batched refill path, so interleaving is exactly what could break
isolation).

The cache is driven only through the entry points the cohort calls —
``attach_lanes``, ``hit_walk``, ``fill_step``, ``cids_of`` and ``land``
— and read back through ``lanes_stats``, ``resident_pages`` and
``n_resident``.  A demand access is the cohort's protocol: a hit walk,
then a ``fill_step`` for the lanes the walk stopped at.  So is a step's
landings: every page is named by ``cids_of`` when it is issued, then
round ``j`` lands the ``j``-th page of every lane that has one, one
``land`` call per round.  Hypothesis sweeps drive randomized op
sequences and landing rounds through a lane wedged between two noisy
neighbors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import CacheStats, ReferencePageCache
from repro.memsim.fleet_cache import FleetPageCache
from repro.memsim.pagecache import MISS
from repro.seeding import child_rng

#: Tight page universe relative to capacity so evictions, redundant
#: prefetches and prefetch hits occur constantly (as in the single-tenant
#: fuzz suite).  Universe ids are the pages themselves.
N_PAGES = 24
#: Prefetches draw from a wider range so out-of-universe pages
#: (speculative prefetches, named by extension cids) are exercised too.
N_PREFETCH_PAGES = N_PAGES + 8
CAPACITIES = (8, 3, 8, 5, 1)
N_OPS = 1_500
CID_OF = {page: page for page in range(N_PAGES)}


def _counters(stats: CacheStats) -> dict:
    return stats.as_dict()


def _attach(fleet: FleetPageCache, lanes: list[int],
            capacities: list[int]) -> None:
    fleet.attach_lanes(np.array(lanes, dtype=np.int64),
                       np.array(capacities, dtype=np.int64),
                       np.full(len(lanes), N_PAGES, dtype=np.int64),
                       [CID_OF] * len(lanes))


def _make_fleet() -> tuple[FleetPageCache, list[ReferencePageCache]]:
    fleet = FleetPageCache(len(CAPACITIES), slot_capacity=max(CAPACITIES),
                          universe_capacity=N_PAGES)
    _attach(fleet, list(range(len(CAPACITIES))), list(CAPACITIES))
    return fleet, [ReferencePageCache(cap) for cap in CAPACITIES]


def _demand(fleet: FleetPageCache, lanes: list[int], pages: list[int],
            stores: list[bool]) -> list[bool]:
    """One demand access per lane, as a cohort round resolves it: one hit
    walk over every lane's next access, then one ``fill_step`` for the
    lanes it stopped at.  Returns which accesses hit."""
    lane_arr = np.array(lanes, dtype=np.int64)
    cids2d = np.array(pages, dtype=np.int64)[:, None]
    stores2d = np.array(stores, dtype=bool)[:, None]
    trace_row = np.zeros(fleet.n_lanes, dtype=np.int64)
    trace_row[lane_arr] = np.arange(len(lanes))
    pos = np.zeros(fleet.n_lanes, dtype=np.int64)
    limit = np.ones(fleet.n_lanes, dtype=np.int64)
    fleet.hit_walk(lane_arr, cids2d, stores2d, pos, limit, trace_row)
    hit = pos[lane_arr] == 1
    if not hit.all():
        missed = ~hit
        fleet.fill_step(lane_arr[missed], cids2d[missed, 0],
                        cids2d[missed, 0], stores2d[missed, 0])
    return hit.tolist()


def _land_rounds(fleet: FleetPageCache, landings: list[tuple[int, int]],
                 refs: dict[int, ReferencePageCache],
                 check: bool = True) -> None:
    """Land ``landings`` — ``(lane, page)`` in issue order — as a cohort
    step does: the pages named at issue, then one ``land`` call per
    round, round ``j`` taking the ``j``-th page of every lane that has
    one.  Each lane's reference takes its pages one at a time; with
    ``check``, every lane is compared after every round."""
    if not landings:
        return
    lanes = np.array([lane for lane, _ in landings], dtype=np.int64)
    pages = np.array([page for _, page in landings], dtype=np.int64)
    cids = fleet.cids_of(lanes, pages)
    queues: dict[int, list[tuple[int, int]]] = {}
    for lane, cid, page in zip(lanes.tolist(), cids.tolist(),
                               pages.tolist()):
        queues.setdefault(lane, []).append((cid, page))
    for j in range(max(map(len, queues.values()))):
        due = [(lane, queue[j]) for lane, queue in queues.items()
               if j < len(queue)]
        fleet.land(np.array([lane for lane, _ in due], dtype=np.int64),
                   np.array([entry[0] for _, entry in due], dtype=np.int64),
                   np.array([entry[1] for _, entry in due], dtype=np.int64))
        for lane, (_, page) in due:
            refs[lane].insert_prefetch(page)
        if check:
            for lane, ref in refs.items():
                _assert_lane_matches(fleet, lane, ref)


def _reference_demand(ref: ReferencePageCache, page: int,
                      store: bool) -> bool:
    if ref.access(page, store) == MISS:
        ref.fill(page, store)
        return False
    return True


def _random_op(rng: np.random.Generator, fleet: FleetPageCache, lane: int,
               ref: ReferencePageCache) -> None:
    if int(rng.integers(0, 3)):  # demand access (walk, fill on a miss)
        page = int(rng.integers(0, N_PAGES))
        store = bool(rng.integers(0, 2))
        assert (_demand(fleet, [lane], [page], [store])
                == [_reference_demand(ref, page, store)])
    else:  # landing, possibly out-of-universe (an extension cid)
        page = int(rng.integers(0, N_PREFETCH_PAGES))
        _land_rounds(fleet, [(lane, page)], {lane: ref}, check=False)


def _assert_lane_matches(fleet: FleetPageCache, lane: int,
                         ref: ReferencePageCache) -> None:
    (stats,) = fleet.lanes_stats(np.array([lane], dtype=np.int64))
    assert _counters(stats) == _counters(ref.stats)
    assert fleet.resident_pages(lane) == ref.resident_pages()
    assert int(fleet.n_resident[lane]) == len(ref)


@pytest.mark.parametrize("stream", range(6))
def test_fuzz_interleaved_scalar_ops_match_reference(stream: int) -> None:
    """One lane's operation at a time, lanes picked at random."""
    rng = child_rng(20480, stream)
    fleet, refs = _make_fleet()
    for _ in range(N_OPS):
        lane = int(rng.integers(0, len(CAPACITIES)))
        _random_op(rng, fleet, lane, refs[lane])
        _assert_lane_matches(fleet, lane, refs[lane])
    for lane, ref in enumerate(refs):
        _assert_lane_matches(fleet, lane, ref)


@pytest.mark.parametrize("stream", range(4))
def test_fuzz_vectorized_steps_match_reference(stream: int) -> None:
    """hit_walk / fill_step vs per-access scalar replay on the reference.

    Each round mirrors the fleet engine: walk every lane through its hit
    run (limit = stream length), then resolve the stalled lanes' misses
    with one ``fill_step``.  Prefetch inserts between rounds put
    undemanded pages in front of the walk and pollution in front of the
    batched evictions.
    """
    rng = child_rng(20481, stream)
    n_lanes = len(CAPACITIES)
    length = 400
    fleet, refs = _make_fleet()
    cids2d = rng.integers(0, N_PAGES, size=(n_lanes, length)).astype(np.int64)
    stores2d = rng.integers(0, 2, size=(n_lanes, length)).astype(bool)
    pos = np.zeros(n_lanes, dtype=np.int64)
    limit = np.full(n_lanes, length, dtype=np.int64)
    ref_pos = [0] * n_lanes
    while True:
        active = np.flatnonzero(pos < limit)
        if active.size == 0:
            break
        if int(rng.integers(0, 3)) == 0:  # prefetch noise between rounds
            lane = int(active[rng.integers(0, active.size)])
            page = int(rng.integers(0, N_PREFETCH_PAGES))
            _land_rounds(fleet, [(lane, page)], {lane: refs[lane]})
        fleet.hit_walk(active, cids2d, stores2d, pos, limit)
        # Reference replay of the same hit runs, per access.
        for lane in active.tolist():
            ref = refs[lane]
            while ref_pos[lane] < int(pos[lane]):
                i = ref_pos[lane]
                outcome = ref.access(int(cids2d[lane, i]),
                                     bool(stores2d[lane, i]))
                assert outcome != MISS
                ref_pos[lane] += 1
            _assert_lane_matches(fleet, lane, ref)
        miss_lanes = active[pos[active] < limit[active]]
        if miss_lanes.size:
            p = pos[miss_lanes]
            cids = cids2d[miss_lanes, p]
            stores = stores2d[miss_lanes, p]
            fleet.fill_step(miss_lanes, cids, cids, stores)
            pos[miss_lanes] = p + 1
            for lane, page, store in zip(miss_lanes.tolist(), cids.tolist(),
                                         stores.tolist()):
                ref = refs[lane]
                assert ref.access(int(page), bool(store)) == MISS
                ref.fill(int(page), bool(store))
                ref_pos[lane] += 1
                _assert_lane_matches(fleet, lane, ref)
    for lane, ref in enumerate(refs):
        _assert_lane_matches(fleet, lane, ref)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, N_PAGES + 3),
                              st.booleans()),
                    min_size=1, max_size=120),
       capacity=st.integers(1, 6))
def test_hypothesis_lane_matches_reference(
        ops: list[tuple[bool, int, bool]], capacity: int) -> None:
    """A lane wedged between two busy neighbors stays bit-identical.

    Lane 0 demands a page in the same walk and fill as lane 1's demands;
    lane 2 takes a landing before every op of lane 1, and lands in the
    same round as lane 1's landings."""
    fleet = FleetPageCache(3, slot_capacity=8, universe_capacity=N_PAGES)
    _attach(fleet, [0, 1, 2], [8, capacity, 4])
    ref = ReferencePageCache(capacity)
    noisy = ReferencePageCache(4)
    for noise, (landing, page, store) in enumerate(ops):
        # Neighbor churn on lanes 0 and 2: must not leak into lane 1.
        _land_rounds(fleet, [(2, noise % (N_PAGES + 3))], {2: noisy},
                     check=False)
        if landing:
            _demand(fleet, [0], [noise % N_PAGES], [bool(noise % 2)])
            _land_rounds(fleet, [(2, noise % N_PAGES), (1, page)],
                         {1: ref, 2: noisy}, check=False)
        else:
            page %= N_PAGES
            hits = _demand(fleet, [0, 1], [noise % N_PAGES, page],
                           [bool(noise % 2), store])
            assert hits[1] == _reference_demand(ref, page, store)
        _assert_lane_matches(fleet, 1, ref)
        _assert_lane_matches(fleet, 2, noisy)


#: Pages of the landing rounds: a few in the universe (so landings are
#: redundant and demand pages are evicted by them) and a few outside it.
_ROUND_PAGES = [0, 1, 2, 3, 4, N_PAGES, N_PAGES + 1, N_PAGES + 2]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(
    st.tuples(
        # This step's landings, (lane, page index) in issue order:
        # several per lane, duplicates included.
        st.lists(st.tuples(st.integers(0, 2),
                           st.integers(0, len(_ROUND_PAGES) - 1)),
                 max_size=9),
        # Then at most one demand access per lane (stores dirty pages).
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                           st.booleans()),
                 max_size=3, unique_by=lambda op: op[0])),
    min_size=1, max_size=30),
    capacity=st.integers(1, 3))
def test_hypothesis_landing_rounds_match_reference(
        steps: list[tuple[list[tuple[int, int]],
                          list[tuple[int, int, bool]]]],
        capacity: int) -> None:
    """Steps of landing rounds and demand accesses on a lane of
    ``capacity`` between a capacity-1 lane and a capacity-3 one, every
    lane against its reference after every round: several landings per
    lane and step (a lane's duplicates land in separate rounds, the
    second redundant), out-of-universe pages that are evicted and land
    again, evictions of dirty pages and of unused prefetches."""
    fleet = FleetPageCache(3, slot_capacity=3, universe_capacity=N_PAGES)
    _attach(fleet, [0, 1, 2], [1, capacity, 3])
    refs = {0: ReferencePageCache(1), 1: ReferencePageCache(capacity),
            2: ReferencePageCache(3)}
    for landings, demands in steps:
        _land_rounds(fleet, [(lane, _ROUND_PAGES[k]) for lane, k in landings],
                     refs)
        if demands:
            hits = _demand(fleet, [lane for lane, _, _ in demands],
                           [page for _, page, _ in demands],
                           [store for _, _, store in demands])
            for hit, (lane, page, store) in zip(hits, demands):
                assert hit == _reference_demand(refs[lane], page, store)
        for lane, ref in refs.items():
            _assert_lane_matches(fleet, lane, ref)


def test_an_out_of_universe_page_lands_again_after_a_demand_eviction(
        ) -> None:
    """An extension cid is the page's name for the lane's life: the page
    lands, a demand fill evicts it, it lands again (not redundant), and
    lands a third time in the same step (redundant)."""
    fleet = FleetPageCache(2, slot_capacity=2, universe_capacity=N_PAGES)
    _attach(fleet, [0, 1], [1, 2])
    refs = {0: ReferencePageCache(1), 1: ReferencePageCache(2)}
    outside = N_PAGES + 5
    _land_rounds(fleet, [(0, outside), (1, outside)], refs)
    assert _demand(fleet, [0], [3], [True]) == [
        _reference_demand(refs[0], 3, True)]
    _land_rounds(fleet, [(0, outside), (0, outside), (1, 3)], refs)
    (stats,) = fleet.lanes_stats(np.array([0], dtype=np.int64))
    assert (stats.prefetches_issued, stats.prefetches_redundant,
            stats.prefetches_evicted_unused, stats.writebacks,
            stats.demand_evictions_by_prefetch) == (3, 1, 1, 1, 1)
    assert fleet.resident_pages(0) == [outside]
    # The lane's one extension cid, from its universe size up.
    assert fleet.cids_of(np.array([0, 1]), np.array([outside, outside])
                         ).tolist() == [N_PAGES, N_PAGES]
    assert fleet.soc.shape[1] > N_PAGES


def test_reset_lane_reuses_slot_cleanly() -> None:
    """Drain-and-refill: a re-attached lane behaves like a fresh cache."""
    fleet, refs = _make_fleet()
    rng = child_rng(20482, 0)
    for _ in range(300):
        lane = int(rng.integers(0, len(CAPACITIES)))
        _random_op(rng, fleet, lane, refs[lane])
    _attach(fleet, [2], [4])
    ref = ReferencePageCache(4)
    for _ in range(300):
        _random_op(rng, fleet, 2, ref)
        _assert_lane_matches(fleet, 2, ref)
    # The untouched neighbors kept their state across the refill.
    _assert_lane_matches(fleet, 0, refs[0])
    _assert_lane_matches(fleet, 1, refs[1])


def test_attach_lane_validates_dimensions() -> None:
    fleet = FleetPageCache(2, slot_capacity=4, universe_capacity=8)
    lanes = np.array([0], dtype=np.int64)
    for capacity, universe in ((5, 8), (0, 8), (4, 9)):
        with pytest.raises(ValueError):
            fleet.attach_lanes(lanes, np.array([capacity], dtype=np.int64),
                               np.array([universe], dtype=np.int64), [{}])
    with pytest.raises(ValueError):
        FleetPageCache(0, 1, 1)
