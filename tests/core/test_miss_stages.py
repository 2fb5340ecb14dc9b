"""The per-miss stages, driven by each of their three schedulers.

``CLSPrefetcher`` defines the miss pipeline once, as stage methods
(DESIGN.md §5); ``on_miss_fast`` composes them in scalar order,
``CLSFleetGroup`` mirrors them as array programs around stacked kernels
and serve's ``TenantLane`` calls them across two actors.  The older differential suites only
ever send default configs down the stacked and serving paths; this one
sends the config families with stage-specific state — recall memory,
both selectivity gates, a hinted phase, a training policy that skips —
through all three and holds them to the same bits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.fleet import FleetLaneSpec, run_cohort
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.backends import available_backends, backend_available
from repro.nn.hebbian import HebbianConfig
from repro.patterns import PatternSpec, generate
from repro.patterns.phases import Phase, build_phased_trace
from repro.seeding import spawn_seeds
from repro.serve import PrefetchService, ServeConfig, replay_lockstep
from repro.serve.clock import VirtualClock

VOCAB = 64
HINT = 5

#: A case that builds a cohort.
needs_c = pytest.mark.skipif(not backend_available("c"),
                             reason="a fleet cohort needs the C backend")

#: family -> config overrides ("hinted-phase" also calls ``hint_phase``).
FAMILIES: dict[str, dict] = {
    "recall": dict(recall=True, recall_max_confidence=0.9),
    "gates": dict(min_accuracy=0.05, min_confidence=0.02,
                  prefetch_length=2, prefetch_width=2),
    "hinted-phase": dict(replay_per_step=2, phase_detection=False),
    "confidence-training": dict(training="confidence",
                                training_kwargs={"skip_above": 0.3}),
}


def _prefetcher(family: str, **overrides) -> CLSPrefetcher:
    config = CLSPrefetcherConfig(
        vocab_size=VOCAB, hebbian=HebbianConfig(vocab_size=VOCAB, seed=7),
        seed=7, **{**FAMILIES[family], **overrides})
    prefetcher = CLSPrefetcher(config)
    if family == "hinted-phase":
        prefetcher.hint_phase(HINT)
    return prefetcher


def _misses(n: int = 400) -> list[tuple[int, int]]:
    """(address, timestamp) of a two-phase stream: a cyclic chase, then
    a stride over fresh pages, then the chase again."""
    chase = [4096 * ((7 * i) % 23) for i in range(n // 2)]
    stride = [4096 * (100 + i) for i in range(n // 4)]
    addresses = chase + stride + chase[:n // 4]
    return [(address, 10 * i) for i, address in enumerate(addresses)]


def _by_hand(p: CLSPrefetcher, address: int, page: int, ts: int) -> list[int]:
    """One miss through the stages, in the scalar order of DESIGN.md §5."""
    seen = p.observe(address, ts)
    if seen is None:
        return []
    p.remember(seen)
    if p.manager is None:
        probs = p.model.step(seen.class_id, train=seen.train)
        if seen.train:
            p.replay(seen, p.model)
    else:
        if seen.train:
            p.train(seen)
        if p.redeploy_due(seen.class_id):
            p.redeploy()
        probs = p.manager.live.step(seen.class_id, train=False)
    p.advance(seen, probs)
    if p.gated():
        return []
    return p.decode(address, page, p.rollout())


def _assert_same_lane(got: CLSPrefetcher, want: CLSPrefetcher,
                      extra_gated: int = 0) -> None:
    want_stats = dataclasses.replace(
        want.stats, suppressed_low_confidence=(
            want.stats.suppressed_low_confidence + extra_gated))
    assert dataclasses.asdict(got.stats) == dataclasses.asdict(want_stats)
    assert got.accuracy_ema == want.accuracy_ema
    assert got.recall_stats == want.recall_stats
    if want.manager is None:
        assert np.array_equal(got.model.w_out, want.model.w_out)
    else:
        assert got.manager is not None
        assert got.manager.confidence_ema == want.manager.confidence_ema
        for side in ("live", "shadow"):
            assert np.array_equal(getattr(got.manager, side).w_out,
                                  getattr(want.manager, side).w_out)


def assert_released_like(got: CLSPrefetcher, want: CLSPrefetcher) -> None:
    """Release fidelity: ``got`` left a cohort holding everything its
    ``simulate()`` twin ``want`` holds — not only the outcome
    (:func:`_assert_same_lane`) but every piece of per-miss state a later
    miss would read."""
    _assert_same_lane(got, want)
    assert got._prev_class == want._prev_class
    assert (got._last_probs is None) == (want._last_probs is None)
    if want._last_probs is not None:
        assert np.array_equal(got._last_probs, want._last_probs)
    # The encoder's vocabulary and stream position (dataclass equality).
    assert got.encoder == want.encoder
    for side in ("considered", "trained"):
        assert (getattr(got.training_policy, side)
                == getattr(want.training_policy, side))
    if want.scheduler is not None:
        assert got.scheduler is not None
        # The same logical position of the replay stream: each side's
        # generator, synced past the raws its draws read.
        assert (got.scheduler.draws.sync().bit_generator.state
                == want.scheduler.draws.sync().bit_generator.state)
        assert got.scheduler.invocations == want.scheduler.invocations
        assert got.scheduler.replayed_total == want.scheduler.replayed_total
        store = getattr(want.scheduler.policy, "store", None)
        if store is not None:
            mine = got.scheduler.policy.store
            assert mine.episodes() == store.episodes()
            assert mine.ep_count == store.ep_count
            assert mine.stored_total == store.stored_total
            assert mine.evicted_total == store.evicted_total
    if want.phase_detector is not None:
        mine, theirs = got.phase_detector, want.phase_detector
        assert mine.current_phase == theirs.current_phase
        assert mine.transitions == theirs.transitions
        assert list(mine._recent) == list(theirs._recent)
        assert len(mine._centroids) == len(theirs._centroids)
        for a, b in zip(mine._centroids, theirs._centroids):
            assert np.array_equal(a, b)


#: replay policy (+ kwargs) of the lanes of the release-fidelity cohort:
#: an unbounded store, a ring small enough to evict (and to end up
#: holding nothing but the excluded phase), a confidence-filtered store.
STORES = [("full", {}), ("ring", {"capacity": 24}),
          ("confidence", {"confidence_threshold": 0.2})]


def _replaying_prefetcher(lane: int) -> CLSPrefetcher:
    policy, kwargs = STORES[lane % len(STORES)]
    return CLSPrefetcher(CLSPrefetcherConfig(
        vocab_size=VOCAB, hebbian=HebbianConfig(vocab_size=VOCAB, seed=7),
        seed=100 + lane, replay_policy=policy, replay_kwargs=kwargs,
        replay_per_step=2, prefetch_width=2, prefetch_length=2,
        min_accuracy=0.05 if lane % 2 else 0.3))


@needs_c
def test_release_hands_back_what_simulate_leaves() -> None:
    """A cohort of lanes on the lane-state arrays, with every
    array-side stage in play: two replayed pairs a step, phases from the
    detector (so replay excludes, and the small ring ends up all
    excluded), an evicting ring, a filtered store, both gates."""
    config = SimConfig(memory_fraction=0.5)
    lanes = 27
    traces = [build_phased_trace(
        [Phase("pointer_chase", 260 + 10 * (lane % 5)), Phase("stride", 220),
         Phase("pointer_chase", 200)],
        PatternSpec(working_set=50, element_size=4096), seed=lane).trace
        for lane in range(lanes)]
    specs = [FleetLaneSpec(trace=trace, prefetcher=_replaying_prefetcher(lane),
                           config=config)
             for lane, trace in enumerate(traces)]
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    phases: set[int] = set()
    evicted = gated = partial = 0
    for lane, (spec, got) in enumerate(zip(specs, results)):
        reference = _replaying_prefetcher(lane)
        want = simulate(spec.trace, reference, config=config,
                        backend="numpy", record_miss_indices=True)
        assert got.stats.as_dict() == want.stats.as_dict(), lane
        assert got.miss_indices == want.miss_indices, lane
        assert_released_like(spec.prefetcher, reference)
        store = reference.scheduler.policy.store
        phases.update(e.phase_id for e in store.episodes())
        evicted += store.evicted_total
        gated += reference.stats.suppressed_low_confidence
        # Fewer pairs than 2 per invocation: rejections ran out of draws.
        partial += (2 * reference.scheduler.invocations
                    - reference.scheduler.replayed_total)
        assert reference.stats.replayed_pairs > 0
    assert {0, 1} <= phases and evicted > 0 and gated > 0 and partial > 0


@pytest.mark.parametrize("availability", [False, True],
                         ids=["plain", "availability"])
@pytest.mark.parametrize("family", FAMILIES)
def test_stages_by_hand_equal_on_miss_fast(family: str,
                                           availability: bool) -> None:
    composed = _prefetcher(family, availability=availability)
    by_hand = _prefetcher(family, availability=availability)
    misses = _misses()
    for i, (address, ts) in enumerate(misses):
        if family == "hinted-phase" and i == len(misses) // 2:
            composed.hint_phase(HINT + 1)
            by_hand.hint_phase(HINT + 1)
        page = address >> 12
        assert (_by_hand(by_hand, address, page, ts)
                == composed.on_miss_fast(i, address, page, 0, ts))
    _assert_same_lane(by_hand, composed)

    # Each family's stage-specific state was actually in play.
    stats = composed.stats
    assert stats.trained_steps > 0 and stats.prefetches_emitted > 0
    if family == "recall":
        assert composed.recall_stats.answered > 0
    elif family == "gates":
        assert stats.suppressed_low_confidence > 0
    elif family == "hinted-phase":
        assert stats.replayed_pairs > 0
        assert {e.phase_id for e in
                composed.scheduler.policy.store.episodes()} == {HINT, HINT + 1}
    else:
        policy = composed.training_policy
        assert 0 < policy.trained < policy.considered
    if availability:
        assert stats.redeploys > 0


@needs_c
@pytest.mark.parametrize("backend", list(available_backends("sim")))
def test_cohort_round_schedules_the_same_stages(backend: str) -> None:
    """Every family as one lane of a single cohort on c.  The three the
    lane-state arrays model share a model config but differ in stage
    settings, so each is a fleet group of one lane (a group holds one
    configuration; the recall lane keeps its own callback) — and each
    equals its own ``simulate()`` on ``backend``."""
    config = SimConfig(memory_fraction=0.5)
    traces = [generate(pattern, PatternSpec(n=900, working_set=60,
                                            element_size=4096, seed=seed))
              for seed, pattern in enumerate(
                  ("pointer_chase", "stride", "indirect_index",
                   "pointer_offset"))]
    specs = [FleetLaneSpec(trace=trace, prefetcher=_prefetcher(family),
                           config=config)
             for trace, family in zip(traces, FAMILIES)]
    assert [CLSFleetGroup.admits(spec.prefetcher) for spec in specs] \
        == [family != "recall" for family in FAMILIES]
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    for spec, family, got in zip(specs, FAMILIES, results):
        reference = _prefetcher(family)
        want = simulate(spec.trace, reference, config=config,
                        backend=backend, record_miss_indices=True)
        assert got.stats.as_dict() == want.stats.as_dict(), family
        assert got.miss_indices == want.miss_indices, family
        _assert_same_lane(spec.prefetcher, reference)


@pytest.mark.parametrize("stacked", [True, False],
                         ids=["stacked", "scalar"])
@pytest.mark.parametrize("family", ["gates", "confidence-training"])
def test_lockstep_daemon_schedules_the_same_stages(family: str,
                                                   stacked: bool) -> None:
    """The families a ``ServeConfig`` can express, through the daemon."""
    servable = {key: value for key, value in FAMILIES[family].items()
                if key != "training_kwargs"}
    tenants = 2
    streams = [_misses(300), [(a + 4096 * 3, ts) for a, ts in _misses(300)]]
    events = [(tenant, *streams[tenant][i])
              for i in range(300) for tenant in range(tenants)]
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, replay_policy="full", stacked=stacked,
                    max_staleness=32, seed=7, **servable),
        clock=VirtualClock())
    online = replay_lockstep(service, events)

    seeds = spawn_seeds(7, 8)
    defaults = {"prefetch_length": 2, "prefetch_width": 2}
    offline: list[list[int]] = []
    refs = []
    for tenant in range(tenants):
        ref = CLSPrefetcher(CLSPrefetcherConfig(
            vocab_size=VOCAB, hebbian=HebbianConfig(vocab_size=VOCAB, seed=7),
            availability=True, phase_detection=False, seed=seeds[tenant],
            **{**defaults, **servable}))
        assert ref.manager is not None
        ref.manager.max_staleness = 32
        refs.append(ref)
    for tenant, address, ts in events:
        offline.append(refs[tenant].on_miss_fast(0, address, address >> 12,
                                                 0, ts))
    assert online == offline
    for tenant, ref in enumerate(refs):
        lane = service.lane(tenant)
        # A query is its own event in the daemon: the one after the first
        # miss (no class yet, so offline returns early) still meets the gate.
        _assert_same_lane(lane.prefetcher, ref,
                          extra_gated=int(family == "gates"))
        assert lane.manager.redeploys == ref.stats.redeploys > 0
