"""``CLSFleetGroup`` driven directly, round by round.

The cohort suites reach the group through ``FleetCohort``; this one
calls ``adopt`` / ``handle_misses`` / ``release`` itself, so it can pick
every round's width — none, one, two, 64 lanes split over their groups —
and the moments lanes
join and leave.  The oracle is always a twin prefetcher fed the same
misses through ``on_miss_fast``.  A group holds one configuration
(``CLSFleetGroup.group_key``), so lanes of different configurations are
different groups here too.  A group runs on the C backend alone, so the
suite skips without it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.classic import StridePrefetcher
from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.core.encoding import DeltaVocabEncoder
from repro.core.phase_detect import OnlinePhaseDetector
from repro.memsim.fleet import FleetCohort, FleetLaneSpec, run_cohort
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.backends import available_backends, backend_available
from repro.nn.hebbian import HebbianConfig
from repro.patterns import PatternSpec, Trace, generate
from repro.patterns.phases import Phase, build_phased_trace
from tests.core.test_miss_stages import assert_released_like

pytestmark = pytest.mark.skipif(not backend_available("c"),
                                reason="a fleet group needs the C backend")

VOCAB = 48

#: Lanes of a test (four a variant), where it has no width of its own
#: to pick.
LANES = 24

#: Per-lane variety across a test's lanes: replay policy, replay rate,
#: rollout shape, gate.  Each variant is a configuration of its own, so
#: a fleet group of its own (``CLSFleetGroup.group_key``); lanes of one
#: variant differ only in ``seed``.
VARIANTS: list[dict] = [
    dict(),
    dict(replay_per_step=2, prefetch_width=2, prefetch_length=2),
    dict(replay_policy="ring", replay_kwargs={"capacity": 20},
         min_accuracy=0.2),
    dict(replay_policy="confidence",
         replay_kwargs={"confidence_threshold": 0.3}, prefetch_width=3),
    dict(replay_policy=None, phase_detection=False),
    dict(training="every_k", training_kwargs={"k": 3}, replay_per_step=3),
]


def _prefetcher(lane: int, **overrides) -> CLSPrefetcher:
    hebbian = overrides.pop("hebbian", HebbianConfig(vocab_size=VOCAB, seed=3))
    return CLSPrefetcher(CLSPrefetcherConfig(
        vocab_size=VOCAB, hebbian=hebbian,
        seed=50 + lane, **{**VARIANTS[lane % len(VARIANTS)], **overrides}))


def _stream(lane: int, n: int = 260) -> list[tuple[int, int, int]]:
    """(address, page, timestamp) misses: a cyclic chase in one 16 MiB
    region, a stride in another, the chase again — two detector phases
    (a signature window is 64 misses)."""
    mod = 17 + lane % 7
    chase = [4096 * ((5 * i + lane) % mod) for i in range(n // 2)]
    stride = [(1 << 24) + 4096 * (i + lane) for i in range(n // 4)]
    addresses = chase + stride + chase[:n - len(chase) - len(stride)]
    return [(a, a >> 12, 10 * i + lane) for i, a in enumerate(addresses)]


def _targets(p: CLSPrefetcher) -> set[int]:
    """The classes of a lane's stream after its first: the targets of its
    episodes (a ``full`` store keeps every transition)."""
    return {e.target_class for e in p.scheduler.policy.store.episodes()}


Member = tuple[int, CLSPrefetcher, CLSPrefetcher, CLSFleetGroup]


class Lanes:
    """Group members next to their scalar twins, checked miss by miss;
    one group per configuration (``CLSFleetGroup.group_key``)."""

    def __init__(self) -> None:
        self.groups: dict[object, CLSFleetGroup] = {}
        self.members: dict[int, Member] = {}  # slot, mine, twin, group
        self.cursor: dict[int, int] = {}
        self.streams: dict[int, list[tuple[int, int, int]]] = {}
        self.members_left: dict[int, CLSPrefetcher] = {}

    def join(self, lane: int, mine: CLSPrefetcher, twin: CLSPrefetcher,
             stream: list[tuple[int, int, int]] | None = None) -> None:
        key = CLSFleetGroup.group_key(mine)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = CLSFleetGroup(mine, capacity=4)
        self.members[lane] = (group.adopt(mine), mine, twin, group)
        self.streams[lane] = stream if stream is not None else _stream(lane)
        self.cursor.setdefault(lane, 0)

    def round(self, lanes: list[int]) -> None:
        """``lanes``' next misses: one ``handle_misses`` per group."""
        for group in self.groups.values():
            mine = [lane for lane in lanes if self.members[lane][3] is group]
            if mine:
                self._group_round(group, mine)

    def _group_round(self, group: CLSFleetGroup, lanes: list[int]) -> None:
        misses = [self.streams[lane][self.cursor[lane]] for lane in lanes]
        got = group.handle_misses(
            [self.members[lane][0] for lane in lanes],
            [m[0] for m in misses], [m[1] for m in misses],
            [m[2] for m in misses])
        for lane, (address, page, ts), pages in zip(lanes, misses, got):
            twin = self.members[lane][2]
            assert pages == twin.on_miss_fast(0, address, page, 0, ts), lane
            self.cursor[lane] += 1

    def leave(self, lane: int) -> None:
        slot, mine, twin, group = self.members.pop(lane)
        group.release(slot, mine)
        assert_released_like(mine, twin)
        self.members_left[lane] = mine


@pytest.mark.parametrize("width", [0, 1, 2, 64])
def test_round_widths(width: int) -> None:
    """Rounds of ``width`` lanes — one lane, two lanes of two variants'
    groups, or eleven lanes or so in each group — and now and then a
    round of none: it prefetches nothing and moves nothing (a width-0
    group's lane leaves as it came)."""
    lanes = Lanes()
    everyone = list(range(max(width, 1)))
    for lane in everyone:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    assert len(lanes.groups) == min(len(everyone), len(VARIANTS))
    for r in range(200):
        lanes.round(everyone[:width])
        if r % 40 == 0:
            for group in lanes.groups.values():
                assert group.handle_misses([], [], [], []) == []
                found, owner = group.miss_round([], [], [], [])
                assert found.size == owner.size == 0
    for lane in everyone:
        lanes.leave(lane)


def test_a_width_above_the_vocabulary_covers_every_class() -> None:
    """A gated lane whose width exceeds its vocabulary (8 classes, width
    16): the accuracy EMA's top-width is every class, as in
    ``select_topk``, on the scalar stage and in the round's stale branch
    alike — no partition past the vocabulary's end."""
    def prefetcher(lane: int) -> CLSPrefetcher:
        return CLSPrefetcher(CLSPrefetcherConfig(
            vocab_size=8, hebbian=HebbianConfig(vocab_size=8, hidden_dim=200,
                                                seed=3),
            prefetch_width=16, min_accuracy=0.5, seed=50 + lane))

    lanes = Lanes()
    for lane in range(3):
        lanes.join(lane, prefetcher(lane), prefetcher(lane))
    for _ in range(120):
        lanes.round([0, 1, 2])
    for lane in range(3):
        twin = lanes.members[lane][2]
        assert twin.stats.suppressed_low_confidence > 0
        assert twin.stats.prefetches_emitted > 0
        lanes.leave(lane)


def test_lanes_join_and_leave_around_resident_ones() -> None:
    """Refill mid-run, departures mid-stream, and rounds whose membership
    changes every time — one lane, two, none — around lanes whose state
    has long been in the arrays."""
    lanes = Lanes()
    first = list(range(LANES + 2))
    for lane in first:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    for _ in range(90):
        lanes.round(first)

    # Most leave mid-stream; their slots refill with fresh lanes.
    for lane in first[5:]:
        lanes.leave(lane)
    late = list(range(100, 104))
    for lane in late:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    narrow = first[:5] + late
    for r in range(60):
        lanes.round(narrow)
        at = r % len(narrow)
        lanes.round(narrow[at:at + r % 3])

    more = list(range(200, 200 + LANES))
    for lane in more:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    for _ in range(80):
        lanes.round(narrow + more)
    for lane in narrow + more:
        lanes.leave(lane)


def test_width_one_and_three_lanes_run_as_two_groups() -> None:
    """Width-1 and width-3 lanes in one cohort are two groups, each with
    a memo table as wide as its rollout, against ``simulate()`` — on
    streams with more deltas than classes, so the padding's neighbour,
    class 0 (out of vocabulary), is a class these lanes do score."""
    config = SimConfig(memory_fraction=0.2)
    rng = np.random.default_rng(5)
    traces = [Trace(name=f"scattered-{i}",
                    addresses=4096 * rng.integers(0, 400, size=300))
              for i in range(4)]

    def lane(i: int) -> CLSPrefetcher:
        return _prefetcher(len(VARIANTS) * i, prefetch_width=1 + 2 * (i % 2))

    specs = [FleetLaneSpec(trace=traces[i % 4], prefetcher=lane(i),
                           config=config) for i in range(LANES)]
    cohort = FleetCohort.for_specs(specs, backend="c",
                                   record_miss_indices=True)
    cohort.load_many(list(range(LANES)), specs)
    assert sorted(group._state.memo.shape[1]
                  for group in cohort._groups) == [1, 3]
    results = cohort.run_to_completion()
    narrow_oov = False
    for i, spec in enumerate(specs):
        twin = lane(i)
        want = simulate(spec.trace, twin, config=config, backend="numpy",
                        record_miss_indices=True)
        assert results[i].stats.as_dict() == want.stats.as_dict(), i
        assert results[i].miss_indices == want.miss_indices, i
        assert_released_like(spec.prefetcher, twin)
        narrow_oov |= i % 2 == 0 and 0 in _targets(twin)
    assert narrow_oov


def test_lanes_the_arrays_do_not_model_keep_their_own_callback() -> None:
    """A recall lane, a page- and a region-encoded lane and a
    ``prototype``-policy lane are Hebbian lanes the arrays do not model:
    in a cohort next to table lanes they are no group members, and every
    lane ends as ``simulate()`` leaves it."""
    config = SimConfig(memory_fraction=0.4)
    traces = [generate("pointer_chase", PatternSpec(
        n=400, working_set=40, element_size=4096, seed=seed))
        for seed in range(5)]
    odd = {0: dict(recall=True, recall_max_confidence=0.9),
           3: dict(encoder="page"), 4: dict(encoder="region"),
           7: dict(replay_policy="prototype", replay_kwargs={})}

    def lane(i: int) -> CLSPrefetcher:
        return _prefetcher(i, **odd.get(i, {}))

    specs = [FleetLaneSpec(trace=traces[i % 5], prefetcher=lane(i),
                           config=config) for i in range(10)]
    assert [i for i, spec in enumerate(specs)
            if not CLSFleetGroup.admits(spec.prefetcher)] == sorted(odd)
    cohort = FleetCohort.for_specs(specs, backend="c",
                                   record_miss_indices=True)
    cohort.load_many(list(range(len(specs))), specs)
    members = {id(p) for group in cohort._groups
               for p in group._members.values()}
    assert [i for i, spec in enumerate(specs)
            if id(spec.prefetcher) not in members] == sorted(odd)
    results = cohort.run_to_completion()
    for i, spec in enumerate(specs):
        twin = lane(i)
        want = simulate(spec.trace, twin, config=config, backend="numpy",
                        record_miss_indices=True)
        assert results[i].stats.as_dict() == want.stats.as_dict(), i
        assert results[i].miss_indices == want.miss_indices, i
        assert_released_like(spec.prefetcher, twin)
    assert specs[0].prefetcher.recall_stats.answered > 0
    assert specs[3].prefetcher.stats.prefetches_emitted > 0


def test_a_lane_with_a_past_continues_in_the_arrays() -> None:
    """A prefetcher that already ran (episodes, memo, a scored
    prediction; no ``reset_stream``) is admitted with all of it."""
    lanes = Lanes()
    veterans = [1, 2, 3]
    for lane in range(LANES + 3):
        mine, twin = _prefetcher(lane), _prefetcher(lane)
        stream = _stream(lane, 400)
        if lane in veterans:
            for address, page, ts in stream[:150]:
                assert (mine.on_miss_fast(0, address, page, 0, ts)
                        == twin.on_miss_fast(0, address, page, 0, ts))
            assert mine._last_probs is not None and mine._ema_top is not None
            assert mine.scheduler.policy.store.stored_total > 0
            lanes.cursor[lane] = 150
        lanes.join(lane, mine, twin, stream)
    for _ in range(220):
        lanes.round(list(range(LANES + 3)))
    for lane in range(LANES + 3):
        lanes.leave(lane)


def test_hints_reach_the_episodes() -> None:
    """A hint set before the run and one changed between two rounds both
    become the ``phase_id`` of the episodes stored under them."""
    lanes = Lanes()
    everyone = list(range(LANES))
    for lane in everyone:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    for side in (1, 2):
        lanes.members[0][side].hint_phase(7)
    for _ in range(40):
        lanes.round(everyone)
    for side in (1, 2):
        lanes.members[0][side].hint_phase(9)
        lanes.members[3][side].hint_phase(4)
    for _ in range(40):
        lanes.round(everyone)
    for side in (1, 2):
        lanes.members[0][side].hint_phase(None)
    for _ in range(40):
        lanes.round(everyone)
    hinted, late = lanes.members[0][1], lanes.members[3][1]
    for lane in everyone:
        lanes.leave(lane)
    phases = [e.phase_id for e in hinted.scheduler.policy.store.episodes()]
    # The first two misses have no transition to store.
    assert phases[:38] == [7] * 38 and phases[38:78] == [9] * 40
    assert len(phases) == 118 and not {7, 9} & set(phases[78:])
    assert {e.phase_id for e in late.scheduler.policy.store.episodes()
            } >= {-1, 4}


def test_release_and_adopt_check_whose_state_they_move() -> None:
    mine, other = _prefetcher(0), _prefetcher(1)
    group = CLSFleetGroup(mine)
    slot = group.adopt(mine)
    with pytest.raises(ValueError, match="already a member"):
        group.adopt(mine)
    with pytest.raises(ValueError, match="does not hold"):
        group.release(slot, other)
    with pytest.raises(ValueError, match="does not hold"):
        group.release(slot + 1, mine)
    with pytest.raises(ValueError, match="do not model"):
        group.adopt(_prefetcher(2, recall=True))
    # Nothing moved: the lane still runs, and releases to its owner.
    twin = _prefetcher(0)
    for address, page, ts in _stream(0)[:30]:
        assert (group.handle_misses([slot], [address], [page], [ts])
                == [twin.on_miss_fast(0, address, page, 0, ts)])
    group.release(slot, mine)
    assert_released_like(mine, twin)
    with pytest.raises(ValueError, match="does not hold"):
        group.release(slot, mine)


def _collapse_off(p: CLSPrefetcher) -> None:
    p.encoder.collapse_repeats = False


def _narrow_vocabulary(p: CLSPrefetcher) -> None:  # repro-lint: zone=key-cases
    p.encoder = DeltaVocabEncoder(vocab_size=VOCAB - 8)
    p._encoder_observe, p._encoder_decode = p.encoder.observe, p.encoder.decode


def _short_window(p: CLSPrefetcher) -> None:  # repro-lint: zone=key-cases
    p.phase_detector = OnlinePhaseDetector(
        vocab_size=CLSPrefetcher._PHASE_FEATURE_BINS, window=32)


#: name -> (both lanes' overrides, the second lane's overrides, a change
#: made to the second lane after construction).
KEY_CASES: dict[str, tuple[dict, dict,
                           Callable[[CLSPrefetcher], None] | None]] = {
    "width": ({}, dict(prefetch_width=2), None),
    "length": ({}, dict(prefetch_length=2), None),
    "ema-alpha": ({}, dict(accuracy_ema_alpha=0.05), None),
    "min-accuracy": ({}, dict(min_accuracy=0.2), None),
    "min-confidence": ({}, dict(min_confidence=0.1), None),
    "training-kind": ({}, dict(training="every_k",
                               training_kwargs={"k": 3}), None),
    "detector": ({}, dict(phase_detection=False), None),
    "detector-window": ({}, {}, _short_window),
    "replay-policy": ({}, dict(replay_policy=None), None),
    "replay-rate": ({}, dict(replay_per_step=2), None),
    "replay-lr-scale": ({}, dict(replay_lr_scale=0.2), None),
    "ring-capacity": (dict(replay_policy="ring", replay_kwargs={"capacity": 20}),
                      dict(replay_kwargs={"capacity": 30}), None),
    "confidence-threshold": (
        dict(replay_policy="confidence",
             replay_kwargs={"confidence_threshold": 0.3}),
        dict(replay_kwargs={"confidence_threshold": 0.5}), None),
    "granularity": ({}, dict(granularity=64), None),
    "page-size": ({}, dict(page_size=8192), None),
    "collapse-repeats": ({}, {}, _collapse_off),
    "vocabulary": ({}, {}, _narrow_vocabulary),
    "model-config": ({}, dict(hebbian=HebbianConfig(vocab_size=VOCAB,
                                                    seed=4)), None),
}


@pytest.mark.parametrize("case", KEY_CASES)
def test_the_group_key_names_every_constant_of_a_round(case: str) -> None:
    """Two lanes equal but for one value a round reads as configuration
    get different keys, and the second cannot join the first's group —
    refused before anything moves.  Lanes that differ only in ``seed``
    share a key and a group."""
    both, changed, change = KEY_CASES[case]
    mine, seed_twin = _prefetcher(0, **both), _prefetcher(6, **both)
    other = _prefetcher(0, **{**both, **changed})
    if change is not None:
        change(other)
    key = CLSFleetGroup.group_key
    assert mine.config.seed != seed_twin.config.seed
    assert key(mine) == key(seed_twin) and key(other) is not None
    assert key(other) != key(mine)

    group = CLSFleetGroup(mine)
    slot = group.adopt(mine)
    group.adopt(seed_twin)
    with pytest.raises(ValueError, match="not the group's"):
        group.adopt(other)
    assert len(group._members) == 2 and id(other) not in group._member_ids
    twin = _prefetcher(0, **both)
    for address, page, ts in _stream(0)[:30]:
        assert (group.handle_misses([slot], [address], [page], [ts])
                == [twin.on_miss_fast(0, address, page, 0, ts)])
    group.release(slot, mine)
    assert_released_like(mine, twin)


@pytest.mark.parametrize("backend", list(available_backends("sim")))
def test_a_cohort_of_mixed_configurations_is_a_group_per_configuration(
        backend: str, monkeypatch: pytest.MonkeyPatch) -> None:
    """Every variant, two seeds each, interleaved in one ``run_cohort``:
    one group per configuration, the two seeds of a variant in the same
    one, and every lane as ``simulate()`` on ``backend`` leaves it."""
    config = SimConfig(memory_fraction=0.4)
    traces = [generate("pointer_chase", PatternSpec(
        n=400, working_set=40, element_size=4096, seed=seed))
        for seed in range(4)]
    n = 2 * len(VARIANTS)  # lane i is variant i % 6, seed 50 + i
    specs = [FleetLaneSpec(trace=traces[i % 4], prefetcher=_prefetcher(i),
                           config=config) for i in range(n)]
    cohorts: list[FleetCohort] = []
    joined: dict[int, CLSFleetGroup] = {}
    for_specs, adopt = FleetCohort.for_specs, CLSFleetGroup.adopt

    def spied_for_specs(cls, *args, **kwargs):
        cohorts.append(for_specs(*args, **kwargs))
        return cohorts[-1]

    def spied_adopt(self, prefetcher):
        joined[id(prefetcher)] = self
        return adopt(self, prefetcher)

    monkeypatch.setattr(FleetCohort, "for_specs", classmethod(spied_for_specs))
    monkeypatch.setattr(CLSFleetGroup, "adopt", spied_adopt)
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    monkeypatch.undo()

    (cohort,) = cohorts
    assert len(cohort._groups) == len(VARIANTS)
    assert len(joined) == n and set(map(id, joined.values())) == set(
        map(id, cohort._groups))
    for v in range(len(VARIANTS)):
        assert (joined[id(specs[v].prefetcher)]
                is joined[id(specs[v + len(VARIANTS)].prefetcher)])
    for i, (spec, got) in enumerate(zip(specs, results)):
        twin = _prefetcher(i)
        want = simulate(spec.trace, twin, config=config, backend=backend,
                        record_miss_indices=True)
        assert got.stats.as_dict() == want.stats.as_dict(), i
        assert got.miss_indices == want.miss_indices, i
        assert_released_like(spec.prefetcher, twin)


@pytest.mark.parametrize("backend", ["numpy", "int8"])
def test_a_model_off_the_compiled_backend_has_no_group(backend: str) -> None:
    """A lane whose network is served on numpy or int8 has no group key
    (the lane kernels step backend ``c`` alone), so a group refuses it
    before anything moves; in a cohort it keeps its own ``on_miss_fast``
    next to stacked lanes of the same recipe, and every lane ends as
    ``simulate()`` leaves it."""
    config = SimConfig(memory_fraction=0.4)
    traces = [generate("pointer_chase", PatternSpec(
        n=400, working_set=40, element_size=4096, seed=seed))
        for seed in range(4)]

    def lane(i: int) -> CLSPrefetcher:
        served = backend if i % 2 else "c"
        return _prefetcher(i, hebbian=HebbianConfig(
            vocab_size=VOCAB, seed=3, backend=served))

    specs = [FleetLaneSpec(trace=traces[i % 4], prefetcher=lane(i),
                           config=config) for i in range(8)]
    off = [spec.prefetcher for spec in specs[1::2]]
    assert all(CLSFleetGroup.group_key(p) is None for p in off)
    with pytest.raises(ValueError, match="do not model"):
        CLSFleetGroup(specs[0].prefetcher).adopt(off[0])
    cohort = FleetCohort.for_specs(specs, backend="c",
                                   record_miss_indices=True)
    cohort.load_many(list(range(len(specs))), specs)
    members = {id(p) for group in cohort._groups
               for p in group._members.values()}
    assert members == {id(spec.prefetcher) for spec in specs[::2]}
    results = cohort.run_to_completion()
    for i, spec in enumerate(specs):
        twin = lane(i)
        want = simulate(spec.trace, twin, config=config, backend="numpy",
                        record_miss_indices=True)
        assert results[i].stats.as_dict() == want.stats.as_dict(), i
        assert results[i].miss_indices == want.miss_indices, i
        assert_released_like(spec.prefetcher, twin)
        np.testing.assert_array_equal(spec.prefetcher.model.w_out,
                                      twin.model.w_out)


# ----------------------------------------------------------------------
# The seams of a round: misses in as columns, pages out as one ragged
# (pages, owner) pair, lanes released a batch at a time.

TINY = 4  # a vocabulary of three deltas and the OOV class


def _tiny(lane: int, backend: str = "auto", **overrides) -> CLSPrefetcher:
    """A lane of the four-class model (a model config of its own, so a
    fleet group apart from ``_prefetcher``'s lanes even where the stage
    settings are equal)."""
    return CLSPrefetcher(CLSPrefetcherConfig(
        vocab_size=TINY,
        hebbian=HebbianConfig(vocab_size=TINY, hidden_dim=120, seed=9,
                              backend=backend),
        seed=70 + lane, **overrides))


def _near_zero(lane: int, n: int = 160) -> list[tuple[int, int, int]]:
    """Misses on pages 0..5: an A-B-A-B shuttle (so a rollout walks back
    onto the page that missed, and onto the same page twice), then a
    walk with more deltas than the vocabulary names (saturation, OOV)
    that keeps stepping down towards page 0 (negative units)."""
    rng = np.random.default_rng(900 + lane)
    a, b = (0, 2) if lane % 2 else (1, 3)
    shuttle = [a, b] * (n // 4)
    walk = rng.integers(0, 6, size=n - len(shuttle)).tolist()
    return [(4096 * page + 8 * (i % 5), page, 10 * i)
            for i, page in enumerate(shuttle + walk)]


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_ragged_egress_is_the_candidate_loop(width: int, length: int) -> None:
    """``miss_round``'s ``(pages, owner)`` against ``on_miss_fast`` twins
    where decode has something to refuse: a confidence floor, the OOV
    class, a class the vocabulary has not met, a unit below zero, the
    page that missed, a page already listed.  Each confidence floor is
    a group of its own."""
    floors = (0.0, 0.3, 0.6)
    overrides = [dict(prefetch_width=width, prefetch_length=length,
                      min_confidence=floor, phase_detection=False)
                 for floor in floors]
    lanes = list(range(LANES + 1))
    # The twins run the stages (their decode is watched below), so their
    # networks are numpy's: on "c" a twin's miss would be the compiled one.
    pairs = [(_tiny(lane, **overrides[lane % 3]),
              _tiny(lane, "numpy", **overrides[lane % 3])) for lane in lanes]
    groups = [CLSFleetGroup(pairs[f][0], capacity=len(lanes))
              for f in range(len(floors))]
    rows = [lanes[f::len(floors)] for f in range(len(floors))]
    slots = np.array([groups[lane % 3].adopt(mine)
                      for lane, (mine, _) in enumerate(pairs)])
    streams = [_near_zero(lane) for lane in lanes]
    refused = {"negative unit": 0, "unmet class": 0, "missed page": 0,
               "listed twice": 0}
    for r in range(len(streams[0])):
        misses = np.array([stream[r] for stream in streams])
        for group, some in zip(groups, rows):
            found, owner = group.miss_round(slots[some], *misses[some].T)
            assert (np.diff(owner) >= 0).all()
            for row, i in enumerate(some):
                twin = pairs[i][1]
                address, page, ts = misses[i].tolist()
                decoded: list[int | None] = []
                decode = twin.encoder.decode
                twin._encoder_decode = lambda c, base: (
                    decoded.append(decode(c, base)) or decoded[-1])
                want = twin.on_miss_fast(0, address, page, 0, ts)
                assert found[owner == row].tolist() == want, (r, i)
                named = [a >> 12 for a in decoded if a is not None]
                refused["missed page"] += page in named
                refused["listed twice"] += len(set(named)) < len(named)
                refused["unmet class"] += (
                    None in decoded and twin.encoder.known_deltas < TINY - 1)
                refused["negative unit"] += (
                    None in decoded
                    and twin.encoder.known_deltas == TINY - 1)
    twins = [twin for _, twin in pairs]
    # Every refusal happened (the last two need a second pick or step).
    assert refused["negative unit"] and refused["unmet class"]
    if length > 1:
        assert refused["missed page"] and refused["listed twice"]
    assert all(twin.encoder.known_deltas == TINY - 1 for twin in twins)
    assert all(0 in _targets(twin) for twin in twins)
    assert any(twin.stats.suppressed_low_confidence for twin in twins)
    assert any(twin.stats.prefetches_emitted for twin in twins)
    for group, some in zip(groups, rows):
        group.release_many(slots[some].tolist(), [pairs[i][0] for i in some])
    for mine, twin in pairs:
        twin._encoder_decode = twin.encoder.decode
        assert_released_like(mine, twin)


def test_the_cohort_caps_a_ragged_round_per_miss() -> None:
    """``max_prefetches_per_miss`` = 1 against three picks a step: the
    cohort keeps each row's first page, as ``simulate()`` does."""
    config = SimConfig(max_prefetches_per_miss=1, memory_fraction=0.4)
    traces = [generate("pointer_chase", PatternSpec(
        n=220, working_set=30, element_size=4096, seed=seed))
        for seed in range(4)]

    def lane(i: int) -> CLSPrefetcher:
        return _prefetcher(i, prefetch_width=3, prefetch_length=2,
                           min_accuracy=0.0)

    specs = [FleetLaneSpec(trace=traces[i % 4], prefetcher=lane(i),
                           config=config) for i in range(LANES + 2)]
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    capped = 0
    for i, (spec, got) in enumerate(zip(specs, results)):
        twin = lane(i)
        want = simulate(spec.trace, twin, config=config, backend="numpy",
                        record_miss_indices=True)
        assert got.stats.as_dict() == want.stats.as_dict()
        assert got.miss_indices == want.miss_indices
        assert_released_like(spec.prefetcher, twin)
        capped += (twin.stats.prefetches_emitted
                   > want.stats.as_dict()["prefetches_issued"])
    assert capped  # the cap did cut rows short


@settings(max_examples=20, deadline=None)
@given(units=st.lists(st.lists(st.integers(0, 9), min_size=30, max_size=30),
                      min_size=LANES, max_size=LANES),
       collapse=st.booleans(), vocab=st.sampled_from([3, TINY, 8]),
       pause=st.integers(1, 28))
def test_the_encoder_table_is_the_delta_vocabulary(
        units: list[list[int]], collapse: bool, vocab: int,
        pause: int) -> None:
    """The ``(lanes, vocab)`` class → delta table against
    ``DeltaVocabEncoder``, value for value after every round: the first
    observation (no class), repeats with ``collapse_repeats`` on and
    off, first-met deltas up to saturation, and a ``reset_stream``
    between two residencies."""
    def lane(i: int) -> CLSPrefetcher:
        p = CLSPrefetcher(CLSPrefetcherConfig(
            vocab_size=vocab, seed=i, phase_detection=False,
            hebbian=HebbianConfig(vocab_size=vocab, hidden_dim=60, seed=2)))
        p.encoder.collapse_repeats = collapse
        return p

    pairs = [(lane(i), lane(i)) for i in range(LANES)]
    group = CLSFleetGroup(pairs[0][0], capacity=LANES)
    state = group._state
    for rounds in (range(pause), range(pause, 30)):
        slots = np.array([group.adopt(mine) for mine, _ in pairs])
        for r in rounds:
            addresses = np.array([4096 * lane_units[r] + 8
                                  for lane_units in units])
            found, owner = group.miss_round(slots, addresses,
                                            addresses >> 12, addresses)
            for i, (_, twin) in enumerate(pairs):
                address = int(addresses[i])
                assert (found[owner == i].tolist() == twin.on_miss_fast(
                    0, address, address >> 12, 0, address))
                deltas, prev_unit = twin.encoder.table()
                slot = slots[i]
                assert state.enc_known[slot] == len(deltas)
                assert (state.enc_delta[slot, 1:len(deltas) + 1].tolist()
                        == deltas)
                assert state.enc_started[slot]
                assert state.enc_unit[slot] == prev_unit
        group.release_many(slots.tolist(), [mine for mine, _ in pairs])
        for mine, twin in pairs:
            assert_released_like(mine, twin)
            mine.reset_stream()
            twin.reset_stream()


def test_release_many_is_release_lane_by_lane() -> None:
    """One ``release_many`` against sequential ``release`` of the same
    lanes: stores whose ring wrapped inside the group, a lane that only
    saw rounds of its own, a lane with no misses."""
    def lane(i: int) -> CLSPrefetcher:
        return _prefetcher(i, replay_policy="ring",
                           replay_kwargs={"capacity": 6 + i % 5})

    everyone = list(range(LANES + 2))
    quiet, late = LANES, LANES + 1
    batch, single, twins = Lanes(), Lanes(), {}
    for side in (batch, single):
        for i in everyone:
            twins[i] = lane(i)
            side.join(i, lane(i), twins[i])
    for side in (batch, single):
        for r in range(70):
            side.round([i for i in everyone if i not in (quiet, late)])
        for _ in range(3):
            side.round([late])
    assert twins[0].scheduler.policy.store.evicted_total > 0

    for group in batch.groups.values():
        mine = [i for i in everyone if batch.members[i][3] is group]
        group.release_many([batch.members[i][0] for i in mine],
                           [batch.members[i][1] for i in mine])
    for i in everyone:
        single.leave(i)  # release(), and assert_released_like
        assert_released_like(batch.members[i][1], single.members_left[i])
    assert not any(group._members for group in batch.groups.values())


def test_a_round_is_checked_before_it_moves_anything() -> None:
    lanes = Lanes()
    everyone = list(range(LANES))
    for i in everyone:
        lanes.join(i, _prefetcher(i), _prefetcher(i))
    for _ in range(5):
        lanes.round(everyone)
    group = lanes.members[0][3]
    some = [i for i in everyone if lanes.members[i][3] is group]
    slots = [lanes.members[i][0] for i in some]
    misses = [lanes.streams[i][lanes.cursor[i]] for i in some]
    columns = [list(column) for column in zip(*misses)]
    free = max(slots) + 1
    for bad, message in (
            (slots[:-1] + [slots[0]], "more than once"),
            (slots[:-1] + [free], "free slot|outside"),
            (slots[:3] + [slots[0]], "more than once"),
            (slots[:3] + [free], "free slot|outside")):
        with pytest.raises(ValueError, match=message):
            group.handle_misses(bad, *(c[:len(bad)] for c in columns))
    with pytest.raises(ValueError, match="one address"):
        group.handle_misses(slots, columns[0][:-1], *columns[1:])
    # Nothing moved: the lanes continue like their twins, and leave so.
    for _ in range(20):
        lanes.round(everyone)
    for i in everyone:
        lanes.leave(i)


@pytest.mark.parametrize("overrides", [
    dict(backend="int8"),
    dict(backend="numpy"),
    dict(availability=True),
    dict(training="batch"),
    dict(observe_hits=True),
    dict(model="lstm"),
], ids=["int8", "numpy", "manager", "batch-policy", "per-access", "lstm"])
def test_admits_is_the_one_membership_predicate(overrides: dict) -> None:
    """The lanes the model kernels cannot step are refused by the same
    predicate as the lanes the arrays do not model, and so is a
    prefetcher that is not a CLS one."""
    settings = dict(overrides)
    backend = settings.pop("backend", "auto")
    refused = CLSPrefetcher(CLSPrefetcherConfig(
        vocab_size=VOCAB, seed=50,
        hebbian=HebbianConfig(vocab_size=VOCAB, seed=3, backend=backend),
        **settings))
    assert CLSFleetGroup.admits(_prefetcher(0))
    assert not CLSFleetGroup.admits(refused)
    assert not CLSFleetGroup.admits(StridePrefetcher())


@pytest.mark.parametrize("encoder", ["page", "region"])
def test_an_encoder_without_a_table_keeps_the_stage_methods(
        encoder: str) -> None:
    """``admits`` refuses a page- or region-encoded lane and ``adopt``
    raises before anything moves: the lane goes on with its own stage
    methods, as its twin does."""
    mine, twin = (_prefetcher(1, encoder=encoder) for _ in range(2))
    assert not CLSFleetGroup.admits(mine)
    group = CLSFleetGroup(_prefetcher(0))
    with pytest.raises(ValueError, match="do not model"):
        group.adopt(mine)
    assert not group._members
    for address, page, ts in _stream(1)[:120]:
        assert (mine.on_miss_fast(0, address, page, 0, ts)
                == twin.on_miss_fast(0, address, page, 0, ts))
    assert twin.stats.prefetches_emitted > 0


def test_a_wide_round_has_no_per_lane_python_at_its_seams(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """The claim as a test: a round calls neither the encoder nor the
    candidate loop of any member."""
    lanes = Lanes()
    everyone = list(range(LANES))
    for i in everyone:
        lanes.join(i, _prefetcher(i), _prefetcher(i))
    for _ in range(3):
        lanes.round(everyone)
    twins = {id(lanes.members[i][2]) for i in everyone}
    twin_encoders = {id(lanes.members[i][2].encoder) for i in everyone}
    emit, observe = CLSPrefetcher._emit, DeltaVocabEncoder.observe

    def no_emit(self, *args):
        assert id(self) in twins, "_emit on a member"
        return emit(self, *args)

    def no_observe(self, address):
        assert id(self) in twin_encoders, "observe on a member"
        return observe(self, address)

    monkeypatch.setattr(CLSPrefetcher, "_emit", no_emit)
    monkeypatch.setattr(DeltaVocabEncoder, "observe", no_observe)
    for i in everyone:  # the twins bound their encoder's method at birth
        twin = lanes.members[i][2]
        twin._encoder_observe = twin.encoder.observe
    for _ in range(60):
        lanes.round(everyone)
    assert any(lanes.members[i][2].stats.prefetches_emitted
               for i in everyone)
    monkeypatch.undo()
    for i in everyone:
        lanes.leave(i)


def test_the_phase_window_is_a_row_of_the_arrays(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """Detector lanes in a cohort against ``simulate()`` twins, phases
    seen, transitions, centroids and the open window included: lanes
    that close two windows and more while resident, veterans admitted
    with a part-filled window (warmed through ``on_miss_fast``), lanes
    released mid-window.  While resident, a member's detector is called
    only as its window closes — never ``observe``."""
    config = SimConfig(memory_fraction=0.3)
    n = LANES + 2
    traces = [build_phased_trace(
        [Phase("pointer_chase", 300 + 7 * lane), Phase("stride", 200),
         Phase("pointer_chase", 150)],
        PatternSpec(working_set=60, element_size=4096), seed=lane).trace
        for lane in range(n)]
    veterans = (1, 7, 14)

    def lane(i: int) -> CLSPrefetcher:
        p = _prefetcher(i)
        if i in veterans:
            for address, page, ts in _stream(i)[:40 + 11 * i]:
                p.on_miss_fast(0, address, page, 0, ts)
        return p

    specs = [FleetLaneSpec(trace=traces[i], prefetcher=lane(i),
                           config=config) for i in range(n)]
    detectors = {id(spec.prefetcher.phase_detector): i
                 for i, spec in enumerate(specs)
                 if spec.prefetcher.phase_detector is not None}
    assert all(0 < len(specs[i].prefetcher.phase_detector._recent) < 64
               for i in veterans)
    closed = [0] * n
    close_window = OnlinePhaseDetector.close_window

    def counted(self, window):
        closed[detectors[id(self)]] += 1
        return close_window(self, window)

    def no_observe(self, feature):
        raise AssertionError("observe on a member's detector")

    monkeypatch.setattr(OnlinePhaseDetector, "close_window", counted)
    monkeypatch.setattr(OnlinePhaseDetector, "observe", no_observe)
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    monkeypatch.undo()

    mid_window = 0
    for i, (spec, got) in enumerate(zip(specs, results)):
        twin = lane(i)
        want = simulate(spec.trace, twin, config=config, backend="numpy",
                        record_miss_indices=True)
        assert got.stats.as_dict() == want.stats.as_dict(), i
        assert got.miss_indices == want.miss_indices, i
        assert_released_like(spec.prefetcher, twin)
        detector = twin.phase_detector
        if detector is not None:
            assert closed[i] >= 2, i
            assert detector.transitions >= 1
            mid_window += 0 < len(detector._recent)
    assert mid_window >= 2
