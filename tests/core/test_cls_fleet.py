"""``CLSFleetGroup`` driven directly, round by round.

The cohort suites reach the group through ``FleetCohort``; this one
calls ``adopt`` / ``handle_misses`` / ``release`` itself, so it can pick
every round's width — on both sides of ``_RESIDENT_MIN_LANES``, where a
lane's per-miss state moves from its prefetcher into the group's arrays
— and the moments lanes join and leave.  The oracle is always a twin
prefetcher fed the same misses through ``on_miss_fast``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import cls_fleet
from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.nn.hebbian import HebbianConfig
from tests.core.test_miss_stages import assert_released_like

VOCAB = 48
W = cls_fleet._RESIDENT_MIN_LANES

#: Per-lane variety inside one fleet group (the group key is the model
#: config only): replay policy, replay rate, rollout shape, gate.
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
    return CLSPrefetcher(CLSPrefetcherConfig(
        vocab_size=VOCAB, hebbian=HebbianConfig(vocab_size=VOCAB, seed=3),
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


class Lanes:
    """Group members next to their scalar twins, checked miss by miss."""

    def __init__(self) -> None:
        self.group: CLSFleetGroup | None = None
        self.members: dict[int, tuple[int, CLSPrefetcher, CLSPrefetcher]] = {}
        self.cursor: dict[int, int] = {}
        self.streams: dict[int, list[tuple[int, int, int]]] = {}

    def join(self, lane: int, mine: CLSPrefetcher, twin: CLSPrefetcher,
             stream: list[tuple[int, int, int]] | None = None) -> None:
        if self.group is None:
            self.group = CLSFleetGroup(mine, capacity=4)
        self.members[lane] = (self.group.adopt(mine), mine, twin)
        self.streams[lane] = stream if stream is not None else _stream(lane)
        self.cursor.setdefault(lane, 0)

    def round(self, lanes: list[int]) -> None:
        """One ``handle_misses`` over ``lanes``' next misses."""
        assert self.group is not None
        misses = [self.streams[lane][self.cursor[lane]] for lane in lanes]
        got = self.group.handle_misses(
            [self.members[lane][0] for lane in lanes],
            [m[0] for m in misses], [m[1] for m in misses],
            [m[2] for m in misses])
        for lane, (address, page, ts), pages in zip(lanes, misses, got):
            twin = self.members[lane][2]
            assert pages == twin.on_miss_fast(0, address, page, 0, ts), lane
            self.cursor[lane] += 1

    def leave(self, lane: int) -> None:
        assert self.group is not None
        slot, mine, twin = self.members.pop(lane)
        self.group.release(slot, mine)
        assert_released_like(mine, twin)

    def resident(self, lane: int) -> bool:
        assert self.group is not None
        return bool(self.group._state.resident[self.members[lane][0]])


@pytest.mark.parametrize("width", [1, W - 1, W, W + 1, 64])
def test_round_widths_around_the_residency_constant(width: int) -> None:
    lanes = Lanes()
    for lane in range(width):
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    for _ in range(200):
        lanes.round(list(range(width)))
    # The form a round took is the one its width selects.
    assert all(lanes.resident(lane) == (width >= W) for lane in range(width))
    for lane in range(width):
        lanes.leave(lane)


def test_lanes_join_and_leave_around_resident_ones() -> None:
    """Refill after residency, departures mid-run, and rounds too narrow
    to admit the newcomers: resident and visiting lanes share rounds."""
    lanes = Lanes()
    first = list(range(W + 2))
    for lane in first:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    for _ in range(90):
        lanes.round(first)
    assert all(lanes.resident(lane) for lane in first)

    # Most leave mid-stream; their slots refill with fresh lanes.
    for lane in first[5:]:
        lanes.leave(lane)
    late = list(range(100, 104))
    for lane in late:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    narrow = first[:5] + late
    for _ in range(60):
        lanes.round(narrow)
    assert all(lanes.resident(lane) for lane in first[:5])
    assert not any(lanes.resident(lane) for lane in late)

    # A wide round again: the newcomers move in mid-stream.
    more = list(range(200, 200 + W))
    for lane in more:
        lanes.join(lane, _prefetcher(lane), _prefetcher(lane))
    for _ in range(80):
        lanes.round(narrow + more)
    assert all(lanes.resident(lane) for lane in narrow + more)
    for lane in narrow + more:
        lanes.leave(lane)


def test_a_wider_rollout_joins_resident_lanes() -> None:
    """The memo table widens under lanes whose memo is in use — on
    streams with more deltas than classes, so the padding's neighbour,
    class 0 (out of vocabulary), is a class these lanes do score."""
    def scattered(lane: int) -> list[tuple[int, int, int]]:
        rng = np.random.default_rng(lane)
        pages = rng.integers(0, 400, size=200).tolist()
        return [(4096 * page, page, 10 * i) for i, page in enumerate(pages)]

    lanes = Lanes()
    narrow = list(range(W))
    for lane in narrow:
        lanes.join(lane, _prefetcher(lane, prefetch_width=1),
                   _prefetcher(lane, prefetch_width=1), scattered(lane))
    for _ in range(90):
        lanes.round(narrow)
    wide = list(range(W, 2 * W))
    for lane in wide:
        lanes.join(lane, _prefetcher(lane, prefetch_width=3),
                   _prefetcher(lane, prefetch_width=3), scattered(lane))
    for _ in range(90):
        lanes.round(narrow + wide)
    assert any(0 in lanes.members[lane][2].history.classes()
               for lane in narrow)
    for lane in narrow + wide:
        lanes.leave(lane)


def test_lanes_the_arrays_do_not_model_share_the_group() -> None:
    """A recall lane and a ``prototype``-policy lane are steppable but keep
    their stage methods, in the same rounds as array-resident lanes."""
    lanes = Lanes()
    odd = {0: dict(recall=True, recall_max_confidence=0.9),
           1: dict(replay_policy="prototype", replay_kwargs={})}
    everyone = list(range(W + 4))
    for lane in everyone:
        lanes.join(lane, _prefetcher(lane, **odd.get(lane, {})),
                   _prefetcher(lane, **odd.get(lane, {})))
        assert lanes.members[lane][1].fleet_steppable()
    for _ in range(200):
        lanes.round(everyone)
    assert [lane for lane in everyone if not lanes.resident(lane)] == [0, 1]
    assert lanes.members[0][1].recall_stats.answered > 0
    for lane in everyone:
        lanes.leave(lane)


def test_a_lane_with_a_past_continues_in_the_arrays() -> None:
    """A prefetcher that already ran (episodes, history, memo, a scored
    prediction; no ``reset_stream``) is admitted with all of it."""
    lanes = Lanes()
    veterans = [1, 2, 3]
    for lane in range(W + 3):
        mine, twin = _prefetcher(lane), _prefetcher(lane)
        stream = _stream(lane, 400)
        if lane in veterans:
            for address, page, ts in stream[:150]:
                assert (mine.on_miss_fast(0, address, page, 0, ts)
                        == twin.on_miss_fast(0, address, page, 0, ts))
            assert mine._last_probs is not None and mine._ema_top is not None
            assert len(mine.history) == mine.history.capacity
            assert mine.scheduler.policy.store.stored_total > 0
            lanes.cursor[lane] = 150
        lanes.join(lane, mine, twin, stream)
    for _ in range(220):
        lanes.round(list(range(W + 3)))
    assert all(lanes.resident(lane) for lane in veterans)
    for lane in range(W + 3):
        lanes.leave(lane)


def test_hints_reach_the_episodes() -> None:
    """A hint set before the run and one changed between two rounds both
    become the ``phase_id`` of the episodes stored under them."""
    lanes = Lanes()
    everyone = list(range(W))
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
    # Nothing moved: the lane still runs, and releases to its owner.
    twin = _prefetcher(0)
    for address, page, ts in _stream(0)[:30]:
        assert (group.handle_misses([slot], [address], [page], [ts])
                == [twin.on_miss_fast(0, address, page, 0, ts)])
    group.release(slot, mine)
    assert_released_like(mine, twin)
    with pytest.raises(ValueError, match="does not hold"):
        group.release(slot, mine)
