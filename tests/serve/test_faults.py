"""The fault-injection matrix (deterministic, virtual scheduler).

Each scenario runs the *real* service actors under the seeded
:class:`VirtualScheduler` with a :class:`FaultPlan` from the service's
own constructor surface, and asserts graceful degradation through the
service's exact counters:

- trainer stalled      → every query still answered, from the stale
                          live model; zero training happened.
- ingest drop burst    → the dropped window is counted exactly; the
                          service keeps serving everything else.
- swap raced w/ query  → every answer's serving-weights checksum is a
                          member of the swap history: old or new
                          weights, never a torn mix.
- swap before rollout  → the accuracy EMA equals a recomputation from
                          the scored probabilities: no top-k memo
                          outlives the model it was computed from.
- poisoned shadow      → the swap path rejects and discards it; live
                          weights stay finite; answers keep flowing.
- flip-plus-patch swap → after every swap the fleet slot, the live
                          network and the admitted shadow hold the same
                          weights; admission still reads every weight;
                          no swap clones a model or cycles a fleet slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.availability import weights_finite
from repro.core.cls_prefetcher import CLSPrefetcher
from repro.nn.hebbian import SparseHebbianNetwork
from repro.nn.hebbian_fleet import HebbianFleet
from repro.serve import FaultPlan, PrefetchService, ServeConfig
from repro.serve.clock import VirtualClock
from repro.serve.loop import VirtualScheduler
from repro.serve.service import TenantLane

VOCAB = 64


class ClientActor:
    """Submits a scripted miss stream, querying after every miss."""

    name = "client"

    def __init__(self, service: PrefetchService,
                 events: list[tuple[int, int, int]]) -> None:
        self.service = service
        self.events = events
        self.cursor = 0
        self.tickets: list = []

    def step(self) -> bool:
        if self.cursor >= len(self.events):
            return False
        tenant, address, timestamp = self.events[self.cursor]
        self.cursor += 1
        self.service.submit_miss(tenant, address, timestamp)
        self.tickets.append(self.service.query(tenant))
        return True


def _events(n: int, tenants: int = 2) -> list[tuple[int, int, int]]:
    return [(i % tenants, 4096 * ((3 * i + (i % tenants)) % 40), i)
            for i in range(n)]


def _run(service: PrefetchService, events: list[tuple[int, int, int]],
         seed: int = 0) -> ClientActor:
    client = ClientActor(service, events)
    sched = VirtualScheduler(service.clock, seed=seed)  # type: ignore[arg-type]
    sched.add(client)
    for actor in service.actors():
        sched.add(actor)
    sched.run_until_idle(max_steps=200_000)
    return client


def test_trainer_stall_queries_still_answered() -> None:
    events = _events(100)
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, seed=1),
        clock=VirtualClock(),
        faults=FaultPlan(trainer_stall_events=10**9))
    client = _run(service, events)
    counters = service.counters()
    # The trainer did nothing — and it did not take the service down.
    assert counters["train_steps"] == 0
    assert counters["queries_answered"] == len(events)
    assert all(t.done for t in client.tickets)
    # Stale model means zero weight movement from the seed clone.
    for tenant in range(2):
        lane = service.lane(tenant)
        assert lane.trained_steps == 0
        assert np.array_equal(lane.live_net().w_out,
                              service.lane(tenant).manager.shadow.w_out)


def test_drop_burst_counted_exactly_and_service_lives() -> None:
    events = _events(120)
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, seed=2),
        clock=VirtualClock(),
        faults=FaultPlan(drop_from=30, drop_until=50))
    client = _run(service, events)
    counters = service.counters()
    assert counters["fault_dropped"] == 20
    assert counters["events_started"] == len(events) - 20
    # Degraded, not dead: every query got an answer anyway.
    assert counters["queries_answered"] == len(events)
    assert all(t.done for t in client.tickets)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_swap_raced_with_query_never_tears(seed: int) -> None:
    events = _events(80)
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, record_checksums=True,
                    max_staleness=8, seed=3),
        clock=VirtualClock(),
        faults=FaultPlan(swap_on_query=True))
    client = _run(service, events, seed=seed)
    counters = service.counters()
    assert counters["forced_swaps"] > 0
    for tenant in range(2):
        lane = service.lane(tenant)
        history = set(lane.checksum_history)
        assert history, "no serving checksums recorded"
        for ticket in client.tickets:
            if ticket.tenant != tenant:
                continue
            assert ticket.checksum is not None
            # The answer was computed against exactly one deployed
            # weight generation — old or new, never a torn mix.
            assert ticket.checksum in history, (
                f"torn read under interleaving seed={seed}: answer "
                f"checksum {ticket.checksum} matches no swap generation")


@pytest.mark.parametrize("stacked", [True, False],
                         ids=["stacked", "scalar"])
def test_forced_swaps_keep_accuracy_ema_exact(
        stacked: bool, monkeypatch: pytest.MonkeyPatch) -> None:
    """A forced swap lands between "live model stepped" and "rollout
    decoded"; the rollout's top-width memo must not pair one model's
    probabilities with another's top-k.  Every lane's accuracy EMA must
    equal a from-scratch recomputation over the probabilities it scored."""
    scored: dict[int, list[tuple[np.ndarray, int]]] = {}
    observe = CLSPrefetcher.observe

    def recording_observe(self: CLSPrefetcher, address: int, timestamp: int,
                          miss: bool = True):
        probs = self._last_probs
        seen = observe(self, address, timestamp, miss)
        if seen is not None and probs is not None:
            scored.setdefault(id(self), []).append(
                (np.array(probs), seen.class_id))
        return seen

    monkeypatch.setattr(CLSPrefetcher, "observe", recording_observe)
    config = ServeConfig(vocab_size=VOCAB, max_staleness=8, stacked=stacked,
                         seed=3)
    service = PrefetchService(config, clock=VirtualClock(),
                              faults=FaultPlan(swap_on_query=True))
    _run(service, _events(240))
    assert service.counters()["forced_swaps"] > 0
    width, alpha = config.prefetch_width, config.accuracy_ema_alpha
    for tenant in range(2):
        lane = service.lane(tenant)
        ema = 0.0
        for probs, class_id in scored[id(lane.prefetcher)]:
            top = np.argpartition(probs, -width)[-width:]
            ema = (1 - alpha) * ema + alpha * float(class_id in top)
        assert ema > 0
        assert lane.accuracy_ema == ema


def test_poisoned_shadow_rejected_live_stays_finite() -> None:
    events = _events(150)
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, max_staleness=4, seed=4),
        clock=VirtualClock(),
        faults=FaultPlan(poison_after_trains=12))
    client = _run(service, events)
    counters = service.counters()
    assert counters["poison_injected"] == 1
    assert counters["swaps_rejected"] >= 1
    # The poison never reached a serving model, and serving never stopped.
    for tenant in range(2):
        lane = service.lane(tenant)
        assert weights_finite(lane.manager.live)
        assert weights_finite(lane.manager.shadow)
    assert counters["queries_answered"] == len(events)
    assert all(t.done for t in client.tickets)


@pytest.mark.parametrize("forced", [True, False], ids=["forced", "ema"])
@pytest.mark.parametrize("stacked", [True, False],
                         ids=["stacked", "scalar"])
def test_every_swap_deploys_exactly_the_admitted_weights(
        stacked: bool, forced: bool,
        monkeypatch: pytest.MonkeyPatch) -> None:
    """A swap moves only the entries training wrote, so pin the result
    against the whole block: the weights queries are answered from, the
    live network's and the recycled shadow's all equal the shadow's
    weights as admitted."""
    swap_locked = TenantLane._swap_locked
    checked = 0

    def checking_swap(self: TenantLane, fleet, clock) -> None:
        nonlocal checked
        admitted = self.manager.shadow.w_out.copy()
        swaps = self.swaps
        swap_locked(self, fleet, clock)
        if self.swaps == swaps:
            return                      # rejected at admission
        checked += 1
        # Stacking needs the fleet's kernels (a model on backend "c").
        assert (fleet is not None) == (
            stacked and HebbianFleet.stacks(self.manager.live))
        if fleet is not None:
            assert np.array_equal(fleet.lane_weights(self.slot), admitted)
        assert np.array_equal(self.manager.live.w_out, admitted)
        assert np.array_equal(self.manager.shadow.w_out, admitted)

    monkeypatch.setattr(TenantLane, "_swap_locked", checking_swap)
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, max_staleness=8, stacked=stacked,
                    seed=3),
        clock=VirtualClock(), faults=FaultPlan(swap_on_query=forced))
    _run(service, _events(240))
    counters = service.counters()
    assert checked == counters["swaps"] > 0
    assert (counters["forced_swaps"] > 0) == forced


@pytest.mark.parametrize("stacked", [True, False],
                         ids=["stacked", "scalar"])
def test_poison_at_an_untrained_offset_is_rejected(stacked: bool) -> None:
    """Admission reads every stored weight of the shadow, not only the
    entries training wrote (which is all a scan of the write log could
    vouch for): a NaN at a connected entry no training step has written
    never goes live.  Eq. 1 moves every connected entry of its target's
    column, so a column still entirely zero has never been written."""
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, stacked=stacked, seed=4),
        clock=VirtualClock())
    _run(service, _events(60, tenants=1))
    lane = service.lane(0)
    shadow = lane.manager.shadow
    assert isinstance(shadow, SparseHebbianNetwork)
    w_out = shadow.w_out
    assert w_out.any(), "the shadow never trained"
    unwritten = int(np.flatnonzero(~w_out.any(axis=0))[0])
    row = int(np.flatnonzero(shadow.mask_out[:, unwritten])[0])
    w_out[row, unwritten] = np.nan
    shadow.w_out = w_out
    serving = lane.serving_checksum(service._fleet)
    lane.force_swap(service._fleet, service.clock)
    assert (lane.swaps_rejected, lane.manager.shadow is shadow) == (1, False)
    assert lane.serving_checksum(service._fleet) == serving
    assert weights_finite(lane.manager.live)
    assert weights_finite(lane.manager.shadow)
    # The refork is clean: the next swap is admitted.
    swaps = lane.swaps
    lane.force_swap(service._fleet, service.clock)
    assert lane.swaps == swaps + 1


def test_swaps_clone_no_model_and_cycle_no_fleet_slot(
        monkeypatch: pytest.MonkeyPatch) -> None:
    service = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=3),
                              clock=VirtualClock(),
                              faults=FaultPlan(swap_on_query=True))
    for tenant in range(2):
        service.lane(tenant)            # onboarding clones and acquires
    calls = {"clone": 0, "release_lane": 0, "acquire_lane": 0}
    for owner, name in ((SparseHebbianNetwork, "clone"),
                        (HebbianFleet, "release_lane"),
                        (HebbianFleet, "acquire_lane")):
        def counting(*args, _name=name, _real=getattr(owner, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counting)
    _run(service, _events(160))
    assert service.counters()["swaps"] >= 100
    assert calls == {"clone": 0, "release_lane": 0, "acquire_lane": 0}


def test_fault_plan_validation() -> None:
    with pytest.raises(ValueError):
        FaultPlan(trainer_stall_events=-1)
    with pytest.raises(ValueError):
        FaultPlan(drop_from=5, drop_until=2)
    with pytest.raises(ValueError):
        FaultPlan(poison_after_trains=-2)
    with pytest.raises(ValueError):
        FaultPlan(trainer_pause_s=-0.1)
    plan = FaultPlan(drop_from=2, drop_until=4)
    assert [plan.drops(i) for i in range(5)] == [
        False, False, True, True, False]


def test_ring_backpressure_drops_oldest_and_counts() -> None:
    """Over-offered ingest degrades by dropping the *oldest* events —
    and the drop counter is exact, not approximate."""
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, ring_capacity=16, seed=5),
        clock=VirtualClock())
    for i in range(64):
        service.submit_miss(0, 4096 * (i % 30), i)
    assert service.ring.dropped == 48
    assert len(service.ring) == 16
    # The survivors are the newest 16.
    survivors = service.ring.pop_up_to(64)
    assert [e.timestamp for e in survivors] == list(range(48, 64))
