"""The train-and-serve prefetch daemon.

:class:`PrefetchService` keeps one :class:`TenantLane` per tenant; each
lane holds one offline :class:`~repro.core.cls_prefetcher.CLSPrefetcher`
(§5.5 availability on: live serves, shadow trains) and *schedules* its
per-miss stages (DESIGN.md §5) across two actors:

- **serve** — drains the ingest ring into per-tenant rounds, advances
  every staged lane's *live* model in one stacked
  :class:`~repro.nn.hebbian_fleet.HebbianFleet` call (on backend ``c``;
  per lane otherwise), performs hot-swaps (redeploy on confidence drop
  or staleness), and answers query batches from batched fleet
  rollouts.  The serve actor is the only mutator of
  live models, so the answer path takes no lock and can never block
  behind a training step.
- **trainer** — consumes queued observations and trains each lane's
  *shadow* copy (plus interleaved replay) under that lane's lock; the
  lock is shared only with the swap decision, never with answering.

The per-event pipeline is split into a *stage* sub-step (the *observe*
stage) and a *finish* sub-step (*redeploy check*, live-model step,
*advance*), with *remember* → *train* queued between them.  Under the
lockstep schedule ``stage → drain trainer → finish → answer`` (see
:func:`replay_lockstep`) the daemon runs the stages in the scalar
composition's order, which is why the differential suite can assert
bit-identity against ``simulate()`` — predictions, learned ``w_out``,
and the confidence EMA.  Under any other schedule the service is still
correct (queries are answered from whatever weights are deployed), just
not bit-equal to the offline serialization.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..core.availability import ShadowModelManager, weights_finite
from ..core.cls_prefetcher import (
    CLSPrefetcher,
    CLSPrefetcherConfig,
    Observation,
    Rollout,
)
from ..nn.hebbian import HebbianConfig, SparseHebbianNetwork
from ..nn.hebbian_fleet import HebbianFleet
from ..seeding import spawn_seeds
from ..telemetry.manifest import build_serve_manifest, write_jsonl_atomic
from ..telemetry.sink import Telemetry
from .batcher import QueryTicket, RequestBatcher
from .clock import Clock, RealClock
from .faults import FaultPlan, poison_weights
from .loop import Actor
from .ring import EventRing


#: Latency / swap-pause samples kept per series; percentiles are over
#: this most recent window, so a long-running daemon's memory is flat.
SAMPLE_WINDOW = 65_536


@dataclass(frozen=True)
class ServeConfig:
    """Everything configurable about one service instance.

    The encoder/prediction/training fields are
    :class:`~repro.core.cls_prefetcher.CLSPrefetcherConfig`'s (rollout
    mode, no phase detection, availability on) and are range-checked
    there: :meth:`prefetcher_config` is the one place they cross over.

    Attributes:
        vocab_size: Miss-class vocabulary shared by encoder and model.
        encoder: "delta", "page" or "region" (§5.3).
        granularity: Bytes per encoded unit.
        page_size: Page size used to emit prefetch targets.
        prefetch_length: Rollout depth per query (§5.2).
        prefetch_width: Candidates per rollout step (§5.2).
        min_confidence: Candidate suppression threshold (§5.2).
        min_accuracy: Suppress all prefetching below this accuracy EMA.
        accuracy_ema_alpha: Smoothing of the self-monitored accuracy.
        training: Training-instance policy kind (§5.1); the batch
            accumulator is not servable (it owns training wholesale).
        replay_policy: Replay policy kind (§5.4), or None to disable.
        replay_per_step: Episodes replayed per background training step.
        replay_lr_scale: Replay learning-rate scale (paper: 0.1).
        redeploy_below: §5.5 confidence-EMA redeploy threshold.
        ema_alpha: §5.5 confidence-EMA smoothing.
        max_staleness: §5.5 staleness backstop (training steps).
        ring_capacity: Ingest ring bound (drop-oldest beyond it).
        train_queue_capacity: Pending-training bound (drop-oldest).
        max_batch: Events staged / queries answered per round.
        stacked: Step and roll out live lanes through one
            :class:`HebbianFleet` (multi-tenant batching) when the model
            is served on backend ``"c"``, whose kernels the fleet runs;
            False, or a model on numpy, keeps the per-lane path.
        record_checksums: Checksum the serving weights at every swap and
            every answer — the torn-swap assertion's evidence trail.
        seed: Root seed; model construction and per-tenant replay
            sampling derive from it via ``spawn_seeds``.
    """

    vocab_size: int = 128
    encoder: str = "delta"
    granularity: int = 4096
    page_size: int = 4096
    prefetch_length: int = 2
    prefetch_width: int = 2
    min_confidence: float = 0.0
    min_accuracy: float = 0.0
    accuracy_ema_alpha: float = 0.02
    training: str = "always"
    replay_policy: str | None = None
    replay_per_step: int = 1
    replay_lr_scale: float = 0.1
    redeploy_below: float = 0.5
    ema_alpha: float = 0.05
    max_staleness: int = 256
    ring_capacity: int = 1024
    train_queue_capacity: int = 4096
    max_batch: int = 64
    stacked: bool = True
    record_checksums: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.training == "batch":
            raise ValueError("the batch-accumulate policy is not servable "
                             "(it owns training wholesale)")
        if min(self.ring_capacity, self.train_queue_capacity,
               self.max_batch) < 1:
            raise ValueError("capacities and max_batch must be >= 1")
        self.prefetcher_config(self.seed)  # raises on a bad shared field

    def prefetcher_config(self, seed: int) -> CLSPrefetcherConfig:
        """The per-lane pipeline config (``seed`` feeds replay sampling)."""
        return CLSPrefetcherConfig(
            vocab_size=self.vocab_size, encoder=self.encoder,
            granularity=self.granularity, page_size=self.page_size,
            prefetch_length=self.prefetch_length,
            prefetch_width=self.prefetch_width,
            min_confidence=self.min_confidence,
            min_accuracy=self.min_accuracy,
            accuracy_ema_alpha=self.accuracy_ema_alpha,
            training=self.training, replay_policy=self.replay_policy,
            replay_per_step=self.replay_per_step,
            replay_lr_scale=self.replay_lr_scale,
            phase_detection=False, availability=True, seed=seed)


@dataclass(frozen=True, slots=True)
class ServeEvent:
    """One miss event as it travels through the ingest ring."""

    tenant: int
    address: int
    timestamp: int


class TenantLane:
    """One tenant's serving state: a :class:`CLSPrefetcher` whose stages
    this lane schedules, plus what only a daemon has — the lock, the
    fleet slot, swap admission, swap pauses and checksums.

    Attribute discipline (this is what makes the concurrency auditable):
    the serve actor calls :meth:`observe` / :meth:`pre_advance` /
    :meth:`answer` and the prefetcher's *advance* / *gate* / *rollout*
    stages; the trainer actor calls only :meth:`train_background` /
    :meth:`poison_shadow`.  State shared between the two — the manager's
    scalars and the shadow model — is touched exclusively under
    :attr:`lock`; the replay scheduler and the trained/replayed counters
    belong to the trainer; everything else is the serve actor's alone.
    """

    def __init__(self, tenant: int, prefetcher: CLSPrefetcher,
                 record_checksums: bool) -> None:
        self.tenant = tenant
        self.prefetcher = prefetcher
        self.record_checksums = record_checksums
        self.lock = threading.Lock()
        self.slot = -1          # fleet slot; -1 in scalar mode
        self.last_address = 0   # the miss a later query is answered for
        self.swaps = 0
        self.swaps_rejected = 0
        self.swap_pauses: deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self.checksum_history: list[str] = []

    @property
    def manager(self) -> ShadowModelManager:
        manager = self.prefetcher.manager
        assert manager is not None
        return manager

    @property
    def accuracy_ema(self) -> float:
        return self.prefetcher.accuracy_ema

    @property
    def misses_seen(self) -> int:
        return self.prefetcher.stats.misses_seen

    @property
    def trained_steps(self) -> int:
        return self.prefetcher.stats.trained_steps

    @property
    def replayed_pairs(self) -> int:
        return self.prefetcher.stats.replayed_pairs

    # -- serve actor ------------------------------------------------------
    def observe(self, address: int, timestamp: int) -> Observation | None:
        """Stage sub-step: the *observe* stage.  No model state moves
        here — that happens in the finish sub-step."""
        self.last_address = address
        return self.prefetcher.observe(address, timestamp)

    def pre_advance(self, seen: Observation, fleet: HebbianFleet | None,
                    clock: Clock) -> None:
        """Finish sub-step, part 1: the *redeploy check* and the swap.
        Runs under the lane lock — mutually exclusive with background
        shadow training, never with answering."""
        with self.lock:
            if self.prefetcher.redeploy_due(seen.class_id):
                self._swap_locked(fleet, clock)

    def answer(self, rollout: Rollout) -> list[int]:
        """The *decode* stage, for the lane's latest miss."""
        address = self.last_address
        page_shift = self.prefetcher.config.page_size.bit_length() - 1
        return self.prefetcher.decode(address, address >> page_shift, rollout)

    # -- serve actor: swaps ----------------------------------------------
    def adopt(self, fleet: HebbianFleet) -> None:
        """Hand the live model's stepping to a fleet slot."""
        self.slot = fleet.acquire_lane(self.live_net())

    def force_swap(self, fleet: HebbianFleet | None, clock: Clock) -> None:
        """Fault hook: redeploy right now, regardless of the EMA."""
        with self.lock:
            self._swap_locked(fleet, clock)

    def _swap_locked(self, fleet: HebbianFleet | None, clock: Clock) -> None:
        """Hot-swap: promote the shadow to live (§5.5 redeploy).

        A shadow with non-finite weights is rejected and discarded — the
        live copy keeps serving.  The admission scan reads every stored
        weight (the connected-only value vector); the swap after it is
        a flip plus a patch: the redeploy moves only the readout entries
        training wrote since the fork, and in stacked mode the lane's
        fleet slot is patched at the same offsets.  That motion (not
        the scan) is the measured "swap pause".
        """
        manager = self.manager
        if not weights_finite(manager.shadow):
            manager.discard_shadow()
            self.swaps_rejected += 1
            return
        start = clock.now()
        changed = self.prefetcher.redeploy()
        if fleet is not None:
            fleet.redeploy_lane(self.slot, self.live_net(), changed)
        self.swap_pauses.append(clock.now() - start)
        self.swaps += 1
        if self.record_checksums:
            self.checksum_history.append(self.serving_checksum(fleet))

    def serving_checksum(self, fleet: HebbianFleet | None) -> str:
        """Digest of the weights queries are currently answered from."""
        if fleet is not None and self.slot >= 0:
            values = fleet.lane_values(self.slot)
        else:
            values = self.live_net().readout_values
        return hashlib.blake2b(values, digest_size=16).hexdigest()

    def live_net(self) -> SparseHebbianNetwork:
        live = self.manager.live
        assert isinstance(live, SparseHebbianNetwork)
        return live

    # -- trainer actor ----------------------------------------------------
    def train_background(self, seen: Observation) -> None:
        """One background-training unit: *remember* the episode, then
        *train* the shadow with its interleaved replay — the scalar
        order, under the lane lock."""
        with self.lock:
            self.prefetcher.remember(seen)
            if seen.train:
                self.prefetcher.train(seen)

    def poison_shadow(self) -> None:
        """Fault hook: corrupt the shadow's weights (trainer side)."""
        with self.lock:
            shadow = self.manager.shadow
            assert isinstance(shadow, SparseHebbianNetwork)
            poison_weights(shadow)

    def manifest_record(self) -> dict:
        """Per-lane line of the service's JSONL manifest."""
        stats = self.prefetcher.stats
        manager = self.manager
        return {
            "record": "serve_lane",
            "tenant": self.tenant,
            "misses_seen": stats.misses_seen,
            "trained_steps": stats.trained_steps,
            "replayed_pairs": stats.replayed_pairs,
            "prefetches_emitted": stats.prefetches_emitted,
            "suppressed": stats.suppressed_low_confidence,
            "swaps": self.swaps,
            "swaps_rejected": self.swaps_rejected,
            "redeploys": manager.redeploys,
            "staleness": manager.staleness,
            "confidence_ema": manager.confidence_ema,
            "accuracy_ema": self.prefetcher.accuracy_ema,
        }


class _ServeActor:
    """Thin adapter: the serve loop as a schedulable actor."""

    name = "serve"

    def __init__(self, service: "PrefetchService") -> None:
        self._service = service

    def step(self) -> bool:
        return self._service.serve_once()


class _TrainerActor:
    """Thin adapter: the background trainer as a schedulable actor."""

    name = "trainer"

    def __init__(self, service: "PrefetchService") -> None:
        self._service = service

    def step(self) -> bool:
        return self._service.train_once()


class PrefetchService:
    """The daemon: ring in, batched answers out, shadow training behind.

    Drive it with :class:`~repro.serve.loop.ThreadScheduler` (production)
    or :class:`~repro.serve.loop.VirtualScheduler` (deterministic tests)
    via :meth:`actors`; or synchronously via :func:`replay_lockstep`.
    """

    def __init__(self, config: ServeConfig = ServeConfig(), *,
                 clock: Clock | None = None,
                 telemetry: Telemetry | None = None,
                 faults: FaultPlan | None = None) -> None:
        self.config = config
        self.clock: Clock = clock if clock is not None else RealClock()
        self.telemetry = telemetry
        self.faults = faults if faults is not None else FaultPlan()
        self._prototype = SparseHebbianNetwork(
            HebbianConfig(vocab_size=config.vocab_size, seed=config.seed))
        # Stacking runs the fleet's compiled kernels; without them every
        # lane steps and rolls out on its own, as ``stacked=False``.
        self._fleet: HebbianFleet | None = (
            HebbianFleet(self._prototype, n_lanes=8, reserve=True)
            if config.stacked and HebbianFleet.stacks(self._prototype)
            else None)
        self.ring: EventRing[ServeEvent] = EventRing(config.ring_capacity)
        self.batcher = RequestBatcher(config.max_batch)
        self._train_queue: EventRing[tuple[TenantLane, Observation]] = (
            EventRing(config.train_queue_capacity))
        self._lanes: dict[int, TenantLane] = {}
        self._lane_seeds: tuple[int, ...] = ()
        self._backlog: deque[ServeEvent] = deque()
        self._staged: list[tuple[TenantLane, Observation]] = []
        self._submit_lock = threading.Lock()
        self._sequence = 0
        self.events_submitted = 0
        self.fault_dropped = 0
        self.events_started = 0
        self.events_processed = 0
        self.queries_answered = 0
        self.forced_swaps = 0
        self.poison_injected = 0
        self.total_trained = 0
        self.latencies: deque[float] = deque(maxlen=SAMPLE_WINDOW)

    # -- client surface ---------------------------------------------------
    def submit_miss(self, tenant: int, address: int,
                    timestamp: int = 0) -> bool:
        """Offer one miss event; False when dropped (fault or ring)."""
        with self._submit_lock:
            sequence = self._sequence
            self._sequence += 1
            self.events_submitted += 1
            if self.faults.drops(sequence):
                self.fault_dropped += 1
                return False
            return self.ring.push(ServeEvent(tenant, address, timestamp))

    def query(self, tenant: int) -> QueryTicket:
        """Ask for prefetch pages; resolves when the serve actor answers."""
        return self.batcher.submit(tenant, self.clock.now())

    def actors(self) -> list[Actor]:
        """The service's schedulable actors (serve loop, trainer)."""
        return [_ServeActor(self), _TrainerActor(self)]

    def lane(self, tenant: int) -> TenantLane:
        """The tenant's lane, created on first contact."""
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = self._make_lane(tenant)
            self._lanes[tenant] = lane
        return lane

    # -- the serve actor's round ------------------------------------------
    def serve_once(self) -> bool:
        """One serve step: finish a staged round, else stage a new one,
        else answer a query batch.  Finishing before re-staging keeps a
        tenant's events strictly ordered through the two sub-steps."""
        if self._staged:
            self._finish_round()
            return True
        if self._start_round():
            return True
        return self._answer_round()

    def _start_round(self) -> bool:
        backlog = self._backlog
        if not backlog:
            backlog.extend(self.ring.pop_up_to(self.config.max_batch))
        if not backlog:
            return False
        staged: list[tuple[TenantLane, Observation]] = []
        rest: deque[ServeEvent] = deque()
        tenants: set[int] = set()
        max_batch = self.config.max_batch
        for event in backlog:
            # One in-flight event per tenant per round: the second event
            # must not stage before the first finishes (per-tenant FIFO
            # through both sub-steps).  Cross-tenant order is free.
            if event.tenant in tenants or len(staged) >= max_batch:
                rest.append(event)
                continue
            tenants.add(event.tenant)
            lane = self.lane(event.tenant)
            self.events_started += 1
            seen = lane.observe(event.address, event.timestamp)
            if seen is None:
                continue
            staged.append((lane, seen))
            if seen.transition is not None:
                self._train_queue.push((lane, seen))
        self._backlog = rest
        self._staged = staged
        return True

    def _finish_round(self) -> None:
        staged = self._staged
        self._staged = []
        fleet = self._fleet
        for lane, seen in staged:
            lane.pre_advance(seen, fleet, self.clock)
        # The live step never trains (the shadow does): stacked through
        # the fleet, or per lane in scalar mode; then the *advance* stage.
        if fleet is not None and staged:
            probs = fleet.step_lanes(
                [lane.slot for lane, _ in staged],
                [seen.class_id for _, seen in staged],
                [False] * len(staged))
            for i, (lane, seen) in enumerate(staged):
                lane.prefetcher.advance(seen, probs[i])
        else:
            for lane, seen in staged:
                lane.prefetcher.advance(
                    seen, lane.live_net().step(seen.class_id, train=False))
        self.events_processed += len(staged)
        if self.telemetry is not None:
            self.telemetry.counter("serve_events_processed", len(staged))

    def _answer_round(self) -> bool:
        batch = self.batcher.take_batch()
        if not batch:
            return False
        fleet = self._fleet
        lanes = {ticket.tenant: self.lane(ticket.tenant) for ticket in batch}
        if self.faults.swap_on_query:
            for lane in lanes.values():
                lane.force_swap(fleet, self.clock)
                self.forced_swaps += 1
        # The *gate* stage runs (and counts) once per ticket; the rollout
        # is read-only, so tickets of one tenant share it.
        rollouts = self._rollouts(
            {ticket.tenant: lanes[ticket.tenant] for ticket in batch
             if not lanes[ticket.tenant].prefetcher.gated()})
        record_checksums = self.config.record_checksums
        for ticket in batch:
            lane = lanes[ticket.tenant]
            rollout = rollouts.get(ticket.tenant)
            pages = lane.answer(rollout) if rollout is not None else []
            checksum = (lane.serving_checksum(fleet)
                        if record_checksums else None)
            now = self.clock.now()
            self.batcher.answer(ticket, pages, now, checksum)
            self.queries_answered += 1
            self.latencies.append(now - ticket.submitted_at)
        if self.telemetry is not None:
            self.telemetry.counter("serve_queries_answered", len(batch))
        return True

    def _rollouts(self, lanes: dict[int, TenantLane]) -> dict[int, Rollout]:
        """One rollout per (non-gated) lane — batched through the fleet
        when stacked, the prefetcher's scalar kernel call otherwise."""
        fleet = self._fleet
        if fleet is None or not lanes:
            return {tenant: lane.prefetcher.rollout()
                    for tenant, lane in lanes.items()}
        rolls = fleet.rollout_lanes(
            [lane.slot for lane in lanes.values()],
            [self.config.prefetch_width] * len(lanes),
            [self.config.prefetch_length] * len(lanes))
        return dict(zip(lanes, rolls))

    # -- the trainer actor's round ----------------------------------------
    def train_once(self) -> bool:
        """One background-training step, or False when stalled/idle."""
        faults = self.faults
        if (faults.trainer_stall_events
                and self.events_started < faults.trainer_stall_events):
            return False
        task = self._train_queue.pop()
        if task is None:
            return False
        lane, seen = task
        lane.train_background(seen)
        if seen.train:
            self.total_trained += 1
            if (faults.poison_after_trains is not None
                    and self.total_trained == faults.poison_after_trains
                    and self.poison_injected == 0):
                lane.poison_shadow()
                self.poison_injected += 1
            if faults.trainer_pause_s:
                # Threaded-mode fault: a slow worker.  No locks are held
                # here, so the pause must never surface in query latency.
                time.sleep(faults.trainer_pause_s)
        if self.telemetry is not None:
            self.telemetry.counter("serve_train_steps")
        return True

    # -- observability -----------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Exact operational counters (the degradation evidence trail)."""
        lanes = self._lanes.values()
        return {
            "tenants": len(self._lanes),
            "events_submitted": self.events_submitted,
            "events_started": self.events_started,
            "events_processed": self.events_processed,
            "ring_dropped": self.ring.dropped,
            "fault_dropped": self.fault_dropped,
            "queries_submitted": self.batcher.submitted,
            "queries_answered": self.batcher.answered,
            "train_steps": self.total_trained,
            "train_tasks_dropped": self._train_queue.dropped,
            "swaps": sum(lane.swaps for lane in lanes),
            "swaps_rejected": sum(lane.swaps_rejected for lane in lanes),
            "forced_swaps": self.forced_swaps,
            "poison_injected": self.poison_injected,
        }

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p99 query latency in milliseconds (clock units), over the
        most recent :data:`SAMPLE_WINDOW` queries."""
        return _percentiles_ms(self.latencies)

    def swap_pause_percentiles(self) -> dict[str, float]:
        """p50/p99 hot-swap pause in milliseconds (clock units), over
        each lane's most recent :data:`SAMPLE_WINDOW` swaps."""
        pauses = [p for lane in self._lanes.values()
                  for p in lane.swap_pauses]
        return _percentiles_ms(pauses)

    def manifest(self) -> dict:
        """The JSONL head record (provenance + counters + SLO numbers)."""
        spec = {"kind": "serve_run", **asdict(self.config)}
        return build_serve_manifest(
            spec, counters=self.counters(),
            latency=self.latency_percentiles(),
            swap_pause=self.swap_pause_percentiles())

    def write_manifest(self, directory: str | Path) -> Path:
        """Atomically write the service manifest JSONL: one head record,
        then one ``serve_lane`` record per tenant."""
        out_dir = Path(directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        records = [self.manifest()]
        records.extend(self._lanes[tenant].manifest_record()
                       for tenant in sorted(self._lanes))
        return write_jsonl_atomic(
            out_dir / f"serve-{len(self._lanes)}x.jsonl", records)

    # -- internals ---------------------------------------------------------
    def _lane_seed(self, tenant: int) -> int:
        if tenant >= len(self._lane_seeds):
            n = max(tenant + 1, 2 * len(self._lane_seeds), 8)
            self._lane_seeds = spawn_seeds(self.config.seed, n)
        return self._lane_seeds[tenant]

    def _make_lane(self, tenant: int) -> TenantLane:
        config = self.config
        # The §5.5 thresholds are serve options the offline config lacks,
        # so serve builds the manager (one fork per onboarding).
        manager = ShadowModelManager(
            self._prototype.clone(), redeploy_below=config.redeploy_below,
            ema_alpha=config.ema_alpha, max_staleness=config.max_staleness)
        prefetcher = CLSPrefetcher(
            config.prefetcher_config(self._lane_seed(tenant)),
            manager=manager)
        lane = TenantLane(tenant, prefetcher, config.record_checksums)
        if self._fleet is not None:
            lane.adopt(self._fleet)
        if config.record_checksums:
            lane.checksum_history.append(lane.serving_checksum(self._fleet))
        return lane


def _percentiles_ms(values: Sequence[float]) -> dict[str, float]:
    if not values:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "n": 0.0}
    arr = np.asarray(values, dtype=float) * 1e3
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
        "n": float(arr.size),
    }


def replay_lockstep(service: PrefetchService,
                    events: Iterable[tuple[int, int, int]], *,
                    query_each: bool = True) -> list[list[int]]:
    """Single-threaded deterministic replay of a recorded miss stream.

    Drives the service's own round functions in the canonical order —
    stage, drain the trainer, finish, answer — which serializes the
    concurrent pipeline into exactly the stage order of the offline
    ``CLSPrefetcher._ingest``/``_predict``.  The
    differential suite feeds the same stream to ``simulate()`` and
    asserts the answers, learned weights, and confidence EMA are
    bit-identical.

    ``events`` yields ``(tenant, address, timestamp)``; returns one
    answer (prefetch-page list) per event when ``query_each``.
    """
    answers: list[list[int]] = []
    for tenant, address, timestamp in events:
        service.submit_miss(tenant, address, timestamp)
        service.serve_once()            # stage
        while service.train_once():     # drain background training
            pass
        service.serve_once()            # finish
        if query_each:
            ticket = service.query(tenant)
            service.serve_once()        # answer
            if not ticket.done or ticket.pages is None:
                raise RuntimeError("lockstep query left unanswered")
            answers.append(list(ticket.pages))
    return answers
