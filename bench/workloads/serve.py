"""serve-lockstep-64: the train-and-serve daemon, driven deterministically.

``PrefetchService`` (vocab 64, stacked, ``max_batch=64``) is driven from one
thread through its public round functions in ``replay_lockstep`` order, one
burst at a time: submit 64 misses (one per tenant), stage, drain
``train_once``, finish, ``query`` every tenant, answer.  Each tenant's
stream is the null-prefetcher demand-miss address stream of an application
trace.  Closed loop, one client: a burst is submitted only after the
previous one is fully answered.  Trainer cost is inside ``events_per_s`` and
outside the query latency, matching the daemon's design.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import NullPrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.patterns import FIG5_APPLICATIONS, AppSpec, generate_application
from repro.seeding import spawn_seeds
from repro.serve import PrefetchService, QueryTicket, ServeConfig

from .. import layers
from ..metrics import SERVE_LOCKSTEP_64
from ..protocol import Cell, TracedRun, measure
from ..tracing import Tracer
from .sim import scaled

#: Frozen sizes at ``--scale 1`` (bursts scale; tenants do not).
SIZES = {"tenants": 64, "bursts": 80, "vocab": 64}

#: Model seed of the service (the workload seed only reaches the streams).
SERVICE_SEED = 3
SERVE_CONFIG = ServeConfig(vocab_size=SIZES["vocab"], max_batch=64,
                           stacked=True, seed=SERVICE_SEED)
STREAM_CONFIG = SimConfig(memory_fraction=0.5)
ORACLE_TENANTS = 4

#: Service counters no model output reaches (swaps and train steps follow
#: the confidence EMA, which does).
_INGEST_COUNTERS = ("tenants", "events_submitted", "events_started",
                    "events_processed", "queries_submitted",
                    "queries_answered", "ring_dropped", "fault_dropped",
                    "train_tasks_dropped")

#: Accesses that yield roughly one demand miss per application (starting
#: length of a tenant's trace; doubled until the stream is long enough).
_ACCESSES_PER_MISS = {"resnet": 3, "graph500": 12, "pagerank": 150, "mcf": 100}


def _pages_digest(answers: list[list[int]]) -> str:
    h = hashlib.blake2b(digest_size=8)
    for pages in answers:
        h.update(np.asarray(pages + [-1], dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass
class ServeState:
    service: PrefetchService
    tracer: Tracer | None
    tickets: list[QueryTicket] = dataclasses.field(default_factory=list)


class ServeLockstep64:
    name = SERVE_LOCKSTEP_64

    def setup(self, seed: int, scale: float) -> dict[str, float]:
        self.seed = seed
        self.tenants = SIZES["tenants"]
        self.bursts = scaled(SIZES["bursts"], scale, 4)
        t0 = time.perf_counter()
        self.streams: list[list[int]] = []
        for tenant, trace_seed in enumerate(spawn_seeds(seed, self.tenants)):
            app = FIG5_APPLICATIONS[tenant % len(FIG5_APPLICATIONS)]
            n = max(2_000, 2 * self.bursts * _ACCESSES_PER_MISS[app])
            while True:
                trace = generate_application(app, AppSpec(n=n,
                                                          seed=trace_seed))
                result = simulate(trace, NullPrefetcher(), STREAM_CONFIG,
                                  record_miss_indices=True)
                if len(result.miss_indices) >= self.bursts:
                    break
                n *= 2
            idx = np.asarray(result.miss_indices[:self.bursts],
                             dtype=np.int64)
            self.streams.append(trace.addresses[idx].tolist())
        return {"patterns.materialize_s": time.perf_counter() - t0}

    def build(self, tracer: Tracer | None = None) -> ServeState:
        service = PrefetchService(SERVE_CONFIG)
        # Steady-state serving: lanes (and the fleet's growth to 64 slots)
        # exist before the timed region; cold-tenant onboarding is a
        # different workload (and pure first-touch paging noise).
        for tenant in range(self.tenants):
            service.lane(tenant)
        return ServeState(service, tracer)

    def run(self, state: ServeState) -> list[Cell]:
        events = self.bursts * self.tenants
        body = (self._lockstep if state.tracer is None
                else self._lockstep_traced)
        cell, _ = measure("lockstep", events, lambda: body(state))
        return [cell]

    def _lockstep(self, state: ServeState) -> None:
        service = state.service
        streams = self.streams
        tenants = range(self.tenants)
        tickets = state.tickets
        for burst in range(self.bursts):
            for tenant in tenants:
                service.submit_miss(tenant, streams[tenant][burst], burst)
            service.serve_once()                 # stage
            while service.train_once():          # drain background training
                pass
            service.serve_once()                 # finish (swaps happen here)
            for tenant in tenants:
                tickets.append(service.query(tenant))
            service.serve_once()                 # answer

    def _lockstep_traced(self, state: ServeState) -> None:
        """The same rounds, each public call inside a span (kept apart
        from :meth:`_lockstep` so the measured path has no indirection)."""
        service = state.service
        tracer = state.tracer
        assert tracer is not None
        streams = self.streams
        tenants = range(self.tenants)
        tickets = state.tickets
        span = {name: tracer.intern(f"serve.{name}")
                for name in ("pass", "submit", "stage", "train", "finish",
                             "query", "answer")}
        root = tracer.begin(span["pass"])
        call = tracer.call
        for burst in range(self.bursts):
            for tenant in tenants:
                call(span["submit"], service.submit_miss, tenant,
                     streams[tenant][burst], burst)
            call(span["stage"], service.serve_once)
            while call(span["train"], service.train_once):
                pass
            call(span["finish"], service.serve_once)
            for tenant in tenants:
                tickets.append(call(span["query"], service.query, tenant))
            call(span["answer"], service.serve_once)
        tracer.finish(root)

    def outcome(self, state: ServeState) -> dict:
        service = state.service
        per_tenant: list[list[list[int]]] = [[] for _ in range(self.tenants)]
        for ticket in state.tickets:
            if ticket.pages is not None:
                per_tenant[ticket.tenant].append(list(ticket.pages))
        counters = service.counters()
        latencies_us = np.asarray(service.latencies) * 1e6
        # Operations the service itself failed: ring drops, dropped train
        # tasks, queries left unanswered.
        failed_ops = (counters["ring_dropped"] + counters["fault_dropped"]
                      + counters["train_tasks_dropped"]
                      + counters["queries_submitted"]
                      - counters["queries_answered"])
        return {
            "answers": [_pages_digest(answers) for answers in per_tenant],
            "weights": [hashlib.blake2b(
                np.ascontiguousarray(service.lane(t).live_net().w_out)
                .tobytes(), digest_size=8).hexdigest()
                for t in range(self.tenants)],
            "counters": counters,
            "units": (counters["events_submitted"]
                      + counters["queries_submitted"]),
            "failed_ops": failed_ops,
            # Timings: reported, never compared across repeats.
            "timing": {
                "query_p50_us": float(np.percentile(latencies_us, 50)),
                "query_p99_us": float(np.percentile(latencies_us, 99)),
                "queries": int(latencies_us.size),
            },
        }

    def float_free(self, outcome: dict) -> dict:
        counters = outcome["counters"]
        return {"counters": {name: counters[name]
                             for name in _INGEST_COUNTERS}}

    def verify_sample(self, outcome: dict, seed: int) -> tuple[int, list[str]]:
        """``ORACLE_TENANTS`` tenants replayed through the offline
        ``CLSPrefetcher`` (availability on) that the daemon must match bit
        for bit in lockstep order: same answers, same live weights."""
        rng = np.random.default_rng(seed)
        picked = rng.choice(self.tenants, ORACLE_TENANTS, replace=False)
        config = SERVE_CONFIG
        messages: list[str] = []
        for tenant in sorted(int(t) for t in picked):
            offline = CLSPrefetcher(CLSPrefetcherConfig(
                vocab_size=config.vocab_size,
                prefetch_length=config.prefetch_length,
                prefetch_width=config.prefetch_width,
                min_confidence=config.min_confidence,
                min_accuracy=config.min_accuracy,
                replay_policy=config.replay_policy, availability=True,
                phase_detection=False,
                hebbian=HebbianConfig(vocab_size=config.vocab_size,
                                      seed=config.seed, backend="numpy"),
                seed=config.seed))
            answers = [offline.on_miss_fast(0, address,
                                            address >> 12, 0, burst)
                       for burst, address in enumerate(self.streams[tenant])]
            assert offline.manager is not None
            weights = hashlib.blake2b(
                np.ascontiguousarray(offline.manager.live.w_out).tobytes(),
                digest_size=8).hexdigest()
            if _pages_digest(answers) != outcome["answers"][tenant]:
                messages.append(f"{self.name}/tenant{tenant}: answers differ "
                                "from the offline CLSPrefetcher")
            if weights != outcome["weights"][tenant]:
                messages.append(f"{self.name}/tenant{tenant}: live weights "
                                "differ from the offline CLSPrefetcher")
        return len(picked), messages

    # -- per-layer ------------------------------------------------------------
    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        tracer, state = run.tracer, run.traced_state
        summary = tracer.summary()
        events = sum(cell.events for cells in run.traced for cell in cells)
        out: dict[str, float] = {}

        def total(name: str) -> float:
            return summary[f"serve.{name}"]["total_s"]

        out["serve.submit_us"] = summary["serve.submit"]["mean_s"] * 1e6
        out["serve.stage_us_per_event"] = total("stage") / events * 1e6
        out["serve.finish_us_per_event"] = total("finish") / events * 1e6
        out["serve.answer_us_per_query"] = total("answer") / events * 1e6
        # Each burst's drain ends with one idle ``train_once`` call.
        tasks = (summary["serve.train"]["count"]
                 - summary["serve.stage"]["count"])
        out["serve.train_us_per_task"] = total("train") / max(1, tasks) * 1e6
        out["serve.train_share"] = total("train") / total("pass")
        out["serve.batch_size_mean"] = (
            events / summary["serve.answer"]["count"])
        counters = state.service.counters()
        out["serve.swaps"] = float(counters["swaps"])
        out["serve.swaps_rejected"] = float(counters["swaps_rejected"])
        out["serve.ring_dropped"] = float(counters["ring_dropped"])
        out["serve.train_tasks_dropped"] = float(
            counters["train_tasks_dropped"])
        pauses = state.service.swap_pause_percentiles()
        out["serve.swap_pause_p50_us"] = pauses["p50_ms"] * 1e3
        out["serve.swap_pause_p99_us"] = pauses["p99_ms"] * 1e3
        latency = state.service.latency_percentiles()
        out["serve.query_p50_us"] = latency["p50_ms"] * 1e3
        out["serve.query_p99_us"] = latency["p99_ms"] * 1e3
        # The serving-side fleet kernels at the daemon's batch width.
        proto_config = HebbianConfig(vocab_size=SERVE_CONFIG.vocab_size,
                                     seed=SERVE_CONFIG.seed)
        out.update(layers.hebbian_fleet_timings(
            SparseHebbianNetwork(proto_config), SERVE_CONFIG.vocab_size,
            rollout_sizes=(64,), seed=self.seed))
        return out


def threaded_open_loop(streams: list[list[int]], rate_per_s: float,
                       seconds: float) -> dict[str, float]:
    """Informational: one threaded open-loop run at a fixed event rate.

    Events are sent on a schedule regardless of completion; each query's
    latency is timed from the event's *due* time, so a stall charges the
    wait it imposes on later requests, and ``gen_lag`` reports how late the
    generator ran.  Not gating: CPython threads on two shared cores do not
    repeat within a tenth.
    """
    from repro.serve import ThreadScheduler

    service = PrefetchService(SERVE_CONFIG)
    tenants = len(streams)
    for tenant in range(tenants):
        service.lane(tenant)
    scheduler = ThreadScheduler()
    for actor in service.actors():
        scheduler.add(actor)
    total = int(rate_per_s * seconds)
    period = 1.0 / rate_per_s
    due: list[float] = []
    lag: list[float] = []
    tickets: list[QueryTicket] = []
    scheduler.start()
    try:
        start = time.perf_counter()
        for i in range(total):
            tenant = i % tenants
            stream = streams[tenant]
            when = start + i * period
            now = time.perf_counter()
            if when > now:
                time.sleep(when - now)
                now = time.perf_counter()
            lag.append(now - when)
            due.append(when)
            service.submit_miss(tenant, stream[(i // tenants) % len(stream)],
                                i)
            tickets.append(service.query(tenant))
        deadline = time.perf_counter() + 30.0
        for ticket in tickets:
            ticket.wait(max(0.0, deadline - time.perf_counter()))
    finally:
        scheduler.stop()
    latencies = [ticket.answered_at - when
                 for ticket, when in zip(tickets, due)
                 if ticket.answered_at is not None]
    counters = service.counters()
    dropped = (counters["ring_dropped"] + counters["train_tasks_dropped"]
               + len(tickets) - len(latencies))
    return {
        "serve.threaded.query_p50_us":
            float(np.percentile(latencies, 50)) * 1e6,
        "serve.threaded.query_p99_us":
            float(np.percentile(latencies, 99)) * 1e6,
        "serve.threaded.gen_lag_p99_us": float(np.percentile(lag, 99)) * 1e6,
        "serve.threaded.drop_share": dropped / max(1, total),
    }
