"""fleet-cls-1k: ``run_fleet()`` over stacked CLS, null and stride lanes.

The BENCH_PR9 shape: prototype-cloned CLS lanes (vocab 24, hidden 64) over
a 16-trace pointer-chase pool with a tight cache (``memory_fraction=0.4``),
all in one process and one cohort — the same Hebbian kernels as
sim-cls-hebbian used along the tenant axis (``step_lanes`` /
``train_pairs_lanes`` / ``rollout_lanes`` under ``FleetCohort`` +
``FleetPageCache``), so a scalar-path gain paid for by the stacked path (or
the reverse) shows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines import NullPrefetcher, StridePrefetcher
from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.harness.fleet import FleetReport, run_fleet
from repro.memsim.fleet import FleetCohort, FleetLaneSpec
from repro.memsim.simulator import SimConfig, SimResult, simulate
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.patterns import PatternSpec, Trace, generate
from repro.seeding import spawn_seeds

from .. import layers
from ..metrics import FLEET_CLS_1K
from ..protocol import Cell, TracedRun, measure
from ..tracing import Tracer
from .sim import scaled

FLEET_CONFIG = SimConfig(memory_fraction=0.4)

#: Frozen sizes at ``--scale 1`` (lane counts scale; lane length does not).
SIZES = {"cls_lanes": 1_000, "null_lanes": 100, "stride_lanes": 100,
         "lane_n": 48, "pool": 16, "working_set": 24,
         "vocab": 24, "hidden": 64, "max_width": 2_048}

#: Model and replay seed of every CLS lane (the workload seed only reaches
#: the trace pool: the program sees nothing but generated inputs).
MODEL_SEED = 5
ORACLE_LANES = 16


def lane_digest(result: SimResult, prefetcher: Any) -> str:
    """One lane's outcome in 8 bytes: CacheStats, miss indices, ``w_out``."""
    h = hashlib.blake2b(digest_size=8)
    h.update(json.dumps(result.stats.as_dict(), sort_keys=True).encode())
    h.update(np.asarray(result.miss_indices, dtype=np.int64).tobytes())
    model = getattr(prefetcher, "model", None)
    if model is not None:
        h.update(np.ascontiguousarray(model.w_out).tobytes())
    return h.hexdigest()


@dataclass
class FleetState:
    specs: list[FleetLaneSpec]
    tracer: Tracer | None
    results: list[SimResult] = dataclasses.field(default_factory=list)
    report: FleetReport | None = None
    active_per_step: list[int] = dataclasses.field(default_factory=list)


class FleetCls1k:
    name = FLEET_CLS_1K

    def setup(self, seed: int, scale: float) -> dict[str, float]:
        self.seed = seed
        self.n_cls = scaled(SIZES["cls_lanes"], scale, 16)
        self.n_null = scaled(SIZES["null_lanes"], scale, 2)
        self.n_stride = scaled(SIZES["stride_lanes"], scale, 2)
        t0 = time.perf_counter()
        self.pool: list[Trace] = [
            generate("pointer_chase",
                     PatternSpec(n=SIZES["lane_n"],
                                 working_set=SIZES["working_set"],
                                 element_size=FLEET_CONFIG.page_size,
                                 seed=trace_seed))
            for trace_seed in spawn_seeds(seed, SIZES["pool"])]
        for trace in self.pool:
            trace.page_index(FLEET_CONFIG.page_size)
        materialize_s = time.perf_counter() - t0
        self.hebbian = HebbianConfig(vocab_size=SIZES["vocab"],
                                     hidden_dim=SIZES["hidden"],
                                     seed=MODEL_SEED)
        self.cls_config = CLSPrefetcherConfig(
            model="hebbian", vocab_size=SIZES["vocab"], hebbian=self.hebbian,
            seed=MODEL_SEED)
        # Never stepped; every lane clones it (shared fixed structures and
        # memo caches, per-lane learned weights).
        self.proto = SparseHebbianNetwork(self.hebbian)
        self.baseline = [simulate(trace, NullPrefetcher(),
                                  FLEET_CONFIG).demand_misses
                         for trace in self.pool]
        return {"patterns.materialize_s": materialize_s}

    def _cls_prefetcher(self) -> CLSPrefetcher:
        return CLSPrefetcher(self.cls_config, model=self.proto.clone())

    def _trace_of(self, lane: int) -> int:
        return lane % len(self.pool)

    def build(self, tracer: Tracer | None = None) -> FleetState:
        makers = ([self._cls_prefetcher] * self.n_cls
                  + [NullPrefetcher] * self.n_null
                  + [StridePrefetcher] * self.n_stride)
        specs = [FleetLaneSpec(trace=self.pool[self._trace_of(lane)],
                               prefetcher=make(), config=FLEET_CONFIG)
                 for lane, make in enumerate(makers)]
        return FleetState(specs, tracer)

    def run(self, state: FleetState) -> list[Cell]:
        events = sum(len(spec.trace) for spec in state.specs)
        if state.tracer is None:
            def one() -> FleetReport:
                return run_fleet(state.specs, backend="auto",
                                 max_width=SIZES["max_width"],
                                 record_miss_indices=True, stacked_cls=True)
            cell, report = measure("fleet", events, one)
            state.report = report
            state.results = [outcome.result for outcome in report.outcomes]
        else:
            cell, results = measure(
                "fleet", events, lambda: self._run_call_by_call(state))
            state.results = results
        return [cell]

    def _run_call_by_call(self, state: FleetState) -> list[SimResult]:
        """``run_fleet``'s drain-and-refill loop, made by the benchmark
        itself so each public ``FleetCohort`` call gets a span."""
        tracer = state.tracer
        assert tracer is not None
        specs = state.specs
        span = {name: tracer.intern(f"memsim.fleet.{name}")
                for name in ("for_specs", "load_many", "step", "harvest")}
        root = tracer.begin(tracer.intern("harness.fleet.run"))
        width = min(len(specs), SIZES["max_width"])
        index = tracer.begin(span["for_specs"])
        cohort = FleetCohort.for_specs(specs, width=width, backend="auto",
                                       record_miss_indices=True,
                                       stacked_cls=True)
        tracer.finish(index)
        results: list[SimResult | None] = [None] * len(specs)
        pending = list(range(len(specs) - 1, -1, -1))
        slot_lane: dict[int, int] = {}

        def refill(slots: list[int]) -> None:
            batch = slots[:len(pending)]
            lanes = [pending.pop() for _ in batch]
            slot_lane.update(zip(batch, lanes))
            tracer.call(span["load_many"], cohort.load_many, batch,
                        [specs[lane] for lane in lanes])
            tracer.count("memsim.fleet.lanes_loaded", len(batch))

        refill(cohort.free_slots())
        while True:
            active = cohort.active_count()
            if not active:
                break
            state.active_per_step.append(active)
            finished = tracer.call(span["step"], cohort.step)
            for slot in finished:
                results[slot_lane.pop(slot)] = tracer.call(
                    span["harvest"], cohort.harvest, slot)
            if pending and finished:
                refill(finished)
        tracer.finish(root)
        return [result for result in results if result is not None]

    def outcome(self, state: FleetState) -> dict:
        lanes = [lane_digest(result, spec.prefetcher)
                 for spec, result in zip(state.specs, state.results)]
        weighted = 0.0
        counted = 0
        for lane, (spec, result) in enumerate(zip(state.specs,
                                                  state.results)):
            if getattr(spec.prefetcher, "is_null", False):
                continue
            base = self.baseline[self._trace_of(lane)]
            weighted += 100.0 * (base - result.demand_misses) / base
            counted += 1
        # Every lane replays the same number of accesses, so the
        # access-weighted mean is the plain mean.
        out = {"lanes": lanes, "units": len(lanes),
               "demand_misses": sum(r.demand_misses for r in state.results),
               "misses_removed_pct": weighted / max(1, counted)}
        if state.report is not None:
            p50, p99 = state.report.lane_latency_percentiles()
            out["timing"] = {"lane_p50_ms": p50 * 1e3,
                             "lane_p99_ms": p99 * 1e3}
        return out

    def float_free(self, outcome: dict) -> dict:
        """The null and stride lanes (the CLS lanes come first)."""
        return {"lanes": outcome["lanes"][self.n_cls:]}

    def verify_sample(self, outcome: dict, seed: int) -> tuple[int, list[str]]:
        """``ORACLE_LANES`` lanes re-run one by one through
        ``simulate(engine="scalar", backend="numpy")``."""
        rng = np.random.default_rng(seed)
        total = self.n_cls + self.n_null + self.n_stride
        picked = rng.choice(total, min(ORACLE_LANES, total), replace=False)
        numpy_config = dataclasses.replace(
            self.cls_config,
            hebbian=dataclasses.replace(self.hebbian, backend="numpy"))
        messages: list[str] = []
        for lane in sorted(int(i) for i in picked):
            if lane < self.n_cls:
                prefetcher: Any = CLSPrefetcher(numpy_config)
            elif lane < self.n_cls + self.n_null:
                prefetcher = NullPrefetcher()
            else:
                prefetcher = StridePrefetcher()
            reference = simulate(self.pool[self._trace_of(lane)], prefetcher,
                                 FLEET_CONFIG, record_miss_indices=True,
                                 engine="scalar", backend="numpy")
            if lane_digest(reference, prefetcher) != outcome["lanes"][lane]:
                messages.append(f"{self.name}/lane{lane}: outcome differs "
                                "from the scalar/numpy oracle")
        return len(picked), messages

    # -- per-layer ------------------------------------------------------------
    def _miss_streams(self, state: FleetState, count: int
                      ) -> list[list[tuple[int, int, int]]]:
        """Recorded (address, page, timestamp) miss streams of CLS lanes."""
        streams = []
        shift = FLEET_CONFIG.page_size.bit_length() - 1
        for spec, result in zip(state.specs[:min(count, self.n_cls)],
                                state.results):
            idx = np.asarray(result.miss_indices, dtype=np.int64)
            addresses = spec.trace.addresses[idx].tolist()
            timestamps = spec.trace.timestamps[idx].tolist()
            streams.append([(a, a >> shift, t)
                            for a, t in zip(addresses, timestamps)])
        return streams

    def _group_miss_us(self, streams: list[list[tuple[int, int, int]]]
                       ) -> float:
        """``CLSFleetGroup.adopt`` + ``handle_misses`` over recorded rounds
        (round r = the r-th miss of every lane that still has one)."""
        prefetchers = [self._cls_prefetcher() for _ in streams]
        misses = sum(len(stream) for stream in streams)
        t0 = time.perf_counter()
        group = CLSFleetGroup(prefetchers[0])
        slots = [group.adopt(p) for p in prefetchers]
        for r in range(max(len(stream) for stream in streams)):
            rows = [(slot, stream[r]) for slot, stream in zip(slots, streams)
                    if r < len(stream)]
            group.handle_misses([slot for slot, _ in rows],
                                [miss[0] for _, miss in rows],
                                [miss[1] for _, miss in rows],
                                [miss[2] for _, miss in rows])
        for slot, prefetcher in zip(slots, prefetchers):
            group.release(slot, prefetcher)
        return (time.perf_counter() - t0) / misses * 1e6

    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        tracer, state = run.tracer, run.traced_state
        out: dict[str, float] = {}
        summary = tracer.summary()
        events = sum(cell.events for cells in run.traced for cell in cells)
        loaded = tracer.counters["memsim.fleet.lanes_loaded"]
        out["memsim.fleet.load_us_per_lane"] = (
            summary["memsim.fleet.load_many"]["total_s"] / loaded * 1e6)
        out["memsim.fleet.step_us_per_event"] = (
            summary["memsim.fleet.step"]["total_s"] / events * 1e6)
        out["memsim.fleet.harvest_us_per_lane"] = (
            summary["memsim.fleet.harvest"]["mean_s"] * 1e6)
        out["memsim.fleet.steps"] = float(len(state.active_per_step))
        out["memsim.fleet.active_lanes_per_step_mean"] = float(
            np.mean(state.active_per_step))
        # run_fleet's own per-lane latency proxy exists only on its path.
        for key in ("lane_p50_ms", "lane_p99_ms"):
            out[f"harness.fleet.{key}"] = float(np.median(
                [timing[key] for timing in run.untraced_timings]))
        streams = self._miss_streams(state, 1_000)
        for n in (1, 100, 1_000):
            if n == 1:
                # One lane at a time over 40 lanes: a fleet of one, 40 times.
                per_lane = [self._group_miss_us([stream])
                            for stream in streams[:40]]
                value = float(np.mean(per_lane))
            else:
                value = self._group_miss_us(streams[:n])
            out[f"core.cls_fleet.miss_us.n{n}"] = value
        scalar_s = 0.0
        scalar_misses = 0
        for stream in streams[:40]:
            on_miss = self._cls_prefetcher().on_miss_fast
            t0 = time.perf_counter()
            for address, page, timestamp in stream:
                on_miss(0, address, page, 0, timestamp)
            scalar_s += time.perf_counter() - t0
            scalar_misses += len(stream)
        out["core.cls_fleet.scalar_miss_us"] = (
            scalar_s / scalar_misses * 1e6)
        out.update(layers.hebbian_fleet_timings(
            self.proto, SIZES["vocab"], step_sizes=(1, 100, 1_000),
            rollout_sizes=(64, 1_000), train_pairs_sizes=(1_000,),
            seed=self.seed))
        out["nn.hebbian.clone_us"] = layers.mean_call_s(
            lambda _: self.proto.clone(), range(300)) * 1e6
        return out
