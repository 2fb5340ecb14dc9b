"""Shard scheduler and telemetry rollups for fleet simulation.

:func:`run_fleet` packs an arbitrary number of tenant lanes — each an
independent (trace, prefetcher, config) stream — into vectorized
:class:`~repro.memsim.fleet.FleetCohort` shards:

- Lanes are **grouped by their (hashable) ``SimConfig``** so every
  cohort is homogeneous in page size, delay and capacity policy; cohort
  dimensions are sized over the group once.
- Each group runs through a **fixed-width cohort** (``max_width`` slots)
  with drain-and-refill: a finished lane's result is harvested and its
  slot immediately reloaded from the pending queue, so the batched loop
  stays full until the tail.
- The scheduler records a **per-lane latency proxy** — wall-clock from a
  lane's load to the step on which it finished (step-boundary
  resolution; lanes share every step's work, so this measures fleet
  residency, not isolated lane cost) — and aggregate events/sec.

Rollups flow out three ways: the returned :class:`FleetReport`, optional
:class:`~repro.telemetry.Telemetry` counters/timers on a caller-provided
sink, and a JSONL manifest (:func:`write_fleet_manifest`) with one
aggregate record plus one per-tenant record.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..memsim.fleet import FleetCohort, FleetLaneSpec
from ..memsim.simulator import SimConfig, SimResult
from ..telemetry import Telemetry
from ..telemetry.manifest import (
    SCHEMA_VERSION,
    environment,
    write_jsonl_atomic,
)
from .runner import _init_worker, resolve_jobs

__all__ = ["FleetJobsReport", "FleetReport", "LaneOutcome",
           "materialize_lane_spec", "run_fleet", "run_fleet_jobs",
           "write_fleet_jobs_manifest", "write_fleet_manifest"]


@dataclass(frozen=True)
class LaneOutcome:
    """One tenant lane's result plus its scheduler-side measurements."""

    result: SimResult
    accesses: int
    #: Wall-clock seconds from the lane's load to the step it finished
    #: on.  A *fleet residency* proxy, not an isolated per-lane cost —
    #: every step advances all co-resident lanes.
    wall_time_s: float


@dataclass
class FleetReport:
    """Aggregate outcome of one :func:`run_fleet` invocation."""

    outcomes: list[LaneOutcome] = field(repr=False)
    backend: str
    n_cohorts: int
    wall_time_s: float

    @property
    def n_lanes(self) -> int:
        return len(self.outcomes)

    @property
    def total_accesses(self) -> int:
        return sum(o.accesses for o in self.outcomes)

    @property
    def events_per_sec(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.total_accesses / self.wall_time_s

    def lane_latency_percentiles(self) -> tuple[float, float]:
        """(p50, p99) of the per-lane latency proxy, in seconds."""
        if not self.outcomes:
            return (0.0, 0.0)
        latencies = np.array([o.wall_time_s for o in self.outcomes])
        return (float(np.percentile(latencies, 50)),
                float(np.percentile(latencies, 99)))

    def rollup(self) -> dict:
        """JSON-ready aggregate summary (the manifest's headline record)."""
        p50, p99 = self.lane_latency_percentiles()
        return {
            "n_lanes": self.n_lanes,
            "n_cohorts": self.n_cohorts,
            "backend": self.backend,
            "total_accesses": self.total_accesses,
            "wall_time_s": round(self.wall_time_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "lane_latency_p50_s": round(p50, 6),
            "lane_latency_p99_s": round(p99, 6),
        }


def run_fleet(specs: Sequence[FleetLaneSpec], *, backend: str = "auto",
              max_width: int = 256, record_miss_indices: bool = False,
              stacked_cls: bool = True,
              telemetry: Telemetry | None = None) -> FleetReport:
    """Run every lane spec through config-grouped vectorized cohorts.

    Results come back in spec order and are bit-identical to running
    each spec through ``simulate()`` on its own (the fleet engine's
    contract; see ``tests/memsim/test_fleet_engine.py``).

    Args:
        specs: One entry per tenant lane.  Prefetcher instances must not
            be shared between lanes.
        backend: Kernel backend for the fleet walks (as in ``simulate``).
        max_width: Cohort slot count; lanes beyond it queue and refill
            freed slots.  Memory per cohort scales with
            ``width * max_trace_len``.
        record_miss_indices: Keep per-lane miss indices in the results.
        stacked_cls: Let cohorts batch same-config CLS lanes through the
            stacked Hebbian path (``False`` keeps the scalar per-miss
            path; both are bit-identical — this is the zero-regression
            escape hatch).
        telemetry: Optional sink; receives ``fleet_lanes_completed`` /
            ``fleet_accesses`` counters and a ``fleet_wall`` timer.
    """
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    outcomes: list[LaneOutcome | None] = [None] * len(specs)
    # Bucket by config identity first (no dataclass hash per lane — specs
    # overwhelmingly share config instances), then merge equal-but-
    # distinct configs so cohort grouping stays semantic.
    by_id: dict[int, tuple[SimConfig, list[int]]] = {}
    for index, spec in enumerate(specs):
        entry = by_id.get(id(spec.config))
        if entry is None:
            entry = (spec.config, [])
            by_id[id(spec.config)] = entry
        entry[1].append(index)
    groups: dict[SimConfig, list[int]] = {}
    for config, bucket in by_id.values():
        groups.setdefault(config, []).extend(bucket)

    started = time.perf_counter()
    n_cohorts = 0
    backend_used = backend
    for indices in groups.values():
        group = [specs[i] for i in indices]
        cohort = FleetCohort.for_specs(
            group, width=min(len(group), max_width), backend=backend,
            record_miss_indices=record_miss_indices,
            stacked_cls=stacked_cls)
        backend_used = cohort.backend_used
        n_cohorts += 1
        pending = list(zip(indices, group))
        pending.reverse()
        slot_spec: dict[int, int] = {}
        load_at: dict[int, float] = {}

        def refill(slots: list[int]) -> None:
            batch_slots: list[int] = []
            batch_specs: list[FleetLaneSpec] = []
            for slot in slots:
                if not pending:
                    break
                index, spec = pending.pop()
                slot_spec[slot] = index
                batch_slots.append(slot)
                batch_specs.append(spec)
            # One batched load per step: slot-vector writes and cache
            # resets amortize across the refill batch (the per-lane load
            # cost is the fleet's throughput floor at scale).
            cohort.load_many(batch_slots, batch_specs)
            stamp = time.perf_counter()
            for slot in batch_slots:
                load_at[slot] = stamp

        refill(cohort.free_slots())
        while cohort.active_count():
            finished = cohort.step()
            now = time.perf_counter()
            for slot in finished:
                index = slot_spec.pop(slot)
                result = cohort.harvest(slot)
                accesses = len(specs[index].trace)
                outcomes[index] = LaneOutcome(
                    result=result, accesses=accesses,
                    wall_time_s=now - load_at.pop(slot))
                if telemetry is not None:
                    telemetry.counter("fleet_lanes_completed")
                    telemetry.counter("fleet_accesses", accesses)
            if pending and finished:
                refill(finished)
    wall = time.perf_counter() - started
    if telemetry is not None:
        telemetry.timers["fleet_wall"] = (
            telemetry.timers.get("fleet_wall", 0.0) + wall)
    final = [o for o in outcomes if o is not None]
    assert len(final) == len(specs)
    return FleetReport(outcomes=final, backend=backend_used,
                       n_cohorts=n_cohorts, wall_time_s=wall)


def write_fleet_manifest(report: FleetReport,
                         directory: str | Path) -> Path:
    """Write the fleet's JSONL manifest into ``directory``.

    Line 1 is the aggregate ``fleet_manifest`` record (rollup +
    provenance); each following line is one ``fleet_lane`` per-tenant
    record.  Written atomically (tmp + rename), named by a content-free
    timestamp-less scheme: ``fleet-<n_lanes>x-<backend>.jsonl`` —
    reruns of the same shape overwrite.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    head = {
        "record": "fleet_manifest",
        "schema_version": SCHEMA_VERSION,
        **report.rollup(),
        "env": environment(),
    }
    lanes = []
    for outcome in report.outcomes:
        result = outcome.result
        lanes.append({
            "record": "fleet_lane",
            "trace": result.trace_name,
            "prefetcher": result.prefetcher_name,
            "capacity_pages": result.capacity_pages,
            "accesses": outcome.accesses,
            "demand_misses": result.stats.demand_misses,
            "prefetch_hits": result.stats.prefetch_hits,
            "wall_time_s": round(outcome.wall_time_s, 6),
        })
    path = out_dir / f"fleet-{report.n_lanes}x-{report.backend}.jsonl"
    return write_jsonl_atomic(path, [head, *lanes])


# ----------------------------------------------------------------------
# Cross-process cohort sharding.
#
# Live lane specs (trace arrays, stateful prefetchers) don't cross a
# process boundary cheaply, so the sharded entry point takes
# JSON-serializable *lane jobs* and each worker materializes its shard's
# specs locally — the same recipe the CLI uses, so `repro fleet --jobs N`
# and `--jobs 1` build identical lanes.


@dataclass
class FleetJobsReport:
    """Aggregate outcome of one :func:`run_fleet_jobs` invocation.

    ``lanes`` holds one JSON-ready per-tenant rollup dict per job, in
    job order (each carries the full ``CacheStats`` under ``"stats"``
    plus the scheduler-side ``accesses``/``wall_time_s`` measurements).
    """

    lanes: list[dict] = field(repr=False)
    backend: str
    jobs: int
    n_shards: int
    wall_time_s: float

    @property
    def n_lanes(self) -> int:
        return len(self.lanes)

    @property
    def total_accesses(self) -> int:
        return sum(lane["accesses"] for lane in self.lanes)

    @property
    def events_per_sec(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.total_accesses / self.wall_time_s

    def lane_latency_percentiles(self) -> tuple[float, float]:
        """(p50, p99) of the per-lane latency proxy, in seconds."""
        if not self.lanes:
            return (0.0, 0.0)
        latencies = np.array([lane["wall_time_s"] for lane in self.lanes])
        return (float(np.percentile(latencies, 50)),
                float(np.percentile(latencies, 99)))

    def rollup(self) -> dict:
        """JSON-ready aggregate summary (the manifest's headline record)."""
        p50, p99 = self.lane_latency_percentiles()
        return {
            "n_lanes": self.n_lanes,
            "n_shards": self.n_shards,
            "jobs": self.jobs,
            "backend": self.backend,
            "total_accesses": self.total_accesses,
            "wall_time_s": round(self.wall_time_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "lane_latency_p50_s": round(p50, 6),
            "lane_latency_p99_s": round(p99, 6),
        }


def materialize_lane_spec(job: dict, prototypes: dict,
                          backend: str = "auto") -> FleetLaneSpec:
    """Build one live :class:`FleetLaneSpec` from a JSON lane job.

    Job shape::

        {"pattern": str, "n": int, "working_set": int, "seed": int,
         "prefetcher": "none" | "nextline" | "stride" | "markov"
                       | "leap" | "cls-hebbian",
         "sim": {...SimConfig kwargs...},            # optional
         "cls": {"vocab": int, "seed": int}}         # cls-hebbian only

    ``prototypes`` is a caller-held cache keyed by the CLS model recipe:
    same-recipe lanes in a shard clone one prototype, so they share
    fixed structures and memo caches exactly like the CLI's lane
    builder (and land in one stacked cohort group).
    """
    from ..patterns.generators import PatternSpec, generate

    trace = generate(job["pattern"], PatternSpec(
        n=int(job["n"]), working_set=int(job.get("working_set", 200)),
        seed=int(job.get("seed", 0))))
    config = SimConfig(**job.get("sim", {}))
    kind = job.get("prefetcher", "none")
    if kind == "none":
        from ..memsim.prefetcher import NullPrefetcher

        prefetcher: object = NullPrefetcher()
    elif kind == "nextline":
        from ..baselines import NextLinePrefetcher

        prefetcher = NextLinePrefetcher()
    elif kind == "stride":
        from ..baselines import StridePrefetcher

        prefetcher = StridePrefetcher()
    elif kind == "markov":
        from ..baselines import MarkovPrefetcher

        prefetcher = MarkovPrefetcher()
    elif kind == "leap":
        from ..baselines import LeapPrefetcher

        prefetcher = LeapPrefetcher()
    elif kind == "cls-hebbian":
        from ..core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
        from ..nn.hebbian import SparseHebbianNetwork
        from .models import experiment_hebbian_config

        cls_job = job.get("cls", {})
        vocab = int(cls_job.get("vocab", 256))
        cls_seed = int(cls_job.get("seed", job.get("seed", 0)))
        key = (vocab, cls_seed, backend)
        prototype = prototypes.get(key)
        if prototype is None:
            hebbian_cfg = experiment_hebbian_config(vocab, cls_seed)
            if backend != "auto":
                hebbian_cfg = dataclasses.replace(hebbian_cfg,
                                                  backend=backend)
            prototype = SparseHebbianNetwork(hebbian_cfg)
            prototypes[key] = prototype
        prefetcher = CLSPrefetcher(CLSPrefetcherConfig(
            model="hebbian", vocab_size=vocab,
            hebbian=prototype.config, seed=cls_seed),
            model=prototype.clone())
    else:
        raise ValueError(f"unknown lane-job prefetcher {kind!r}")
    return FleetLaneSpec(trace=trace, prefetcher=prefetcher,  # type: ignore[arg-type]
                         config=config)


def _run_fleet_shard(shard_jobs: list[dict], backend: str, max_width: int,
                     record_miss_indices: bool,
                     stacked_cls: bool) -> dict:
    """One shard's worth of lane jobs, run in-process; returns rollups.

    Module-level so it pickles to pool workers.  The returned dict is
    plain JSON-ready data — per-tenant ``LaneOutcome`` rollups stream
    back over the pool's result pipe, never live simulator objects.
    """
    prototypes: dict = {}
    specs = [materialize_lane_spec(job, prototypes, backend=backend)
             for job in shard_jobs]
    report = run_fleet(specs, backend=backend, max_width=max_width,
                       record_miss_indices=record_miss_indices,
                       stacked_cls=stacked_cls)
    lanes = []
    for outcome in report.outcomes:
        result = outcome.result
        lane = {
            "record": "fleet_lane",
            "trace": result.trace_name,
            "prefetcher": result.prefetcher_name,
            "capacity_pages": result.capacity_pages,
            "accesses": outcome.accesses,
            "demand_misses": result.stats.demand_misses,
            "prefetch_hits": result.stats.prefetch_hits,
            "wall_time_s": round(outcome.wall_time_s, 6),
            "stats": result.stats.as_dict(),
        }
        if record_miss_indices:
            lane["miss_indices"] = list(result.miss_indices)
        lanes.append(lane)
    return {"backend": report.backend, "lanes": lanes}


def run_fleet_jobs(lane_jobs: Sequence[dict], *, jobs: int | None = None,
                   backend: str = "auto", max_width: int = 256,
                   record_miss_indices: bool = False,
                   stacked_cls: bool = True,
                   trace_cache_dir: str | Path | None = None,
                   telemetry_dir: str | Path | None = None,
                   telemetry_interval: int | None = None
                   ) -> FleetJobsReport:
    """Shard lane jobs across worker processes, one cohort run per shard.

    Reuses ``run_grid``'s worker plumbing: :func:`resolve_jobs` picks
    the worker count (CPU-affinity aware; anything under two means run
    serially in-process) and ``_init_worker`` re-establishes each
    worker's ambient state — trace cache, telemetry sink, kernel
    backend — exactly as grid cells get it.  Jobs shard contiguously so
    the flattened per-lane rollups come back in job order; per-shard
    results are bit-identical to a single-process run (each shard is
    just :func:`run_fleet` over its own lanes, and lanes never share
    state).

    Args:
        lane_jobs: JSON-serializable lane descriptions (see
            :func:`materialize_lane_spec` for the shape).
        jobs: Worker processes; ``None`` auto-detects.
        backend: Kernel backend, resolved fail-fast in the caller.
        stacked_cls: As in :func:`run_fleet`.
        trace_cache_dir / telemetry_dir / telemetry_interval: Ambient
            per-process state, plumbed like ``run_grid``.
    """
    from ..nn import backends

    if backend != "auto":
        # Fail in the caller, not inside a pool worker.
        backends.resolve_backend(backend)
    lane_jobs = list(lane_jobs)
    started = time.perf_counter()
    workers = resolve_jobs(jobs, len(lane_jobs)) if lane_jobs else 1
    if workers > 1:
        base, extra = divmod(len(lane_jobs), workers)
        shards: list[list[dict]] = []
        pos = 0
        for index in range(workers):
            size = base + (1 if index < extra else 0)
            if size:
                shards.append(lane_jobs[pos:pos + size])
                pos += size
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                str(trace_cache_dir)
                if trace_cache_dir is not None else None,
                str(telemetry_dir)
                if telemetry_dir is not None else None,
                telemetry_interval,
                backend,
            ))
        with pool:
            futures = [pool.submit(_run_fleet_shard, shard, backend,
                                   max_width, record_miss_indices,
                                   stacked_cls)
                       for shard in shards]
            shard_results = [future.result() for future in futures]
        lanes = [lane for shard_result in shard_results
                 for lane in shard_result["lanes"]]
        backend_used = (shard_results[0]["backend"] if shard_results
                        else backend)
        n_shards = len(shards)
    else:
        # Serial fallback: bracket the ambient state around the loop the
        # same way run_grid's serial path does (backend is passed
        # explicitly to the shard, so only trace cache and telemetry are
        # ambient here).
        from . import trace_cache
        from .. import telemetry as telemetry_mod

        prev_trace = (trace_cache.configure(trace_cache_dir)
                      if trace_cache_dir is not None else None)
        prev_telemetry = (telemetry_mod.configure(telemetry_dir,
                                                  telemetry_interval)
                          if telemetry_dir is not None else None)
        try:
            shard_result = _run_fleet_shard(lane_jobs, backend, max_width,
                                            record_miss_indices,
                                            stacked_cls)
        finally:
            if trace_cache_dir is not None:
                trace_cache.configure(prev_trace)
            if telemetry_dir is not None:
                telemetry_mod.configure(prev_telemetry)
        lanes = shard_result["lanes"]
        backend_used = shard_result["backend"]
        n_shards = 1
    wall = time.perf_counter() - started
    return FleetJobsReport(lanes=lanes, backend=backend_used,
                           jobs=workers, n_shards=n_shards,
                           wall_time_s=wall)


def write_fleet_jobs_manifest(report: FleetJobsReport,
                              directory: str | Path) -> Path:
    """Write a sharded run's single aggregated JSONL manifest.

    Same schema as :func:`write_fleet_manifest` — one
    ``fleet_manifest`` head (rollup grows ``jobs``/``n_shards``) plus
    one ``fleet_lane`` record per tenant, regardless of how many
    processes produced them.  Named
    ``fleet-<n_lanes>x-<jobs>j-<backend>.jsonl``.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    head = {
        "record": "fleet_manifest",
        "schema_version": SCHEMA_VERSION,
        **report.rollup(),
        "env": environment(),
    }
    lanes = [{key: value for key, value in lane.items()
              if key not in ("stats", "miss_indices")}
             for lane in report.lanes]
    path = (out_dir / f"fleet-{report.n_lanes}x-{report.jobs}j-"
            f"{report.backend}.jsonl")
    return write_jsonl_atomic(path, [head, *lanes])
