"""Shard scheduler and telemetry rollups for fleet simulation.

One run path, two entry points.  :func:`run_fleet` packs live tenant
lanes — each an independent (trace, prefetcher, config) stream — into
vectorized :class:`~repro.memsim.fleet.FleetCohort` shards:

- Lanes are **grouped by their (hashable) ``SimConfig``** so every
  cohort is homogeneous in page size, delay and capacity policy; cohort
  dimensions are sized over the group once.
- Each group runs through a **fixed-width cohort** (``max_width`` slots)
  with drain-and-refill (:meth:`FleetCohort.drain`): a finished lane's
  result is harvested and its slot immediately reloaded from the pending
  queue, so the batched loop stays full until the tail.
- The scheduler records a **per-lane latency proxy** — wall-clock from
  the step boundary a lane was admitted on to the step it finished on
  (lanes share every step's work, so this measures fleet residency, not
  isolated lane cost) — and aggregate events/sec.

:func:`run_fleet_jobs` takes JSON *lane jobs* instead (live specs don't
cross a process boundary cheaply), cuts them into contiguous shards,
runs each shard — :func:`materialize_lane_spec` per job, then
:func:`run_fleet` — through ``run_grid`` and concatenates the shard
reports.  Both return a :class:`FleetReport`; how many processes ran it
shows only in the report's ``jobs`` / ``n_shards``.

Rollups flow out three ways: the returned :class:`FleetReport`, optional
:class:`~repro.telemetry.Telemetry` counters/timers on a caller-provided
sink, and a JSONL manifest (:func:`write_fleet_manifest`) with one
aggregate record plus one per-tenant record.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..baselines import (
    LeapPrefetcher,
    MarkovPrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    StridePrefetcher,
)
from ..core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from ..memsim.fleet import FleetCohort, FleetLaneSpec
from ..memsim.prefetcher import Prefetcher
from ..memsim.simulator import SimConfig, SimResult
from ..nn.backends import resolve_backend
from ..nn.hebbian import SparseHebbianNetwork
from ..patterns.generators import PatternSpec, generate
from ..telemetry import Telemetry
from ..telemetry.manifest import (
    SCHEMA_VERSION,
    environment,
    write_jsonl_atomic,
)
from .models import experiment_hebbian_config
from .runner import resolve_jobs, run_grid

__all__ = ["FleetReport", "LaneOutcome", "materialize_lane_spec",
           "run_fleet", "run_fleet_jobs", "write_fleet_manifest"]


@dataclass(frozen=True)
class LaneOutcome:
    """One tenant lane's result plus its scheduler-side measurements."""

    result: SimResult
    accesses: int
    #: Wall-clock seconds from the lane's admission to the step it
    #: finished on.  A *fleet residency* proxy, not an isolated per-lane
    #: cost — every step advances all co-resident lanes.
    wall_time_s: float


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet run, however many processes ran it."""

    outcomes: list[LaneOutcome] = field(repr=False)
    backend: str
    n_cohorts: int
    wall_time_s: float
    #: Worker processes and lane-job shards (:func:`run_fleet_jobs`).
    jobs: int = 1
    n_shards: int = 1

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
            "n_shards": self.n_shards,
            "jobs": self.jobs,
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
    backend_used = resolve_backend(backend, domain="sim")
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
    for indices in groups.values():
        group = [specs[i] for i in indices]
        cohort = FleetCohort.for_specs(
            group, width=min(len(group), max_width), backend=backend_used,
            record_miss_indices=record_miss_indices,
            stacked_cls=stacked_cls)
        # drain() admits lanes in group order: a cohort's width now, then
        # one per freed slot right after the step that freed it — so
        # admission stamps queue up in group order too.
        admitted_at = [time.perf_counter()] * cohort.width
        for done in cohort.drain(group):
            now = time.perf_counter()
            for position, result in done:
                accesses = len(group[position].trace)
                outcomes[indices[position]] = LaneOutcome(
                    result=result, accesses=accesses,
                    wall_time_s=now - admitted_at[position])
                if telemetry is not None:
                    telemetry.counter("fleet_lanes_completed")
                    telemetry.counter("fleet_accesses", accesses)
            admitted_at.extend([now] * len(done))
    wall = time.perf_counter() - started
    if telemetry is not None:
        telemetry.timers["fleet_wall"] = (
            telemetry.timers.get("fleet_wall", 0.0) + wall)
    final = [o for o in outcomes if o is not None]
    assert len(final) == len(specs)
    return FleetReport(outcomes=final, backend=backend_used,
                       n_cohorts=len(groups), wall_time_s=wall)


def write_fleet_manifest(report: FleetReport,
                         directory: str | Path) -> Path:
    """Write the fleet's JSONL manifest into ``directory``.

    Line 1 is the aggregate ``fleet_manifest`` record (rollup +
    provenance); each following line is one ``fleet_lane`` per-tenant
    record (bulk payloads — full stats, miss indices — stay out).
    Written atomically (tmp + rename), named by a content-free
    timestamp-less scheme — ``fleet-<n_lanes>x-<backend>.jsonl`` for a
    one-process run, ``fleet-<n_lanes>x-<jobs>j-<backend>.jsonl`` for
    more — so reruns of the same shape overwrite.
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
    jobs_tag = f"{report.jobs}j-" if report.jobs > 1 else ""
    path = out_dir / (f"fleet-{report.n_lanes}x-{jobs_tag}"
                      f"{report.backend}.jsonl")
    return write_jsonl_atomic(path, [head, *lanes])


# ----------------------------------------------------------------------
# Lane jobs: the JSON-serializable description of a lane that crosses
# process boundaries (and that `repro fleet` builds for any --jobs).

_LANE_PREFETCHERS: dict[str, Callable[[], Prefetcher]] = {
    "none": NullPrefetcher, "nextline": NextLinePrefetcher,
    "stride": StridePrefetcher, "markov": MarkovPrefetcher,
    "leap": LeapPrefetcher}


def materialize_lane_spec(job: dict, prototypes: dict,
                          backend: str = "auto") -> FleetLaneSpec:
    """Build one live :class:`FleetLaneSpec` from a JSON lane job.

    Job shape::

        {"pattern": str, "n": int, "working_set": int, "seed": int,
         "element_size": int,                        # optional
         "prefetcher": "none" | "nextline" | "stride" | "markov"
                       | "leap" | "cls-hebbian",
         "sim": {...SimConfig kwargs...},            # optional
         "cls": {"vocab": int, "seed": int}}         # cls-hebbian only

    ``element_size`` absent means :class:`PatternSpec`'s default.
    ``prototypes`` is a caller-held cache keyed by the CLS model recipe:
    same-recipe lanes in a shard clone one prototype, so they share
    fixed structures and memo caches (and land in one stacked cohort
    group).
    """
    pattern_spec = PatternSpec(n=int(job["n"]),
                               working_set=int(job.get("working_set", 200)),
                               seed=int(job.get("seed", 0)))
    if "element_size" in job:
        pattern_spec = dataclasses.replace(
            pattern_spec, element_size=int(job["element_size"]))
    trace = generate(job["pattern"], pattern_spec)
    kind = job.get("prefetcher", "none")
    prefetcher: Prefetcher
    if kind in _LANE_PREFETCHERS:
        prefetcher = _LANE_PREFETCHERS[kind]()
    elif kind == "cls-hebbian":
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
    return FleetLaneSpec(trace=trace, prefetcher=prefetcher,
                         config=SimConfig(**job.get("sim", {})))


def _run_fleet_shard(shard: dict) -> FleetReport:
    """One shard's lane jobs, materialized and run in this process.

    Module-level (and one JSON dict in) so ``run_grid`` can hand it to a
    pool worker; the report's dataclasses pickle back as they are.
    """
    prototypes: dict = {}
    specs = [materialize_lane_spec(job, prototypes, backend=shard["backend"])
             for job in shard["lane_jobs"]]
    return run_fleet(specs, backend=shard["backend"],
                     max_width=shard["max_width"],
                     record_miss_indices=shard["record_miss_indices"],
                     stacked_cls=shard["stacked_cls"])


def run_fleet_jobs(lane_jobs: Sequence[dict], *, jobs: int | None = None,
                   backend: str = "auto", max_width: int = 256,
                   record_miss_indices: bool = False,
                   stacked_cls: bool = True) -> FleetReport:
    """Run lane jobs as contiguous shards, one :func:`run_fleet` each.

    ``run_grid`` supplies the process plumbing: :func:`resolve_jobs`
    picks the worker count (CPU-affinity aware), under two workers the
    one shard runs in this process, and an unavailable explicit backend
    fails here rather than inside a pool worker.  Outcomes come back in
    job order and are bit-identical for any ``jobs`` (lanes never share
    learned state, and same-recipe prototypes are rebuilt per shard from
    the same seed); ``wall_time_s`` covers materialization too.

    Args:
        lane_jobs: JSON-serializable lane descriptions (see
            :func:`materialize_lane_spec` for the shape).
        jobs: Worker processes; ``None`` auto-detects.
        backend / max_width / record_miss_indices / stacked_cls: As in
            :func:`run_fleet`, applied to every shard.
    """
    lane_jobs = list(lane_jobs)
    started = time.perf_counter()
    workers = resolve_jobs(jobs, len(lane_jobs))
    cuts = [len(lane_jobs) * i // workers for i in range(workers + 1)]
    shards = [{"lane_jobs": lane_jobs[lo:hi], "backend": backend,
               "max_width": max_width,
               "record_miss_indices": record_miss_indices,
               "stacked_cls": stacked_cls}
              for lo, hi in zip(cuts, cuts[1:])]
    # How lanes are cut follows the worker count, but no cache_dir is
    # passed: run_grid's keys only dedupe equal shards within this call.
    reports = run_grid(  # repro-lint: disable=RL101
        shards, _run_fleet_shard, jobs=workers, backend=backend)
    return FleetReport(
        outcomes=[o for report in reports for o in report.outcomes],
        backend=reports[0].backend,
        n_cohorts=sum(report.n_cohorts for report in reports),
        wall_time_s=time.perf_counter() - started,
        jobs=workers, n_shards=len(shards))
