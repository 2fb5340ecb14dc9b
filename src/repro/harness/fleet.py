"""Lane jobs and the fleet shard scheduler.

A *lane job* is the JSON recipe of one (trace, prefetcher, config) lane
(shape: :func:`materialize_lane_spec`): unlike a live lane it crosses a
process boundary cheaply and keys the result cache.  Every paper cell,
``repro simulate`` and ``repro fleet`` tenant is one, run one of two ways:

- :func:`run_lane_job` runs a job through ``simulate()``; it is the
  ``run_grid`` cell of Figure 5 and the trace-replaying ablations, and
  :func:`run_scored` pairs each job's row with the ``none`` job of its
  trace, which the grid's spec dedupe computes once per trace.
- :func:`run_fleet_jobs` cuts the jobs into contiguous shards and runs
  each shard — :func:`materialize_lane_spec` per job, then
  :func:`run_fleet` — through ``run_grid``, concatenating the reports.

:func:`run_fleet` packs live lanes into vectorized
:class:`~repro.memsim.fleet.FleetCohort` shards: lanes are **grouped by
their (hashable) ``SimConfig``**, each group runs through a
**fixed-width cohort** (``max_width`` slots) whose freed slots refill
from the queue (:meth:`FleetCohort.drain`), so the batched loop stays
full until the tail, and the scheduler records a **per-lane
latency proxy** — wall-clock from the step a lane was admitted on to the
step it finished on (fleet residency, not isolated lane cost) — and
aggregate events/sec.  Rollups flow out as the :class:`FleetReport`
(whose ``jobs`` / ``n_shards`` alone say how many processes ran it),
optional :class:`~repro.telemetry.Telemetry` counters/timers, and a
JSONL manifest (:func:`write_fleet_manifest`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from ..baselines import (
    LeapPrefetcher,
    MarkovPrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    StridePrefetcher,
)
from ..core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from ..core.metrics import PrefetchSummary
from ..memsim.fleet import FleetCohort, FleetLaneSpec
from ..memsim.prefetcher import Prefetcher
from ..memsim.simulator import SimConfig, SimResult, simulate
from ..nn.backends import resolve_backend
from ..nn.hebbian import HebbianConfig, SparseHebbianNetwork
from ..nn.lstm import LSTMConfig
from ..telemetry import Telemetry, configured_dir, maybe_sink
from ..telemetry.manifest import (
    SCHEMA_VERSION,
    environment,
    write_jsonl_atomic,
)
from . import trace_cache
from .models import experiment_hebbian_config, experiment_lstm_config
from .runner import resolve_jobs, run_grid

__all__ = ["FleetReport", "LaneOutcome", "baseline_job", "lane_prefetcher",
           "materialize_lane_spec", "run_fleet", "run_fleet_jobs",
           "run_lane_job", "run_scored", "score", "write_fleet_manifest"]


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
# Lane jobs: the JSON recipe of one simulate() lane.  Every paper cell,
# `repro simulate`, `repro fleet` and run_fleet_jobs build lanes from one.

_BASELINES: dict[str, Callable[..., Prefetcher]] = {
    "none": NullPrefetcher, "nextline": NextLinePrefetcher,
    "stride": StridePrefetcher, "markov": MarkovPrefetcher,
    "leap": LeapPrefetcher}
_CLS_MODELS = {"cls-hebbian": "hebbian", "cls-lstm": "lstm"}
#: The lane-job keys that choose and configure the prefetcher.
_PREFETCHER_KEYS = frozenset({"prefetcher", "args", "cls"})
#: Every lane-job key that is not part of the trace recipe.
_LANE_KEYS = _PREFETCHER_KEYS | {"sim", "miss_indices"}


def lane_prefetcher(job: dict, prototypes: dict | None = None,
                    backend: str = "auto") -> Prefetcher:
    """Build the prefetcher a lane job names (see :func:`materialize_lane_spec`).

    ``prototypes`` is a caller-held cache of Hebbian networks keyed by
    their config: same-recipe lanes clone one prototype, so they share
    fixed structures and memo caches (and land in one stacked cohort
    group).  ``None`` builds every network from its config.  An explicit
    ``backend`` is written into the Hebbian config.
    """
    kind = job.get("prefetcher", "none")
    if kind in _BASELINES:
        if "cls" in job:
            raise ValueError(f"a {kind!r} lane takes no 'cls' recipe")
        return _BASELINES[kind](**job.get("args", {}))
    if kind not in _CLS_MODELS:
        raise ValueError(f"unknown lane-job prefetcher {kind!r}")
    if "args" in job:
        raise ValueError(f"a {kind!r} lane is configured by its 'cls' recipe")
    model = _CLS_MODELS[kind]
    overrides = dict(job.get("cls", {}))
    vocab = overrides.pop("vocab", 256)
    seed = overrides.pop("seed", job.get("seed", 0))
    model_cfg: HebbianConfig | LSTMConfig
    if model == "hebbian":
        model_cfg = experiment_hebbian_config(vocab, seed)
        if backend != "auto":
            model_cfg = dataclasses.replace(model_cfg, backend=backend)
    else:
        model_cfg = experiment_lstm_config(vocab, seed)
    overrides[model] = model_cfg
    config = CLSPrefetcherConfig(model=model, vocab_size=vocab, seed=seed,
                                 **overrides)
    if prototypes is None or not isinstance(model_cfg, HebbianConfig):
        return CLSPrefetcher(config)
    prototype = prototypes.get(model_cfg)
    if prototype is None:
        prototype = prototypes[model_cfg] = SparseHebbianNetwork(model_cfg)
    return CLSPrefetcher(config, model=prototype.clone())


def materialize_lane_spec(job: dict, prototypes: dict | None = None,
                          backend: str = "auto") -> FleetLaneSpec:
    """Build one live :class:`FleetLaneSpec` from a JSON lane job.

    Job shape — a trace recipe (``harness.trace_cache``; its keys sit at
    the top level of the job) plus::

        {"prefetcher": "none" | "nextline" | "stride" | "markov" | "leap"
                       | "cls-hebbian" | "cls-lstm",   # default "none"
         "args": {...},        # baseline constructor kwargs
         "cls": {"vocab": int, "seed": int,            # cls-* only
                 ...CLSPrefetcherConfig overrides},
         "sim": {...SimConfig kwargs...},
         "miss_indices": bool} # run_lane_job: keep the miss indices

    A CLS lane runs ``experiment_<model>_config(vocab, seed)`` with the
    overrides on top; ``vocab`` defaults to 256 and ``seed`` to the
    job's ``seed``.  Unknown keys raise, and the trace goes through
    :func:`trace_cache.materialize`, so a configured trace cache serves
    it.  ``prototypes`` / ``backend``: as in :func:`lane_prefetcher`.
    """
    recipe = {key: value for key, value in job.items()
              if key not in _LANE_KEYS}
    return FleetLaneSpec(trace=trace_cache.materialize(recipe),
                         prefetcher=lane_prefetcher(job, prototypes, backend),
                         config=SimConfig(**job.get("sim", {})))


def run_lane_job(job: dict) -> dict:
    """Run one lane job through ``simulate()``; the ``run_grid`` cell.

    The row holds the run's names and ``CacheStats.as_dict()``; a CLS
    lane adds ``"cls"`` (its ``CLSPrefetcherStats``, its training
    policy's name / trained / considered and its ``RecallStats``), and
    ``"miss_indices"`` comes when the job asks.  With a telemetry
    directory configured (``run_grid(telemetry_dir=...)``) the run is
    observed and its series written there, outside the job's cache key.
    """
    lane = materialize_lane_spec(job)
    sink = maybe_sink()
    run = simulate(lane.trace, lane.prefetcher, lane.config,
                   record_miss_indices=job.get("miss_indices", False),
                   telemetry=sink)
    if sink is not None:
        out_dir = configured_dir()
        assert out_dir is not None
        sink.write(out_dir)
    row = {"trace_name": run.trace_name,
           "prefetcher_name": run.prefetcher_name, **run.stats.as_dict()}
    prefetcher = lane.prefetcher
    if isinstance(prefetcher, CLSPrefetcher):
        policy = prefetcher.training_policy
        row["cls"] = {
            "stats": dataclasses.asdict(prefetcher.stats),
            "training": {"policy": policy.name, "trained": policy.trained,
                         "considered": policy.considered},
            "recall": dataclasses.asdict(prefetcher.recall_stats)}
    if job.get("miss_indices", False):
        row["miss_indices"] = run.miss_indices
    return row


def baseline_job(job: dict) -> dict:
    """The ``none`` job on ``job``'s trace and simulator config."""
    return {**{key: value for key, value in job.items()
               if key not in _PREFETCHER_KEYS}, "prefetcher": "none"}


def run_scored(lane_jobs: Sequence[dict],
               **grid: Any) -> list[tuple[dict, dict]]:
    """Run each lane job and its :func:`baseline_job` through ``run_grid``
    (``grid`` is its keyword arguments); one ``(row, baseline row)`` pair
    per job.  Jobs on one trace and config share one baseline job, which
    the spec dedupe (and ``cache_dir``) computes once."""
    lane_jobs = list(lane_jobs)
    rows = run_grid([*lane_jobs, *map(baseline_job, lane_jobs)],
                    run_lane_job, **grid)
    return list(zip(rows, rows[len(lane_jobs):]))


def score(row: dict, baseline: dict) -> PrefetchSummary:
    """Figure 5's metric for a lane row against its baseline row."""
    return PrefetchSummary(row["trace_name"], row["prefetcher_name"],
                           baseline["demand_misses"], row["demand_misses"],
                           row["prefetch_accuracy"], row["coverage"])


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
