"""Names fixed by this benchmark: workloads, end-to-end and per-layer metrics.

Every later performance or simplicity claim in this repository is stated
as "metric M on workload W" using the names declared here.  The
predictions (``moves`` / ``on`` / ``flat_on``) were written down before
any measuring: with nothing contending, a faster layer can save at most
its traced share of the blocking path on its workload.

``BENCHMARK.json`` at the repository root is the driver-facing subset of
this table (its schema admits no extra keys, so predictions, bounds of
workload-specific metrics and frozen sizes live here and in the workload
modules); ``bench/tests/test_schema.py`` keeps the two in agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

SIM_CLASSIC = "sim-classic"
SIM_CLS_HEBBIAN = "sim-cls-hebbian"
SIM_CLS_LSTM = "sim-cls-lstm"
FLEET_CLS_1K = "fleet-cls-1k"
SERVE_LOCKSTEP_64 = "serve-lockstep-64"

#: Workload name -> one-line reason it exists (which layer works, which idles).
WORKLOADS: dict[str, str] = {
    SIM_CLASSIC: (
        "simulate() with null/stride/markov/leap on four app traces: memsim "
        "engines and baselines do all the work, nn and core none"),
    SIM_CLS_HEBBIAN: (
        "simulate() with the Fig. 5 Hebbian CLS prefetcher plus an A-B-A "
        "phased trace: nn.hebbian and the scalar core miss pipeline dominate"),
    SIM_CLS_LSTM: (
        "same driver and pagerank/mcf traces with the LSTM: nn.lstm "
        "dominates, Hebbian kernels idle; the bypass for Hebbian changes"),
    FLEET_CLS_1K: (
        "run_fleet() over 1000 stacked CLS lanes plus 100 null and 100 "
        "stride lanes: the tenant-axis Hebbian kernels under FleetCohort"),
    SERVE_LOCKSTEP_64: (
        "PrefetchService driven single-threaded in lockstep bursts of 64 "
        "tenants: ring, batcher, stage/finish/answer, hot swap, shadow "
        "training; query_p50_us/query_p99_us gate via python -m bench aa"),
}

SIM_WORKLOADS = (SIM_CLASSIC, SIM_CLS_HEBBIAN, SIM_CLS_LSTM)
CLS_WORKLOADS = (SIM_CLS_HEBBIAN, SIM_CLS_LSTM)
ALL = tuple(WORKLOADS)

#: The workloads ``BENCHMARK.json`` hands to the driver.  The driver makes
#: 4 + 22 runs per workload inside 3420 s, so each workload listed shortens
#: every run, and on this host a 15 s window is shorter than the stretches
#: for which the core changes speed while a 22 s one is not
#: (``bench/README.md``, "Noise on this box").  ``sim-cls-lstm`` is the one
#: left to ``python -m bench`` and ``bench aa``: ``sim-classic`` is a second
#: workload on which every Hebbian-kernel change must read flat, and the
#: ``core`` pipeline the LSTM shares is gated on ``sim-cls-hebbian``.
DRIVER_WORKLOADS = (SIM_CLASSIC, SIM_CLS_HEBBIAN, FLEET_CLS_1K,
                    SERVE_LOCKSTEP_64)


@dataclass(frozen=True)
class EndToEnd:
    """One user-visible metric.

    ``bound`` is the share of the parent's median by which the metric may
    worsen before it counts as a regression; ``workloads`` lists where it
    is emitted (absent elsewhere, never zero-filled).  ``contract`` marks
    the ones ``BENCHMARK.json`` carries as ``end_to_end``: every workload
    emits them, they are never zero, and no two of them repeat one noise.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple[str, ...]
    definition: str
    contract: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("events_per_s", "1/s", "higher", 0.25, ALL,
             "simulated accesses (sim-*, fleet-*) or miss events fully "
             "processed incl. shadow training (serve-*) per host wall "
             "second; geometric mean over the workload's cells of events / "
             "that cell's median wall", contract=True),
    EndToEnd("cpu_us_per_event", "us", "lower", 0.25, ALL,
             "process + children CPU time / events; on one thread it is "
             "1 / events_per_s and as noisy, so the driver is handed its "
             "steady factor, cpu_cores_used, in its place"),
    EndToEnd("cpu_cores_used", "cores", "lower", 0.10, ALL,
             "process + children CPU seconds per wall second of the timed "
             "regions (cpu_us_per_event x events_per_s): separates 'faster' "
             "from 'used another core', and host speed cancels out of it",
             contract=True),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, ALL,
             "ru_maxrss of the workload process after the timed repeats",
             contract=True),
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "process start to first timed repeat (warm .so cache, includes "
             "the warm-up pass); median of 3 launches of the setup phase",
             contract=True),
    EndToEnd("misses_removed_pct", "%", "higher", 0.0,
             SIM_WORKLOADS + (FLEET_CLS_1K,),
             "access-weighted percent of null-baseline demand misses "
             "removed (simulated quantity; repeats exactly)"),
    EndToEnd("query_p50_us", "us", "lower", 0.25, (SERVE_LOCKSTEP_64,),
             "query() -> answered, from the service's own ticket "
             "timestamps; median over repeats of the per-repeat p50"),
    EndToEnd("query_p99_us", "us", "lower", 0.25, (SERVE_LOCKSTEP_64,),
             "same, p99 (5 120 queries per repeat, 51 beyond it)"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, ALL,
             "failed / attempted: cells/lanes whose outcome fails "
             "verification, plus ring drops, dropped train tasks, "
             "unanswered or rejected queries"),
)


@dataclass(frozen=True)
class PerLayer:
    """One metric of a single layer (layer = module name prefix).

    ``moves`` is the end-to-end metric it should move, ``on`` the
    workloads where that is predicted, ``flat_on`` the workloads where the
    prediction is no change.  ``contract`` metrics are produced by every
    ``--workload W --trace 1`` run (0 where the layer is idle on W) and
    listed in ``BENCHMARK.json``; the rest need the full ``bench trace``
    (what only ``sim-cls-lstm`` measures, threaded and multi-process
    informational runs, the cold C compile).
    """

    name: str
    unit: str
    better: str
    moves: str
    on: tuple[str, ...]
    flat_on: tuple[str, ...] = ()
    contract: bool = True


_E = "events_per_s"
_NOT_CLASSIC = (SIM_CLS_HEBBIAN, SIM_CLS_LSTM, FLEET_CLS_1K, SERVE_LOCKSTEP_64)

PER_LAYER: tuple[PerLayer, ...] = (
    # bench itself
    PerLayer("bench.trace_overhead_pct", "%", "lower", _E, ALL),
    PerLayer("bench.host_speed", "ratio", "higher", _E, ALL),
    # patterns / harness.trace_cache / nn.backends -> setup_s
    PerLayer("patterns.materialize_s", "s", "lower", "setup_s", ALL),
    PerLayer("harness.trace_cache.cold_s", "s", "lower", "setup_s", SIM_WORKLOADS),
    PerLayer("harness.trace_cache.warm_s", "s", "lower", "setup_s", SIM_WORKLOADS),
    PerLayer("nn.backends.resolve_s", "s", "lower", "setup_s", ALL),
    PerLayer("nn.backends.c_compile_s", "s", "lower", "setup_s", ALL,
        contract=False),
    # memsim
    PerLayer("memsim.simulate.self_ns_per_access", "ns", "lower", _E,
        (SIM_CLASSIC,), CLS_WORKLOADS),
    PerLayer("memsim.simulate.demand_misses", "count", "lower",
        "misses_removed_pct", SIM_WORKLOADS),
    PerLayer("memsim.simulate.span_len_mean", "count", "higher", _E,
        (SIM_CLASSIC,), CLS_WORKLOADS),
    PerLayer("memsim.null_replay.accesses_per_s", "1/s", "higher", _E,
        (SIM_CLASSIC,), _NOT_CLASSIC),
    PerLayer("memsim.pagecache.access_ns", "ns", "lower", _E,
        (SIM_CLASSIC,), _NOT_CLASSIC),
    PerLayer("memsim.pagecache.first_nonresident_ns_per_access", "ns", "lower",
        _E, (SIM_CLASSIC,), _NOT_CLASSIC),
    PerLayer("memsim.pagecache.access_run_ns_per_access", "ns", "lower", _E,
        (SIM_CLASSIC,), _NOT_CLASSIC),
    PerLayer("memsim.pagecache.fill_run_ns_per_page", "ns", "lower", _E,
        (SIM_CLASSIC,), _NOT_CLASSIC),
    PerLayer("memsim.prefetch_queue.issue_landed_ns", "ns", "lower", _E,
        (SIM_CLASSIC,), _NOT_CLASSIC),
    # baselines
    PerLayer("baselines.stride.on_miss_us", "us", "lower", _E, (SIM_CLASSIC,),
        _NOT_CLASSIC),
    PerLayer("baselines.markov.on_miss_us", "us", "lower", _E, (SIM_CLASSIC,),
        _NOT_CLASSIC),
    PerLayer("baselines.leap.on_miss_us", "us", "lower", _E, (SIM_CLASSIC,),
        _NOT_CLASSIC),
    # core (the scalar CLS miss pipeline)
    PerLayer("core.cls.on_miss_us", "us", "lower", _E, CLS_WORKLOADS,
        (SIM_CLASSIC,)),
    PerLayer("core.cls.on_miss_p99_us", "us", "lower", _E, CLS_WORKLOADS,
        (SIM_CLASSIC,)),
    PerLayer("core.cls.self_us", "us", "lower", _E, CLS_WORKLOADS, (SIM_CLASSIC,)),
    PerLayer("core.encoding.observe_ns", "ns", "lower", _E, CLS_WORKLOADS,
        (SIM_CLASSIC,)),
    PerLayer("core.encoding.decode_ns", "ns", "lower", _E, CLS_WORKLOADS,
        (SIM_CLASSIC,)),
    PerLayer("core.replay.record_select_us", "us", "lower", _E, CLS_WORKLOADS,
        (SIM_CLASSIC,)),
    PerLayer("core.cls.trained_steps", "count", "lower", "misses_removed_pct",
        CLS_WORKLOADS),
    PerLayer("core.cls.replayed_pairs", "count", "lower", "misses_removed_pct",
        CLS_WORKLOADS),
    PerLayer("core.cls.prefetches_per_miss", "ratio", "higher",
        "misses_removed_pct", CLS_WORKLOADS),
    PerLayer("core.cls.gated_share", "ratio", "lower", "misses_removed_pct",
        CLS_WORKLOADS),
    PerLayer("core.cls.useful_prefetch_share", "ratio", "higher",
        "misses_removed_pct", CLS_WORKLOADS),
    # core.cls_fleet (the stacked CLS miss pipeline)
    PerLayer("core.cls_fleet.miss_us.n1", "us", "lower", _E, (FLEET_CLS_1K,),
        SIM_WORKLOADS),
    PerLayer("core.cls_fleet.miss_us.n100", "us", "lower", _E, (FLEET_CLS_1K,),
        SIM_WORKLOADS),
    PerLayer("core.cls_fleet.miss_us.n1000", "us", "lower", _E, (FLEET_CLS_1K,),
        SIM_WORKLOADS),
    # the scalar CLSPrefetcher on the same lanes: .n1 / this is N=1 parity
    PerLayer("core.cls_fleet.scalar_miss_us", "us", "lower", _E,
        (FLEET_CLS_1K,), SIM_WORKLOADS),
    # nn.hebbian
    PerLayer("nn.hebbian.step_us", "us", "lower", _E, (SIM_CLS_HEBBIAN,),
        (SIM_CLS_LSTM, SIM_CLASSIC)),
    PerLayer("nn.hebbian.step_infer_us", "us", "lower", _E, (SIM_CLS_HEBBIAN,),
        (SIM_CLS_LSTM, SIM_CLASSIC)),
    PerLayer("nn.hebbian.rollout_us", "us", "lower", _E, (SIM_CLS_HEBBIAN,),
        (SIM_CLS_LSTM, SIM_CLASSIC)),
    PerLayer("nn.hebbian.train_pairs_us_per_pair", "us", "lower", _E,
        (SIM_CLS_HEBBIAN,), (SIM_CLS_LSTM, SIM_CLASSIC)),
    PerLayer("nn.hebbian.clone_us", "us", "lower", "setup_s",
        (SIM_CLS_HEBBIAN, FLEET_CLS_1K), (SIM_CLS_LSTM, SIM_CLASSIC)),
    PerLayer("nn.hebbian.step_us.numpy", "us", "lower", _E, (SIM_CLS_HEBBIAN,),
        (SIM_CLS_LSTM, SIM_CLASSIC)),
    PerLayer("nn.hebbian.step_us.c", "us", "lower", _E, (SIM_CLS_HEBBIAN,),
        (SIM_CLS_LSTM, SIM_CLASSIC)),
    PerLayer("nn.hebbian.step_us.int8", "us", "lower", _E, (SIM_CLS_HEBBIAN,),
        (SIM_CLS_LSTM, SIM_CLASSIC)),
    # nn.lstm
    PerLayer("nn.lstm.step_us", "us", "lower", _E, (SIM_CLS_LSTM,),
        (SIM_CLS_HEBBIAN, SIM_CLASSIC, FLEET_CLS_1K, SERVE_LOCKSTEP_64),
        contract=False),
    PerLayer("nn.lstm.rollout_us", "us", "lower", _E, (SIM_CLS_LSTM,),
        (SIM_CLS_HEBBIAN, SIM_CLASSIC, FLEET_CLS_1K, SERVE_LOCKSTEP_64),
        contract=False),
    PerLayer("nn.lstm.train_pairs_us_per_pair", "us", "lower", _E,
        (SIM_CLS_LSTM,),
        (SIM_CLS_HEBBIAN, SIM_CLASSIC, FLEET_CLS_1K, SERVE_LOCKSTEP_64),
        contract=False),
    # nn.costs — the reproduction result (Table 2 / Fig. 2)
    PerLayer("nn.costs.hebbian_infer_ops", "count", "lower", _E, CLS_WORKLOADS),
    PerLayer("nn.costs.lstm_infer_ops", "count", "lower", _E, CLS_WORKLOADS),
    PerLayer("nn.costs.hebbian_train_ops", "count", "lower", _E, CLS_WORKLOADS),
    PerLayer("nn.costs.lstm_train_ops", "count", "lower", _E, CLS_WORKLOADS),
    PerLayer("nn.costs.modeled_lstm_over_hebbian", "ratio", "higher", _E,
        CLS_WORKLOADS),
    PerLayer("nn.measured_lstm_over_hebbian_step", "ratio", "higher", _E,
        CLS_WORKLOADS),
    PerLayer("nn.measured_lstm_over_hebbian_miss", "ratio", "higher", _E,
        (SIM_CLS_LSTM,), contract=False),
    # nn.hebbian_fleet (tenant-axis kernels)
    PerLayer("nn.hebbian_fleet.step_lanes_us_per_lane.n1", "us", "lower", _E,
        (FLEET_CLS_1K,), SIM_WORKLOADS),
    PerLayer("nn.hebbian_fleet.step_lanes_us_per_lane.n100", "us", "lower", _E,
        (FLEET_CLS_1K,), SIM_WORKLOADS),
    PerLayer("nn.hebbian_fleet.step_lanes_us_per_lane.n1000", "us", "lower", _E,
        (FLEET_CLS_1K,), SIM_WORKLOADS),
    PerLayer("nn.hebbian_fleet.train_pairs_lanes_us_per_pair.n1000", "us",
        "lower", _E, (FLEET_CLS_1K,), SIM_WORKLOADS),
    PerLayer("nn.hebbian_fleet.rollout_lanes_us_per_lane.n64", "us", "lower",
        "query_p50_us", (SERVE_LOCKSTEP_64,), SIM_WORKLOADS),
    PerLayer("nn.hebbian_fleet.rollout_lanes_us_per_lane.n1000", "us", "lower",
        _E, (FLEET_CLS_1K,), SIM_WORKLOADS),
    PerLayer("nn.hebbian_fleet.acquire_release_us", "us", "lower", _E,
        (FLEET_CLS_1K, SERVE_LOCKSTEP_64), SIM_WORKLOADS),
    # memsim.fleet / harness.fleet
    PerLayer("memsim.fleet.load_us_per_lane", "us", "lower", _E, (FLEET_CLS_1K,),
        SIM_WORKLOADS),
    PerLayer("memsim.fleet.step_us_per_event", "us", "lower", _E,
        (FLEET_CLS_1K,), SIM_WORKLOADS),
    PerLayer("memsim.fleet.harvest_us_per_lane", "us", "lower", _E,
        (FLEET_CLS_1K,), SIM_WORKLOADS),
    PerLayer("memsim.fleet.steps", "count", "lower", _E, (FLEET_CLS_1K,)),
    PerLayer("memsim.fleet.active_lanes_per_step_mean", "count", "higher", _E,
        (FLEET_CLS_1K,)),
    PerLayer("harness.fleet.lane_p50_ms", "ms", "lower", _E, (FLEET_CLS_1K,)),
    PerLayer("harness.fleet.lane_p99_ms", "ms", "lower", _E, (FLEET_CLS_1K,)),
    PerLayer("harness.fleet.jobs2_events_per_s", "1/s", "higher", _E,
        (FLEET_CLS_1K,), contract=False),
    # serve
    PerLayer("serve.submit_us", "us", "lower", _E, (SERVE_LOCKSTEP_64,),
        SIM_WORKLOADS),
    PerLayer("serve.stage_us_per_event", "us", "lower", _E, (SERVE_LOCKSTEP_64,),
        SIM_WORKLOADS),
    PerLayer("serve.finish_us_per_event", "us", "lower", _E,
        (SERVE_LOCKSTEP_64,), SIM_WORKLOADS),
    PerLayer("serve.answer_us_per_query", "us", "lower", "query_p50_us",
        (SERVE_LOCKSTEP_64,), SIM_WORKLOADS),
    PerLayer("serve.train_us_per_task", "us", "lower", _E, (SERVE_LOCKSTEP_64,),
        SIM_WORKLOADS),
    PerLayer("serve.train_share", "ratio", "lower", _E, (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.batch_size_mean", "count", "higher", "query_p50_us",
        (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.swaps", "count", "lower", _E, (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.swaps_rejected", "count", "lower", "failed_share",
        (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.swap_pause_p50_us", "us", "lower", _E, (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.swap_pause_p99_us", "us", "lower", "query_p99_us",
        (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.ring_dropped", "count", "lower", "failed_share",
        (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.train_tasks_dropped", "count", "lower", "failed_share",
        (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.query_p50_us", "us", "lower", "query_p50_us",
        (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.query_p99_us", "us", "lower", "query_p99_us",
        (SERVE_LOCKSTEP_64,)),
    PerLayer("serve.threaded.query_p50_us", "us", "lower", "query_p50_us",
        (SERVE_LOCKSTEP_64,), contract=False),
    PerLayer("serve.threaded.query_p99_us", "us", "lower", "query_p99_us",
        (SERVE_LOCKSTEP_64,), contract=False),
    PerLayer("serve.threaded.gen_lag_p99_us", "us", "lower", "query_p99_us",
        (SERVE_LOCKSTEP_64,), contract=False),
    PerLayer("serve.threaded.drop_share", "ratio", "lower", "failed_share",
        (SERVE_LOCKSTEP_64,), contract=False),
    # telemetry
    PerLayer("telemetry.on_overhead_pct", "%", "lower", _E, (SIM_CLS_HEBBIAN,)),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def end_to_end_for(workload: str) -> list[EndToEnd]:
    """The end-to-end metrics ``workload`` emits, in declaration order."""
    return [m for m in END_TO_END if workload in m.workloads]


def benchmark_json(run_seconds: int) -> dict:
    """The driver-facing ``BENCHMARK.json`` derived from this table."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": WORKLOADS[name]}
                      for name in DRIVER_WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound}
                       for m in END_TO_END if m.contract],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER if m.contract],
    }
