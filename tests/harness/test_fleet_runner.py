"""The fleet shard scheduler: grouping, refill, rollups, manifests."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.baselines.classic import StridePrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.harness.fleet import (
    FleetReport,
    lane_prefetcher,
    materialize_lane_spec,
    run_fleet,
    run_fleet_jobs,
    run_lane_job,
    write_fleet_manifest,
)
from repro.harness.models import experiment_hebbian_config, experiment_lstm_config
from repro.harness.runner import run_grid
from repro.memsim.fleet import FleetLaneSpec
from repro.memsim.pagecache import CacheStats
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.backends import available_backends
from repro.nn.hebbian import SparseHebbianNetwork
from repro.patterns import PatternSpec, generate
from repro.telemetry import Telemetry

PATTERNS = ("stride", "indirect_stride", "pointer_offset")


def _specs(n_lanes: int, config: SimConfig, n: int = 1200) -> list:
    return [FleetLaneSpec(
        trace=generate(PATTERNS[i % len(PATTERNS)],
                       PatternSpec(n=n, working_set=160, seed=i)),
        prefetcher=StridePrefetcher(), config=config)
        for i in range(n_lanes)]


def test_mixed_configs_group_into_separate_cohorts() -> None:
    """Lanes with different SimConfigs run in different cohorts, and
    every lane still matches its sequential reference."""
    fast = SimConfig()
    delayed = SimConfig(prefetch_delay_accesses=4)
    specs = _specs(3, fast) + _specs(3, delayed)
    report = run_fleet(specs, max_width=2, record_miss_indices=True)
    assert report.n_cohorts == 2
    assert report.n_lanes == 6
    for spec, outcome in zip(specs, report.outcomes):
        reference = simulate(spec.trace, StridePrefetcher(),
                             config=spec.config, backend="numpy",
                             record_miss_indices=True)
        assert outcome.result.stats.as_dict() == reference.stats.as_dict()
        assert outcome.result.miss_indices == reference.miss_indices
        assert outcome.result.trace_name == spec.trace.name
        assert outcome.accesses == len(spec.trace)
        assert outcome.wall_time_s >= 0.0


def test_rollup_and_telemetry_counters() -> None:
    sink = Telemetry()
    specs = _specs(5, SimConfig())
    report = run_fleet(specs, max_width=3, telemetry=sink)
    rollup = report.rollup()
    assert rollup["n_lanes"] == 5
    assert rollup["total_accesses"] == sum(len(s.trace) for s in specs)
    assert rollup["events_per_sec"] > 0
    assert rollup["lane_latency_p99_s"] >= rollup["lane_latency_p50_s"] >= 0
    assert sink.counters["fleet_lanes_completed"] == 5
    assert sink.counters["fleet_accesses"] == rollup["total_accesses"]
    assert sink.timers["fleet_wall"] > 0


def test_manifest_jsonl_round_trip(tmp_path) -> None:
    specs = _specs(4, SimConfig())
    report = run_fleet(specs, max_width=2)
    path = write_fleet_manifest(report, tmp_path)
    lines = [json.loads(line)
             for line in path.read_text().strip().splitlines()]
    head, lanes = lines[0], lines[1:]
    assert head["record"] == "fleet_manifest"
    assert head["n_lanes"] == 4
    assert "env" in head and "python" in head["env"]
    assert len(lanes) == 4
    for spec, lane in zip(specs, lanes):
        assert lane["record"] == "fleet_lane"
        assert lane["trace"] == spec.trace.name
        assert lane["accesses"] == len(spec.trace)


def test_rejects_nonpositive_width() -> None:
    with pytest.raises(ValueError):
        run_fleet(_specs(1, SimConfig()), max_width=0)


def test_injected_model_clone_matches_config_built() -> None:
    """CLSPrefetcher(model=prototype.clone()) — the fleet's cheap lane
    construction — behaves bit-identically to building from config."""
    trace = generate("stride", PatternSpec(n=1500, working_set=200,
                                           seed=3))
    config = CLSPrefetcherConfig(seed=9)
    prototype = config.build_model()
    assert isinstance(prototype, SparseHebbianNetwork)
    injected = CLSPrefetcher(config, model=prototype.clone())
    built = CLSPrefetcher(config)
    sim_cfg = SimConfig()
    got = simulate(trace, injected, config=sim_cfg, backend="numpy",
                   record_miss_indices=True)
    want = simulate(trace, built, config=sim_cfg, backend="numpy",
                    record_miss_indices=True)
    assert got.stats.as_dict() == want.stats.as_dict()
    assert got.miss_indices == want.miss_indices


def test_fleet_cls_lanes_from_one_prototype() -> None:
    """run_fleet with prototype-cloned CLS lanes reproduces independent
    simulate() runs lane for lane."""
    cls_config = CLSPrefetcherConfig(seed=5)
    prototype = cls_config.build_model()
    traces = [generate(p, PatternSpec(n=1200, working_set=160, seed=i))
              for i, p in enumerate(PATTERNS)]
    sim_cfg = SimConfig()
    specs = [FleetLaneSpec(
        trace=t,
        prefetcher=CLSPrefetcher(cls_config, model=prototype.clone()),
        config=sim_cfg) for t in traces]
    report = run_fleet(specs)
    for trace, outcome in zip(traces, report.outcomes):
        reference = simulate(trace, CLSPrefetcher(cls_config),
                             config=sim_cfg, backend="numpy")
        assert (outcome.result.stats.as_dict()
                == reference.stats.as_dict())


# ----------------------------------------------------------------------
# Cross-process sharding (run_fleet_jobs).


def _lane_jobs(n_lanes: int, *, learned_every: int = 3) -> list[dict]:
    jobs = []
    for i in range(n_lanes):
        job: dict = {"pattern": PATTERNS[i % len(PATTERNS)], "n": 500,
                     "working_set": 80, "seed": i, "prefetcher": "stride",
                     "sim": {"prefetch_delay_accesses": 1}}
        if i % learned_every == 0:
            job["prefetcher"] = "cls-hebbian"
            job["cls"] = {"vocab": 48, "seed": 4}
        jobs.append(job)
    return jobs


def test_materialize_lane_spec_matches_inline_recipe() -> None:
    """A materialized CLS lane equals a hand-built one, and same-recipe
    lanes share one prototype (that lanes differing only in ``seed``
    share a stacked fleet group is
    ``test_the_group_key_names_every_constant_of_a_round``)."""
    prototypes: dict = {}
    job = _lane_jobs(1)[0]
    spec = materialize_lane_spec(job, prototypes)
    twin = materialize_lane_spec(job, prototypes)
    assert len(prototypes) == 1
    assert isinstance(spec.prefetcher, CLSPrefetcher)
    assert isinstance(twin.prefetcher, CLSPrefetcher)
    assert spec.config.prefetch_delay_accesses == 1
    reference = simulate(spec.trace, spec.prefetcher, config=spec.config,
                         backend="numpy")
    want = simulate(twin.trace, twin.prefetcher, config=twin.config,
                    backend="numpy")
    assert reference.stats.as_dict() == want.stats.as_dict()
    with pytest.raises(ValueError, match="unknown lane-job prefetcher"):
        materialize_lane_spec({"pattern": "stride", "n": 100,
                               "prefetcher": "bogus"}, {})


def test_fleet_jobs_sharded_matches_serial() -> None:
    """jobs=2 pooled outcomes are bit-identical to the serial run, in
    job order, for mixed stride + learned lanes."""
    lane_jobs = _lane_jobs(6)
    serial = run_fleet_jobs(lane_jobs, jobs=1, backend="numpy",
                            record_miss_indices=True)
    sharded = run_fleet_jobs(lane_jobs, jobs=2, backend="numpy",
                             record_miss_indices=True)
    assert serial.n_shards == 1 and serial.jobs == 1
    assert sharded.n_shards == 2 and sharded.jobs == 2
    assert serial.n_lanes == sharded.n_lanes == 6
    for lane_a, lane_b in zip(serial.outcomes, sharded.outcomes):
        assert lane_a.accesses == lane_b.accesses
        assert lane_a.result == lane_b.result
    # And both match per-lane simulate() references.
    prototypes: dict = {}
    for index, job in enumerate(lane_jobs):
        lane = serial.outcomes[index]
        spec = materialize_lane_spec(job, prototypes, backend="numpy")
        reference = simulate(spec.trace, spec.prefetcher,
                             config=spec.config, backend="numpy",
                             record_miss_indices=True)
        assert lane.result.stats.as_dict() == reference.stats.as_dict()
        assert lane.result.miss_indices == reference.miss_indices


def test_fleet_jobs_scalar_escape_hatch_identical() -> None:
    """stacked_cls=False yields the same outcomes (zero-regression)."""
    lane_jobs = _lane_jobs(4, learned_every=2)
    stacked = run_fleet_jobs(lane_jobs, jobs=1, backend="numpy")
    scalar = run_fleet_jobs(lane_jobs, jobs=1, backend="numpy",
                            stacked_cls=False)
    for lane_a, lane_b in zip(stacked.outcomes, scalar.outcomes):
        assert lane_a.result.stats == lane_b.result.stats


def _manifest(report, directory) -> tuple[str, dict, list[dict]]:
    path = write_fleet_manifest(report, directory)
    lines = [json.loads(line)
             for line in path.read_text().strip().splitlines()]
    return path.name, lines[0], lines[1:]


def test_fleet_jobs_manifest_round_trip(tmp_path) -> None:
    lane_jobs = _lane_jobs(4)
    report = run_fleet_jobs(lane_jobs, jobs=2, backend="numpy",
                            record_miss_indices=True)
    name, head, lanes = _manifest(report, tmp_path)
    assert name == "fleet-4x-2j-numpy.jsonl"
    assert head["record"] == "fleet_manifest"
    assert head["n_lanes"] == 4
    assert head["jobs"] == 2
    assert head["n_shards"] == 2
    assert "env" in head and "python" in head["env"]
    assert len(lanes) == 4
    for lane in lanes:
        assert lane["record"] == "fleet_lane"
        # Bulk payloads stay out of the manifest.
        assert "stats" not in lane and "miss_indices" not in lane


def test_report_and_manifest_do_not_depend_on_jobs(tmp_path) -> None:
    """One process or two: same report type, same manifest head keys,
    same ``fleet_lane`` records apart from the wall-clock proxy."""
    lane_jobs = _lane_jobs(5)
    one = run_fleet_jobs(lane_jobs, jobs=1, backend="numpy")
    two = run_fleet_jobs(lane_jobs, jobs=2, backend="numpy")
    assert type(one) is type(two) is FleetReport
    assert (one.jobs, two.jobs) == (1, 2)
    name_one, head_one, lanes_one = _manifest(one, tmp_path)
    name_two, head_two, lanes_two = _manifest(two, tmp_path)
    assert name_one == "fleet-5x-numpy.jsonl"
    assert name_two == "fleet-5x-2j-numpy.jsonl"
    assert head_one.keys() == head_two.keys()
    assert {"n_cohorts", "n_shards", "jobs"} <= head_one.keys()
    for lane in lanes_one + lanes_two:
        del lane["wall_time_s"]
    assert lanes_one == lanes_two


def test_empty_fleet_reports_a_resolved_backend() -> None:
    for report in (run_fleet([]), run_fleet_jobs([], jobs=2)):
        assert report.backend in available_backends("sim")
        assert report.jobs == report.n_shards == 1
        assert report.n_lanes == 0 and report.outcomes == []


def test_lane_job_element_size_is_optional() -> None:
    """Absent means PatternSpec's default; the CLI's jobs carry 4096."""
    job = {"pattern": "stride", "n": 300, "working_set": 200,
           "sim": {"memory_fraction": 0.5}}
    small = materialize_lane_spec(job, {})
    paged = materialize_lane_spec({**job, "element_size": 4096}, {})
    default = generate("stride", PatternSpec(n=300, working_set=200))
    assert (small.trace.addresses == default.addresses).all()
    assert paged.config.resolve_capacity(paged.trace) == 100


def test_one_job_shape_two_executions() -> None:
    """The same lane jobs (null, stride and cls-hebbian lanes) give the
    same per-lane CacheStats through the cohort (run_fleet_jobs) and
    through simulate() (run_grid over run_lane_job)."""
    lane_jobs = _lane_jobs(6)
    lane_jobs[1] = {**lane_jobs[1], "prefetcher": "none"}
    assert {job["prefetcher"] for job in lane_jobs} == {
        "none", "stride", "cls-hebbian"}
    fleet = run_fleet_jobs(lane_jobs, jobs=1, backend="numpy",
                           record_miss_indices=True)
    rows = run_grid([{**job, "miss_indices": True} for job in lane_jobs],
                    run_lane_job, jobs=1)
    for outcome, row in zip(fleet.outcomes, rows):
        assert outcome.result.stats == CacheStats(
            **{f.name: row[f.name] for f in dataclasses.fields(CacheStats)})
        assert outcome.result.miss_indices == row["miss_indices"]
        assert outcome.result.prefetcher_name == row["prefetcher_name"]


def test_lane_jobs_reject_unknown_keys() -> None:
    base = {"pattern": "stride", "n": 100}
    bad_jobs = [
        {**base, "prefetchr": "stride"},                       # typo: trace key
        {**base, "prefetcher": "stride", "cls": {"vocab": 8}},  # cls on a baseline
        {**base, "prefetcher": "cls-hebbian", "args": {"degree": 2}},
        {**base, "prefetcher": "cls-hebbian", "cls": {"vocab_size": 8}},
        {**base, "prefetcher": "cls-lstm", "cls": {"encodr": "page"}},
        {"app": "mcf", "pattern": "stride", "n": 100},          # two sources
        {"interleave": [base, base]},                           # no mixing seed
        {"concat": [base, {**base, "working_sets": 4}]},        # nested typo
    ]
    for job in bad_jobs:
        with pytest.raises((TypeError, ValueError)):
            materialize_lane_spec(job)


def test_cls_recipe_overrides_the_experiment_config() -> None:
    """A CLS recipe is experiment_<model>_config(vocab, seed) with the
    CLSPrefetcherConfig overrides on top; a baseline takes its args."""
    lstm = lane_prefetcher({"prefetcher": "cls-lstm", "cls": {
        "vocab": 64, "seed": 2, "encoder": "page", "prefetch_length": 3,
        "recall": True}})
    assert isinstance(lstm, CLSPrefetcher)
    assert lstm.config.lstm == experiment_lstm_config(64, 2)
    assert (lstm.config.encoder, lstm.config.prefetch_length,
            lstm.config.recall, lstm.config.seed) == ("page", 3, True, 2)
    hebbian = lane_prefetcher({"prefetcher": "cls-hebbian", "seed": 7,
                               "cls": {"vocab": 32}}, backend="numpy")
    assert isinstance(hebbian, CLSPrefetcher)
    assert hebbian.config.hebbian == dataclasses.replace(
        experiment_hebbian_config(32, 7), backend="numpy")
    stride = lane_prefetcher({"prefetcher": "stride", "args": {"degree": 3}})
    assert isinstance(stride, StridePrefetcher) and stride.degree == 3
