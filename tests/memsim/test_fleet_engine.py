"""Fleet-vs-sequential bit-identity for the multi-tenant engine.

A :class:`repro.memsim.fleet.FleetCohort` running N lanes must be
observationally identical to N independent ``simulate()`` calls: the
same :class:`CacheStats` counters, the same miss indices, and — for
learning prefetchers — the same learned weights, and with nonzero
prefetch landing delays.  A cohort runs on the compiled kernels alone,
so its cases skip without them; a case's ``backend`` names the backend
of its ``simulate()`` oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.classic import MarkovPrefetcher, StridePrefetcher
from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.fleet import FleetCohort, FleetLaneSpec, run_cohort
from repro.memsim.prefetcher import NullPrefetcher
from repro.memsim.simulator import SimConfig, SimResult, simulate
from repro.harness.fleet import run_fleet
from repro.nn.backends import available_backends, backend_available
from repro.patterns import PatternSpec, generate
from repro.patterns.trace import Trace

BACKENDS = list(available_backends("sim"))

#: A case that builds a cohort.
needs_c = pytest.mark.skipif(not backend_available("c"),
                             reason="a fleet cohort needs the C backend")

PATTERNS = ("stride", "pointer_chase", "indirect_stride", "pointer_offset")


def _traces(n: int = 2500, working_set: int = 240) -> list:
    return [generate(pattern, PatternSpec(n=n, working_set=working_set,
                                          seed=seed))
            for seed, pattern in enumerate(PATTERNS)]


def _reference(spec: FleetLaneSpec, prefetcher,
               backend: str = "numpy") -> SimResult:
    return simulate(spec.trace, prefetcher, config=spec.config,
                    backend=backend, record_miss_indices=True)


def _assert_matches(got: SimResult, want: SimResult) -> None:
    assert got.stats.as_dict() == want.stats.as_dict()
    assert got.miss_indices == want.miss_indices
    assert got.capacity_pages == want.capacity_pages
    assert got.engine_used == "fleet"


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("delay", [0, 3])
def test_null_fleet_matches_sequential(backend: str, delay: int) -> None:
    config = SimConfig(prefetch_delay_accesses=delay)
    specs = [FleetLaneSpec(trace=t, prefetcher=NullPrefetcher(),
                           config=config) for t in _traces()]
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    assert [r.backend_used for r in results] == ["c"] * len(specs)
    for spec, got in zip(specs, results):
        _assert_matches(got, _reference(spec, NullPrefetcher(), backend))


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_cls_fleet_matches_sequential_including_weights(
        backend: str) -> None:
    """Learning lanes reproduce stats, misses AND learned CLS weights."""
    config = SimConfig(prefetch_delay_accesses=2)
    specs = [FleetLaneSpec(trace=t,
                           prefetcher=CLSPrefetcher(CLSPrefetcherConfig(
                               seed=7)),
                           config=config) for t in _traces(n=1800)]
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    for spec, got in zip(specs, results):
        reference_prefetcher = CLSPrefetcher(CLSPrefetcherConfig(seed=7))
        _assert_matches(got, _reference(spec, reference_prefetcher, backend))
        fleet_model = spec.prefetcher.model
        reference_model = reference_prefetcher.model
        for attr in ("w_in", "w_out"):
            fleet_w = getattr(fleet_model, attr, None)
            if fleet_w is not None:
                assert np.array_equal(fleet_w,
                                      getattr(reference_model, attr))


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("delay", [1, 5])
def test_landing_rounds_match_sequential(backend: str, delay: int) -> None:
    """Lanes with prefetches of several misses in flight at once: a deep
    stride lane (pages past the trace's universe too) and a Markov lane,
    so a step lands several rounds, some redundant, while the landings
    of later misses wait their turn."""
    config = SimConfig(prefetch_delay_accesses=delay, memory_fraction=0.6)
    traces = _traces(n=1500, working_set=120)

    def lane(i: int):
        return StridePrefetcher(degree=6) if i % 2 else MarkovPrefetcher(
            degree=3)

    specs = [FleetLaneSpec(trace=traces[i % len(traces)], prefetcher=lane(i),
                           config=config) for i in range(2 * len(traces))]
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    for i, (spec, got) in enumerate(zip(specs, results)):
        _assert_matches(got, _reference(spec, lane(i), backend))
    assert any(got.stats.prefetches_redundant for got in results)


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_cohort_null_and_learning_lanes(backend: str) -> None:
    """Null and CLS lanes share one cohort without cross-talk (the null
    fast path runs alongside the round loop)."""
    config = SimConfig()
    traces = _traces(n=1500)
    specs = []
    for i, trace in enumerate(traces):
        if i % 2 == 0:
            specs.append(FleetLaneSpec(trace=trace,
                                       prefetcher=NullPrefetcher(),
                                       config=config))
        else:
            specs.append(FleetLaneSpec(
                trace=trace,
                prefetcher=CLSPrefetcher(CLSPrefetcherConfig(seed=3)),
                config=config))
    results = run_cohort(specs, backend="c", record_miss_indices=True)
    for i, (spec, got) in enumerate(zip(specs, results)):
        reference_prefetcher = (NullPrefetcher() if i % 2 == 0 else
                                CLSPrefetcher(CLSPrefetcherConfig(seed=3)))
        _assert_matches(got, _reference(spec, reference_prefetcher, backend))


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_drain_refill_narrow_cohort(backend: str) -> None:
    """More lanes than slots: finished lanes drain and pending specs
    refill their slots; results still map back to spec order."""
    config = SimConfig()
    base = _traces(n=1200)
    # 10 lanes through a width-3 cohort, lengths varied so lanes finish
    # out of order.
    specs = [FleetLaneSpec(trace=base[i % len(base)].slice(
                 0, 600 + 97 * i, name=f"lane{i}"),
                 prefetcher=StridePrefetcher(), config=config)
             for i in range(10)]
    results = run_cohort(specs, backend="c", record_miss_indices=True,
                         width=3)
    assert len(results) == len(specs)
    for spec, got in zip(specs, results):
        assert got.trace_name == spec.trace.name
        _assert_matches(got, _reference(spec, StridePrefetcher(), backend))


@needs_c
def test_rejects_per_access_observers() -> None:
    class Watcher(StridePrefetcher):
        wants_accesses = True

        def on_access(self, event) -> None:
            pass

    trace = _traces(n=600)[0]
    specs = [FleetLaneSpec(trace=trace, prefetcher=Watcher())]
    with pytest.raises(ValueError, match="per-access"):
        run_cohort(specs)


@needs_c
def test_rejects_cls_per_access_observer_with_full_message() -> None:
    """A CLS config with ``observe_hits`` sets ``wants_accesses``, and
    the cohort's rejection renders the actionable remediation text."""
    prefetcher = CLSPrefetcher(CLSPrefetcherConfig(seed=1,
                                                   observe_hits=True))
    assert prefetcher.wants_accesses
    assert not CLSFleetGroup.admits(prefetcher)
    trace = _traces(n=600)[0]
    specs = [FleetLaneSpec(trace=trace, prefetcher=prefetcher)]
    with pytest.raises(ValueError) as excinfo:
        run_cohort(specs)
    assert ("run wants_accesses prefetchers through simulate() instead"
            in str(excinfo.value))


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_an_empty_lane_finishes_like_simulate(backend: str) -> None:
    """A zero-length trace, which simulate() accepts, is a lane that
    finishes at its first step with empty stats and no miss indices —
    alone, and beside live null, stride and stacked-CLS lanes (one of
    them empty too)."""
    empty = Trace(name="empty", addresses=np.zeros(0, np.int64))
    traces = _traces(n=800)

    def cls() -> CLSPrefetcher:
        return CLSPrefetcher(CLSPrefetcherConfig(seed=5))

    lanes = [(empty, StridePrefetcher), (traces[0], NullPrefetcher),
             (traces[1], StridePrefetcher), (traces[2], cls),
             (empty, cls), (traces[3], cls)]
    for cohort_lanes in (lanes[:1], lanes):
        specs = [FleetLaneSpec(trace=trace, prefetcher=make())
                 for trace, make in cohort_lanes]
        results = run_cohort(specs, backend="c", record_miss_indices=True)
        for spec, (trace, make), got in zip(specs, cohort_lanes, results):
            _assert_matches(got, _reference(spec, make(), backend))
            if trace is empty:
                assert got.stats.accesses == 0 and got.miss_indices == []
                for engine in ("auto", "scalar"):
                    want = simulate(empty, make(), spec.config,
                                    record_miss_indices=True,
                                    engine=engine, backend=backend)
                    assert got.stats.as_dict() == want.stats.as_dict()


@needs_c
def test_load_validates_slot_and_trace() -> None:
    trace = _traces(n=600)[0]
    spec = FleetLaneSpec(trace=trace, prefetcher=NullPrefetcher())
    cohort = FleetCohort.for_specs([spec], width=1)
    cohort.load(0, spec)
    with pytest.raises(ValueError, match="still active"):
        cohort.load(0, spec)
    long_spec = FleetLaneSpec(trace=_traces(n=900)[1],
                              prefetcher=NullPrefetcher())
    cohort.run_to_completion()
    with pytest.raises(ValueError, match="outside"):
        cohort.load(0, long_spec)


@needs_c
def test_load_refuses_a_slot_outside_the_cohort() -> None:
    """A negative slot would index a real one from the end."""
    spec = FleetLaneSpec(trace=_traces(n=600)[0], prefetcher=NullPrefetcher())
    cohort = FleetCohort.for_specs([spec], width=2)
    for slot in (-1, 2):
        with pytest.raises(ValueError, match="outside"):
            cohort.load_many([0, slot], [spec, spec])
    assert cohort.active_count() == 0 and cohort.free_slots() == [0, 1]


@needs_c
def test_load_refuses_a_slot_named_twice() -> None:
    """The first of the two lanes would be adopted into its CLS group and
    never released; nothing is adopted."""
    trace = _traces(n=600)[0]
    specs = [FleetLaneSpec(trace=trace, prefetcher=CLSPrefetcher(
        CLSPrefetcherConfig(seed=seed))) for seed in range(2)]
    cohort = FleetCohort.for_specs(specs, width=2)
    with pytest.raises(ValueError, match="more than once"):
        cohort.load_many([1, 1], specs)
    assert cohort.active_count() == 0
    assert not any(group._members for group in cohort._groups)
    cohort.load_many([0, 1], specs)
    assert sum(len(group._members) for group in cohort._groups) == 2


@needs_c
def test_load_refuses_a_slot_whose_result_is_not_harvested() -> None:
    """Loading over a finished lane would drop its result."""
    spec = FleetLaneSpec(trace=_traces(n=600)[0], prefetcher=NullPrefetcher())
    cohort = FleetCohort.for_specs([spec], width=1, backend="c",
                                   record_miss_indices=True)
    cohort.load(0, spec)
    while cohort.active_count():
        cohort.step()
    with pytest.raises(ValueError, match="not yet harvested"):
        cohort.load(0, spec)
    _assert_matches(cohort.harvest(0), _reference(spec, NullPrefetcher()))
    cohort.load(0, spec)


@needs_c
@pytest.mark.parametrize("backend", ["c"])
def test_compiled_and_numpy_fleets_agree(backend: str) -> None:
    """Cross-backend equivalence of the fleet itself (not just vs the
    scalar engine): the compiled cohort == ``run_fleet`` on numpy, which
    is ``simulate()`` per lane."""
    config = SimConfig(prefetch_delay_accesses=1)
    specs = [FleetLaneSpec(trace=t, prefetcher=StridePrefetcher(),
                           config=config) for t in _traces(n=2000)]
    compiled = run_cohort(specs, backend=backend, record_miss_indices=True)
    numpy_specs = [FleetLaneSpec(trace=s.trace,
                                 prefetcher=StridePrefetcher(),
                                 config=config) for s in specs]
    plain = run_fleet(numpy_specs, backend="numpy", record_miss_indices=True)
    assert plain.n_cohorts == 0
    for got, want in zip(compiled, plain.outcomes):
        assert got.stats.as_dict() == want.result.stats.as_dict()
        assert got.miss_indices == want.result.miss_indices


@pytest.mark.parametrize("build", ["constructor", "for_specs"])
def test_a_cohort_needs_the_compiled_kernels(build: str) -> None:
    """On a backend without simulator kernels a cohort is refused before
    it is built, naming what it needs and where such lanes run."""
    spec = FleetLaneSpec(trace=_traces(n=600)[0], prefetcher=NullPrefetcher())
    with pytest.raises(ValueError, match="compiled simulator kernels"
                                         ".*run_fleet.*simulate"):
        if build == "constructor":
            FleetCohort(1, slot_capacity=4, universe_capacity=600,
                        trace_capacity=600, backend="numpy")
        else:
            FleetCohort.for_specs([spec], backend="numpy")
    with pytest.raises(ValueError, match="compiled simulator kernels"):
        run_cohort([spec], backend="numpy")


@needs_c
def test_load_validates_lane_dimensions() -> None:
    """A lane whose cache or page universe outgrows the cohort's rows is
    refused before anything is loaded."""
    trace = _traces(n=600)[1]
    pages = trace.footprint_pages()

    def spec(capacity: int) -> FleetLaneSpec:
        return FleetLaneSpec(trace=trace, prefetcher=NullPrefetcher(),
                             config=SimConfig(capacity_pages=capacity))

    cohort = FleetCohort(1, slot_capacity=4, universe_capacity=pages,
                         trace_capacity=600)
    with pytest.raises(ValueError, match="capacity 5"):
        cohort.load(0, spec(5))
    narrow = FleetCohort(1, slot_capacity=4, universe_capacity=pages - 1,
                         trace_capacity=600)
    with pytest.raises(ValueError, match="universe"):
        narrow.load(0, spec(4))
    assert cohort.active_count() == narrow.active_count() == 0
    cohort.load(0, spec(4))
    with pytest.raises(ValueError, match="positive"):
        FleetCohort(1, slot_capacity=0, universe_capacity=1, trace_capacity=1)


@pytest.mark.parametrize("field", ["max_prefetches_per_miss",
                                   "prefetch_delay_accesses"])
def test_negative_issue_settings_are_refused(field: str) -> None:
    """A negative cap or delay is refused where the config is made, so
    ``simulate()`` on either backend and a cohort never see one (a cap
    of -1 would cut each miss's last prediction in one and make negative
    repeat counts in the other)."""
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: -1})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(SimConfig(), **{field: -1})


@pytest.mark.parametrize("limit", [0, 1])
def test_the_smallest_caps_agree_on_every_driver(limit: int) -> None:
    """Two Hebbian lanes on a pointer chase, cut to at most ``limit``
    prefetches a miss: the cohort (a stacked round, then scalar
    callbacks), ``run_fleet`` on numpy and both ``simulate()`` backends
    agree."""
    config = SimConfig(max_prefetches_per_miss=limit,
                       prefetch_delay_accesses=1)
    trace = _traces(n=1200)[1]

    def cls() -> CLSPrefetcher:
        return CLSPrefetcher(CLSPrefetcherConfig(seed=11))

    want = [simulate(trace, cls(), config, record_miss_indices=True,
                     backend=backend) for backend in BACKENDS]
    for got in want[1:]:
        assert got.stats.as_dict() == want[0].stats.as_dict()
    for backend in BACKENDS:
        for stacked in (True, False):
            specs = [FleetLaneSpec(trace=trace, prefetcher=cls(),
                                   config=config) for _ in range(2)]
            report = run_fleet(specs, backend=backend,
                               record_miss_indices=True, stacked_cls=stacked)
            assert report.n_cohorts == (backend != "numpy")
            for outcome in report.outcomes:
                got = outcome.result
                assert got.stats.as_dict() == want[0].stats.as_dict()
                assert got.miss_indices == want[0].miss_indices
                assert got.engine_used == ("scalar" if backend == "numpy"
                                           else "fleet")
    if limit == 0:
        assert want[0].stats.prefetches_issued == 0


def _sequential(n_pages: int, passes: int, name: str) -> Trace:
    """Pages 0 .. n_pages - 1 in order, ``passes`` times, every third
    access a store: a stride lane predicts past the last page."""
    pages = np.tile(np.arange(n_pages), passes)
    return Trace(name=name, addresses=pages * 4096,
                 kinds=(np.arange(pages.size) % 3 == 0).astype(np.uint8),
                 metadata={"seed": 0})


def _walk(n_pages: int, n: int, seed: int) -> Trace:
    """A random walk with jumps over ``n_pages`` pages, half stores."""
    rng = np.random.default_rng(seed)
    pages = (np.cumsum(rng.integers(-1, 3, size=n))
             + rng.integers(0, 2, size=n) * (n_pages // 2)) % n_pages
    return Trace(name=f"walk{n_pages}", addresses=pages * 4096,
                 kinds=rng.integers(0, 2, size=n).astype(np.uint8),
                 metadata={"seed": seed})


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width", [1, 2])
def test_a_reused_slot_starts_like_a_fresh_simulate(backend: str,
                                                    width: int) -> None:
    """Lanes drain through one or two slots, each refilling a slot freed
    by a lane with a larger universe, cache and victim snapshot, other
    delays, extension cids and prefetches still in flight.  Every lane's
    stats, miss indices and learned weights equal its own simulate() on
    every backend, so no row of the slot's context (slot table, victim
    snapshot, ring, miss count, stats) outlives its lane.  The cohort
    runs on c; ``backend`` is the oracle's."""
    def cls() -> CLSPrefetcher:
        return CLSPrefetcher(CLSPrefetcherConfig(seed=7))

    lanes = [
        (_sequential(200, 3, "wide"), lambda: StridePrefetcher(degree=4),
         SimConfig(capacity_pages=40, prefetch_delay_accesses=6)),
        (_walk(30, 700, 1), cls, SimConfig(capacity_pages=6)),
        (_sequential(90, 4, "mid"), lambda: StridePrefetcher(degree=3),
         SimConfig(capacity_pages=20, prefetch_delay_accesses=3)),
        (_walk(60, 800, 2), cls,
         SimConfig(capacity_pages=10, prefetch_delay_accesses=2)),
        (_walk(12, 500, 3), lambda: StridePrefetcher(degree=2),
         SimConfig(capacity_pages=3, prefetch_delay_accesses=1)),
    ]
    specs = [FleetLaneSpec(trace=trace, prefetcher=make(), config=config)
             for trace, make, config in lanes]
    cohort = FleetCohort.for_specs(specs, width=width, backend="c",
                                   record_miss_indices=True)
    results: dict[int, SimResult] = {}
    for done in cohort.drain(specs):
        for index, result in done:
            results[index] = result
            if index == 0:  # slot 0's first lane, before its refill
                assert cohort._store._ext_of[0]
    for index, (trace, make, config) in enumerate(lanes):
        prefetcher = make()
        want = simulate(trace, prefetcher, config, record_miss_indices=True,
                        backend=backend)
        _assert_matches(results[index], want)
        model = getattr(prefetcher, "model", None)
        if model is not None:
            np.testing.assert_array_equal(
                specs[index].prefetcher.model.w_out, model.w_out)
