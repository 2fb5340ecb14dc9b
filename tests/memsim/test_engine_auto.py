"""Auto engine selection, the span-length probe, and compiled scans.

PR 4's span-batched engine regressed the always-in-flight workloads
(stride-resnet ran at 0.61x scalar): every access lands in a 1-2 element
span, so batching is pure overhead.  PR 6 adds a cheap bulk probe to
``simulate(engine="auto")`` that measures the steady-state span length
on a trace prefix and picks the scalar engine for short-span workloads.
The batched engine is the compiled hit walk, so the probe runs only with
the compiled kernels; on the numpy backend ``auto`` is the scalar engine,
unprobed.  These tests pin the choice structurally — the probe must send
stride-resnet to the scalar engine and stride-pagerank to the batched
one, and whichever engine ``auto`` picks must be bit-identical to both
pinned engines (so ``auto`` can never do worse than the better of the
two by more than the constant probe cost).

The second half fuzzes the compiled membership scans
(``first_nonresident`` / ``miss_run_length``) against the numpy
reference on randomized cache states.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.classic import StridePrefetcher
from repro.memsim import NullPrefetcher, SimConfig, simulate
from repro.memsim.pagecache import PageCache
from repro.nn.backends import available_backends, sim_kernels
from repro.patterns.applications import (
    AppSpec,
    graph500,
    mcf,
    pagerank_graphchi,
    resnet_training,
)

COMPILED = [b for b in available_backends("sim") if b != "numpy"]

APPS = {
    "resnet": resnet_training,
    "pagerank": pagerank_graphchi,
    "mcf": mcf,
    "graph500": graph500,
}

N = 50_000


def _trace(app: str):
    return APPS[app](AppSpec(n=N, seed=1))


def _config() -> SimConfig:
    return SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)


# ----------------------------------------------------------------------
# The span-length probe (PR 4 regression fix)
# ----------------------------------------------------------------------
def _compiled() -> str:
    """The backend the probe runs on; skips the test without one."""
    if not COMPILED:
        pytest.skip("no compiled backend available in this environment")
    return COMPILED[0]


def _with_null(cases: list[tuple[str, ...]]) -> list:
    """Each case for the stride prefetcher (ids unchanged) and again for
    the null prefetcher, whose compiled replay skips the probe."""
    return ([pytest.param(StridePrefetcher, *case, id="-".join(case))
             for case in cases]
            + [pytest.param(NullPrefetcher, *case,
                            id="-".join(("null",) + case))
               for case in cases])


@pytest.mark.parametrize("make_prefetcher,app",
                         _with_null([("resnet",), ("pagerank",)]))
def test_auto_bit_identical_to_both_pinned_engines(make_prefetcher, app: str):
    backend = _compiled()
    trace = _trace(app)
    auto = simulate(trace, make_prefetcher(), _config(),
                    record_miss_indices=True, backend=backend)
    for engine in ("scalar", "batched"):
        pinned = simulate(trace, make_prefetcher(), _config(),
                          record_miss_indices=True, engine=engine,
                          backend=backend)
        assert auto.stats.as_dict() == pinned.stats.as_dict()
        assert auto.miss_indices == pinned.miss_indices


@pytest.mark.parametrize("make_prefetcher,app", _with_null(
    [(app,) for app in sorted(APPS)]))
def test_auto_on_numpy_is_the_unprobed_scalar_engine(make_prefetcher,
                                                     app: str):
    """Without the kernels there is one engine: ``auto`` reports it and
    equals the pinned scalar run, long spans (pagerank, mcf) included."""
    trace = _trace(app)
    auto = simulate(trace, make_prefetcher(), _config(),
                    record_miss_indices=True, backend="numpy")
    pinned = simulate(trace, make_prefetcher(), _config(),
                      record_miss_indices=True, engine="scalar",
                      backend="numpy")
    assert auto.engine_used == "scalar"
    assert auto.stats.as_dict() == pinned.stats.as_dict()
    assert auto.miss_indices == pinned.miss_indices


def test_probe_skipped_for_small_traces():
    """Below the probe's minimum prefix the auto choice stays batched
    (the probe cannot measure steady state on a cold cache)."""
    trace = resnet_training(AppSpec(n=2000, seed=1))
    result = simulate(trace, StridePrefetcher(), _config(),
                      backend=_compiled())
    assert result.engine_used == "batched"


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("make_prefetcher,app,expected", [
    # spans ~1-2: even compiled dispatch loses
    pytest.param(StridePrefetcher, "resnet", "scalar", id="resnet-scalar"),
    # spans ~8: compiled walks win here
    pytest.param(StridePrefetcher, "graph500", "batched",
                 id="graph500-batched"),
    # long resident runs: spans pay off
    pytest.param(StridePrefetcher, "pagerank", "batched",
                 id="pagerank-batched"),
    pytest.param(StridePrefetcher, "mcf", "batched", id="mcf-batched"),
    # the compiled null replay has no per-span cost: never probed
    pytest.param(NullPrefetcher, "resnet", "batched",
                 id="null-resnet-batched"),
])
def test_compiled_probe_uses_lower_span_threshold(backend: str,
                                                  make_prefetcher, app: str,
                                                  expected: str):
    """The probe's one span threshold is the compiled crossover: a
    compiled span is cheap, but a span of ~1 access still loses to the
    per-access loop."""
    if backend == "__none__":
        pytest.skip("no compiled backend available in this environment")
    result = simulate(_trace(app), make_prefetcher(), _config(),
                      backend=backend)
    assert result.engine_used == expected
    assert result.backend_used == backend


# ----------------------------------------------------------------------
# Compiled membership-scan fuzz vs the numpy reference
# ----------------------------------------------------------------------
def _warmed_pair(backend: str, rng: np.random.Generator,
                 universe_size: int, capacity: int,
                 ) -> tuple[PageCache, PageCache, np.ndarray]:
    universe = np.arange(universe_size, dtype=np.int64)
    ref = PageCache(capacity_pages=capacity)
    fast = PageCache(capacity_pages=capacity)
    for cache in (ref, fast):
        cache.attach_universe(universe)
    fast.attach_kernels(sim_kernels(backend))
    for page in rng.choice(universe_size, size=capacity * 2, replace=True):
        ref.fill(int(page))
        fast.fill(int(page))
    return ref, fast, universe


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
def test_scan_kernels_match_numpy_reference_fuzz(backend: str):
    if backend == "__none__":
        pytest.skip("no compiled backend available in this environment")
    rng = np.random.default_rng(404)
    for trial in range(30):
        universe_size = int(rng.integers(8, 300))
        capacity = int(rng.integers(2, max(3, universe_size // 2)))
        ref, fast, _ = _warmed_pair(backend, rng, universe_size, capacity)
        cids = rng.integers(0, universe_size,
                            size=int(rng.integers(10, 400))).astype(np.int64)
        n = len(cids)
        for _ in range(20):
            start = int(rng.integers(0, n))
            stop = int(rng.integers(start, n)) + 1
            first_ref = ref.first_nonresident(cids, start, stop)
            first_fast = fast.first_nonresident(cids, start, stop)
            assert first_ref == first_fast, (
                f"first_nonresident diverged (trial {trial})")
            if first_ref < stop:
                run_ref = ref.miss_run_length(cids, first_ref, stop)
                run_fast = fast.miss_run_length(cids, first_ref, stop)
                assert run_ref == run_fast, (
                    f"miss_run_length diverged (trial {trial})")
