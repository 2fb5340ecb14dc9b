"""Bit-identity: span-batched engine vs the scalar reference engine.

The batched engine (one compiled hit walk per span) must be
indistinguishable from the retained per-access event loop: identical
``CacheStats`` dicts, identical miss indices, and — because misses stay
scalar and landings interleave at the same access indices — identical
prefetcher interaction order, asserted via the CLS prefetcher's learned
weights.  Exercised across the four Figure 5 application traces with
delay ∈ {0, 4}.  The batched engine needs the compiled kernels, so its
cases skip without them; on the numpy backend ``simulate()`` is the
scalar engine, and asking for ``"batched"`` there raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.classic import StridePrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim import NullPrefetcher, SimConfig, simulate, span_length_stats
from repro.nn.backends import available_backends
from repro.patterns.applications import (
    AppSpec,
    graph500,
    mcf,
    pagerank_graphchi,
    resnet_training,
)
from repro.patterns.trace import Trace

#: PR 6: every available compiled backend must be indistinguishable from
#: the numpy reference on the same grid of workloads.
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


def _config(delay: int) -> SimConfig:
    return SimConfig(memory_fraction=0.5, prefetch_delay_accesses=delay)


def _compiled() -> str:
    """A backend the batched engine runs on; skips the test without one."""
    if not COMPILED:
        pytest.skip("the batched engine needs a compiled backend")
    return COMPILED[0]


def _assert_identical(trace, make_prefetcher, delay: int):
    config = _config(delay)
    batched_pf = make_prefetcher()
    scalar_pf = make_prefetcher()
    batched = simulate(trace, batched_pf, config,
                       record_miss_indices=True, engine="batched",
                       backend=_compiled())
    scalar = simulate(trace, scalar_pf, config,
                      record_miss_indices=True, engine="scalar")
    assert batched.stats.as_dict() == scalar.stats.as_dict()
    assert batched.miss_indices == scalar.miss_indices
    assert batched.capacity_pages == scalar.capacity_pages
    return batched_pf, scalar_pf


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("delay", [0, 4])
def test_null_bit_identical(app: str, delay: int):
    _assert_identical(_trace(app), NullPrefetcher, delay)


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("delay", [0, 4])
def test_stride_bit_identical(app: str, delay: int):
    _assert_identical(_trace(app), StridePrefetcher, delay)


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("delay", [0, 4])
def test_cls_bit_identical_including_learned_weights(app: str, delay: int):
    def make():
        return CLSPrefetcher(CLSPrefetcherConfig(
            model="hebbian", vocab_size=64, observe_hits=False, seed=3))

    batched_pf, scalar_pf = _assert_identical(_trace(app), make, delay)
    np.testing.assert_array_equal(batched_pf.model.w_out, scalar_pf.model.w_out)


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("delay", [0, 4])
def test_compiled_backend_bit_identical_to_numpy(app: str, delay: int,
                                                 backend: str):
    """Compiled null-replay + hit-walk kernels vs the numpy backend (the
    scalar reference engine): identical stats and miss indices on the
    full Figure 5 grid."""
    if backend == "__none__":
        pytest.skip("no compiled backend available in this environment")
    trace = _trace(app)
    config = _config(delay)
    for make in (NullPrefetcher, StridePrefetcher):
        compiled = simulate(trace, make(), config, record_miss_indices=True,
                            backend=backend)
        reference = simulate(trace, make(), config, record_miss_indices=True,
                             backend="numpy")
        assert compiled.stats.as_dict() == reference.stats.as_dict()
        assert compiled.miss_indices == reference.miss_indices
        assert compiled.backend_used == backend


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_compiled_backend_cls_weights_match_numpy(app: str, backend: str):
    """Full CLS pipeline (hebbian kernels + sim kernels live at once):
    the learned weights are bit-identical across backends."""
    if backend == "__none__":
        pytest.skip("no compiled backend available in this environment")

    def make():
        return CLSPrefetcher(CLSPrefetcherConfig(
            model="hebbian", vocab_size=64, observe_hits=False, seed=3))

    trace = _trace(app)
    config = _config(4)
    compiled_pf, reference_pf = make(), make()
    compiled = simulate(trace, compiled_pf, config,
                        record_miss_indices=True, backend=backend)
    reference = simulate(trace, reference_pf, config,
                         record_miss_indices=True, backend="numpy")
    assert compiled.stats.as_dict() == reference.stats.as_dict()
    assert compiled.miss_indices == reference.miss_indices
    np.testing.assert_array_equal(compiled_pf.model.w_out,
                                  reference_pf.model.w_out)


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
def test_compiled_backend_fuzz_random_traces(backend: str):
    """Randomized page streams (uniform, zipf-ish, strided bursts) stay
    bit-identical between the compiled and numpy backends (the batched
    and the scalar engine)."""
    if backend == "__none__":
        pytest.skip("no compiled backend available in this environment")
    rng = np.random.default_rng(77)
    for trial in range(6):
        n = int(rng.integers(3000, 12_000))
        kind = trial % 3
        if kind == 0:
            pages = rng.integers(0, 400, size=n)
        elif kind == 1:
            pages = np.minimum(rng.geometric(0.02, size=n), 500)
        else:
            base = np.repeat(rng.integers(0, 50, size=n // 16 + 1) * 64,
                             16)[:n]
            pages = base + np.tile(np.arange(16), n // 16 + 1)[:n]
        trace = Trace(name=f"fuzz{trial}",
                      addresses=pages.astype(np.int64) * 4096,
                      metadata={"seed": trial})
        for delay, make in ((0, NullPrefetcher), (4, StridePrefetcher)):
            compiled = simulate(trace, make(), _config(delay),
                                record_miss_indices=True, backend=backend)
            reference = simulate(trace, make(), _config(delay),
                                 record_miss_indices=True, backend="numpy")
            assert compiled.stats.as_dict() == reference.stats.as_dict(), \
                f"trial {trial} delay {delay}"
            assert compiled.miss_indices == reference.miss_indices


def test_auto_engine_rejects_batched_for_access_observers():
    observer = CLSPrefetcher(CLSPrefetcherConfig(
        model="hebbian", vocab_size=64, observe_hits=True, seed=3))
    trace = _trace("resnet")
    with pytest.raises(ValueError):
        simulate(trace, observer, _config(0), engine="batched")
    # auto must silently fall back to the scalar engine for observers.
    auto = simulate(trace, observer, _config(0), record_miss_indices=True)
    scalar = simulate(
        trace,
        CLSPrefetcher(CLSPrefetcherConfig(
            model="hebbian", vocab_size=64, observe_hits=True, seed=3)),
        _config(0), record_miss_indices=True, engine="scalar")
    assert auto.stats.as_dict() == scalar.stats.as_dict()
    assert auto.miss_indices == scalar.miss_indices


def test_batched_engine_needs_the_compiled_kernels():
    with pytest.raises(ValueError, match="compiled kernels"):
        simulate(_trace("resnet"), StridePrefetcher(), _config(4),
                 engine="batched", backend="numpy")


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        simulate(_trace("resnet"), NullPrefetcher(), engine="vectorized")


def test_span_length_stats_consistency():
    trace = _trace("resnet")
    stats = span_length_stats(trace, NullPrefetcher(), _config(0))
    result = simulate(trace, NullPrefetcher(), _config(0))
    assert stats["demand_misses"] == result.demand_misses
    assert stats["n_accesses"] == N
    # Spans partition the hit accesses exactly.
    hits = stats["n_accesses"] - stats["demand_misses"]
    assert stats["mean_span"] * stats["n_spans"] == pytest.approx(hits)
