"""Bit-identity: the compiled engine vs the scalar reference engine.

The batched engine (one C kernel call per demand miss, one per segment
for a null run) must be indistinguishable from the retained per-access
event loop: identical ``CacheStats`` dicts, identical miss indices, and
— because landings interleave at the same access indices and the kernel
returns at every miss — identical prefetcher interaction order, asserted
via the CLS prefetcher's learned weights.  Exercised across the four
Figure 5 application traces with delay ∈ {0, 4}, and with a scripted
prefetcher over the edges of the issue path (delays 0 to 1000,
capacities 1 to above the footprint, an empty trace, addresses near
2**63, telemetry windows on).  The batched engine needs the compiled
kernels, so its cases skip without them; on the numpy backend
``simulate()`` is the scalar engine, and asking for ``"batched"`` there
raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.classic import StridePrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim import NullPrefetcher, SimConfig, simulate, span_length_stats
from repro.memsim.pagecache import PageCache
from repro.memsim.simulator import _CompiledEngine
from repro.nn.backends import available_backends, sim_kernels
from repro.patterns.applications import (
    AppSpec,
    graph500,
    mcf,
    pagerank_graphchi,
    resnet_training,
)
from repro.patterns.trace import Trace
from repro.telemetry import Telemetry

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
    """The compiled engine vs the numpy backend (the scalar reference
    engine): identical stats and miss indices on the full Figure 5
    grid."""
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


# ----------------------------------------------------------------------
# Scripted predictions: every edge of the compiled engine's issue path
# ----------------------------------------------------------------------
class _ScriptedPrefetcher:
    """Cycles through predictions that stress the issue path: the miss
    page itself (dropped), the same page twice, a numpy page and a float
    (issued as its ``int``), the last miss's pages again (still in flight
    under a delay), out-of-universe pages — negative and at or above
    2**50, some fresh every time so the cid table keeps growing — and
    more pages than ``max_prefetches_per_miss`` (cut).  Event path only:
    no ``on_miss_fast``."""

    name = "scripted"

    def __init__(self) -> None:
        self._misses = 0
        self._last: list[int] = []

    def on_miss(self, event) -> list[int]:
        page = event.page
        k = self._misses
        self._misses += 1
        script = (
            [page, page + 1],
            [page + 2, page + 2, page - 1, np.int64(page + 3), page + 4.5],
            self._last,
            [-1 - k % 7, (1 << 50) + k % 11, (1 << 50) + 97 + k, -(k + 100)],
            [page + d for d in range(1, 100)],
            [],
        )
        out = list(script[k % len(script)])
        self._last = out[:3]
        return out


def _scripted_trace(kind: str) -> Trace:
    rng = np.random.default_rng(31)
    if kind == "empty":
        pages = np.zeros(0, dtype=np.int64)
    else:
        # Runs of neighbouring pages with random jumps: predictions of
        # page + d land on pages the trace touches soon, or not at all.
        n = 3000
        pages = (np.cumsum(rng.integers(-2, 4, size=n))
                 + rng.integers(0, 3, size=n) * 40) % 240
        if kind == "high":
            # Addresses just below 2**63 (pages just below 2**51).
            pages = ((1 << 51) - 1) - pages
    return Trace(name=f"scripted-{kind}",
                 addresses=pages.astype(np.int64) * 4096,
                 kinds=rng.integers(0, 2, size=len(pages)),
                 metadata={"seed": 31})


@pytest.mark.parametrize("kind", ["random", "high", "empty"])
@pytest.mark.parametrize("capacity", [1, 16, 1000])
@pytest.mark.parametrize("delay", [0, 1, 4, 64, 1000])
def test_scripted_predictions_match_the_scalar_engine(kind: str,
                                                      capacity: int,
                                                      delay: int):
    """Stats, miss indices and telemetry windows of the compiled engine
    equal the scalar reference's, at capacity 1, a small capacity (LRU
    order decides every victim) and one above the footprint.  Delay 1000
    outgrows the in-flight ring's first size."""
    trace = _scripted_trace(kind)
    config = SimConfig(capacity_pages=capacity,
                       prefetch_delay_accesses=delay)
    runs = []
    for engine, backend in (("scalar", "numpy"), ("batched", None)):
        sink = Telemetry(700)
        result = simulate(trace, _ScriptedPrefetcher(), config,
                          record_miss_indices=True, engine=engine,
                          backend=backend or _compiled(), telemetry=sink)
        runs.append((result, sink))
    (scalar, scalar_sink), (compiled, compiled_sink) = runs
    assert compiled.stats.as_dict() == scalar.stats.as_dict()
    assert compiled.miss_indices == scalar.miss_indices
    assert compiled_sink.windows == scalar_sink.windows
    if kind != "empty":
        assert compiled.stats.prefetches_redundant > 0
        assert compiled.stats.demand_misses > 0


def test_victim_snapshot_persists_across_kernel_calls():
    """The kernel returns at every miss of a non-null run, so a victim
    snapshot refilled per call would cost O(capacity) an eviction.  A
    cyclic trace over capacity + 1 pages evicts at every access; the
    snapshot must advance one entry per eviction across calls."""
    class Silent:  # asked at every miss, predicts nothing
        name = "silent"

        def on_miss(self, event) -> list[int]:
            return []

    capacity = 100
    trace = Trace(name="cyclic",
                  addresses=np.tile(np.arange(capacity + 1), 3) * 4096,
                  metadata={"seed": 0})
    cache = PageCache(capacity_pages=capacity)
    engine = _CompiledEngine(trace, Silent(), _config(0), cache, None,
                             sim_kernels(_compiled()))
    engine.run(0, len(trace))
    evictions = len(trace) - capacity
    assert cache.stats.demand_misses == len(trace)
    # state[7]: entries of the current snapshot consumed so far.
    assert int(engine._state[7]) == (evictions - 1) % 64 + 1
