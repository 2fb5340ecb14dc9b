"""Differential suite: telemetry must never perturb the simulation.

Two claims, pinned across the four Figure 5 applications (the null
replay additionally on a uniform-random trace whose scattered misses
defeat span batching):

- **engine parity under observation** — the scalar and span-batched
  engines with an *enabled* sink produce identical ``CacheStats``,
  identical miss indices, and byte-identical windowed series (the
  segmented engines stop at the same boundaries, so every window delta
  agrees).  The batched engine is the compiled hit walk, so its cases
  skip without a compiled backend.
- **observation is free of side effects** — a run with telemetry ON is
  bit-identical to the same run with telemetry OFF: stats, miss indices,
  and every learned CLS weight array (``_probs_buf`` is excluded: it is
  write-before-read scratch and differs even between two identical
  unobserved runs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim import NullPrefetcher, SimConfig, simulate
from repro.nn.backends import available_backends
from repro.patterns.applications import (
    AppSpec,
    graph500,
    mcf,
    pagerank_graphchi,
    resnet_training,
)
from repro.patterns.trace import Trace
from repro.telemetry import Telemetry

APPS = {
    "resnet": resnet_training,
    "pagerank": pagerank_graphchi,
    "mcf": mcf,
    "graph500": graph500,
}

N = 20_000
INTERVAL = 1500  # deliberately not a divisor of N: last window is ragged


def _trace(app: str) -> Trace:
    return APPS[app](AppSpec(n=N, seed=1))


def _cls() -> CLSPrefetcher:
    return CLSPrefetcher(CLSPrefetcherConfig(
        model="hebbian", vocab_size=64, observe_hits=False, seed=3))


def _config() -> SimConfig:
    return SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)


def _backend(engine: str) -> str:
    """The backend ``engine`` runs on: the batched engine needs compiled
    kernels (the test skips without them); the scalar engine uses none."""
    if engine == "scalar":
        return "numpy"
    compiled = [b for b in available_backends("sim") if b != "numpy"]
    if not compiled:
        pytest.skip("the batched engine needs a compiled backend")
    return compiled[0]


def _weight_arrays(prefetcher: CLSPrefetcher) -> dict[str, np.ndarray]:
    """Every learned/stateful model array except write-only scratch."""
    return {name: value for name, value in vars(prefetcher.model).items()
            if isinstance(value, np.ndarray) and name != "_probs_buf"}


@pytest.mark.parametrize("app", sorted(APPS))
def test_windowed_series_identical_across_engines(app: str):
    trace = _trace(app)
    sink_b, sink_s = Telemetry(INTERVAL), Telemetry(INTERVAL)
    batched = simulate(trace, _cls(), _config(), record_miss_indices=True,
                       engine="batched", backend=_backend("batched"),
                       telemetry=sink_b)
    scalar = simulate(trace, _cls(), _config(), record_miss_indices=True,
                      engine="scalar", telemetry=sink_s)
    assert batched.stats.as_dict() == scalar.stats.as_dict()
    assert batched.miss_indices == scalar.miss_indices
    assert sink_b.windows == sink_s.windows
    assert sink_b.run_id() == sink_s.run_id()
    assert len(sink_b.windows) == -(-N // INTERVAL)
    assert sink_b.manifest()["engine"] == "batched"
    assert sink_s.manifest()["engine"] == "scalar"


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_observation_is_bit_identical_to_unobserved(app: str, engine: str):
    trace = _trace(app)
    backend = _backend(engine)
    observed_pf, bare_pf = _cls(), _cls()
    sink = Telemetry(INTERVAL)
    observed = simulate(trace, observed_pf, _config(),
                        record_miss_indices=True, engine=engine,
                        backend=backend, telemetry=sink)
    bare = simulate(trace, bare_pf, _config(),
                    record_miss_indices=True, engine=engine, backend=backend)
    assert observed.stats.as_dict() == bare.stats.as_dict()
    assert observed.miss_indices == bare.miss_indices
    assert observed.capacity_pages == bare.capacity_pages
    observed_w, bare_w = _weight_arrays(observed_pf), _weight_arrays(bare_pf)
    assert observed_w.keys() == bare_w.keys()
    for name, array in observed_w.items():
        np.testing.assert_array_equal(array, bare_w[name], err_msg=name)
    # The sink really observed the run while changing nothing.
    assert sum(w["accesses"] for w in sink.windows) == N
    assert sum(w["demand_misses"] for w in sink.windows) \
        == bare.stats.demand_misses


def _uniform_random() -> Trace:
    rng = np.random.default_rng(7)
    addresses = rng.integers(0, 4_000, size=N).astype(np.int64) * 4096
    return Trace(name="uniform_random", addresses=addresses,
                 metadata={"seed": 7})


@pytest.mark.parametrize("app", sorted(APPS) + ["uniform"])
def test_null_replay_engine_windows_match_scalar(app: str):
    """Null runs agree with the scalar reference — stats, miss indices
    and telemetry windows — under every engine choice and backend that
    runs it (``batched`` needs the compiled kernels)."""
    trace = _uniform_random() if app == "uniform" else _trace(app)
    sink_s = Telemetry(INTERVAL)
    scalar = simulate(trace, NullPrefetcher(), _config(),
                      record_miss_indices=True, engine="scalar",
                      backend="numpy", telemetry=sink_s)
    for backend in available_backends("sim"):
        for engine in ("auto", "batched") if backend != "numpy" else ("auto",):
            sink = Telemetry(INTERVAL)
            run = simulate(trace, NullPrefetcher(), _config(),
                           record_miss_indices=True, engine=engine,
                           backend=backend, telemetry=sink)
            assert run.stats.as_dict() == scalar.stats.as_dict()
            assert run.miss_indices == scalar.miss_indices
            assert sink.windows == sink_s.windows
