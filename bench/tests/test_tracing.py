"""The outside-only instruments must not change what they measure."""

from __future__ import annotations

import numpy as np
import pytest

from bench import layers
from bench.tracing import TimedModel, TimedPrefetcher, Tracer
from bench.workloads.sim import SIM_CONFIG
from repro.baselines import LeapPrefetcher, MarkovPrefetcher, StridePrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher
from repro.harness.fig5 import Fig5Config, make_model_prefetcher
from repro.memsim.simulator import simulate, span_length_stats
from repro.patterns import AppSpec, generate_application


def _trace(app: str, n: int = 6_000):
    return generate_application(app, AppSpec(n=n, seed=3))


@pytest.mark.parametrize("app", ["resnet", "pagerank", "graph500"])
@pytest.mark.parametrize("factory", [StridePrefetcher, MarkovPrefetcher,
                                     LeapPrefetcher])
def test_timed_prefetcher_keeps_engine_and_outcome(app, factory) -> None:
    trace = _trace(app)
    plain = simulate(trace, factory(), SIM_CONFIG, record_miss_indices=True)
    tracer = Tracer()
    proxied = simulate(trace, TimedPrefetcher(factory(), tracer, "on_miss"),
                       SIM_CONFIG, record_miss_indices=True)
    assert proxied.engine_used == plain.engine_used
    assert proxied.stats.as_dict() == plain.stats.as_dict()
    assert proxied.miss_indices == plain.miss_indices
    assert proxied.prefetcher_name == plain.prefetcher_name
    assert len(tracer.durations("on_miss")) == plain.demand_misses


@pytest.mark.parametrize("model", ["hebbian", "lstm"])
def test_timed_model_keeps_outcome_and_weights(model) -> None:
    trace = _trace("graph500", 3_000)
    proto = make_model_prefetcher(model, Fig5Config())
    plain_prefetcher = CLSPrefetcher(proto.config, model=proto.model.clone())
    plain = simulate(trace, plain_prefetcher, SIM_CONFIG,
                     record_miss_indices=True)
    tracer = Tracer()
    inner = CLSPrefetcher(proto.config,
                          model=TimedModel(proto.model.clone(), tracer, "nn"))
    proxied = simulate(trace, TimedPrefetcher(inner, tracer, "on_miss"),
                       SIM_CONFIG, record_miss_indices=True)
    assert proxied.engine_used == plain.engine_used
    assert proxied.stats.as_dict() == plain.stats.as_dict()
    assert proxied.miss_indices == plain.miss_indices
    assert inner.stats == plain_prefetcher.stats
    if model == "hebbian":
        assert np.array_equal(inner.model.w_out, plain_prefetcher.model.w_out)
    else:
        for key, value in plain_prefetcher.model.net.params.items():
            assert np.array_equal(inner.model.net.params[key], value)
    # Model spans nest inside the on_miss spans that caused them.
    name, _, self_time, _ = tracer.arrays()
    on_miss = tracer.names.index("on_miss")
    parents = {tracer.name_id[p] for p in tracer.parent if p >= 0}
    assert parents == {on_miss}
    assert (self_time[name == on_miss] >= 0).all()


def test_proxy_hides_nothing_the_engine_probes() -> None:
    class EventOnly:
        name = "event-only"

        def on_miss(self, event):
            return []

    proxy = TimedPrefetcher(EventOnly(), Tracer(), "on_miss")
    assert getattr(proxy, "on_miss_fast", None) is None
    assert getattr(proxy, "on_access", None) is None
    assert getattr(proxy, "is_null", False) is False
    timed = TimedPrefetcher(StridePrefetcher(), Tracer(), "on_miss")
    assert getattr(timed, "on_miss_fast", None) is not None
    assert timed.name == "stride2"


def test_self_time_is_duration_minus_children() -> None:
    tracer = Tracer()
    outer, inner = tracer.intern("outer"), tracer.intern("inner")
    a = tracer.begin(outer)
    b = tracer.begin(inner)
    tracer.finish(b)
    c = tracer.begin(inner)
    tracer.finish(c)
    tracer.finish(a)
    _, duration, self_time, _ = tracer.arrays()
    assert self_time[a] == pytest.approx(duration[a] - duration[b]
                                         - duration[c])
    assert tracer.parent == [-1, a, a]
    summary = tracer.summary()
    assert summary["inner"]["count"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(self_time[a])


def test_span_len_mean_is_span_length_stats() -> None:
    trace = _trace("graph500")
    result = simulate(trace, StridePrefetcher(), SIM_CONFIG,
                      record_miss_indices=True)
    stats = span_length_stats(trace, StridePrefetcher(), SIM_CONFIG)
    assert layers.span_len_mean([(len(trace), result.miss_indices)]) \
        == pytest.approx(stats["mean_span"])
