"""Edge pins: every driver of ``simulate()``'s per-access loop agrees at
the edges of the address space and of the cache.

Two inputs — a one-page cache, and a trace shifted so its largest
address is ``2**63 - 1`` — replayed against the stride, Markov and Leap
baselines and the Fig. 5 Hebbian CLS prefetcher through three drivers:
the scalar reference engine, the batched (compiled) engine, and
``run_fleet`` (a cohort, whose CLS lanes are stacked).  All three must
report the same stats and miss indices, and for the CLS prefetcher the
same pipeline counters, recall counters and learned weights.  The
batched engine and the cohort need the compiled kernels, so the cases
skip without them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import pytest

from repro.baselines.classic import MarkovPrefetcher, StridePrefetcher
from repro.baselines.leap import LeapPrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher
from repro.harness.fig5 import Fig5Config, make_model_prefetcher
from repro.harness.fleet import run_fleet
from repro.memsim import SimConfig, simulate
from repro.memsim.fleet import FleetLaneSpec
from repro.memsim.prefetcher import Prefetcher
from repro.nn.backends import backend_available
from repro.patterns.applications import AppSpec, graph500, resnet_training
from repro.patterns.trace import Trace

pytestmark = pytest.mark.skipif(
    not backend_available("c"),
    reason="the batched engine and the cohort need the compiled kernels")

PREFETCHERS: dict[str, Callable[[], Prefetcher]] = {
    "stride": StridePrefetcher,
    "markov": MarkovPrefetcher,
    "leap": LeapPrefetcher,
    "cls-hebbian": lambda: make_model_prefetcher("hebbian", Fig5Config()),
}

TOP = 2**63 - 1


def _input(edge: str) -> tuple[Trace, SimConfig]:
    """A short trace with strided runs and irregular jumps, and the
    configuration of one edge."""
    parts = [resnet_training(AppSpec(n=1500, seed=4)),
             graph500(AppSpec(n=1500, seed=4))]
    addresses = np.concatenate([part.addresses for part in parts])
    kinds = np.concatenate([part.kinds for part in parts])
    if edge == "capacity-1":
        config = SimConfig(capacity_pages=1)
    else:
        addresses = addresses + (TOP - int(addresses.max()))
        assert int(addresses.max()) == TOP
        # Small enough that misses repeat, so Markov has successors.
        config = SimConfig(memory_fraction=0.2)
    return Trace(name=f"edge-{edge}", addresses=addresses, kinds=kinds,
                 metadata={"edge": edge}), config


def _learned(prefetcher: Prefetcher) -> dict:
    """What a CLS prefetcher leaves behind; nothing for a baseline."""
    if not isinstance(prefetcher, CLSPrefetcher):
        return {}
    return {"stats": dataclasses.asdict(prefetcher.stats),
            "recall": dataclasses.asdict(prefetcher.recall_stats),
            "w_out": prefetcher.model.w_out.tobytes()}


@pytest.mark.parametrize("edge", ["capacity-1", "top-address"])
def test_the_drivers_agree_at_the_edges(edge: str) -> None:
    trace, config = _input(edge)
    runs = {}
    for engine in ("scalar", "batched"):
        for name, make in PREFETCHERS.items():
            prefetcher = make()
            result = simulate(trace, prefetcher, config,
                              record_miss_indices=True, engine=engine,
                              backend="c")
            assert result.engine_used == engine
            runs[engine, name] = (result, _learned(prefetcher))
    specs = [FleetLaneSpec(trace=trace, prefetcher=make(), config=config)
             for make in PREFETCHERS.values()]
    report = run_fleet(specs, backend="c", record_miss_indices=True)
    assert report.n_cohorts >= 1
    for spec, outcome, name in zip(specs, report.outcomes, PREFETCHERS):
        runs["fleet", name] = (outcome.result, _learned(spec.prefetcher))
    for name in PREFETCHERS:
        want, want_learned = runs["scalar", name]
        assert want.stats.demand_misses > 0
        assert want.stats.prefetches_issued > 0, name
        for driver in ("batched", "fleet"):
            got, got_learned = runs[driver, name]
            assert got.stats.as_dict() == want.stats.as_dict(), (driver, name)
            assert got.miss_indices == want.miss_indices, (driver, name)
            assert got_learned == want_learned, (driver, name)
