"""Hypothesis fuzz: stacked learned-lane cohorts vs per-lane simulate().

The stacked CLS path (``core.cls_fleet.CLSFleetGroup`` riding
``nn.hebbian_fleet.HebbianFleet``) promises bit-identity with the scalar
per-miss path for every lane — stats, miss indices AND learned weights.
This suite drives randomized mixed cohorts at it: null + stride +
(at least) two CLS config groups, staggered trace lengths so lanes
finish out of order, and a cohort width below the lane count so slots
drain and refill mid-stream.  Every lane is pinned against its own
``simulate()`` reference and the ``stacked_cls=False`` scalar cohort
path.  A cohort runs on the C backend alone (the cases skip without
it); a case's ``backend`` names the backend of its ``simulate()``
oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.classic import StridePrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.fleet import FleetCohort, FleetLaneSpec, run_cohort
from repro.memsim.prefetcher import NullPrefetcher
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.backends import available_backends, backend_available
from repro.patterns import PatternSpec, generate

BACKENDS = list(available_backends("sim"))

#: A case that builds a cohort.
needs_c = pytest.mark.skipif(not backend_available("c"),
                             reason="a fleet cohort needs the C backend")

PATTERNS = ("stride", "pointer_chase", "indirect_stride", "pointer_offset")

#: The two CLS recipes differ in hebbian seed, so their models carry
#: distinct (frozen) configs and land in distinct fleet groups.
CLS_SEEDS = (3, 11)

_BASE_TRACES = [generate(pattern, PatternSpec(n=1400, working_set=180,
                                              seed=seed))
                for seed, pattern in enumerate(PATTERNS)]

#: Always at least one lane per kind: two CLS groups plus null + stride
#: riding along, so group formation, the scalar fallback and the null
#: fast path all share every cohort.
_REQUIRED_KINDS = ("null", "stride", "cls0", "cls1")

lane_kind = st.sampled_from(_REQUIRED_KINDS)

cohort_plan = st.fixed_dictionaries({
    "extra_kinds": st.lists(lane_kind, min_size=0, max_size=4),
    "lengths_seed": st.integers(min_value=0, max_value=2**16),
    "width": st.integers(min_value=2, max_value=4),
    "delay": st.sampled_from([0, 2]),
})


def _build_prefetcher(kind: str):
    if kind == "null":
        return NullPrefetcher()
    if kind == "stride":
        return StridePrefetcher()
    group = int(kind[3:])
    return CLSPrefetcher(CLSPrefetcherConfig(seed=CLS_SEEDS[group]))


def _lane_specs(plan: dict, config: SimConfig) -> tuple[list, list[str]]:
    kinds = list(_REQUIRED_KINDS) + list(plan["extra_kinds"])
    rng = np.random.default_rng(plan["lengths_seed"])
    rng.shuffle(kinds)
    specs = []
    for i, kind in enumerate(kinds):
        base = _BASE_TRACES[i % len(_BASE_TRACES)]
        # Staggered lengths force out-of-order finishes and mid-stream
        # drain/refill at width < n_lanes.
        length = int(rng.integers(400, len(base)))
        trace = base.slice(0, length, name=f"{kind}-lane{i}")
        specs.append(FleetLaneSpec(trace=trace,
                                   prefetcher=_build_prefetcher(kind),
                                   config=config))
    return specs, kinds


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=6, deadline=None)
@given(plan=cohort_plan)
def test_mixed_learned_cohort_bit_identity(backend: str,
                                           plan: dict) -> None:
    config = SimConfig(prefetch_delay_accesses=plan["delay"])
    specs, kinds = _lane_specs(plan, config)
    results = run_cohort(specs, backend="c", record_miss_indices=True,
                         width=min(plan["width"], len(specs)))

    # Scalar-cohort cross-check: same lanes, stacked path disabled.
    scalar_specs = [FleetLaneSpec(trace=spec.trace,
                                  prefetcher=_build_prefetcher(kind),
                                  config=config)
                    for spec, kind in zip(specs, kinds)]
    scalar_results = run_cohort(scalar_specs, backend="c",
                                record_miss_indices=True,
                                width=min(plan["width"], len(specs)),
                                stacked_cls=False)

    for spec, kind, got, scalar_spec, scalar_got in zip(
            specs, kinds, results, scalar_specs, scalar_results):
        reference_prefetcher = _build_prefetcher(kind)
        want = simulate(spec.trace, reference_prefetcher, config=config,
                        backend=backend, record_miss_indices=True)
        for candidate in (got, scalar_got):
            assert candidate.stats.as_dict() == want.stats.as_dict()
            assert candidate.miss_indices == want.miss_indices
        if kind.startswith("cls"):
            want_w = reference_prefetcher.model.w_out
            assert np.array_equal(spec.prefetcher.model.w_out, want_w)
            assert np.array_equal(scalar_spec.prefetcher.model.w_out,
                                  want_w)
            assert (spec.prefetcher.stats.replayed_pairs
                    == reference_prefetcher.stats.replayed_pairs)


@needs_c
def test_admission_batch_sizes_each_group_once() -> None:
    """``load_many`` tells a group how many lanes it is about to adopt:
    the group's fleet is exactly that wide after the batch (no doubling
    chain past it), a later batch grows it once more, and the lanes
    still finish bit-identical to ``simulate()``."""
    config = SimConfig()
    kinds = ["cls0"] * 21 + ["cls1"] * 3 + ["null"]
    trace = _BASE_TRACES[0].slice(0, 300, name="short")
    specs = [FleetLaneSpec(trace=trace, prefetcher=_build_prefetcher(kind),
                           config=config) for kind in kinds]
    cohort = FleetCohort.for_specs(specs, backend="c")
    cohort.load_many(list(range(10)), specs[:10])
    (group,) = cohort._cls_groups.values()
    assert group._fleet.n_lanes == 10
    cohort.load_many(list(range(10, len(specs))), specs[10:])
    sizes = sorted(g._fleet.n_lanes for g in cohort._cls_groups.values())
    assert sizes == [3, 21]
    while cohort.active_count():
        for slot in cohort.step():
            cohort.harvest(slot)
    want_prefetcher = _build_prefetcher("cls0")
    simulate(trace, want_prefetcher, config=config, backend="numpy")
    assert np.array_equal(specs[0].prefetcher.model.w_out,
                          want_prefetcher.model.w_out)
