"""The ``simulate()`` workloads: sim-classic, sim-cls-hebbian, sim-cls-lstm.

All three drive ``simulate(trace, prefetcher, SIM_CONFIG, engine="auto",
backend="auto")`` cell by cell ((trace x prefetcher) = one timed cell), on
Fig. 5's setup (``memory_fraction=0.5``) with a 4-access prefetch delay so
the ``PrefetchQueue`` does real work.

Sizes are frozen here (``SIZES``); they were chosen by timing the code at
the commit that introduced the benchmark so one repeat takes about two
seconds on a 2-core box.  ``--scale`` multiplies them for smoke tests only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.baselines import (LeapPrefetcher, MarkovPrefetcher, NullPrefetcher,
                             StridePrefetcher)
from repro.core.cls_prefetcher import CLSPrefetcher
from repro.harness.fig5 import Fig5Config, make_model_prefetcher
from repro.memsim.simulator import SimConfig, SimResult, simulate
from repro.patterns import (FIG5_APPLICATIONS, AppSpec, PatternSpec, Phase,
                            Trace, build_phased_trace, generate_application)

from .. import layers
from ..metrics import SIM_CLASSIC, SIM_CLS_HEBBIAN, SIM_CLS_LSTM
from ..protocol import Cell, TracedRun, measure
from ..tracing import TimedModel, TimedPrefetcher, Tracer

SIM_CONFIG = SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)

#: Frozen sizes (accesses per trace) at ``--scale 1``.
SIZES: dict[str, dict[str, int]] = {
    SIM_CLASSIC: {"n": 200_000, "null_n": 1_000_000},
    SIM_CLS_HEBBIAN: {"resnet": 16_000, "graph500": 28_000,
                      "pagerank": 100_000, "mcf": 100_000,
                      # A -> B -> A: stride thrashes (every access misses),
                      # the chase fits after its cold pass, then A returns.
                      "phase_n": 900, "phase_a_pages": 600,
                      "phase_b_pages": 300},
    SIM_CLS_LSTM: {"pagerank": 100_000, "mcf": 100_000},
}

SPAN_SIMULATE = "memsim.simulate"
SPAN_CLS_MISS = "core.cls.on_miss"

_BASELINES: dict[str, Callable[[], Any]] = {
    "stride": StridePrefetcher,
    "markov": MarkovPrefetcher,
    "leap": LeapPrefetcher,
}


def digest(*arrays: np.ndarray) -> str:
    """blake2b over the raw bytes of ``arrays``, in order."""
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def weights_digest(model: Any) -> str | None:
    """Digest of a model's learned weights (Hebbian ``w_out``; every LSTM
    parameter array in key order); None for model-free prefetchers."""
    w_out = getattr(model, "w_out", None)
    if w_out is not None:
        return digest(w_out)
    net = getattr(model, "net", None)
    if net is not None:
        return digest(*(net.params[key] for key in sorted(net.params)))
    return None


def scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


@dataclass
class CellSpec:
    """One (trace x prefetcher) cell of a sim workload."""

    name: str
    trace: Trace
    kind: str
    make: Callable[[Tracer | None], Any]
    #: Null-prefetcher demand misses on the same trace (None for null cells).
    baseline_misses: int | None


@dataclass
class SimState:
    cells: list[tuple[CellSpec, Any]]
    tracer: Tracer | None
    results: list[SimResult] = dataclasses.field(default_factory=list)


class SimWorkload:
    """Shared driver for the three ``simulate()`` workloads."""

    name = ""

    def __init__(self) -> None:
        self.cells: list[CellSpec] = []
        self.seed = 0
        #: (app, spec) of every application trace materialized in setup.
        self.app_specs: list[tuple[str, AppSpec]] = []

    # -- setup helpers -------------------------------------------------------
    def _app_trace(self, app: str, n: int, timings: dict[str, float]) -> Trace:
        spec = AppSpec(n=n, seed=self.seed)
        t0 = time.perf_counter()
        trace = generate_application(app, spec)
        # The page index is memoized on the trace and shared by every
        # engine; building it is part of materializing the input.
        trace.page_index(SIM_CONFIG.page_size)
        timings["patterns.materialize_s"] = (
            timings.get("patterns.materialize_s", 0.0)
            + time.perf_counter() - t0)
        self.app_specs.append((app, spec))
        return trace

    @staticmethod
    def _baseline(trace: Trace) -> int:
        return simulate(trace, NullPrefetcher(), SIM_CONFIG).demand_misses

    # -- protocol -------------------------------------------------------------
    def build(self, tracer: Tracer | None = None) -> SimState:
        return SimState([(spec, spec.make(tracer)) for spec in self.cells],
                        tracer)

    def run(self, state: SimState) -> list[Cell]:
        out: list[Cell] = []
        tracer = state.tracer
        root = tracer.intern(SPAN_SIMULATE) if tracer is not None else -1
        for spec, prefetcher in state.cells:
            def one(spec: CellSpec = spec, prefetcher: Any = prefetcher
                    ) -> SimResult:
                if tracer is None:
                    return simulate(spec.trace, prefetcher, SIM_CONFIG,
                                    record_miss_indices=True)
                return tracer.call(root, simulate, spec.trace, prefetcher,
                                   SIM_CONFIG, True)
            cell, result = measure(spec.name, len(spec.trace), one)
            out.append(cell)
            state.results.append(result)
        return out

    def outcome(self, state: SimState) -> dict:
        cells: dict[str, dict] = {}
        weighted = 0.0
        accesses = 0
        for (spec, prefetcher), result in zip(state.cells, state.results):
            record: dict[str, Any] = {
                "stats": result.stats.as_dict(),
                "engine": result.engine_used,
                "miss_idx": digest(np.asarray(result.miss_indices,
                                              dtype=np.int64)),
            }
            model = getattr(prefetcher, "model", None)
            if model is not None:
                record["weights"] = weights_digest(model)
                record["cls"] = dataclasses.asdict(prefetcher.stats)
            cells[spec.name] = record
            if spec.baseline_misses:
                removed = spec.baseline_misses - result.demand_misses
                weighted += len(spec.trace) * 100.0 * removed \
                    / spec.baseline_misses
                accesses += len(spec.trace)
        return {"cells": cells, "units": len(cells),
                "misses_removed_pct":
                    weighted / accesses if accesses else 0.0}

    # -- verification ---------------------------------------------------------
    def float_free(self, outcome: dict) -> dict:
        """Model-free cells whole; of a learned cell only the engine chosen."""
        return {"cells": {
            name: cell if "weights" not in cell else {"engine": cell["engine"]}
            for name, cell in outcome["cells"].items()}}

    def oracle_prefetcher(self, spec: CellSpec) -> Any:
        """A fresh prefetcher for the scalar/numpy reference run."""
        return spec.make(None)

    def oracle_sample(self, seed: int) -> list[CellSpec]:
        raise NotImplementedError

    def verify_sample(self, outcome: dict, seed: int) -> tuple[int, list[str]]:
        """Diff sampled cells against ``simulate(engine="scalar",
        backend="numpy")`` — the repo's own reference engine and kernels."""
        messages: list[str] = []
        sample = self.oracle_sample(seed)
        for spec in sample:
            prefetcher = self.oracle_prefetcher(spec)
            reference = simulate(spec.trace, prefetcher, SIM_CONFIG,
                                 record_miss_indices=True, engine="scalar",
                                 backend="numpy")
            got = outcome["cells"][spec.name]
            want = {
                "stats": reference.stats.as_dict(),
                "miss_idx": digest(np.asarray(reference.miss_indices,
                                              dtype=np.int64)),
            }
            model = getattr(prefetcher, "model", None)
            if model is not None:
                want["weights"] = weights_digest(model)
            for key, value in want.items():
                if got.get(key) != value:
                    messages.append(f"{self.name}/{spec.name}: {key} differs "
                                    "from the scalar/numpy oracle")
        return len(sample), messages

    # -- per-layer ------------------------------------------------------------
    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        tracer, state = run.tracer, run.traced_state
        out: dict[str, float] = {}
        accesses = sum(cell.events for cells in run.traced for cell in cells)
        self_s = float(tracer.self_times(SPAN_SIMULATE).sum())
        out["memsim.simulate.self_ns_per_access"] = self_s / accesses * 1e9
        out["memsim.simulate.demand_misses"] = float(
            sum(result.demand_misses for result in state.results))
        out["memsim.simulate.span_len_mean"] = layers.span_len_mean(
            [(len(spec.trace), result.miss_indices)
             for (spec, _), result in zip(state.cells, state.results)])
        out.update(layers.trace_cache_timings(self.app_specs))
        return out


def _null_cell(app: str, trace: Trace) -> CellSpec:
    return CellSpec(f"{app}/none", trace, "null",
                    lambda tracer: NullPrefetcher(), None)


class SimClassic(SimWorkload):
    """memsim engines + baselines; nn and core idle."""

    name = SIM_CLASSIC

    def setup(self, seed: int, scale: float) -> dict[str, float]:
        self.seed = seed
        timings: dict[str, float] = {}
        n = scaled(SIZES[self.name]["n"], scale, 4_000)
        null_n = scaled(SIZES[self.name]["null_n"], scale, 8_000)
        self._null_traces: list[Trace] = []
        for app in FIG5_APPLICATIONS:
            # Null cells are 50-100x cheaper per access, so they replay a
            # longer trace to stay above timer noise.
            null_trace = self._app_trace(app, null_n, timings)
            self._null_traces.append(null_trace)
            self.cells.append(_null_cell(app, null_trace))
            trace = self._app_trace(app, n, timings)
            baseline = self._baseline(trace)
            for kind, factory in _BASELINES.items():
                span = f"baselines.{kind}.on_miss"

                def make(tracer: Tracer | None, factory: Any = factory,
                         span: str = span) -> Any:
                    prefetcher = factory()
                    if tracer is None:
                        return prefetcher
                    return TimedPrefetcher(prefetcher, tracer, span)
                self.cells.append(CellSpec(f"{app}/{kind}", trace, kind,
                                           make, baseline))
        return timings

    def oracle_sample(self, seed: int) -> list[CellSpec]:
        # Three prefetcher cells; null cells replay 5x more accesses through
        # the scalar engine, so they are sampled one at a time.
        rng = np.random.default_rng(seed)
        live = [spec for spec in self.cells if spec.kind != "null"]
        nulls = [spec for spec in self.cells if spec.kind == "null"]
        picked = [live[i] for i in rng.choice(len(live), 3, replace=False)]
        picked.append(nulls[int(rng.integers(len(nulls)))])
        return picked

    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        out = super().layer_metrics(run)
        tracer = run.tracer
        null_cells = [cell for cells in run.traced + run.untraced
                      for cell in cells if cell.name.endswith("/none")]
        out["memsim.null_replay.accesses_per_s"] = (
            sum(cell.events for cell in null_cells)
            / sum(cell.wall_s for cell in null_cells))
        for kind in _BASELINES:
            spans = tracer.durations(f"baselines.{kind}.on_miss")
            out[f"baselines.{kind}.on_miss_us"] = float(spans.mean()) * 1e6
        # graph500 has both long hit runs and dense miss runs, so one trace
        # exercises all four bulk cache APIs.
        out.update(layers.pagecache_timings(self._null_traces[-1], SIM_CONFIG))
        out.update(layers.prefetch_queue_timings(
            SIM_CONFIG.prefetch_delay_accesses))
        return out


class _SimCls(SimWorkload):
    """Shared CLS machinery: prototype clone per repeat, model spans."""

    model_kind = ""
    layer = ""

    def _setup_prototype(self) -> None:
        # Fig. 5's deployment.  The prototype is never stepped: every
        # repeat clones it, so clones start untrained but share the fixed
        # structures and memo tables the warm-up pass has filled.
        self.proto = make_model_prefetcher(self.model_kind, Fig5Config())

    def _cls_cell(self, label: str, trace: Trace) -> CellSpec:
        def make(tracer: Tracer | None) -> Any:
            model = self.proto.model.clone()
            if tracer is None:
                return CLSPrefetcher(self.proto.config, model=model)
            return TimedPrefetcher(
                CLSPrefetcher(self.proto.config,
                              model=TimedModel(model, tracer, self.layer)),
                tracer, SPAN_CLS_MISS)
        return CellSpec(f"{label}/cls-{self.model_kind}", trace,
                        f"cls-{self.model_kind}", make, self._baseline(trace))

    def oracle_prefetcher(self, spec: CellSpec) -> Any:
        config = self.proto.config
        if config.hebbian is not None:
            config = dataclasses.replace(
                config, hebbian=dataclasses.replace(config.hebbian,
                                                    backend="numpy"))
        return CLSPrefetcher(config)

    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        out = super().layer_metrics(run)
        tracer, state = run.tracer, run.traced_state
        miss = tracer.durations(SPAN_CLS_MISS)
        out["core.cls.on_miss_us"] = float(miss.mean()) * 1e6
        out["core.cls.on_miss_p99_us"] = float(np.percentile(miss, 99)) * 1e6
        out["core.cls.self_us"] = float(
            tracer.self_times(SPAN_CLS_MISS).mean()) * 1e6
        stats = [prefetcher.stats for _, prefetcher in state.cells]
        cache = [result.stats for result in state.results]
        misses = sum(s.misses_seen for s in stats)
        emitted = sum(s.prefetches_emitted for s in stats)
        gated = sum(s.suppressed_low_confidence for s in stats)
        issued = sum(c.prefetches_issued - c.prefetches_redundant
                     for c in cache)
        out["core.cls.trained_steps"] = float(
            sum(s.trained_steps for s in stats))
        out["core.cls.replayed_pairs"] = float(
            sum(s.replayed_pairs for s in stats))
        out["core.cls.prefetches_per_miss"] = emitted / misses
        out["core.cls.gated_share"] = gated / max(1, gated + emitted)
        out["core.cls.useful_prefetch_share"] = (
            sum(c.prefetches_useful for c in cache) / max(1, issued))
        # Isolation replays over the first cell's recorded miss stream.
        (spec, _), result = state.cells[0], state.results[0]
        addresses = spec.trace.addresses[
            np.asarray(result.miss_indices, dtype=np.int64)].tolist()
        config = self.proto.config
        classes, encoding = layers.encoding_timings(
            addresses, config.vocab_size, config.granularity)
        out.update(encoding)
        out["core.replay.record_select_us"] = layers.replay_record_select_us(
            classes, config.seed)
        out.update(layers.model_costs())
        #: The first cell's recorded class stream, for the model replays.
        self._classes = classes
        return out


class SimClsHebbian(_SimCls):
    """The paper's system: nn.hebbian + the scalar core miss pipeline."""

    name = SIM_CLS_HEBBIAN
    model_kind = "hebbian"
    layer = "nn.hebbian"

    def setup(self, seed: int, scale: float) -> dict[str, float]:
        self.seed = seed
        timings: dict[str, float] = {}
        sizes = SIZES[self.name]
        self._setup_prototype()
        for app in FIG5_APPLICATIONS:
            trace = self._app_trace(app, scaled(sizes[app], scale, 2_000),
                                    timings)
            self.cells.append(self._cls_cell(app, trace))
        phase_n = scaled(sizes["phase_n"], scale, 300)
        t0 = time.perf_counter()
        stride = {"working_set": sizes["phase_a_pages"]}
        chase = {"working_set": sizes["phase_b_pages"]}
        phased = build_phased_trace(
            [Phase("stride", phase_n, stride),
             Phase("pointer_chase", phase_n, chase),
             Phase("stride", phase_n, stride)],
            PatternSpec(element_size=SIM_CONFIG.page_size), seed=seed).trace
        phased.name = "phased-aba"
        phased.page_index(SIM_CONFIG.page_size)
        timings["patterns.materialize_s"] += time.perf_counter() - t0
        self.cells.append(self._cls_cell("phased-aba", phased))
        return timings

    def oracle_sample(self, seed: int) -> list[CellSpec]:
        rng = np.random.default_rng(seed)
        # The phased cell always (replay + phase detector), plus one app.
        app = self.cells[int(rng.integers(len(FIG5_APPLICATIONS)))]
        return [app, self.cells[-1]]

    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        out = super().layer_metrics(run)
        out.update(layers.model_span_metrics(run.tracer, "nn.hebbian"))
        classes = self._classes
        config = self.proto.config.hebbian
        out.update(layers.hebbian_isolation(config, classes))
        out["nn.measured_lstm_over_hebbian_step"] = (
            layers.measured_lstm_over_hebbian_step(config, classes))
        # pagerank + mcf: few misses, so three on/off pairs cost ~2 s.
        out["telemetry.on_overhead_pct"] = layers.telemetry_overhead_pct(
            [spec for spec in self.cells
             if spec.name.split("/")[0] in ("pagerank", "mcf")], SIM_CONFIG)
        return out


class SimClsLstm(_SimCls):
    """Same core pipeline, the LSTM behind it; Hebbian kernels idle."""

    name = SIM_CLS_LSTM
    model_kind = "lstm"
    layer = "nn.lstm"

    def setup(self, seed: int, scale: float) -> dict[str, float]:
        self.seed = seed
        timings: dict[str, float] = {}
        self._setup_prototype()
        for app in ("pagerank", "mcf"):
            trace = self._app_trace(
                app, scaled(SIZES[self.name][app], scale, 4_000), timings)
            self.cells.append(self._cls_cell(app, trace))
        return timings

    def oracle_sample(self, seed: int) -> list[CellSpec]:
        rng = np.random.default_rng(seed)
        return [self.cells[int(rng.integers(len(self.cells)))]]

    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        out = super().layer_metrics(run)
        out.update(layers.model_span_metrics(run.tracer, "nn.lstm"))
        classes = self._classes
        hebbian_proto = make_model_prefetcher("hebbian", Fig5Config())
        out["nn.measured_lstm_over_hebbian_step"] = (
            layers.measured_lstm_over_hebbian_step(
                hebbian_proto.config.hebbian, classes))
        # Table 2's measured side per miss: the Hebbian CLS prefetcher over
        # the very same traces, traced the same way.
        out["nn.measured_lstm_over_hebbian_miss"] = (
            out["core.cls.on_miss_us"]
            / layers.cls_on_miss_us(hebbian_proto,
                                    [spec.trace for spec in self.cells],
                                    SIM_CONFIG))
        return out
