"""Isolation replays: each layer's public functions timed on their own.

The traced run records spans around the calls the benchmark makes
(:mod:`bench.tracing`); the functions here complement it by replaying a
layer's public API over the miss-address and class streams those runs
recorded, so a per-call cost exists even for calls the program makes
internally.  Timings are mean microseconds or nanoseconds per call unless
named otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.cls_prefetcher import CLSPrefetcher
from repro.core.encoding import make_encoder
from repro.core.hippocampus import Episode
from repro.core.replay import ReplayScheduler, make_replay_policy
from repro.harness import trace_cache
from repro.harness.models import (experiment_hebbian_config,
                                  experiment_lstm_config)
from repro.memsim.pagecache import MISS, PageCache
from repro.memsim.prefetch_queue import PrefetchQueue
from repro.memsim.simulator import SimConfig, simulate
from repro.nn import costs
from repro.nn.backends import backend_available, resolve_backend, sim_kernels
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.hebbian_fleet import HebbianFleet
from repro.nn.lstm import OnlineLSTM
from repro.patterns import AppSpec, Trace
from repro.telemetry import Telemetry

from . import OUT_DIR
from .tracing import TimedPrefetcher, Tracer

#: Calls per isolation replay: enough for a stable mean, cheap enough that
#: a traced run stays inside its time budget.
REPLAY_CALLS = 3_000


def mean_call_s(fn: Callable[[Any], Any], items: Sequence[Any]) -> float:
    """Mean seconds per ``fn(item)`` over ``items`` (loop overhead of a
    bare ``for`` is a few tens of ns and is left in)."""
    t0 = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - t0) / max(1, len(items))


# ---------------------------------------------------------------------------
# patterns / harness.trace_cache
# ---------------------------------------------------------------------------
def trace_cache_timings(specs: list[tuple[str, AppSpec]]) -> dict[str, float]:
    """Cold (generate + store) and warm (load) ``materialize`` wall over the
    workload's application traces, in a scratch directory."""
    directory = OUT_DIR / "trace-cache-scratch"
    shutil.rmtree(directory, ignore_errors=True)
    previous = trace_cache.configure(directory)
    try:
        t0 = time.perf_counter()
        for app, spec in specs:
            trace_cache.materialize(app, spec)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        for app, spec in specs:
            trace_cache.materialize(app, spec)
        warm = time.perf_counter() - t0
    finally:
        trace_cache.configure(previous)
        shutil.rmtree(directory, ignore_errors=True)
    return {"harness.trace_cache.cold_s": cold,
            "harness.trace_cache.warm_s": warm}


# ---------------------------------------------------------------------------
# memsim
# ---------------------------------------------------------------------------
def span_len_mean(cells: list[tuple[int, list[int]]]) -> float:
    """Mean hit-run length over ``(n_accesses, miss_indices)`` cells — the
    arithmetic of ``memsim.simulator.span_length_stats`` applied to miss
    indices the run already recorded (``bench/tests`` pins the equality)."""
    total = 0
    count = 0
    for n, miss_indices in cells:
        misses = np.asarray(miss_indices, dtype=np.int64)
        spans = np.diff(np.concatenate(([-1], misses, [n]))) - 1
        spans = spans[spans > 0]
        total += int(spans.sum())
        count += int(spans.size)
    return total / count if count else 0.0


def pagecache_timings(trace: Trace, config: SimConfig) -> dict[str, float]:
    """``PageCache``'s scalar and bulk public API over a null replay of
    ``trace`` (the loop the span-batched engine and the auto probe run)."""
    capacity = config.resolve_capacity(trace)
    pages_arr = trace.pages(config.page_size)
    universe, cids = trace.page_index(config.page_size)
    cids = np.ascontiguousarray(cids, dtype=np.int64)
    n = min(len(trace), 400_000)
    stores = np.zeros(n, dtype=bool)

    # Scalar access()/fill() pairs, as the reference engine issues them.
    scalar = PageCache(capacity_pages=capacity)
    prefix = pages_arr[:min(n, 50_000)].tolist()
    access, fill = scalar.access, scalar.fill
    t0 = time.perf_counter()
    for page in prefix:
        if access(page, False) == MISS:
            fill(page, False)
    access_s = (time.perf_counter() - t0) / len(prefix)

    cache = PageCache(capacity_pages=capacity)
    cache.attach_universe(universe)
    kernels = sim_kernels(resolve_backend("auto", domain="sim"))
    if kernels is not None:
        cache.attach_kernels(kernels)
    scan_s = run_s = fill_s = 0.0
    scanned = ran = filled = 0
    clock = time.perf_counter
    i = 0
    while i < n:
        t0 = clock()
        j = cache.first_nonresident(cids, i, n)
        scan_s += clock() - t0
        scanned += j - i + 1
        if j > i:
            t0 = clock()
            cache.access_run(cids[i:j], stores[:j - i])
            run_s += clock() - t0
            ran += j - i
            i = j
        if i >= n:
            break
        k = cache.miss_run_length(cids, i, n)
        t0 = clock()
        cache.fill_run(pages_arr[i:i + k], cids[i:i + k], stores[:k])
        fill_s += clock() - t0
        filled += k
        i += k
    return {
        "memsim.pagecache.access_ns": access_s * 1e9,
        "memsim.pagecache.first_nonresident_ns_per_access":
            scan_s / max(1, scanned) * 1e9,
        "memsim.pagecache.access_run_ns_per_access": run_s / max(1, ran) * 1e9,
        "memsim.pagecache.fill_run_ns_per_page": fill_s / max(1, filled) * 1e9,
    }


def prefetch_queue_timings(delay: int) -> dict[str, float]:
    """One ``issue`` + one ``landed`` per access, constant delay."""
    queue = PrefetchQueue(delay_accesses=delay)
    issue, landed = queue.issue, queue.landed
    calls = 50_000
    t0 = time.perf_counter()
    for i in range(calls):
        issue(i + 7, i)
        landed(i)
    return {"memsim.prefetch_queue.issue_landed_ns":
            (time.perf_counter() - t0) / calls * 1e9}


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------
def encoding_timings(addresses: list[int], vocab_size: int, granularity: int
                     ) -> tuple[list[int], dict[str, float]]:
    """``Encoder.observe`` / ``decode`` over a recorded miss-address stream;
    also returns the class stream for the model replays."""
    encoder = make_encoder("delta", vocab_size, granularity)
    observe = encoder.observe
    classes: list[int] = []
    t0 = time.perf_counter()
    for address in addresses:
        class_id = observe(address)
        if class_id is not None:
            classes.append(class_id)
    observe_s = (time.perf_counter() - t0) / max(1, len(addresses))
    decode = encoder.decode
    base = addresses[0] if addresses else 0
    decode_s = mean_call_s(lambda c: decode(c, base), classes)
    return classes, {"core.encoding.observe_ns": observe_s * 1e9,
                     "core.encoding.decode_ns": decode_s * 1e9}


def replay_record_select_us(classes: list[int], seed: int) -> float:
    """``ReplayScheduler.record`` + ``select_pairs`` per transition (the
    full-replay policy the CLS prefetcher runs by default)."""
    scheduler = ReplayScheduler(policy=make_replay_policy("full"),
                                per_step=1, seed=seed)
    pairs = list(zip(classes, classes[1:]))[:REPLAY_CALLS]
    # Two alternating phases, so ``exclude_phase`` has episodes to select.
    t0 = time.perf_counter()
    for i, (a, b) in enumerate(pairs):
        phase = (i // 64) & 1
        scheduler.record(Episode(a, b, phase, 0.0, i))
        scheduler.select_pairs(phase)
    return (time.perf_counter() - t0) / max(1, len(pairs)) * 1e6


def cls_on_miss_us(proto: CLSPrefetcher, traces: list[Trace],
                   config: SimConfig) -> float:
    """Mean traced ``on_miss`` of ``proto``'s deployment over ``traces``
    (the same instrument the CLS workloads use on themselves)."""
    tracer = Tracer()
    # Lap 0 fills the prototype's memo tables (untimed), lap 1 is measured.
    for lap in range(2):
        for trace in traces:
            prefetcher: Any = CLSPrefetcher(proto.config,
                                            model=proto.model.clone())
            if lap:
                prefetcher = TimedPrefetcher(prefetcher, tracer, "on_miss")
            simulate(trace, prefetcher, config)
    return float(tracer.durations("on_miss").mean()) * 1e6


# ---------------------------------------------------------------------------
# nn
# ---------------------------------------------------------------------------
def model_span_metrics(tracer: Tracer, layer: str) -> dict[str, float]:
    """``step`` / ``predict_rollout`` means and replay-training time per
    pair from the :class:`~bench.tracing.TimedModel` spans of a traced run."""
    summary = tracer.summary()
    trained_s = sum(summary.get(f"{layer}.{call}", {}).get("total_s", 0.0)
                    for call in ("train_pair", "train_pairs"))
    pairs = tracer.counters.get(f"{layer}.pairs_trained", 0)
    return {
        f"{layer}.step_us":
            float(tracer.durations(f"{layer}.step").mean()) * 1e6,
        f"{layer}.rollout_us":
            float(tracer.durations(f"{layer}.predict_rollout").mean()) * 1e6,
        f"{layer}.train_pairs_us_per_pair": trained_s / max(1, pairs) * 1e6,
    }


def hebbian_step_us(config: HebbianConfig, classes: list[int],
                    backend: str = "auto", train: bool = True) -> float:
    """Mean ``step`` over the recorded class stream on a fresh network."""
    net = SparseHebbianNetwork(dataclasses.replace(config, backend=backend))
    stream = classes[:REPLAY_CALLS]
    # One untimed lap fills the hidden-code and delta memos, as the
    # workload's warm-up pass does for the prototype's.
    for class_id in stream:
        net.step(class_id, train)
    net.reset_state()
    return mean_call_s(lambda c: net.step(c, train), stream) * 1e6


def lstm_step_us(classes: list[int], vocab_size: int) -> float:
    net = OnlineLSTM(experiment_lstm_config(vocab_size))
    stream = classes[:REPLAY_CALLS // 4]
    return mean_call_s(lambda c: net.step(c, True), stream) * 1e6


def measured_lstm_over_hebbian_step(hebbian: HebbianConfig,
                                    classes: list[int]) -> float:
    """Table 2's measured side per training step: both models replay the
    same recorded class stream in isolation (``step(train=True)``)."""
    return (lstm_step_us(classes, hebbian.vocab_size)
            / hebbian_step_us(hebbian, classes))


def hebbian_isolation(config: HebbianConfig, classes: list[int]
                      ) -> dict[str, float]:
    """Inference-only step, clone, and the per-backend step (the
    BENCH_PR6 0.74x question: is the C backend a win on this shape?)."""
    out = {"nn.hebbian.step_infer_us":
           hebbian_step_us(config, classes, train=False)}
    proto = SparseHebbianNetwork(config)
    out["nn.hebbian.clone_us"] = mean_call_s(
        lambda _: proto.clone(), range(300)) * 1e6
    for backend in ("numpy", "c", "int8"):
        key = f"nn.hebbian.step_us.{backend}"
        out[key] = (hebbian_step_us(config, classes, backend)
                    if backend_available(backend) else 0.0)
    return out


def model_costs() -> dict[str, float]:
    """``nn.costs`` op counts for the experiment-scale configurations the
    CLS workloads run, and the modeled LSTM/Hebbian training-step latency
    ratio (one ``step(train=True)`` = one training example + inference)."""
    hebbian = experiment_hebbian_config(192)
    lstm = experiment_lstm_config(192)
    model = costs.DEFAULT_LATENCY_MODEL
    h_train = costs.hebbian_training_ops(hebbian)
    l_train = costs.lstm_training_ops(lstm)
    return {
        "nn.costs.hebbian_infer_ops":
            float(costs.hebbian_inference_ops(hebbian).total_ops),
        "nn.costs.lstm_infer_ops":
            float(costs.lstm_inference_ops(lstm).total_ops),
        "nn.costs.hebbian_train_ops": float(h_train.total_ops),
        "nn.costs.lstm_train_ops": float(l_train.total_ops),
        "nn.costs.modeled_lstm_over_hebbian":
            model.training_us(l_train, family="lstm")
            / model.training_us(h_train, family="hebbian"),
    }


def telemetry_overhead_pct(cells: list[Any], config: SimConfig) -> float:
    """``simulate(..., telemetry=Telemetry())`` vs none: three interleaved
    on/off pairs, best wall of each side (an overhead is extra work, so the
    least-disturbed run of each side is the fair pair on a noisy host)."""
    def wall(telemetry: bool) -> float:
        total = 0.0
        for spec in cells:
            prefetcher = spec.make(None)
            sink = Telemetry() if telemetry else None
            t0 = time.perf_counter()
            simulate(spec.trace, prefetcher, config, telemetry=sink)
            total += time.perf_counter() - t0
        return total
    off: list[float] = []
    on: list[float] = []
    for _ in range(3):
        off.append(wall(False))
        on.append(wall(True))
    return (min(on) - min(off)) / min(off) * 100.0


# ---------------------------------------------------------------------------
# nn.hebbian_fleet
# ---------------------------------------------------------------------------
def hebbian_fleet_timings(proto: SparseHebbianNetwork, vocab_size: int, *,
                          step_sizes: Sequence[int] = (),
                          rollout_sizes: Sequence[int] = (),
                          train_pairs_sizes: Sequence[int] = (),
                          seed: int = 0) -> dict[str, float]:
    """Tenant-axis kernels at the given lane counts, on fresh clones:
    ``step_lanes`` / ``rollout_lanes(2, 2)`` / ``train_pairs_lanes`` per
    lane (or pair), and one ``acquire_lane`` + ``release_lane`` round trip."""
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    lane_counts = sorted({*step_sizes, *rollout_sizes, *train_pairs_sizes})
    largest = lane_counts[-1]
    fleet = HebbianFleet(proto, largest, reserve=True)
    nets = [proto.clone() for _ in range(largest)]
    # One untimed round trip first-touches the fleet's weight block.
    for slot, net in zip([fleet.acquire_lane(net) for net in nets], nets):
        fleet.release_lane(slot, net)
    t0 = time.perf_counter()
    slots = [fleet.acquire_lane(net) for net in nets]
    acquire_s = time.perf_counter() - t0
    rounds = 12
    streams = rng.integers(1, vocab_size, size=(rounds, largest)).tolist()
    prefix = "nn.hebbian_fleet"
    for n in lane_counts:
        lanes = slots[:n]
        train = [True] * n
        reps = max(1, min(400, 2_000 // n))
        fleet.step_lanes(lanes, streams[0][:n], train)  # first touch
        t0 = time.perf_counter()
        for rep in range(reps):
            fleet.step_lanes(lanes, streams[rep % rounds][:n], train)
        per_lane_s = (time.perf_counter() - t0) / (reps * n)
        if n in step_sizes:
            out[f"{prefix}.step_lanes_us_per_lane.n{n}"] = per_lane_s * 1e6
        if n in rollout_sizes:
            widths, lengths = [2] * n, [2] * n
            t0 = time.perf_counter()
            for _ in range(reps):
                fleet.rollout_lanes(lanes, widths, lengths)
            out[f"{prefix}.rollout_lanes_us_per_lane.n{n}"] = (
                (time.perf_counter() - t0) / (reps * n) * 1e6)
        if n in train_pairs_sizes:
            pairs = [[(streams[0][t], streams[1][t])] for t in range(n)]
            scales = [0.1] * n
            t0 = time.perf_counter()
            for _ in range(reps):
                fleet.train_pairs_lanes(lanes, pairs, scales)
            out[f"{prefix}.train_pairs_lanes_us_per_pair.n{n}"] = (
                (time.perf_counter() - t0) / (reps * n) * 1e6)
    t0 = time.perf_counter()
    for slot, net in zip(slots, nets):
        fleet.release_lane(slot, net)
    release_s = time.perf_counter() - t0
    out[f"{prefix}.acquire_release_us"] = (
        (acquire_s + release_s) / largest * 1e6)
    return out
