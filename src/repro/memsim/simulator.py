"""Trace-driven memory simulation (Figure 1's deployment loop).

``simulate`` replays a trace against a page cache sized as a fraction
of the trace footprint (Figure 5 uses 50%), feeding every demand miss to
a prefetcher and installing its predictions after a configurable
timeliness delay.

Two engines produce bit-identical results (same ``CacheStats``, same
miss indices, same prefetcher interaction order):

* ``scalar`` — the retained per-access event loop, running on the seed's
  OrderedDict :class:`~repro.memsim.pagecache_reference.ReferencePageCache`
  (the reference semantics *and* the reference constant factors).  It is
  the only engine able to drive per-access observers (``wants_accesses``
  prefetchers) and the only engine without the compiled kernels.
* ``batched`` — the compiled engine, a one-slot lane of the store the
  fleet's cohort runs (:mod:`repro.memsim.lanes`): one C kernel runs the
  whole per-access algorithm (hits, demand fills with LRU eviction, the
  in-flight prefetch queue and its landings) and returns to Python only
  at a demand miss, for the prefetcher; a null-prefetcher run never
  returns early, so it is one call per segment.

``engine="auto"`` (the default) picks ``batched`` whenever the kernels
are available and the prefetcher does not observe per-access events,
which covers every Figure 5 configuration in the repo, unless one
up-front probe of the trace prefix (``_probe_prefers_scalar``) shows
spans shorter than ``_PROBE_MIN_SPAN``; a null run skips the probe.
Without the kernels ``auto`` is the scalar engine, unprobed.

Both engines are *segment-capable* (PR 5): each exposes
``run(start, stop)`` and ``simulate`` drives the run as a sequence of
segments.  With telemetry disabled there is exactly one segment,
``[0, n)``, through the identical code path — which is how the null
sink stays free.  With an enabled :class:`repro.telemetry.Telemetry`
sink, segments end at window boundaries and the sink snapshots counters
between them.  Segmentation cannot change results: a boundary merely
splits a sequence of per-access operations that were already defined
element-wise (same clock order, same LRU stamps, same victims) —
pinned by ``tests/telemetry/test_engine_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..nn.backends import resolve_backend, sim_kernels
from ..patterns.trace import Trace
from .events import AccessEvent, MissEvent
from .lanes import _HEAD, _RESIDENT, _TAIL, SimLanes
from .pagecache import MISS, CacheStats
from .pagecache_reference import ReferencePageCache
from .prefetch_queue import PrefetchQueue
from .prefetcher import NullPrefetcher, Prefetcher, observes_accesses

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from ..telemetry.nullsink import NullTelemetry as TelemetrySink

#: ``auto`` sends a trace whose probed spans are shorter than this to the
#: scalar engine.  The threshold was the crossover of a per-span engine
#: that no longer exists; the compiled engine has no per-span cost, and
#: the threshold stays only to keep the engine choice the benchmark
#: goldens pin (``engine: scalar`` on the stride / Markov / Leap resnet
#: cells).
_PROBE_MIN_SPAN = 3

#: The auto-engine probe replays at most this many leading accesses (a
#: null run of the compiled engine) to estimate steady-state span lengths
#: before committing a run to the batched engine.
_PROBE_PREFIX = 32_768

#: Below this many accesses the probe is skipped (the run is too short for
#: engine choice to matter, and the prefix would be all cold misses).
_PROBE_MIN = 4096


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    Attributes:
        page_size: Bytes per page (power of two).
        memory_fraction: Cache capacity as a fraction of the trace's page
            footprint; ignored when ``capacity_pages`` is given.  The paper's
            Figure 5 setup is 0.5.
        capacity_pages: Explicit capacity override.
        prefetch_delay_accesses: Accesses between issuing a prefetch and it
            becoming resident (timeliness, §5.2).  0 = ideal.
        max_prefetches_per_miss: Safety cap on a policy's output width.
    """

    page_size: int = 4096
    memory_fraction: float = 0.5
    capacity_pages: int | None = None
    prefetch_delay_accesses: int = 0
    max_prefetches_per_miss: int = 64

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if not 0 < self.memory_fraction <= 1 and self.capacity_pages is None:
            raise ValueError("memory_fraction must be in (0, 1]")
        if self.capacity_pages is not None and self.capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        if self.prefetch_delay_accesses < 0:
            raise ValueError("prefetch_delay_accesses must be >= 0")
        if self.max_prefetches_per_miss < 0:
            raise ValueError("max_prefetches_per_miss must be >= 0")

    def resolve_capacity(self, trace: Trace) -> int:
        if self.capacity_pages is not None:
            return self.capacity_pages
        footprint = trace.footprint_pages(self.page_size)
        return max(1, int(footprint * self.memory_fraction))


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    trace_name: str
    prefetcher_name: str
    capacity_pages: int
    stats: CacheStats
    config: SimConfig
    miss_indices: list[int] = field(default_factory=list, repr=False)
    #: Which engine actually ran ("batched" or "scalar" from
    #: ``simulate()``, "fleet" from a cohort lane) and which kernel
    #: backend the run resolved to ("numpy" or "c").  The scalar
    #: engine never touches the compiled kernels, but the resolved name is
    #: still recorded so telemetry can attribute the run.
    engine_used: str = "batched"
    backend_used: str = "numpy"

    @property
    def demand_misses(self) -> int:
        return self.stats.demand_misses

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate

    def percent_misses_removed(self, baseline: "SimResult") -> float:
        """Figure 5's metric: % of baseline misses this run eliminated."""
        if baseline.demand_misses == 0:
            return 0.0
        removed = baseline.demand_misses - self.demand_misses
        return 100.0 * removed / baseline.demand_misses


def simulate(trace: Trace, prefetcher: Prefetcher,
             config: SimConfig = SimConfig(),
             record_miss_indices: bool = False,
             engine: str = "auto",
             backend: str = "auto",
             telemetry: "TelemetrySink | None" = None) -> SimResult:
    """Replay ``trace`` through a page cache attached to ``prefetcher``.

    ``engine`` is ``"auto"`` (batched when the kernels and the prefetcher
    permit it), ``"batched"`` or ``"scalar"``; the engines are
    bit-identical, so the explicit values exist for equivalence tests and
    debugging.  ``"batched"`` raises ``ValueError`` for a
    ``wants_accesses`` prefetcher and on the numpy backend.

    ``backend`` selects the kernels — ``"auto"`` (the C kernels when
    available, else numpy with a one-time warning), ``"numpy"`` or
    ``"c"`` (see ``repro.nn.backends``).  Requesting an unavailable one
    explicitly raises ``BackendUnavailableError``.  On ``"numpy"`` every
    run is the scalar reference engine, which never touches the kernels.

    With the kernels, ``engine="auto"`` additionally probes the trace (a
    null replay of a short prefix) and picks the scalar engine for
    short-span workloads (stride on resnet, where most spans are one or
    two accesses) — the choice the benchmark goldens pin.  A null run
    skips the probe.

    ``telemetry`` optionally attaches a :class:`repro.telemetry.Telemetry`
    sink.  An enabled sink partitions the run into window-aligned
    segments: each engine exposes ``run(start, stop)`` and the driver
    calls the sink between segments, so observation happens strictly at
    segment boundaries and cannot perturb the simulation.  With no sink
    (or a :class:`~repro.telemetry.NullTelemetry`) the run is a single
    ``[0, n)`` segment through the identical engine code.
    """
    if engine not in ("auto", "batched", "scalar"):
        raise ValueError(f"unknown engine {engine!r}")
    backend_used = resolve_backend(backend, domain="sim")
    kern = sim_kernels(backend_used)
    capacity = config.resolve_capacity(trace)
    # Fast-path protocol: a prefetcher that declares it ignores the
    # per-access stream gets no callback (it would return None for every
    # access) instead of an event allocated each time.
    on_access = (getattr(prefetcher, "on_access", None)
                 if observes_accesses(prefetcher) else None)
    if engine == "batched" and on_access is not None:
        raise ValueError(
            "batched engine cannot drive per-access observers; "
            "use engine='scalar' (or 'auto') for wants_accesses prefetchers")
    if engine == "batched" and kern is None:
        raise ValueError(
            "batched engine needs the compiled kernels; "
            "use engine='scalar' (or 'auto') on the numpy backend")
    use_batched = engine == "batched" or (
        engine == "auto" and kern is not None and on_access is None
        and (getattr(prefetcher, "is_null", False)
             or not _probe_prefers_scalar(trace, config, capacity, kern)))
    sink = telemetry if telemetry is not None and telemetry.enabled else None
    if sink is not None:
        sink.begin_run(trace, prefetcher.name, config, capacity)
    eng: _ScalarEngine | _CompiledEngine
    if use_batched:
        eng = _CompiledEngine(trace, prefetcher, config, capacity,
                              record_miss_indices, kern)
        engine_used = "batched"
    else:
        eng = _ScalarEngine(trace, prefetcher, config, capacity, on_access,
                            record_miss_indices)
        engine_used = "scalar"
    _drive(eng, len(trace), sink, prefetcher)
    if sink is not None:
        sink.end_run(engine_used, backend_used)
    return SimResult(
        trace_name=trace.name,
        prefetcher_name=prefetcher.name,
        capacity_pages=capacity,
        stats=eng.stats(),
        config=config,
        miss_indices=eng.miss_indices(),
        engine_used=engine_used,
        backend_used=backend_used,
    )


def _probe_prefers_scalar(trace: Trace, config: SimConfig,
                          capacity: int, kern: Any) -> bool:
    """Span-length probe for the auto engine choice.

    Replays a short prefix of the trace with no prefetcher — the
    compiled engine in null mode, one call per half — and measures the
    steady-state inter-miss gap: only misses in the *second half* of the
    prefix count, so compulsory (first-touch) misses of small-footprint
    workloads don't masquerade as short spans.  A gap below
    ``_PROBE_MIN_SPAN`` picks the scalar engine.  Deterministic; costs
    one null replay of at most ``_PROBE_PREFIX`` accesses (well under a
    millisecond per run on the Figure 5 traces).
    """
    prefix = min(len(trace), _PROBE_PREFIX)
    if prefix < _PROBE_MIN:
        return False
    late_misses = _late_misses(trace, config, capacity, kern, prefix)
    return bool(late_misses) and (
        (prefix - prefix // 2) / late_misses < _PROBE_MIN_SPAN)


def _late_misses(trace: Trace, config: SimConfig, capacity: int, kern: Any,
                 prefix: int) -> int:
    """Demand misses in ``[prefix // 2, prefix)`` of a null replay: a
    null lane of the lane store, run one call per half."""
    probe = _CompiledEngine(trace, NullPrefetcher(), config, capacity,
                            False, kern)
    probe.run(0, prefix // 2)
    early_misses = probe.stats().demand_misses
    probe.run(prefix // 2, prefix)
    return probe.stats().demand_misses - early_misses


def _drive(eng: "_ScalarEngine | _CompiledEngine", n: int,
           sink: "TelemetrySink | None", prefetcher: Prefetcher) -> None:
    """Run ``eng`` over ``[0, n)``, pausing at the sink's window boundaries.

    Without a sink this is exactly one ``run(0, n)`` call — the
    zero-overhead disabled path.
    """
    if sink is None:
        eng.run(0, n)
        return
    start = 0
    for stop in sink.boundaries(n):
        eng.run(start, stop)
        sink.on_window(stop, eng.stats(), eng.resident(),
                       eng.queue_depth(), prefetcher)
        start = stop


class _ScalarEngine:
    """The retained per-access reference engine (OrderedDict cache).

    Construction materializes the trace columns as plain python lists
    once — indexing a numpy array element-by-element boxes a fresh scalar
    per access, which dominates the loop at trace scale — so telemetry
    segments re-enter :meth:`run` without re-paying the conversion.
    """

    def __init__(self, trace: Trace, prefetcher: Prefetcher,
                 config: SimConfig, capacity: int, on_access: Any,
                 record: bool) -> None:
        self._pages: list[int] = trace.pages(config.page_size).tolist()
        # KIND_STORE marks the page dirty.
        self._stores: list[bool] = (trace.kinds != 0).tolist()
        # Fast-path protocol: prefetchers that implement the scalar entry
        # points skip the per-event dataclass allocations entirely.  The
        # event-object path stays for external prefetchers.
        self._on_miss_fast = getattr(prefetcher, "on_miss_fast", None)
        self._on_access = on_access
        self._on_access_fast = (getattr(prefetcher, "on_access_fast", None)
                                if on_access is not None else None)
        self._is_null: bool = getattr(prefetcher, "is_null", False)
        self._addresses: list[int] | None
        self._stream_ids: list[int] | None
        self._timestamps: list[int] | None
        if self._is_null and on_access is None:
            self._addresses = self._stream_ids = self._timestamps = None
        else:
            self._addresses = trace.addresses.tolist()
            self._stream_ids = trace.stream_ids.tolist()
            self._timestamps = trace.timestamps.tolist()
        self._prefetcher = prefetcher
        self._cache = ReferencePageCache(capacity_pages=capacity)
        self._queue = PrefetchQueue(
            delay_accesses=config.prefetch_delay_accesses)
        self._max_prefetches = config.max_prefetches_per_miss
        self._misses: list[int] | None = [] if record else None

    def stats(self) -> CacheStats:
        return self._cache.stats

    def miss_indices(self) -> list[int]:
        return self._misses or []

    def resident(self) -> int:
        return len(self._cache)

    def queue_depth(self) -> int:
        return len(self._queue)

    def run(self, start: int, stop: int) -> None:
        cache = self._cache
        queue = self._queue
        pages = self._pages
        stores = self._stores
        addresses = self._addresses
        stream_ids = self._stream_ids
        timestamps = self._timestamps
        on_miss_fast = self._on_miss_fast
        on_access = self._on_access
        on_access_fast = self._on_access_fast
        is_null = self._is_null
        access = cache.access
        fill = cache.fill
        insert_prefetch = cache.insert_prefetch
        landed = queue.landed
        issue = queue.issue
        on_miss = self._prefetcher.on_miss
        max_prefetches = self._max_prefetches
        misses = self._misses
        append_miss = misses.append if misses is not None else None

        if start == 0 and stop == len(pages):
            span = enumerate(pages)
        else:
            # Telemetry segment: same loop over a slice (the copy is
            # O(window), paid only when windowing is on).
            span = enumerate(pages[start:stop], start)
        for i, page in span:
            if queue.next_landing <= i:
                for landed_page in landed(i):
                    insert_prefetch(landed_page)

            store = stores[i]
            outcome = access(page, store)
            hit = outcome is not MISS
            if not hit:
                fill(page, store)
                if append_miss is not None:
                    append_miss(i)
                if not is_null:
                    assert addresses is not None
                    assert stream_ids is not None and timestamps is not None
                    if on_miss_fast is not None:
                        predictions = on_miss_fast(
                            i, addresses[i], page, stream_ids[i],
                            timestamps[i])
                    else:
                        predictions = on_miss(MissEvent(
                            index=i,
                            address=addresses[i],
                            page=page,
                            stream_id=stream_ids[i],
                            timestamp=timestamps[i],
                        ))
                    if predictions:
                        if len(predictions) > max_prefetches:
                            predictions = predictions[:max_prefetches]
                        for predicted in predictions:
                            if predicted != page:
                                issue(int(predicted), i)
            if on_access is not None:
                assert addresses is not None
                assert stream_ids is not None and timestamps is not None
                if on_access_fast is not None:
                    chained = on_access_fast(i, addresses[i], page,
                                             stream_ids[i], timestamps[i],
                                             hit)
                else:
                    chained = on_access(AccessEvent(
                        index=i,
                        address=addresses[i],
                        page=page,
                        stream_id=stream_ids[i],
                        timestamp=timestamps[i],
                        hit=hit,
                    ))
                if chained:
                    if len(chained) > max_prefetches:
                        chained = chained[:max_prefetches]
                    for predicted in chained:
                        if predicted != page:
                            issue(int(predicted), i)


class _CompiledEngine:
    """``simulate()``'s compiled engine: a one-slot lane store
    (``memsim/lanes.py``) asked once per demand miss.

    Each :meth:`run` step is one ``rk_sim_run`` call on the slot's
    context: it issues the last miss's predictions, runs the scalar
    engine's per-access algorithm and returns at the next demand miss,
    the prefetcher's turn; the store cuts and names the predictions for
    the next call.  A null prefetcher is never asked, so a null run is
    one call per segment.  Landings and misses happen at the scalar
    engine's access indices, and the prefetcher sees its exact callback
    sequence, so every stat and learned weight is bit-identical.
    """

    def __init__(self, trace: Trace, prefetcher: Prefetcher,
                 config: SimConfig, capacity: int, record: bool,
                 kern: Any) -> None:
        universe, cids = trace.page_index(config.page_size)
        self._store = store = SimLanes(
            1, slot_capacity=capacity,
            universe_capacity=max(1, universe.size),
            trace_capacity=max(1, len(trace)), kern=kern, record=record)
        self._is_null: bool = getattr(prefetcher, "is_null", False)
        slot = np.zeros(1, dtype=np.int64)
        store.load(slot, [universe], [capacity], [config], [self._is_null])
        store.point_trace(
            slot, slot, np.ascontiguousarray(cids, dtype=np.int64)[None],
            (trace.kinds != 0)[None])
        self._run = store.runner(0)
        self._prefetcher = prefetcher
        self._trace = trace
        self._shift = config.page_size.bit_length() - 1

    def run(self, start: int, stop: int) -> None:
        run = self._run
        if self._is_null:
            run(start, stop, 0)
            return
        store = self._store
        cut = store.cut
        state = store.state[0]
        ring = store.ring_at.shape[1]
        address_at = self._trace.addresses.item
        stream_at = self._trace.stream_ids.item
        time_at = self._trace.timestamps.item
        shift = self._shift
        on_miss_fast = getattr(self._prefetcher, "on_miss_fast", None)
        on_miss = self._prefetcher.on_miss
        tail = int(state[_TAIL])
        # A lower bound on the ring head: re-read only when the ring
        # might be full.
        head = tail - ring
        i = start
        k = 0
        while True:
            j = run(i, stop, k)
            if j >= stop:
                break
            address = address_at(j)
            page = address >> shift
            if on_miss_fast is not None:
                predictions = on_miss_fast(j, address, page, stream_at(j),
                                           time_at(j))
            else:
                predictions = on_miss(MissEvent(
                    index=j, address=address, page=page,
                    stream_id=stream_at(j), timestamp=time_at(j)))
            k = cut(0, page, predictions) if predictions else 0
            tail += k
            if tail - head > ring:
                head = int(state[_HEAD])
                if tail - head > ring:
                    store.grow_rings(tail - head)
                    ring = store.ring_at.shape[1]
            i = j + 1

    def stats(self) -> CacheStats:
        return self._store.stats_of(0)

    def miss_indices(self) -> list[int]:
        return self._store.misses_of(0)

    def resident(self) -> int:
        return int(self._store.state[0, _RESIDENT])

    def queue_depth(self) -> int:
        state = self._store.state[0]
        return int(state[_TAIL] - state[_HEAD])


def baseline_misses(trace: Trace, config: SimConfig = SimConfig()) -> SimResult:
    """Run the no-prefetch baseline (Figure 5's denominator)."""
    return simulate(trace, NullPrefetcher(), config)


def span_length_stats(trace: Trace, prefetcher: Prefetcher,
                      config: SimConfig = SimConfig()) -> dict:
    """Measure the hit-run (span) length distribution of a workload.

    Replays the trace with the given prefetcher, then segments the access
    stream into maximal runs of consecutive hits (what the compiled
    engine replays between two returns to Python, landings included).
    Returns mean/median/max span length plus the hit/miss totals — what
    ``auto``'s probe estimates (``memsim.simulate.span_len_mean`` of
    ``python -m bench trace``).
    """
    result = simulate(trace, prefetcher, config, record_miss_indices=True)
    n = len(trace)
    misses = np.asarray(result.miss_indices, dtype=np.int64)
    # Span lengths = gaps between consecutive miss indices (minus the miss
    # itself), plus the leading and trailing hit runs.
    boundaries = np.concatenate(([-1], misses, [n]))
    spans = np.diff(boundaries) - 1
    spans = spans[spans > 0]
    return {
        "trace": trace.name,
        "prefetcher": result.prefetcher_name,
        "n_accesses": n,
        "demand_misses": int(len(misses)),
        "n_spans": int(len(spans)),
        "mean_span": float(spans.mean()) if len(spans) else 0.0,
        "median_span": float(np.median(spans)) if len(spans) else 0.0,
        "max_span": int(spans.max()) if len(spans) else 0,
    }
