"""Trace-driven memory simulation (Figure 1's deployment loop).

``simulate`` replays a trace against a :class:`~repro.memsim.pagecache.PageCache`
sized as a fraction of the trace footprint (Figure 5 uses 50%), feeding
every demand miss to a prefetcher and installing its predictions after a
configurable timeliness delay.

Two engines produce bit-identical results (same ``CacheStats``, same
miss indices, same prefetcher interaction order):

* ``scalar`` — the retained per-access event loop, running on the seed's
  OrderedDict :class:`~repro.memsim.pagecache_reference.ReferencePageCache`
  (the reference semantics *and* the reference constant factors).  It is
  the only engine able to drive per-access observers (``wants_accesses``
  prefetchers) and the only engine without the compiled kernels.
* ``batched`` — the span-batched engine on the array-backed
  :class:`~repro.memsim.pagecache.PageCache`, which needs the compiled
  kernels.  Between two membership-changing events (a demand fill or a
  prefetch landing) the resident set is constant, so the whole hit run up
  to the next miss is one compiled hit walk.  Misses stay scalar so the
  prefetcher sees the exact same callback sequence.  A null-prefetcher
  run is one compiled replay call per segment instead (also reported as
  ``batched``).

``engine="auto"`` (the default) picks ``batched`` whenever the kernels
are available and the prefetcher does not observe per-access events,
which covers every Figure 5 configuration in the repo, unless one
up-front probe of the trace prefix (``_probe_prefers_scalar``) shows
spans too short to amortize the per-span dispatch; the compiled null
replay has no per-span cost and skips the probe.  Without the kernels
``auto`` is the scalar engine, unprobed.

All engines are *segment-capable* (PR 5): each exposes
``run(start, stop)`` and ``simulate`` drives the run as a sequence of
segments.  With telemetry disabled there is exactly one segment,
``[0, n)``, through the identical code path — which is how the null
sink stays free.  With an enabled :class:`repro.telemetry.Telemetry`
sink, segments end at window boundaries and the sink snapshots counters
between them.  Segmentation cannot change results: a boundary merely
clips the current hit span or miss run, and splitting a compiled walk or
replay is splitting a sequence of scalar operations that were already
defined element-wise (same clock order, same LRU stamps, same victims) —
pinned by ``tests/telemetry/test_engine_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..nn.backends import resolve_backend, sim_kernels
from ..patterns.trace import Trace
from .events import AccessEvent, MissEvent
from .pagecache import MISS, CacheStats, PageCache
from .pagecache_reference import ReferencePageCache
from .prefetch_queue import PrefetchQueue
from .prefetcher import Prefetcher

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from ..telemetry.nullsink import NullTelemetry as TelemetrySink

#: Spans at least this long pay for the batched engine's per-span cost
#: (one compiled hit walk plus the landing bookkeeping) over the
#: per-access loop (measured on stride-resnet, spans ~1-2: batched
#: 0.20 M/s vs scalar 0.38 M/s; stride-graph500, spans ~8: batched
#: 1.65 M/s vs scalar 1.04 M/s).
_PROBE_MIN_SPAN = 3

#: The auto-engine probe replays at most this many leading accesses (null,
#: bulk cache APIs on the compiled scans) to estimate steady-state span
#: lengths before committing a run to the batched engine.
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
    #: Which engine actually ran ("batched" or "scalar") and which kernel
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
    bulk null replay of a short prefix) and picks the scalar engine for
    short-span workloads whose per-access misses would make span
    batching a net loss (stride on resnet, where most spans are one or
    two accesses).  The compiled null replay skips the probe — it has no
    per-span cost.

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
    queue = PrefetchQueue(delay_accesses=config.prefetch_delay_accesses)
    on_access = getattr(prefetcher, "on_access", None)
    if on_access is not None and not getattr(prefetcher, "wants_accesses", True):
        # Fast-path protocol: the prefetcher declares it ignores the
        # per-access stream, so skip the callback (it would return None
        # for every access) instead of allocating an event each time.
        on_access = None
    if engine == "batched" and on_access is not None:
        raise ValueError(
            "batched engine cannot drive per-access observers; "
            "use engine='scalar' (or 'auto') for wants_accesses prefetchers")
    if engine == "batched" and kern is None:
        raise ValueError(
            "batched engine needs the compiled kernels; "
            "use engine='scalar' (or 'auto') on the numpy backend")
    compiled_null = (kern is not None
                     and getattr(prefetcher, "is_null", False))
    # A short-span workload pays more for the per-span kernel call and
    # landing bookkeeping than for the reference per-access loop (auto
    # must be at least as good as the better explicit engine choice).
    use_batched = engine == "batched" or (
        engine == "auto" and kern is not None and on_access is None
        and (compiled_null
             or not _probe_prefers_scalar(trace, config, capacity, kern)))
    sink = telemetry if telemetry is not None and telemetry.enabled else None
    if sink is not None:
        sink.begin_run(trace, prefetcher.name, config, capacity)
    n = len(trace)
    miss_indices: list[int] = []
    miss_out = miss_indices if record_miss_indices else None
    eng: _ScalarEngine | _BatchedEngine | _CompiledNullEngine
    cache: PageCache | ReferencePageCache
    if use_batched:
        cache = PageCache(capacity_pages=capacity)
        if compiled_null:
            eng = _CompiledNullEngine(trace, config, cache, miss_out, kern)
        else:
            eng = _BatchedEngine(trace, prefetcher, config, cache, queue,
                                 miss_out, kern)
        engine_used = "batched"
    else:
        cache = ReferencePageCache(capacity_pages=capacity)
        eng = _ScalarEngine(trace, prefetcher, config, cache, queue,
                            on_access, miss_out)
        engine_used = "scalar"
    _drive(eng, n, sink, cache, queue, prefetcher)
    if sink is not None:
        sink.end_run(engine_used, backend_used)
    return SimResult(
        trace_name=trace.name,
        prefetcher_name=prefetcher.name,
        capacity_pages=capacity,
        stats=cache.stats,
        config=config,
        miss_indices=miss_indices,
        engine_used=engine_used,
        backend_used=backend_used,
    )


def _probe_prefers_scalar(trace: Trace, config: SimConfig,
                          capacity: int, kern: Any) -> bool:
    """Cheap span-length probe for the auto engine choice.

    Replays a short prefix of the trace with no prefetcher through the
    bulk cache APIs and measures the steady-state inter-miss gap — only
    misses in the *second half* of the prefix count, so compulsory
    (first-touch) misses of small-footprint workloads don't masquerade as
    short spans.  A gap below ``_PROBE_MIN_SPAN`` means the batched
    engine would pay per-span dispatch for most spans and lose to the
    reference loop.  Deterministic, allocation-light (the page index is
    memoized on the trace), and ~prefix/trace_length of a full run; the
    probe itself scans through the compiled kernels.
    """
    n = len(trace)
    prefix = min(n, _PROBE_PREFIX)
    if prefix < _PROBE_MIN:
        return False
    universe, cids = trace.page_index(config.page_size)
    pages = trace.pages(config.page_size)
    stores = np.zeros(prefix, dtype=bool)
    cache = PageCache(capacity_pages=capacity)
    cache.attach_universe(universe)
    cache.attach_kernels(kern)
    half = prefix // 2
    late_misses = 0
    i = 0
    while i < prefix:
        j = cache.first_nonresident(cids, i, prefix)
        if j > i:
            cache.access_run(cids[i:j], stores[: j - i])
            i = j
        if i >= prefix:
            break
        k = cache.miss_run_length(cids, i, prefix)
        cache.fill_run(pages[i:i + k], cids[i:i + k], stores[:k])
        if i + k > half:
            late_misses += (i + k) - max(i, half)
        i += k
    if not late_misses:
        return False
    return (prefix - half) / late_misses < _PROBE_MIN_SPAN


def _drive(eng: "_ScalarEngine | _BatchedEngine | _CompiledNullEngine",
           n: int,
           sink: "TelemetrySink | None",
           cache: PageCache | ReferencePageCache, queue: PrefetchQueue,
           prefetcher: Prefetcher) -> None:
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
        sink.on_window(stop, cache, len(queue), prefetcher)
        start = stop


class _ScalarEngine:
    """The retained per-access reference engine (OrderedDict cache).

    Construction materializes the trace columns as plain python lists
    once — indexing a numpy array element-by-element boxes a fresh scalar
    per access, which dominates the loop at trace scale — so telemetry
    segments re-enter :meth:`run` without re-paying the conversion.
    """

    def __init__(self, trace: Trace, prefetcher: Prefetcher,
                 config: SimConfig, cache: PageCache | ReferencePageCache,
                 queue: PrefetchQueue, on_access: Any,
                 miss_out: list[int] | None) -> None:
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
        self._cache = cache
        self._queue = queue
        self._max_prefetches = config.max_prefetches_per_miss
        self._miss_out = miss_out

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
        miss_out = self._miss_out
        append_miss = miss_out.append if miss_out is not None else None

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


class _BatchedEngine:
    """Span-batched engine: one compiled hit walk per span.

    Residency is constant between two membership-changing events (a
    demand fill or a prefetch landing), so the whole hit run up to the
    next miss is one kernel call; spans never contain a landing by
    construction.  Landings and misses happen at exactly the scalar
    engine's access indices and misses stay scalar, so the prefetcher
    sees the exact callback sequence of the scalar engine — every stat
    and learned weight is bit-identical.  A telemetry boundary merely
    clips the current span (a hit run is a sequence of identical scalar
    accesses), so segmented runs are bit-identical to the single-segment
    run.
    """

    def __init__(self, trace: Trace, prefetcher: Prefetcher,
                 config: SimConfig, cache: PageCache, queue: PrefetchQueue,
                 miss_out: list[int] | None, kern: Any) -> None:
        universe, cids = trace.page_index(config.page_size)
        cache.attach_universe(universe)
        cache.attach_kernels(kern)
        stores = trace.kinds != 0
        self._cache = cache
        self._queue = queue
        self._pages: list[int] = trace.pages(config.page_size).tolist()
        self._stores: list[bool] = stores.tolist()
        # The walk is bound to the cache's state arrays: they are
        # allocated once and landings/misses mutate them in place, so the
        # bound pointers stay valid for the whole run.
        self._walk_state = np.zeros(4, dtype=np.int64)
        self._walk = kern.bind_hit_walk(
            soc=cache._require_universe(),
            cids=np.ascontiguousarray(cids, dtype=np.int64),
            stores=stores, last_use=cache._last_use,
            dirty=cache._dirty, undemanded=cache._undemanded,
            state=self._walk_state)

        addresses = trace.addresses
        stream_ids = trace.stream_ids
        timestamps = trace.timestamps
        on_miss_fast = getattr(prefetcher, "on_miss_fast", None)
        on_miss = prefetcher.on_miss
        max_prefetches = config.max_prefetches_per_miss
        fill = cache.fill
        issue = queue.issue
        append_miss = miss_out.append if miss_out is not None else None

        def handle_miss(i: int, page: int, store: bool) -> None:
            fill(page, store)
            if append_miss is not None:
                append_miss(i)
            if on_miss_fast is not None:
                predictions = on_miss_fast(i, int(addresses[i]), page,
                                           int(stream_ids[i]),
                                           int(timestamps[i]))
            else:
                predictions = on_miss(MissEvent(
                    index=i,
                    address=int(addresses[i]),
                    page=page,
                    stream_id=int(stream_ids[i]),
                    timestamp=int(timestamps[i]),
                ))
            if predictions:
                if len(predictions) > max_prefetches:
                    predictions = predictions[:max_prefetches]
                for predicted in predictions:
                    if predicted != page:
                        issue(int(predicted), i)

        self._handle_miss = handle_miss

    def run(self, start: int, stop: int) -> None:
        cache = self._cache
        queue = self._queue
        n = stop
        pages = self._pages
        stores = self._stores
        handle_miss = self._handle_miss
        insert_prefetch = cache.insert_prefetch
        landed = queue.landed
        walk = self._walk
        state = self._walk_state
        stats = cache.stats
        accesses_l = misses_l = 0

        i = start
        while i < n:
            if queue.next_landing <= i:
                for landed_page in landed(i):
                    insert_prefetch(landed_page)
            # Residency is constant until the next landing or demand fill:
            # walk hits up to whichever comes first (or the segment end).
            span_stop = queue.next_landing
            if span_stop > n:
                span_stop = n
            # Python-side landings/fills tick the clock and flip
            # undemanded flags between walks; sync both ways per call.
            state[0] = cache._clock
            state[1] = cache._n_undemanded
            j = walk(i, span_stop)
            cache._clock = int(state[0])
            cache._n_undemanded = int(state[1])
            accesses_l += j - i
            i = j
            if i < span_stop:
                accesses_l += 1
                misses_l += 1
                handle_miss(i, pages[i], stores[i])
                i += 1
        stats.accesses += accesses_l
        stats.demand_misses += misses_l
        stats.prefetch_hits += int(state[2])
        stats.hits += int(state[3])
        state[2] = 0
        state[3] = 0


class _CompiledNullEngine:
    """Null-prefetcher replay as one compiled call per segment.

    No prefetch is ever issued, so the whole per-access reference
    algorithm — hit stamping, LRU victim selection, fills — runs inside
    the kernel; only the stats flush and miss-index copy stay in Python.
    Undemanded flags and the out-of-universe overlay are provably
    untouched (nothing is ever prefetched), and the kernel's batched
    victim snapshot selects exactly the scalar loop's LRU victims (see
    the kernel source), so results are bit-identical to the scalar
    engine.
    """

    def __init__(self, trace: Trace, config: SimConfig, cache: PageCache,
                 miss_out: list[int] | None, kern: Any) -> None:
        pages_arr = trace.pages(config.page_size)
        universe, cids = trace.page_index(config.page_size)
        cache.attach_universe(universe)
        cache.attach_kernels(kern)
        self._cache = cache
        self._miss_out = miss_out
        n = len(cids)
        # state: [0]=clock [1]=n_resident [2]=free_n [3]=miss_count
        #        [4]=hits [5]=demand_misses [6]=writebacks (4-6 per-segment)
        state = np.zeros(8, dtype=np.int64)
        state[0] = cache._clock
        state[1] = cache._n_resident
        state[2] = len(cache._free)
        self._state = state
        self._free_arr = np.array(cache._free, dtype=np.int64)
        self._record = 1 if miss_out is not None else 0
        self._miss_idx = np.zeros(n if miss_out is not None else 1,
                                  dtype=np.int64)
        self._flushed = 0
        self._run_kern = kern.bind_null_run(
            cids=np.ascontiguousarray(cids, dtype=np.int64),
            pages=np.ascontiguousarray(pages_arr, dtype=np.int64),
            stores=trace.kinds != 0,
            soc=cache._require_universe(), page_of_slot=cache._page,
            last_use=cache._last_use, dirty=cache._dirty,
            cid_of_slot=cache._cid_of_slot, free_slots=self._free_arr,
            capacity=cache.capacity_pages, miss_idx=self._miss_idx,
            state=state)

    def run(self, start: int, stop: int) -> None:
        self._run_kern(start, stop, self._record)
        cache = self._cache
        state = self._state
        stats = cache.stats
        stats.accesses += stop - start
        stats.hits += int(state[4])
        stats.demand_misses += int(state[5])
        stats.writebacks += int(state[6])
        state[4] = 0
        state[5] = 0
        state[6] = 0
        # Mirror the kernel-owned scalars back so telemetry windows (and
        # any post-run cache use) see consistent state.
        cache._clock = int(state[0])
        cache._n_resident = int(state[1])
        cache._free[:] = self._free_arr[:int(state[2])].tolist()
        if self._miss_out is not None:
            miss_n = int(state[3])
            self._miss_out.extend(
                self._miss_idx[self._flushed:miss_n].tolist())
            self._flushed = miss_n


def baseline_misses(trace: Trace, config: SimConfig = SimConfig()) -> SimResult:
    """Run the no-prefetch baseline (Figure 5's denominator)."""
    from .prefetcher import NullPrefetcher

    return simulate(trace, NullPrefetcher(), config)


def span_length_stats(trace: Trace, prefetcher: Prefetcher,
                      config: SimConfig = SimConfig()) -> dict:
    """Measure the hit-run (span) length distribution of a workload.

    Replays the trace with the given prefetcher, then segments the access
    stream into maximal runs of consecutive hits (the spans the batched
    engine accounts in bulk).  Returns mean/median/max span length plus
    the hit/miss totals — the numbers that explain where span batching
    pays (``memsim.simulate.span_len_mean`` of ``python -m bench trace``).
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
