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
* ``batched`` — the compiled engine on the array-backed
  :class:`~repro.memsim.pagecache.PageCache`: one C kernel runs the
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
from .pagecache import _STAT_FIELDS, _VICTIM_BATCH, MISS, CacheStats, PageCache
from .pagecache_reference import ReferencePageCache
from .prefetch_queue import PrefetchQueue
from .prefetcher import NullPrefetcher, Prefetcher

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
    use_batched = engine == "batched" or (
        engine == "auto" and kern is not None and on_access is None
        and (getattr(prefetcher, "is_null", False)
             or not _probe_prefers_scalar(trace, config, capacity, kern)))
    sink = telemetry if telemetry is not None and telemetry.enabled else None
    if sink is not None:
        sink.begin_run(trace, prefetcher.name, config, capacity)
    miss_indices: list[int] = []
    miss_out = miss_indices if record_miss_indices else None
    eng: _ScalarEngine | _CompiledEngine
    cache: PageCache | ReferencePageCache
    if use_batched:
        cache = PageCache(capacity_pages=capacity)
        eng = _CompiledEngine(trace, prefetcher, config, cache, miss_out,
                              kern)
        engine_used = "batched"
    else:
        cache = ReferencePageCache(capacity_pages=capacity)
        eng = _ScalarEngine(trace, prefetcher, config, cache, on_access,
                            miss_out)
        engine_used = "scalar"
    _drive(eng, len(trace), sink, cache, prefetcher)
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
    """Demand misses in ``[prefix // 2, prefix)`` of a null replay."""
    cache = PageCache(capacity_pages=capacity)
    probe = _CompiledEngine(trace, NullPrefetcher(), config, cache, None,
                            kern)
    probe.run(0, prefix // 2)
    early_misses = cache.stats.demand_misses
    probe.run(prefix // 2, prefix)
    return cache.stats.demand_misses - early_misses


def _drive(eng: "_ScalarEngine | _CompiledEngine", n: int,
           sink: "TelemetrySink | None",
           cache: PageCache | ReferencePageCache,
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
        sink.on_window(stop, cache, eng.queue_depth(), prefetcher)
        start = stop


class _ScalarEngine:
    """The retained per-access reference engine (OrderedDict cache).

    Construction materializes the trace columns as plain python lists
    once — indexing a numpy array element-by-element boxes a fresh scalar
    per access, which dominates the loop at trace scale — so telemetry
    segments re-enter :meth:`run` without re-paying the conversion.
    """

    def __init__(self, trace: Trace, prefetcher: Prefetcher,
                 config: SimConfig, cache: ReferencePageCache,
                 on_access: Any, miss_out: list[int] | None) -> None:
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
        self._queue = PrefetchQueue(
            delay_accesses=config.prefetch_delay_accesses)
        self._max_prefetches = config.max_prefetches_per_miss
        self._miss_out = miss_out

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


class _CompiledEngine:
    """``simulate()``'s compiled engine: one kernel call per demand miss.

    ``rk_sim_run`` (``nn/backends/c_backend.py``) runs the scalar
    engine's whole per-access algorithm — prefetch landings, hits,
    demand fills with LRU eviction — on the slot arrays of a
    :class:`PageCache`, and returns only at a demand miss: the
    prefetcher's turn.  Its predictions are cut to
    ``max_prefetches_per_miss``, lose the miss page (as in the scalar
    engine), are named by cid and handed to the next call, which issues
    them.  A null prefetcher is never asked, so a null run is one call
    per segment.  Landings and misses happen at the scalar engine's
    access indices, and the prefetcher sees its exact callback sequence,
    so every stat and learned weight is bit-identical.

    A page outside the trace's universe (a speculative prediction) gets
    the next *extension* cid, from the universe size up, the first time
    it is predicted; the cid table (``cache._slot_of_cid``) and
    ``_page_of_cid`` are reallocated wider, and the kernel rebound, when
    one falls outside them.  The in-flight ring doubles the same way.

    At each segment end :meth:`_sync` brings the cache's Python view up
    to date — ``stats``, ``_clock``, ``_n_resident``, ``_n_undemanded``
    and the free list — and :meth:`queue_depth` reports the in-flight
    count, so telemetry windows read what the scalar engine's would.
    """

    def __init__(self, trace: Trace, prefetcher: Prefetcher,
                 config: SimConfig, cache: PageCache,
                 miss_out: list[int] | None, kern: Any) -> None:
        universe, cids = trace.page_index(config.page_size)
        cache.attach_universe(universe)
        self._cache = cache
        self._kern = kern
        self._prefetcher = prefetcher
        self._is_null: bool = getattr(prefetcher, "is_null", False)
        self._trace = trace
        self._cids = np.ascontiguousarray(cids, dtype=np.int64)
        self._stores = trace.kinds != 0
        self._shift = config.page_size.bit_length() - 1
        self._delay = config.prefetch_delay_accesses
        self._max_prefetches = config.max_prefetches_per_miss
        self._page_of_cid = np.array(universe, dtype=np.int64)
        self._issue = np.zeros(max(1, self._max_prefetches), dtype=np.int64)
        # At most max_prefetches per miss of the last ``delay`` accesses
        # are in flight; past 4096 the ring grows when it fills.
        bound = max(1, self._max_prefetches * max(1, self._delay))
        ring = 1 << (min(bound, 4096) - 1).bit_length()
        self._ring_at = np.zeros(ring, dtype=np.int64)
        self._ring_cid = np.zeros(ring, dtype=np.int64)
        self._vstamp = np.zeros(_VICTIM_BATCH, dtype=np.int64)
        self._vslot = np.zeros(_VICTIM_BATCH, dtype=np.int64)
        self._stats = np.zeros(len(_STAT_FIELDS), dtype=np.int64)
        # clock, n_resident, n_undemanded, ring head, ring tail, misses
        # recorded, victim snapshot length and position (SIM_* in C).
        self._state = np.zeros(8, dtype=np.int64)
        self._miss_out = miss_out
        self._miss_idx = np.zeros(len(cids) if miss_out is not None else 1,
                                  dtype=np.int64)
        self._flushed = 0
        self._bind()

    def _bind(self) -> None:
        cache = self._cache
        self._run = self._kern.bind_sim(
            dict(cids=self._cids, stores=self._stores,
                 soc=cache._require_universe(), page_of_cid=self._page_of_cid,
                 page_of_slot=cache._page, last_use=cache._last_use,
                 cid_of_slot=cache._cid_of_slot, dirty=cache._dirty,
                 undemanded=cache._undemanded, ring_at=self._ring_at,
                 ring_cid=self._ring_cid, issue=self._issue,
                 miss_idx=self._miss_idx, vstamp=self._vstamp,
                 vslot=self._vslot, stats=self._stats, state=self._state),
            capacity=cache.capacity_pages, ring_mask=len(self._ring_at) - 1,
            delay=self._delay, record=int(self._miss_out is not None),
            is_null=int(self._is_null))

    def _extend(self, page: int) -> int:
        """The cid of ``page``, which the run's lookup missed: it was not
        an ``int``, or it is out of the universe and takes the next
        extension cid (cids are dense: the number of pages named)."""
        cache = self._cache
        cid = cache._cid_of.get(page)
        if cid is not None:
            return cid
        cid = len(cache._cid_of)
        if cid >= len(self._page_of_cid):
            width = 2 * cid + 16
            soc = np.full(width, -1, dtype=np.int64)
            soc[:cid] = cache._require_universe()
            cache._slot_of_cid = soc
            page_of_cid = np.zeros(width, dtype=np.int64)
            page_of_cid[:cid] = self._page_of_cid
            self._page_of_cid = page_of_cid
            self._bind()
        self._page_of_cid[cid] = page
        cache._cid_of[page] = cid
        return cid

    def _grow_ring(self, need: int) -> None:
        """Re-lay the in-flight ring into one of at least ``need``."""
        head, tail = self._state[3:5].tolist()
        old, size = len(self._ring_at), 1 << (need - 1).bit_length()
        at = np.arange(head, tail)
        for name in ("_ring_at", "_ring_cid"):
            grown = np.zeros(size, dtype=np.int64)
            grown[at & (size - 1)] = getattr(self, name)[at & (old - 1)]
            setattr(self, name, grown)
        self._bind()

    def run(self, start: int, stop: int) -> None:
        if self._is_null:
            self._run(start, stop, 0)
            self._sync()
            return
        run = self._run
        issue = self._issue
        ring = len(self._ring_at)
        address_at = self._trace.addresses.item
        stream_at = self._trace.stream_ids.item
        time_at = self._trace.timestamps.item
        shift = self._shift
        cid_get = self._cache._cid_of.get
        on_miss_fast = getattr(self._prefetcher, "on_miss_fast", None)
        on_miss = self._prefetcher.on_miss
        max_prefetches = self._max_prefetches
        tail = int(self._state[4])
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
            k = 0
            if predictions:
                if len(predictions) > max_prefetches:
                    predictions = predictions[:max_prefetches]
                for predicted in predictions:
                    if predicted != page:
                        cid = cid_get(predicted)
                        if cid is None:
                            cid = self._extend(int(predicted))
                            run = self._run
                        issue[k] = cid
                        k += 1
                tail += k
                if tail - head > ring:
                    head = int(self._state[3])
                    if tail - head > ring:
                        self._grow_ring(tail - head)
                        run = self._run
                        ring = len(self._ring_at)
            i = j + 1
        self._sync()

    def _sync(self) -> None:
        cache = self._cache
        clock, n_resident, n_undemanded, _, _, misses = (
            self._state[:6].tolist())
        cache._clock = clock
        cache._n_resident = n_resident
        cache._n_undemanded = n_undemanded
        # Slots go out virgin-ascending, the free list's pop order.
        del cache._free[cache.capacity_pages - n_resident:]
        stats = cache.stats
        for name, value in zip(_STAT_FIELDS, self._stats.tolist()):
            setattr(stats, name, value)
        if self._miss_out is not None:
            self._miss_out.extend(
                self._miss_idx[self._flushed:misses].tolist())
            self._flushed = misses

    def queue_depth(self) -> int:
        return int(self._state[4] - self._state[3])


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
