"""The live telemetry sink.

One :class:`Telemetry` instance observes one ``simulate()`` run (it may
be reused sequentially; ``begin_run`` resets per-run state).  The
simulator drives the sink at window boundaries — observation happens
*between* engine segments, never inside them, which is why an enabled
sink cannot perturb the simulation: the engines execute the identical
per-access/per-span code either way, just restarted at boundary indices,
and the boundary restarts are exact by the segmented-engine equivalence
argument in :mod:`repro.memsim.simulator`.

Wall-clock reads (``perf_counter`` for run timing and named timers) are
confined to this module, which is outside repro-lint's RL002 simulation
zones by design.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..harness.runner import spec_key
from .manifest import build_manifest, run_spec, write_jsonl_atomic
from .nullsink import NullTelemetry
from .windowing import WindowAccumulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..memsim.pagecache import CacheStats
    from ..memsim.simulator import SimConfig
    from ..patterns.trace import Trace

#: Default accesses per window; chosen so the paper-scale figs get a few
#: hundred windows and the test-scale traces a few dozen.
DEFAULT_INTERVAL = 1000


class Telemetry(NullTelemetry):
    """Collects windowed series, named counters/timers, and a manifest.

    Attributes:
        interval: Accesses per window.
        windows: Per-window records of the last (or current) run.
        counters: Named monotone counters bumped via :meth:`counter`.
        timers: Accumulated seconds per named :meth:`timer` block.
    """

    enabled = True

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        self._acc = WindowAccumulator(interval)
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self._spec: dict | None = None
        self._seed: int | None = None
        self._capacity_pages = 0
        self._engine = "unknown"
        self._backend = "unknown"
        self._started_at = 0.0
        self._wall_time_s = 0.0
        self._final_stats: dict | None = None
        self._finished = False

    @property
    def interval(self) -> int:
        return self._acc.interval

    @property
    def windows(self) -> list[dict]:
        return self._acc.windows

    # -- simulator-facing hooks -------------------------------------------

    def begin_run(self, trace: "Trace", prefetcher_name: str,
                  config: "SimConfig", capacity_pages: int) -> None:
        self._acc.reset()
        self._spec = run_spec(trace, prefetcher_name, config, self.interval)
        seed = trace.metadata.get("seed")
        self._seed = int(seed) if isinstance(seed, int) else None
        self._capacity_pages = capacity_pages
        self._engine = "unknown"
        self._backend = "unknown"
        self._final_stats = None
        self._finished = False
        self._started_at = time.perf_counter()

    def boundaries(self, n: int) -> list[int]:
        return self._acc.boundaries(n)

    def on_window(self, stop: int, stats: "CacheStats", resident: int,
                  queue_depth: int, prefetcher: object) -> None:
        poll = getattr(prefetcher, "telemetry_counters", None)
        extra = poll() if callable(poll) else None
        self._acc.emit(stop, stats, resident, queue_depth, extra)

    def end_run(self, engine: str, backend: str = "unknown") -> None:
        self._wall_time_s = time.perf_counter() - self._started_at
        self._engine = engine
        self._backend = backend
        if self.windows:
            last = self.windows[-1]
            self._final_stats = {
                "accesses": sum(w["accesses"] for w in self.windows),
                "demand_misses": sum(w["demand_misses"]
                                     for w in self.windows),
                "prefetch_hits": sum(w["prefetch_hits"]
                                     for w in self.windows),
                "resident": last["resident"],
            }
        self._finished = True

    # -- named counters/timers --------------------------------------------

    def counter(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timers[name] = self.timers.get(name, 0.0) + elapsed

    # -- output -----------------------------------------------------------

    def manifest(self) -> dict:
        if self._spec is None:
            raise RuntimeError("no run observed (begin_run never called)")
        return build_manifest(
            self._spec, seed=self._seed, engine=self._engine,
            backend=self._backend,
            capacity_pages=self._capacity_pages,
            wall_time_s=self._wall_time_s, n_windows=len(self.windows))

    def summary(self) -> dict:
        record: dict = {"record": "summary"}
        if self._final_stats is not None:
            record.update(self._final_stats)
        record["counters"] = dict(sorted(self.counters.items()))
        record["timers"] = {name: round(seconds, 6) for name, seconds
                           in sorted(self.timers.items())}
        return record

    def records(self) -> list[dict]:
        """All JSONL records in file order: manifest, windows, summary."""
        return [self.manifest(), *self.windows, self.summary()]

    def run_id(self) -> str:
        if self._spec is None:
            raise RuntimeError("no run observed (begin_run never called)")
        return spec_key(self._spec)[:16]

    def write(self, directory: str | Path) -> Path:
        """Write ``<run_id>.jsonl`` atomically into ``directory``."""
        out_dir = Path(directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        records = self.records()
        path = out_dir / f"{records[0]['run_id']}.jsonl"
        return write_jsonl_atomic(path, records)
