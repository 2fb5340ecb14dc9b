"""Stream-aware prefetcher composition for centralized deployments (§4).

A centralized prefetcher (the UVM driver, or a switch-resident design)
observes *interleaved* access streams.  The paper notes it "may require
more processing to ensure that it can isolate the individual access
patterns in the combined access streams."  Two compositions make that
trade-off measurable: one model fed the raw interleaved miss stream (no
isolation; cross-stream deltas pollute the encoding), or
:class:`PerStreamPrefetcher` — the isolation pass: demultiplex by stream
id into per-stream model instances (more state, clean patterns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..memsim.events import MissEvent
from ..memsim.prefetcher import Prefetcher

PrefetcherFactory = Callable[[], Prefetcher]


@dataclass
class PerStreamPrefetcher:
    """Demultiplex misses by stream id into per-stream prefetchers.

    Sub-prefetchers are created lazily from ``factory`` the first time a
    stream faults, bounded by ``max_streams`` (further streams share the
    overflow instance — a resource-cap knob for constrained deployments).
    """

    factory: PrefetcherFactory
    max_streams: int = 64
    name: str = "per-stream"
    _per_stream: dict[int, Prefetcher] = field(default_factory=dict, repr=False)
    _overflow: Prefetcher | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.max_streams < 1:
            raise ValueError("max_streams must be >= 1")

    def on_miss(self, event: MissEvent) -> list[int]:
        return self._route(event.stream_id).on_miss(event)

    def _route(self, stream_id: int) -> Prefetcher:
        prefetcher = self._per_stream.get(stream_id)
        if prefetcher is not None:
            return prefetcher
        if len(self._per_stream) < self.max_streams:
            prefetcher = self.factory()
            self._per_stream[stream_id] = prefetcher
            return prefetcher
        if self._overflow is None:
            self._overflow = self.factory()
        return self._overflow

    @property
    def n_streams(self) -> int:
        return len(self._per_stream)
