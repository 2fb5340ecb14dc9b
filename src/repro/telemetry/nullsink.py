"""The disabled telemetry sink: every hook is a no-op.

``NullTelemetry`` defines the full sink surface the simulator and
harness drive, so :class:`~repro.telemetry.sink.Telemetry` subclasses it
rather than re-declaring the contract.  The simulator additionally
short-circuits on ``enabled`` — with a null (or absent) sink it runs a
single ``[0, n)`` segment through exactly the pre-telemetry code path,
which is how the ≤2% overhead acceptance bound is met: disabled
telemetry costs one attribute check per ``simulate()`` call, not one
per access.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..memsim.pagecache import CacheStats
    from ..memsim.simulator import SimConfig
    from ..patterns.trace import Trace


class NullTelemetry:
    """A sink that observes nothing and costs nothing.

    Attributes:
        enabled: False; the simulator checks this once per run and takes
            the unsegmented fast path.
    """

    enabled: bool = False

    def begin_run(self, trace: "Trace", prefetcher_name: str,
                  config: "SimConfig", capacity_pages: int) -> None:
        del trace, prefetcher_name, config, capacity_pages

    def boundaries(self, n: int) -> list[int]:
        """Segment ends for a run of ``n`` accesses: one segment."""
        return [n]

    def on_window(self, stop: int, stats: "CacheStats", resident: int,
                  queue_depth: int, prefetcher: object) -> None:
        del stop, stats, resident, queue_depth, prefetcher

    def end_run(self, engine: str, backend: str = "unknown") -> None:
        del engine, backend

    def counter(self, name: str, amount: int = 1) -> None:
        del name, amount

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        del name
        yield


#: Shared default instance; stateless, safe across runs and processes.
NULL_TELEMETRY = NullTelemetry()
