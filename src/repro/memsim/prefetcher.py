"""The prefetcher interface every policy in this repository implements."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .events import AccessEvent, MissEvent


@runtime_checkable
class Prefetcher(Protocol):
    """A prefetch policy driven by the memory system's miss stream.

    The simulator calls :meth:`on_miss` for every demand miss (Figure 1's
    deployment: the miss history feeds the model, the model's predictions
    become prefetch requests).  Implementations return the *pages* to
    prefetch; the simulator handles queueing, timeliness, and insertion.
    """

    name: str

    def on_miss(self, event: MissEvent) -> list[int]:
        """React to a demand miss; return pages to prefetch (may be empty)."""
        ...


class AccessAwarePrefetcher(Prefetcher, Protocol):
    """Optional extension for policies that also observe hits.

    ``on_access`` may return pages to prefetch (prefetch chaining: real
    prefetchers keep the pipeline full by also triggering on prefetched
    hits); returning None issues nothing.
    """

    def on_access(self, event: AccessEvent) -> list[int] | None:
        ...


class FastPathPrefetcher(Prefetcher, Protocol):
    """Opt-in allocation-free protocol for the simulator's inner loop.

    A prefetcher that implements the ``*_fast`` entry points receives the
    event *fields* as scalars instead of a per-access ``MissEvent`` /
    ``AccessEvent`` dataclass, and MUST behave identically to its
    event-object methods (the usual implementation has ``on_miss``
    delegate to ``on_miss_fast``).  The event-object path remains the
    portable interface for external prefetchers.

    Implementations may additionally expose a ``wants_accesses``
    attribute; when false the simulator skips the per-access callback
    entirely (valid only if ``on_access`` would return None for every
    access in that configuration).

    ``wants_accesses`` also gates engine selection (PR 4): the
    compiled engine never delivers per-access callbacks, so a
    prefetcher that wants them is always simulated on the scalar
    reference engine.  Miss-driven prefetchers see the identical miss
    stream under either engine — the compiled kernel replays hits and
    landings itself but returns at every demand miss, so
    ``on_miss``/``on_miss_fast`` fire at the same indices with the same
    cache state as the scalar loop.
    """

    def on_miss_fast(self, index: int, address: int, page: int,
                     stream_id: int, timestamp: int) -> list[int]:
        ...

    def on_access_fast(self, index: int, address: int, page: int,
                       stream_id: int, timestamp: int,
                       hit: bool) -> list[int] | None:
        ...


class NullPrefetcher:
    """The no-prefetching baseline (Figure 5's denominator).

    ``is_null`` lets the scalar engine skip constructing
    :class:`MissEvent` objects entirely — this policy never reads them —
    and, with the C kernels, runs the compiled engine in null mode (the
    whole run in one kernel call per segment).
    """

    name = "none"
    is_null = True

    def on_miss(self, event: MissEvent) -> list[int]:
        del event
        return []

    def on_miss_fast(self, index: int, address: int, page: int,
                     stream_id: int, timestamp: int) -> list[int]:
        del index, address, page, stream_id, timestamp
        return []
