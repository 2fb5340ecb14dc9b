"""Miss-history window (§5.2).

The prefetcher keeps a bounded history of recent misses.  §5.2: "when
prefetching multiple steps into the future, a window of past misses is
required to construct appropriate training examples.  Thus, the prefetch
length determines a minimum history size."  This module provides that
window and the lagged training pairs it induces.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple


class MissRecord(NamedTuple):
    """One encoded miss."""

    class_id: int
    address: int
    timestamp: int


@dataclass
class MissHistory:
    """Bounded window of encoded misses.

    Attributes:
        capacity: Window length.  Must be at least ``prefetch length + 1``
            for lag-L training pairs to exist.
    """

    capacity: int = 16
    _window: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2")
        self._window = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._window)

    def push(self, record: MissRecord) -> None:
        self._window.append(record)

    def extend(self, records: Iterable[MissRecord]) -> None:
        """Bulk :meth:`push`, oldest first."""
        self._window.extend(records)

    def last(self, n: int = 1) -> list[MissRecord]:
        if n <= 0:
            return []
        return list(self._window)[-n:]

    def latest(self) -> MissRecord | None:
        return self._window[-1] if self._window else None

    def transition_pair(self, lag: int = 1) -> tuple[MissRecord, MissRecord] | None:
        """The (input, target) pair at distance ``lag``, if the window holds it.

        lag=1 is the paper's default (predict the next miss); larger lags
        train the direct multi-step predictor of §5.2.
        """
        if lag < 1:
            raise ValueError("lag must be >= 1")
        if len(self._window) < lag + 1:
            return None
        window = list(self._window)
        return window[-1 - lag], window[-1]

    def classes(self) -> list[int]:
        return [r.class_id for r in self._window]

    def mean_inter_miss_ns(self) -> float | None:
        """Average gap between misses in the window (drives timeliness)."""
        if len(self._window) < 2:
            return None
        window = list(self._window)
        span = window[-1].timestamp - window[0].timestamp
        return span / (len(window) - 1) if span >= 0 else None

    def clear(self) -> None:
        self._window.clear()
