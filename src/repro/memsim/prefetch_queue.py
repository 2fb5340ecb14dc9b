"""In-flight prefetch modelling (timeliness, §5.2).

A prefetch is not useful the instant the model predicts it: the prediction
takes inference time, and the data takes transfer time.  The paper's §5.2
observes that when the time between misses is smaller than the inference
latency, "even a perfect model will always prefetch too late."

We model this with a landing delay measured in *accesses*: a prefetch
issued at access ``i`` becomes resident only once the simulator reaches
access ``i + delay``.  Harnesses derive ``delay`` from the model's modeled
latency and the trace's inter-access gap (see ``repro.nn.costs``).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

#: ``next_landing`` value when nothing is in flight (larger than any index).
NO_PENDING = 1 << 62

#: Consumed queue prefix is compacted away once it grows past this.
_COMPACT_AT = 1024


@dataclass
class PrefetchQueue:
    """In-flight prefetches ordered by (landing_index, issue sequence).

    ``next_landing`` is the landing index of the earliest in-flight
    prefetch (``NO_PENDING`` when empty), so callers in a hot loop can
    skip :meth:`landed` entirely between landings — the common case —
    making arrival processing amortized O(1) per access.

    The queue is a sorted list with a consumed-prefix cursor: because the
    landing delay is constant, issues at non-decreasing access indices
    append in already-sorted order (O(1)); an out-of-order issue falls
    back to a bisected insert, so arbitrary issue order remains correct.
    """

    delay_accesses: int = 0
    next_landing: int = NO_PENDING
    _queue: list[tuple[int, int, int]] = field(default_factory=list)
    _head: int = 0
    _seq: int = 0

    def __post_init__(self) -> None:
        if self.delay_accesses < 0:
            raise ValueError("delay_accesses must be >= 0")

    def __len__(self) -> int:
        return len(self._queue) - self._head

    def issue(self, page: int, at_index: int) -> None:
        """Issue a prefetch at access ``at_index``."""
        landing = at_index + self.delay_accesses
        queue = self._queue
        entry = (landing, self._seq, page)
        self._seq += 1
        if queue and entry < queue[-1]:
            insort(queue, entry, lo=self._head)
        else:
            queue.append(entry)
        if landing < self.next_landing:
            self.next_landing = landing

    def landed(self, now_index: int) -> list[int]:
        """Pop every prefetch whose landing index is <= ``now_index``.

        Pages are returned in (landing, issue-order) sequence and may
        contain duplicates — one entry per :meth:`issue` call, even for
        the same page (see :meth:`landed_unique`).
        """
        if now_index < self.next_landing:
            return []
        queue = self._queue
        head = self._head
        n = len(queue)
        stop = head
        while stop < n and queue[stop][0] <= now_index:
            stop += 1
        out = [entry[2] for entry in queue[head:stop]]
        if stop >= n:
            queue.clear()
            stop = 0
        elif stop >= _COMPACT_AT:
            del queue[:stop]
            stop = 0
        self._head = stop
        self.next_landing = queue[stop][0] if stop < len(queue) else NO_PENDING
        return out

    def landed_unique(self, now_index: int) -> list[int]:
        """Like :meth:`landed`, with duplicate pages coalesced.

        First occurrence wins, preserving arrival order — the behavior of
        a device driver that merges duplicate in-flight requests for the
        same page instead of re-issuing the transfer.  Used by the
        systems' shared-stream loops (§4), whose modeled interconnect
        would otherwise pay twice for one page.
        """
        pages = self.landed(now_index)
        if len(pages) < 2:
            return pages
        seen: set[int] = set()
        add = seen.add
        return [p for p in pages if not (p in seen or add(p))]
