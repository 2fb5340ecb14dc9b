"""Request batching for the query path.

Clients submit queries and receive a :class:`QueryTicket`; the serve
loop drains pending tickets in bounded batches, answers each from the
current live model, and resolves the ticket.  A ticket resolves exactly
once (double-resolution raises — the hypothesis suite leans on that),
and clients may block on :meth:`QueryTicket.wait` in threaded mode or
poll :attr:`QueryTicket.done` under the virtual scheduler.

Resolution is a flag set under the batcher's lock, which
:meth:`RequestBatcher.answer` takes anyway to count the answer; a
ticket builds no synchronization object of its own.  Only a client that
calls :meth:`QueryTicket.wait` before the answer gets one — an event
made under the same lock, so the answer either sees it and sets it or
was already there to be read.

The query path never touches the per-tenant training lock: answering is
reading the live model, which only the serve loop mutates (at swap
time), so a query can never block behind a training step.
"""

from __future__ import annotations

import threading
from collections import deque


class QueryTicket:
    """One in-flight prefetch query and, eventually, its answer.

    Attributes:
        qid: Monotone id assigned at submission.
        tenant: The querying tenant.
        submitted_at: Clock reading at submission.
        answered_at: Clock reading at resolution (None while pending).
        pages: The answer — predicted prefetch pages (None while pending).
        checksum: Serving-weights checksum at answer time, recorded when
            the service runs with ``record_checksums`` (the torn-swap
            assertion compares it against the swap history).
    """

    __slots__ = ("qid", "tenant", "submitted_at", "answered_at", "pages",
                 "checksum", "_done", "_lock", "_waiter")

    def __init__(self, qid: int, tenant: int, submitted_at: float,
                 lock: threading.Lock) -> None:
        """``lock`` guards the resolution: the issuing batcher's."""
        self.qid = qid
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.answered_at: float | None = None
        self.pages: list[int] | None = None
        self.checksum: str | None = None
        self._done = False
        self._lock = lock
        self._waiter: threading.Event | None = None

    @property
    def done(self) -> bool:
        return self._done

    def resolve(self, pages: list[int], answered_at: float,
                checksum: str | None = None) -> None:
        """Attach the answer; a ticket resolves exactly once."""
        with self._lock:
            self._resolve_locked(pages, answered_at, checksum)

    def _resolve_locked(self, pages: list[int], answered_at: float,
                        checksum: str | None) -> None:
        """:meth:`resolve` for a caller that holds the ticket's lock."""
        if self._done:
            raise RuntimeError(f"ticket {self.qid} resolved twice")
        self.pages = pages
        self.answered_at = answered_at
        self.checksum = checksum
        self._done = True
        if self._waiter is not None:
            self._waiter.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block (threaded mode) until answered; True iff it was."""
        with self._lock:
            if self._done:
                return True
            if self._waiter is None:
                self._waiter = threading.Event()
            waiter = self._waiter
        return waiter.wait(timeout)

    def latency(self) -> float:
        """Seconds from submission to answer (clock units)."""
        if self.answered_at is None:
            raise RuntimeError(f"ticket {self.qid} not answered yet")
        return self.answered_at - self.submitted_at


class RequestBatcher:
    """FIFO query queue drained in batches of at most ``max_batch``.

    Attributes:
        max_batch: Upper bound on tickets per :meth:`take_batch`.
        submitted: Total tickets issued.
        answered: Total tickets resolved through :meth:`answer`.
    """

    def __init__(self, max_batch: int) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        self.submitted = 0
        self.answered = 0
        self._pending: deque[QueryTicket] = deque()
        self._lock = threading.Lock()
        self._next_id = 0

    def submit(self, tenant: int, now: float) -> QueryTicket:
        """Enqueue a query; returns its ticket immediately."""
        with self._lock:
            ticket = QueryTicket(self._next_id, tenant, now, self._lock)
            self._next_id += 1
            self.submitted += 1
            self._pending.append(ticket)
            return ticket

    def take_batch(self) -> list[QueryTicket]:
        """Dequeue up to ``max_batch`` tickets, FIFO."""
        with self._lock:
            out: list[QueryTicket] = []
            while self._pending and len(out) < self.max_batch:
                out.append(self._pending.popleft())
            return out

    def answer(self, ticket: QueryTicket, pages: list[int], now: float,
               checksum: str | None = None) -> None:
        """Resolve a ticket taken from :meth:`take_batch`."""
        with self._lock:
            ticket._resolve_locked(pages, now, checksum)
            self.answered += 1

    def pending(self) -> int:
        with self._lock:
            return len(self._pending)
