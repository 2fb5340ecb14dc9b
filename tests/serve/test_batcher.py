"""Query tickets and the request batcher.

A ticket resolves once, under the batcher's lock, and builds no
synchronization object of its own: only a client that waits before its
answer gets one.  These cases pin the client-visible contract — ``done``,
``wait`` before and after the answer, a timed-out ``wait``, resolve-once,
one answer releasing exactly its own waiter — and that a lockstep pass
through the service makes no per-ticket lock or event at all.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.serve import PrefetchService, ServeConfig, replay_lockstep
from repro.serve.batcher import QueryTicket, RequestBatcher

VOCAB = 64


def _taken(batcher: RequestBatcher, n: int) -> list[QueryTicket]:
    tickets = [batcher.submit(tenant, float(tenant)) for tenant in range(n)]
    assert batcher.take_batch() == tickets
    return tickets


def test_a_ticket_resolves_once() -> None:
    batcher = RequestBatcher(max_batch=4)
    (ticket,) = _taken(batcher, 1)
    batcher.answer(ticket, [7], 2.0, "digest")
    with pytest.raises(RuntimeError, match="resolved twice"):
        batcher.answer(ticket, [8], 3.0)
    with pytest.raises(RuntimeError, match="resolved twice"):
        ticket.resolve([9], 4.0)
    assert (ticket.pages, ticket.answered_at, ticket.checksum) == (
        [7], 2.0, "digest")
    assert batcher.answered == 1


def test_a_ticket_resolved_directly_resolves_once() -> None:
    ticket = QueryTicket(0, 3, 1.0, threading.Lock())
    ticket.resolve([1, 2], 1.5)
    with pytest.raises(RuntimeError, match="resolved twice"):
        ticket.resolve([1, 2], 1.5)
    assert ticket.done and ticket.wait(0.0)
    assert ticket.latency() == 0.5


def test_done_follows_the_answer() -> None:
    batcher = RequestBatcher(max_batch=4)
    ticket = batcher.submit(0, 0.0)
    assert not ticket.done
    with pytest.raises(RuntimeError, match="not answered"):
        ticket.latency()
    assert batcher.take_batch() == [ticket]
    assert not ticket.done
    batcher.answer(ticket, [], 1.0)
    assert ticket.done
    assert ticket.latency() == 1.0


def test_wait_after_the_answer_returns_at_once() -> None:
    batcher = RequestBatcher(max_batch=4)
    (ticket,) = _taken(batcher, 1)
    batcher.answer(ticket, [3], 1.0)
    assert ticket.wait() is True
    assert ticket.wait(0.0) is True
    assert ticket._waiter is None  # nobody waited before the answer


def test_wait_on_a_pending_ticket_times_out() -> None:
    batcher = RequestBatcher(max_batch=4)
    (ticket,) = _taken(batcher, 1)
    assert ticket.wait(0.01) is False
    assert not ticket.done
    batcher.answer(ticket, [4], 1.0)  # the waiter made above is set
    assert ticket.wait(0.01) is True


def test_wait_before_the_answer_blocks_until_it() -> None:
    batcher = RequestBatcher(max_batch=4)
    (ticket,) = _taken(batcher, 1)
    waiting = threading.Event()
    seen: list[object] = []

    def client() -> None:
        waiting.set()
        seen.append(ticket.wait(10.0))
        seen.append(ticket.pages)

    thread = threading.Thread(target=client)
    thread.start()
    assert waiting.wait(10.0)
    thread.join(0.05)
    assert thread.is_alive() and not seen
    batcher.answer(ticket, [5, 6], 1.0)
    thread.join(10.0)
    assert not thread.is_alive()
    assert seen == [True, [5, 6]]


@pytest.mark.parametrize("n", [1, 4, 9])
def test_each_answer_releases_only_its_own_waiter(n: int) -> None:
    """N clients, each blocked on its own ticket: answering ticket ``i``
    releases client ``i`` and no other."""
    batcher = RequestBatcher(max_batch=n)
    tickets = _taken(batcher, n)
    released = [threading.Event() for _ in range(n)]
    started = threading.Barrier(n + 1)

    def client(i: int) -> None:
        started.wait(10.0)
        if tickets[i].wait(30.0):
            released[i].set()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    started.wait(10.0)
    order = list(range(n))[::-1]
    for done, i in enumerate(order):
        batcher.answer(tickets[i], [i], float(done))
        assert released[i].wait(10.0), f"client {i} not released"
        still = [j for j in order[done + 1:] if released[j].is_set()]
        assert not still, f"answering {i} released {still}"
    for thread in threads:
        thread.join(10.0)
    assert [t.pages for t in tickets] == [[i] for i in range(n)]


def test_waiters_and_answers_racing_lose_no_wakeup() -> None:
    """More client threads than cores wait on tickets an answering
    thread resolves as they are submitted, with the interpreter
    switching threads as often as it can: a wakeup lost between a
    client's check and its wait would leave that client blocked."""
    batcher = RequestBatcher(max_batch=8)
    clients, per_client = 6, 150
    got: list[list[int]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    submitted = threading.Semaphore(0)
    stop = threading.Event()

    def answerer() -> None:
        answered = 0
        while answered < clients * per_client and not stop.is_set():
            if not submitted.acquire(timeout=0.1):
                continue
            for ticket in batcher.take_batch():
                batcher.answer(ticket, [ticket.tenant, ticket.qid], 0.0)
                answered += 1

    def client(c: int) -> None:
        try:
            for _ in range(per_client):
                ticket = batcher.submit(c, 0.0)
                submitted.release()
                if not ticket.wait(10.0):
                    raise AssertionError(f"ticket {ticket.qid} never woke")
                got[c].append(ticket.qid)
                assert ticket.pages == [c, ticket.qid]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=answerer)]
        threads += [threading.Thread(target=client, args=(c,))
                    for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join(60.0)
        stop.set()
        threads[0].join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
    assert not any(thread.is_alive() for thread in threads)
    assert [len(qids) for qids in got] == [per_client] * clients
    assert batcher.answered == batcher.submitted == clients * per_client


def test_a_lockstep_pass_builds_no_per_ticket_synchronization(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """Resolution is a flag under the batcher's lock: a whole lockstep
    pass — submit, stage, train, finish, query, answer — makes no lock,
    condition or event once the lanes exist."""
    service = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=3))
    for tenant in range(3):
        service.lane(tenant)
    made = {"Lock": 0, "RLock": 0, "Condition": 0, "Event": 0,
            "Semaphore": 0}
    for name in made:
        def counting(*args, _name=name, _real=getattr(threading, name)):
            made[_name] += 1
            return _real(*args)
        monkeypatch.setattr(threading, name, counting)
    events = [(i % 3, 4096 * ((5 * i) % 37), i) for i in range(120)]
    answers = replay_lockstep(service, events)
    assert len(answers) == len(events)
    assert service.counters()["queries_answered"] == len(events)
    assert made == dict.fromkeys(made, 0)
