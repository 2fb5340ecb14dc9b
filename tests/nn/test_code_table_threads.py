"""The compiled network's shared code table under threads.

Clones of one network share its code table (the memo's codes, each
class's context-free code, the transitions between them), and a kernel
reads it without the GIL.  A serving lane steps its live network on the
serve thread while the trainer thread steps the shadow, so one thread
may intern, link or clear the table while another's kernel call reads
it.  With the memo capped at eight codes the table is cleared every few
steps; every answer must still be the numpy network's, bit for bit.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Any

import numpy as np
import pytest

from repro.nn import hebbian
from repro.nn.backends import backend_available
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.serve import PrefetchService, ServeConfig
from tests.serve.test_service import _drive_threaded

pytestmark = pytest.mark.skipif(not backend_available("c"),
                                reason="the kernels need backend c")


@pytest.fixture
def busy_threads(monkeypatch: pytest.MonkeyPatch) -> Any:
    """A memo of eight codes and a 1 µs thread switch interval."""
    monkeypatch.setattr(hebbian, "_CODE_CACHE_CAP", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _walk(net: SparseHebbianNetwork, stream: list[int]) -> list[Any]:
    """What ``net`` answers along ``stream``: each step's probabilities,
    a rollout, a train_pair's confidence; then its weights."""
    out: list[Any] = []
    vocab = net.vocab_size
    for i, cls in enumerate(stream):
        out.append(net.step(cls, train=i % 3 != 0).tobytes())
        out.append(net.predict_rollout(2, 3))
        out.append(net.train_pair(cls, (cls + i) % vocab, lr_scale=0.1))
        net.learn_pair((cls + 1) % vocab, cls, lr_scale=0.1)
    out.append(net.readout_values.tobytes())
    return out


def test_clones_on_threads_answer_as_numpy(busy_threads):
    """Four threads, each walking its own clone of one compiled
    prototype, answer as four numpy networks walked one after another."""
    config = HebbianConfig(vocab_size=16, hidden_dim=120, seed=8)
    rng = np.random.default_rng(11)
    streams = [[int(c) for c in rng.integers(0, 16, 250)] for _ in range(4)]
    want = [_walk(SparseHebbianNetwork(
        dataclasses.replace(config, backend="numpy")), stream)
        for stream in streams]
    proto = SparseHebbianNetwork(dataclasses.replace(config, backend="c"))
    codes = proto._codes
    assert codes is not None
    epoch = codes.epoch
    clones = [proto.clone() for _ in streams]
    got: list[Any] = [None] * len(streams)
    errors: list[Exception] = []
    start = threading.Barrier(len(streams))

    def run(i: int) -> None:
        try:
            start.wait()
            got[i] = _walk(clones[i], streams[i])
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "a thread did not finish in 120 s"
    assert not errors, errors
    assert codes.epoch > epoch + 100  # the table was cleared throughout
    for i, stream in enumerate(streams):
        assert got[i] == want[i], f"thread {i} diverged"


@pytest.mark.parametrize("stacked", [False, True])
def test_threaded_serving_answers_as_numpy(busy_threads, monkeypatch,
                                           stacked):
    """The service on real threads: every compiled step and rollout of
    a live network (the serve thread) and every learn and replay of a
    shadow (the trainer thread) is checked against a numpy network put
    in the same state just before it.  ``stacked`` steps and rolls out
    the live lanes through the fleet instead, which makes its codes
    through the prototype's table."""
    config = ServeConfig(vocab_size=16, stacked=stacked, seed=5,
                         replay_policy="full")
    local = threading.local()
    checked: list[str] = []
    cls = SparseHebbianNetwork
    step, rollout = cls.step, cls.predict_rollout
    learn, replay = cls.learn_pair, cls.replay_ring

    def oracle(net: SparseHebbianNetwork) -> SparseHebbianNetwork:
        twin = getattr(local, "twin", None)
        if twin is None:
            twin = local.twin = SparseHebbianNetwork(HebbianConfig(
                vocab_size=config.vocab_size, seed=config.seed,
                backend="numpy"))
        prev = net._prev_active
        probs = net._last_probs
        twin.restore_state(
            values=net.readout_values.copy(),
            prev_active=None if prev is None else prev.copy(),
            prev_pred=net._prev_pred,
            last_probs=None if probs is None else probs.copy(),
            train_steps=net.train_steps)
        return twin

    def checked_step(net: SparseHebbianNetwork, input_class: int,
                     train: bool = True, lr_scale: float = 1.0) -> Any:
        if not net.compiled:
            return step(net, input_class, train, lr_scale)
        twin = oracle(net)
        want = step(twin, input_class, train, lr_scale)
        got = step(net, input_class, train, lr_scale)
        assert got.tobytes() == want.tobytes()
        assert net.readout_values.tobytes() == twin.readout_values.tobytes()
        checked.append("step")
        return got

    def checked_rollout(net: SparseHebbianNetwork, width: int = 1,
                        length: int = 1) -> Any:
        if not net.compiled:
            return rollout(net, width, length)
        want = rollout(oracle(net), width, length)
        got = rollout(net, width, length)
        assert got == want
        checked.append("rollout")
        return got

    def checked_learn(net: SparseHebbianNetwork, input_class: int,
                      target_class: int, lr_scale: float = 1.0) -> None:
        twin = oracle(net)
        learn(twin, input_class, target_class, lr_scale)
        learn(net, input_class, target_class, lr_scale)
        assert net.readout_values.tobytes() == twin.readout_values.tobytes()
        checked.append("learn")

    def checked_replay(net: SparseHebbianNetwork, ring: Any, phase: int,
                       lr_scale: float, draw: bool = True) -> Any:
        twin = oracle(net)
        got = replay(net, ring, phase, lr_scale, draw)
        # the kernel's picks, learnt one by one as numpy's learn_pair
        for input_class, target_class in zip(
                ring.picks[1, :got or 0].tolist(),
                ring.picks[2, :got or 0].tolist()):
            learn(twin, input_class, target_class, lr_scale)
        assert net.readout_values.tobytes() == twin.readout_values.tobytes()
        checked.append("replay")
        return got

    for name, call in (("step", checked_step),
                       ("predict_rollout", checked_rollout),
                       ("learn_pair", checked_learn),
                       ("replay_ring", checked_replay)):
        monkeypatch.setattr(SparseHebbianNetwork, name, call)
    service = PrefetchService(config)
    tickets = _drive_threaded(service, 400, tenants=4, timeout=60.0)
    assert all(t.done for t in tickets)
    assert service.counters()["train_steps"] > 100
    assert checked.count("learn") > 100
    assert checked.count("replay") > 100
    if not stacked:
        assert checked.count("step") > 300
        assert checked.count("rollout") > 100
