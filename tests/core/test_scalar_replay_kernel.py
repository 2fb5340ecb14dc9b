"""The scalar replay on the kernels is the Python sample.

On a compiled Hebbian network ``ReplayScheduler.step`` is one
``rk_heb_replay_one`` call over the store's columns and its one-lane
``LaneDraws`` (the cohort's replay kernel on one lane); on the numpy
backend it is ``EpisodicStore.sample`` over the same draws and
``train_pairs`` of what it picks.  The numpy side is the oracle: over any
stream of stored episodes and trained misses the two make the same picks,
learn the same weights, read the same raws and leave a fork partner the
same write log.
"""

from __future__ import annotations

from typing import Any, cast

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import hippocampus, replay
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.core.replay import ReplayScheduler, make_replay_policy
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.backends import backend_available
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.patterns import PatternSpec
from repro.patterns.phases import Phase, build_phased_trace

pytestmark = pytest.mark.skipif(not backend_available("c"),
                                reason="the replay kernel needs backend c")

VOCAB = 12


class _Rigged:
    """A generator whose raw 32-bit stream has every value divisible by
    five zeroed: a zero's low half is below any bound, so nearly every
    row of draws is a candidate for numpy's rejection loop (the
    ``draw_exact`` row).  Zeroing is a function of the value alone, so
    the stream reads the same in blocks of any length."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        return self.rng.bit_generator

    def integers(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raws = self.rng.integers(*args, **kwargs)
        raws[raws % 5 == 0] = 0
        return raws


def _network(backend: str, punish: bool) -> SparseHebbianNetwork:
    return SparseHebbianNetwork(HebbianConfig(
        vocab_size=VOCAB, hidden_dim=120, connectivity_rec=0.05,
        punish_wrong=punish, seed=5, backend=backend))


def _scheduler(policy: str, per_step: int, seed: int,
               rigged: bool) -> ReplayScheduler:
    kwargs: dict[str, Any] = {}
    if policy == "ring":
        kwargs["capacity"] = 5
    elif policy == "confidence":
        kwargs["confidence_threshold"] = 0.5
    scheduler = ReplayScheduler(make_replay_policy(policy, **kwargs),
                                per_step=per_step, seed=seed)
    if rigged:
        scheduler.draws.detach(0)
        scheduler.draws.attach(0, cast(np.random.Generator, _Rigged(seed)))
    return scheduler


class _Side:
    """One backend's replay: a live network, its fork (the trained
    shadow), and the scheduler replaying into the shadow."""

    def __init__(self, backend: str, punish: bool, policy: str,
                 per_step: int, seed: int, rigged: bool) -> None:
        self.live = _network(backend, punish)
        self.shadow = self.live.fork()
        self.scheduler = _scheduler(policy, per_step, seed, rigged)


op = st.one_of(
    st.tuples(st.just("remember"), st.integers(0, VOCAB - 1),
              st.integers(0, VOCAB - 1), st.sampled_from([0, 1]),
              st.sampled_from([0.0, 0.4, 0.6, 0.95])),
    st.tuples(st.just("replay"), st.sampled_from([None, 0, 1])),
    st.tuples(st.just("sync")),
    st.tuples(st.just("level")),
)


@settings(max_examples=60, deadline=None)
@given(policy=st.sampled_from(["full", "ring", "confidence"]),
       per_step=st.sampled_from([1, 2, 4]), punish=st.booleans(),
       rigged=st.booleans(), seed=st.integers(0, 2**32 - 1),
       ops=st.lists(op, max_size=60))
# A store of one episode: the draw reads nothing.
@example(policy="full", per_step=1, punish=True, rigged=False, seed=1,
         ops=[("remember", 3, 4, 0, 0.0), ("replay", None),
              ("replay", 1), ("sync",), ("replay", None), ("level",)])
# Every stored episode in the excluded phase: no pick, the draw made.
@example(policy="full", per_step=4, punish=True, rigged=False, seed=2,
         ops=[("remember", 1, 2, 0, 0.0), ("remember", 2, 3, 0, 0.0),
              ("replay", 0), ("sync",), ("replay", 1), ("level",)])
# A capped ring that wraps, on the rigged stream.
@example(policy="ring", per_step=2, punish=False, rigged=True, seed=3,
         ops=[("remember", i % VOCAB, (i * 5) % VOCAB, i % 2, 0.0)
              for i in range(9)] + [("replay", 0), ("replay", None),
                                    ("level",), ("sync",), ("replay", 1)])
def test_kernel_replay_is_the_python_sample(policy, per_step, punish,
                                             rigged, seed, ops):
    kernel = _Side("c", punish, policy, per_step, seed, rigged)
    oracle = _Side("numpy", punish, policy, per_step, seed, rigged)
    for kind, *args in ops:
        if kind == "remember":
            for side in (kernel, oracle):
                side.scheduler.remember(*args, timestamp=len(ops))
        elif kind == "replay":
            assert (kernel.scheduler.step(kernel.shadow, args[0])
                    == oracle.scheduler.step(oracle.shadow, args[0]))
            assert np.array_equal(kernel.shadow.readout_values,
                                  oracle.shadow.readout_values)
        elif kind == "sync":
            assert (kernel.scheduler.draws.sync().bit_generator.state
                    == oracle.scheduler.draws.sync().bit_generator.state)
        else:
            # The fork partner takes exactly the offsets the oracle's
            # learns logged.
            got = kernel.live.sync_from(kernel.shadow)
            want = oracle.live.sync_from(oracle.shadow)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(np.unique(got), np.unique(want))
            assert np.array_equal(kernel.live.readout_values,
                                  kernel.shadow.readout_values)
    mine, theirs = kernel.scheduler, oracle.scheduler
    assert mine.replayed_total == theirs.replayed_total
    assert mine.invocations == theirs.invocations
    assert mine.store is not None and theirs.store is not None
    assert mine.store.episodes() == theirs.store.episodes()
    assert (mine.draws.sync().bit_generator.state
            == theirs.draws.sync().bit_generator.state)


def test_a_kernel_replay_is_one_call(monkeypatch):
    """Once its classes have codes, a replay is one kernel call — two
    only for a row that needs the rejection loop or a raw block that
    runs short, none of numpy's ``train_pairs`` — and leaves the
    rollout's first row alone."""
    net = _network("c", punish=True)
    heb = net._kernels()
    assert heb is not None
    calls = []
    replay_call = heb.replay

    def counting(*args: Any) -> int:
        got = replay_call(*args)
        # a short block reads nothing and asks for a refill (-1)
        calls.append(bool(got) or args[0].n_redo[0] >= 0)
        return got

    monkeypatch.setattr(heb, "replay", counting)
    scheduler = _scheduler("full", 2, seed=4, rigged=False)
    for i in range(40):
        scheduler.remember(i % VOCAB, (i + 1) % VOCAB, i % 2, 0.0, i)
    scheduler.step(net, 0)  # makes the codes of the picked classes
    for c in range(VOCAB):
        net._replay_code(c, c)
    net.step(3)
    net.step(4)
    first = net.predict_rollout(2, 1)

    def no_batch(*args: Any, **kwargs: Any) -> None:
        raise AssertionError("the kernel path trained through train_pairs")

    monkeypatch.setattr(net, "train_pairs", no_batch)
    for round_ in range(50):
        calls.clear()
        scheduler.step(net, round_ % 2)
        assert calls[-1] and sum(calls) == 1
    assert net.predict_rollout(2, 1) == first


def test_remember_and_replay_build_no_episode(monkeypatch):
    """A sampled store takes a miss's episode into its columns and the
    kernel replays from them: no ``Episode`` is built on the miss path."""
    def refuse(*args: Any, **kwargs: Any) -> None:
        raise AssertionError("an Episode was built on the miss path")

    monkeypatch.setattr(hippocampus, "Episode", refuse)
    monkeypatch.setattr(replay, "Episode", refuse)
    trace = build_phased_trace(
        [Phase("pointer_chase", 400), Phase("stride", 200),
         Phase("pointer_chase", 400)],
        PatternSpec(working_set=60, element_size=4096), seed=3).trace
    prefetcher = CLSPrefetcher(CLSPrefetcherConfig(
        vocab_size=32, hebbian=HebbianConfig(vocab_size=32, seed=1),
        replay_per_step=2, seed=7))
    simulate(trace, prefetcher, config=SimConfig(memory_fraction=0.3))
    assert prefetcher.stats.replayed_pairs > 0


def test_an_out_of_vocabulary_episode_raises():
    """An episode naming a class outside the network's vocabulary is
    refused by the network's check, as ``learn_pair`` refuses it, before
    any weight moves."""
    net = _network("c", punish=True)
    scheduler = _scheduler("full", 1, seed=0, rigged=False)
    scheduler.remember(2, VOCAB + 3, 0, 0.0, 0)
    before = net.readout_values.copy()
    with pytest.raises(ValueError, match="outside vocab"):
        scheduler.step(net)
    assert np.array_equal(net.readout_values, before)
