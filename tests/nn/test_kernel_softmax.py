"""The compiled network's softmax, rollout and call count.

Backend ``c`` computes ``probabilities(readout(code))`` in one kernel,
``np.exp`` included: the kernel calls numpy's own float64 ``exp`` inner
loop (read from the ufunc's loop table when the extension loads), so the
row is numpy's bit for bit.  A rollout is one ``rk_heb_rollout`` call
that follows the code table's transitions; it hands a tie to
``select_topk`` and makes a transition it has not met in Python.  The
numpy network is the oracle throughout.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.fig5 import Fig5Config, make_model_prefetcher
from repro.memsim.simulator import SimConfig, simulate
from repro.nn import hebbian
from repro.nn.backends import backend_available, c_backend
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.patterns.applications import AppSpec, generate_application

pytestmark = pytest.mark.skipif(not backend_available("c"),
                                reason="the kernels need backend c")


def _pair(config: HebbianConfig) -> tuple[SparseHebbianNetwork,
                                          SparseHebbianNetwork]:
    return (SparseHebbianNetwork(dataclasses.replace(config, backend="numpy")),
            SparseHebbianNetwork(dataclasses.replace(config, backend="c")))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


_weight = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([0.0, 1.0, -1.0, 8.0, -8.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e307,
              max_value=1e307))


@settings(max_examples=150, deadline=None)
@given(vocab=st.integers(2, 256), net_seed=st.integers(0, 96),
       seed=st.integers(0, 2**16),
       pool=st.lists(_weight, min_size=1, max_size=6),
       spread=st.sampled_from([0.0, 1.0, 8.0, 1e300]))
def test_the_kernel_softmax_is_probabilities_of_readout(vocab, net_seed,
                                                        seed, pool, spread):
    """The row ``rk_heb_step`` leaves for a code (a step that learns
    nothing, from the code before it) is ``probabilities(readout(code))``
    bit for bit, and its argmax the readout's: over vocabularies of 2 to
    256 (non-multiples of eight included), weights drawn from a few
    values (ties), ``+-inf`` and NaN among them, spread by up to 1e300
    (overflowing sums)."""
    net = SparseHebbianNetwork(HebbianConfig(
        vocab_size=vocab, hidden_dim=64, seed=net_seed, backend="c"))
    heb = net._kernels()
    codes = net._codes
    assert heb is not None and codes is not None
    rng = np.random.default_rng(seed)
    size = net.readout_values.size
    values = rng.choice(np.array(pool), size) + spread * rng.uniform(
        -1.0, 1.0, size) * (rng.random(size) < 0.5)
    net._set_values(values)
    for _ in range(3):
        cls = int(rng.integers(0, vocab))
        context = net.hidden_code(int(rng.integers(vocab)))
        code = net.hidden_code(cls, context)
        scores = net.readout(code)
        with np.errstate(all="ignore"):
            want = net.probabilities(scores)
        prev = net._link(codes.intern(context), cls)
        assert codes.arrays[heb.step(prev, cls, -1, 0.0, False)] is code
        assert _bits(heb.x) == _bits(want)
        assert heb.state.item(1) == int(scores.argmax())
    assert _bits(net.readout_values) == _bits(values)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 1000), scale=st.sampled_from([1.0, 30.0, 700.0]),
       shift=st.booleans(), seed=st.integers(0, 2**16))
def test_the_kernel_exp_is_np_exp(n, scale, shift, seed):
    """The loop the kernels call is ``np.exp``'s, in place, at every
    length: magnitudes to 700, max-shifted or not."""
    ffi, lib = c_backend._loaded()
    ctx = ffi.new("rk_heb *")
    assert c_backend._loops is not None
    for name, value in c_backend._loops.items():
        setattr(ctx, name, value)
    x = np.random.default_rng(seed).standard_normal(n) * scale
    if shift:
        x -= x.max()
    with np.errstate(all="ignore"):
        want = np.exp(x)
    lib.rk_heb_exp(ctx, ffi.from_buffer("double[]", x), n)
    assert _bits(x) == _bits(want)


def test_an_underflowing_exp_leaves_no_floating_point_error():
    """Numpy clears the floating-point status before it checks it: an
    underflow inside the kernel's exp raises nothing later, even under
    ``np.errstate(all="raise")``."""
    net = SparseHebbianNetwork(HebbianConfig(vocab_size=16, hidden_dim=64,
                                             backend="c"))
    net._set_values(np.linspace(-1e4, 1e4, net.readout_values.size))
    net.step(3)
    probs = net.step(5)
    assert (probs == 0.0).any()
    with np.errstate(all="raise"):
        assert float(np.add(probs, 1.0).sum()) > 0


def _rollout_cases(config: HebbianConfig, stream: list[int],
                   zero_every: int = 0) -> int:
    """Step both networks through ``stream``, rolling out at widths 1, 2,
    vocab and vocab + 1 and lengths 0 to 4 after every step; returns how
    many rollouts the kernel handed a tie."""
    ref, fast = _pair(config)
    vocab = config.vocab_size
    ties = 0
    for i, cls in enumerate(stream):
        if zero_every and i % zero_every == 0:
            zeros = np.zeros((config.hidden_dim, vocab))
            ref.w_out = zeros
            fast.w_out = zeros
        assert _bits(ref.step(cls)) == _bits(fast.step(cls))
        for width in (1, 2, vocab, vocab + 1):
            for length in range(5):
                heb = fast._heb
                assert heb is not None
                heb.state[3] = 0
                got = fast.predict_rollout(width, length)
                ties += length > 0 and heb.state.item(3) == -1
                assert got == ref.predict_rollout(width, length)
    return ties


def test_the_rollout_is_the_numpy_rollout():
    """Fresh networks meet every transition for the first time (the
    kernel stops, the code is made, the kernel goes on) and then again
    (one call); zeroed weights tie everywhere."""
    config = HebbianConfig(vocab_size=24, hidden_dim=150, seed=3)
    stream = [int(c) for c in np.random.default_rng(4).integers(0, 6, 120)]
    assert _rollout_cases(config, stream, zero_every=15) > 20


def test_the_rollout_survives_a_memo_clear(monkeypatch):
    """With the memo capped at eight codes the code table is cleared
    inside steps and rollouts, ids held by the network go stale, and
    every rollout still matches numpy's."""
    monkeypatch.setattr(hebbian, "_CODE_CACHE_CAP", 8)
    config = HebbianConfig(vocab_size=16, hidden_dim=120, seed=8,
                           punish_wrong=False)
    ref, fast = _pair(config)
    codes = fast._codes
    assert codes is not None
    epoch = codes.epoch
    stream = [int(c) for c in np.random.default_rng(5).integers(0, 16, 150)]
    for cls in stream:
        assert _bits(ref.step(cls)) == _bits(fast.step(cls))
        for width, length in ((2, 4), (1, 3), (17, 2)):
            assert (fast.predict_rollout(width, length)
                    == ref.predict_rollout(width, length))
    assert codes.epoch > epoch + 10


class _Counted:
    """Counts the calls of the wrapped kernel entries."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch, heb: Any) -> None:
        self.calls: list[str] = []
        for name in ("step", "rollout", "learn_class", "finite", "replay"):
            monkeypatch.setattr(heb, name, self._wrap(name,
                                                      getattr(heb, name)))

    def _wrap(self, name: str, call: Any) -> Any:
        def counted(*args: Any) -> Any:
            got = call(*args)
            # a replay call that found its raw block short read nothing
            short = name == "replay" and not got and args[0].n_redo[0] < 0
            self.calls.append("refill" if short else name)
            return got
        return counted


def test_a_trained_miss_is_three_kernel_calls(monkeypatch):
    """A Fig. 5 prefetcher on a learned stream, its misses run through
    the stages (``_ingest`` then ``_predict``, what ``on_miss_fast`` runs
    where the compiled miss does not apply): a trained, ungated miss
    whose rollout meets no tie and no new transition, and whose replay
    finds its raw block long enough (all but one replay in 64 at one pick
    a step), is
    ``rk_heb_step``, ``rk_heb_replay_one`` and ``rk_heb_rollout`` — three
    kernel calls, and no ``np.exp``."""
    trace = generate_application("resnet", AppSpec(n=6_000, seed=2))
    sim = SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)
    prefetcher = make_model_prefetcher("hebbian", Fig5Config())
    result = simulate(trace, prefetcher, sim, record_miss_indices=True)
    net = prefetcher.model
    assert isinstance(net, SparseHebbianNetwork)
    heb = net._kernels()
    assert heb is not None
    counted = _Counted(monkeypatch, heb)
    made: list[int] = []
    link = net._link

    def counting_link(code: int, cls: int) -> int:
        made.append(cls)
        return link(code, cls)

    monkeypatch.setattr(net, "_link", counting_link)
    exps: list[int] = []
    exp = np.exp

    def counting_exp(*args: Any, **kwargs: Any) -> Any:
        exps.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    page_shift = sim.page_size.bit_length() - 1
    three = others = 0
    for index in result.miss_indices[-400:]:
        address = int(trace.addresses[index])
        trained = prefetcher.stats.trained_steps
        counted.calls.clear()
        made.clear()
        heb.state[3] = 0
        if prefetcher._ingest(address, index, True):
            prefetcher._predict(address, address >> page_shift)
        if (prefetcher.stats.trained_steps > trained and not made
                and "rollout" in counted.calls
                and "refill" not in counted.calls
                and heb.state.item(3) != -1):
            assert counted.calls == ["step", "replay", "rollout"]
            three += 1
        else:
            others += 1
    assert three > 200, (three, others)
    assert not exps


def test_a_warm_miss_is_one_kernel_call(monkeypatch):
    """The same prefetcher through ``on_miss_fast``, where the compiled
    miss applies: a trained miss that hands no sub-step back is one
    ``rk_cls_miss`` call — none of the network's own entries, and no
    ``np.exp``."""
    trace = generate_application("resnet", AppSpec(n=6_000, seed=2))
    sim = SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)
    prefetcher = make_model_prefetcher("hebbian", Fig5Config())
    result = simulate(trace, prefetcher, sim, record_miss_indices=True)
    net = prefetcher.model
    assert isinstance(net, SparseHebbianNetwork)
    heb = net._kernels()
    assert heb is not None
    counted = _Counted(monkeypatch, heb)
    miss = prefetcher._miss
    assert miss is not None
    kernel_calls: list[str] = []
    run, resume = miss.run, miss.kernel.resume

    def counting(name: str, call: Any) -> Any:
        def counted_call(*args: Any) -> Any:
            kernel_calls.append(name)
            return call(*args)
        return counted_call

    monkeypatch.setattr(miss, "run", counting("miss", run))
    monkeypatch.setattr(miss.kernel, "resume", counting("resume", resume))
    exps: list[int] = []
    exp = np.exp

    def counting_exp(*args: Any, **kwargs: Any) -> Any:
        exps.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    page_shift = sim.page_size.bit_length() - 1
    one = 0
    for index in result.miss_indices[-400:]:
        address = int(trace.addresses[index])
        trained = prefetcher.stats.trained_steps
        counted.calls.clear()
        kernel_calls.clear()
        prefetcher.on_miss_fast(index, address, address >> page_shift, 0,
                                index)
        if (prefetcher.stats.trained_steps > trained
                and kernel_calls == ["miss"]):
            assert not counted.calls
            one += 1
    assert one > 200, one
    assert not exps
