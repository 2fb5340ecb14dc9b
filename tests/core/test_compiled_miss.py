"""The compiled miss is the stages.

Where ``arrays_model`` holds, ``CLSPrefetcher.on_miss_fast`` runs a miss
as one ``rk_cls_miss`` call, plus one call more after each rare sub-step
it hands to the stage code that handles it (a first-met delta, a phase
window that fills, a rollout tie, an unmet transition, a full episode
column, a short raw block, an address outside int64).  The oracle is the
same configuration on a numpy-backed network: ``arrays_model`` rejects it,
so every one of its misses runs the Python stages.  After every miss the
two return the same pages; at the end every piece of state a stage moves
is the same — the counters, the accuracy EMA and its memo, the encoder,
the phase detector, the replay store and its draws, the weights and the
network's stream state.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import cls_prefetcher
from repro.core.cls_prefetcher import (CLSPrefetcher, CLSPrefetcherConfig,
                                       arrays_model)
from repro.core.phase_detect import OnlinePhaseDetector
from repro.harness.fig5 import Fig5Config, make_model_prefetcher
from repro.memsim import SimConfig, simulate
from repro.nn import hebbian
from repro.nn.backends import backend_available
from repro.nn.hebbian import HebbianConfig
from repro.patterns.applications import AppSpec, graph500, resnet_training
from repro.patterns.trace import Trace
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(not backend_available("c"),
                                reason="the compiled miss needs backend c")

TOP = 2**63 - 1
PAGE = 4096
#: A phase region: the detector's feature is the address's 2**24-byte
#: region (a 4 KiB page size's 2**12 pages).
REGION = 1 << 24
BASE = 1 << 40


@dataclasses.dataclass(frozen=True)
class Setup:
    vocab: int = 10
    width: int = 2
    length: int = 2
    min_confidence: float = 0.0
    min_accuracy: float = 0.0
    replay: str | None = "full"
    per_step: int = 1
    training: str = "always"
    window: int = 4
    punish: bool = False
    granularity: int = PAGE
    seed: int = 0


def _prefetcher(setup: Setup, backend: str) -> CLSPrefetcher:
    replay_kwargs: dict[str, Any] = {}
    if setup.replay == "ring":
        replay_kwargs = {"capacity": 5}
    elif setup.replay == "confidence":
        replay_kwargs = {"confidence_threshold": 0.2}
    training_kwargs: dict[str, Any] = {
        "every_k": {"k": 2}, "random": {"probability": 0.5, "seed": 3},
        "confidence": {}, "always": {}}[setup.training]
    config = CLSPrefetcherConfig(
        vocab_size=setup.vocab, granularity=setup.granularity,
        prefetch_width=setup.width, prefetch_length=setup.length,
        min_confidence=setup.min_confidence,
        min_accuracy=setup.min_accuracy, training=setup.training,
        training_kwargs=training_kwargs, replay_policy=setup.replay,
        replay_kwargs=replay_kwargs, replay_per_step=setup.per_step,
        phase_detection=setup.window > 0, seed=setup.seed,
        hebbian=HebbianConfig(
            vocab_size=setup.vocab, hidden_dim=48, connectivity_rec=0.06,
            punish_wrong=setup.punish, negative_scale=0.25,
            seed=setup.seed, backend=backend))
    p = CLSPrefetcher(config)
    if setup.window:
        # A short window, so phases close (and change) within a test.
        p.phase_detector = OnlinePhaseDetector(vocab_size=256,
                                               window=setup.window)
    return p


def _pair(setup: Setup) -> tuple[CLSPrefetcher, CLSPrefetcher]:
    compiled, oracle = _prefetcher(setup, "c"), _prefetcher(setup, "numpy")
    assert arrays_model(compiled) and not arrays_model(oracle)
    return compiled, oracle


def _same_array(a: np.ndarray | None, b: np.ndarray | None) -> None:
    assert (a is None) == (b is None)
    if a is not None:
        assert b is not None
        assert a.tobytes() == b.tobytes()


def assert_same_state(compiled: CLSPrefetcher, oracle: CLSPrefetcher
                      ) -> None:
    """Every piece of per-miss state a stage moves, the same."""
    assert dataclasses.asdict(compiled.stats) == dataclasses.asdict(
        oracle.stats)
    assert compiled.accuracy_ema == oracle.accuracy_ema
    assert compiled._prev_class == oracle._prev_class
    _same_array(compiled._last_probs, oracle._last_probs)
    memos = compiled._ema_top, oracle._ema_top
    assert (memos[0] is None) == (memos[1] is None)
    if memos[0] is not None and memos[1] is not None:
        _same_array(memos[0][0], memos[1][0])
        assert memos[0][1] == memos[1][1]
        assert ((memos[0][0] is compiled._last_probs)
                == (memos[1][0] is oracle._last_probs))
    assert compiled.encoder.table() == oracle.encoder.table()
    policies = compiled.training_policy, oracle.training_policy
    assert (policies[0].considered, policies[0].trained) == (
        policies[1].considered, policies[1].trained)

    detectors = compiled.phase_detector, oracle.phase_detector
    assert (detectors[0] is None) == (detectors[1] is None)
    if detectors[0] is not None and detectors[1] is not None:
        assert list(detectors[0]._recent) == list(detectors[1]._recent)
        assert detectors[0].current_phase == detectors[1].current_phase
        assert detectors[0].transitions == detectors[1].transitions
        assert [c.tobytes() for c in detectors[0]._centroids] == [
            c.tobytes() for c in detectors[1]._centroids]

    schedulers = compiled.scheduler, oracle.scheduler
    assert (schedulers[0] is None) == (schedulers[1] is None)
    if schedulers[0] is not None and schedulers[1] is not None:
        assert schedulers[0].invocations == schedulers[1].invocations
        assert schedulers[0].replayed_total == schedulers[1].replayed_total
        stores = schedulers[0].store, schedulers[1].store
        assert stores[0] is not None and stores[1] is not None
        assert stores[0].ep_count.tolist() == stores[1].ep_count.tolist()
        assert stores[0].episodes() == stores[1].episodes()
        assert (stores[0].stored_total, stores[0].evicted_total) == (
            stores[1].stored_total, stores[1].evicted_total)
        # The draws' position: where the generators stand once synced
        # (the kernel refills a block a draw of one episode reads none of).
        assert (schedulers[0].draws.sync().bit_generator.state
                == schedulers[1].draws.sync().bit_generator.state)

    models = compiled.model, oracle.model
    assert models[0].readout_values.tobytes() == \
        models[1].readout_values.tobytes()
    _same_array(models[0]._prev_active, models[1]._prev_active)
    assert models[0]._prev_pred == models[1]._prev_pred
    _same_array(models[0]._last_probs, models[1]._last_probs)
    assert models[0].train_steps == models[1].train_steps


def _drive(pair: tuple[CLSPrefetcher, CLSPrefetcher],
           ops: list[Any]) -> None:
    """Feed both prefetchers ``ops`` — a miss address, ``"reset"``
    (``reset_stream``) or ``("hint", phase or None)`` — comparing the
    pages of every miss, then the state."""
    for at, op in enumerate(ops):
        if op == "reset":
            for p in pair:
                p.reset_stream()
        elif isinstance(op, tuple):
            for p in pair:
                p.hint_phase(op[1])
        else:
            got = [p.on_miss_fast(at, op, op // PAGE, 0, at) for p in pair]
            assert got[0] == got[1], f"miss {at} at {op:#x}"
    assert_same_state(*pair)
    if any(isinstance(op, int) for op in ops):
        _assert_compiled(pair)


def _assert_compiled(pair: tuple[CLSPrefetcher, CLSPrefetcher]) -> None:
    """The first of ``pair`` took the compiled miss, the second never."""
    assert pair[0]._miss not in (None, cls_prefetcher._UNBOUND)
    assert pair[1]._miss is None


#: A step between misses, in pages: strides that repeat (so the network
#: learns and prefetches), small jumps (new deltas, out of vocabulary
#: once the vocabulary is full) and jumps across phase regions.
_STEPS = st.one_of(
    st.sampled_from([1, 1, 1, 2, 2, -1, 3]),
    st.integers(-40, 40),
    st.sampled_from([REGION // PAGE, -REGION // PAGE, 3 * REGION // PAGE]))
_OPS = st.lists(st.one_of(
    _STEPS, _STEPS, _STEPS, _STEPS, _STEPS, _STEPS, _STEPS, _STEPS,
    st.just("reset"),
    st.tuples(st.just("hint"), st.one_of(st.none(), st.integers(0, 3)))),
    min_size=1, max_size=160)


def _addresses(ops: list[Any]) -> list[Any]:
    """Steps as miss addresses from ``BASE`` (0: the same page again)."""
    out: list[Any] = []
    page = BASE // PAGE
    for op in ops:
        if isinstance(op, int):
            page += op
            out.append(page * PAGE + 8 * (len(out) % 7))
        else:
            out.append(op)
    return out


_SETUPS = st.builds(
    Setup,
    vocab=st.sampled_from([4, 6, 10, 24]),
    width=st.integers(1, 4), length=st.integers(1, 4),
    min_confidence=st.sampled_from([0.0, 0.2, 1.0]),
    min_accuracy=st.sampled_from([0.0, 0.0, 0.3]),
    replay=st.sampled_from([None, "full", "ring", "confidence"]),
    per_step=st.sampled_from([0, 1, 3]),
    training=st.sampled_from(["always", "always", "every_k", "random",
                              "confidence"]),
    window=st.sampled_from([0, 3, 5]),
    punish=st.booleans(), seed=st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(setup=_SETUPS, ops=_OPS)
@example(setup=Setup(), ops=[1] * 40)
@example(setup=Setup(vocab=4, width=4, length=4, min_confidence=1.0),
         ops=[1, 2, 3, 1, 2, 3, 5, -7, 1, 2, 3] * 4)
def test_every_miss_is_the_stages(setup: Setup, ops: list[Any]) -> None:
    _drive(_pair(setup), _addresses(ops))


@pytest.fixture
def small_memo() -> Iterator[None]:
    """Networks built under it clear their hidden-code memo (and the code
    table with it) every few codes: links and resets mid-miss."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hebbian, "_CODE_CACHE_CAP", 6)
        yield


@pytest.mark.parametrize("punish", [False, True])
def test_memo_resets_mid_miss(small_memo: None, punish: bool) -> None:
    rng = np.random.default_rng(5)
    steps = rng.choice([1, 2, 3, -1, 5, 8, -4], size=400).tolist()
    for setup in (Setup(vocab=24, length=4, width=3, punish=punish),
                  Setup(vocab=24, length=3, per_step=3, replay="ring",
                        punish=punish)):
        _drive(_pair(setup), _addresses(steps))


@contextmanager
def _sub_steps() -> Iterator[Counter[str]]:
    """Count the codes the compiled misses return, by name, while in the
    block."""
    codes: Counter[str] = Counter()
    names = {code: name for name, code in cls_prefetcher._R.items()}
    events = CLSPrefetcher._miss_events

    def spy(self: CLSPrefetcher, miss: Any, got: int, *args: Any) -> Any:
        codes[names[got]] += 1
        resume = miss.kernel.resume

        def counted(stage: int) -> int:
            code = resume(stage)
            codes[names[code]] += 1
            return code
        miss.kernel.resume = counted
        try:
            return events(self, miss, got, *args)
        finally:
            miss.kernel.resume = resume

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CLSPrefetcher, "_miss_events", spy)
        yield codes


def test_the_rare_sub_steps_are_taken(small_memo: None) -> None:
    """Two streams meet every sub-step but the int64 edges (below) and a
    bad argmax (no stage ever leaves one)."""
    rng = np.random.default_rng(11)
    steps = rng.choice([1, 1, 2, 3, -1, 0, 7, REGION // PAGE],
                       size=600).tolist()
    with _sub_steps() as codes:
        for setup in (Setup(vocab=24, length=3, width=2, per_step=3),
                      Setup(vocab=24, training="every_k", min_accuracy=0.5,
                            per_step=3)):
            _drive(_pair(setup), _addresses(steps))
    assert {"new_delta", "no_class", "window", "cover", "train", "store",
            "link", "redraw", "tie", "unmet"} <= set(codes)


def _trace(seed: int, n: int = 3000) -> Trace:
    parts = [resnet_training(AppSpec(n=n // 2, seed=seed)),
             graph500(AppSpec(n=n - n // 2, seed=seed))]
    return Trace(name=f"mixed-{seed}",
                 addresses=np.concatenate([p.addresses for p in parts]),
                 kinds=np.concatenate([p.kinds for p in parts]),
                 metadata={"seed": seed})


def _fig5_pair() -> tuple[CLSPrefetcher, CLSPrefetcher]:
    compiled = make_model_prefetcher("hebbian", Fig5Config())
    config = compiled.config
    assert config.hebbian is not None
    oracle = CLSPrefetcher(dataclasses.replace(
        config, hebbian=dataclasses.replace(config.hebbian,
                                            backend="numpy")))
    return compiled, oracle


@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_two_runs_around_reset_stream_with_telemetry(engine: str) -> None:
    """``simulate()`` twice, the stream reset between, under either
    engine and a sink with a small window: the runs, the per-window
    counters and the state are the oracle's."""
    pair = _fig5_pair()
    sim = SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)
    for seed in (1, 2):
        sinks = Telemetry(250), Telemetry(250)
        runs = [simulate(_trace(seed), p, sim, record_miss_indices=True,
                         engine=engine, telemetry=sink)
                for p, sink in zip(pair, sinks)]
        assert runs[0].stats.as_dict() == runs[1].stats.as_dict()
        assert runs[0].miss_indices == runs[1].miss_indices
        assert sinks[0].windows == sinks[1].windows
        assert any(w.get("cls_prefetches_emitted") for w in sinks[0].windows)
        assert_same_state(*pair)
        for p in pair:
            p.reset_stream()
    _assert_compiled(pair)


def _edge(edge: str) -> tuple[Trace, SimConfig]:
    """``tests/memsim/test_edge_pins.py``'s inputs: a one-page cache, and
    the trace shifted so its largest address is ``2**63 - 1``."""
    trace = _trace(4)
    addresses = trace.addresses
    if edge == "capacity-1":
        return trace, SimConfig(capacity_pages=1)
    addresses = addresses + (TOP - int(addresses.max()))
    return (Trace(name="top", addresses=addresses, kinds=trace.kinds,
                  metadata={}), SimConfig(memory_fraction=0.2))


@pytest.mark.parametrize("edge", ["capacity-1", "top-address"])
def test_the_edges_of_the_address_space(edge: str) -> None:
    trace, sim = _edge(edge)
    pair = _fig5_pair()
    runs = [simulate(trace, p, sim, record_miss_indices=True) for p in pair]
    assert runs[0].stats.as_dict() == runs[1].stats.as_dict()
    assert runs[0].miss_indices == runs[1].miss_indices
    assert_same_state(*pair)
    _assert_compiled(pair)


@pytest.mark.parametrize("granularity", [1, PAGE])
def test_addresses_whose_arithmetic_outgrows_int64(granularity: int
                                                   ) -> None:
    """Addresses, deltas and decoded addresses past int64 — Python's
    ints hold them, so the compiled miss hands those misses to the
    stages (or decodes them in Python) and the pages are the
    oracle's."""
    setup = Setup(vocab=12, width=3, length=3, granularity=granularity,
                  window=0)
    near = [TOP - 5 * PAGE, TOP - 3 * PAGE, TOP - PAGE, TOP]
    ops = (near + [0, PAGE, 2 * PAGE] + near + near[::-1]
           + [-3 * PAGE, TOP] + near + [2**64, 0]) * 6
    with _sub_steps() as codes:
        _drive(_pair(setup), ops)
    assert codes["decode"]
    # a unit delta outside int64 needs units of a byte
    assert bool(codes["handback"]) == (granularity == 1)
