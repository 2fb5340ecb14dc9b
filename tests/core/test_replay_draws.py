"""The scalar replay's draw is the generator's draw.

``ReplayScheduler`` draws from lane 0 of a one-lane ``LaneDraws``: the
bounded draw applied to a block of the generator's raw 32-bit stream, in
place of one ``Generator.integers`` call per trained miss (by the replay
kernel on a compiled network, by ``EpisodicStore.sample`` elsewhere).
These tests hold it to a plain generator twin — picks, values, and the
generator's ``bit_generator.state`` wherever someone else reads it (a
sync, a cohort's admit and release) — and count the calls the scalar
miss path makes into the generator.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.core.hippocampus import (
    MAX_ATTEMPTS_PER_PICK,
    Episode,
    EpisodicStore,
    LaneDraws,
)
from repro.memsim.fleet import FleetLaneSpec, run_cohort
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.backends import backend_available
from repro.nn.hebbian import HebbianConfig
from repro.patterns import PatternSpec, generate
from repro.patterns.phases import Phase, build_phased_trace

#: Raws one refill of a ``LaneDraws`` block takes.
BLOCK = 512

#: Store sizes no real store reaches: a quarter to a half of the raws
#: are rejected.
HUGE = [2**31 + 1, 2**32 - 2]

#: Picks per ``sample``: the scalar default, per_step above 16 (more
#: attempts than ``LaneDraws.max_attempts``, which only the scalar path
#: serves) and above 64 (more attempts than one block holds).
PICKS = [1, 2, 3, 17, 65, 80]


class _Lazy:
    """A column whose entries are computed on indexing."""

    def __init__(self, item: Callable[[np.ndarray], np.ndarray]) -> None:
        self._item = item

    def __getitem__(self, index: np.ndarray) -> np.ndarray:
        return self._item(np.asarray(index))

    def item(self, index: int) -> object:
        return self[index].item()


def _huge_store(size: int) -> EpisodicStore:
    """A store of ``size`` episodes, two phases alternating, that holds
    none of them."""
    store = EpisodicStore()
    store.ep_count[0] = size
    store.ep_input = _Lazy(lambda i: i)
    store.ep_target = _Lazy(lambda i: i + 1)
    store.ep_phase = _Lazy(lambda i: i % 2)
    store.ep_confidence = _Lazy(lambda i: np.zeros(i.shape))
    store.ep_timestamp = _Lazy(lambda i: np.zeros(i.shape, dtype=np.int64))
    return store


def _drawer(rng: np.random.Generator) -> LaneDraws:
    """A one-lane ``LaneDraws`` on ``rng``, as ``ReplayScheduler`` has."""
    draws = LaneDraws(1)
    draws.attach(0, rng)
    return draws


def _store_of(size: int) -> list[Episode]:
    return [Episode(i, i + 1, (i // 5) % 3) for i in range(size)]


op = st.one_of(
    st.tuples(st.just("grow"), st.sampled_from([1, 2, 37, 120, 700])),
    st.tuples(st.just("sample"), st.sampled_from(PICKS),
              st.sampled_from([None, 0, 1, 2])),
    st.tuples(st.just("huge"), st.sampled_from(HUGE),
              st.sampled_from(PICKS), st.sampled_from([None, 0, 1])),
    st.tuples(st.just("sync")),
    st.tuples(st.just("cohort"),
              st.lists(st.tuples(st.sampled_from([1, 2, 37, 1000, *HUGE]),
                                 st.integers(1, LaneDraws.max_attempts)),
                       min_size=1, max_size=6)),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=st.lists(op, max_size=40))
@example(seed=3, ops=[("grow", 1), ("sample", 1, None), ("grow", 2),
                      ("sample", 3, 0), ("grow", 37), ("sample", 17, 1),
                      ("sync",), ("sample", 80, None),
                      ("huge", 2**31 + 1, 65, 0),
                      ("cohort", [(37, 8), (2**32 - 2, 128)]),
                      ("huge", 2**32 - 2, 2, None), ("sample", 1, 2)])
def test_sample_draws_what_a_generator_draws(seed, ops):
    """Picks equal a plain generator twin's over any interleaving of
    ``sample`` with a growing store, huge stores, syncs and cohort
    residencies, and the synced generator is where the twin is."""
    mine = _drawer(np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    store = EpisodicStore()
    for kind, *args in ops:
        if kind == "grow":
            store.extend(_store_of(args[0])[len(store):])
        elif kind in ("sample", "huge"):
            target = _huge_store(args.pop(0)) if kind == "huge" else store
            n, exclude = args
            assert (target.sample(mine, n, exclude)
                    == target.sample(twin, n, exclude))
        elif kind == "sync":
            mine.sync()
        else:
            # The cohort's admit, rounds and release (CLSFleetGroup's
            # attach, draws from the lane's block, detach) on the synced
            # generator.
            lanes = LaneDraws(1)
            lanes.attach(0, mine.sync())
            for size, attempts in args[0]:
                got = lanes.draw_exact(0, size, attempts)
                want = twin.integers(0, size, size=attempts)
                assert got == want.tolist()
            lanes.detach(0)
    assert mine.sync().bit_generator.state == twin.bit_generator.state
    assert mine.draw(0, 1000, 8) == twin.integers(0, 1000, size=8).tolist()


def test_a_rejection_crosses_the_end_of_the_block():
    """A draw whose redraws run past the last raw of the block takes the
    next block mid-draw, in stream order."""
    size = 3 * 2**30 + 7
    # All but the last 8 raws of the first block, at a size that (almost
    # surely) rejects nothing, then 8 at one that rejects a quarter.
    lead = [min(128, n) for n in range(BLOCK - 8, 0, -128)]
    for seed in range(16):
        mine = _drawer(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        for attempts in lead:
            assert (mine.draw(0, 1000, attempts)
                    == twin.integers(0, 1000, size=attempts).tolist())
        assert mine.draw(0, size, 8) == twin.integers(0, size,
                                                       size=8).tolist()
        if mine.blocks()[2][0] > BLOCK:  # read past the first block
            break
    else:
        pytest.fail("no redraw ran past the end of the block")
    assert mine.sync().bit_generator.state == twin.bit_generator.state


def test_size_one_and_the_64_bit_path():
    """``size == 1`` reads nothing; 2**32 is the largest bound a lane
    draws, and numpy's 64-bit path above it is no store's: such a bound
    raises before anything is read."""
    mine = _drawer(np.random.default_rng(9))
    twin = np.random.default_rng(9)
    assert mine.draw(0, 1, 40) == [0] * 40
    assert mine._states[0] is None  # nothing drawn: no block taken
    twin.integers(0, 1, size=40)
    assert mine.draw(0, 37, 8) == twin.integers(0, 37, size=8).tolist()
    with pytest.raises(ValueError, match="bounds"):
        mine.draw(0, 2**40 + 3, 8)
    assert mine.draw(0, 2**32, 8) == twin.integers(0, 2**32,
                                                   size=8).tolist()
    assert mine.sync().bit_generator.state == twin.bit_generator.state


def _phased(seed: int, length: int):
    return build_phased_trace(
        [Phase("pointer_chase", length), Phase("stride", length // 2),
         Phase("pointer_chase", length)],
        PatternSpec(working_set=50, element_size=4096), seed=seed).trace


def _replaying(per_step: int = 2) -> CLSPrefetcher:
    return CLSPrefetcher(CLSPrefetcherConfig(
        vocab_size=64, hebbian=HebbianConfig(vocab_size=64, seed=7), seed=11,
        replay_per_step=per_step, prefetch_width=2, prefetch_length=2))


@pytest.mark.skipif(not backend_available("c"),
                    reason="a fleet cohort needs the C backend")
def test_a_cohort_residency_mid_block():
    """A prefetcher admitted to a cohort with its block half read leaves
    it where three ``simulate()`` runs leave its twin: the cohort drew on
    from the logical position, and the scalar draws after it continue
    from where the cohort stopped."""
    config = SimConfig(memory_fraction=0.5)
    traces = [_phased(seed, 230) for seed in range(3)]
    got, want = _replaying(), _replaying()
    simulate(traces[0], got, config=config, backend="numpy")
    assert 0 < got.scheduler.draws.blocks()[1][0] < BLOCK
    assert CLSFleetGroup.admits(got)
    run_cohort([FleetLaneSpec(trace=traces[1], prefetcher=got,
                              config=config)], backend="c")
    simulate(traces[2], got, config=config, backend="numpy")
    for trace in traces:
        simulate(trace, want, config=config, backend="numpy")
    assert got.stats == want.stats
    assert np.array_equal(got.model.w_out, want.model.w_out)
    assert got.scheduler.replayed_total == want.scheduler.replayed_total
    assert (got.scheduler.draws.sync().bit_generator.state
            == want.scheduler.draws.sync().bit_generator.state)


class _CountingGenerator:
    """A generator that counts the calls made into it."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.calls = rng, 0

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        return self.rng.bit_generator

    def integers(self, *args, **kwargs) -> np.ndarray:
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def test_the_scalar_miss_path_calls_the_generator_once_a_block():
    """Over more than ten thousand replayed misses of one ``simulate()``
    the generator is called once per block of raws the draws read (plus
    the sync), never once a miss."""
    trace = generate("pointer_chase", PatternSpec(
        n=20_000, working_set=2000, element_size=4096, seed=2))
    prefetcher = _replaying(per_step=1)
    scheduler = prefetcher.scheduler
    counting = _CountingGenerator(np.random.default_rng(scheduler.seed))
    draws = scheduler.draws
    draws.detach(0)
    draws.attach(0, counting)
    simulate(trace, prefetcher, config=SimConfig(memory_fraction=0.1))
    assert scheduler.invocations >= 10_000
    assert scheduler.replayed_total > 0
    raws = int(draws.blocks()[2][0])
    # Every replay past the store's first two episodes reads its attempts.
    assert raws >= MAX_ATTEMPTS_PER_PICK * (scheduler.invocations - 2)
    assert counting.calls <= math.ceil(raws / BLOCK) + 1
    draws.sync()
    reference = np.random.default_rng(scheduler.seed)
    reference.integers(0, 2**32, size=raws, dtype=np.uint32)
    assert counting.rng.bit_generator.state == reference.bit_generator.state
