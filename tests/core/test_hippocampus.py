"""Tests for episodic storage and the sparse associative memory."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hippocampus import (
    MAX_ATTEMPTS_PER_PICK,
    Episode,
    EpisodicStore,
    LaneDraws,
    SparseAssociativeMemory,
)
from repro.nn.backends import backend_available, c_backend

#: ``LaneDraws.draw_exact`` lane by lane, and ``rk_lane_draws`` — the
#: draw the cohort's replay kernel makes — where the C backend compiles.
COMPILED = [False, *([True] if backend_available("c") else [])]


def ep(i: int, phase: int = 0, conf: float = 0.0) -> Episode:
    return Episode(input_class=i, target_class=i + 1, phase_id=phase,
                   confidence=conf)


class TestEpisodicStore:
    def test_unbounded_by_default(self):
        store = EpisodicStore()
        for i in range(1000):
            store.store(ep(i))
        assert len(store) == 1000
        assert store.evicted_total == 0

    def test_bounded_evicts_fifo(self):
        store = EpisodicStore(capacity=3)
        for i in range(5):
            store.store(ep(i))
        assert len(store) == 3
        assert [e.input_class for e in store.episodes()] == [2, 3, 4]
        assert store.evicted_total == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EpisodicStore(capacity=0)

    def test_episodes_filter_by_phase(self):
        store = EpisodicStore()
        store.store(ep(1, phase=0))
        store.store(ep(2, phase=1))
        assert [e.input_class for e in store.episodes(phase_id=1)] == [2]
        assert store.phases() == [0, 1]

    def test_sample_excludes_phase(self, rng):
        store = EpisodicStore()
        for i in range(50):
            store.store(ep(i, phase=i % 2))
        picks = store.sample(rng, 20, exclude_phase=1)
        assert picks
        assert all(e.phase_id == 0 for e in picks)

    def test_sample_empty_store(self, rng):
        assert EpisodicStore().sample(rng, 5) == []

    def test_sample_bounded_attempts(self, rng):
        store = EpisodicStore()
        for i in range(20):
            store.store(ep(i, phase=1))
        # everything excluded: returns few/none rather than spinning
        assert store.sample(rng, 4, exclude_phase=1) == []

    def test_episode_is_an_immutable_record(self):
        episode = Episode(3, 4, 1, 0.5, 70)
        assert episode == Episode(input_class=3, target_class=4, phase_id=1,
                                  confidence=0.5, timestamp=70)
        assert episode != ep(3, phase=1, conf=0.5)  # timestamp differs
        assert hash(episode) == hash(Episode(3, 4, 1, 0.5, 70))
        assert Episode(1, 2) == Episode(1, 2, -1, 0.0, 0)
        with pytest.raises(AttributeError):
            episode.phase_id = 2

    @pytest.mark.parametrize("capacity", [None, 3, 10])
    @pytest.mark.parametrize("held", [0, 2, 10])
    @pytest.mark.parametrize("batch", [0, 1, 4, 25])
    def test_extend_is_store_in_bulk(self, capacity, held, batch):
        one_by_one = EpisodicStore(capacity=capacity)
        bulk = EpisodicStore(capacity=capacity)
        for i in range(held):
            one_by_one.store(ep(i, phase=i % 3))
            bulk.store(ep(i, phase=i % 3))
        fresh = [ep(100 + i, phase=(i // 2) % 4) for i in range(batch)]
        for episode in fresh:
            one_by_one.store(episode)
        bulk.extend(fresh)
        assert bulk.episodes() == one_by_one.episodes()
        # The same ring position, so the kernels read the same columns.
        assert bulk.ep_count == one_by_one.ep_count
        assert bulk.phases() == one_by_one.phases()
        assert bulk.stored_total == one_by_one.stored_total
        assert bulk.evicted_total == one_by_one.evicted_total


#: Bounds on either side of every branch of numpy's bounded draw: no
#: draw at all (1), powers of two and not, and bounds near 2**31 / 2**32
#: where a quarter to a half of the raw draws are rejected.
DRAW_SIZES = [1, 2, 3, 37, 1000, 2**31 - 5, 2**31 + 1, 3 * 2**30 + 7,
              2**32 - 2]

draw_call = st.tuples(
    st.sampled_from([MAX_ATTEMPTS_PER_PICK, 2 * MAX_ATTEMPTS_PER_PICK,
                     3 * MAX_ATTEMPTS_PER_PICK]),
    st.lists(st.one_of(st.none(), st.sampled_from(DRAW_SIZES)),
             min_size=3, max_size=3))


#: The sizes the compiled draw is held to besides ``DRAW_SIZES``: the
#: smallest bounds, the powers of two either side of 2**31, the largest
#: bound, and a quarter of the raws rejected (3 * 2**30).
KERNEL_SIZES = [1, 2, 3, 2**31, 2**32 - 1, 3 * 2**30, 3 * 2**30 + 7]

kernel_call = st.tuples(
    st.integers(1, LaneDraws.max_attempts),
    st.lists(st.one_of(st.none(), st.sampled_from(KERNEL_SIZES)),
             min_size=3, max_size=3))


def _exact_draw(draws: LaneDraws, lanes: np.ndarray, sizes: np.ndarray,
                attempts: int) -> np.ndarray:
    """Row ``i``: lane ``lanes[i]``'s ``integers(0, sizes[i],
    size=attempts)``, drawn value by value from its raw block."""
    return np.array([draws.draw_exact(lane, size, attempts)
                     for lane, size in zip(lanes.tolist(), sizes.tolist())],
                    dtype=np.int64).reshape(lanes.size, attempts)


def _kernel_draw(draws: LaneDraws, lanes: np.ndarray, sizes: np.ndarray,
                 attempts: int) -> np.ndarray:
    """:func:`_exact_draw` on ``rk_lane_draws`` over the lanes' raw
    blocks, the rows it hands back redrawn value by value."""
    draws.ready(lanes, attempts)
    values = np.empty((lanes.size, attempts), dtype=np.int64)
    for i in c_backend.lane_draws(*draws.blocks(), lanes, sizes,
                                  values).tolist():
        values[i] = draws.draw_exact(int(lanes[i]), int(sizes[i]), attempts)
    return values


def _replay_calls(seed: int, calls: list, compiled: bool = False
                  ) -> tuple[LaneDraws, list]:
    """Run ``calls`` — ``(attempts, size per lane or None)`` — through a
    ``LaneDraws`` over three generators (on ``rk_lane_draws`` when
    ``compiled``), each value checked against a reference generator's
    ``integers``."""
    draw = _kernel_draw if compiled else _exact_draw
    draws = LaneDraws(2)
    draws.grow(3)
    mine = [np.random.default_rng([seed, lane]) for lane in range(3)]
    reference = [np.random.default_rng([seed, lane]) for lane in range(3)]
    for lane, generator in enumerate(mine):
        draws.attach(lane, generator)
    for attempts, sizes in calls:
        lanes = [lane for lane, size in enumerate(sizes) if size is not None]
        if not lanes:
            continue
        got = draw(draws, np.array(lanes),
                   np.array([sizes[lane] for lane in lanes]), attempts)
        assert got.shape == (len(lanes), attempts)
        for row, lane in zip(got, lanes):
            want = reference[lane].integers(0, sizes[lane], size=attempts)
            assert row.tolist() == want.tolist()
    return draws, list(zip(mine, reference))


class TestLaneDraws:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(draw_call, min_size=1, max_size=24))
    def test_draws_equal_generator_integers(self, seed, calls):
        """Value for value over consecutive calls with sizes mixed between
        them, and the generator is handed back where the reference is."""
        draws, generators = _replay_calls(seed, calls)
        for lane, (mine, reference) in enumerate(generators):
            draws.detach(lane)
            assert mine.bit_generator.state == reference.bit_generator.state
            # ... and stays in step afterwards.
            assert mine.integers(0, 1000) == reference.integers(0, 1000)

    @pytest.mark.skipif(not backend_available("c"),
                        reason="the C backend does not compile here")
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(draw_call, min_size=1, max_size=24))
    def test_the_compiled_draw_is_the_replica(self, seed, calls):
        """The property above on ``rk_lane_draws``."""
        draws, generators = _replay_calls(seed, calls, compiled=True)
        for lane, (mine, reference) in enumerate(generators):
            draws.detach(lane)
            assert mine.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("compiled", COMPILED)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(kernel_call, min_size=1, max_size=12))
    def test_any_attempts_and_the_extreme_sizes(self, compiled, seed,
                                                calls):
        """Every call width from one draw to a whole block, at the sizes
        where the 64-bit product and the rejection test are tightest."""
        draws, generators = _replay_calls(seed, calls, compiled)
        for lane, (mine, reference) in enumerate(generators):
            draws.detach(lane)
            assert mine.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("compiled", COMPILED)
    def test_a_rejection_crosses_the_end_of_the_block(self, compiled):
        """A row drawn value by value whose redraws run past the last raw
        of its block refills it mid-row, in stream order."""
        size = 3 * 2**30 + 7
        # All but the last 8 raws of the first block, at a size that
        # (almost surely) rejects nothing, then 8 at one that rejects a
        # quarter.
        block = LaneDraws(1).blocks()[0].shape[1]
        lead = [(min(128, n), [1000, None, None])
                for n in range(block - 8, 0, -128)]
        for seed in range(16):
            draws, generators = _replay_calls(
                seed, [*lead, (8, [size, None, None])], compiled)
            if draws._used[0] > block:
                break
        else:
            pytest.fail("no redraw ran past the end of the block")
        draws.detach(0)
        mine, reference = generators[0]
        assert mine.bit_generator.state == reference.bit_generator.state

    def test_an_odd_number_of_raws_leaves_the_half_word_buffered(self):
        """PCG64 yields two 32-bit draws per step and buffers the second;
        a lane that consumed an odd number must hand that buffer back."""
        calls = [(8, [3 * 2**30 + 7, 2**31 + 1, 37])] * 5
        for seed in range(4):
            draws, generators = _replay_calls(seed, calls)
            used = draws._used.tolist()
            assert used[2] == 40 and min(used[:2]) > 40  # rejections redrew
            if any(n % 2 for n in used):
                break
        else:
            pytest.fail("no lane consumed an odd number of raws")
        for lane, (mine, reference) in enumerate(generators):
            draws.detach(lane)
            state = mine.bit_generator.state
            assert state == reference.bit_generator.state
            assert state["has_uint32"] == used[lane] % 2

    def test_blocks_refill_in_stream_order(self):
        """Many more draws than one block holds, with a leftover carried
        across every refill (24 does not divide the block)."""
        draws, generators = _replay_calls(5, [(24, [1000, None, 3])] * 40)
        draws.detach(0)
        mine, reference = generators[0]
        assert mine.bit_generator.state == reference.bit_generator.state

    def test_a_lane_holds_one_generator_at_a_time(self):
        draws = LaneDraws(1)
        draws.attach(0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="already"):
            draws.attach(0, np.random.default_rng(1))
        draws.detach(0)
        with pytest.raises(ValueError, match="no generator"):
            draws.detach(0)


class TestSparseAssociativeMemory:
    def test_store_and_exact_recall(self):
        mem = SparseAssociativeMemory(key_dim=100, value_dim=100, value_k=5)
        key = np.array([1, 5, 9, 20, 33])
        value = np.array([2, 4, 6, 8, 10])
        mem.store(key, value)
        np.testing.assert_array_equal(mem.complete(key), value)

    def test_pattern_completion_from_partial_cue(self):
        mem = SparseAssociativeMemory(key_dim=200, value_dim=200, value_k=6,
                                      threshold_fraction=0.5)
        rng = np.random.default_rng(0)
        key = rng.choice(200, size=12, replace=False)
        value = np.sort(rng.choice(200, size=6, replace=False))
        mem.store(key, value)
        partial = key[:8]  # 2/3 of the cue
        np.testing.assert_array_equal(np.sort(mem.complete(partial)), value)

    def test_pattern_separation_across_memories(self):
        mem = SparseAssociativeMemory(key_dim=400, value_dim=400, value_k=5)
        rng = np.random.default_rng(1)
        pairs = []
        for _ in range(10):
            key = rng.choice(400, size=10, replace=False)
            value = np.sort(rng.choice(400, size=5, replace=False))
            mem.store(key, value)
            pairs.append((key, value))
        correct = sum(
            np.array_equal(np.sort(mem.complete(k)), v) for k, v in pairs)
        assert correct >= 9  # sparse codes keep memories separable

    def test_empty_cue(self):
        mem = SparseAssociativeMemory(key_dim=10, value_dim=10, value_k=2)
        assert mem.complete(np.array([], dtype=np.int64)).size == 0

    def test_density_grows(self):
        mem = SparseAssociativeMemory(key_dim=50, value_dim=50, value_k=3)
        assert mem.density() == 0.0
        mem.store(np.array([1, 2]), np.array([3, 4]))
        assert mem.density() > 0.0

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           ops=st.lists(st.one_of(
               st.just("reset"),
               st.tuples(st.lists(st.integers(0, 11), max_size=6),
                         st.lists(st.integers(0, 11), max_size=6))),
               max_size=30))
    def test_density_is_the_running_bit_count(self, dims, ops):
        """``density()`` is the count of bits ``store`` newly set over
        the matrix size: ``weights.mean()`` exactly, through repeated
        stores, repeated units within a code, empty codes and a reset
        (the fresh memory ``recall_occupancy_reset`` makes)."""
        key_dim, value_dim = dims

        def fresh() -> SparseAssociativeMemory:
            return SparseAssociativeMemory(key_dim=key_dim,
                                           value_dim=value_dim, value_k=2)

        mem = fresh()
        assert mem.density() == mem.weights.mean() == 0.0
        for op in ops:
            if op == "reset":
                mem = fresh()
            else:
                key, value = op
                key = np.asarray([k % key_dim for k in key], dtype=np.int64)
                value = np.asarray([v % value_dim for v in value],
                                   dtype=np.int64)
                for _ in range(1 + len(key) % 2):  # sometimes twice
                    mem.store(key, value)
            assert mem.density() == float(mem.weights.mean())

    def test_out_of_range_rejected(self):
        mem = SparseAssociativeMemory(key_dim=10, value_dim=10, value_k=2)
        with pytest.raises(ValueError):
            mem.store(np.array([11]), np.array([1]))
        with pytest.raises(ValueError):
            mem.complete(np.array([-1]))

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseAssociativeMemory(key_dim=0, value_dim=10, value_k=1)
        with pytest.raises(ValueError):
            SparseAssociativeMemory(key_dim=10, value_dim=10, value_k=1,
                                    threshold_fraction=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_recall_returns_at_most_k(seed):
    rng = np.random.default_rng(seed)
    mem = SparseAssociativeMemory(key_dim=80, value_dim=80, value_k=4)
    for _ in range(5):
        mem.store(rng.choice(80, size=8, replace=False),
                  rng.choice(80, size=4, replace=False))
    cue = rng.choice(80, size=8, replace=False)
    assert mem.complete(cue).size <= 4
