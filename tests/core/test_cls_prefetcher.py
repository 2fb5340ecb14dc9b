"""Tests for the CLS prefetcher — the paper's assembled contribution."""

from __future__ import annotations

import pytest

from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.events import MissEvent
from repro.memsim.simulator import SimConfig, baseline_misses, simulate
from repro.nn.hebbian import HebbianConfig
from repro.patterns.generators import PatternSpec, pointer_chase, stride


def small_config(**overrides) -> CLSPrefetcherConfig:
    defaults = dict(
        model="hebbian",
        vocab_size=64,
        hebbian=HebbianConfig(vocab_size=64, hidden_dim=150, seed=0),
    )
    defaults.update(overrides)
    return CLSPrefetcherConfig(**defaults)


def miss(index: int, address: int, page_size: int = 4096,
         ts: int | None = None) -> MissEvent:
    return MissEvent(index=index, address=address, page=address // page_size,
                     stream_id=0, timestamp=ts if ts is not None else index * 100)


class TestConfigValidation:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            CLSPrefetcherConfig(model="transformer")

    def test_rejects_bad_length_width(self):
        with pytest.raises(ValueError):
            CLSPrefetcherConfig(prefetch_length=0)
        with pytest.raises(ValueError):
            CLSPrefetcherConfig(prefetch_width=0)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            CLSPrefetcherConfig(min_confidence=1.5)

    def test_rejects_vocab_mismatch(self):
        with pytest.raises(ValueError, match="vocab_size mismatch"):
            CLSPrefetcherConfig(model="hebbian", vocab_size=64,
                                hebbian=HebbianConfig(vocab_size=32)).build_model()

    def test_builds_both_model_families(self):
        from repro.nn.hebbian import SparseHebbianNetwork
        from repro.nn.lstm import OnlineLSTM
        assert isinstance(CLSPrefetcherConfig(model="hebbian").build_model(),
                          SparseHebbianNetwork)
        assert isinstance(CLSPrefetcherConfig(model="lstm").build_model(),
                          OnlineLSTM)


class TestOnMiss:
    def test_first_miss_no_prediction(self):
        prefetcher = CLSPrefetcher(small_config())
        assert prefetcher.on_miss(miss(0, 0x1000)) == []

    def test_learns_stride_and_prefetches_next_page(self):
        prefetcher = CLSPrefetcher(small_config())
        # misses every page in sequence: delta +1 page
        predictions = []
        for i in range(60):
            predictions = prefetcher.on_miss(miss(i, 0x10000 + i * 4096))
        assert predictions == [0x10000 // 4096 + 60]

    def test_never_prefetches_current_page(self):
        prefetcher = CLSPrefetcher(small_config(prefetch_width=4,
                                                prefetch_length=4))
        for i in range(40):
            pages = prefetcher.on_miss(miss(i, i * 4096))
            assert (i) not in pages

    def test_width_and_length_bound_output(self):
        prefetcher = CLSPrefetcher(small_config(prefetch_width=2,
                                                prefetch_length=3))
        for i in range(30):
            pages = prefetcher.on_miss(miss(i, i * 4096))
            assert len(pages) <= 6

    def test_min_confidence_suppresses_early(self):
        confident = CLSPrefetcher(small_config(min_confidence=0.0))
        selective = CLSPrefetcher(small_config(min_confidence=0.95))
        total_confident = total_selective = 0
        for i in range(20):
            total_confident += len(confident.on_miss(miss(i, i * 4096)))
            total_selective += len(selective.on_miss(miss(i, i * 4096)))
        assert total_selective < total_confident
        assert selective.stats.suppressed_low_confidence > 0

    def test_stats_counted(self):
        prefetcher = CLSPrefetcher(small_config())
        for i in range(10):
            prefetcher.on_miss(miss(i, i * 4096))
        assert prefetcher.stats.misses_seen == 10
        assert prefetcher.stats.trained_steps > 0

    def test_training_policy_gates_training(self):
        prefetcher = CLSPrefetcher(small_config(training="every_k",
                                                training_kwargs={"k": 4}))
        for i in range(41):
            prefetcher.on_miss(miss(i, i * 4096))
        # ~1/4 of eligible transitions trained
        assert prefetcher.stats.trained_steps <= 12

    def test_replay_disabled(self):
        prefetcher = CLSPrefetcher(small_config(replay_policy=None))
        for i in range(20):
            prefetcher.on_miss(miss(i, i * 4096))
        assert prefetcher.scheduler is None
        assert prefetcher.stats.replayed_pairs == 0

    def test_replay_runs_when_enabled(self):
        prefetcher = CLSPrefetcher(small_config(replay_policy="full",
                                                replay_per_step=1,
                                                phase_detection=False))
        # two alternating phases of transitions
        for i in range(30):
            prefetcher.on_miss(miss(i, i * 4096))
        assert prefetcher.stats.replayed_pairs > 0

    def test_reset_stream(self):
        prefetcher = CLSPrefetcher(small_config())
        for i in range(10):
            prefetcher.on_miss(miss(i, i * 4096))
        prefetcher.reset_stream()
        assert prefetcher.on_miss(miss(11, 0x900000)) == []

    def test_reset_stream_forgets_direct_mode_predictions(self):
        """Direct mode scores a miss against the prediction made
        ``prefetch_length`` misses earlier; across a reset those were
        made for the old stream and must score nothing."""
        prefetcher = CLSPrefetcher(small_config(
            prediction_mode="direct", encoder="page", prefetch_length=2))
        for i in range(60):
            prefetcher.on_miss(miss(i, (i % 5) * 4096))
        assert prefetcher.accuracy_ema > 0
        prefetcher.reset_stream()
        assert len(prefetcher._lag_window) == 0
        before = prefetcher.accuracy_ema
        prefetcher.on_miss(miss(61, 0x900000))
        assert prefetcher.accuracy_ema == before


class TestAvailabilityIntegration:
    def test_shadow_protocol_wired(self):
        prefetcher = CLSPrefetcher(small_config(availability=True))
        assert prefetcher.manager is not None
        for i in range(300):
            prefetcher.on_miss(miss(i, (i % 50) * 4096))
        assert prefetcher.manager.redeploys >= 1
        # live model still learned the cyclic stride
        assert prefetcher.stats.trained_steps > 0

    def test_shadow_protocol_still_prefetches_usefully(self):
        trace = stride(PatternSpec(n=600, working_set=80, element_size=4096))
        cfg = SimConfig(memory_fraction=0.5)
        base = baseline_misses(trace, cfg)
        run = simulate(trace, CLSPrefetcher(small_config(availability=True,
                                                         prefetch_length=2)), cfg)
        assert run.percent_misses_removed(base) > 10.0


class TestEndToEnd:
    def test_beats_baseline_on_pointer_chase(self):
        trace = pointer_chase(PatternSpec(n=2000, working_set=100,
                                          element_size=4096, seed=1))
        cfg = SimConfig(memory_fraction=0.5)
        base = baseline_misses(trace, cfg)
        prefetcher = CLSPrefetcher(small_config(vocab_size=128,
                                                hebbian=HebbianConfig(
                                                    vocab_size=128,
                                                    hidden_dim=300, seed=0),
                                                prefetch_length=2,
                                                prefetch_width=2))
        run = simulate(trace, prefetcher, cfg)
        assert run.percent_misses_removed(base) > 15.0
        # accuracy is depressed by capacity evictions in the thrashing
        # cyclic working set, not by wrong predictions
        assert run.stats.prefetch_accuracy > 0.35

    def test_deterministic_given_seed(self):
        trace = pointer_chase(PatternSpec(n=500, working_set=50,
                                          element_size=4096, seed=3))
        cfg = SimConfig(memory_fraction=0.5)
        runs = [simulate(trace, CLSPrefetcher(small_config()), cfg)
                for _ in range(2)]
        assert runs[0].demand_misses == runs[1].demand_misses


class TestPhaseHinting:
    def test_hint_overrides_detector(self):
        prefetcher = CLSPrefetcher(small_config(phase_detection=True))
        prefetcher.hint_phase(7)
        for i in range(10):
            prefetcher.on_miss(miss(i, i * 4096))
        episodes = prefetcher.scheduler.policy.store.episodes()
        assert episodes and all(e.phase_id == 7 for e in episodes)

    def test_hint_cleared(self):
        prefetcher = CLSPrefetcher(small_config(phase_detection=False))
        prefetcher.hint_phase(3)
        prefetcher.hint_phase(None)
        for i in range(5):
            prefetcher.on_miss(miss(i, i * 4096))
        episodes = prefetcher.scheduler.policy.store.episodes()
        assert all(e.phase_id == -1 for e in episodes)

    def test_rejects_negative_hint(self):
        prefetcher = CLSPrefetcher(small_config())
        with pytest.raises(ValueError):
            prefetcher.hint_phase(-2)

    def test_hinted_phase_excluded_from_replay(self):
        prefetcher = CLSPrefetcher(small_config(replay_per_step=2,
                                                phase_detection=False))
        prefetcher.hint_phase(0)
        for i in range(20):
            prefetcher.on_miss(miss(i, i * 4096))
        # all episodes belong to the hinted (current) phase: none replayable
        assert prefetcher.stats.replayed_pairs == 0
        prefetcher.hint_phase(1)
        for i in range(20, 40):
            prefetcher.on_miss(miss(i, i * 4096))
        assert prefetcher.stats.replayed_pairs > 0
