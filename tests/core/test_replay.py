"""Tests for replay policies and the interleaving scheduler (§3.2, §5.4)."""

from __future__ import annotations

import pytest

from repro.core.cls_prefetcher import CLSPrefetcherConfig
from repro.core.hippocampus import Episode
from repro.core.replay import (
    REPLAY_LR_SCALE,
    ConfidenceFilteredReplay,
    ConsolidatingReplay,
    FullReplay,
    GenerativeReplay,
    PrototypeReplay,
    ReplayScheduler,
    RingBufferReplay,
    make_replay_policy,
)
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork


def ep(i: int, t: int | None = None, phase: int = 0, conf: float = 0.0) -> Episode:
    return Episode(input_class=i, target_class=t if t is not None else i + 1,
                   phase_id=phase, confidence=conf)


@pytest.fixture
def hebbian():
    return SparseHebbianNetwork(HebbianConfig(vocab_size=16, hidden_dim=150,
                                              seed=0))


class TestFullReplay:
    def test_stores_everything(self, rng):
        policy = FullReplay()
        for i in range(10):
            policy.record(ep(i))
        assert policy.storage_size() == 10

    def test_select_excludes_current_phase(self, rng):
        policy = FullReplay()
        for i in range(20):
            policy.record(ep(i, phase=i % 2))
        picks = policy.select(rng, 10, exclude_phase=0)
        assert picks and all(e.phase_id == 1 for e in picks)


class TestRingBufferReplay:
    def test_capacity_enforced(self):
        policy = RingBufferReplay(capacity=4)
        for i in range(10):
            policy.record(ep(i))
        assert policy.storage_size() == 4

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferReplay(capacity=0)

    def test_oldest_lost(self, rng):
        policy = RingBufferReplay(capacity=2)
        for i in range(5):
            policy.record(ep(i))
        inputs = {e.input_class for e in policy.select(rng, 20)}
        assert inputs <= {3, 4}


class TestConfidenceFilteredReplay:
    def test_high_confidence_not_stored(self):
        policy = ConfidenceFilteredReplay(confidence_threshold=0.9)
        policy.record(ep(1, conf=0.95))
        policy.record(ep(2, conf=0.2))
        assert policy.storage_size() == 1


class TestPrototypeReplay:
    def test_duplicates_collapse(self):
        policy = PrototypeReplay()
        for _ in range(50):
            policy.record(ep(1, t=2))
        policy.record(ep(3, t=4))
        assert policy.storage_size() == 2

    def test_selection_weighted_by_frequency(self, rng):
        policy = PrototypeReplay()
        for _ in range(90):
            policy.record(ep(1, t=2))
        for _ in range(10):
            policy.record(ep(3, t=4))
        picks = policy.select(rng, 200)
        frequent = sum(1 for e in picks if e.input_class == 1)
        assert frequent > 120  # ~90% expected

    def test_exclude_phase(self, rng):
        policy = PrototypeReplay()
        policy.record(ep(1, phase=0))
        policy.record(ep(2, phase=1))
        picks = policy.select(rng, 10, exclude_phase=0)
        assert all(e.phase_id == 1 for e in picks)


class TestGenerativeReplay:
    def test_no_episode_storage(self, rng):
        policy = GenerativeReplay()
        for i in range(100):
            policy.record(ep(i % 5))
        assert policy.storage_size() == 5  # seed classes only
        assert policy.select(rng, 10) == []

    def test_generates_from_confident_model(self, hebbian, rng):
        for _ in range(80):
            hebbian.train_pair(1, 2)
            hebbian.train_pair(2, 3)
        policy = GenerativeReplay(min_confidence=0.5, rollout_length=2)
        policy.record(ep(1, phase=0))
        pairs = policy.generate(hebbian, rng, batch=4)
        assert pairs
        assert all(src in (1, 2, 3) for src, _ in pairs)

    def test_unconfident_model_generates_nothing(self, hebbian, rng):
        policy = GenerativeReplay(min_confidence=0.99)
        policy.record(ep(1))
        assert policy.generate(hebbian, rng, batch=3) == []


class TestScheduler:
    def test_replays_at_reduced_lr(self, hebbian):
        policy = FullReplay()
        scheduler = ReplayScheduler(policy=policy, per_step=2, seed=0)
        assert scheduler.lr_scale == REPLAY_LR_SCALE
        for i in range(10):
            scheduler.record(ep(i % 3, phase=0))
        count = scheduler.step(hebbian, current_phase=1)
        assert count == 2
        assert scheduler.replayed_total == 2

    def test_zero_per_step_noop(self, hebbian):
        scheduler = ReplayScheduler(policy=FullReplay(), per_step=0)
        scheduler.record(ep(1))
        assert scheduler.step(hebbian) == 0

    def test_rejects_negative_per_step(self):
        with pytest.raises(ValueError):
            ReplayScheduler(policy=FullReplay(), per_step=-1)

    @pytest.mark.parametrize("lr_scale", [float("nan"), float("inf"), -0.1])
    def test_rejects_a_non_finite_or_negative_lr_scale(self, lr_scale):
        with pytest.raises(ValueError, match="lr_scale"):
            ReplayScheduler(policy=FullReplay(), lr_scale=lr_scale)
        # ... and so does the prefetcher's config, replay on or off.
        for policy in ("full", None):
            with pytest.raises(ValueError, match="replay_lr_scale"):
                CLSPrefetcherConfig(replay_policy=policy,
                                    replay_lr_scale=lr_scale)

    def test_accepts_a_zero_lr_scale(self):
        assert ReplayScheduler(policy=FullReplay(), lr_scale=0.0).lr_scale == 0

    def test_generative_scheduler_trains_model(self, hebbian):
        for _ in range(80):
            hebbian.train_pair(1, 2)
        policy = GenerativeReplay(min_confidence=0.5, rollout_length=1)
        scheduler = ReplayScheduler(policy=policy, per_step=2, seed=1)
        scheduler.record(ep(1, phase=0))
        count = scheduler.step(hebbian, current_phase=1)
        assert count >= 1

    def test_replay_preserves_old_mapping(self, hebbian):
        """The §3.2 mechanism end-to-end on the Hebbian net: interleaved
        replay keeps an old association alive under conflicting training."""
        for _ in range(40):
            hebbian.train_pair(1, 2)
        scheduler = ReplayScheduler(policy=FullReplay(), per_step=2,
                                    lr_scale=0.5, seed=0)
        for _ in range(40):
            scheduler.record(ep(1, t=2, phase=0))

        no_replay = hebbian.clone()
        for _ in range(60):
            no_replay.train_pair(1, 3)       # conflicting mapping
        with_replay = hebbian.clone()
        for _ in range(60):
            with_replay.train_pair(1, 3)
            scheduler.step(with_replay, current_phase=1)

        def p_old(model):
            return model.probabilities(model.readout(model.hidden_code(1)))[2]

        assert p_old(with_replay) > p_old(no_replay)


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("full", FullReplay), ("ring", RingBufferReplay),
        ("confidence", ConfidenceFilteredReplay),
        ("prototype", PrototypeReplay), ("generative", GenerativeReplay),
    ])
    def test_kinds(self, kind, cls):
        assert isinstance(make_replay_policy(kind), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_replay_policy("episodic")

    def test_kwargs_forwarded(self):
        policy = make_replay_policy("ring", capacity=7)
        assert policy.capacity == 7


class TestConsolidatingReplay:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConsolidatingReplay(consolidated_above=0.0)

    def test_stores_and_selects(self, rng):
        policy = ConsolidatingReplay()
        for i in range(10):
            policy.record(ep(i, phase=i % 2))
        assert policy.storage_size() == 10
        picks = policy.select(rng, 5, exclude_phase=0)
        assert picks and all(e.phase_id == 1 for e in picks)

    def test_consolidated_episodes_freed(self):
        policy = ConsolidatingReplay(consolidated_above=0.8)
        episode = ep(1)
        policy.record(episode)
        policy.on_replayed(episode, confidence=0.95)
        assert policy.storage_size() == 0
        assert policy.consolidated_total == 1

    def test_unconsolidated_episodes_kept(self):
        policy = ConsolidatingReplay(consolidated_above=0.8)
        episode = ep(1)
        policy.record(episode)
        policy.on_replayed(episode, confidence=0.3)
        assert policy.storage_size() == 1

    def test_double_free_harmless(self):
        policy = ConsolidatingReplay(consolidated_above=0.5)
        episode = ep(1)
        policy.record(episode)
        policy.on_replayed(episode, confidence=0.9)
        policy.on_replayed(episode, confidence=0.9)
        assert policy.consolidated_total == 1

    def test_scheduler_shrinks_store_as_model_learns(self, hebbian):
        """End-to-end §5.4: replay consolidates the mapping into the model
        and the hippocampal store empties itself."""
        policy = ConsolidatingReplay(consolidated_above=0.6)
        scheduler = ReplayScheduler(policy=policy, per_step=4, lr_scale=1.0,
                                    seed=0)
        for _ in range(30):
            scheduler.record(ep(1, t=2, phase=0))
        initial = policy.storage_size()
        for _ in range(120):
            scheduler.step(hebbian, current_phase=1)
        assert policy.storage_size() < initial
        assert policy.consolidated_total > 0

    def test_factory(self):
        assert isinstance(make_replay_policy("consolidating"),
                          ConsolidatingReplay)
