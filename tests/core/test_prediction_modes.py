"""Tests for direct lag-L prediction and prefetch chaining (§5.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.events import MissEvent
from repro.memsim.simulator import SimConfig, baseline_misses, simulate
from repro.nn.hebbian import HebbianConfig
from repro.patterns.generators import PatternSpec, stride


def direct_config(**overrides) -> CLSPrefetcherConfig:
    defaults = dict(
        model="hebbian", vocab_size=128, encoder="page",
        hebbian=HebbianConfig(vocab_size=128, hidden_dim=200, seed=0),
        prediction_mode="direct", prefetch_length=3, prefetch_width=1,
    )
    defaults.update(overrides)
    return CLSPrefetcherConfig(**defaults)


def miss(index: int, page: int) -> MissEvent:
    return MissEvent(index=index, address=page * 4096, page=page,
                     stream_id=0, timestamp=index * 100)


class TestValidation:
    def test_direct_requires_page_encoder(self):
        with pytest.raises(ValueError, match="page"):
            CLSPrefetcherConfig(prediction_mode="direct", encoder="delta")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="prediction_mode"):
            CLSPrefetcherConfig(prediction_mode="beam")

    def test_chaining_requires_observe_hits(self):
        with pytest.raises(ValueError, match="observe_hits"):
            CLSPrefetcherConfig(trigger_on_hits=True, observe_hits=False)


class TestDirectPrediction:
    def test_learns_lag_l_mapping(self):
        """On a cyclic page walk, direct mode prefetches the page L ahead."""
        prefetcher = CLSPrefetcher(direct_config(prefetch_length=3))
        cycle = [10, 20, 30, 40, 50, 60]
        predictions: list[int] = []
        for i in range(120):
            page = cycle[i % len(cycle)]
            predictions = prefetcher.on_miss(miss(i, page))
        # last miss was cycle[119 % 6] = 60; 3 ahead is 30
        assert predictions == [30]

    def test_trains_on_lag_pairs_only_after_warmup(self):
        prefetcher = CLSPrefetcher(direct_config(prefetch_length=4))
        for i in range(4):
            prefetcher.on_miss(miss(i, i + 1))
        assert prefetcher.stats.trained_steps == 0  # history too shallow
        prefetcher.on_miss(miss(4, 5))
        assert prefetcher.stats.trained_steps == 1

    def test_trains_on_the_lag_pairs_of_the_class_stream(self, monkeypatch):
        """Direct mode trains on exactly ``(class[t - L], class[t])`` for
        every ``t >= L`` of the class stream, and ``reset_stream()``
        restarts that: the new stream's first L classes train nothing."""
        length = 3
        prefetcher = CLSPrefetcher(direct_config(prefetch_length=length,
                                                 replay_policy=None))
        model = prefetcher.model
        classes: list[int] = []
        pairs: list[tuple[int, int]] = []
        step, train_pair = model.step, model.train_pair
        monkeypatch.setattr(model, "step", lambda c, **kw: (
            classes.append(c), step(c, **kw))[1])
        monkeypatch.setattr(model, "train_pair", lambda a, b: (
            pairs.append((a, b)), train_pair(a, b))[1])
        rng = np.random.default_rng(4)
        index = 0
        for n in (40, 25):
            classes.clear()
            pairs.clear()
            for page in rng.integers(1, 12, size=n).tolist():
                prefetcher.on_miss(miss(index, page))
                index += 1
            # A repeated page has no class (the encoder collapses it).
            assert 2 * length < len(classes) < n
            assert pairs == [(classes[t - length], classes[t])
                             for t in range(length, len(classes))]
            prefetcher.reset_stream()

    def test_direct_beats_rollout_under_delay(self):
        """A landing delay beyond the rollout horizon favours direct mode
        (the A9 ablation at test scale)."""
        from repro.harness.ablations import ablation_prediction_mode

        rows = ablation_prediction_mode(n_accesses=5_000, delays=(6,))
        by_mode = {r["mode"]: r["misses_removed_pct"] for r in rows}
        assert by_mode["direct L=6"] > by_mode["rollout L=4"] + 4.0
        assert by_mode["direct L=6 + chain"] > by_mode["direct L=6"]


class TestChaining:
    def test_hits_issue_prefetches(self):
        trace = stride(PatternSpec(n=1000, working_set=120, element_size=4096))
        cfg = SimConfig(memory_fraction=0.5)
        base = baseline_misses(trace, cfg)

        def run(chain: bool) -> float:
            prefetcher = CLSPrefetcher(direct_config(
                vocab_size=256,
                hebbian=HebbianConfig(vocab_size=256, hidden_dim=300, seed=0),
                prefetch_length=2, min_confidence=0.25,
                observe_hits=chain, trigger_on_hits=chain))
            return simulate(trace, prefetcher, cfg).percent_misses_removed(base)

        assert run(True) > run(False) + 10.0

    def test_on_access_returns_none_without_chaining(self):
        from repro.memsim.events import AccessEvent

        prefetcher = CLSPrefetcher(direct_config(observe_hits=True))
        prefetcher.on_miss(miss(0, 1))
        result = prefetcher.on_access(AccessEvent(
            index=1, address=2 * 4096, page=2, stream_id=0, timestamp=100,
            hit=True))
        assert result is None
