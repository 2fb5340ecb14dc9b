"""Tests for the availability protocol and noise robustness (§5.5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.availability import (
    ShadowModelManager,
    perturb_weights,
    weight_noise_robustness,
    weights_finite,
)
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.lstm import LSTMConfig, OnlineLSTM


def small_hebbian(seed: int = 0) -> SparseHebbianNetwork:
    return SparseHebbianNetwork(HebbianConfig(vocab_size=16, hidden_dim=150,
                                              seed=seed))


class TestShadowModelManager:
    def test_training_goes_to_shadow_not_live(self):
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.0,
                                     max_staleness=10_000)
        for _ in range(30):
            manager.train_shadow(1, 2)
        live_probs = manager.live.step(1, train=False)
        shadow_probs = manager.shadow.step(1, train=False)
        assert shadow_probs[2] > live_probs[2]

    def test_staleness_backstop_redeploys(self):
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.0,
                                     max_staleness=5)
        for _ in range(4):
            manager.train_shadow(1, 2)
        assert not manager.should_redeploy()
        manager.train_shadow(1, 2)
        assert manager.should_redeploy()
        manager.redeploy()
        assert manager.redeploys == 1
        assert not manager.should_redeploy()

    def test_confidence_drop_triggers_redeploy(self):
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.5,
                                     ema_alpha=1.0, max_staleness=10_000)
        manager.note_confidence(0.1)
        assert manager.should_redeploy()

    def test_observe_full_cycle(self):
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.9,
                                     ema_alpha=0.5, max_staleness=10)
        for _ in range(40):
            manager.observe(1, 2)
        # after redeploys, the live model has learned the mapping
        probs = manager.live.step(1, train=False)
        assert probs[2] > 0.5
        assert manager.redeploys >= 1

    def test_redeploy_forks_fresh_shadow(self):
        manager = ShadowModelManager(small_hebbian())
        manager.train_shadow(1, 2)
        old_live, old_shadow = manager.live, manager.shadow
        changed = manager.redeploy()
        assert manager.live is old_shadow
        assert manager.shadow is not old_shadow
        # The retired live network is recycled as the new shadow, level
        # with the new live copy after moving only what training wrote.
        assert manager.shadow is old_live
        assert changed is not None and 0 < changed.size < old_live.w_out.size
        assert np.array_equal(manager.shadow.w_out, manager.live.w_out)
        assert not np.shares_memory(manager.shadow.readout_values,
                                    manager.live.readout_values)

    def test_other_models_still_redeploy_by_clone(self):
        """Only a plain Hebbian pair is recycled: the LSTM and any
        proxy/subclass keep the ``clone()`` fork."""
        class Proxy(SparseHebbianNetwork):
            def clone(self) -> "Proxy":
                twin = Proxy(self.config)
                twin.w_out = self.w_out.copy()
                return twin

        lstm = OnlineLSTM(LSTMConfig(vocab_size=8, embed_dim=4,
                                     hidden_dim=8, seed=0))
        for model in (lstm, Proxy(HebbianConfig(vocab_size=16,
                                                hidden_dim=150))):
            manager = ShadowModelManager(model)
            manager.train_shadow(1, 2)
            old_live, old_shadow = manager.live, manager.shadow
            assert manager.redeploy() is None
            assert manager.live is old_shadow
            assert manager.shadow not in (old_live, old_shadow)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShadowModelManager(small_hebbian(), ema_alpha=0.0)
        with pytest.raises(ValueError):
            ShadowModelManager(small_hebbian(), max_staleness=0)

    def test_confidence_exactly_at_threshold_does_not_redeploy(self):
        """The trigger is strict ``<``: an EMA sitting exactly on the
        threshold keeps the live model (the serving layer's swap logic
        depends on this edge not flapping)."""
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.5,
                                     ema_alpha=1.0, max_staleness=10_000)
        manager.note_confidence(0.5)
        assert manager.confidence_ema == 0.5
        assert not manager.should_redeploy()
        manager.note_confidence(np.nextafter(0.5, 0.0))
        assert manager.should_redeploy()

    def test_zero_query_window_leaves_ema_untouched(self):
        """With no confidence observations at all, the EMA never moves —
        only the staleness backstop can force a redeploy."""
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.5,
                                     max_staleness=7)
        before = manager.confidence_ema
        for _ in range(6):
            manager.train_shadow(1, 2)
            assert manager.confidence_ema == before
            assert not manager.should_redeploy()
        manager.train_shadow(1, 2)  # step 7: exactly max_staleness
        assert manager.confidence_ema == before
        assert manager.should_redeploy()

    def test_staleness_backstop_fires_at_exact_boundary(self):
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.0,
                                     max_staleness=3)
        for expected in (1, 2):
            manager.train_shadow(1, 2)
            assert manager.staleness == expected
            assert not manager.should_redeploy()
        manager.train_shadow(1, 2)
        assert manager.staleness == 3
        assert manager.should_redeploy()
        manager.redeploy()
        assert manager.staleness == 0

    def test_redeploy_clamps_ema_to_threshold(self):
        """Redeploy resets the EMA to at least the threshold, so a
        single low reading cannot trigger back-to-back swaps."""
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.5,
                                     ema_alpha=1.0, max_staleness=10_000)
        manager.note_confidence(0.1)
        assert manager.should_redeploy()
        manager.redeploy()
        assert manager.confidence_ema == 0.5
        assert not manager.should_redeploy()

    def test_discard_shadow_reforks_from_live(self):
        manager = ShadowModelManager(small_hebbian(), redeploy_below=0.0,
                                     max_staleness=10)
        for _ in range(5):
            manager.train_shadow(1, 2)
        trained_shadow = manager.shadow
        manager.discard_shadow()
        assert manager.shadow is not trained_shadow
        assert manager.staleness == 0
        assert np.array_equal(manager.shadow.w_out, manager.live.w_out)
        # The fresh shadow starts with an empty write log: the discarded
        # steps are not carried into the next redeploy's patch.
        assert manager.redeploy().size == 0
        # The discarded training really is gone.
        live_probs = manager.live.step(1, train=False)
        shadow_probs = manager.shadow.step(1, train=False)
        assert shadow_probs[2] == pytest.approx(live_probs[2])


class TestWeightsFinite:
    def test_hebbian_true_then_false_after_nan(self):
        model = small_hebbian()
        assert weights_finite(model)
        w_out = model.w_out
        w_out[tuple(np.argwhere(model.mask_out)[-1])] = np.nan
        model.w_out = w_out
        assert not weights_finite(model)

    def test_lstm_true_then_false_after_inf(self):
        model = OnlineLSTM(LSTMConfig(vocab_size=8, embed_dim=4,
                                      hidden_dim=8, seed=0))
        assert weights_finite(model)
        key = next(iter(model.net.params))
        model.net.params[key].reshape(-1)[0] = np.inf
        assert not weights_finite(model)

    def test_unknown_model_type_rejected(self):
        with pytest.raises(TypeError):
            weights_finite(object())  # type: ignore[arg-type]


class TestPerturbWeights:
    def test_lstm_perturbed_copy(self):
        model = OnlineLSTM(LSTMConfig(vocab_size=8, embed_dim=4, hidden_dim=8,
                                      seed=0))
        twin = perturb_weights(model, sigma=0.1, seed=1)
        assert any(not np.array_equal(twin.net.params[k], model.net.params[k])
                   for k in model.net.params)

    def test_hebbian_mask_respected(self):
        model = small_hebbian()
        for _ in range(20):
            model.train_pair(1, 2)
        twin = perturb_weights(model, sigma=0.3, seed=2)
        assert np.all(twin.w_out[~twin.mask_out] == 0.0)

    def test_sigma_zero_keeps_behaviour(self):
        model = small_hebbian()
        for _ in range(30):
            model.train_pair(1, 2)
        twin = perturb_weights(model, sigma=0.0, seed=3)
        probe = [1, 2] * 5
        assert twin.evaluate_sequence(probe) == pytest.approx(
            model.evaluate_sequence(probe))

    def test_unknown_model_type_rejected(self):
        with pytest.raises(TypeError):
            perturb_weights(object(), sigma=0.1)  # type: ignore[arg-type]


class TestNoiseRobustness:
    def test_curve_monotone_ish_and_robust_at_small_sigma(self):
        model = OnlineLSTM(LSTMConfig(vocab_size=8, embed_dim=8, hidden_dim=16,
                                      window=4, lr=1.0, seed=0))
        cycle = [1, 3, 5]
        for _ in range(120):
            for c in cycle:
                model.step(c)
        curve = weight_noise_robustness(model, cycle * 6,
                                        sigmas=(0.0, 0.05, 1.0), seed=0)
        assert curve[0.0] > 0.9
        # §5.5: small perturbations barely move the output...
        assert curve[0.05] > 0.8 * curve[0.0]
        # ...large ones destroy it (so the effect is real, not trivial)
        assert curve[1.0] < curve[0.0]
