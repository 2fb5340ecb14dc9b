"""Behavioural tests for the sparse Hebbian network."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork


class TestConfig:
    def test_rejects_bad_activation(self):
        with pytest.raises(ValueError):
            HebbianConfig(activation_fraction=0.0)

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            HebbianConfig(connectivity_in=1.5)

    @pytest.mark.parametrize("name", ["lr", "negative_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_rates(self, name, value):
        # NaN or inf poisons the weights on both backends; a negative
        # rate makes Eq. 1 anti-Hebbian.
        with pytest.raises(ValueError, match=name):
            HebbianConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -8.0])
    def test_rejects_a_bad_weight_bound(self, value):
        # NaN clips to NaN under np.clip and to nothing in the C clip.
        with pytest.raises(ValueError, match="weight_max"):
            HebbianConfig(weight_max=value)

    def test_accepts_zero_rates(self):
        config = HebbianConfig(lr=0.0, negative_scale=0.0)
        assert (config.lr, config.negative_scale) == (0.0, 0.0)

    def test_k_winners(self):
        assert HebbianConfig(hidden_dim=1000, activation_fraction=0.1).k_winners == 100

    def test_paper_parameter_count(self):
        net = SparseHebbianNetwork(HebbianConfig(seed=0))
        # Table 2: 49k connected weights (49k expected, binomial sampling)
        assert 46_000 <= net.parameter_count <= 52_000


class TestHiddenCode:
    def test_exactly_k_active(self, tiny_hebbian):
        code = tiny_hebbian.hidden_code(3)
        assert len(code) == tiny_hebbian.config.k_winners

    def test_deterministic_without_context(self, tiny_hebbian):
        a = np.sort(tiny_hebbian.hidden_code(3))
        b = np.sort(tiny_hebbian.hidden_code(3))
        np.testing.assert_array_equal(a, b)

    def test_pattern_separation(self, tiny_hebbian):
        """Distinct classes map to nearly disjoint codes."""
        a = set(tiny_hebbian.hidden_code(1).tolist())
        b = set(tiny_hebbian.hidden_code(2).tolist())
        overlap = len(a & b) / len(a)
        assert overlap < 0.5

    def test_context_stays_within_input_support(self, tiny_hebbian):
        """Recurrent context reorders winners but codes for one class
        still overlap heavily (input gain dominates)."""
        bare = set(tiny_hebbian.hidden_code(1).tolist())
        ctx = tiny_hebbian.hidden_code(2)
        contextual = set(tiny_hebbian.hidden_code(1, prev_active=ctx).tolist())
        overlap = len(bare & contextual) / len(bare)
        assert overlap > 0.5


class TestLearning:
    def test_learns_constant(self, tiny_hebbian):
        for _ in range(60):
            tiny_hebbian.step(3)
        assert tiny_hebbian.evaluate_sequence([3] * 20) > 0.8

    def test_learns_cycle(self, tiny_hebbian):
        cycle = [1, 4, 2, 7, 5, 3]
        for _ in range(60):
            for c in cycle:
                tiny_hebbian.step(c)
        assert tiny_hebbian.evaluate_sequence(cycle * 5) > 0.8

    def test_weights_clipped(self, tiny_hebbian):
        for _ in range(500):
            tiny_hebbian.step(3)
        w_max = tiny_hebbian.config.weight_max
        assert np.abs(tiny_hebbian.w_out).max() <= w_max + 1e-9

    def test_updates_respect_output_mask(self, tiny_hebbian):
        for _ in range(100):
            tiny_hebbian.step(2)
        assert np.all(tiny_hebbian.w_out[~tiny_hebbian.mask_out] == 0.0)

    def test_no_training_when_disabled(self, tiny_hebbian):
        for _ in range(20):
            tiny_hebbian.step(2, train=False)
        assert np.all(tiny_hebbian.w_out == 0.0)
        assert tiny_hebbian.train_steps == 0

    def test_lr_scale_slows_learning(self):
        cfg = HebbianConfig(vocab_size=16, hidden_dim=200, seed=3)
        fast = SparseHebbianNetwork(cfg)
        slow = SparseHebbianNetwork(cfg)
        for _ in range(10):
            fast.step(2, lr_scale=1.0)
            slow.step(2, lr_scale=0.1)
        assert np.abs(fast.w_out).sum() > np.abs(slow.w_out).sum()

    def test_relearning_overwrites(self, tiny_hebbian):
        """The same context mapped to a new target eventually flips."""
        for _ in range(40):
            tiny_hebbian.train_pair(1, 2)
        for _ in range(120):
            tiny_hebbian.train_pair(1, 3)
        probs = tiny_hebbian.probabilities(
            tiny_hebbian.readout(tiny_hebbian.hidden_code(1)))
        assert probs[3] > probs[2]

    def test_rejects_out_of_vocab(self, tiny_hebbian):
        with pytest.raises(ValueError):
            tiny_hebbian.step(99)


class TestRollout:
    def test_empty_before_first_step(self, tiny_hebbian):
        assert tiny_hebbian.predict_rollout() == []

    def test_rollout_follows_learned_cycle(self, tiny_hebbian):
        cycle = [1, 4, 2, 7]
        for _ in range(80):
            for c in cycle:
                tiny_hebbian.step(c)
        tiny_hebbian.reset_state()
        tiny_hebbian.step(1, train=False)
        rollout = tiny_hebbian.predict_rollout(width=1, length=3)
        assert [s[0][0] for s in rollout] == [4, 2, 7]

    def test_width_and_order(self, tiny_hebbian):
        tiny_hebbian.step(1, train=False)
        rollout = tiny_hebbian.predict_rollout(width=4, length=2)
        for step in rollout:
            probs = [p for _, p in step]
            assert probs == sorted(probs, reverse=True)
            assert len(step) == 4


class TestCloneAndEval:
    def test_clone_independent(self, tiny_hebbian):
        for _ in range(60):
            tiny_hebbian.step(2)
        twin = tiny_hebbian.clone()
        for _ in range(60):
            twin.step(7)
        assert tiny_hebbian.evaluate_sequence([2] * 10) > 0.8

    def test_clone_shares_fixed_input_weights(self, tiny_hebbian):
        """Only the readout learns, so nothing writes ``w_in`` and clones
        share it like the other fixed structures."""
        assert tiny_hebbian.clone().w_in is tiny_hebbian.w_in

    def test_evaluate_does_not_train(self, tiny_hebbian):
        for _ in range(30):
            tiny_hebbian.step(2)
        w = tiny_hebbian.w_out.copy()
        tiny_hebbian.evaluate_sequence([1, 2, 3] * 4)
        np.testing.assert_array_equal(tiny_hebbian.w_out, w)


@settings(max_examples=20, deadline=None)
@given(class_id=st.integers(0, 15), ctx_class=st.integers(0, 15))
def test_property_kwta_always_exact(class_id, ctx_class):
    net = SparseHebbianNetwork(HebbianConfig(vocab_size=16, hidden_dim=100,
                                             seed=1))
    ctx = net.hidden_code(ctx_class)
    code = net.hidden_code(class_id, prev_active=ctx)
    assert len(code) == net.config.k_winners
    assert len(set(code.tolist())) == net.config.k_winners


def _state(net: SparseHebbianNetwork) -> list:
    """Everything ``clone()`` copies, as comparable values."""
    arrays = [net._prev_active, net._last_probs]
    return [net.w_out.tolist(), net._serve_vals.tolist(), net.w_in.tolist(),
            net._prev_pred, net.train_steps,
            [None if a is None else a.tolist() for a in arrays]]


class TestWriteLog:
    """``fork()`` / ``sync_from()``: a fork pair moves what it wrote."""

    def test_off_without_a_fork_partner(self, tiny_hebbian):
        for _ in range(20):
            tiny_hebbian.step(2)
        assert tiny_hebbian._written is None
        assert tiny_hebbian.clone()._written is None

    @pytest.mark.parametrize("overrides", [
        {}, {"punish_wrong": False}, {"backend": "int8"}],
        ids=["default", "no-punish", "int8"])
    def test_sync_equals_clone(self, overrides):
        net = SparseHebbianNetwork(HebbianConfig(
            vocab_size=16, hidden_dim=200, seed=3, **overrides))
        for c in [1, 4, 2, 7] * 5:
            net.step(c)
        twin = net.fork()
        twin.train_pairs([(1, 4), (4, 2), (2, 7)], lr_scale=0.1)
        twin.train_pair(7, 1)
        net.step(9)                       # the stale side wrote too
        offsets = net.sync_from(twin)
        assert offsets is not None
        assert 0 < offsets.size < net.readout_values.size
        assert _state(net) == _state(twin.clone())
        assert not np.shares_memory(net.readout_values, twin.readout_values)
        # Level again: the next sync has nothing to move.
        assert net.sync_from(twin).size == 0

    def test_log_is_bounded_and_collapses_to_a_full_copy(self, tiny_hebbian):
        twin = tiny_hebbian.fork()
        log = twin._written
        for _ in range(400):              # far more offsets than weights
            twin.train_pair(1, 2)
        assert log.count > twin.readout_values.size and not log.parts
        assert tiny_hebbian.sync_from(twin) is None
        np.testing.assert_array_equal(tiny_hebbian.w_out, twin.w_out)
        assert log.count == 0

    def test_setter_marks_everything(self, tiny_hebbian):
        twin = tiny_hebbian.fork()
        twin.w_out = twin.w_out + twin.mask_out
        assert tiny_hebbian.sync_from(twin) is None
        np.testing.assert_array_equal(tiny_hebbian.w_out, twin.w_out)
        np.testing.assert_array_equal(twin.w_out, twin.mask_out)

    def test_non_partner_gets_a_full_copy(self, tiny_hebbian):
        first = tiny_hebbian.fork()
        second = tiny_hebbian.fork()      # re-pairs; ``first`` is orphaned
        first.train_pair(1, 2)
        second.train_pair(3, 4)
        assert tiny_hebbian.sync_from(first) is None
        np.testing.assert_array_equal(tiny_hebbian.w_out, first.w_out)
        # ...and the copy counts as a write against the live pairing.
        assert second.sync_from(tiny_hebbian) is None
        np.testing.assert_array_equal(second.w_out, first.w_out)
