"""Tests for the signature (multi-bit hashed) Hebbian input mode (§5.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.costs import hebbian_inference_ops, hebbian_parameter_count
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork


def sig_config(vocab: int = 64, **overrides) -> HebbianConfig:
    defaults = dict(vocab_size=vocab, hidden_dim=300, input_mode="signature",
                    signature_dim=128, signature_k=8,
                    recurrent_strength=0.1, seed=0)
    defaults.update(overrides)
    return HebbianConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HebbianConfig(input_mode="dense")
        with pytest.raises(ValueError):
            HebbianConfig(input_mode="signature", signature_k=0)
        with pytest.raises(ValueError):
            HebbianConfig(input_mode="signature", signature_k=300,
                          signature_dim=128)


class TestSignatureCodes:
    def test_codes_are_class_specific(self):
        net = SparseHebbianNetwork(sig_config())
        a = set(net.hidden_code(1).tolist())
        b = set(net.hidden_code(2).tolist())
        assert len(a & b) / len(a) < 0.4  # pattern separation survives

    def test_codes_deterministic(self):
        net = SparseHebbianNetwork(sig_config())
        np.testing.assert_array_equal(np.sort(net.hidden_code(5)),
                                      np.sort(net.hidden_code(5)))

    def test_clone_reproduces_signatures(self):
        net = SparseHebbianNetwork(sig_config())
        twin = net.clone()
        np.testing.assert_array_equal(net._signatures, twin._signatures)


class TestLearning:
    def test_learns_cycle(self):
        net = SparseHebbianNetwork(sig_config())
        cycle = [1, 4, 2, 7, 5, 3]
        for _ in range(80):
            for c in cycle:
                net.step(c)
        assert net.evaluate_sequence(cycle * 5) > 0.6

    def test_large_vocab_learnable(self):
        rng = np.random.default_rng(2)
        perm = [int(x) for x in rng.permutation(100)]
        net = SparseHebbianNetwork(sig_config(vocab=4096, hidden_dim=500,
                                              signature_dim=256))
        for _ in range(12):
            for c in perm:
                net.step(c)
        assert net.evaluate_sequence(perm * 2) > 0.3


class TestResourceScaling:
    def test_input_layer_vocab_independent(self):
        """§5.3's point: one-hot input weights grow with the vocabulary,
        signature input weights do not."""
        small_sig = hebbian_parameter_count(sig_config(vocab=128,
                                                       hidden_dim=500,
                                                       signature_dim=256))
        large_sig = hebbian_parameter_count(sig_config(vocab=4096,
                                                       hidden_dim=500,
                                                       signature_dim=256))
        small_hot = hebbian_parameter_count(HebbianConfig(vocab_size=128,
                                                          hidden_dim=500))
        large_hot = hebbian_parameter_count(HebbianConfig(vocab_size=4096,
                                                          hidden_dim=500))
        # one-hot params balloon with vocab; signature growth is only the
        # (unavoidable) output layer
        hot_growth = large_hot - small_hot
        sig_growth = large_sig - small_sig
        assert sig_growth < 0.55 * hot_growth
        # and the realized networks match the analytic counts (binomial)
        net = SparseHebbianNetwork(sig_config(vocab=4096, hidden_dim=500,
                                              signature_dim=256))
        assert net.parameter_count == pytest.approx(large_sig, rel=0.05)

    def test_inference_ops_count_active_bits(self):
        onehot = hebbian_inference_ops(HebbianConfig())
        signature = hebbian_inference_ops(sig_config(vocab=128,
                                                     hidden_dim=1000,
                                                     signature_dim=256))
        assert signature.int_ops > onehot.int_ops  # k active bits fan out
