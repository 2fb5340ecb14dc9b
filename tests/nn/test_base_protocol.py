"""Protocol conformance: both model families honour SequenceModel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.backends import available_backends, backend_available
from repro.nn.base import SequenceModel, evaluate_sequence_probs
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.hebbian_fleet import HebbianFleet
from repro.nn.lstm import LSTMConfig, OnlineLSTM

#: The bit-identical backend names (int8 serves a quantized mirror).
FLOAT_BACKENDS = [b for b in available_backends("nn") if b != "int8"]


def models():
    return [
        ("hebbian", SparseHebbianNetwork(HebbianConfig(
            vocab_size=12, hidden_dim=150, seed=0))),
        ("lstm", OnlineLSTM(LSTMConfig(vocab_size=12, embed_dim=8,
                                       hidden_dim=12, window=2, lr=1.0,
                                       seed=0))),
    ]


@pytest.mark.parametrize("name,model", models())
class TestSequenceModelConformance:
    def test_satisfies_protocol(self, name, model):
        assert isinstance(model, SequenceModel)
        assert model.vocab_size == 12

    def test_step_returns_distribution(self, name, model):
        probs = model.step(3)
        assert probs.shape == (12,)
        assert probs.sum() == pytest.approx(1.0)

    def test_train_pair_returns_probability(self, name, model):
        confidence = model.train_pair(1, 2)
        assert 0.0 <= confidence <= 1.0

    def test_clone_type_preserved(self, name, model):
        twin = model.clone()
        assert type(twin) is type(model)

    def test_rollout_structure(self, name, model):
        model.step(1, train=False)
        rollout = model.predict_rollout(width=3, length=2)
        assert len(rollout) == 2
        for step in rollout:
            assert len(step) == 3
            for class_id, probability in step:
                assert 0 <= class_id < 12
                assert 0.0 <= probability <= 1.0

    def test_reset_then_evaluate(self, name, model):
        for _ in range(30):
            model.step(5)
        model.reset_state()
        assert 0.0 <= model.evaluate_sequence([5] * 10) <= 1.0

    def test_evaluate_sequence_probs_helper(self, name, model):
        for _ in range(40):
            model.step(5)
        probs = evaluate_sequence_probs(model, [5, 5, 5, 5])
        assert probs.shape == (3,)
        assert np.isfinite(probs).all()

    def test_evaluate_short_sequence_empty(self, name, model):
        assert evaluate_sequence_probs(model, [1]).size == 0


def _rollout(model: str, backend: str, width: int, length: int
             ) -> list[list[tuple[int, float]]]:
    """``predict_rollout(width, length)`` of a few steps' model: the
    scalar network, a lane of a fleet on ``backend``'s kernels
    (``rollout_lanes``) or the LSTM (which has one arithmetic under every
    backend name)."""
    classes = [3, 5, 7, 3, 5]
    if model == "lstm":
        lstm = OnlineLSTM(LSTMConfig(vocab_size=24, embed_dim=8,
                                     hidden_dim=12, window=2, seed=0))
        for c in classes:
            lstm.step(c)
        return lstm.predict_rollout(width, length)
    net = SparseHebbianNetwork(HebbianConfig(vocab_size=24, hidden_dim=64,
                                             seed=0, backend=backend))
    if model == "hebbian":
        for c in classes:
            net.step(c)
        return net.predict_rollout(width, length)
    fleet = HebbianFleet(net, 1)
    for c in classes:
        fleet.step_all([c])
    return fleet.rollout_lanes([0], [width], [length])[0]


@pytest.mark.parametrize("length", [-1, 0, 1, 3])
@pytest.mark.parametrize("backend", FLOAT_BACKENDS)
@pytest.mark.parametrize("model", [
    "hebbian",
    pytest.param("hebbian-fleet", marks=pytest.mark.skipif(
        not backend_available("c"), reason="a HebbianFleet needs the C "
                                           "backend")),
    "lstm"])
def test_a_rollout_of_any_length_is_the_same_on_every_backend(
        model: str, backend: str, length: int) -> None:
    """``length`` steps, or none below 1, and the numpy result bit for
    bit under every backend name.  A fleet runs on the ``c`` kernels
    alone, so a fleet lane's rollout is checked against the scalar
    network's on ``backend``: numpy's arithmetic, then the kernels."""
    if model == "hebbian-fleet":
        got = _rollout(model, "c", 2, length)
        want = _rollout("hebbian", backend, 2, length)
    else:
        got = _rollout(model, backend, 2, length)
        want = _rollout(model, "numpy", 2, length)
    assert got == want
    assert len(got) == max(length, 0)
