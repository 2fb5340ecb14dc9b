"""Dense reference implementation of the sparse Hebbian network.

This module preserves the original masked-dense-array implementation of
:class:`~repro.nn.hebbian.SparseHebbianNetwork`: every projection is a
full numpy array, the recurrent term is a dense ``(k, hidden)`` gather
and sum, and Eq. 1 updates materialize full ``(hidden,)`` column
temporaries.  It is the oracle of ``test_hebbian_equivalence.py``: the
CSR-style kernels in ``repro/nn/hebbian.py`` must produce bit-identical
``step()`` probabilities, training updates and rollouts.

The arithmetic is the dense mirror of the kernel math: the tie-break
jitter is folded into the feed-forward drive (added before the recurrent
term), and the recurrent normalization uses the simplified
``prev_active.size * connectivity_rec`` expected-hit count.  Keep the two
modules in lockstep when the model's math changes.
"""

from __future__ import annotations

import numpy as np

from repro.nn.base import evaluate_sequence_probs
from repro.nn.hebbian import HebbianConfig
from repro.nn.layers import softmax


class DenseHebbianReference:
    """Dense masked-array Hebbian model (implements ``SequenceModel``)."""

    #: ``train_pairs`` IS the sequential ``train_pair`` loop.
    train_pairs_sequential_equivalent = True

    def __init__(self, config: HebbianConfig = HebbianConfig()) -> None:
        self.config = config
        self.vocab_size = config.vocab_size
        rng = np.random.default_rng(config.seed)
        v, n = config.vocab_size, config.hidden_dim
        if config.input_mode == "signature":
            in_rows = config.signature_dim
            self._signatures = np.stack([
                rng.choice(in_rows, size=config.signature_k, replace=False)
                for _ in range(v)])
        else:
            in_rows = v
            self._signatures = None
        self.mask_in = rng.random((in_rows, n)) < config.connectivity_in
        self.mask_rec = rng.random((n, n)) < config.connectivity_rec
        self.mask_out = rng.random((n, v)) < config.connectivity_out
        self.w_in = self.mask_in.astype(np.float64)
        if self._signatures is not None:
            degree = self.mask_in.sum(axis=0).astype(np.float64)
            p = config.signature_k / config.signature_dim
            self._sig_mu = degree * p
            self._sig_sigma = np.sqrt(np.maximum(degree * p * (1 - p), 1e-6))
        self.w_rec = self.mask_rec.astype(np.float64)
        self.w_out = np.zeros((n, v))
        self._tiebreak = rng.uniform(0.0, 1e-3, size=n)
        score_span = config.k_winners * config.connectivity_out * config.weight_max
        self._temperature = max(0.25, score_span / 8.0)

        self._prev_class: int | None = None
        self._prev_active: np.ndarray | None = None
        self._prev_pred: int | None = None
        self._last_scores: np.ndarray | None = None
        self._last_active: np.ndarray | None = None
        self.train_steps = 0

    # ------------------------------------------------------------------
    def hidden_code(self, input_class: int,
                    prev_active: np.ndarray | None = None) -> np.ndarray:
        if self._signatures is not None:
            hits = self.w_in[self._signatures[input_class]].sum(axis=0)
            z = (hits - self._sig_mu) / self._sig_sigma
            pre = (self.config.input_gain / 3.0) * z + self._tiebreak
        else:
            pre = self.config.input_gain * self.w_in[input_class] + self._tiebreak
        if prev_active is not None and prev_active.size:
            expected_hits = max(1.0, prev_active.size
                                * self.config.connectivity_rec)
            pre = pre + (self.config.recurrent_strength / expected_hits
                         ) * self.w_rec[prev_active].sum(axis=0)
        k = self.config.k_winners
        return np.argpartition(pre, -k)[-k:]

    def readout(self, active: np.ndarray) -> np.ndarray:
        return self.w_out[active].sum(axis=0)

    def probabilities(self, scores: np.ndarray) -> np.ndarray:
        return softmax(scores / self._temperature)

    # ------------------------------------------------------------------
    def step(self, input_class: int, train: bool = True,
             lr_scale: float = 1.0) -> np.ndarray:
        self._check_class(input_class)
        if train and self._prev_active is not None:
            self._learn(self._prev_active, input_class, self._prev_pred, lr_scale)
            self.train_steps += 1

        active = self.hidden_code(input_class, self._prev_active)
        scores = self.readout(active)
        probs = self.probabilities(scores)

        self._prev_class = input_class
        self._prev_active = active
        self._prev_pred = int(np.argmax(scores))
        self._last_scores = scores
        self._last_active = active
        return probs

    def train_pair(self, input_class: int, target_class: int,
                   lr_scale: float = 1.0) -> float:
        self._check_class(input_class)
        self._check_class(target_class)
        active = self.hidden_code(input_class, prev_active=None)
        scores = self.readout(active)
        confidence = float(self.probabilities(scores)[target_class])
        self._learn(active, target_class, int(np.argmax(scores)), lr_scale)
        return confidence

    def train_pairs(self, pairs: list[tuple[int, int]],
                    lr_scale: float = 1.0) -> None:
        for input_class, target_class in pairs:
            self.train_pair(input_class, target_class, lr_scale=lr_scale)

    def predict_rollout(self, width: int = 1, length: int = 1
                        ) -> list[list[tuple[int, float]]]:
        if self._last_scores is None:
            return []
        out: list[list[tuple[int, float]]] = []
        scores = self._last_scores
        active = self._last_active
        for _ in range(length):
            probs = self.probabilities(scores)
            top = np.argsort(probs)[::-1][:width]
            out.append([(int(k), float(probs[k])) for k in top])
            active = self.hidden_code(int(top[0]), active)
            scores = self.readout(active)
        return out

    def reset_state(self) -> None:
        self._prev_class = None
        self._prev_active = None
        self._prev_pred = None
        self._last_scores = None
        self._last_active = None

    def clone(self) -> "DenseHebbianReference":
        twin = DenseHebbianReference(self.config)
        twin.w_in = self.w_in.copy()
        twin.w_rec = self.w_rec.copy()
        twin.w_out = self.w_out.copy()
        twin._prev_class = self._prev_class
        twin._prev_pred = self._prev_pred
        for src, attr in ((self._prev_active, "_prev_active"),
                          (self._last_scores, "_last_scores"),
                          (self._last_active, "_last_active")):
            setattr(twin, attr, None if src is None else src.copy())
        twin.train_steps = self.train_steps
        return twin

    def evaluate_sequence(self, classes: list[int]) -> float:
        probs = evaluate_sequence_probs(self, classes)
        return float(probs.mean()) if probs.size else 0.0

    # ------------------------------------------------------------------
    def _learn(self, active: np.ndarray, target: int, predicted: int | None,
               lr_scale: float) -> None:
        lr = self.config.lr * lr_scale
        connected = self.mask_out[:, target]
        delta = np.where(connected, -lr * self.config.negative_scale, 0.0)
        active_connected = active[connected[active]]
        delta[active_connected] = lr
        column = self.w_out[:, target] + delta
        np.clip(column, -self.config.weight_max, self.config.weight_max, out=column)
        self.w_out[:, target] = column

        if self.config.punish_wrong and predicted is not None and predicted != target:
            wrong = active[self.mask_out[active, predicted]]
            self.w_out[wrong, predicted] = np.maximum(
                self.w_out[wrong, predicted] - lr, -self.config.weight_max)

    @property
    def parameter_count(self) -> int:
        return int(self.mask_in.sum() + self.mask_rec.sum() + self.mask_out.sum())

    def _check_class(self, class_id: int) -> None:
        if not 0 <= class_id < self.vocab_size:
            raise ValueError(f"class {class_id} outside vocab [0, {self.vocab_size})")
