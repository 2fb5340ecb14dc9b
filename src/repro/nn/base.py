"""The sequence-model interface shared by the LSTM and Hebbian learners.

Both prefetch models in the paper consume an online stream of encoded
miss classes and predict the class of the next miss.  The common interface
lets the CLS prefetcher, the replay machinery, and every experiment treat
them interchangeably.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class SequenceModel(Protocol):
    """An online next-class predictor over a fixed vocabulary."""

    vocab_size: int

    def step(self, input_class: int, train: bool = True,
             lr_scale: float = 1.0) -> np.ndarray:
        """Consume one observed class; return next-class probabilities.

        When ``train`` is true the model first trains on the transition
        (previous class -> ``input_class``), then advances its recurrent
        state through ``input_class``.  ``lr_scale`` scales the learning
        rate (the replay protocol of §3.2 uses 0.1).
        """
        ...

    def train_pair(self, input_class: int, target_class: int,
                   lr_scale: float = 1.0) -> float:
        """Train on one (input -> target) transition without touching the
        streaming state.  Returns the model's confidence on the target
        *before* the update.  Used by replay (§3.2)."""
        ...

    def train_pairs(self, pairs: list[tuple[int, int]],
                    lr_scale: float = 1.0) -> None:
        """Train on a batch of (input -> target) transitions (confidences
        are discarded).  Implementations whose batch provably reproduces
        the sequential :meth:`train_pair` loop bit for bit advertise it by
        setting ``train_pairs_sequential_equivalent = True`` (the Hebbian
        models do; the LSTM's is a true batched SGD step and does not).
        Replay routes through this only when the flag is set."""
        ...

    def predict_rollout(self, width: int = 1, length: int = 1
                        ) -> list[list[tuple[int, float]]]:
        """Predict ``length`` future steps; at each step return the top
        ``width`` (class, probability) candidates.  The rollout follows the
        greedy (top-1) path and must not mutate the streaming state.
        ``ValueError`` for a ``width`` below 1."""
        ...

    def reset_state(self) -> None:
        """Clear the recurrent state (e.g., at a stream boundary)."""
        ...

    def clone(self) -> "SequenceModel":
        """Deep copy (weights + state); used by the availability protocol."""
        ...

    def evaluate_sequence(self, classes: list[int]) -> float:
        """Mean probability assigned to each next class of ``classes``,
        scored with frozen weights from a fresh state.  This is the
        "confidence" metric of Figure 3."""
        ...


def evaluate_sequence_probs(model: "SequenceModel", classes: list[int]) -> np.ndarray:
    """Per-transition confidence of ``model`` along ``classes``.

    Helper shared by implementations: rolls a *cloned* model (fresh state,
    frozen weights) over the sequence and records p(correct next class).
    """
    if len(classes) < 2:
        return np.zeros(0)
    probe = model.clone()
    probe.reset_state()
    probs = np.empty(len(classes) - 1)
    for i in range(len(classes) - 1):
        dist = probe.step(classes[i], train=False)
        probs[i] = dist[classes[i + 1]]
    return probs
