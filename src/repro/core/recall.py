"""Hippocampal recall: the pattern-completion fast path of Figure 4.

CLS theory gives the hippocampus two jobs.  Replay (``repro.core.replay``)
is the slow one — consolidating episodes into the neocortex.  The fast one
is *recall*: the hippocampus memorizes an experience in one shot and can
answer from it immediately, long before the neocortex has consolidated
anything.  Figure 4 draws this as the "Pattern Separation" -> storage ->
"Pattern Completion" path with dashed recall arrows back to behaviour.

:class:`HippocampalRecall` implements that path for prefetching:

- **Pattern separation**: each observed transition's input class is mapped
  to a sparse random code (a fixed binary projection + k-WTA, the dentate
  gyrus analogue) so one-shot storage of similar inputs doesn't collide.
- **One-shot storage**: the code is associated with the observed next
  class in a Willshaw-style :class:`SparseAssociativeMemory` (CA3
  analogue), one store per observation.
- **Pattern completion**: at prediction time the current input's
  (possibly noisy) code is completed back to the stored next-class code.

The CLS prefetcher consults recall when the neocortex is *not yet
confident* — giving one-shot adaptation to brand-new patterns while the
slow learner catches up — and prefers the neocortex once it has
consolidated (its context-sensitive predictions are strictly better on
learned patterns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hippocampus import SparseAssociativeMemory


@dataclass(frozen=True)
class RecallConfig:
    """Hippocampal recall parameters.

    Attributes:
        vocab_size: Class vocabulary shared with the encoder/model.
        code_dim: Width of the sparse key codes (dentate-gyrus layer).
        code_k: Active units per key code.
        value_k: Active units per value code (one hot class group).
        completion_threshold: Fraction of the cue that must support a value
            unit for it to be recalled (pattern-completion strictness).
        min_support: Minimum recalled value units for an answer to count.
        seed: Projection seed.
    """

    vocab_size: int = 128
    code_dim: int = 512
    code_k: int = 16
    value_k: int = 4
    completion_threshold: float = 0.6
    min_support: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.code_k <= 0 or self.code_k > self.code_dim:
            raise ValueError("code_k must be in [1, code_dim]")
        if self.value_k <= 0:
            raise ValueError("value_k must be positive")
        if not 0 < self.completion_threshold <= 1:
            raise ValueError("completion_threshold must be in (0, 1]")


class HippocampalRecall:
    """One-shot transition memory with pattern separation/completion."""

    def __init__(self, config: RecallConfig = RecallConfig()) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        # Fixed sparse projections: every class gets a random k-sparse key
        # code and a random k-sparse value code (its "engram").
        self._key_codes = np.stack([
            rng.choice(config.code_dim, size=config.code_k, replace=False)
            for _ in range(config.vocab_size)])
        self._value_codes = np.stack([
            rng.choice(config.code_dim, size=config.value_k, replace=False)
            for _ in range(config.vocab_size)])
        # (code_dim, vocab): how many of a class's value units a unit is
        # (0 or 1 — a class's units are distinct), so a completion's
        # overlap with every class is one sum over its units.
        self._incidence = np.zeros((config.code_dim, config.vocab_size),
                                   dtype=np.int64)
        self._incidence[self._value_codes.T,
                        np.arange(config.vocab_size)] = 1
        self.memory = SparseAssociativeMemory(
            key_dim=config.code_dim,
            value_dim=config.code_dim,
            value_k=config.value_k,
            threshold_fraction=config.completion_threshold,
        )
        self.stored_transitions = 0
        self.recalls_served = 0
        # Recall's answer per input class: a function of the memory's
        # bits alone, so it holds until a store sets a new bit.
        self._answers: dict[int, int | None] = {}

    # ------------------------------------------------------------------
    def store(self, input_class: int, target_class: int) -> None:
        """One-shot storage of an observed transition."""
        self._check(input_class)
        self._check(target_class)
        memory = self.memory
        bits = memory.bits_set
        memory.store(self._key_codes[input_class],
                     self._value_codes[target_class])
        if memory.bits_set != bits:
            self._answers.clear()
        self.stored_transitions += 1

    def recall(self, input_class: int) -> int | None:
        """Complete the stored next class for ``input_class``, if any.

        Returns None when nothing (or nothing unambiguous) is stored —
        ambiguity rises as the memory fills, which is exactly the capacity
        behaviour of a Willshaw memory.
        """
        self._check(input_class)
        answers = self._answers
        if input_class in answers:
            answer = answers[input_class]
        else:
            answer = answers[input_class] = self._decode(
                self.memory.complete(self._key_codes[input_class]))
        if answer is not None:
            self.recalls_served += 1
        return answer

    def _decode(self, completed: np.ndarray) -> int | None:
        """The class whose value code the completed units overlap most:
        the first such class, and only when its overlap reaches
        ``min_support`` and is no other class's too (the runner-up is
        the second-largest overlap, counted with multiplicity)."""
        min_support = self.config.min_support
        if completed.size < min_support:
            return None
        overlaps = self._incidence[completed].sum(axis=0)
        best = int(overlaps.argmax())
        best_overlap = int(overlaps[best])
        runner_up = (int(np.partition(overlaps, -2)[-2])
                     if overlaps.size > 1 else 0)
        if best_overlap < min_support or best_overlap == runner_up:
            return None
        return best

    def occupancy(self) -> float:
        """Memory fill level in [0, 1] (density of the weight matrix)."""
        return self.memory.density()

    def _check(self, class_id: int) -> None:
        if not 0 <= class_id < self.config.vocab_size:
            raise ValueError(f"class {class_id} outside vocab")


@dataclass
class RecallStats:
    """Counters for the recall integration in the CLS prefetcher."""

    consulted: int = 0
    answered: int = 0
    overrode_neocortex: int = 0
