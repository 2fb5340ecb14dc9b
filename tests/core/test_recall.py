"""Tests for the hippocampal recall fast path (Figure 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.core.recall import HippocampalRecall, RecallConfig
from repro.memsim.events import MissEvent
from repro.memsim.simulator import SimConfig, baseline_misses, simulate
from repro.nn.hebbian import HebbianConfig
from repro.patterns.generators import PatternSpec, pointer_chase


class TestRecallConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecallConfig(code_k=0)
        with pytest.raises(ValueError):
            RecallConfig(code_k=600, code_dim=512)
        with pytest.raises(ValueError):
            RecallConfig(value_k=0)
        with pytest.raises(ValueError):
            RecallConfig(completion_threshold=0.0)


class TestHippocampalRecall:
    def test_one_shot_store_and_recall(self):
        recall = HippocampalRecall(RecallConfig(vocab_size=32, seed=0))
        recall.store(3, 17)
        assert recall.recall(3) == 17

    def test_unknown_input_returns_none(self):
        recall = HippocampalRecall(RecallConfig(vocab_size=32, seed=0))
        recall.store(3, 17)
        assert recall.recall(9) is None

    def test_many_transitions_separable(self):
        recall = HippocampalRecall(RecallConfig(vocab_size=64, seed=1))
        mapping = {i: (i * 7 + 3) % 64 for i in range(30)}
        for src, dst in mapping.items():
            recall.store(src, dst)
        correct = sum(recall.recall(src) == dst for src, dst in mapping.items())
        assert correct >= 27  # sparse codes keep one-shot memories apart

    def test_conflicting_transitions_ambiguous(self):
        recall = HippocampalRecall(RecallConfig(vocab_size=32, seed=2))
        recall.store(5, 10)
        recall.store(5, 20)
        # both engrams are now superimposed; recall refuses to guess or
        # returns one of the two — never a third class
        answer = recall.recall(5)
        assert answer in (None, 10, 20)

    def test_occupancy_grows(self):
        recall = HippocampalRecall(RecallConfig(vocab_size=64, seed=0))
        assert recall.occupancy() == 0.0
        for i in range(20):
            recall.store(i, (i + 1) % 64)
        assert recall.occupancy() > 0.0

    def test_out_of_vocab_rejected(self):
        recall = HippocampalRecall(RecallConfig(vocab_size=8, seed=0))
        with pytest.raises(ValueError):
            recall.store(9, 1)
        with pytest.raises(ValueError):
            recall.recall(9)

    def test_counters(self):
        recall = HippocampalRecall(RecallConfig(vocab_size=16, seed=0))
        recall.store(1, 2)
        recall.recall(1)
        assert recall.stored_transitions == 1
        assert recall.recalls_served == 1


def _loop_recall(recall: HippocampalRecall, input_class: int) -> int | None:
    """Recall's answer as the loop over the vocabulary computed it: the
    decode's oracle."""
    completed = recall.memory.complete(recall._key_codes[input_class])
    if completed.size < recall.config.min_support:
        return None
    completed_set = set(completed.tolist())
    best_class, best_overlap, runner_up = -1, 0, 0
    for class_id in range(recall.config.vocab_size):
        overlap = len(completed_set.intersection(
            recall._value_codes[class_id].tolist()))
        if overlap > best_overlap:
            best_class, best_overlap, runner_up = (class_id, overlap,
                                                   best_overlap)
        elif overlap > runner_up:
            runner_up = overlap
    if (best_overlap < recall.config.min_support
            or best_overlap == runner_up):
        return None
    return best_class


@settings(max_examples=120, deadline=None)
@given(vocab=st.integers(1, 40), code_dim=st.sampled_from([16, 32, 64]),
       value_k=st.integers(1, 6), min_support=st.integers(0, 3),
       threshold=st.sampled_from([0.3, 0.6, 1.0]), seed=st.integers(0, 99),
       moves=st.lists(st.tuples(st.booleans(), st.integers(0, 39),
                                st.integers(0, 39)), max_size=60))
def test_the_decode_and_its_memo_are_the_vocabulary_loop(
        vocab, code_dim, value_k, min_support, threshold, seed, moves):
    """Recall answers as the loop over the vocabulary did — first best
    overlap, runner-up counted with multiplicity — on small dense
    memories where ties and ambiguity are common, with every answer
    memoized between stores; ``recalls_served`` counts the same."""
    config = RecallConfig(vocab_size=vocab, code_dim=code_dim,
                          code_k=min(4, code_dim), value_k=min(value_k, code_dim),
                          completion_threshold=threshold,
                          min_support=min_support, seed=seed)
    recall = HippocampalRecall(config)
    served = 0
    for store, a, b in moves:
        a, b = a % vocab, b % vocab
        if store:
            recall.store(a, b)
            continue
        want = _loop_recall(recall, a)
        served += want is not None
        assert recall.recall(a) == want
        assert recall.recall(a) == want  # the memo's answer
        served += want is not None
    assert recall.recalls_served == served
    assert recall.occupancy() == float(np.mean(recall.memory.weights))


class TestCLSIntegration:
    def make(self, recall: bool) -> CLSPrefetcher:
        return CLSPrefetcher(CLSPrefetcherConfig(
            model="hebbian", vocab_size=64, encoder="page",
            hebbian=HebbianConfig(vocab_size=64, hidden_dim=150, seed=0),
            recall=recall, min_confidence=0.25))

    def test_recall_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError, match="recall config vocab_size"):
            CLSPrefetcher(CLSPrefetcherConfig(
                model="hebbian", vocab_size=64, recall=True,
                recall_config=RecallConfig(vocab_size=32)))

    def test_one_shot_prefetch_on_second_visit(self):
        """After seeing A->B once, the very next visit to A prefetches B —
        before the neocortex has consolidated anything."""
        prefetcher = self.make(recall=True)
        pages = [3, 9, 4, 3, 9]  # transition 3->9 seen once, then repeated
        predictions = []
        for i, page in enumerate(pages):
            predictions = prefetcher.on_miss(MissEvent(
                index=i, address=page * 4096, page=page, stream_id=0,
                timestamp=i * 100))
        del predictions
        # at the final miss on 3 (index 3 -> page 3), the prediction for 9
        # came from recall; verify via the counters and the run below
        assert prefetcher.recall_stats.answered >= 1

    def test_recall_improves_early_learning(self):
        trace = pointer_chase(PatternSpec(n=2000, working_set=150,
                                          element_size=4096, seed=3))
        cfg = SimConfig(memory_fraction=0.5)
        base = baseline_misses(trace, cfg)

        def run(recall: bool) -> float:
            prefetcher = CLSPrefetcher(CLSPrefetcherConfig(
                model="hebbian", vocab_size=256, encoder="page",
                hebbian=HebbianConfig(vocab_size=256, hidden_dim=300, seed=0),
                recall=recall, min_confidence=0.25))
            return simulate(trace, prefetcher, cfg).percent_misses_removed(base)

        assert run(True) > run(False) + 5.0

    def test_occupancy_reset_keeps_memory_usable(self):
        prefetcher = CLSPrefetcher(CLSPrefetcherConfig(
            model="hebbian", vocab_size=64, encoder="page",
            hebbian=HebbianConfig(vocab_size=64, hidden_dim=150, seed=0),
            recall=True, recall_occupancy_reset=0.05))
        for i in range(300):
            page = (i * 13) % 60
            prefetcher.on_miss(MissEvent(index=i, address=page * 4096,
                                         page=page, stream_id=0,
                                         timestamp=i * 100))
        assert prefetcher.recall_memory is not None
        assert prefetcher.recall_memory.occupancy() <= 0.2
