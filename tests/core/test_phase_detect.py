"""Tests for online phase detection (§5.4)."""

from __future__ import annotations

import pytest

from repro.core.phase_detect import OnlinePhaseDetector, cosine_similarity
import numpy as np


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0


class TestDetector:
    def make(self, **kwargs) -> OnlinePhaseDetector:
        defaults = dict(vocab_size=16, window=16, similarity_threshold=0.6)
        defaults.update(kwargs)
        return OnlinePhaseDetector(**defaults)

    def test_warmup_returns_unknown(self):
        det = self.make()
        assert det.observe(1) == -1

    def test_single_pattern_single_phase(self):
        det = self.make()
        for _ in range(60):
            det.observe(3)
        assert det.n_phases == 1
        assert det.current_phase == 0

    def test_pattern_switch_creates_new_phase(self):
        det = self.make()
        for _ in range(40):
            det.observe(1)
        for i in range(40):
            det.observe(8 + (i % 4))
        assert det.n_phases >= 2
        assert det.transitions >= 1

    def test_returning_pattern_reuses_phase(self):
        det = self.make()
        for _ in range(40):
            det.observe(1)
        first_phase = det.current_phase
        for i in range(40):
            det.observe(8 + (i % 4))
        for _ in range(40):
            det.observe(1)
        assert det.current_phase == first_phase

    def test_max_phases_cap(self):
        det = self.make(max_phases=2, window=8)
        for block in range(6):
            for _ in range(24):
                det.observe((block * 2) % 16)
        assert det.n_phases <= 2

    def test_rejects_out_of_vocab(self):
        with pytest.raises(ValueError):
            self.make().observe(99)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlinePhaseDetector(vocab_size=0)
        with pytest.raises(ValueError):
            OnlinePhaseDetector(vocab_size=4, similarity_threshold=1.0)

    def test_close_window_is_observe_at_a_full_window(self):
        """One stream fed feature by feature through ``observe`` and
        window by window through ``close_window``: the same phase after
        every window, and the same clusters at the end."""
        rng = np.random.default_rng(5)
        blocks = [rng.integers(0, 4, 50), 8 + rng.integers(0, 4, 70),
                  rng.integers(0, 4, 60), rng.integers(0, 16, 45)]
        stream = np.concatenate(blocks).tolist()
        fed, closed = self.make(), self.make()
        window: list[int] = []
        for feature in stream:
            phase = fed.observe(feature)
            window.append(feature)
            if len(window) == closed.window:
                assert closed.close_window(np.array(window)) == phase
                window.clear()
            assert closed.current_phase == phase
        assert list(fed._recent) == window
        assert fed.transitions == closed.transitions >= 2
        assert fed.n_phases == closed.n_phases >= 2
        for ours, theirs in zip(fed._centroids, closed._centroids):
            assert np.array_equal(ours, theirs)
