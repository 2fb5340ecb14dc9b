"""Online phase detection (§5.4).

Replay needs phases: "another challenge in incorporating replay is to
define application phases so that they can be replayed."  The paper
suggests "identifying contexts or phases using clustering of abstract
representations learned by the network" [14].

:class:`OnlinePhaseDetector` implements a lightweight version: it clusters
*histogram signatures* of the feature stream (an abstract representation
of what the workload is doing) with an online leader-follower scheme — a
new signature joins the nearest centroid if the cosine similarity clears
a threshold, otherwise it founds a new phase.  Returning to an earlier
pattern re-activates the earlier phase id, which is exactly what
phase-aware replay needs.

Signatures are computed over *tumbling* (non-overlapping) windows, not
sliding ones.  A sliding window morphs gradually through a phase switch,
and any centroid-updating clusterer simply tracks the morphing signature
and never splits; tumbling windows jump discretely from one phase's
signature to the next, which the similarity threshold catches.

A window is fed one feature at a time through :meth:`observe`, or
collected by the caller and matched through
:meth:`OnlinePhaseDetector.close_window` — what ``observe`` does when
its window fills.  A cohort of CLS lanes (``core/cls_fleet.py``) keeps
every member's open window as a row of its lane arrays and calls a
lane's detector only when that row fills.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:  # repro-lint: disable=RL003 (exact-zero norm guard)
        return 0.0
    return float(a @ b) / (na * nb)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a float64 vector without its dispatch: for
    one it computes ``sqrt(v.dot(v))``, correctly rounded either way."""
    return math.sqrt(v.dot(v))


@dataclass
class OnlinePhaseDetector:
    """Leader-follower clustering of miss-class histograms.

    Attributes:
        vocab_size: Class vocabulary (histogram dimensionality).
        window: Misses per signature.
        similarity_threshold: Cosine similarity needed to join an existing
            phase; below it a new phase is created.
        update_rate: EMA rate for refreshing a matched centroid.
        max_phases: Hard cap; beyond it the nearest phase is reused.
    """

    vocab_size: int
    window: int = 64
    similarity_threshold: float = 0.8
    update_rate: float = 0.05
    max_phases: int = 32
    current_phase: int = field(default=-1, init=False)
    transitions: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.vocab_size <= 0 or self.window <= 0:
            raise ValueError("vocab_size and window must be positive")
        if not 0 < self.similarity_threshold < 1:
            raise ValueError("similarity_threshold must be in (0, 1)")
        self._recent: deque[int] = deque(maxlen=self.window)
        self._centroids: list[np.ndarray] = []

    @property
    def n_phases(self) -> int:
        return len(self._centroids)

    def observe(self, class_id: int) -> int:
        """Feed one feature; returns the current phase id.

        Phase ids start at 0; -1 is returned until the first signature
        window completes.  The phase id updates once per completed
        (tumbling) window and holds in between.
        """
        if not 0 <= class_id < self.vocab_size:
            raise ValueError(f"class {class_id} outside vocab")
        self._recent.append(class_id)
        if len(self._recent) < self.window:
            return self.current_phase

        window = np.fromiter(self._recent, dtype=np.int64, count=self.window)
        self._recent.clear()  # tumbling window: start fresh
        return self.close_window(window)

    def close_window(self, window: np.ndarray) -> int:
        """Match one completed window of features (``window`` of them,
        each inside the vocabulary) and move to its phase; returns the
        phase id.  What :meth:`observe` does when its window fills, for a
        caller that collects the features itself."""
        hist = np.bincount(window, minlength=self.vocab_size).astype(
            np.float64)
        total = hist.sum()
        phase = self._match(hist / total if total else hist)
        if phase != self.current_phase:
            self.transitions += 1
            self.current_phase = phase
        return phase

    def _match(self, signature: np.ndarray) -> int:
        if not self._centroids:
            self._centroids.append(signature.copy())
            return 0
        # cosine_similarity's arithmetic, the signature's norm taken once
        norm = _norm(signature)
        sims = []
        for centroid in self._centroids:
            c_norm = _norm(centroid)
            if norm == 0.0 or c_norm == 0.0:  # repro-lint: disable=RL003 (exact-zero norm guard)
                sims.append(0.0)
            else:
                sims.append(float(signature @ centroid) / (norm * c_norm))
        best = int(np.argmax(sims))
        if sims[best] >= self.similarity_threshold or len(self._centroids) >= self.max_phases:
            centroid = self._centroids[best]
            centroid += self.update_rate * (signature - centroid)
            return best
        self._centroids.append(signature.copy())
        return len(self._centroids) - 1
