"""The hippocampal store (Figure 4's fast learner).

CLS theory's hippocampus does three things the paper leans on:

1. **Episodic storage** — quickly memorize experiences (here: encoded miss
   transitions) so they can be replayed into the slow learner later
   (§3.2).  :class:`EpisodicStore` holds those episodes, grouped by phase.
2. **Pattern separation** — store similar experiences under nearly
   orthogonal sparse codes so they do not overwrite one another [35, 36].
3. **Pattern completion** — recall a whole stored association from a
   partial or noisy cue.  :class:`SparseAssociativeMemory` implements both
   over k-sparse binary codes with a Willshaw-style binary weight matrix.

The paper deliberately defers a resource-bounded hippocampus ("we will
focus on showing the benefits of replay ... without resource limitations
on the hippocampal storage"), so the default store is unbounded; bounded
variants live in ``repro.core.replay``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import length_hint
from typing import Any, NamedTuple

import numpy as np

#: Draws :meth:`EpisodicStore.sample` spends per requested pick; the
#: array form of replay (``core/cls_fleet.py``) makes the same draws.
MAX_ATTEMPTS_PER_PICK = 8

#: Raw 32-bit draws :class:`LaneDraws` and :class:`RawDraws` take from a
#: generator at a time.  A refill costs about numpy's per-call overhead
#: whatever its length, so a block serves 64 replays of one pick (16 of
#: four).
_RAW_BLOCK = 512

#: The most draws one replay call on :class:`LaneDraws` may ask of a lane.
_MAX_ATTEMPTS = 128

_LOW32 = 0xFFFFFFFF


def bounded_draws(raws: Iterator[int], size: int, attempts: int
                  ) -> list[int]:
    """What ``Generator.integers(0, size, size=attempts)`` returns when
    ``raws`` is its bit generator's 32-bit stream (``size`` in
    ``[1, 2**32]``), taking from ``raws`` exactly the values numpy reads.

    For such a bound numpy draws by Lemire's method: ``size == 1``
    consumes nothing (the value is the offset); otherwise ``m = raw *
    size`` and the value is ``m >> 32``, unless the low half of ``m`` is
    below ``size``: then the draw is repeated while the low half is below
    ``(2**32 - size) % size``.  The one Python form of the mapping, run
    by :meth:`LaneDraws.draw_exact` and :meth:`RawDraws.integers` (the
    compiled form is ``draw_row`` in ``nn/backends/c_backend.py``).
    """
    if size == 1:
        return [0] * attempts
    out = []
    for raw in islice(raws, attempts):
        m = raw * size
        if m & _LOW32 < size:
            threshold = (2**32 - size) % size
            while m & _LOW32 < threshold:
                m = next(raws) * size
        out.append(m >> 32)
    return out


class Episode(NamedTuple):
    """One stored miss transition.

    Attributes:
        input_class: Encoded class of the earlier miss.
        target_class: Encoded class of the following miss.
        phase_id: Phase the transition was observed in (-1 = unknown).
        confidence: Model confidence on the target when stored (drives the
            confidence-filtered policies of §5.1/§5.4).
        timestamp: Logical time of the target miss.
    """

    input_class: int
    target_class: int
    phase_id: int = -1
    confidence: float = 0.0
    timestamp: int = 0


@dataclass
class EpisodicStore:
    """Episode storage, unbounded by default, FIFO-bounded when capped.

    Selection must stay O(1)-ish per miss (replay runs inside the miss
    path), so sampling with a phase exclusion uses bounded rejection
    sampling rather than materializing filtered pools.
    """

    capacity: int | None = None
    stored_total: int = 0
    evicted_total: int = 0

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self._episodes: deque[Episode] | list[Episode]
        # Parallel phase ids, so rejection sampling filters on plain ints
        # instead of touching Episode objects for rejected draws.
        self._phase_ids: deque[int] | list[int]
        # Per-phase occupancy, so sampling can recognize the
        # everything-excluded case without scanning any draws.
        self._phase_counts: dict[int, int] = {}
        if self.capacity is None:
            self._episodes = []
            self._phase_ids = []
        else:
            self._episodes = deque(maxlen=self.capacity)
            self._phase_ids = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._episodes)

    def store(self, episode: Episode) -> None:
        counts = self._phase_counts
        if self.capacity is not None and len(self._episodes) == self.capacity:
            self.evicted_total += 1
            old = self._phase_ids[0]  # the deques evict FIFO on append
            left = counts[old] - 1
            if left:
                counts[old] = left
            else:
                del counts[old]
        self._episodes.append(episode)
        self._phase_ids.append(episode.phase_id)
        counts[episode.phase_id] = counts.get(episode.phase_id, 0) + 1
        self.stored_total += 1

    def extend(self, episodes: Sequence[Episode]) -> None:
        """Bulk :meth:`store`: the same contents, counters and phase
        occupancy as storing each episode in order."""
        phases = [episode.phase_id for episode in episodes]
        evicted = 0
        if self.capacity is not None:
            evicted = max(0, len(self._episodes) + len(phases)
                          - self.capacity)
        counts = self._phase_counts
        for phase in phases:
            counts[phase] = counts.get(phase, 0) + 1
        # FIFO: the oldest go first, and a long batch evicts its own head.
        for phase in islice(chain(self._phase_ids, phases), evicted):
            left = counts[phase] - 1
            if left:
                counts[phase] = left
            else:
                del counts[phase]
        self._episodes.extend(episodes)
        self._phase_ids.extend(phases)
        self.stored_total += len(phases)
        self.evicted_total += evicted

    def telemetry_counters(self) -> dict[str, int | float]:
        """Named counters for the telemetry sink (ints: monotone; floats:
        gauges)."""
        return {
            "episodes_stored": self.stored_total,
            "episodes_evicted": self.evicted_total,
            "episodes_held": float(len(self._episodes)),
        }

    def episodes(self, phase_id: int | None = None) -> list[Episode]:
        if phase_id is None:
            return list(self._episodes)
        return [e for e in self._episodes if e.phase_id == phase_id]

    def phases(self) -> list[int]:
        return sorted({e.phase_id for e in self._episodes})

    def sample(self, rng: np.random.Generator | RawDraws, n: int,
               exclude_phase: int | None = None,
               max_attempts_per_pick: int = MAX_ATTEMPTS_PER_PICK
               ) -> list[Episode]:
        """Sample up to ``n`` episodes uniformly, rejecting one phase.

        Rejection attempts are bounded, so when nearly everything stored
        belongs to the excluded phase the call returns fewer episodes
        instead of stalling the miss path.  ``rng`` is a generator or a
        :class:`RawDraws` over one; either way the call makes the same
        one draw, ``integers(0, len(self), size=n * max_attempts_per_pick)``
        on the generator's stream, whatever it returns.
        """
        size = len(self._episodes)
        if size == 0 or n <= 0:
            return []
        # One draw of every attempt regardless of path, so the stream
        # (and therefore every selection) is identical to the rejection
        # loop's.
        attempts = n * max_attempts_per_pick
        if isinstance(rng, RawDraws):
            draws = rng.integers(size, attempts)
        else:
            draws = rng.integers(0, size, size=attempts).tolist()
        episodes = self._episodes
        if exclude_phase is None:
            # Nothing to reject: the first n draws are the picks.
            return [episodes[idx] for idx in draws[:n]]
        if self._phase_counts.get(exclude_phase, 0) == size:
            # Every stored episode is in the excluded phase, so the
            # rejection loop could only come up empty.  (The draw above
            # already happened, keeping the stream identical.)
            return []
        out: list[Episode] = []
        phase_ids = self._phase_ids
        for idx in draws:
            if phase_ids[idx] != exclude_phase:
                out.append(episodes[idx])
                if len(out) == n:
                    break
        return out


class RawDraws:
    """One generator's bounded draws, from a block of its raw stream.

    :meth:`integers` returns what ``rng.integers(0, size, size=attempts)``
    would, applying :func:`bounded_draws` to a block of raw 32-bit values
    that one ``integers(0, 2**32, size=512, dtype=uint32)`` call refills,
    instead of one ``Generator.integers`` call per draw: the scalar
    replay's draw (``ReplayScheduler`` hands one to
    :meth:`EpisodicStore.sample`), with the arithmetic the cohort's
    replay kernel applies to :class:`LaneDraws`' blocks.
    The block is taken at the first draw, so a drawer that never draws
    holds none.  The generator runs ahead of the draws by the unread part
    of the block; :meth:`sync` (which pickling calls) puts it back where
    per-call draws would have left it, for whoever reads it next.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        # The raws, block after block (None: no block taken since the
        # last sync), and the block being read with
        # ``bit_generator.state`` from before it was drawn.
        self._stream: Iterator[int] | None = None
        self._block: tuple[Iterator[int], dict[str, Any]] | None = None

    def __reduce__(self) -> tuple[type[RawDraws], tuple[np.random.Generator]]:
        return RawDraws, (self.sync(),)

    def _blocks(self) -> Iterator[Iterator[int]]:
        rng = self._rng
        while True:
            state = rng.bit_generator.state
            block = iter(rng.integers(0, 2**32, size=_RAW_BLOCK,
                                      dtype=np.uint32).tolist())
            self._block = block, state
            yield block

    def integers(self, size: int, attempts: int) -> list[int]:
        """``rng.integers(0, size, size=attempts)`` as a list (``size``
        at least 1)."""
        if size > 2**32:  # numpy's 64-bit path: let numpy draw it
            return self.sync().integers(0, size, size=attempts).tolist()
        stream = self._stream
        if stream is None:
            stream = self._stream = chain.from_iterable(self._blocks())
        return bounded_draws(stream, size, attempts)

    def sync(self) -> np.random.Generator:
        """The generator, advanced by exactly the raws the draws read
        (the unread rest of the block is dropped; the next draw takes a
        new one)."""
        if self._block is not None:
            block, state = self._block
            used = _RAW_BLOCK - length_hint(block)
            rng = self._rng
            rng.bit_generator.state = state
            if used:
                rng.integers(0, 2**32, size=used, dtype=np.uint32)
            self._stream = self._block = None
        return self._rng


class LaneDraws:
    """The raw blocks :meth:`EpisodicStore.sample`'s draws come from,
    for many generators.

    A draw is, per lane, the values ``rng.integers(0, size,
    size=attempts)`` would return on that lane's generator, and
    :meth:`detach` leaves the generator where those calls would have.
    It rests on how numpy draws a bounded integer: for a bound below
    2**32 ``Generator.integers`` is Lemire's rejection method over the
    bit generator's 32-bit stream (:func:`bounded_draws`), and
    ``integers(0, 2**32, dtype=uint32)`` hands out that stream as it is.
    So each lane keeps a block of raw draws (:meth:`blocks`, refilled by
    :meth:`ready`) and the cohort's replay kernel (``rk_heb_replay``)
    does the arithmetic over them, a whole round at a time, as the
    scalar replay's :class:`RawDraws` does it for one generator: a value
    is ``(raw * size) >> 32`` unless the low half of that product is
    below ``size``.

    A row with a candidate for rejection (about ``attempts * size / 2**32``
    of them) is handed back by the kernel and drawn value by value by
    :meth:`draw_exact`, and only then consumes more than ``attempts``
    raws.  The kernel's arithmetic alone is ``rk_lane_draws``;
    ``tests/core/test_hippocampus.py`` holds it and :meth:`draw_exact`
    against ``Generator.integers`` on the supported numpy range.
    """

    #: The most draws one call may ask of a lane.
    max_attempts = _MAX_ATTEMPTS

    def __init__(self, lanes: int) -> None:
        self._raws = np.zeros((lanes, _RAW_BLOCK), dtype=np.uint32)
        # Next unread raw of each block (``_RAW_BLOCK``: none left), and
        # the raws a lane has consumed since :meth:`attach`.
        self._at = np.full(lanes, _RAW_BLOCK, dtype=np.int64)
        self._used = np.zeros(lanes, dtype=np.int64)
        self._rngs: list[np.random.Generator | None] = [None] * lanes
        # ``bit_generator.state`` before a lane's first block.
        self._states: list[dict[str, Any] | None] = [None] * lanes

    def grow(self, lanes: int) -> None:
        """Make room for ``lanes`` lanes (attached lanes keep their state)."""
        extra = lanes - len(self._rngs)
        if extra <= 0:
            return
        self._raws = np.concatenate(
            [self._raws, np.zeros((extra, _RAW_BLOCK), dtype=np.uint32)])
        self._at = np.concatenate(
            [self._at, np.full(extra, _RAW_BLOCK, dtype=np.int64)])
        self._used = np.concatenate(
            [self._used, np.zeros(extra, dtype=np.int64)])
        self._rngs.extend([None] * extra)
        self._states.extend([None] * extra)

    def attach(self, lane: int, rng: np.random.Generator) -> None:
        """Draw lane ``lane`` from ``rng`` until :meth:`detach`; ``rng``
        must not be used in between."""
        if self._rngs[lane] is not None:
            raise ValueError(f"lane {lane} already has a generator")
        self._rngs[lane] = rng

    def detach(self, lane: int) -> None:
        """Give the lane's generator back, advanced by exactly the raws
        its draws consumed (a bit generator's buffered half-word
        included: the same 32-bit reads are made again)."""
        rng = self._rngs[lane]
        if rng is None:
            raise ValueError(f"lane {lane} has no generator")
        state = self._states[lane]
        if state is not None:
            rng.bit_generator.state = state
            used = int(self._used[lane])
            if used:
                rng.integers(0, 2**32, size=used, dtype=np.uint32)
        self._rngs[lane] = None
        self._states[lane] = None
        self._at[lane] = _RAW_BLOCK
        self._used[lane] = 0

    def _refill(self, lane: int) -> None:
        """Move the lane's unread raws to the front of its block and draw
        the rest of the block after them."""
        rng = self._rngs[lane]
        if rng is None:
            raise ValueError(f"lane {lane} has no generator")
        if self._states[lane] is None:
            self._states[lane] = rng.bit_generator.state
        block = self._raws[lane]
        at = int(self._at[lane])
        left = _RAW_BLOCK - at
        block[:left] = block[at:]
        block[left:] = rng.integers(0, 2**32, size=at, dtype=np.uint32)
        self._at[lane] = 0

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw blocks, each lane's next unread raw and the raws it has
        consumed — the arrays a kernel drawing in place advances."""
        return self._raws, self._at, self._used

    def ready(self, lanes: np.ndarray, attempts: int) -> None:
        """Refill the block of each of ``lanes`` that holds fewer than
        ``attempts`` unread raws."""
        short = (self._at[lanes] > _RAW_BLOCK - attempts).nonzero()[0]
        for lane in lanes[short].tolist():
            self._refill(lane)

    def _next_raw(self, lane: int) -> int:
        if self._at[lane] == _RAW_BLOCK:
            self._refill(lane)
        at = self._at[lane]
        self._at[lane] = at + 1
        self._used[lane] += 1
        return self._raws.item(lane, at)

    def draw_exact(self, lane: int, size: int, attempts: int) -> list[int]:
        """One lane's draw, value by value (numpy's own loop)."""
        return bounded_draws(iter(partial(self._next_raw, lane), None),
                             size, attempts)


class SparseAssociativeMemory:
    """Willshaw-style hetero-associative memory over k-sparse codes.

    Keys and values are sets of active unit indices (k-sparse binary
    vectors).  ``store`` ORs the outer product into a binary weight matrix;
    ``complete`` recalls the value units whose support from the cue clears
    a threshold — recovering the full stored value from a partial cue
    (pattern completion), while the sparse random codes keep distinct
    memories from colliding (pattern separation).
    """

    def __init__(self, key_dim: int, value_dim: int, value_k: int,
                 threshold_fraction: float = 0.5) -> None:
        if min(key_dim, value_dim, value_k) <= 0:
            raise ValueError("dimensions must be positive")
        if not 0 < threshold_fraction <= 1:
            raise ValueError("threshold_fraction must be in (0, 1]")
        self.key_dim = key_dim
        self.value_dim = value_dim
        self.value_k = value_k
        self.threshold_fraction = threshold_fraction
        self.weights = np.zeros((key_dim, value_dim), dtype=bool)
        self.stored = 0

    def store(self, key_active: np.ndarray, value_active: np.ndarray) -> None:
        key_active = np.asarray(key_active, dtype=np.int64)
        value_active = np.asarray(value_active, dtype=np.int64)
        self._check(key_active, self.key_dim, "key")
        self._check(value_active, self.value_dim, "value")
        self.weights[np.ix_(key_active, value_active)] = True
        self.stored += 1

    def complete(self, cue_active: np.ndarray) -> np.ndarray:
        """Recall the value code for a (possibly partial) key cue."""
        cue_active = np.asarray(cue_active, dtype=np.int64)
        self._check(cue_active, self.key_dim, "cue")
        if cue_active.size == 0:
            return np.zeros(0, dtype=np.int64)
        support = self.weights[cue_active].sum(axis=0)
        threshold = self.threshold_fraction * cue_active.size
        candidates = np.flatnonzero(support >= threshold)
        if candidates.size <= self.value_k:
            return candidates
        order = np.argsort(support[candidates])[::-1]
        return np.sort(candidates[order[: self.value_k]])

    def density(self) -> float:
        """Fraction of weights set — the memory's fill level."""
        return float(self.weights.mean())

    @staticmethod
    def _check(active: np.ndarray, dim: int, label: str) -> None:
        if active.size and (active.min() < 0 or active.max() >= dim):
            raise ValueError(f"{label} indices out of range [0, {dim})")
