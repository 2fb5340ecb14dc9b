"""The hippocampal store (Figure 4's fast learner).

CLS theory's hippocampus does three things the paper leans on:

1. **Episodic storage** — quickly memorize experiences (here: encoded miss
   transitions) so they can be replayed into the slow learner later
   (§3.2).  :class:`EpisodicStore` holds those episodes, tagged by phase,
   as int columns in the layout the replay kernel reads (one store is
   one lane of the cohort's episode slab), and :class:`LaneDraws` holds
   the raw random stream replay draws from — one generator per lane, a
   cohort's or a replay scheduler's.
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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Any, NamedTuple

import numpy as np

#: Draws :meth:`EpisodicStore.sample` spends per requested pick; the
#: replay kernel (``rk_heb_replay``) makes the same draws.
MAX_ATTEMPTS_PER_PICK = 8

#: An unbounded :class:`EpisodicStore`'s ring capacity: it never wraps.
UNBOUNDED = int(np.iinfo(np.int64).max)

#: Columns an :class:`EpisodicStore` starts with (doubled as it fills).
_COLUMNS = 16

#: An :class:`EpisodicStore`'s columns, in :class:`Episode` field order
#: (the cohort's episode slab has the same names, ``core/cls_fleet.py``).
EPISODE_COLUMNS = ("ep_input", "ep_target", "ep_phase", "ep_confidence",
                   "ep_timestamp")

#: Raw 32-bit draws :class:`LaneDraws` takes from a generator at a time.
#: A refill costs about numpy's per-call overhead whatever its length, so
#: a block serves 64 replays of one pick (16 of four).
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
    ``(2**32 - size) % size``.  The one Python form of the mapping value
    by value, run by :meth:`LaneDraws.draw_exact` (the compiled form is
    ``draw_row`` in ``nn/backends/c_backend.py``).
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

    The episodes are columns — ``ep_input`` / ``ep_target`` (int32),
    ``ep_phase``, ``ep_confidence``, ``ep_timestamp`` — in the layout the
    replay kernels read (``rk_heb_replay``, which the cohort runs over
    its episode slab and the scalar replay over these columns): of the
    ``ep_count[0]`` episodes ever written, the ``len(self)`` held are,
    oldest first, at ``(ep_count - len(self) + i) % ep_cap``.  A capped
    store's ``ep_cap`` is its capacity, a ring; an unbounded store's is
    :data:`UNBOUNDED`, so it never wraps.  The columns grow by doubling
    (to ``ep_cap`` at most), so they are replaced, not resized in place.
    :meth:`episodes`, :meth:`sample` and :meth:`extend` are views of them
    as :class:`Episode` records.

    Selection must stay O(1)-ish per miss (replay runs inside the miss
    path), so sampling with a phase exclusion uses bounded rejection
    sampling rather than materializing filtered pools.

    Its counters are ``ep_count`` read two ways (:attr:`stored_total`,
    :attr:`evicted_total`), so a writer of the columns — the compiled
    miss, ``rk_cls_miss`` — moves them by advancing the count.
    """

    capacity: int | None = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.ep_cap = UNBOUNDED if self.capacity is None else self.capacity
        self.ep_count = np.zeros(1, dtype=np.int64)
        self._count = memoryview(self.ep_count)
        width = min(self.ep_cap, _COLUMNS)
        self.ep_input = np.zeros(width, dtype=np.int32)
        self.ep_target = np.zeros(width, dtype=np.int32)
        self.ep_phase = np.zeros(width, dtype=np.int64)
        self.ep_confidence = np.zeros(width)
        self.ep_timestamp = np.zeros(width, dtype=np.int64)
        self._view()

    def __len__(self) -> int:
        return min(self._count[0], self.ep_cap)

    @property
    def stored_total(self) -> int:
        """Episodes ever stored."""
        return int(self._count[0])

    @property
    def evicted_total(self) -> int:
        """Episodes a capped store's ring has overwritten."""
        return max(0, int(self._count[0]) - self.ep_cap)

    def _view(self) -> None:
        # :meth:`append` writes through memoryviews: an element store
        # costs about half of numpy's there.
        self._views = tuple(memoryview(getattr(self, name))
                            for name in EPISODE_COLUMNS)

    def _fit(self, columns: int) -> None:
        """Make the columns at least ``columns`` wide (doubling)."""
        if columns <= self.ep_input.size:
            return
        width = min(self.ep_cap, max(columns, 2 * self.ep_input.size))
        for name in EPISODE_COLUMNS:
            old = getattr(self, name)
            new = np.zeros(width, dtype=old.dtype)
            new[:old.size] = old
            setattr(self, name, new)
        self._view()

    def store(self, episode: Episode) -> None:
        self.append(*episode)

    def append(self, input_class: int, target_class: int,
               phase_id: int = -1, confidence: float = 0.0,
               timestamp: int = 0) -> None:
        """:meth:`store` of that episode, written into the columns."""
        count = self._count[0]
        at = count % self.ep_cap
        if count < self.ep_cap and at == self.ep_input.size:
            self._fit(at + 1)
        inputs, targets, phases, confidences, timestamps = self._views
        inputs[at] = input_class
        targets[at] = target_class
        phases[at] = phase_id
        confidences[at] = confidence
        timestamps[at] = timestamp
        self._count[0] = count + 1

    def extend(self, episodes: Sequence[Episode]) -> None:
        """Bulk :meth:`store`: the same contents and counters as storing
        each episode in order."""
        if episodes:
            self.extend_columns(*map(np.asarray, zip(*episodes)))

    def extend_columns(self, *columns: np.ndarray,
                       written: int | None = None) -> None:
        """:meth:`extend` from columns, in :data:`EPISODE_COLUMNS` order.
        With ``written``, they are the last of that many episodes stored
        in order, the rest already overwritten (a cohort's ring that
        wrapped): those count as stored and evicted."""
        n = len(columns[0])
        written = n if written is None else written
        if not written:
            return
        count = self._count[0]
        cap = self.ep_cap
        # FIFO: the oldest go first, and a long batch evicts its own head.
        kept = min(n, cap)
        if count < cap:
            self._fit(min(count + written, cap))
        at = (count + written - kept + np.arange(kept)) % cap
        for name, values in zip(EPISODE_COLUMNS, columns):
            getattr(self, name)[at] = values[n - kept:]
        self._count[0] = count + written

    def telemetry_counters(self) -> dict[str, int | float]:
        """Named counters for the telemetry sink (ints: monotone; floats:
        gauges)."""
        return {
            "episodes_stored": self.stored_total,
            "episodes_evicted": self.evicted_total,
            "episodes_held": float(len(self)),
        }

    def episodes(self, phase_id: int | None = None) -> list[Episode]:
        size = len(self)
        at = (self._count[0] - size + np.arange(size)) % self.ep_cap
        if phase_id is not None:
            at = at[self.ep_phase[at] == phase_id]
        return list(map(Episode._make, zip(
            *(getattr(self, name)[at].tolist() for name in EPISODE_COLUMNS))))

    def phases(self) -> list[int]:
        return sorted({e.phase_id for e in self.episodes()})

    def sample(self, rng: np.random.Generator | LaneDraws, n: int,
               exclude_phase: int | None = None,
               max_attempts_per_pick: int = MAX_ATTEMPTS_PER_PICK
               ) -> list[Episode]:
        """Sample up to ``n`` episodes uniformly, rejecting one phase.

        Rejection attempts are bounded, so when nearly everything stored
        belongs to the excluded phase the call returns fewer episodes
        instead of stalling the miss path.  ``rng`` is a generator or a
        :class:`LaneDraws` whose lane 0 draws from one; either way the
        call makes the same one draw, ``integers(0, len(self),
        size=n * max_attempts_per_pick)`` on the generator's stream,
        whatever it returns, and the picks are the first ``n`` drawn
        episodes outside ``exclude_phase``.
        """
        size = len(self)
        if size == 0 or n <= 0:
            return []
        attempts = n * max_attempts_per_pick
        if isinstance(rng, LaneDraws):
            draws = rng.draw(0, size, attempts)
        else:
            draws = rng.integers(0, size, size=attempts).tolist()
        first = self._count[0] - size
        cap = self.ep_cap
        inputs, targets, phases, confidences, timestamps = (
            self.ep_input, self.ep_target, self.ep_phase, self.ep_confidence,
            self.ep_timestamp)
        picks: list[Episode] = []
        for draw in draws:
            at = (first + draw) % cap
            phase = phases.item(at)
            if phase != exclude_phase or exclude_phase is None:
                picks.append(Episode(inputs.item(at), targets.item(at),
                                     phase, confidences.item(at),
                                     timestamps.item(at)))
                if len(picks) == n:
                    break
        return picks


class LaneDraws:
    """The raw blocks :meth:`EpisodicStore.sample`'s draws come from,
    for one generator per lane: a cohort's lanes, or a
    ``ReplayScheduler``'s one.

    A draw is, per lane, the values ``rng.integers(0, size,
    size=attempts)`` would return on that lane's generator, and
    :meth:`sync` leaves the generator where those calls would have.
    It rests on how numpy draws a bounded integer: for a bound below
    2**32 ``Generator.integers`` is Lemire's rejection method over the
    bit generator's 32-bit stream (:func:`bounded_draws`), and
    ``integers(0, 2**32, dtype=uint32)`` hands out that stream as it is.
    So each lane keeps a block of raw draws (:meth:`blocks`, refilled by
    :meth:`ready`) and the replay kernel (``rk_heb_replay``) does the
    arithmetic over them — for a cohort a whole round at a time, for the
    scalar replay one lane at a time — and :meth:`draw` does it in numpy:
    a value is ``(raw * size) >> 32`` unless the low half of that product
    is below ``size``.

    A row with a candidate for rejection (about ``attempts * size / 2**32``
    of them) is handed back by the kernel and drawn value by value by
    :meth:`draw_exact`, and only then consumes more than ``attempts``
    raws.  The kernel's arithmetic alone is ``rk_lane_draws``;
    ``tests/core/test_hippocampus.py`` holds it and :meth:`draw_exact`
    against ``Generator.integers`` on the supported numpy range.
    """

    #: The most draws one kernel call may ask of a lane.
    max_attempts = _MAX_ATTEMPTS

    def __init__(self, lanes: int) -> None:
        self._raws = np.zeros((lanes, _RAW_BLOCK), dtype=np.uint32)
        # Next unread raw of each block (``_RAW_BLOCK``: none left), and
        # the raws a lane has consumed since :meth:`attach` or
        # :meth:`sync`.
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
        is read only through :meth:`sync` in between."""
        if self._rngs[lane] is not None:
            raise ValueError(f"lane {lane} already has a generator")
        self._rngs[lane] = rng

    def sync(self, lane: int = 0) -> np.random.Generator:
        """The lane's generator, advanced by exactly the raws its draws
        consumed (a bit generator's buffered half-word included: the same
        32-bit reads are made again).  The unread rest of the block is
        dropped; the next draw takes a new one."""
        rng = self._rngs[lane]
        if rng is None:
            raise ValueError(f"lane {lane} has no generator")
        state = self._states[lane]
        if state is not None:
            rng.bit_generator.state = state
            used = int(self._used[lane])
            if used:
                rng.integers(0, 2**32, size=used, dtype=np.uint32)
        self._states[lane] = None
        self._at[lane] = _RAW_BLOCK
        self._used[lane] = 0
        return rng

    def detach(self, lane: int) -> None:
        """Give the lane's generator back, synced (:meth:`sync`)."""
        self.sync(lane)
        self._rngs[lane] = None

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

    def ready_lane(self, lane: int, attempts: int) -> None:
        """:meth:`ready` for one lane."""
        if self._at.item(lane) > _RAW_BLOCK - attempts:
            self._refill(lane)

    def _next_raw(self, lane: int) -> int:
        if self._at[lane] == _RAW_BLOCK:
            self._refill(lane)
        at = self._at[lane]
        self._at[lane] = at + 1
        self._used[lane] += 1
        return self._raws.item(lane, at)

    def draw(self, lane: int, size: int, attempts: int) -> list[int]:
        """One lane's draw of ``integers(0, size, size=attempts)``
        (``size`` in ``[1, 2**32]``): ``rk_lane_draws``' arithmetic over
        the block, or :meth:`draw_exact` for a row it would hand back (or
        one longer than a block)."""
        if not 1 <= size <= 2**32:
            raise ValueError(f"a lane draws below bounds in [1, 2**32], "
                             f"not {size}")
        if size > 1 and attempts <= _RAW_BLOCK:
            at = self._at.item(lane)
            if at > _RAW_BLOCK - attempts:
                self._refill(lane)
                at = 0
            out = []
            for raw in self._raws[lane, at:at + attempts].tolist():
                m = raw * size
                if m & _LOW32 < size:
                    break
                out.append(m >> 32)
            else:
                self._at[lane] = at + attempts
                self._used[lane] = self._used.item(lane) + attempts
                return out
        return self.draw_exact(lane, size, attempts)

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

    ``weights`` changes only through ``store``, which counts the bits it
    newly sets, so :meth:`density` is that count over the matrix size —
    exactly ``weights.mean()``, without reading the matrix.
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
        self._bits_set = 0

    def store(self, key_active: np.ndarray, value_active: np.ndarray) -> None:
        key_active = np.asarray(key_active, dtype=np.int64)
        value_active = np.asarray(value_active, dtype=np.int64)
        self._check(key_active, self.key_dim, "key")
        self._check(value_active, self.value_dim, "value")
        # Distinct units, so each cell of the block is counted once.
        cells = np.ix_(np.unique(key_active), np.unique(value_active))
        block = self.weights[cells]
        self._bits_set += block.size - int(np.count_nonzero(block))
        self.weights[cells] = True
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

    @property
    def bits_set(self) -> int:
        """How many weights are set: it grows exactly when a store
        changes what the memory completes."""
        return self._bits_set

    def density(self) -> float:
        """Fraction of weights set — the memory's fill level."""
        return self._bits_set / self.weights.size

    @staticmethod
    def _check(active: np.ndarray, dim: int, label: str) -> None:
        if active.size and (active.min() < 0 or active.max() >= dim):
            raise ValueError(f"{label} indices out of range [0, {dim})")
