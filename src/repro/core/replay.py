"""Interleaved replay (§3.2) and its storage/selection variants (§5.4).

The paper's protocol: after each training/inference step on the *new*
pattern, retrain the network on stored examples of *old* patterns with a
0.1x smaller learning rate.  That interleaving is what prevents
catastrophic interference (Figure 3 d-f).

:class:`ReplayScheduler` runs that protocol.  Its replay is written once:
for a policy that samples an :class:`~repro.core.hippocampus.EpisodicStore`
on a compiled Hebbian network, a step is one call of the replay kernel the
cohort runs (``rk_heb_replay``, here on one lane) over the store's columns;
elsewhere ``EpisodicStore.sample`` draws the same values from the same raw
stream, and the model trains on what it picks.

§5.4 lays out the design space for making replay affordable; each point in
it is a :class:`ReplayPolicy` here:

- :class:`FullReplay` — store everything, sample uniformly (the paper's
  experimental setting: "we assumed that we could store all past
  examples").
- :class:`RingBufferReplay` — fixed-size buffer, oldest evicted.
- :class:`ConfidenceFilteredReplay` — only store examples the model was
  *unsure* about; well-learned cases carry little information.
- :class:`PrototypeReplay` — "average similar examples, producing single
  representative cases": dedupe transitions, weight by frequency.
- :class:`GenerativeReplay` — no storage at all: replay sequences the
  model itself generates (hindsight/simulation replay), trading compute
  for memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Protocol, cast

import numpy as np

from ..nn.backends import c_backend
from ..nn.base import SequenceModel
from .hippocampus import MAX_ATTEMPTS_PER_PICK, Episode, EpisodicStore, LaneDraws

#: The paper's replay learning-rate scale (§3.2: "0.1x smaller").
REPLAY_LR_SCALE = 0.1


class ReplayPolicy(Protocol):
    """Decides what enters hippocampal storage and what gets replayed."""

    name: str

    def record(self, episode: Episode) -> None:
        """Offer a new episode for storage."""
        ...

    def select(self, rng: np.random.Generator, batch: int,
               exclude_phase: int | None = None) -> list[Episode]:
        """Pick up to ``batch`` episodes to replay.  ``exclude_phase``
        skips the phase currently being learned (replaying the current
        pattern is ordinary training, not interleaving)."""
        ...

    def storage_size(self) -> int:
        """Episodes currently held (the §5.4 storage-cost axis)."""
        ...


@dataclass
class FullReplay:
    """Store every episode; sample uniformly from old phases."""

    name: str = "full"
    store: EpisodicStore = field(default_factory=EpisodicStore)

    def record(self, episode: Episode) -> None:
        self.store.store(episode)

    def select(self, rng: np.random.Generator, batch: int,
               exclude_phase: int | None = None) -> list[Episode]:
        return self.store.sample(rng, batch, exclude_phase=exclude_phase)

    def storage_size(self) -> int:
        return len(self.store)


@dataclass
class RingBufferReplay:
    """Fixed-capacity buffer; §5.4 warns it "could lose important
    information as entries are evicted" — the ablation quantifies that."""

    capacity: int = 256
    name: str = "ring"
    store: EpisodicStore = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self.store = EpisodicStore(capacity=self.capacity)

    def record(self, episode: Episode) -> None:
        self.store.store(episode)

    def select(self, rng: np.random.Generator, batch: int,
               exclude_phase: int | None = None) -> list[Episode]:
        return self.store.sample(rng, batch, exclude_phase=exclude_phase)

    def storage_size(self) -> int:
        return len(self.store)


@dataclass
class ConfidenceFilteredReplay:
    """Store only low-confidence (information-carrying) episodes (§5.4).

    Attributes:
        confidence_threshold: Episodes the model already predicted with at
            least this confidence are not stored — they are consolidated.
    """

    confidence_threshold: float = 0.9
    name: str = "confidence"
    store: EpisodicStore = field(default_factory=EpisodicStore)

    def record(self, episode: Episode) -> None:
        if episode.confidence < self.confidence_threshold:
            self.store.store(episode)

    def select(self, rng: np.random.Generator, batch: int,
               exclude_phase: int | None = None) -> list[Episode]:
        return self.store.sample(rng, batch, exclude_phase=exclude_phase)

    def storage_size(self) -> int:
        return len(self.store)


@dataclass
class PrototypeReplay:
    """Average similar examples into single representative cases (§5.4).

    Transitions are exact duplicates of one another in our encoded space,
    so "averaging" is deduplication with a frequency weight; selection
    samples proportional to frequency so replay pressure mirrors the
    original distribution at a fraction of the storage.
    """

    name: str = "prototype"

    def __post_init__(self) -> None:
        # Prototypes live in insertion-ordered parallel arrays (counts,
        # phases) plus a key -> slot map, so selection filters and weighs
        # with array ops instead of rebuilding per-key Python lists.  The
        # insertion order matches the old dict iteration order, and counts
        # are exact small integers in float64, so the normalized weights —
        # and therefore every ``rng.choice`` draw — are unchanged bit for
        # bit.
        self._index: dict[tuple[int, int, int], int] = {}
        self._meta: list[Episode] = []
        self._counts = np.zeros(64, dtype=np.float64)
        self._phases = np.zeros(64, dtype=np.int64)

    def record(self, episode: Episode) -> None:
        key = (episode.input_class, episode.target_class, episode.phase_id)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._meta)
            if idx == self._counts.size:  # amortized doubling
                self._counts = np.concatenate(
                    [self._counts, np.zeros_like(self._counts)])
                self._phases = np.concatenate(
                    [self._phases, np.zeros_like(self._phases)])
            self._index[key] = idx
            self._meta.append(episode)
            self._phases[idx] = episode.phase_id
            self._counts[idx] = 1.0
        else:
            self._counts[idx] += 1.0

    def select(self, rng: np.random.Generator, batch: int,
               exclude_phase: int | None = None) -> list[Episode]:
        filled = len(self._meta)
        if not filled:
            return []
        counts = self._counts[:filled]
        if exclude_phase is None:
            pool = None
            weights = counts
        else:
            pool = np.flatnonzero(self._phases[:filled] != exclude_phase)
            if not pool.size:
                return []
            weights = counts[pool]
        weights = weights / weights.sum()
        picks = rng.choice(weights.size, size=batch, p=weights)
        meta = self._meta
        if pool is None:
            return [meta[int(i)] for i in picks]
        return [meta[int(pool[i])] for i in picks]

    def storage_size(self) -> int:
        return len(self._meta)


@dataclass
class ConsolidatingReplay:
    """Free episodes once replay has consolidated them (§5.4).

    "A more principled approach could save space by ... freeing entries
    that have already been consolidated due to replay, thus not needed
    further learning."  Episodes whose pre-update model confidence at
    replay time reaches ``consolidated_above`` are discarded from storage;
    the store shrinks as the neocortex absorbs its contents.
    """

    consolidated_above: float = 0.9
    name: str = "consolidating"
    consolidated_total: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.consolidated_above <= 1:
            raise ValueError("consolidated_above must be in (0, 1]")
        self._episodes: list[Episode] = []

    def record(self, episode: Episode) -> None:
        self._episodes.append(episode)

    def select(self, rng: np.random.Generator, batch: int,
               exclude_phase: int | None = None) -> list[Episode]:
        pool_indices = [i for i, e in enumerate(self._episodes)
                        if exclude_phase is None or e.phase_id != exclude_phase]
        if not pool_indices:
            return []
        picks = rng.integers(0, len(pool_indices), size=batch)
        return [self._episodes[pool_indices[int(i)]] for i in picks]

    def on_replayed(self, episode: Episode, confidence: float) -> None:
        """Scheduler feedback: free the episode if it is consolidated."""
        if confidence >= self.consolidated_above:
            try:
                self._episodes.remove(episode)
                self.consolidated_total += 1
            except ValueError:  # repro-lint: disable=RL007
                pass  # already freed by an earlier replay of a duplicate

    def storage_size(self) -> int:
        return len(self._episodes)


@dataclass
class GenerativeReplay:
    """Hindsight/simulation replay (§5.4): zero storage.

    Replays sequences the model itself generates: roll the model forward
    from a seed class it has seen, and train on its own (confident)
    predictions, reinforcing existing behaviour instead of recalling
    stored episodes.  Seed classes are the only state kept (one int per
    distinct class, not per example).
    """

    min_confidence: float = 0.5
    rollout_length: int = 4
    name: str = "generative"
    _seed_classes: dict[int, int] = field(default_factory=dict, repr=False)

    def record(self, episode: Episode) -> None:
        self._seed_classes[episode.input_class] = episode.phase_id

    def select(self, rng: np.random.Generator, batch: int,
               exclude_phase: int | None = None) -> list[Episode]:
        """Generative replay has no stored episodes to select."""
        del rng, batch, exclude_phase
        return []

    def generate(self, model: SequenceModel, rng: np.random.Generator,
                 batch: int, exclude_phase: int | None = None
                 ) -> list[tuple[int, int]]:
        """Produce (input, target) pairs from the model's own rollouts."""
        seeds = [c for c, p in self._seed_classes.items()
                 if exclude_phase is None or p != exclude_phase]
        if not seeds:
            return []
        pairs: list[tuple[int, int]] = []
        for _ in range(batch):
            seed = seeds[int(rng.integers(0, len(seeds)))]
            probe = model.clone()
            probe.reset_state()
            current = seed
            for _ in range(self.rollout_length):
                probs = probe.step(current, train=False)
                nxt = int(np.argmax(probs))
                if probs[nxt] < self.min_confidence:
                    break
                pairs.append((current, nxt))
                current = nxt
        return pairs

    def storage_size(self) -> int:
        return len(self._seed_classes)


@dataclass
class ReplayScheduler:
    """Drives interleaved replay around ordinary training (§3.2).

    After every new-pattern training step, call :meth:`step`: the scheduler
    asks the policy for old episodes and retrains the model on them at
    ``lr_scale`` (0.1x by default, the paper's setting).

    Its sampling generator, seeded by ``seed``, is lane 0 of :attr:`draws`,
    a one-lane :class:`~repro.core.hippocampus.LaneDraws`.  A policy that
    samples its store (:attr:`store`) draws from blocks of the generator's
    raw stream: on a compiled Hebbian network the whole replay — draw,
    picks, their training — is one ``rk_heb_replay_one`` call over the
    store's columns (the cohort's replay kernel on one lane), elsewhere
    :meth:`EpisodicStore.sample` draws and the model trains on what it
    returns.  Any other policy gets the generator itself, synced to where
    per-call draws would have left it.  Whoever else reads the generator
    takes it from ``draws.sync()``.

    Attributes:
        policy: Storage/selection policy.
        per_step: Episodes replayed per new training step.
        lr_scale: Replay learning-rate scale (finite, >= 0).
        seed: Sampling seed.
    """

    policy: ReplayPolicy
    per_step: int = 1
    lr_scale: float = REPLAY_LR_SCALE
    seed: int = 0
    replayed_total: int = 0
    invocations: int = 0

    def __post_init__(self) -> None:
        if self.per_step < 0:
            raise ValueError("per_step must be >= 0")
        if not (math.isfinite(self.lr_scale) and self.lr_scale >= 0):
            raise ValueError("lr_scale must be finite and >= 0")
        self.draws = LaneDraws(1)
        self.draws.attach(0, np.random.default_rng(self.seed))
        # Per-step invariants of the policy, hoisted off the per-miss path.
        policy = self.policy
        #: The store whose :meth:`EpisodicStore.sample` is the policy's
        #: ``select``, if it has one (what the replay kernel reads).
        self.store = (policy.store if isinstance(
            policy, (FullReplay, RingBufferReplay, ConfidenceFilteredReplay))
            else None)
        # ... which remembers below this confidence (None: everything).
        self._threshold: float | None = getattr(
            policy, "confidence_threshold", None)
        self._attempts = self.per_step * MAX_ATTEMPTS_PER_PICK
        # The replay kernel serves a sampled store within a block's
        # attempts; its context is bound at the first call (None before).
        self._kernel = (self.store is not None
                        and self._attempts <= LaneDraws.max_attempts)
        self._ring: c_backend.CReplay | None = None
        # The model the last step replayed into, and its ``replay_ring``
        # over the ring when the kernel serves it (else None): bound when
        # the model changes, not per step.
        self._bound: object = None
        self._ring_replay: Any = None
        self._generate = (policy.generate
                          if isinstance(policy, GenerativeReplay) else None)
        self._on_replayed = getattr(policy, "on_replayed", None)
        self._select = policy.select

    def record(self, episode: Episode) -> None:
        self.policy.record(episode)

    def remember(self, input_class: int, target_class: int, phase_id: int,
                 confidence: float, timestamp: int) -> None:
        """:meth:`record` of that episode, into a sampled store's columns
        without building it."""
        store = self.store
        if store is None:
            self.policy.record(Episode(input_class, target_class, phase_id,
                                       confidence, timestamp))
        elif self._threshold is None or confidence < self._threshold:
            store.append(input_class, target_class, phase_id, confidence,
                         timestamp)

    def step(self, model: SequenceModel, current_phase: int | None = None) -> int:
        """Run one interleaving round; returns the number of replayed pairs."""
        if self.per_step == 0:
            return 0
        self.invocations += 1
        count = 0
        if self._generate is not None:
            pairs = self._generate(model, self.draws.sync(), self.per_step,
                                   exclude_phase=current_phase)
            for input_class, target_class in pairs:
                model.train_pair(input_class, target_class, lr_scale=self.lr_scale)
                count += 1
        elif ((self._ring_replay if model is self._bound
               else self._bind(model)) is not None
              and (current_phase is None or current_phase >= 0)):
            # The store's sample and its training: one kernel call, on
            # the store's columns (replaced when the store grows).
            ring, store = self._ring, self.store
            assert ring is not None and store is not None
            if ring.columns is not store.ep_input:
                ring.point(store.ep_input, store.ep_target, store.ep_phase)
            phase = -1 if current_phase is None else current_phase
            count = self._ring_replay(phase, self.lr_scale)
            if count is None:
                count = self._redraw(phase)
        else:
            episodes = self._episodes(current_phase)
            if not episodes:
                return 0
            on_replayed = self._on_replayed
            if on_replayed is None and getattr(
                    model, "train_pairs_sequential_equivalent", False):
                # Batch through train_pairs: the per-pair confidences would
                # be discarded anyway, and the model guarantees the batch
                # matches the sequential loop bit for bit.
                model.train_pairs(
                    [(e.input_class, e.target_class) for e in episodes],
                    lr_scale=self.lr_scale)
                count = len(episodes)
            else:
                for episode in episodes:
                    confidence = model.train_pair(episode.input_class,
                                                  episode.target_class,
                                                  lr_scale=self.lr_scale)
                    if on_replayed is not None:
                        on_replayed(episode, confidence)
                    count += 1
        self.replayed_total += count
        return count

    def _bind(self, model: SequenceModel) -> Any:
        """Make ``model`` the one :meth:`step` replays into: its
        ``replay_ring`` over this scheduler's ring (bound once) when the
        kernel serves it, else None."""
        self._bound = model
        self._ring_replay = None
        if self._kernel and getattr(model, "compiled", False):
            store = self.store
            assert store is not None
            if self._ring is None:
                self._ring = c_backend.bind_replay(
                    self.draws.blocks(), store.ep_count, store.ep_cap,
                    self._attempts, self.per_step)
            self._ring_replay = partial(
                cast(Any, model).replay_ring, self._ring)
        return self._ring_replay

    def _redraw(self, phase: int) -> int:
        """The kernel replay of a draw it could not make: after refilling
        a short raw block, and for a row that needs numpy's rejection
        loop, with that row drawn here, value by value."""
        ring, store, draws = self._ring, self.store, self.draws
        assert ring is not None and store is not None
        if ring.n_redo.item(0) < 0:
            draws.ready_lane(0, self._attempts)
            count = self._ring_replay(phase, self.lr_scale)
            if count is not None:
                return int(count)
        ring.values[:] = draws.draw_exact(0, len(store), self._attempts)
        return int(self._ring_replay(phase, self.lr_scale, False))

    def _episodes(self, current_phase: int | None) -> list[Episode]:
        """The policy's pick of up to ``per_step`` episodes: its store's
        ``sample`` on the raw block, or its ``select`` on the generator."""
        store = self.store
        if store is not None:
            return store.sample(self.draws, self.per_step, current_phase)
        return self._select(self.draws.sync(), self.per_step,
                            exclude_phase=current_phase)

    def select_pairs(self,
                     current_phase: int | None = None
                     ) -> list[tuple[int, int]]:
        """The fleet-path split of :meth:`step`: same bookkeeping, same
        RNG draws, but the *caller* applies the training.

        Valid only for policies the batched fleet path accepts —
        non-generative, no ``on_replayed`` hook — on models whose
        ``train_pairs`` is sequential-equivalent: under those conditions
        ``step`` reduces to ``model.train_pairs(select_pairs(...))``, so
        handing the pairs out lets a fleet fuse the training across
        lanes while every counter and every RNG draw stays identical.
        """
        if self._generate is not None or self._on_replayed is not None:
            raise ValueError("select_pairs requires a non-generative "
                             "policy without an on_replayed hook")
        if self.per_step == 0:
            return []
        self.invocations += 1
        episodes = self._episodes(current_phase)
        if not episodes:
            return []
        self.replayed_total += len(episodes)
        return [(e.input_class, e.target_class) for e in episodes]

    def telemetry_counters(self) -> dict[str, int | float]:
        """Named counters for the telemetry sink (ints: monotone; floats:
        gauges)."""
        counters: dict[str, int | float] = {
            "replay_invocations": self.invocations,
            "replay_pairs": self.replayed_total,
        }
        store = getattr(self.policy, "store", None)
        if isinstance(store, EpisodicStore):
            counters.update(store.telemetry_counters())
        return counters


def make_replay_policy(kind: str, **kwargs: Any) -> ReplayPolicy:
    """Factory over the §5.4 design space."""
    policies = {
        "full": FullReplay,
        "ring": RingBufferReplay,
        "confidence": ConfidenceFilteredReplay,
        "prototype": PrototypeReplay,
        "consolidating": ConsolidatingReplay,
        "generative": GenerativeReplay,
    }
    try:
        factory = policies[kind]
    except KeyError:
        raise ValueError(
            f"unknown replay policy {kind!r}; expected one of {sorted(policies)}"
        ) from None
    return factory(**kwargs)
