"""Stacked Hebbian stepping for groups of CLS lanes in a fleet cohort.

:class:`CLSFleetGroup` is the bridge between the cohort engine
(``memsim/fleet.py``) and the tenant-axis batched network
(``nn/hebbian_fleet.py``): same-config CLS lanes adopt their models into
one :class:`~repro.nn.hebbian_fleet.HebbianFleet` and, at each cohort
round, every stalled lane's miss flows through **one** stacked
step/replay/rollout call per group instead of L scalar
``on_miss_fast`` calls.

The per-miss pipeline is :class:`CLSPrefetcher`'s (DESIGN.md §5), and a
round keeps every within-lane ordering of the scalar composition
``CLSPrefetcher._ingest`` → ``_predict`` (cross-lane order is free:
lanes share no mutable state, and the prototype's memo caches are pure
memoization over fixed structures).  That is the bit-identity contract.
The stages around the three kernels come in two forms:

* **Stage methods** — the round calls ``observe`` / ``remember`` /
  ``replay`` / ``advance`` / ``gated`` / ``decode`` on each lane's own
  prefetcher.  Python per lane, nothing to set up.
* **Lane-state arrays** — the group holds the state those stages touch
  (:class:`_LaneArrays`: accuracy EMA, previous class, the replay store
  as a slab, the miss history as a ring, counters as deltas) the way
  ``HebbianFleet`` holds the weights, and a round is a fixed number of
  numpy calls; Python per lane is left only where the state is a
  per-lane object by nature (the encoder's vocabulary, the phase
  detector, ``_emit``'s candidate loop).  Replay's draws come from
  per-lane blocks of each generator's raw stream
  (:class:`~repro.core.hippocampus.LaneDraws`).  :meth:`release` hands
  everything back, so the prefetcher leaves the cohort exactly as
  ``simulate()`` would have left it.

A lane's state moves into the arrays the first time it takes part in a
round of at least ``_RESIDENT_MIN_LANES`` lanes (some sixty small numpy
calls cost more than a few lanes of stage methods); until then, and for
lanes whose state the arrays do not model (a recall memory, a replay
policy that is not an ``EpisodicStore``), the round calls the stage
methods.

Eligibility is decided by :meth:`CLSPrefetcher.fleet_steppable` and
grouping by :meth:`CLSPrefetcher.fleet_group_key`; ineligible lanes
keep the scalar per-miss path in the cohort.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..nn.hebbian import SparseHebbianNetwork
from ..nn.hebbian_fleet import HebbianFleet
from .cls_prefetcher import CLSPrefetcher, Observation, Rollout
from .hippocampus import (
    MAX_ATTEMPTS_PER_PICK,
    Episode,
    EpisodicStore,
    LaneDraws,
)
from .history import MissRecord
from .replay import (
    ConfidenceFilteredReplay,
    FullReplay,
    ReplayScheduler,
    RingBufferReplay,
)
from .sampling import TrainAlways

__all__ = ["CLSFleetGroup"]

#: A lane's state moves into the arrays in its first round of at least
#: this many lanes.  Measured, not an option: the two forms of a round
#: cross between 16 and 32 lanes (``core.cls_fleet.miss_us.n1``: the stage
#: methods win; ``.n100`` / ``.n1000``: the arrays win; DESIGN.md §6).
_RESIDENT_MIN_LANES = 24

#: Episode-slab columns a group starts with (doubled as stores fill).
_SLAB_COLUMNS = 16

#: "No capacity": an unbounded store's ring never wraps.
_UNBOUNDED = np.iinfo(np.int64).max

def _episodic_store(scheduler: ReplayScheduler) -> EpisodicStore | None:
    """The store a scheduler replays from, when its policy is one whose
    ``select`` is that store's ``sample`` (what the slab reproduces)."""
    policy = scheduler.policy
    if isinstance(policy, (FullReplay, RingBufferReplay,
                           ConfidenceFilteredReplay)):
        return policy.store
    return None


def _wider(old: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``old`` extended with zeros to ``shape`` (no axis shrinks)."""
    new = np.zeros(shape, dtype=old.dtype)
    new[tuple(slice(0, n) for n in old.shape)] = old
    return new


class _LaneArrays:
    """The per-miss state of array-resident lanes, indexed by fleet slot.

    :meth:`admit` moves a prefetcher's state in, :meth:`hand_back` moves
    it out again; in between the prefetcher's own copies are stale.
    Episodes are a slab row per lane used as a ring — logical episode
    ``i`` (0: oldest) of a store holding ``size`` of ``count`` written is
    at column ``(count - size + i) % capacity`` — and the miss history is
    a ring the same way.
    """

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        # Every array's first axis is the slot; a row means something
        # only while ``resident``, and :meth:`admit` writes all of it.
        self.resident = np.zeros(lanes, dtype=bool)
        # Stream position and self-monitoring.
        self.ema = np.zeros(lanes)                     # accuracy_ema
        self.prev = np.zeros(lanes, dtype=np.int64)    # _prev_class, -1: None
        self.scored = np.zeros(lanes, dtype=bool)      # _last_probs is set
        # The _ema_top memo — a lane's top-``width`` classes, -1 padded —
        # and whether it is of the lane's current ``_last_probs``.
        self.memo = np.zeros((lanes, 1), dtype=np.int64)
        self.memo_ok = np.zeros(lanes, dtype=bool)
        # Per-lane configuration.
        self.alpha = np.zeros(lanes)
        self.min_accuracy = np.zeros(lanes)
        self.width = np.zeros(lanes, dtype=np.int64)
        self.length = np.zeros(lanes, dtype=np.int64)
        self.region_shift = np.zeros(lanes, dtype=np.int64)
        self.train_always = np.zeros(lanes, dtype=bool)
        self.has_detector = np.zeros(lanes, dtype=bool)
        self.has_store = np.zeros(lanes, dtype=bool)
        self.threshold = np.zeros(lanes)      # store only below this confidence
        self.per_step = np.zeros(lanes, dtype=np.int64)
        self.lr_scale = np.zeros(lanes)
        # Counters, as deltas since admission.
        self.misses = np.zeros(lanes, dtype=np.int64)
        self.trained = np.zeros(lanes, dtype=np.int64)
        self.replayed = np.zeros(lanes, dtype=np.int64)
        self.suppressed = np.zeros(lanes, dtype=np.int64)
        self.invocations = np.zeros(lanes, dtype=np.int64)
        self.always = np.zeros(lanes, dtype=np.int64)  # TrainAlways' two counters
        self.detected = np.zeros(lanes, dtype=bool)    # the phase detector ran
        # The episode slab: episodes ever written to the row, how many of
        # them were copied in at admission, the ring capacity.
        self.ep_count = np.zeros(lanes, dtype=np.int64)
        self.ep_first = np.zeros(lanes, dtype=np.int64)
        self.ep_cap = np.zeros(lanes, dtype=np.int64)
        self.ep_input = np.zeros((lanes, 0), dtype=np.int32)
        self.ep_target = np.zeros((lanes, 0), dtype=np.int32)
        self.ep_phase = np.zeros((lanes, 0), dtype=np.int64)
        self.ep_confidence = np.zeros((lanes, 0))
        self.ep_timestamp = np.zeros((lanes, 0), dtype=np.int64)
        # (class, address, timestamp) of the latest misses.
        self.hist_count = np.zeros(lanes, dtype=np.int64)
        self.hist_cap = np.zeros(lanes, dtype=np.int64)
        self.history = np.zeros((lanes, 2, 3), dtype=np.int64)
        self.draws = LaneDraws(lanes)
        # Per-lane objects, by nature (slot -> bound method): the encoder,
        # the phase detector where there is one, the candidate loop.
        self.encode: dict[int, Callable[[int], int | None]] = {}
        self.detect: dict[int, Callable[[int], int]] = {}
        self.emit: dict[int, Callable[[Rollout, int, int, list[int]],
                                      list[int]]] = {}

    def grow(self, lanes: int) -> None:
        if lanes <= self.lanes:
            return
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(self, name,
                        _wider(value, (lanes, *value.shape[1:])))
        self.draws.grow(lanes)
        self.lanes = lanes

    def fit_episodes(self, columns: int) -> None:
        """Make the slab at least ``columns`` wide (doubling)."""
        have = self.ep_input.shape[1]
        if columns > have:
            shape = (self.lanes, max(columns, 2 * have, _SLAB_COLUMNS))
            self.ep_input = _wider(self.ep_input, shape)
            self.ep_target = _wider(self.ep_target, shape)
            self.ep_phase = _wider(self.ep_phase, shape)
            self.ep_confidence = _wider(self.ep_confidence, shape)
            self.ep_timestamp = _wider(self.ep_timestamp, shape)

    @staticmethod
    def covers(p: CLSPrefetcher, last_probs: np.ndarray) -> bool:
        """True when the arrays model everything the stages of ``p`` touch
        (``last_probs``: its fleet slot's row)."""
        if p.recall_memory is not None:
            return False
        scheduler = p.scheduler
        if scheduler is not None and (
                _episodic_store(scheduler) is None
                or (scheduler.per_step * MAX_ATTEMPTS_PER_PICK
                    > LaneDraws.max_attempts)):
            return False
        # The scored prediction is read from the fleet's row, so it has
        # to be the lane's own last step.
        scored = p._last_probs
        model = p.model
        assert isinstance(model, SparseHebbianNetwork)
        return scored is None or (model._last_scores is not None
                                  and np.array_equal(scored, last_probs))

    def admit(self, slot: int, p: CLSPrefetcher) -> None:
        """Move ``p``'s per-miss state into row ``slot``."""
        self.resident[slot] = True
        self.ema[slot] = p.accuracy_ema
        self.prev[slot] = -1 if p._prev_class is None else p._prev_class
        self.scored[slot] = p._last_probs is not None
        width = p._width
        have = self.memo.shape[1]
        if width > have:
            self.memo = _wider(self.memo, (self.lanes, width))
            self.memo[:, have:] = -1  # zero is a class
        memo = p._ema_top
        self.memo_ok[slot] = False
        if memo is not None and memo[0] is p._last_probs:
            self.memo[slot] = -1
            self.memo[slot, :len(memo[1])] = memo[1]
            self.memo_ok[slot] = True
        self.alpha[slot] = p._alpha
        self.min_accuracy[slot] = p._min_accuracy
        self.width[slot] = width
        self.length[slot] = p._length
        self.region_shift[slot] = p._region_shift
        self.train_always[slot] = type(p.training_policy) is TrainAlways
        detector = p.phase_detector
        self.has_detector[slot] = detector is not None
        for counter in (self.misses, self.trained, self.replayed,
                        self.suppressed, self.invocations, self.always,
                        self.detected):
            counter[slot] = 0

        scheduler = p.scheduler
        self.has_store[slot] = scheduler is not None
        self.per_step[slot] = 0
        self.ep_count[slot] = self.ep_first[slot] = 0
        if scheduler is not None:
            store = _episodic_store(scheduler)
            assert store is not None
            self.threshold[slot] = getattr(
                scheduler.policy, "confidence_threshold", np.inf)
            self.per_step[slot] = scheduler.per_step
            self.lr_scale[slot] = scheduler.lr_scale
            self.ep_cap[slot] = (_UNBOUNDED if store.capacity is None
                                 else store.capacity)
            held = store.episodes()
            if held:
                n = len(held)
                self.fit_episodes(n)
                columns = list(zip(*held))
                self.ep_input[slot, :n] = columns[0]
                self.ep_target[slot, :n] = columns[1]
                self.ep_phase[slot, :n] = columns[2]
                self.ep_confidence[slot, :n] = columns[3]
                self.ep_timestamp[slot, :n] = columns[4]
                self.ep_count[slot] = self.ep_first[slot] = n
            self.draws.attach(slot, scheduler._rng)

        history = p.history
        if history.capacity > self.history.shape[1]:
            self.history = _wider(self.history,
                                  (self.lanes, history.capacity, 3))
        self.hist_cap[slot] = history.capacity
        self.hist_count[slot] = 0

        self.encode[slot] = p._encoder_observe
        if detector is not None:
            self.detect[slot] = detector.observe
        self.emit[slot] = p._emit

    def hand_back(self, slot: int, p: CLSPrefetcher,  # repro-lint: zone=lane-release
                  last_probs: np.ndarray) -> None:
        """Move row ``slot`` back into its prefetcher ``p``: what a scalar
        run of the same misses would have left there (``last_probs``:
        the slot's fleet row).  The one place that writes a prefetcher's
        per-miss state from outside it — :meth:`admit`'s inverse."""
        p.accuracy_ema = self.ema.item(slot)
        prev = self.prev.item(slot)
        p._prev_class = prev if prev >= 0 else None
        p._last_probs = last_probs.copy() if self.scored[slot] else None
        p._ema_top = None
        if self.memo_ok[slot]:
            assert p._last_probs is not None
            top = self.memo[slot]
            p._ema_top = (p._last_probs, top[top >= 0].tolist())

        stats = p.stats
        stats.misses_seen += self.misses.item(slot)
        stats.trained_steps += self.trained.item(slot)
        replayed = self.replayed.item(slot)
        stats.replayed_pairs += replayed
        stats.suppressed_low_confidence += self.suppressed.item(slot)
        if self.detected[slot]:
            assert p.phase_detector is not None
            stats.phases_seen = p.phase_detector.n_phases
        if self.train_always[slot]:
            p.training_policy.considered += self.always.item(slot)
            p.training_policy.trained += self.always.item(slot)

        scheduler = p.scheduler
        if scheduler is not None:
            scheduler.invocations += self.invocations.item(slot)
            scheduler.replayed_total += replayed
            self.draws.detach(slot)
            store = _episodic_store(scheduler)
            assert store is not None
            count = self.ep_count.item(slot)
            fresh = count - self.ep_first.item(slot)
            cap = self.ep_cap.item(slot)
            kept = min(fresh, cap)
            at = np.arange(count - kept, count) % cap
            store.extend(list(map(
                Episode,
                self.ep_input[slot, at].tolist(),
                self.ep_target[slot, at].tolist(),
                self.ep_phase[slot, at].tolist(),
                self.ep_confidence[slot, at].tolist(),
                self.ep_timestamp[slot, at].tolist())))
            # A ring that wrapped within the residency overwrote these:
            # stored, and evicted again.
            store.stored_total += fresh - kept
            store.evicted_total += fresh - kept

        count = self.hist_count.item(slot)
        cap = self.hist_cap.item(slot)
        at = np.arange(count - min(count, cap), count) % cap
        push = p.history.push
        for class_id, address, timestamp in self.history[slot, at].tolist():
            push(MissRecord(class_id, address, timestamp))

        self.resident[slot] = False
        del self.encode[slot], self.emit[slot]
        self.detect.pop(slot, None)


class CLSFleetGroup:
    """Same-config CLS lanes stepped through one :class:`HebbianFleet`.

    Members adopt their live networks into fleet slots (:meth:`adopt`)
    and take them back, bit-identical, when their lane finishes
    (:meth:`release`); in between, :meth:`handle_misses` drives each
    cohort round's stalled-lane misses through the stacked path.
    """

    def __init__(self, prefetcher: CLSPrefetcher,
                 capacity: int = 16) -> None:
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        # The prototype contributes only fixed structures and memo
        # caches (reserve mode never reads its weights), so the first
        # member's model serves as-is.
        self._fleet = HebbianFleet(model, max(capacity, 1), reserve=True)
        self._members: dict[int, CLSPrefetcher] = {}
        self._member_ids: set[int] = set()
        self._state = _LaneArrays(self._fleet.n_lanes)
        # Members the arrays cover that have not been in a wide round yet.
        self._waiting: set[int] = set()
        self._n_resident = 0

    def reserve(self, lanes: int) -> None:
        """Capacity hint: ``lanes`` adoptions are coming (the constructor's
        ``capacity``, for a group that already exists)."""
        self._fleet.reserve(lanes)
        self._state.grow(self._fleet.n_lanes)

    def adopt(self, prefetcher: CLSPrefetcher) -> int:
        """Move a lane's model into the fleet; returns its slot."""
        if id(prefetcher) in self._member_ids:
            raise ValueError("prefetcher is already a member of this group")
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        slot = self._fleet.acquire_lane(model)
        self._state.grow(self._fleet.n_lanes)
        self._members[slot] = prefetcher
        self._member_ids.add(id(prefetcher))
        if _LaneArrays.covers(prefetcher, self._fleet.probs_rows[slot]):
            self._waiting.add(slot)
        return slot

    def release(self, slot: int, prefetcher: CLSPrefetcher) -> None:
        """Hand the slot's state back to the lane's own prefetcher."""
        if self._members.get(slot) is not prefetcher:
            raise ValueError(
                f"slot {slot} does not hold the prefetcher it is released to")
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        if self._state.resident[slot]:
            self._state.hand_back(slot, prefetcher,
                                  self._fleet.probs_rows[slot])
            self._n_resident -= 1
        self._fleet.release_lane(slot, model)
        del self._members[slot]
        self._member_ids.remove(id(prefetcher))
        self._waiting.discard(slot)

    def handle_misses(self, slots: list[int], addresses: list[int],
                      pages: list[int],
                      timestamps: list[int]) -> list[list[int]]:
        """One cohort round of misses, stacked; returns per-lane pages.

        ``slots[i]`` missed on ``addresses[i]`` (page ``pages[i]``) at
        ``timestamps[i]``; the result row ``i`` equals what
        ``on_miss_fast`` would have returned for that lane.
        """
        results: list[list[int]] = [[] for _ in slots]
        members = self._members
        if len(slots) >= _RESIDENT_MIN_LANES and self._waiting:
            for slot in self._waiting.intersection(slots):
                self._state.admit(slot, members[slot])
                self._waiting.remove(slot)
                self._n_resident += 1
        rows = range(len(slots))
        if not self._n_resident:
            self._stage_round(rows, slots, addresses, pages, timestamps,
                              results)
            return results
        resident = self._state.resident[slots]
        if resident.all():
            self._array_round(rows, slots, addresses, pages, timestamps,
                              results)
            return results
        for mine, round_of in ((resident, self._array_round),
                               (~resident, self._stage_round)):
            some = mine.nonzero()[0].tolist()
            if some:
                round_of(some, *_picked(some, slots, addresses, pages,
                                        timestamps), results)
        return results

    def _stage_round(self, rows: Sequence[int], slots: list[int],
                     addresses: list[int], pages: list[int],
                     timestamps: list[int],
                     results: list[list[int]]) -> None:
        """A round on the lanes' own stage methods; ``results[rows[i]]``
        is filled for ``slots[i]``."""
        fleet = self._fleet
        live: list[tuple[int, CLSPrefetcher, Observation]] = []
        for i, slot in enumerate(slots):
            p = self._members[slot]
            seen = p.observe(addresses[i], timestamps[i])
            if seen is None:
                continue  # scalar: _ingest returns False -> []
            p.remember(seen)
            live.append((i, p, seen))
        if not live:
            return

        lanes = [slots[i] for i, _, _ in live]
        probs = fleet.step_lanes(lanes,
                                 [seen.class_id for _, _, seen in live],
                                 [seen.train for _, _, seen in live])

        replay_lanes: list[int] = []
        replay_pairs: list[list[tuple[int, int]]] = []
        replay_scales: list[float] = []
        for j, (_, p, seen) in enumerate(live):
            if seen.train:
                pairs = p.replay(seen)
                if pairs:
                    assert p.scheduler is not None
                    replay_lanes.append(lanes[j])
                    replay_pairs.append(pairs)
                    replay_scales.append(p.scheduler.lr_scale)
            p.advance(seen, probs[j])
        if replay_lanes:
            fleet.train_pairs_lanes(replay_lanes, replay_pairs,
                                    replay_scales)

        rolling = [(lanes[j], i, p) for j, (i, p, _) in enumerate(live)
                   if not p.gated()]
        if rolling:
            rollouts = fleet.rollout_lanes(
                [lane for lane, _, _ in rolling],
                [p.config.prefetch_width for _, _, p in rolling],
                [p.config.prefetch_length for _, _, p in rolling])
            for (_, i, p), rollout in zip(rolling, rollouts):
                results[rows[i]] = p.decode(addresses[i], pages[i], rollout)

    def _array_round(self, rows: Sequence[int], slots: list[int],
                     addresses: list[int], pages: list[int],
                     timestamps: list[int],
                     results: list[list[int]]) -> None:
        """The same round on the lane-state arrays (every lane of
        ``slots`` is resident), stage by stage in scalar order."""
        s = self._state
        fleet = self._fleet
        idx = np.asarray(slots, dtype=np.intp)

        # observe: count, encode; lanes without a class stop here.
        s.misses[idx] += 1
        encode = s.encode
        classes = [encode[slot](address)
                   for slot, address in zip(slots, addresses)]
        if None in classes:
            keep = [i for i, c in enumerate(classes) if c is not None]
            if not keep:
                return
            rows = [rows[i] for i in keep]
            slots, addresses, pages, timestamps, classes = _picked(
                keep, slots, addresses, pages, timestamps, classes)
            idx = idx[keep]
        cls = np.asarray(classes, dtype=np.int64)
        address = np.asarray(addresses, dtype=np.int64)
        timestamp = np.asarray(timestamps, dtype=np.int64)

        # observe: the phase — a hint wins over the detector.
        members = self._members
        hints = [members[slot]._hinted_phase for slot in slots]
        features = ((address >> s.region_shift[idx])
                    % CLSPrefetcher._PHASE_FEATURE_BINS).tolist()
        detect = s.detect
        ran = s.has_detector[idx]
        if hints.count(None) == len(hints):
            phases = [-1 if (observe := detect.get(slot)) is None
                      else observe(feature)
                      for slot, feature in zip(slots, features)]
        else:
            phases = [hint if hint is not None
                      else -1 if (observe := detect.get(slot)) is None
                      else observe(feature)
                      for slot, feature, hint in zip(slots, features, hints)]
            ran = ran & np.array([hint is None for hint in hints])
        s.detected[idx[ran]] = True
        phase = np.asarray(phases, dtype=np.int64)

        # observe: score the prediction made for this miss.
        confidence = np.zeros(idx.size)
        scored = s.scored[idx].nonzero()[0]
        if scored.size:
            lanes = idx[scored]
            seen = cls[scored]
            probs_rows = fleet.probs_rows
            confidence[scored] = probs_rows[lanes, seen]
            covered = (s.memo[lanes] == seen[:, None]).any(axis=1)
            stale = (~s.memo_ok[lanes]).nonzero()[0]
            if stale.size:
                # No rollout partitioned these vectors (the lane was
                # gated): the scalar stage's own argpartition, row-wise.
                widths = s.width[lanes[stale]]
                for width in np.unique(widths).tolist():
                    some = stale[widths == width]
                    top = probs_rows[lanes[some]].argpartition(
                        -width, axis=1)[:, -width:]
                    covered[some] = (top == seen[some][:, None]).any(axis=1)
            alpha = s.alpha[lanes]
            s.ema[lanes] = (1 - alpha) * s.ema[lanes] + alpha * covered

        # observe: the training decision.
        prev = s.prev[idx]
        paired = prev >= 0
        train = paired & s.train_always[idx]
        s.always[idx[train]] += 1
        for i in (paired & ~s.train_always[idx]).nonzero()[0].tolist():
            train[i] = members[slots[i]]._should_train(confidence.item(i))

        # remember: one scatter into the slab.
        kept = (paired & s.has_store[idx]
                & (confidence < s.threshold[idx])).nonzero()[0]
        if kept.size:
            lanes = idx[kept]
            count = s.ep_count[lanes]
            at = count % s.ep_cap[lanes]
            s.fit_episodes(int(at.max()) + 1)
            s.ep_input[lanes, at] = prev[kept]
            s.ep_target[lanes, at] = cls[kept]
            s.ep_phase[lanes, at] = phase[kept]
            s.ep_confidence[lanes, at] = confidence[kept]
            s.ep_timestamp[lanes, at] = timestamp[kept]
            s.ep_count[lanes] = count + 1

        fleet.step_lanes(slots, classes, train.tolist())
        s.trained[idx[train]] += 1

        # replay: draw per lane, train in one call.
        replaying = (train & (s.per_step[idx] > 0)).nonzero()[0]
        if replaying.size:
            self._replay(idx[replaying], phase[replaying])

        # advance.
        s.scored[idx] = True
        s.prev[idx] = cls
        s.memo_ok[idx] = False
        count = s.hist_count[idx]
        s.history[idx, count % s.hist_cap[idx]] = np.stack(
            [cls, address, timestamp], axis=1)
        s.hist_count[idx] = count + 1

        # gate, rollout, decode.
        floor = s.min_accuracy[idx]
        gated = (floor > 0) & (s.ema[idx] < floor)
        s.suppressed[idx[gated]] += 1
        rolling = (~gated).nonzero()[0]
        if not rolling.size:
            return
        lanes = idx[rolling]
        rollouts = fleet.rollout_lanes(lanes.tolist(),
                                       s.width[lanes].tolist(),
                                       s.length[lanes].tolist())
        emit = s.emit
        for i, rollout in zip(rolling.tolist(), rollouts):
            results[rows[i]] = emit[slots[i]](rollout, addresses[i],
                                              pages[i], [])
        self._memoize(lanes, rollouts)

    def _replay(self, lanes: np.ndarray, phase: np.ndarray) -> None:
        """*Replay* for ``lanes``, which trained this round in ``phase``
        (below 0: no phase to exclude): :meth:`EpisodicStore.sample`'s
        draws and rejection per lane, then one ``train_pairs_lanes``."""
        s = self._state
        s.invocations[lanes] += 1
        count = s.ep_count[lanes]
        cap = s.ep_cap[lanes]
        size = np.minimum(count, cap)
        stocked = size > 0
        if not stocked.all():
            lanes, phase, count, cap, size = (
                a[stocked] for a in (lanes, phase, count, cap, size))
            if not lanes.size:
                return
        per_step = s.per_step[lanes]
        if (per_step == per_step[0]).all():
            groups: list[Any] = [slice(None)]
        else:
            groups = [(per_step == n).nonzero()[0]
                      for n in np.unique(per_step).tolist()]
        replay_lanes: list[int] = []
        replay_pairs: list[list[tuple[int, int]]] = []
        for sel in groups:
            some = lanes[sel]
            n = int(per_step[sel][0])
            each = some[:, None]
            draws = s.draws.draw(some, size[sel], n * MAX_ATTEMPTS_PER_PICK)
            at = (((count[sel] - size[sel])[:, None] + draws)
                  % cap[sel][:, None])
            exclude = phase[sel][:, None]
            wanted = (s.ep_phase[each, at] != exclude) | (exclude < 0)
            picked = wanted & (wanted.cumsum(axis=1) <= n)
            picks = picked.sum(axis=1)
            lane_of = np.broadcast_to(each, picked.shape)[picked]
            column = at[picked]
            flat = list(zip(s.ep_input[lane_of, column].tolist(),
                            s.ep_target[lane_of, column].tolist()))
            s.replayed[some] += picks
            ends = picks.cumsum().tolist()
            for lane, lo, hi in zip(some.tolist(), [0, *ends], ends):
                if hi > lo:
                    replay_lanes.append(lane)
                    replay_pairs.append(flat[lo:hi])
        if replay_lanes:
            self._fleet.train_pairs_lanes(
                replay_lanes, replay_pairs,
                s.lr_scale[replay_lanes].tolist())

    def _memoize(self, lanes: np.ndarray, rollouts: list[Rollout]) -> None:
        """*Decode*'s memo: each rollout's first step names the top-width
        classes of the lane's new ``_last_probs``."""
        s = self._state
        firsts = [rollout[0] if rollout else () for rollout in rollouts]
        lens = np.fromiter(map(len, firsts), dtype=np.int64,
                           count=len(firsts))
        total = int(lens.sum())
        top = np.fromiter((c for first in firsts for c, _ in first),
                          dtype=np.int64, count=total)
        s.memo[lanes] = -1
        starts = lens.cumsum() - lens
        s.memo[lanes.repeat(lens), np.arange(total) - starts.repeat(lens)] = top
        s.memo_ok[lanes] = lens > 0


def _picked(keep: list[int], *lists: list[Any]) -> tuple[list[Any], ...]:
    """Each of ``lists`` at the positions ``keep``."""
    return tuple([values[i] for i in keep] for values in lists)
