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

A group runs on the compiled kernels alone (backend ``"c"``): its
fleet's step, rollout and replay are lane loops of ``c_backend``'s
Hebbian kernels, and the cohort that schedules it needs the compiled
simulator kernels anyway.  A lane whose model resolves to another
backend keeps its own ``on_miss_fast`` in the cohort.

A round has one form, at every width.  While a lane is a member, the
group holds the state its stages touch (:class:`_LaneArrays`: accuracy
EMA, previous class, the delta encoder's vocabulary as a table row, the
replay store as a slab, counters as deltas)
the way ``HebbianFleet`` holds the weights, and a round is a fixed
number of numpy calls from the misses coming in to the pages going out;
Python per lane is left only where the state is a per-lane object by
nature: the phase hint, and a phase detector's clustering, which runs
when a lane's window of features (a row of the arrays) fills.  Replay's
draws come from per-lane blocks of each generator's raw stream
(:class:`~repro.core.hippocampus.LaneDraws`), and one kernel call draws,
picks and trains the round's replay (``HebbianFleet.replay_rings``).
:meth:`CLSFleetGroup.adopt`
moves a lane's state in, :meth:`CLSFleetGroup.release_many` hands it all
back, so the prefetcher leaves the cohort exactly as ``simulate()`` would
have left it.

A round's seams are arrays as well (:meth:`CLSFleetGroup.miss_round`):
the misses come in as four columns, and the pages go out as one ragged
pair ``(pages, owner)`` — ``pages[k]`` is a prefetch of the round's row
``owner[k]``, rows ascending, a row's pages in the order
``on_miss_fast`` would have listed them.  :meth:`handle_misses` is the
same round on lists.

Who may be a member, and of which group, is decided here alone, by
:meth:`CLSFleetGroup.group_key`: ``None`` for a lane the model kernels
or the lane-state arrays cannot step (it keeps the scalar per-miss path
in the cohort), else every value a round reads as configuration — the
model's config and each stage's setting.  A group holds
one key, so a round reads its configuration as scalars, and the arrays
hold only what differs between lanes: their per-miss state.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, NamedTuple, TypeGuard

import numpy as np

from ..nn.hebbian import HebbianConfig, SparseHebbianNetwork
from ..nn.hebbian_fleet import HebbianFleet
from .cls_prefetcher import CLSPrefetcher, arrays_model
from .encoding import DeltaVocabEncoder
from .hippocampus import EPISODE_COLUMNS, MAX_ATTEMPTS_PER_PICK, LaneDraws
from .sampling import TrainAlways

__all__ = ["CLSFleetGroup"]

#: Episode-slab columns a group starts with (doubled as stores fill).
_SLAB_COLUMNS = 16

#: A round's column: what the cohort gathers, or what a caller listed.
Column = Sequence[int] | np.ndarray

#: A round, or a part of one, that prefetches nothing.
_NO_PAGES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp))


class _GroupKey(NamedTuple):
    """Everything a round reads as configuration: one value per group."""

    config: HebbianConfig   # equal configs build equal fixed structures
    alpha: float            # the accuracy EMA's rate
    min_accuracy: float
    min_confidence: float
    width: int
    length: int
    page_shift: int
    train_always: bool      # no per-lane training decision to ask for
    phase_span: int         # the detector's window; 0: no detector
    enc_limit: int          # the encoder's last class (vocab_size - 1)
    enc_shift: int          # log2 of its granularity
    enc_collapse: bool
    ep_cap: int             # the replay store's ring; 0: no store
    threshold: float        # ... which remembers below this confidence
    per_step: int           # replayed pairs a trained step; 0: none
    lr_scale: float


def _wider(old: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``old`` extended with zeros to ``shape`` (no axis shrinks)."""
    new = np.zeros(shape, dtype=old.dtype)
    new[tuple(slice(0, n) for n in old.shape)] = old
    return new


def _ring_tail(rows: np.ndarray, count: np.ndarray, kept: np.ndarray,
               cap: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Where the last ``kept[i]`` of the ``count[i]`` entries written to
    ring ``rows[i]`` (capacity ``cap``) are, oldest first: ``(row,
    column)`` of every entry, ring after ring, and where each ring's run
    ends in them."""
    ends = kept.cumsum()
    nth = np.arange(ends[-1]) - (ends - kept).repeat(kept)
    column = ((count - kept).repeat(kept) + nth) % cap
    return rows.repeat(kept), column, ends.tolist()


class _LaneArrays:
    """The per-miss state of a group's members, indexed by fleet slot.

    :meth:`admit` moves a prefetcher's state in, :meth:`hand_back` moves
    it out again; in between the prefetcher's own copies are stale.
    Episodes are a slab row per lane used as a ring — logical episode
    ``i`` (0: oldest) of a store holding ``size`` of ``count`` written is
    at column ``(count - size + i) % capacity``.  The encoder's vocabulary
    is a row of the class → delta table ``enc_delta`` (classes ``1 ..=
    enc_known``).  A phase detector's open window is a row of
    ``phase_window``; its centroids, transitions and current phase stay
    on the detector, which ``close_window`` updates as the scalar
    ``observe`` would.  Nothing here is configuration: that is the
    group's key, whose widths the tables take at construction.
    """

    def __init__(self, lanes: int, key: _GroupKey) -> None:
        self.lanes = lanes
        # Every array's first axis is the slot; a row means something
        # only while the slot holds a member, and :meth:`admit` writes
        # all of it.
        # Stream position and self-monitoring.
        self.ema = np.zeros(lanes)                     # accuracy_ema
        self.prev = np.zeros(lanes, dtype=np.int64)    # _prev_class, -1: None
        self.scored = np.zeros(lanes, dtype=bool)      # _last_probs is set
        # The _ema_top memo — a lane's top-``width`` classes, -1 padded —
        # and whether it is of the lane's current ``_last_probs``.
        self.memo = np.zeros((lanes, key.width), dtype=np.int64)
        self.memo_ok = np.zeros(lanes, dtype=bool)
        # The DeltaVocabEncoder: its vocabulary (column 0, the OOV class,
        # names no delta) and its stream position.
        self.enc_delta = np.zeros((lanes, key.enc_limit + 1), dtype=np.int64)
        self.enc_known = np.zeros(lanes, dtype=np.int64)
        self.enc_unit = np.zeros(lanes, dtype=np.int64)   # _prev_unit ...
        self.enc_started = np.zeros(lanes, dtype=bool)    # ... is not None
        # Counters, as deltas since admission.
        self.misses = np.zeros(lanes, dtype=np.int64)
        self.trained = np.zeros(lanes, dtype=np.int64)
        self.replayed = np.zeros(lanes, dtype=np.int64)
        self.suppressed = np.zeros(lanes, dtype=np.int64)
        self.emitted = np.zeros(lanes, dtype=np.int64)
        self.invocations = np.zeros(lanes, dtype=np.int64)
        self.always = np.zeros(lanes, dtype=np.int64)  # TrainAlways' two counters
        self.detected = np.zeros(lanes, dtype=bool)    # the phase detector ran
        # The episode slab: episodes ever written to the row, and how many
        # of them were copied in at admission.
        self.ep_count = np.zeros(lanes, dtype=np.int64)
        self.ep_first = np.zeros(lanes, dtype=np.int64)
        self.ep_input = np.zeros((lanes, 0), dtype=np.int32)
        self.ep_target = np.zeros((lanes, 0), dtype=np.int32)
        self.ep_phase = np.zeros((lanes, 0), dtype=np.int64)
        self.ep_confidence = np.zeros((lanes, 0))
        self.ep_timestamp = np.zeros((lanes, 0), dtype=np.int64)
        self.draws = LaneDraws(lanes)
        # The phase detector's open window: its features so far, how many,
        # and the phase the last one closed in.
        self.phase_window = np.zeros((lanes, key.phase_span), dtype=np.int64)
        self.phase_fill = np.zeros(lanes, dtype=np.int64)
        self.phase = np.zeros(lanes, dtype=np.int64)

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
            for name in EPISODE_COLUMNS:
                setattr(self, name, _wider(getattr(self, name), shape))

    def admit(self, slot: int, p: CLSPrefetcher) -> None:
        """Move ``p``'s per-miss state into row ``slot``."""
        self.ema[slot] = p.accuracy_ema
        self.prev[slot] = -1 if p._prev_class is None else p._prev_class
        self.scored[slot] = p._last_probs is not None
        memo = p._ema_top
        self.memo_ok[slot] = False
        if memo is not None and memo[0] is p._last_probs:
            self.memo[slot] = -1  # zero is a class
            self.memo[slot, :len(memo[1])] = memo[1]
            self.memo_ok[slot] = True

        encoder = p.encoder
        assert isinstance(encoder, DeltaVocabEncoder)
        deltas, prev_unit = encoder.table()
        self.enc_delta[slot, 1:len(deltas) + 1] = deltas
        self.enc_known[slot] = len(deltas)
        self.enc_started[slot] = prev_unit is not None
        self.enc_unit[slot] = 0 if prev_unit is None else prev_unit

        for counter in (self.misses, self.trained, self.replayed,
                        self.suppressed, self.emitted, self.invocations,
                        self.always, self.detected):
            counter[slot] = 0

        scheduler = p.scheduler
        self.ep_count[slot] = self.ep_first[slot] = 0
        if scheduler is not None:
            store = scheduler.store
            assert store is not None
            # The store's ring as it lies: its held episodes are its
            # columns' first len(store).
            n = len(store)
            if n:
                self.fit_episodes(n)
                for name in EPISODE_COLUMNS:
                    getattr(self, name)[slot, :n] = getattr(store, name)[:n]
                self.ep_count[slot] = self.ep_first[slot] = store.ep_count[0]
            self.draws.attach(slot, scheduler.draws.sync())

        detector = p.phase_detector
        if detector is not None:
            recent = list(detector._recent)
            self.phase_window[slot, :len(recent)] = recent
            self.phase_fill[slot] = len(recent)
            self.phase[slot] = detector.current_phase

    def hand_back(self, slots: np.ndarray,  # repro-lint: zone=lane-release
                  prefetchers: Sequence[CLSPrefetcher],
                  last_probs: np.ndarray, key: _GroupKey) -> None:
        """Move rows ``slots`` back into their ``prefetchers``: what a
        scalar run of the same misses would have left there
        (``last_probs``: the fleet's rows, by slot; ``key``: the group's,
        so a store, a detector or ``TrainAlways`` is every lane's or
        none's).  One gather and one ``tolist`` per column for all the
        lanes leaving; the one place that writes a prefetcher's per-miss
        state from outside it — :meth:`admit`'s inverse."""
        def column(values: np.ndarray) -> list[Any]:
            return values[slots].tolist()

        probs = list(last_probs[slots])  # rows of one gathered copy
        memos = column(self.memo)
        tables = column(self.enc_delta)
        for p, ema, prev, scored, memo_ok, memo, table, known, started, \
                unit, last in zip(
                    prefetchers, column(self.ema), column(self.prev),
                    column(self.scored), column(self.memo_ok), memos, tables,
                    column(self.enc_known), column(self.enc_started),
                    column(self.enc_unit), probs):
            p.accuracy_ema = ema
            p._prev_class = prev if prev >= 0 else None
            p._last_probs = last if scored else None
            p._ema_top = ((last, [c for c in memo if c >= 0])
                          if memo_ok else None)
            encoder = p.encoder
            assert isinstance(encoder, DeltaVocabEncoder)
            encoder.restore(table[1:known + 1], unit if started else None)

        for p, misses, trained, replayed, suppressed, emitted, detected, \
                always, invocations in zip(
                    prefetchers, column(self.misses), column(self.trained),
                    column(self.replayed), column(self.suppressed),
                    column(self.emitted), column(self.detected),
                    column(self.always), column(self.invocations)):
            stats = p.stats
            stats.misses_seen += misses
            stats.trained_steps += trained
            stats.replayed_pairs += replayed
            stats.suppressed_low_confidence += suppressed
            stats.prefetches_emitted += emitted
            if detected:
                assert p.phase_detector is not None
                stats.phases_seen = p.phase_detector.n_phases
            if key.train_always:
                p.training_policy.considered += always
                p.training_policy.trained += always
            scheduler = p.scheduler
            if scheduler is not None:
                scheduler.invocations += invocations
                scheduler.replayed_total += replayed

        if key.ep_cap:
            count = self.ep_count[slots]
            fresh = count - self.ep_first[slots]
            kept = np.minimum(fresh, key.ep_cap)
            columns: list[np.ndarray] = []
            ends = [0] * slots.size
            if kept.any():
                row, at, ends = _ring_tail(slots, count, kept, key.ep_cap)
                columns = [getattr(self, name)[row, at]
                           for name in EPISODE_COLUMNS]
            # A ring that wrapped within the residency overwrote the
            # rest: stored, and evicted again.
            for p, slot, lo, hi, written in zip(
                    prefetchers, slots.tolist(), [0, *ends], ends,
                    fresh.tolist()):
                scheduler = p.scheduler
                assert scheduler is not None and scheduler.store is not None
                self.draws.detach(slot)
                if written:
                    scheduler.store.extend_columns(
                        *(column[lo:hi] for column in columns),
                        written=written)

        if key.phase_span:
            fill = self.phase_fill[slots]
            open_ = np.arange(key.phase_span) < fill[:, None]
            features = self.phase_window[slots][open_].tolist()
            ends = fill.cumsum().tolist()
            for p, lo, hi in zip(prefetchers, [0, *ends], ends):
                detector = p.phase_detector
                assert detector is not None
                detector._recent.clear()
                detector._recent.extend(features[lo:hi])


class CLSFleetGroup:
    """CLS lanes of one configuration stepped through one
    :class:`HebbianFleet`.

    Members adopt their live networks into fleet slots (:meth:`adopt`)
    and take them back, bit-identical, when their lanes finish
    (:meth:`release_many`); in between, :meth:`miss_round` drives each
    cohort round's stalled-lane misses through the stacked path.  The
    group's configuration is its first member's :meth:`group_key`, and
    every member's.
    """

    def __init__(self, prefetcher: CLSPrefetcher,
                 capacity: int = 16) -> None:
        key = self.group_key(prefetcher)
        if key is None:
            raise ValueError("the lane-state arrays do not model this "
                             "prefetcher (see CLSFleetGroup.group_key)")
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        # The prototype contributes only fixed structures and memo
        # caches (reserve mode never reads its weights), so the first
        # member's model serves as-is.
        self._fleet = HebbianFleet(model, max(capacity, 1), reserve=True)
        self._key = key
        self._members: dict[int, CLSPrefetcher] = {}
        self._member_ids: set[int] = set()
        self._state = _LaneArrays(self._fleet.n_lanes, key)

    @staticmethod
    def group_key(prefetcher: object) -> _GroupKey | None:
        """The group ``prefetcher`` belongs in: every value a round
        reads as configuration, from the objects its stages read it
        from.  ``None`` for a lane no group may hold — one
        :func:`~repro.core.cls_prefetcher.arrays_model` rejects (the
        test the compiled miss applies too), or one whose scored row is
        not its model's; such a lane keeps its own ``on_miss_fast`` in
        the cohort.  Lanes of one key differ in per-miss state alone
        (``seed`` reaches a lane only through its replay generator)."""
        if not arrays_model(prefetcher):
            return None
        model = prefetcher.model
        encoder = prefetcher.encoder
        assert isinstance(model, SparseHebbianNetwork)
        assert isinstance(encoder, DeltaVocabEncoder)
        ep_cap, threshold, per_step, lr_scale = 0, 0.0, 0, 0.0
        scheduler = prefetcher.scheduler
        if scheduler is not None:
            store = scheduler.store
            assert store is not None
            ep_cap = store.ep_cap
            threshold = getattr(scheduler.policy, "confidence_threshold",
                                np.inf)
            per_step, lr_scale = scheduler.per_step, scheduler.lr_scale
        # The scored prediction is read from the fleet's row, so it has
        # to be the model's own last step.
        scored, own = prefetcher._last_probs, model._last_probs
        if scored is not None and (own is None
                                   or not np.array_equal(scored, own)):
            return None
        detector = prefetcher.phase_detector
        return _GroupKey(
            model.config, prefetcher._alpha,
            prefetcher._min_accuracy, prefetcher._min_confidence,
            prefetcher._width, prefetcher._length, prefetcher._page_shift,
            type(prefetcher.training_policy) is TrainAlways,
            0 if detector is None else detector.window,
            encoder.vocab_size - 1, encoder.granularity.bit_length() - 1,
            encoder.collapse_repeats, ep_cap,
            threshold, per_step, lr_scale)

    @staticmethod
    def admits(prefetcher: object) -> TypeGuard[CLSPrefetcher]:
        """True when ``prefetcher`` may be a member of some group."""
        return CLSFleetGroup.group_key(prefetcher) is not None

    def reserve(self, lanes: int) -> None:
        """Capacity hint: ``lanes`` adoptions are coming (the constructor's
        ``capacity``, for a group that already exists)."""
        self._fleet.reserve(lanes)
        self._state.grow(self._fleet.n_lanes)

    def adopt(self, prefetcher: CLSPrefetcher) -> int:
        """Move a lane's model and per-miss state into the group; returns
        its slot.  ``ValueError``, before anything moves, for a member, a
        lane no group may hold, or one whose :meth:`group_key` is not
        the group's."""
        if id(prefetcher) in self._member_ids:
            raise ValueError("prefetcher is already a member of this group")
        key = self.group_key(prefetcher)
        if key is None:
            raise ValueError("the lane-state arrays do not model this "
                             "prefetcher (see CLSFleetGroup.group_key)")
        if key != self._key:
            raise ValueError("the prefetcher's configuration is not the "
                             "group's (see CLSFleetGroup.group_key)")
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        slot = self._fleet.acquire_lane(model)
        self._state.grow(self._fleet.n_lanes)
        self._state.admit(slot, prefetcher)
        self._members[slot] = prefetcher
        self._member_ids.add(id(prefetcher))
        return slot

    def release(self, slot: int, prefetcher: CLSPrefetcher) -> None:
        """Hand the slot's state back to the lane's own prefetcher."""
        self.release_many([slot], [prefetcher])

    def release_many(self, slots: Sequence[int],
                     prefetchers: Sequence[CLSPrefetcher]) -> None:
        """Hand each slot's state back to the prefetcher it came from,
        all the lanes leaving at once; nothing moves unless every slot
        holds the prefetcher it is released to."""
        members = self._members
        if len(slots) != len(prefetchers) or len(set(slots)) != len(slots):
            raise ValueError("release needs one prefetcher per slot, "
                             "each slot once")
        for slot, prefetcher in zip(slots, prefetchers):
            if members.get(slot) is not prefetcher:
                raise ValueError(f"slot {slot} does not hold the "
                                 "prefetcher it is released to")
        self._state.hand_back(np.asarray(slots, dtype=np.intp), prefetchers,
                              self._fleet.probs_rows, self._key)
        for slot, prefetcher in zip(slots, prefetchers):
            model = prefetcher.model
            assert isinstance(model, SparseHebbianNetwork)
            self._fleet.release_lane(slot, model)
            del members[slot]
            self._member_ids.remove(id(prefetcher))

    def handle_misses(self, slots: list[int], addresses: list[int],
                      pages: list[int],
                      timestamps: list[int]) -> list[list[int]]:
        """:meth:`miss_round` on lists; returns per-lane pages.

        ``slots[i]`` missed on ``addresses[i]`` (page ``pages[i]``) at
        ``timestamps[i]``; the result row ``i`` equals what
        ``on_miss_fast`` would have returned for that lane.
        """
        found, owner = self.miss_round(slots, addresses, pages, timestamps)
        results: list[list[int]] = [[] for _ in slots]
        for row, page in zip(owner.tolist(), found.tolist()):
            results[row].append(page)
        return results

    def miss_round(self, slots: Column, addresses: Column, pages: Column,
                   timestamps: Column) -> tuple[np.ndarray, np.ndarray]:
        """One cohort round of misses, stacked.

        Row ``i`` of the round: slot ``slots[i]`` missed on
        ``addresses[i]`` (page ``pages[i]``) at ``timestamps[i]``.
        Returns the round's prefetches as one ragged pair ``(pages,
        owner)``: ``pages[owner == i]`` is what ``on_miss_fast`` would
        have returned for row ``i``, in its order; ``owner`` ascends.
        The round is checked before any state moves: ``ValueError`` for
        columns of unequal length, a slot that holds no member, a slot
        named twice.
        """
        if not len(slots) == len(addresses) == len(pages) == len(timestamps):
            raise ValueError("a round needs one address, one page and one "
                             "timestamp per slot")
        return self._round(self._fleet.lane_index(slots), addresses, pages,
                           timestamps)

    def _round(self, idx: np.ndarray, addresses: Column, pages: Column,
               timestamps: Column) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`miss_round` on checked slots ``idx``: the stages on the
        lane-state arrays, one by one in scalar order."""
        s = self._state
        k = self._key
        fleet = self._fleet
        address = np.asarray(addresses, dtype=np.int64)
        page = np.asarray(pages, dtype=np.int64)
        timestamp = np.asarray(timestamps, dtype=np.int64)

        # observe: count, encode; lanes without a class stop here.
        s.misses[idx] += 1
        unit = address >> k.enc_shift
        before = s.enc_unit[idx]
        started = s.enc_started[idx]
        classed = started & (unit != before) if k.enc_collapse else started
        s.enc_unit[idx] = np.where(classed | ~started, unit, before)
        s.enc_started[idx] = True
        rows = None
        if not classed.all():
            rows = classed.nonzero()[0]
            if not rows.size:
                return _NO_PAGES
            idx, address, page, timestamp, unit, before = (
                a[rows] for a in (idx, address, page, timestamp, unit,
                                  before))
        delta = unit - before
        known = s.enc_known[idx]
        table = s.enc_delta[idx]
        match = table == delta[:, None]
        match &= np.arange(table.shape[1]) <= known[:, None]
        match[:, 0] = False
        cls = match.argmax(axis=1)  # 0: no class has this delta (yet)
        fresh = ((cls == 0) & (known < k.enc_limit)).nonzero()[0]
        if fresh.size:
            # First met: the next free class, while there is one; after
            # that, out of vocabulary (class 0).
            cls[fresh] = known[fresh] + 1
            s.enc_delta[idx[fresh], cls[fresh]] = delta[fresh]
            s.enc_known[idx[fresh]] = cls[fresh]
        slots = idx.tolist()

        # observe: the phase — a hint wins over the detector.
        members = self._members
        hints = [members[slot]._hinted_phase for slot in slots]
        detecting = np.full(idx.size, k.phase_span > 0)
        hinted = None
        if hints.count(None) != len(hints):
            hinted = np.array([hint is not None for hint in hints])
            detecting &= ~hinted
        if detecting.any():
            self._detect(idx[detecting], address[detecting])
        phase = np.where(detecting, s.phase[idx], -1)
        if hinted is not None:
            phase[hinted] = [hint for hint in hints if hint is not None]

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
            if stale.size and k.width >= probs_rows.shape[1]:
                covered[stale] = True  # the scalar stage's clamp
            elif stale.size:
                # No rollout partitioned these vectors (the lane was
                # gated): the scalar stage's own argpartition, row-wise.
                top = probs_rows[lanes[stale]].argpartition(
                    -k.width, axis=1)[:, -k.width:]
                covered[stale] = (top == seen[stale][:, None]).any(axis=1)
            s.ema[lanes] = (1 - k.alpha) * s.ema[lanes] + k.alpha * covered

        # observe: the training decision.
        prev = s.prev[idx]
        paired = prev >= 0
        train = paired.copy()
        if k.train_always:
            s.always[idx[train]] += 1
        else:
            for i in paired.nonzero()[0].tolist():
                train[i] = members[slots[i]]._should_train(confidence.item(i))

        # remember: one scatter into the slab.
        kept = (paired & (confidence < k.threshold)).nonzero()[0]
        if k.ep_cap and kept.size:
            lanes = idx[kept]
            count = s.ep_count[lanes]
            at = count % k.ep_cap
            s.fit_episodes(int(at.max()) + 1)
            s.ep_input[lanes, at] = prev[kept]
            s.ep_target[lanes, at] = cls[kept]
            s.ep_phase[lanes, at] = phase[kept]
            s.ep_confidence[lanes, at] = confidence[kept]
            s.ep_timestamp[lanes, at] = timestamp[kept]
            s.ep_count[lanes] = count + 1

        fleet.step_lanes(idx, cls, train)
        s.trained[idx[train]] += 1

        # replay: draw per lane, train in one call.
        if k.per_step and train.any():
            self._replay(idx[train], phase[train])

        # advance.
        s.scored[idx] = True
        s.prev[idx] = cls
        s.memo_ok[idx] = False

        # gate, rollout, decode.
        gated = (k.min_accuracy > 0) & (s.ema[idx] < k.min_accuracy)
        s.suppressed[idx[gated]] += 1
        rolling = (~gated).nonzero()[0]
        if not rolling.size:
            return _NO_PAGES
        lanes = idx[rolling]
        classes, probs, depth = fleet.rollout_arrays(
            lanes, np.full(lanes.size, k.width), np.full(lanes.size, k.length))
        found, owner = self._decode(lanes, unit[rolling], page[rolling],
                                    classes, probs, depth)
        # *Decode*'s memo: a rollout's first step names the top-width
        # classes of the lane's new ``_last_probs``.
        s.memo[lanes] = -1
        if depth.any():
            s.memo[lanes, :classes.shape[2]] = classes[:, 0]
        s.memo_ok[lanes] = depth > 0
        owner = rolling[owner]
        return found, owner if rows is None else rows[owner]

    def _detect(self, lanes: np.ndarray, address: np.ndarray) -> None:
        """*Observe*'s phase detector for ``lanes``, which missed on
        ``address``: every lane's feature into its open window at once,
        and each lane whose window that fills through its detector's
        ``close_window``."""
        s = self._state
        span = self._key.phase_span
        region_shift = self._key.page_shift + CLSPrefetcher._PHASE_REGION_BITS
        fill = s.phase_fill[lanes]
        s.phase_window[lanes, fill] = ((address >> region_shift)
                                       % CLSPrefetcher._PHASE_FEATURE_BINS)
        fill += 1
        full = fill == span
        for lane in lanes[full].tolist():
            detector = self._members[lane].phase_detector
            assert detector is not None
            s.phase[lane] = detector.close_window(s.phase_window[lane])
        s.phase_fill[lanes] = np.where(full, 0, fill)
        s.detected[lanes] = True

    def _replay(self, lanes: np.ndarray, phase: np.ndarray) -> None:
        """*Replay* for ``lanes``, which trained this round in ``phase``
        (below 0: no phase to exclude): :meth:`EpisodicStore.sample`'s
        draws and rejection per lane and the training on what they pick,
        as one ``replay_rings`` call, and a second for the rows drawn
        value by value."""
        s = self._state
        k = self._key
        s.invocations[lanes] += 1
        size = np.minimum(s.ep_count[lanes], k.ep_cap)
        stocked = size > 0
        if not stocked.all():
            lanes, phase, size = (a[stocked] for a in (lanes, phase, size))
            if not lanes.size:
                return
        attempts = k.per_step * MAX_ATTEMPTS_PER_PICK
        fleet = self._fleet
        episodes = (s.ep_count, k.ep_cap, s.ep_input, s.ep_target,
                    s.ep_phase)
        s.draws.ready(lanes, attempts)
        values = np.empty((lanes.size, attempts), dtype=np.int64)
        redo = fleet.replay_rings(lanes, phase, values, s.draws.blocks(),
                                  episodes, k.per_step, k.lr_scale,
                                  s.replayed)
        if redo.size:
            lanes, phase = lanes[redo], phase[redo]
            values = np.array(
                [s.draws.draw_exact(lane, sized, attempts)
                 for lane, sized in zip(lanes.tolist(),
                                        size[redo].tolist())],
                dtype=np.int64)
            fleet.replay_rings(lanes, phase, values, None, episodes,
                               k.per_step, k.lr_scale, s.replayed)

    def _decode(self, lanes: np.ndarray, unit: np.ndarray,
                miss_page: np.ndarray, classes: np.ndarray,
                probs: np.ndarray, depth: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """*Decode* for ``lanes`` (which missed on unit ``unit``, page
        ``miss_page``) from ``rollout_arrays``' result: the candidate
        loop of :meth:`CLSPrefetcher._emit` as one array program, step by
        step over the rollout, every lane and pick of a step at once.
        Returns ``(pages, owner)``, ``owner`` indexing ``lanes``."""
        s = self._state
        k = self._key
        n, deep, _ = classes.shape
        each = lanes[:, None]
        known = s.enc_known[lanes][:, None]
        target_page = miss_page[:, None]
        base = unit
        going = np.ones(n, dtype=bool)
        low_total = np.zeros(n, dtype=np.int64)
        oks: list[np.ndarray] = []
        candidates: list[np.ndarray] = []
        for step in range(deep):
            picks = classes[:, step]
            live = going & (depth > step)
            picked = (picks >= 0) & live[:, None]
            low = picked & (probs[:, step] < k.min_confidence)
            low_total += low.sum(axis=1)
            # Decodable: a class the vocabulary has met (so never OOV),
            # landing on a unit that exists.
            named = (picks > 0) & (picks <= known)
            target = base[:, None] + s.enc_delta[each, np.maximum(picks, 0)]
            named &= target >= 0
            candidate = (target << k.enc_shift) >> k.page_shift
            oks.append(picked & ~low & named & (candidate != target_page))
            candidates.append(candidate)
            # The next step's base follows the top-1 prediction, whatever
            # its confidence; one that does not decode ends the lane.
            going = live & named[:, 0]
            base = np.where(going, target[:, 0], base)
        s.suppressed[lanes] += low_total
        if not oks:
            return _NO_PAGES
        ok = np.concatenate(oks, axis=1)   # emission order along a row
        owner, nth = ok.nonzero()
        found = np.concatenate(candidates, axis=1)[owner, nth]
        if ok.shape[1] > 1 and found.size > 1:
            # In-lane dedupe, the first emission wins: stable-sort by
            # (lane, page), keep each run's head, restore emission order.
            order = np.lexsort((found, owner))
            lane_sorted, page_sorted = owner[order], found[order]
            head = np.ones(order.size, dtype=bool)
            head[1:] = ((lane_sorted[1:] != lane_sorted[:-1])
                        | (page_sorted[1:] != page_sorted[:-1]))
            first = np.sort(order[head])
            owner, found = owner[first], found[first]
        s.emitted[lanes] += np.bincount(owner, minlength=n)
        return found, owner
