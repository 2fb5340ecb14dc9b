"""Stacked Hebbian stepping for groups of CLS lanes in a fleet cohort.

:class:`CLSFleetGroup` is the bridge between the cohort engine
(``memsim/fleet.py``) and the tenant-axis batched network
(``nn/hebbian_fleet.py``): same-config CLS lanes adopt their models into
one :class:`~repro.nn.hebbian_fleet.HebbianFleet` and, at each cohort
round, every stalled lane's miss flows through **one** stacked
step/replay/rollout call per group instead of L scalar
``on_miss_fast`` calls.

The per-miss pipeline itself is :class:`CLSPrefetcher`'s: this module
only schedules its stages (DESIGN.md §5) around the three stacked
kernels, keeping every within-lane ordering of the scalar composition
``CLSPrefetcher._ingest`` → ``_predict`` (cross-lane order is free:
lanes share no mutable state, and the prototype's memo caches are pure
memoization over fixed structures).  That is the bit-identity contract.

Eligibility is decided by :meth:`CLSPrefetcher.fleet_steppable` and
grouping by :meth:`CLSPrefetcher.fleet_group_key`; ineligible lanes
keep the scalar per-miss path in the cohort.
"""

from __future__ import annotations

from ..nn.hebbian import SparseHebbianNetwork
from ..nn.hebbian_fleet import HebbianFleet
from .cls_prefetcher import CLSPrefetcher, Observation

__all__ = ["CLSFleetGroup"]


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

    def reserve(self, lanes: int) -> None:
        """Capacity hint: ``lanes`` adoptions are coming (the constructor's
        ``capacity``, for a group that already exists)."""
        self._fleet.reserve(lanes)

    def adopt(self, prefetcher: CLSPrefetcher) -> int:
        """Move a lane's model into the fleet; returns its slot."""
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        slot = self._fleet.acquire_lane(model)
        self._members[slot] = prefetcher
        return slot

    def release(self, slot: int, prefetcher: CLSPrefetcher) -> None:
        """Hand the slot's state back to the lane's own model."""
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        self._fleet.release_lane(slot, model)
        del self._members[slot]

    def handle_misses(self, slots: list[int], addresses: list[int],
                      pages: list[int],
                      timestamps: list[int]) -> list[list[int]]:
        """One cohort round of misses, stacked; returns per-lane pages.

        ``slots[i]`` missed on ``addresses[i]`` (page ``pages[i]``) at
        ``timestamps[i]``; the result row ``i`` equals what
        ``on_miss_fast`` would have returned for that lane.
        """
        results: list[list[int]] = [[] for _ in slots]
        fleet = self._fleet
        live: list[tuple[int, CLSPrefetcher, Observation]] = []
        for row, slot in enumerate(slots):
            p = self._members[slot]
            seen = p.observe(addresses[row], timestamps[row])
            if seen is None:
                continue  # scalar: _ingest returns False -> []
            p.remember(seen)
            live.append((row, p, seen))
        if not live:
            return results

        lanes = [slots[row] for row, _, _ in live]
        probs = fleet.step_lanes(lanes,
                                 [seen.class_id for _, _, seen in live],
                                 [seen.train for _, _, seen in live])

        replay_lanes: list[int] = []
        replay_pairs: list[list[tuple[int, int]]] = []
        replay_scales: list[float] = []
        for i, (_, p, seen) in enumerate(live):
            if seen.train:
                pairs = p.replay(seen)
                if pairs:
                    assert p.scheduler is not None
                    replay_lanes.append(lanes[i])
                    replay_pairs.append(pairs)
                    replay_scales.append(p.scheduler.lr_scale)
            p.advance(seen, probs[i])
        if replay_lanes:
            fleet.train_pairs_lanes(replay_lanes, replay_pairs,
                                    replay_scales)

        rolling = [(lanes[i], row, p) for i, (row, p, _) in enumerate(live)
                   if not p.gated()]
        if rolling:
            rollouts = fleet.rollout_lanes(
                [lane for lane, _, _ in rolling],
                [p.config.prefetch_width for _, _, p in rolling],
                [p.config.prefetch_length for _, _, p in rolling])
            for (_, row, p), rollout in zip(rolling, rollouts):
                results[row] = p.decode(addresses[row], pages[row], rollout)
        return results
