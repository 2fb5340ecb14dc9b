"""Tests for the in-flight prefetch queue (timeliness)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.prefetch_queue import PrefetchQueue


class TestQueue:
    def test_zero_delay_lands_immediately(self):
        q = PrefetchQueue(delay_accesses=0)
        q.issue(7, at_index=3)
        assert q.landed(3) == [7]

    def test_delay_holds_until_due(self):
        q = PrefetchQueue(delay_accesses=5)
        q.issue(7, at_index=0)
        assert q.landed(4) == []
        assert q.landed(5) == [7]

    def test_landed_pops(self):
        q = PrefetchQueue(delay_accesses=0)
        q.issue(1, 0)
        q.landed(0)
        assert q.landed(10) == []

    def test_multiple_land_in_issue_order(self):
        q = PrefetchQueue(delay_accesses=2)
        q.issue(1, 0)
        q.issue(2, 0)
        q.issue(3, 1)
        assert q.landed(2) == [1, 2]
        assert q.landed(3) == [3]

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            PrefetchQueue(delay_accesses=-1)


class TestDuplicatesContract:
    """landed keeps one entry per issue; landed_unique coalesces (first
    wins).

    The simulator's accounting relies on the one-entry-per-issue contract
    (every issue is charged, even a re-issue of an in-flight page); the
    systems' shared-stream loops rely on the coalescing variant to model
    hardware that merges duplicate in-flight requests.
    """

    def test_landed_keeps_one_entry_per_issue(self):
        q = PrefetchQueue(delay_accesses=0)
        for page in (7, 7, 3):
            q.issue(page, at_index=0)
        assert q.landed(0) == [7, 7, 3]

    def test_landed_unique_coalesces_across_landing_indices(self):
        q = PrefetchQueue(delay_accesses=2)
        q.issue(4, at_index=0)  # lands at 2
        q.issue(8, at_index=0)  # lands at 2
        q.issue(4, at_index=1)  # same page again, lands at 3
        assert q.landed_unique(3) == [4, 8]

    def test_out_of_order_issue_keeps_landing_then_issue_order(self):
        # A later-issued prefetch with an earlier at_index takes the
        # bisected-insert path; duplicates must survive it.
        q = PrefetchQueue(delay_accesses=3)
        q.issue(10, at_index=5)  # lands at 8
        q.issue(11, at_index=2)  # lands at 5: out-of-order insert
        q.issue(11, at_index=2)  # duplicate of the in-flight page
        assert len(q) == 3
        assert q.next_landing == 5
        assert q.landed(8) == [11, 11, 10]


@settings(max_examples=50, deadline=None)
@given(delay=st.integers(0, 10),
       issues=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 50)),
                       max_size=50))
def test_property_everything_lands_exactly_once(delay, issues):
    q = PrefetchQueue(delay_accesses=delay)
    for page, at in issues:
        q.issue(page, at)
    horizon = max((at for _, at in issues), default=0) + delay
    landed = []
    for now in range(horizon + 1):
        landed.extend(q.landed(now))
    assert sorted(landed) == sorted(page for page, _ in issues)
    assert len(q) == 0
