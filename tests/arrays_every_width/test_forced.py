"""The package's fixture is in force (and a wide-only path is taken)."""

from __future__ import annotations

from repro.core import cls_fleet
from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.nn import hebbian_fleet


def test_a_round_of_one_lane_runs_on_the_arrays() -> None:
    assert cls_fleet._RESIDENT_MIN_LANES == 1
    assert hebbian_fleet._ARRAY_MIN_LANES == 1
    mine, twin = (CLSPrefetcher(CLSPrefetcherConfig(seed=4))
                  for _ in range(2))
    group = CLSFleetGroup(mine)
    slot = group.adopt(mine)
    for i, page in enumerate([3, 5, 3, 5, 3, 5, 9, 3, 5]):
        assert (group.handle_misses([slot], [4096 * page], [page], [i])
                == [twin.on_miss_fast(0, 4096 * page, page, 0, i)])
        assert group._state.resident[slot]
    group.release(slot, mine)
    assert mine.encoder == twin.encoder and twin.stats.prefetches_emitted
