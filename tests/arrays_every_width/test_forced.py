"""The package's fixture is in force, down to a round of one lane."""

from __future__ import annotations

import pytest

from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.nn import hebbian_fleet
from repro.nn.backends import backend_available
from tests.arrays_every_width.conftest import SQUEEZED_BOOK
from tests.core.test_miss_stages import assert_released_like


@pytest.mark.skipif(not backend_available("c"),
                    reason="a fleet group needs the C backend")
def test_a_round_of_one_lane_runs_on_the_arrays(
        monkeypatch: pytest.MonkeyPatch) -> None:
    assert hebbian_fleet._BOOK_CAP == SQUEEZED_BOOK
    mine, twin = (CLSPrefetcher(CLSPrefetcherConfig(seed=4))
                  for _ in range(2))
    group = CLSFleetGroup(mine)
    slot = group.adopt(mine)
    book = group._fleet._book
    rebuilds: list[int] = []
    rebuild = book.rebuild
    monkeypatch.setattr(book, "rebuild",
                        lambda keep: rebuilds.append(len(keep))
                        or rebuild(keep))
    pages = [3, 5, 3, 5, 3, 5, 9, 3, 5, 40, 2, 17, 3, 5, 11, 9] * 3
    for i, page in enumerate(pages):
        assert (group.handle_misses([slot], [4096 * page], [page], [i])
                == [twin.on_miss_fast(0, 4096 * page, page, 0, i)])
    group.release(slot, mine)
    assert rebuilds and twin.stats.prefetches_emitted
    assert_released_like(mine, twin)
