"""Arrays at every width: the differential stack, re-run with both
measured width constants forced to 1.

Most suites run cohorts narrower than ``_RESIDENT_MIN_LANES`` (24) and
kernel calls narrower than ``_ARRAY_MIN_LANES`` (12), i.e. the stage
methods and the per-lane loops.  The modules of this package import the
tests of four of those suites unchanged; the fixture below sends every
round of theirs, down to a round of one lane, through the lane-state
arrays and the array kernels — the seams (encoder table, ragged egress,
``release_many``) included.
"""

from __future__ import annotations

from collections.abc import Iterator

import pytest

from repro.core import cls_fleet
from repro.nn import hebbian_fleet


@pytest.fixture(autouse=True)
def arrays_at_every_width() -> Iterator[None]:
    # Not the ``monkeypatch`` fixture: a hypothesis test must not take
    # function-scoped fixtures.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls_fleet, "_RESIDENT_MIN_LANES", 1)
        patch.setattr(hebbian_fleet, "_ARRAY_MIN_LANES", 1)
        yield
