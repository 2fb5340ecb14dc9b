"""Arrays at every width, on a squeezed code book: four cohort suites
re-run with every fleet's code book capped at eight codes.

A cohort round of any width, a round of one lane included, runs on the
lane-state arrays and the array kernels.  The modules of this package
import the tests of four cohort suites unchanged; the fixture below caps
``nn/hebbian_fleet.py``'s code book so far below what the lanes pin that
it is rebuilt over and over — on adoption, between the kernels of a
round and in the middle of a rollout, with lanes draining and refilling
— while those suites hold every lane to ``simulate()``.
"""

from __future__ import annotations

from collections.abc import Iterator

import pytest

from repro.nn import hebbian_fleet

#: Codes a squeezed book holds before it is rebuilt.
SQUEEZED_BOOK = 8


@pytest.fixture(autouse=True)
def squeezed_code_book() -> Iterator[None]:
    # Not the ``monkeypatch`` fixture: a hypothesis test must not take
    # function-scoped fixtures.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hebbian_fleet, "_BOOK_CAP", SQUEEZED_BOOK)
        yield
