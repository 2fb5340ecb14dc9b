"""Verification must fail on a mismatch, not warn."""

from __future__ import annotations

import json

from bench import verify
from bench.protocol import DEFAULT_SEED


def _outcome(misses: int = 10) -> dict:
    return {"cells": {"a/none": {"stats": {"demand_misses": misses},
                                 "miss_idx": "00"},
                      "a/stride": {"stats": {"demand_misses": 7},
                                   "miss_idx": "11"}},
            "misses_removed_pct": 30.0,
            "timing": {"query_p50_us": 1.0}}


def test_identical_repeats_pass_and_timings_are_ignored() -> None:
    other = _outcome()
    other["timing"] = {"query_p50_us": 99.0}
    assert verify.repeats_identical([_outcome(), other]) == []


def test_a_differing_cell_is_named() -> None:
    messages = verify.repeats_identical([_outcome(), _outcome(11)])
    assert messages == ["pass 1: cells/a/none differs from pass 0"]


def test_differing_list_units_are_counted_one_by_one() -> None:
    first = {"lanes": ["aa", "bb", "cc"]}
    second = {"lanes": ["aa", "xx", "yy"]}
    assert len(verify.repeats_identical([first, second])) == 2


def _model_free(outcome: dict) -> dict:
    """``float_free`` of a toy workload: cell ``a/none`` touches no float."""
    return {"cells": {"a/none": outcome["cells"]["a/none"]}}


def _check(outcome: dict, *, seed: int = DEFAULT_SEED,
           scale: float = 1.0, update: bool = False) -> str:
    return verify.check_golden("w", seed, scale, outcome, update,
                               _model_free)


def test_golden_round_trip_and_mismatch(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(verify, "GOLDEN_DIR", tmp_path)
    # No golden file at the default seed and scale is a failure, not a skip.
    assert _check(_outcome()) == "missing"
    assert _check(_outcome(), update=True) == "updated"
    assert _check(_outcome()) == "equal"
    assert _check(_outcome(11)) == "mismatch"
    # Another seed or scale has no golden outcome.
    assert _check(_outcome(11), seed=DEFAULT_SEED + 1).startswith("skipped")
    assert _check(_outcome(11), scale=0.5).startswith("skipped")


def test_another_numeric_environment_still_compares_the_float_free_part(
        tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(verify, "GOLDEN_DIR", tmp_path)
    _check(_outcome(), update=True)
    path = tmp_path / "w.json"
    record = json.loads(path.read_text())
    record["numeric_fingerprint"] = "0" * 16
    path.write_text(json.dumps(record))
    learned = _outcome()
    learned["cells"]["a/stride"]["miss_idx"] = "ff"
    assert _check(learned).startswith("equal (float-free part")
    assert _check(_outcome(11)) == "mismatch"
