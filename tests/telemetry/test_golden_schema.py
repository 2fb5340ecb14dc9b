"""Golden-schema regression test for the telemetry JSONL layout.

``fixtures/golden_run.jsonl`` is a pinned, committed run (pagerank,
n=5000, trace seed 5, CLS-hebbian seed 3, interval 1000, the batched
engine on the C kernels; regenerating it needs them).  The test
regenerates the identical run and compares every record field-for-field
against the fixture, masking only the declared-volatile fields
(``wall_time_s``, ``env``, summary ``timers``).  Any change to the
record layout — a renamed field, a new rate, a schema bump — fails here
until the fixture is deliberately regenerated:

    PYTHONPATH=src python -c "
    from tests.telemetry.test_golden_schema import regenerate
    regenerate()"
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim import SimConfig, simulate
from repro.nn.backends import backend_available
from repro.patterns.applications import AppSpec, pagerank_graphchi
from repro.telemetry import SCHEMA_VERSION, Telemetry, load_run

FIXTURE = Path(__file__).parent / "fixtures" / "golden_run.jsonl"

#: Fields whose values depend on the host, not the run.
VOLATILE_MANIFEST = ("wall_time_s", "env")


def _golden_sink() -> Telemetry:
    trace = pagerank_graphchi(AppSpec(n=5000, seed=5))
    prefetcher = CLSPrefetcher(CLSPrefetcherConfig(
        model="hebbian", vocab_size=64, observe_hits=False, seed=3))
    sink = Telemetry(interval=1000)
    simulate(trace, prefetcher,
             SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4),
             backend="c", telemetry=sink)
    return sink


def regenerate() -> None:
    """Rewrite the fixture after a deliberate schema change."""
    sink = _golden_sink()
    path = sink.write(FIXTURE.parent)
    path.rename(FIXTURE)


def _stable(records: list[dict]) -> list[dict]:
    masked = copy.deepcopy(records)
    for field in VOLATILE_MANIFEST:
        masked[0].pop(field, None)
    masked[-1].pop("timers", None)
    return masked


def _fixture_records() -> list[dict]:
    with FIXTURE.open() as handle:
        return [json.loads(line) for line in handle]


@pytest.mark.skipif(not backend_available("c"),
                    reason="the fixture pins the batched engine, which "
                           "needs the C kernels")
def test_regenerated_run_matches_fixture_exactly():
    produced = _stable(_golden_sink().records())
    pinned = _stable(_fixture_records())
    assert len(produced) == len(pinned)
    for got, want in zip(produced, pinned):
        assert got == want, got.get("record")


def test_schema_version_bump_requires_fixture_regeneration():
    manifest = _fixture_records()[0]
    assert manifest["schema_version"] == SCHEMA_VERSION


def test_fixture_shape_and_volatile_fields_present():
    records = _fixture_records()
    manifest, *windows, summary = records
    assert manifest["record"] == "manifest"
    assert summary["record"] == "summary"
    assert len(windows) == manifest["n_windows"] == 5
    assert set(manifest["env"]) == {"backend", "git_sha", "numpy",
                                    "platform", "python"}
    assert isinstance(manifest["wall_time_s"], float)
    assert manifest["run_id"] == manifest["spec_hash"][:16]
    assert manifest["seed"] == 5
    for window in windows:
        assert window["record"] == "window"
        for rate in ("miss_rate", "accuracy", "coverage", "timeliness"):
            assert isinstance(window[rate], float)
        assert window["index_stop"] - window["index_start"] \
            == window["accesses"]
    assert "counters" in summary and "timers" in summary


def test_fixture_loads_through_report_reader():
    run = load_run(FIXTURE)
    assert run.manifest["spec"]["trace"] == "pagerank"
    assert len(run.windows) == 5
    assert run.summary["accesses"] == 5000
