"""The failure path of the one atomic JSONL writer behind every manifest
(telemetry runs, both fleet manifests, the serve manifest); the manifest
suites of those callers cover what it writes when it succeeds."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.telemetry.manifest import write_jsonl_atomic


def test_failed_write_leaves_nothing_behind(tmp_path: Path) -> None:
    """A record that cannot be serialised (after good ones were already
    written) leaves no ``.tmp`` file and no partial manifest — and an
    earlier complete manifest of the same name survives untouched."""
    target = tmp_path / "run.jsonl"
    records = [{"ok": 1}, {"bad": object()}]
    with pytest.raises(TypeError):
        write_jsonl_atomic(target, records)
    assert list(tmp_path.iterdir()) == []

    write_jsonl_atomic(target, [{"generation": 1}])
    with pytest.raises(TypeError):
        write_jsonl_atomic(target, records)
    assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
    assert json.loads(target.read_text()) == {"generation": 1}
