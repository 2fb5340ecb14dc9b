"""Per-run provenance manifests.

A run manifest answers "what produced this JSONL file?" months later:
the canonical spec of the run (trace identity, prefetcher, simulator
configuration, telemetry interval) hashed with the same
:func:`~repro.harness.runner.spec_key` machinery the result cache uses,
plus the volatile environment (git SHA, wall time, library versions)
kept under a separate ``env`` key so schema tests can pin the stable
fields exactly and only assert the volatile ones exist.

Wall-clock and subprocess reads live here, outside the simulation zones,
so repro-lint's RL002 wall-clock ban on ``core``/``memsim``/``patterns``
still holds: the simulator only ever hands data *to* the sink.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..harness.runner import spec_key
from ..memsim.simulator import SimConfig
from ..patterns.trace import Trace

#: Bump when the JSONL record layout changes; the golden-schema test
#: (tests/telemetry/test_golden_schema.py) forces the bump to be
#: deliberate.  v2: kernel backend recorded under ``env`` (volatile —
#: ``auto`` resolves per machine; backends are bit-identical so the
#: backend can never change a result).
SCHEMA_VERSION = 2


def run_spec(trace: Trace, prefetcher_name: str, config: SimConfig,
             interval: int) -> dict:
    """Canonical, JSON-serializable spec of one telemetry-observed run."""
    metadata = {key: value for key, value in sorted(trace.metadata.items())
                if isinstance(value, (str, int, float, bool, type(None)))}
    return {
        "kind": "telemetry_run",
        "trace": trace.name,
        "n_accesses": len(trace.addresses),
        "trace_metadata": metadata,
        "prefetcher": prefetcher_name,
        "page_size": config.page_size,
        "memory_fraction": config.memory_fraction,
        "capacity_pages": config.capacity_pages,
        "prefetch_delay_accesses": config.prefetch_delay_accesses,
        "max_prefetches_per_miss": config.max_prefetches_per_miss,
        "interval": interval,
    }


def git_sha() -> str | None:
    """The repository HEAD SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5, check=False)
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment() -> dict:
    """The volatile provenance fields (never part of the spec hash)."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


def write_jsonl_atomic(path: Path, records: Iterable[Mapping[str, Any]]
                       ) -> Path:
    """Write ``records`` to ``path``, one sorted-key JSON object per line.

    Atomic: the lines go to a temporary file in the same directory that
    replaces ``path`` only once complete, and is removed on any failure —
    a reader never sees a partial manifest, and a failed write (e.g. a
    record that cannot be serialised) leaves nothing behind.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def build_serve_manifest(spec: Mapping[str, Any], *,
                         counters: Mapping[str, int],
                         latency: Mapping[str, float],
                         swap_pause: Mapping[str, float]) -> dict:
    """The head record of an online-serving JSONL manifest.

    Same provenance machinery as the simulation manifest — the spec is
    hashed with :func:`~repro.harness.runner.spec_key` and the volatile
    environment lives under ``env`` — but the payload is the service's
    operational record: exact event/query/drop counters and the measured
    p50/p99 query-latency and swap-pause milliseconds the §5.5
    availability claim is judged on.
    """
    spec_hash = spec_key(dict(spec))
    return {
        "record": "serve_manifest",
        "schema_version": SCHEMA_VERSION,
        "run_id": spec_hash[:16],
        "spec_hash": spec_hash,
        "spec": dict(spec),
        "counters": dict(counters),
        "latency": dict(latency),
        "swap_pause": dict(swap_pause),
        "env": environment(),
    }


def build_manifest(spec: Mapping[str, Any], *, seed: int | None,
                   engine: str, capacity_pages: int, wall_time_s: float,
                   n_windows: int, backend: str = "unknown") -> dict:
    """Assemble the manifest record for a finished run.

    ``seed`` is the trace generator's seed when the trace carries one in
    its metadata; synthetic traces built inline (tests, fixtures) may
    not, and record null.  ``backend`` (the resolved kernel backend) is
    recorded under ``env``: backends are bit-identical by contract, so
    like the numpy version it is provenance, not part of the result's
    identity — and ``auto`` resolves differently per machine.
    """
    spec_hash = spec_key(dict(spec))
    return {
        "record": "manifest",
        "schema_version": SCHEMA_VERSION,
        "run_id": spec_hash[:16],
        "spec_hash": spec_hash,
        "spec": dict(spec),
        "seed": seed,
        "engine": engine,
        "capacity_pages": capacity_pages,
        "wall_time_s": wall_time_s,
        "n_windows": n_windows,
        "env": {**environment(), "backend": backend},
    }
