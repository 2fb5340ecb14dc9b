"""Outcome verification: repeats identical, golden equal, oracle sample.

A mismatch is a failure, not a warning.  Three checks, all outside timed
regions:

1. every repeat's outcome record (per-cell ``CacheStats``, miss-index
   checksum, learned-weight blake2b, serve answer checksum) is identical to
   the warm-up pass's;
2. at the default seed and scale the record equals
   ``bench/golden/<workload>.json`` (``--update-golden`` regenerates it);
3. at any seed a sample is diffed against the repo's own oracle — that one
   lives with each workload (``verify_sample``).

A missing golden file is a failure.  The part of an outcome no float ever
touches (each workload's ``float_free``: model-free cells and lanes, engine
choices, ingest counters) is compared on every box.  Whatever flows through
a learned model is exact only within one numeric environment (libm ``exp``,
the BLAS behind the LSTM's matmuls): each golden records a
:func:`numeric_fingerprint`, and under a differing fingerprint that part —
and only that part — is left out and the result says so.  Checks 1 and 3
always run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

import numpy as np

from . import BENCH_DIR
from .protocol import DEFAULT_SEED

GOLDEN_DIR = BENCH_DIR / "golden"


def comparable(outcome: dict) -> dict:
    """The part of an outcome that must repeat exactly (no timings)."""
    return {key: value for key, value in outcome.items() if key != "timing"}


def _differences(reference: dict, other: dict) -> list[str]:
    """The units (``cells/<name>``, ``lanes[i]``, ``answers[i]``, ...) in
    which two outcome records differ."""
    out: list[str] = []
    for key in sorted(set(reference) | set(other)):
        a, b = reference.get(key), other.get(key)
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            out.extend(f"{key}/{unit}" for unit in sorted(set(a) | set(b))
                       if a.get(unit) != b.get(unit))
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            out.extend(f"{key}[{i}]" for i, pair in enumerate(zip(a, b))
                       if pair[0] != pair[1])
        else:
            out.append(key)
    return out


def repeats_identical(outcomes: list[dict]) -> list[str]:
    """One message per unit (cell, lane, tenant, counter set) of any pass
    that differs from the first pass's."""
    reference = comparable(outcomes[0])
    messages: list[str] = []
    for index, outcome in enumerate(outcomes[1:], start=1):
        for where in _differences(reference, comparable(outcome)):
            messages.append(f"pass {index}: {where} differs from pass 0")
    return messages


def numeric_fingerprint() -> str:
    """Digest of a few float kernels whose last bits depend on the numeric
    environment (numpy's SIMD ``exp``/``tanh``, the BLAS matmul)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 96))
    b = rng.standard_normal((96, 48))
    h = hashlib.blake2b(digest_size=8)
    for array in (np.exp(a), np.tanh(a), a @ b, 1.0 / (1.0 + np.exp(-a))):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def check_golden(workload: str, seed: int, scale: float, outcome: dict,
                 update: bool, float_free: Callable[[dict], dict]) -> str:
    """``equal`` / ``equal (float-free part; ...)`` / ``mismatch`` /
    ``missing`` / ``updated`` / ``skipped: <why>``.  ``float_free`` maps an
    outcome to the part of it that no floating-point result reaches."""
    if seed != DEFAULT_SEED or scale != 1.0:
        return "skipped: golden outcomes exist for the default seed and scale"
    path = GOLDEN_DIR / f"{workload}.json"
    # Round-trip through JSON so tuples/ints compare as the file stores them.
    record = json.loads(json.dumps({
        "workload": workload, "seed": seed,
        "numeric_fingerprint": numeric_fingerprint(),
        "outcome": comparable(outcome)}))
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return "updated"
    if not path.exists():
        return "missing"
    golden = json.loads(path.read_text())
    if float_free(golden["outcome"]) != float_free(record["outcome"]):
        return "mismatch"
    if golden["numeric_fingerprint"] != record["numeric_fingerprint"]:
        return ("equal (float-free part; learned outcomes not compared: "
                "numeric environment differs from the golden's)")
    return "equal" if golden["outcome"] == record["outcome"] else "mismatch"
