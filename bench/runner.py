"""One workload, one process: setup -> timed repeats -> verify -> samples.

This is what ``python -m bench --workload W --seed N --seconds S --trace T``
executes (and what ``python -m bench`` launches once per workload).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import OUT_DIR, REPO_ROOT
from .metrics import END_TO_END, PER_LAYER
from .protocol import (DEFAULT_SEED, MIN_REPEATS, SETUP_LAUNCHES, Cell,
                       TracedRun, calibrate, host_speed, peak_rss_mb,
                       process_age_s, timed_pass)
from .report import summarize
from .verify import check_golden, repeats_identical

#: Share of ``--seconds`` a traced run spends on alternating untraced /
#: traced passes; the rest is left for the isolation replays.
TRACED_PASS_SHARE = 0.6


def environment(backend: str) -> dict[str, Any]:
    """The fingerprint a result is only comparable within."""
    from repro.nn.backends import available_backends
    from repro.telemetry.manifest import git_sha

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "backend": backend,
        "backends_available": list(available_backends("nn")),
        "git_sha": git_sha(),
    }


class Samples:
    """Raw per-repeat samples, checkpointed as JSONL as they are taken so
    ``python -m bench report`` can re-derive every metric without
    re-running."""

    def __init__(self, path: Path, append: bool, workload: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(path, "a" if append else "w", encoding="utf-8")
        self._workload = workload
        self.records: list[dict] = []

    def add(self, kind: str, **fields: Any) -> None:
        record = {"kind": kind, "workload": self._workload, **fields}
        self.records.append(record)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def cells(self, repeat: int, cells: list[Cell],
              calibration: dict[str, list[float]], traced: bool) -> None:
        """One pass: its cells and the calibration chunks timed before it."""
        self.add("cal", repeat=repeat, traced=traced, **calibration)
        for cell in cells:
            self.add("cell", repeat=repeat, traced=traced, cell=cell.name,
                     events=cell.events, wall_s=cell.wall_s,
                     cpu_s=cell.cpu_s)

    def close(self) -> None:
        self._handle.close()


def _setup(workload: Any, seed: int, scale: float
           ) -> tuple[dict, dict, str, dict]:
    """The setup phase: backend resolve, inputs, prototypes, one full
    warm-up pass, with calibration chunks at both ends.  Returns (layer
    timings, warm-up outcome, backend, the ``setup`` sample)."""
    from repro.nn.backends import resolve_backend

    before = calibrate()
    t0 = time.perf_counter()
    backend = resolve_backend("auto")
    timings = {"nn.backends.resolve_s": time.perf_counter() - t0}
    timings.update(workload.setup(seed, scale))
    outcome = timed_pass(workload)[2]
    after = calibrate()
    sample = {"setup_s": process_age_s(),
              "cal_wall_s": before["wall_s"] + after["wall_s"]}
    return timings, outcome, backend, sample


def setup_only(name: str, seed: int, scale: float) -> int:
    """The setup phase alone (one ``setup_s`` launch); prints its sample."""
    from .workloads import make_workload

    print(json.dumps(_setup(make_workload(name), seed, scale)[3]))
    return 0


def _launch_setup(name: str, seed: int, scale: float) -> dict:
    """One more launch of the setup phase in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", name, "--seed",
         str(seed), "--scale", repr(scale), "--setup-only"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _more_passes(started: float, durations: list[float], budget_s: float,
                 minimum: int) -> bool:
    """Run another pass while fewer than ``minimum`` are done, or while one
    more of typical length still ends inside the budget."""
    if len(durations) < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) <= budget_s


def run_workload(name: str, *, seconds: float, seed: int = DEFAULT_SEED,
                 scale: float = 1.0, trace: bool = False,
                 samples_path: Path | None = None,
                 update_golden: bool = False,
                 setup_launches: int = SETUP_LAUNCHES) -> dict:
    """Run one workload in this process; returns the result object whose
    JSON form is the last line of standard output."""
    from .workloads import make_workload

    workload = make_workload(name)
    append = samples_path is not None
    path = samples_path or OUT_DIR / "last" / f"{name}-trace{int(trace)}.jsonl"
    samples = Samples(path, append, name)
    try:
        return _run(workload, samples, seed, seconds, scale, trace,
                    update_golden, setup_launches)
    finally:
        samples.close()


def _run(workload: Any, samples: Samples, seed: int, seconds: float,
         scale: float, trace: bool, update_golden: bool,
         setup_launches: int) -> dict:
    name = workload.name
    setup_timings, warm_outcome, backend, own_setup = _setup(workload, seed,
                                                             scale)
    samples.add("header", seed=seed, scale=scale, trace=int(trace),
                seconds=seconds, env=environment(backend))
    outcomes = [warm_outcome]
    layer_values: dict[str, float] = {}

    started = time.perf_counter()
    durations: list[float] = []
    if not trace:
        while _more_passes(started, durations, seconds, MIN_REPEATS):
            t0 = time.perf_counter()
            # No name may keep the pass's state alive into the next build.
            cells, calibration, outcome = timed_pass(workload)[:3]
            durations.append(time.perf_counter() - t0)
            samples.cells(len(outcomes) - 1, cells, calibration, traced=False)
            samples.add("repeat", repeat=len(outcomes) - 1,
                        misses_removed_pct=outcome.get("misses_removed_pct"),
                        **outcome.get("timing", {}))
            outcomes.append(outcome)
        samples.add("rss", peak_rss_mb=peak_rss_mb())
    else:
        layer_values = _traced(workload, samples, outcomes, started, seconds,
                               setup_timings)

    # -- verify (outside every timed region) --------------------------------
    messages = repeats_identical(outcomes)
    golden = check_golden(name, seed, scale, outcomes[0], update_golden,
                          workload.float_free)
    if golden == "mismatch":
        messages.append(f"{name}: outcome differs from bench/golden/"
                        f"{name}.json")
    elif golden == "missing":
        messages.append(f"{name}: no bench/golden/{name}.json (run "
                        "python -m bench --update-golden)")
    checked, oracle_messages = workload.verify_sample(outcomes[-1], seed)
    messages.extend(oracle_messages)
    failed_ops = sum(o.get("failed_ops", 0) for o in outcomes[1:])
    attempted = outcomes[-1]["units"] * (len(outcomes) - 1) + checked
    failed = min(attempted, len(messages) + failed_ops)
    samples.add("verify", attempted=attempted, failed=failed, golden=golden,
                messages=messages)

    if trace:
        for metric in PER_LAYER:
            if metric.name in layer_values:
                samples.add("layer", name=metric.name, unit=metric.unit,
                            value=layer_values[metric.name])
        metrics = {m.name: {"value": layer_values.get(m.name, 0.0),
                            "unit": m.unit}
                   for m in PER_LAYER if m.contract}
    else:
        samples.add("setup", sample=0, **own_setup)
        for launch in range(1, setup_launches):
            samples.add("setup", sample=launch,
                        **_launch_setup(name, seed, scale))
        summary = summarize(samples.records)[name]
        metrics = {m.name: {"value": summary[m.name].value, "unit": m.unit}
                   for m in END_TO_END if m.contract}
    for message in messages:
        print(f"verify: {message}", file=sys.stderr)
    return {"correct": not messages and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _traced(workload: Any, samples: Samples, outcomes: list[dict],
            started: float, seconds: float, setup_timings: dict[str, float]
            ) -> dict[str, float]:
    """Alternate untraced and traced passes, then the isolation replays."""
    from .tracing import Tracer

    tracer = Tracer()
    untraced: list[list[Cell]] = []
    traced: list[list[Cell]] = []
    durations: list[float] = []
    budget = seconds * TRACED_PASS_SHARE
    untraced_timings: list[dict] = []
    chunk_walls: list[float] = []
    traced_state = None
    while _more_passes(started, durations, budget, 1):
        t0 = time.perf_counter()
        tracer.run_id = len(traced)
        # Only the final traced pass's state reaches layer_metrics; nothing
        # of an earlier pass may stay resident while the next one builds.
        traced_state = None
        cells, calibration, outcome = timed_pass(workload)[:3]
        untraced.append(cells)
        untraced_timings.append(outcome.get("timing", {}))
        outcomes.append(outcome)
        samples.cells(len(untraced) - 1, cells, calibration, traced=False)
        chunk_walls.extend(calibration["wall_s"])
        cells, calibration, outcome, traced_state = timed_pass(workload,
                                                               tracer)
        traced.append(cells)
        outcomes.append(outcome)
        samples.cells(len(traced) - 1, cells, calibration, traced=True)
        chunk_walls.extend(calibration["wall_s"])
        durations.append(time.perf_counter() - t0)
    values = dict(setup_timings)
    values.update(workload.layer_metrics(
        TracedRun(tracer, traced_state, traced, untraced, untraced_timings)))
    plain = statistics.median(sum(c.wall_s for c in cells)
                              for cells in untraced)
    spanned = statistics.median(sum(c.wall_s for c in cells)
                                for cells in traced)
    values["bench.trace_overhead_pct"] = (spanned - plain) / plain * 100.0
    # Per-layer timings are raw; this says what the core ran at meanwhile.
    values["bench.host_speed"] = host_speed(chunk_walls)
    # A smoke-scale pass can leave a span kind without a single sample.
    values = {name: value if math.isfinite(value) else 0.0
              for name, value in values.items()}
    tracer.write(OUT_DIR / "last" / f"trace-{workload.name}.jsonl",
                 workload.name)
    return values
