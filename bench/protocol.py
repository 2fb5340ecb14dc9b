"""The measurement protocol every workload shares.

One workload runs per process.  Phases: *setup* (imports, backend resolve
with the C ``.so`` already built, trace materialization, prototype-model
build, one full warm-up pass so caches, memo tables and first-touch pages
are filled) -> timed *repeats*, each on freshly built prefetchers / lanes /
service constructed outside the timed region, ``gc.collect()`` then
``gc.disable()`` around it, ``perf_counter`` for wall and ``process_time``
(+ children) for CPU -> *verify*.  The reported value of a metric is the
median over repeats; quartiles and the sample count travel with it.

Every pass and every set-up also times a few chunks of a fixed reference
loop, and reported times are in seconds of a *nominal core*: the one that
runs a chunk in ``CAL_NOMINAL_S`` (see "Host-speed calibration" below).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence

import numpy as np

DEFAULT_SEED = 1
MIN_REPEATS = 3
SETUP_LAUNCHES = 3


@dataclass(frozen=True)
class Cell:
    """One timed unit inside a repeat (a (trace x prefetcher) cell, or the
    whole pass for the fleet and serve workloads)."""

    name: str
    events: int
    wall_s: float
    cpu_s: float


@dataclass
class TracedRun:
    """What a traced run hands to ``Workload.layer_metrics``: the span log,
    the last traced pass's state, every pass's cells, and the ``timing``
    record of each untraced pass's outcome."""

    tracer: Any
    traced_state: Any
    traced: list[list[Cell]]
    untraced: list[list[Cell]]
    untraced_timings: list[dict]


class Workload(Protocol):
    """What ``bench.runner`` needs from a workload."""

    name: str

    def setup(self, seed: int, scale: float) -> dict[str, float]:
        """Materialize inputs and prototypes; returns setup-phase layer
        timings (e.g. ``patterns.materialize_s``)."""
        ...

    def build(self, tracer: Any = None) -> Any:
        """Fresh per-repeat state (outside the timed region)."""
        ...

    def run(self, state: Any) -> list[Cell]:
        """The timed region."""
        ...

    def outcome(self, state: Any) -> dict:
        """JSON-able record of the repeat's simulated outcome: what must
        repeat exactly, ``units`` (how many cells / lanes / events +
        queries it covers), the simulated end-to-end quantities, and under
        ``timing`` whatever the program timed itself."""
        ...

    def float_free(self, outcome: dict) -> dict:
        """The part of an outcome record no floating-point result reaches
        (model-free cells and lanes, engine choices, ingest counters): what
        the golden check compares under any numeric environment."""
        ...

    def verify_sample(self, outcome: dict, seed: int) -> tuple[int, list[str]]:
        """Diff a seed-chosen sample against the repo's own oracle;
        returns (items checked, mismatch messages)."""
        ...

    def layer_metrics(self, run: TracedRun) -> dict[str, float]:
        """Per-layer metrics from the traced passes and isolation replays."""
        ...


def cpu_now() -> float:
    """CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(name: str, events: int, fn: Callable[[], Any]) -> tuple[Cell, Any]:
    """Time one call; the result is returned so the caller consumes it."""
    cpu0 = cpu_now()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return Cell(name, events, wall, cpu_now() - cpu0), result


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------
# The guest this benchmark runs in changes speed by up to 1.4x for seconds to
# minutes at a time, CPU time along with wall time, and shows neither steal
# time nor hardware counters.  A fixed loop timed next to every pass moves
# with the passes (correlation 0.8-0.9 between ten-pass windows), so reported
# times are rescaled by it: one second is one second of the core that runs a
# chunk in ``CAL_NOMINAL_S``.  Raw times stay in the samples.

#: Iterations of the reference loop in one chunk.
CAL_ITERATIONS = 5_000
#: Chunks timed before every pass, and at both ends of the set-up.
CAL_CHUNKS = 6
#: Seconds a chunk takes on this box's core at its usual speed.  It only
#: fixes the unit; any constant would compare two commits alike.
CAL_NOMINAL_S = 0.010

_CAL_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_CAL_VECTOR = _CAL_MATRIX[:, 0].copy()


def calibration_chunk() -> tuple[float, float]:
    """(wall, CPU) seconds of one chunk of the reference loop: Python
    dispatching small numpy calls, as the miss path of this repository
    does."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(CAL_ITERATIONS):
        total += float((_CAL_MATRIX @ _CAL_VECTOR).sum())
    return time.perf_counter() - t0, time.process_time() - cpu0


def calibrate() -> dict[str, list[float]]:
    """``CAL_CHUNKS`` chunks, as the ``wall_s`` / ``cpu_s`` of a sample."""
    chunks = [calibration_chunk() for _ in range(CAL_CHUNKS)]
    return {"wall_s": [wall for wall, _ in chunks],
            "cpu_s": [cpu for _, cpu in chunks]}


def host_speed(chunk_seconds: Sequence[float]) -> float:
    """Speed of the core that took ``chunk_seconds`` per chunk, as a share
    of the nominal core's; a time multiplied by it is in nominal seconds."""
    return CAL_NOMINAL_S / statistics.median(chunk_seconds)


def timed_pass(workload: Workload, tracer: Any = None
               ) -> tuple[list[Cell], dict[str, list[float]], dict, Any]:
    """One repeat: build (untimed) -> calibrate -> gc off -> run -> gc on ->
    outcome.  Returns (cells, calibration, outcome, the pass's state)."""
    # The previous pass's state may be cyclic garbage by now; free it before
    # building the next so peak RSS holds one pass, not two.
    gc.collect()
    state = workload.build(tracer)
    gc.collect()
    calibration = calibrate()
    gc.disable()
    try:
        cells = workload.run(state)
    finally:
        gc.enable()
    return cells, calibration, workload.outcome(state), state


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_age_s() -> float:
    """Seconds since this process was created.

    ``/proc/self/stat`` field 22 is the start time in clock ticks since
    boot (10 ms resolution at the usual 100 Hz); ``CLOCK_BOOTTIME`` is now
    on the same axis.  This is what lets ``setup_s`` include interpreter
    start-up without a cooperating parent.
    """
    with open("/proc/self/stat", "rb") as handle:
        stat = handle.read()
    # comm (field 2) may contain spaces and parentheses; split after it.
    fields = stat[stat.rindex(b")") + 2:].split()
    start_ticks = int(fields[19])
    ticks_per_s = os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / ticks_per_s


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Stat:
    """A reported value with its dispersion."""

    value: float
    q1: float
    q3: float
    n: int


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def median_stat(values: Sequence[float]) -> Stat:
    q1, q3 = quartiles(values)
    return Stat(statistics.median(values), q1, q3, len(values))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness
    number the driver holds against each metric's bound)."""
    q1, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """Relative amount by which ``second`` is worse than ``first``
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
