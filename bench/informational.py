"""Informational per-layer runs that only the full ``bench trace`` makes.

Not gating, and not part of any ``--workload W --trace 1`` run: CPython
threads and worker processes on two shared cores do not repeat within a
tenth, and a cold C compile is paid once per checkout.
"""

from __future__ import annotations

import os
import shutil
import time

from . import OUT_DIR, SRC_DIR
from .metrics import FLEET_CLS_1K, SERVE_LOCKSTEP_64, SIM_CLASSIC

THREADED_RATE_PER_S = 500.0
THREADED_SECONDS = 20.0


def c_compile_s() -> float:
    """Cold compile of the C kernel source into a scratch directory.

    ``c_backend._compile`` is the one private function the benchmark
    calls: the public path (``backend_available("c")``) compiles only
    when the checkout's ``.so`` cache is empty, which the protocol
    deliberately never times.
    """
    from repro.nn.backends import c_backend

    scratch = OUT_DIR / "c-compile-scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        built = c_backend._compile(scratch / "reprokernels-cold.so")
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return elapsed if built else 0.0


def jobs2_events_per_s() -> float:
    """1 000 CLS lanes through ``run_fleet_jobs`` with two workers.

    Lane jobs rebuild their traces and experiment-scale (hidden 500) models
    inside the shards, and ``materialize_lane_spec`` takes no element size,
    so these are BENCH_PR9's 64-byte-element lanes (two pages each, no
    prefetch ever issued) — not fleet-cls-1k's page-granular ones.  Compare
    this number only with itself.
    """
    from repro.harness.fleet import run_fleet_jobs

    from .workloads.fleet import FLEET_CONFIG, MODEL_SEED, SIZES

    lane_jobs = [{"pattern": "pointer_chase", "n": SIZES["lane_n"],
                  "working_set": SIZES["working_set"],
                  "seed": lane % SIZES["pool"], "prefetcher": "cls-hebbian",
                  "sim": {"memory_fraction": FLEET_CONFIG.memory_fraction},
                  "cls": {"vocab": SIZES["vocab"], "seed": MODEL_SEED}}
                 for lane in range(SIZES["cls_lanes"])]
    # Workers import ``repro`` afresh.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in
                          os.environ.get("PYTHONPATH", "").split(os.pathsep)
                          if p])
    t0 = time.perf_counter()
    report = run_fleet_jobs(lane_jobs, jobs=2, backend="auto",
                            max_width=SIZES["max_width"])
    return report.total_accesses / (time.perf_counter() - t0)


def run_all(seed: int) -> dict[str, dict[str, float]]:
    from .workloads.serve import ServeLockstep64, threaded_open_loop

    serve = ServeLockstep64()
    serve.setup(seed, 1.0)
    return {
        SIM_CLASSIC: {"nn.backends.c_compile_s": c_compile_s()},
        FLEET_CLS_1K: {"harness.fleet.jobs2_events_per_s":
                       jobs2_events_per_s()},
        SERVE_LOCKSTEP_64: threaded_open_loop(
            serve.streams, THREADED_RATE_PER_S, THREADED_SECONDS),
    }
