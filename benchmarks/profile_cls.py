"""Micro-profiling harness for the CLS prefetcher hot path (PR 3).

Runs the exact protocol the PR 3 perf work was measured on — a resnet
training trace through ``simulate()`` with the Fig. 5 cls-hebbian
prefetcher — under :mod:`cProfile`, and prints the hottest functions by
cumulative and by self time.  This is the committed form of the loop
used to find (and verify the elimination of) the per-miss costs: event
allocation, redundant readouts, full-vocab argsorts, per-pair replay.

Usage::

    PYTHONPATH=src python benchmarks/profile_cls.py [--n 200000]
        [--top 25] [--sort cumulative|tottime]

Equivalent via the CLI for arbitrary runs::

    PYTHONPATH=src python -m repro --profile simulate --app resnet_training \
        --model hebbian --n 200000

The wall-clock number printed at the end is NOT a throughput figure
(profiling roughly doubles the runtime); use ``python -m bench``
(``events_per_s`` on ``sim-cls-hebbian``) for that.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time

from repro.harness.fig5 import Fig5Config, make_model_prefetcher
from repro.memsim.simulator import SimConfig, simulate
from repro.patterns.applications import AppSpec, resnet_training


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200_000,
                        help="trace length in accesses")
    parser.add_argument("--top", type=int, default=25,
                        help="rows to print per ranking")
    parser.add_argument("--sort", choices=["cumulative", "tottime", "both"],
                        default="both")
    args = parser.parse_args(argv)

    trace = resnet_training(AppSpec(n=args.n, seed=1))
    sim_cfg = SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)
    prefetcher = make_model_prefetcher("hebbian", Fig5Config())

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    result = profiler.runcall(simulate, trace, prefetcher, sim_cfg)
    elapsed = time.perf_counter() - t0

    stats = pstats.Stats(profiler, stream=sys.stdout)
    sorts = (["cumulative", "tottime"] if args.sort == "both"
             else [args.sort])
    for sort in sorts:
        print(f"\n--- top {args.top} by {sort} ---")
        stats.sort_stats(sort).print_stats(args.top)

    print(f"resnet n={args.n} seed=1: {result.demand_misses} demand misses, "
          f"{elapsed:.2f}s profiled "
          f"({args.n / elapsed / 1e6:.4f} M accesses/s under profiler)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
