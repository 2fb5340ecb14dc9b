"""Seed-sweep variance for the headline comparison.

Single-seed results can flatter either model; this driver reruns the
Figure 5 protocol across seeds (new traces *and* new weight
initializations per seed) and reports mean +- std per (application,
model), so the comparability claim is a distribution statement rather
than a point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fig5 import Fig5Config, fig5_job
from .fleet import run_scored, score


@dataclass(frozen=True)
class VarianceRow:
    """Mean/std of % misses removed across seeds."""

    application: str
    model: str
    mean: float
    std: float
    per_seed: tuple[float, ...]

    @property
    def worst(self) -> float:
        return min(self.per_seed)


def fig5_seed_sweep(seeds: tuple[int, ...] = (0, 1, 2),
                    config: Fig5Config = Fig5Config(n_accesses=10_000),
                    models: tuple[str, ...] = ("hebbian", "lstm"),
                    jobs: int | None = None,
                    cache_dir: str | Path | None = None,
                    trace_cache_dir: str | Path | None = None,
                    telemetry_dir: str | Path | None = None,
                    telemetry_interval: int | None = None,
                    backend: str = "auto",
                    ) -> list[VarianceRow]:
    """Run Figure 5 once per seed; aggregate % misses removed.

    The whole seed × app × model cube is one flat list of Figure 5 lane
    jobs plus one ``none`` job per (seed, app), so ``jobs`` parallelizes
    across seeds as well as bars, ``cache_dir`` reuses jobs shared with
    previous ``run_fig5`` invocations, and ``trace_cache_dir`` shares
    each seed's materialized traces between that seed's jobs (and any
    other harness).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    pairs = run_scored(
        [fig5_job(app, model, replace(config, seed=seed))
         for seed in seeds for app in config.applications
         for model in models],
        jobs=jobs, cache_dir=cache_dir, trace_cache_dir=trace_cache_dir,
        telemetry_dir=telemetry_dir, telemetry_interval=telemetry_interval,
        backend=backend)
    samples: dict[tuple[str, str], list[float]] = {}
    for row, base in pairs:
        summary = score(row, base)
        samples.setdefault((summary.trace_name, summary.prefetcher_name),
                           []).append(summary.percent_misses_removed)

    return [VarianceRow(application=application, model=model,
                        mean=float(np.mean(values)), std=float(np.std(values)),
                        per_seed=tuple(values))
            for (application, model), values in sorted(samples.items())]
