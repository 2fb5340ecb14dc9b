"""Figure 5: online memory prefetching performance, Hebbian vs LSTM.

The paper's setup (§3.1): four applications (TensorFlow/ResNet-50 training,
GraphChi PageRank, SPEC mcf, graph500); a 2-billion-access trace per
application; memory sized at 50% of the trace footprint; both prefetchers
deployed as in Figure 1 with a miss history length of 1; metric = the
percentage of misses removed vs a no-prefetching baseline.

We run the same protocol on the synthetic application traces (DESIGN.md
substitution #1) at a configurable trace length.  The paper's claim to
check: the Hebbian network's miss reduction is *comparable* to the
LSTM's on every application despite an order of magnitude fewer resources.

A bar is one lane job (``harness.fleet``: an ``app`` trace recipe, a
``cls-<model>`` prefetcher, the memory fraction), and its baseline is
the ``none`` job on the same trace; :func:`run_fig5` is the job list and
the reducer that pairs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..core.cls_prefetcher import CLSPrefetcher
from ..core.metrics import PrefetchSummary
from ..patterns.applications import FIG5_APPLICATIONS
from .fleet import lane_prefetcher, run_scored, score


@dataclass
class Fig5Config:
    """Experiment knobs.

    Attributes:
        applications: Which Figure 5 workloads to run.
        n_accesses: Trace length per application (paper: 2e9; default here
            keeps the full sweep to a few minutes — scale up freely).
        memory_fraction: Local memory vs trace footprint (paper: 0.5).
        vocab_size: Shared encoder/model vocabulary.
        prefetch_length: §5.2 length; 2 compensates prefetch-on-miss's
            every-other-miss visibility.
        prefetch_width: §5.2 width.
        min_confidence: Suppress predictions below this probability (§5.2's
            "highly selective" operating point).  Without it, mispredictions
            on hard streams (graph500's state-dependent misses) pollute the
            cache and push miss removal negative.
        observe_hits: Feed demand hits through the models too.  Default off
            — the paper's Figure 1 deployment trains on the *miss* history.
        seed: Trace and model seed.
    """

    applications: tuple[str, ...] = FIG5_APPLICATIONS
    n_accesses: int = 30_000
    memory_fraction: float = 0.5
    vocab_size: int = 192
    prefetch_length: int = 2
    prefetch_width: int = 2
    min_confidence: float = 0.25
    observe_hits: bool = False
    seed: int = 0


@dataclass
class Fig5Result:
    """All bars of the figure plus run metadata."""

    rows: list[PrefetchSummary] = field(default_factory=list)

    def for_app(self, app: str) -> dict[str, PrefetchSummary]:
        return {r.prefetcher_name: r for r in self.rows if r.trace_name == app}


def _cls_recipe(config: Fig5Config) -> dict:
    """The Figure 1 deployment of either model family, as a CLS recipe."""
    return {"vocab": config.vocab_size, "seed": config.seed,
            "encoder": "delta", "prefetch_length": config.prefetch_length,
            "prefetch_width": config.prefetch_width,
            "min_confidence": config.min_confidence,
            "observe_hits": config.observe_hits}


def make_model_prefetcher(model: str, config: Fig5Config) -> CLSPrefetcher:
    """The Figure 1 deployment of one model family."""
    prefetcher = lane_prefetcher({"prefetcher": f"cls-{model}",
                                  "cls": _cls_recipe(config)})
    assert isinstance(prefetcher, CLSPrefetcher)
    return prefetcher


def fig5_job(app: str, model: str, config: Fig5Config) -> dict:
    """The lane job of one (application, model) bar.

    ``applications`` does not enter it: a bar depends only on its own
    app, so narrowing or widening the app list keeps cached bars.
    """
    return {"app": app, "n": config.n_accesses, "seed": config.seed,
            "prefetcher": f"cls-{model}", "cls": _cls_recipe(config),
            "sim": {"memory_fraction": config.memory_fraction}}


def run_fig5(config: Fig5Config = Fig5Config(),
             models: tuple[str, ...] = ("hebbian", "lstm"),
             jobs: int | None = None,
             cache_dir: str | Path | None = None,
             trace_cache_dir: str | Path | None = None,
             telemetry_dir: str | Path | None = None,
             telemetry_interval: int | None = None,
             backend: str = "auto") -> Fig5Result:
    """Run the full Figure 5 grid; returns one summary per (app, model).

    Each bar is a :func:`fig5_job` scored against the ``none`` job of its
    trace, which runs once per app whatever the model count
    (``harness.fleet.run_scored``).  ``jobs`` fans the lane jobs out
    across processes; ``cache_dir`` memoizes each job on disk (see
    ``harness.runner``); ``trace_cache_dir`` shares materialized traces
    across jobs and invocations (see ``harness.trace_cache``);
    ``telemetry_dir`` writes a per-run JSONL file per computed job (see
    ``repro.telemetry``); ``backend`` pins the kernel backend in every
    worker without entering the jobs (see ``harness.runner``).
    """
    pairs = run_scored(
        [fig5_job(app, model, config)
         for app in config.applications for model in models],
        jobs=jobs, cache_dir=cache_dir, trace_cache_dir=trace_cache_dir,
        telemetry_dir=telemetry_dir, telemetry_interval=telemetry_interval,
        backend=backend)
    return Fig5Result(rows=[score(row, base) for row, base in pairs])
