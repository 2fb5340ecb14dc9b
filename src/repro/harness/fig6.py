"""Figure 6 / §4: the two target systems and their design-space claims.

The paper makes qualitative arguments about each deployment; this harness
turns them into measured comparisons:

1. **Disaggregated** (latency-bound, decentralized).  Timeliness is
   derived from each model's *modeled inference latency* (Figure 2) and
   the baseline's stall-inclusive access gap: the Hebbian network's
   few-microsecond inference yields a landing delay the §5.2
   length/width co-design can cover, while the LSTM's >150 us inference
   pushes its prefetches hopelessly late — the paper's deployability
   argument, measured.  Placement is compared too: per-node decentralized
   prefetchers (clean streams) vs one switch-centralized model fed the
   interleaved miss stream.
2. **UVM** (throughput-bound, centralized).  The driver-side prefetcher
   sees SIMT fault batches; isolating streams (per-stream demux) beats a
   single shared model, and wider prefetch output buys throughput, as §4
   argues for throughput-bound environments.

Every per-node cell is a lane job (:func:`node_job`) run through
``run_grid``, as Figure 5's bars are; only the two shared-stream loops —
the switch-centralized arm and the UVM driver — run in ``repro.systems``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any

from ..seeding import spawn_seeds
from ..nn.costs import DEFAULT_LATENCY_MODEL, hebbian_inference_ops, lstm_inference_ops
from ..patterns.generators import PatternSpec, stride
from ..systems.disaggregated import (
    DisaggregatedSystem,
    DisaggResult,
    NodeResult,
)
from ..systems.driver import PerStreamPrefetcher
from ..systems.latency import DISAGGREGATED_FABRIC
from ..systems.uvm import UVMResult, UVMSystem
from . import trace_cache
from .fleet import lane_prefetcher, run_lane_job
from .models import paper_hebbian_config, paper_lstm_config
from .runner import run_grid


@dataclass
class Fig6Config:
    """Knobs for both target-system experiments."""

    n_nodes: int = 4
    node_apps: tuple[str, ...] = ("resnet", "pagerank", "mcf", "graph500")
    accesses_per_node: int = 8_000
    n_streams: int = 8
    accesses_per_stream: int = 3_000
    memory_fraction: float = 0.5
    vocab_size: int = 192
    prefetch_length: int = 12
    prefetch_width: int = 4
    # Selectivity comes from self-monitored accuracy rather than softmax
    # confidence: under prefetch feedback the model ranks well long before
    # its weights consolidate, so absolute probabilities stay flat.
    min_confidence: float = 0.0
    min_accuracy: float = 0.5
    seed: int = 0


def _cls(model: str, config: Fig6Config, **overrides: int) -> dict:
    """The prefetcher recipe (``harness.fleet``) of a Fig. 6 CLS model."""
    return {"prefetcher": f"cls-{model}", "cls": {
        "vocab": config.vocab_size, "seed": config.seed,
        "prefetch_length": config.prefetch_length,
        "prefetch_width": config.prefetch_width,
        "min_confidence": config.min_confidence,
        "min_accuracy": config.min_accuracy, **overrides}}


def modeled_inference_ns(model: str) -> int:
    """Modeled single-inference latency (ns) at Table 2 scale."""
    if model == "hebbian":
        us = DEFAULT_LATENCY_MODEL.inference_us(
            hebbian_inference_ops(paper_hebbian_config()), family="hebbian")
    else:
        us = DEFAULT_LATENCY_MODEL.inference_us(
            lstm_inference_ops(paper_lstm_config()), family="lstm")
    return int(us * 1000)


def node_job(recipe: dict, prefetcher: dict, memory_fraction: float,
             delay: int = 0) -> dict:
    """The lane job of one compute node: its own trace ``recipe``, its own
    ``prefetcher`` recipe, its local memory and the landing delay."""
    return {**recipe, **prefetcher,
            "sim": {"memory_fraction": memory_fraction,
                    "prefetch_delay_accesses": delay}}


def run_node_jobs(arms: dict[str, list[dict]],
                  **grid: Any) -> dict[str, DisaggResult]:
    """Run every arm's node jobs (:func:`node_job`, one per node) as one
    ``run_grid`` of lane jobs; ``grid`` is its keyword arguments.

    An arm of ``none`` jobs is the no-prefetch baseline (placement
    ``"none"``), any other a ``"decentralized"`` run; nodes are priced
    on the disaggregated fabric (:meth:`NodeResult.priced`).
    """
    jobs = [job for arm in arms.values() for job in arm]
    rows = iter(run_grid(jobs, run_lane_job, **grid))
    results: dict[str, DisaggResult] = {}
    for name, arm in arms.items():
        nodes = [NodeResult.priced(node, row["trace_name"], row["accesses"],
                                   row["demand_misses"], row["prefetch_hits"],
                                   DISAGGREGATED_FABRIC)
                 for node, row in enumerate(islice(rows, len(arm)))]
        none = all(job.get("prefetcher", "none") == "none" for job in arm)
        results[name] = DisaggResult(
            placement="none" if none else "decentralized", nodes=nodes,
            fabric=DISAGGREGATED_FABRIC)
    return results


@dataclass
class DisaggComparison:
    baseline: DisaggResult
    decentralized_hebbian: DisaggResult
    decentralized_lstm: DisaggResult
    decentralized_leap: DisaggResult
    centralized_hebbian: DisaggResult
    hebbian_delay_accesses: int
    lstm_delay_accesses: int

    @property
    def hebbian_speedup(self) -> float:
        return self.decentralized_hebbian.speedup_over(self.baseline)

    @property
    def lstm_speedup(self) -> float:
        return self.decentralized_lstm.speedup_over(self.baseline)

    @property
    def leap_speedup(self) -> float:
        return self.decentralized_leap.speedup_over(self.baseline)

    @property
    def centralized_speedup(self) -> float:
        return self.centralized_hebbian.speedup_over(self.baseline)


def _decentralized(recipes: list[dict], config: Fig6Config,
                   models: tuple[str, ...], grid: dict
                   ) -> tuple[DisaggResult, dict[str, DisaggResult],
                              dict[str, int]]:
    """The no-prefetch baseline of one node per trace recipe, then one
    decentralized arm per model and one for Leap: ``(baseline, arms,
    delays)``.

    A model's prefetches land after its modeled inference plus the
    fetch, at the baseline's stall-inclusive access gap.
    """
    def arm(prefetcher: dict, delay: int = 0) -> list[dict]:
        return [node_job(recipe, prefetcher, config.memory_fraction, delay)
                for recipe in recipes]

    baseline = run_node_jobs({"none": arm({"prefetcher": "none"})},
                             **grid)["none"]
    gap_ns = max(1.0, baseline.mean_access_ns)
    delays = {model: DISAGGREGATED_FABRIC.delay_accesses(
        gap_ns, modeled_inference_ns(model)) for model in models}
    arms = {model: arm(_cls(model, config), delays[model])
            for model in models}
    # Leap is a table lookup (sub-microsecond): give it the small delay.
    arms["leap"] = arm({"prefetcher": "leap",
                        "args": {"max_degree": config.prefetch_width * 2}},
                       min(2, delays["hebbian"]))
    return baseline, run_node_jobs(arms, **grid), delays


def run_disaggregated(config: Fig6Config = Fig6Config(),
                      jobs: int | None = None,
                      cache_dir: str | Path | None = None,
                      trace_cache_dir: str | Path | None = None,
                      backend: str = "auto") -> DisaggComparison:
    """§4 disaggregated experiment: timeliness + placement.

    Each per-node cell — the baseline and the decentralized hebbian,
    lstm and leap arms — is a lane job (:func:`node_job`), and ``jobs``,
    ``cache_dir``, ``trace_cache_dir`` and ``backend`` mean for those
    cells what they mean for ``run_fig5``.  A node's prefetches land by
    ``simulate()``'s rule, one insert per issued page.  That equals the
    shared-stream loops' coalesced landing (``PrefetchQueue.landed_unique``)
    as long as no answer to one miss names a page twice or more than
    ``SimConfig.max_prefetches_per_miss`` (64) pages, which holds for
    every prefetcher here.  The centralized arm is one model over all
    nodes' interleaved misses, so it runs in
    :meth:`DisaggregatedSystem.run_centralized`.
    """
    grid = {"jobs": jobs, "cache_dir": cache_dir,
            "trace_cache_dir": trace_cache_dir, "backend": backend}
    node_seeds = spawn_seeds(config.seed, config.n_nodes)
    recipes = [{"app": config.node_apps[node % len(config.node_apps)],
                "n": config.accesses_per_node, "seed": node_seeds[node]}
               for node in range(config.n_nodes)]
    baseline, arms, delays = _decentralized(recipes, config,
                                            ("hebbian", "lstm"), grid)
    centralized_hebbian = DisaggregatedSystem(
        node_traces=[trace_cache.materialize(recipe) for recipe in recipes],
        memory_fraction=config.memory_fraction,
        prefetch_delay_accesses=delays["hebbian"],
    ).run_centralized(lambda: lane_prefetcher(_cls("hebbian", config)))

    return DisaggComparison(
        baseline=baseline,
        decentralized_hebbian=arms["hebbian"],
        decentralized_lstm=arms["lstm"],
        decentralized_leap=arms["leap"],
        centralized_hebbian=centralized_hebbian,
        hebbian_delay_accesses=delays["hebbian"],
        lstm_delay_accesses=delays["lstm"],
    )


@dataclass
class IrregularNodeComparison:
    """Hebbian vs Leap on a pointer-chasing node (no majority delta)."""

    baseline: DisaggResult
    hebbian: DisaggResult
    leap: DisaggResult

    @property
    def hebbian_speedup(self) -> float:
        return self.hebbian.speedup_over(self.baseline)

    @property
    def leap_speedup(self) -> float:
        return self.leap.speedup_over(self.baseline)


def run_irregular_node(config: Fig6Config = Fig6Config()
                       ) -> IrregularNodeComparison:
    """The workload §1 motivates: a node traversing pointer structures.

    A fixed linked traversal has *no* majority delta for Leap to vote on,
    but is perfectly learnable — the case where paying for a model (even
    with its larger landing delay) beats the table heuristic.  Every
    cell is a lane job, as in :func:`run_disaggregated`.
    """
    recipe = {"pattern": "pointer_chase", "n": config.accesses_per_node,
              "working_set": 300, "element_size": 4096, "seed": config.seed}
    baseline, arms, _ = _decentralized([recipe], config, ("hebbian",), {})
    return IrregularNodeComparison(baseline=baseline, hebbian=arms["hebbian"],
                                   leap=arms["leap"])


@dataclass
class UVMComparison:
    baseline: UVMResult
    shared: UVMResult
    per_stream_by_width: dict[int, UVMResult] = field(default_factory=dict)


def _uvm_stream_traces(config: Fig6Config) -> list:
    """SIMT-like streaming with warp divergence.

    Each stream (SM) walks three tensor tiles in its own region; which
    tile issues next varies (warp scheduling), so at any point the next
    page is one of ~three candidates.  That is exactly the structure where
    prefetch *width* (§5.2) pays: top-w prediction covers the candidate
    set even though no single rollout path can.
    """
    from ..patterns.trace import interleave

    traces = []
    per_tile = max(64, config.accesses_per_stream // 3)
    stream_seeds = spawn_seeds(config.seed, config.n_streams)
    for sid in range(config.n_streams):
        base = 0x1_0000_0000 + sid * 0x1000_0000
        # Children of the stream seed: tiles 0-2 lay out structures, child
        # 3 shuffles the interleave — all collision-free across streams.
        tile_seeds = spawn_seeds(stream_seeds[sid], 4)
        tiles = []
        for tile_id in range(3):
            spec = PatternSpec(n=per_tile,
                               element_size=4096,
                               working_set=max(48, per_tile // 4),
                               base=base + tile_id * 0x100_0000,
                               seed=tile_seeds[tile_id])
            tiles.append(stride(spec, stride_elements=1 + tile_id))
        merged = interleave(tiles, seed=tile_seeds[3],
                            name=f"uvm-stream{sid}")
        traces.append(merged)
    return traces


def run_uvm(config: Fig6Config = Fig6Config(),
            widths: tuple[int, ...] = (1, 2, 4)) -> UVMComparison:
    """§4 UVM experiment: stream isolation + prefetch-width sweep."""
    traces = _uvm_stream_traces(config)
    system = UVMSystem(stream_traces=traces,
                       memory_fraction=config.memory_fraction)
    baseline = system.run(None)

    def uvm_job(width: int) -> dict:
        # short length, varying width: the branchy SIMT streams reward
        # covering the candidate set, not deep greedy rollout
        return _cls("hebbian", config, prefetch_width=width,
                    prefetch_length=2)

    shared = system.run(lane_prefetcher(uvm_job(1)))
    per_stream = {}
    for width in widths:
        job = uvm_job(width)
        prefetcher = PerStreamPrefetcher(
            factory=lambda job=job: lane_prefetcher(job),
            name=f"per-stream-w{width}")
        per_stream[width] = system.run(prefetcher)
    return UVMComparison(baseline=baseline, shared=shared,
                         per_stream_by_width=per_stream)


def required_prefetch_length(model: str, gap_ns: float,
                             mean_accesses_per_miss: float = 7.0) -> int:
    """How many misses ahead a model must predict to be timely (§5.2).

    length >= landing_delay / accesses-between-misses.  For the Hebbian
    network this is single digits; for the LSTM it is ~an order of
    magnitude more than any rollout can sustain — the co-design argument.
    """
    delay = DISAGGREGATED_FABRIC.delay_accesses(gap_ns, modeled_inference_ns(model))
    return max(1, math.ceil(delay / max(1.0, mean_accesses_per_miss)))
