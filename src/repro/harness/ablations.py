"""Ablations over the §5 research-agenda design choices (A1-A10 in DESIGN.md).

Each function runs one controlled comparison and returns plain row dicts;
the corresponding benchmark prints them.  The ones that replay a trace
(A1, A2, A3, A5, A9, A10) are a list of lane jobs (``harness.fleet``: a
trace recipe, a CLS recipe, ``SimConfig`` kwargs) run by
``harness.fleet.run_scored`` against the ``none`` job of each trace, and
a reducer over the row pairs.  These are the measurable versions of the
paper's open questions:

- A1 training-instance sampling (§5.1)
- A2 prefetch length/width vs timeliness (§5.2)
- A3 input encodings, incl. the memcached/cachebench negative result (§5.3)
- A4 replay storage/selection variants (§5.4)
- A5 availability protocol + weight-noise robustness (§5.5)
- A6 Hebbian sparsity sweep (§3.1's efficiency knobs)
- A9 rollout vs direct multi-step prediction under delay (§5.2)
- A10 adaptation speed after a phase switch (§1)
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from ..core.availability import weight_noise_robustness
from ..seeding import spawn_seeds
from ..nn.costs import hebbian_inference_ops, hebbian_parameter_count
from ..nn.hebbian import HebbianConfig, SparseHebbianNetwork
from .fleet import run_scored, score
from .interference import InterferenceConfig, run_interference
from .models import experiment_hebbian, experiment_lstm
from .runner import run_grid

VOCAB = 192


def _hebbian_job(trace: dict, seed: int, delay: int = 0,
                 **overrides: Any) -> dict:
    """A Hebbian CLS lane at the ablations' vocabulary on ``trace``, with
    memory at half the trace footprint and a landing delay."""
    return {**trace, "prefetcher": "cls-hebbian",
            "cls": {"vocab": VOCAB, "seed": seed, **overrides},
            "sim": {"memory_fraction": 0.5,
                    "prefetch_delay_accesses": delay}}


def _chase(n: int, working_set: int, seed: int, **fields: Any) -> dict:
    """A page-granular pointer-chase trace recipe."""
    return {"pattern": "pointer_chase", "n": n, "working_set": working_set,
            "element_size": 4096, "seed": seed, **fields}


# ----------------------------------------------------------------------
# A1: training-instance sampling (§5.1)
# ----------------------------------------------------------------------
def ablation_sampling(n_accesses: int = 15_000, seed: int = 0,
                      jobs: int | None = None,
                      cache_dir: str | Path | None = None,
                      trace_cache_dir: str | Path | None = None) -> list[dict]:
    # resnet's regular stream + demand-stream observation keep the input
    # distribution stationary, so model confidence saturates on learned
    # transitions and the confidence-filtered policy has real skips to make
    # (under miss-only observation, prefetch feedback keeps confidence low
    # everywhere and the filter degenerates to train-always).
    policies = [
        ("always", {}),
        ("every_k", {"k": 4}),
        ("random", {"probability": 0.25, "seed": seed}),
        ("confidence", {"skip_above": 0.9}),
    ]
    trace = {"app": "resnet", "n": n_accesses, "seed": seed}
    pairs = run_scored([_hebbian_job(trace, seed, training=kind,
                                     training_kwargs=kwargs,
                                     observe_hits=True)
                        for kind, kwargs in policies],
                       jobs=jobs, cache_dir=cache_dir,
                       trace_cache_dir=trace_cache_dir)
    rows = []
    for row, base in pairs:
        policy = row["cls"]["training"]
        rows.append({
            "policy": policy["policy"],
            "trained_steps": policy["trained"],
            "considered": policy["considered"],
            "train_fraction": policy["trained"] / max(1, policy["considered"]),
            "misses_removed_pct": score(row, base).percent_misses_removed,
        })
    return rows


# ----------------------------------------------------------------------
# A2: prefetch length/width and timeliness (§5.2)
# ----------------------------------------------------------------------
def ablation_length_width(n_accesses: int = 12_000, seed: int = 0,
                          lengths: tuple[int, ...] = (1, 2, 4),
                          widths: tuple[int, ...] = (1, 2, 4),
                          delays: tuple[int, ...] = (0, 4),
                          jobs: int | None = None,
                          cache_dir: str | Path | None = None) -> list[dict]:
    cells = [{"delay_accesses": delay, "length": length, "width": width}
             for delay in delays for length in lengths for width in widths]
    pairs = run_scored(
        [_hebbian_job(_chase(n_accesses, 400, seed), seed,
                      c["delay_accesses"], prefetch_length=c["length"],
                      prefetch_width=c["width"])
         for c in cells],
        jobs=jobs, cache_dir=cache_dir)
    return [{**cell,
             "misses_removed_pct": score(row, base).percent_misses_removed,
             "prefetch_accuracy": row["prefetch_accuracy"]}
            for cell, (row, base) in zip(cells, pairs)]


def ablation_prediction_mode(n_accesses: int = 8_000, seed: int = 5,
                             delays: tuple[int, ...] = (0, 6),
                             jobs: int | None = None,
                             cache_dir: str | Path | None = None) -> list[dict]:
    """§5.2's two ways to predict L steps ahead, under landing delay.

    Rollout re-feeds the model its own prediction L times (L inferences,
    compounding error, horizon limited by inference cost); direct lag-L
    training predicts the miss L steps ahead in ONE inference.  With
    prefetch chaining (also triggering on hits), direct mode's coverage
    becomes delay-immune up to L.
    """
    configs = {
        "rollout L=4": dict(prediction_mode="rollout", prefetch_length=4),
        "direct L=6": dict(prediction_mode="direct", prefetch_length=6),
        "direct L=6 + chain": dict(prediction_mode="direct", prefetch_length=6,
                                   observe_hits=True, trigger_on_hits=True),
    }
    # rollout infers once per step of the length, direct mode once
    inferences = {label: (o["prefetch_length"]
                          if o["prediction_mode"] == "rollout" else 1)
                  for label, o in configs.items()}
    cells: list[dict[str, Any]] = [{"delay_accesses": delay, "mode": label}
                                   for delay in delays for label in configs]
    pairs = run_scored(
        [{**_chase(n_accesses, 300, seed), "prefetcher": "cls-hebbian",
          "cls": {"vocab": 512, "seed": seed, "encoder": "page",
                  "prefetch_width": 2, "min_confidence": 0.25,
                  **configs[c["mode"]]},
          "sim": {"memory_fraction": 0.5,
                  "prefetch_delay_accesses": c["delay_accesses"]}}
         for c in cells],
        jobs=jobs, cache_dir=cache_dir)
    return [{**cell,
             "misses_removed_pct": score(row, base).percent_misses_removed,
             "prefetch_accuracy": row["prefetch_accuracy"],
             "inferences_per_trigger": inferences[cell["mode"]]}
            for cell, (row, base) in zip(cells, pairs)]


# ----------------------------------------------------------------------
# A3: input encodings (§5.3)
# ----------------------------------------------------------------------
def _encoding_workload(name: str, n_accesses: int, seed: int) -> dict:
    """The trace recipe of one encoding workload."""
    if name == "pointer_chase":
        return _chase(n_accesses, 300, seed)
    if name == "interleaved_strides":
        # One thread walking two independent arrays: interleaved strided
        # streams whose combined delta sequence is cross-structure garbage.
        half = n_accesses // 2
        seed_a, seed_b, seed_mix = spawn_seeds(seed, 3)
        return {"interleave": [
            {"pattern": "stride", "n": half, "working_set": 300,
             "element_size": 4096, "base": 0x1000_0000, "seed": seed_a},
            {"pattern": "stride", "n": half, "working_set": 300,
             "element_size": 4096, "base": 0x8000_0000, "seed": seed_b,
             "kwargs": {"stride_elements": 2}}],
            "seed": seed_mix, "name": "interleaved_strides"}
    if name == "graph500":
        # graph500 needs several whole BFS passes to become learnable
        return {"app": "graph500", "n": 2 * n_accesses, "seed": seed}
    return {"app": name, "n": n_accesses, "seed": seed}


def ablation_encoding(n_accesses: int = 12_000, seed: int = 0,
                      jobs: int | None = None,
                      cache_dir: str | Path | None = None,
                      trace_cache_dir: str | Path | None = None) -> list[dict]:
    workloads = ("pointer_chase", "interleaved_strides", "graph500",
                 "memcached", "cachebench")
    cells = [{"workload": name, "encoder": encoder} for name in workloads
             for encoder in ("delta", "page", "region")]
    # the interleaved case needs demand-stream observation so the
    # encoders see the structure interleaving, not its miss shadow
    pairs = run_scored(
        [_hebbian_job(_encoding_workload(c["workload"], n_accesses, seed),
                      seed, encoder=c["encoder"], prefetch_length=2,
                      prefetch_width=2, min_confidence=0.25,
                      observe_hits=c["workload"] == "interleaved_strides")
         for c in cells],
        jobs=jobs, cache_dir=cache_dir, trace_cache_dir=trace_cache_dir)
    return [{**cell,
             "misses_removed_pct": score(row, base).percent_misses_removed,
             "prefetch_accuracy": row["prefetch_accuracy"]}
            for cell, (row, base) in zip(cells, pairs)]


# ----------------------------------------------------------------------
# A10: adaptation speed after a phase switch
# ----------------------------------------------------------------------
def ablation_adaptation(n_per_phase: int = 3_000, window: int = 600,
                        seed: int = 0) -> list[dict]:
    """How fast each learner recovers when the access pattern changes.

    The paper's motivation (§1): "a prefetcher's ability to adapt to new
    access patterns as they emerge is becoming more crucial than ever."
    We switch from one pointer structure to a different one mid-trace and
    measure windowed miss removal after the switch.  The hippocampal
    recall path (A8) is the one-shot mechanism built for exactly this.
    """
    trace = {"concat": [
        _chase(n_per_phase, 250, seed),
        _chase(n_per_phase, 250, spawn_seeds(seed, 1)[0], base=0x9000_0000)]}
    contenders = {
        "hebbian": ("cls-hebbian", {}),
        "hebbian+recall": ("cls-hebbian", {"recall": True}),
        "lstm": ("cls-lstm", {}),
    }
    # memory must be smaller than one phase's working set (250 pages of the
    # 500-page total) or the new phase simply fits and nothing misses
    pairs = run_scored(
        [{**trace, "prefetcher": kind,
          "cls": {"vocab": 512, "seed": seed, "encoder": "page",
                  "prefetch_length": 2, "prefetch_width": 2,
                  "min_confidence": 0.25, **overrides},
          "sim": {"memory_fraction": 0.3}, "miss_indices": True}
         for kind, overrides in contenders.values()])

    def windowed_misses(indices: list[int]) -> list[int]:
        return [sum(1 for i in indices if start <= i < start + window)
                for start in range(n_per_phase, 2 * n_per_phase, window)]

    rows = []
    for label, (row, base) in zip(contenders, pairs):
        for w_index, (base_count, run_count) in enumerate(
                zip(windowed_misses(base["miss_indices"]),
                    windowed_misses(row["miss_indices"]))):
            removed = (100.0 * (base_count - run_count) / base_count
                       if base_count else 0.0)
            rows.append({"model": label, "window": w_index,
                         "misses_removed_pct": removed})
    return rows


# ----------------------------------------------------------------------
# A4: replay variants (§5.4)
# ----------------------------------------------------------------------
def ablation_replay(seed: int = 0) -> list[dict]:
    config = InterferenceConfig(probe_len=80, probe_every=1000, seed=seed)
    variants: list[tuple[str | None, dict]] = [
        (None, {}),
        ("full", {}),
        ("ring", {"capacity": 128}),
        ("confidence", {"confidence_threshold": 0.9}),
        ("prototype", {}),
        ("consolidating", {"consolidated_above": 0.9}),
        ("generative", {"min_confidence": 0.5, "rollout_length": 4}),
    ]
    rows = []
    for kind, kwargs in variants:
        cfg = replace(config, replay_policy=kind or "full", replay_kwargs=kwargs)
        run = run_interference(
            lambda v: experiment_lstm(v, seed=seed),
            "stride", "pointer_chase",
            replay=kind is not None,
            config=cfg,
        )
        rows.append({
            "replay": kind or "none",
            "conf_A_before": run.summary.conf_a_before,
            "conf_A_after": run.summary.conf_a_after,
            "conf_B_after": run.summary.conf_b_after,
            "forgetting": run.summary.forgetting,
            "replayed_pairs": run.replayed_pairs,
        })
    return rows


# ----------------------------------------------------------------------
# A5: availability (§5.5)
# ----------------------------------------------------------------------
def ablation_availability(n_accesses: int = 12_000, seed: int = 0,
                          jobs: int | None = None,
                          cache_dir: str | Path | None = None,
                          trace_cache_dir: str | Path | None = None,
                          ) -> list[dict]:
    trace = {"app": "mcf", "n": n_accesses, "seed": seed}
    protocols = {"train-in-place": False, "shadow-copy": True}
    pairs = run_scored([_hebbian_job(trace, seed, availability=availability)
                        for availability in protocols.values()],
                       jobs=jobs, cache_dir=cache_dir,
                       trace_cache_dir=trace_cache_dir)
    return [{"protocol": protocol,
             "misses_removed_pct": score(row, base).percent_misses_removed,
             "redeploys": row["cls"]["stats"]["redeploys"]}
            for protocol, (row, base) in zip(protocols, pairs)]


def ablation_noise_robustness(seed: int = 0) -> list[dict]:
    """§5.5's conjecture: small weight perturbations barely move outputs."""
    cycle = list(np.random.default_rng(seed).permutation(40)) * 25
    rows = []
    for family, model in (("hebbian", experiment_hebbian(64, seed)),
                          ("lstm", experiment_lstm(64, seed))):
        for class_id in cycle:
            model.step(int(class_id) % 64, train=True)
        probe = [int(c) % 64 for c in cycle[:80]]
        curve = weight_noise_robustness(model, probe, seed=seed)
        for sigma, confidence in curve.items():
            rows.append({"model": family, "sigma": sigma, "confidence": confidence})
    return rows


# ----------------------------------------------------------------------
# A6: Hebbian sparsity sweep (§3.1)
# ----------------------------------------------------------------------
def _sparsity_cell(spec: dict) -> dict:
    seed, conn, act = spec["seed"], spec["connectivity"], spec["activation"]
    rng = np.random.default_rng(seed)
    cycle = [int(c) for c in rng.permutation(60)] * 12
    probe = cycle[:120]
    # stationary sequence learning: use the HebbianConfig defaults
    # (the deployment-tuned experiment config trades learning speed
    # for inertia, which is off-topic for this sweep)
    cfg = HebbianConfig(vocab_size=128, hidden_dim=500,
                        connectivity_in=conn, connectivity_out=conn,
                        connectivity_rec=0.017,
                        activation_fraction=act, seed=seed)
    model = SparseHebbianNetwork(cfg)
    for class_id in cycle:
        model.step(class_id, train=True)
    ops = hebbian_inference_ops(cfg)
    return {
        "connectivity": conn,
        "activation": act,
        "confidence": model.evaluate_sequence(probe),
        "parameters": hebbian_parameter_count(cfg),
        "inference_int_ops": ops.int_ops,
    }


def ablation_sparsity(seed: int = 0,
                      connectivities: tuple[float, ...] = (0.05, 0.125, 0.25),
                      activations: tuple[float, ...] = (0.05, 0.10, 0.25),
                      jobs: int | None = None,
                      cache_dir: str | Path | None = None) -> list[dict]:
    specs = [{"kind": "ablation_sparsity", "seed": seed,
              "connectivity": conn, "activation": act}
             for conn in connectivities for act in activations]
    return run_grid(specs, _sparsity_cell, jobs=jobs, cache_dir=cache_dir)
