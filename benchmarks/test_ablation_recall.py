"""A8 (Figure 4): the hippocampal recall fast path.

CLS theory's hippocampus does more than feed replay: it *answers* from
one-shot memories while the neocortex slowly consolidates.  This ablation
measures that complementarity: on a fresh pattern, recall converts
transitions seen once into immediate prefetches; once the neocortex is
confident, recall stops being consulted.
"""

from __future__ import annotations

from repro.harness.fleet import run_scored, score
from repro.harness.reporting import print_table


def run_recall_comparison(n_accesses: int = 6_000, working_set: int = 250,
                          seed: int = 3) -> list[dict]:
    """A fresh pointer chase, with and without recall: two lane jobs
    scored against the ``none`` job of the trace."""
    trace = {"pattern": "pointer_chase", "n": n_accesses,
             "working_set": working_set, "element_size": 4096, "seed": seed}
    recalls = (False, True)
    pairs = run_scored(
        [{**trace, "prefetcher": "cls-hebbian",
          "cls": {"vocab": 512, "seed": seed, "encoder": "page",
                  "prefetch_length": 1, "prefetch_width": 1,
                  "min_confidence": 0.25, "recall": recall},
          "sim": {"memory_fraction": 0.5}}
         for recall in recalls])
    return [{"recall": recall,
             "misses_removed_pct": score(row, base).percent_misses_removed,
             "accuracy": row["prefetch_accuracy"],
             "recall_consulted": row["cls"]["recall"]["consulted"],
             "recall_answered": row["cls"]["recall"]["answered"]}
            for recall, (row, base) in zip(recalls, pairs)]


def test_ablation_hippocampal_recall(benchmark):
    rows = benchmark.pedantic(run_recall_comparison, rounds=1, iterations=1)
    print_table(
        ["recall", "misses removed %", "accuracy", "consulted", "answered"],
        [[r["recall"], r["misses_removed_pct"], r["accuracy"],
          r["recall_consulted"], r["recall_answered"]] for r in rows],
        title="A8 (Fig. 4) — hippocampal recall fast path on a fresh "
              "pointer chase")

    without = next(r for r in rows if not r["recall"])
    with_recall = next(r for r in rows if r["recall"])
    # one-shot recall lifts miss removal on the fresh pattern...
    assert (with_recall["misses_removed_pct"]
            > without["misses_removed_pct"] + 5.0)
    # ...without costing accuracy
    assert with_recall["accuracy"] > 0.9
    assert with_recall["recall_answered"] > 0
