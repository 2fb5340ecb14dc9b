"""Command line of the benchmark.

::

    python -m bench                      # all five workloads, end to end
    python -m bench trace                # the traced run: per-layer metrics
    python -m bench report SAMPLES.jsonl # re-derive metrics, no re-run
    python -m bench aa                   # two sets on one checkout, compared
    python -m bench --update-golden      # regenerate bench/golden/*.json
    python -m bench --workload W --seed N --seconds S --trace 0|1
                                         # one workload in this process; last
                                         # stdout line is the result JSON

Every multi-workload command launches each workload in its own fresh
subprocess (``--workload``), one at a time.  ``trace`` and ``--trace 1``
select the same traced run; a run whose verification fails prints its
result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from . import BENCH_DIR, OUT_DIR, REPO_ROOT, SRC_DIR
from .metrics import (END_TO_END, END_TO_END_BY_NAME, PER_LAYER_BY_NAME,
                      WORKLOADS, end_to_end_for)
from .protocol import DEFAULT_SEED, spread, worsening

SPREADS_PATH = BENCH_DIR / "spreads.json"

#: A metric is steady on a workload when its per-seed spread stays within
#: this share of its bound; above it the pair is recorded as unresolved: a
#: single run cannot judge a change smaller than the spread.
STEADY_SHARE = 1 / 3


def _run_seconds() -> int:
    """``run_seconds`` of ``BENCHMARK.json`` (the default ``--seconds``)."""
    return int(json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("::")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "trace", "report", "aa"))
    parser.add_argument("path", nargs="?", type=Path,
                        help="samples JSONL (report)")
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the frozen sizes (smoke tests only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (same as the trace command)")
    parser.add_argument("--samples", type=Path, default=None,
                        help="append raw samples to this JSONL file")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--seeds", type=int, default=0,
                        help="aa: also run this many seeds per workload, "
                             "report each metric's interquartile spread and "
                             "fail when one exceeds a third of its bound")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command != "report" and not SRC_DIR.is_dir():
        # The benchmark measures this checkout's program and nothing else.
        print(f"no program to measure: {SRC_DIR} does not exist",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_run_seconds())
    if args.command == "trace":
        args.trace = 1
    if args.command == "report":
        if args.path is None:
            print("report needs a samples JSONL path", file=sys.stderr)
            return 2
        from .report import load, print_report
        return 0 if print_report(load(args.path)) else 1
    if args.workload is not None:
        return _one_workload(args)
    if args.command == "aa":
        return _aa(args)
    trace = bool(args.trace)
    samples = args.samples or OUT_DIR / ("trace-samples.jsonl" if trace
                                         else "samples.jsonl")
    samples.parent.mkdir(parents=True, exist_ok=True)
    samples.write_text("")
    _run_set(args, samples, trace)
    if trace:
        _informational_layers(samples, args.seed)
    from .report import load, print_report
    ok = print_report(load(samples))
    print(f"\nraw samples: {samples}")
    return 0 if ok else 1


def _one_workload(args: argparse.Namespace) -> int:
    from . import runner

    if args.setup_only:
        return runner.setup_only(args.workload, args.seed, args.scale)
    result = runner.run_workload(
        args.workload, seed=args.seed, seconds=args.seconds,
        scale=args.scale, trace=bool(args.trace), samples_path=args.samples,
        update_golden=args.update_golden)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(args: argparse.Namespace, workload: str, samples: Path,
           trace: bool, seed: int) -> dict:
    """One workload in a fresh subprocess; returns its result object."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(args.seconds),
               "--scale", repr(args.scale), "--trace", str(int(trace)),
               "--samples", str(samples)]
    if args.update_golden:
        command.append("--update-golden")
    done = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        # Crashed before a result; a failed verification still prints one
        # (exit 1, ``correct: false``) and is reported, not raised.
        done.check_returncode()
    return json.loads(lines[-1])


def _run_set(args: argparse.Namespace, samples: Path, trace: bool) -> None:
    for workload in WORKLOADS:
        print(f"[bench] {workload} ...", file=sys.stderr, flush=True)
        _child(args, workload, samples, trace, args.seed)


def _informational_layers(samples: Path, seed: int) -> None:
    """The per-layer metrics no single workload's traced run produces:
    informational threaded / multi-process / cold-compile runs."""
    from . import informational

    with open(samples, "a", encoding="utf-8") as handle:
        for workload, values in informational.run_all(seed).items():
            for name, value in values.items():
                handle.write(json.dumps({
                    "kind": "layer", "workload": workload, "name": name,
                    "unit": PER_LAYER_BY_NAME[name].unit,
                    "value": value}) + "\n")


# ---------------------------------------------------------------------------
# aa: two sets of the same code, and the per-seed spread
# ---------------------------------------------------------------------------
def _aa(args: argparse.Namespace) -> int:
    from .report import load, summarize

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    summaries = []
    for label in ("a", "b"):
        samples = OUT_DIR / f"aa-{label}.jsonl"
        samples.write_text("")
        print(f"[bench aa] set {label}", file=sys.stderr, flush=True)
        _run_set(args, samples, trace=False)
        summaries.append(summarize(load(samples)))
    first, second = summaries
    failed = False
    measured: dict[str, dict[str, float]] = {}
    print(f"{'workload':<19}{'metric':<20}{'set a':>14}{'set b':>14}"
          f"{'diff':>9}  bound")
    for workload in WORKLOADS:
        for metric in end_to_end_for(workload):
            a = first[workload][metric.name].value
            b = second[workload][metric.name].value
            diff = abs(worsening(a, b, metric.better))
            over = diff > metric.bound
            failed = failed or over
            measured.setdefault(workload, {})[metric.name] = diff
            print(f"{workload:<19}{metric.name:<20}{a:>14.4f}{b:>14.4f}"
                  f"{diff:>9.2%}  {metric.bound:.0%}"
                  f"{'  EXCEEDED' if over else ''}")
    record: dict = {"aa_relative_difference": measured}
    if args.seeds:
        spreads = _seed_spreads(args)
        # ``setup_s`` is reported, not gated: the driver holds only its
        # second median against the first.
        unresolved = sorted(
            f"{name} on {workload}"
            for workload, by_name in spreads.items()
            for name, value in by_name.items()
            if name != "setup_s"
            and value > END_TO_END_BY_NAME[name].bound * STEADY_SHARE)
        record.update(seed_spread=spreads, unresolved=unresolved)
        for pair in unresolved:
            print(f"unresolved: {pair} (spread above a third of its bound)")
        failed = failed or bool(unresolved)
    _write_spreads(record)
    return 1 if failed else 0


def _seed_spreads(args: argparse.Namespace) -> dict[str, dict[str, float]]:
    """Interquartile distance / median of each contract metric over
    ``--seeds`` single runs per workload, each with another seed — the
    steadiness number the driver holds against each bound.  The target
    printed beside it, and gated on, is ``STEADY_SHARE`` of the bound."""
    out: dict[str, dict[str, float]] = {}
    scratch = OUT_DIR / "aa-seeds.jsonl"
    scratch.write_text("")
    contract = [m for m in END_TO_END if m.contract]
    print(f"\n{'workload':<19}{'metric':<20}{'median':>14}{'spread':>9}"
          "  bound/3")
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {m.name: [] for m in contract}
        for seed in range(args.seed, args.seed + args.seeds):
            result = _child(args, workload, scratch, False, seed)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        out[workload] = {}
        for metric in contract:
            share = spread(values[metric.name])
            out[workload][metric.name] = share
            target = metric.bound * STEADY_SHARE
            print(f"{workload:<19}{metric.name:<20}"
                  f"{statistics.median(values[metric.name]):>14.4f}"
                  f"{share:>9.2%}  {target:.2%}"
                  f"{'  ABOVE' if share > target else ''}")
    return out


def _write_spreads(record: dict) -> None:
    """Merge measured spreads into ``bench/spreads.json`` (kept beside the
    bounds of ``bench/metrics.py``; ``BENCHMARK.json`` admits no such key)."""
    existing = (json.loads(SPREADS_PATH.read_text())
                if SPREADS_PATH.exists() else {})
    existing.update(record)
    SPREADS_PATH.write_text(json.dumps(existing, indent=1, sort_keys=True)
                            + "\n")
    print(f"\nmeasured spreads: {SPREADS_PATH}")
