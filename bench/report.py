"""Derive and print every metric from raw samples.

``summarize`` is the only place a metric is computed from samples: the live
run calls it on the records it just wrote, and ``python -m bench report
<samples.jsonl>`` calls it on a checkpoint, so re-reporting never re-runs
anything.  It is also where raw times become seconds of the nominal core
(``bench.protocol``, "Host-speed calibration"): a run's wall times by the
median wall of the chunks timed before its passes, its CPU times by their
median CPU, each set-up launch by its own chunks.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from .metrics import PER_LAYER_BY_NAME, end_to_end_for
from .protocol import Stat, geomean, host_speed, median_stat, quartiles

Summary = dict[str, dict[str, Stat]]


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarize(records: list[dict]) -> Summary:
    """End-to-end metrics per workload from untraced samples."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        by_workload[record["workload"]].append(record)
    return {workload: _summarize_one(rows)
            for workload, rows in by_workload.items()}


def run_host_speed(rows: list[dict], clock: str = "wall_s") -> float:
    """Host speed over the untraced passes of one workload's samples."""
    return host_speed([seconds for r in rows
                       if r["kind"] == "cal" and not r["traced"]
                       for seconds in r[clock]])


def _scaled(stat: Stat, factor: float) -> Stat:
    return Stat(stat.value * factor, stat.q1 * factor, stat.q3 * factor,
                stat.n)


def _summarize_one(rows: list[dict]) -> dict[str, Stat]:
    out: dict[str, Stat] = {}
    cells = [r for r in rows if r["kind"] == "cell" and not r["traced"]]
    wall_speed = 1.0
    if cells:
        wall_speed = run_host_speed(rows)
        repeats = sorted({r["repeat"] for r in cells})
        by_cell: dict[str, list[dict]] = defaultdict(list)
        for row in cells:
            by_cell[row["cell"]].append(row)
        # events_per_s: geometric mean over cells of events / the cell's
        # median wall, so millisecond null cells weigh as much as
        # second-long stride cells.  Quartiles: the same geomean per repeat.
        value = geomean([
            group[0]["events"]
            / statistics.median(r["wall_s"] for r in group)
            for group in by_cell.values()])
        per_repeat = [geomean([r["events"] / r["wall_s"] for r in cells
                               if r["repeat"] == repeat])
                      for repeat in repeats]
        q1, q3 = quartiles(per_repeat)
        out["events_per_s"] = _scaled(Stat(value, q1, q3, len(repeats)),
                                      1.0 / wall_speed)
        passes = [[r for r in cells if r["repeat"] == repeat]
                  for repeat in repeats]
        cpu = [sum(r["cpu_s"] for r in group) for group in passes]
        out["cpu_us_per_event"] = _scaled(median_stat([
            c / sum(r["events"] for r in group) * 1e6
            for c, group in zip(cpu, passes)]), run_host_speed(rows, "cpu_s"))
        out["cpu_cores_used"] = median_stat([
            c / sum(r["wall_s"] for r in group)
            for c, group in zip(cpu, passes)])
    for record in rows:
        if record["kind"] == "rss":
            out["peak_rss_mb"] = Stat(record["peak_rss_mb"],
                                      record["peak_rss_mb"],
                                      record["peak_rss_mb"], 1)
    setups = [r["setup_s"] * host_speed(r["cal_wall_s"])
              for r in rows if r["kind"] == "setup"]
    if setups:
        out["setup_s"] = median_stat(setups)
    per_repeat_rows = [r for r in rows if r["kind"] == "repeat"]
    for name, factor in (("misses_removed_pct", 1.0),
                         ("query_p50_us", wall_speed),
                         ("query_p99_us", wall_speed)):
        values = [r[name] for r in per_repeat_rows if r.get(name) is not None]
        if values:
            out[name] = _scaled(median_stat(values), factor)
    verifies = [r for r in rows if r["kind"] == "verify"]
    if verifies:
        attempted = sum(r["attempted"] for r in verifies)
        share = sum(r["failed"] for r in verifies) / max(1, attempted)
        out["failed_share"] = Stat(share, share, share, attempted)
    return out


def layer_values(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per-layer values per workload from a traced run's samples."""
    out: dict[str, dict[str, float]] = defaultdict(dict)
    for record in records:
        if record["kind"] == "layer":
            out[record["workload"]][record["name"]] = record["value"]
    return out


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def print_report(records: list[dict]) -> bool:
    """Print every metric by name with its unit; returns True when every
    workload verified (``failed_share = 0``: a golden mismatch or a missing
    golden file counts as a failed unit)."""
    ok = True
    headers = [r for r in records if r["kind"] == "header"]
    if headers:
        print("environment:", json.dumps(headers[0]["env"], sort_keys=True))
    summary = summarize(records)
    print(f"{'workload':<19}{'metric':<20}{'value':>14} {'unit':<6}"
          f"{'q1':>14}{'q3':>14}{'n':>7}  bound")
    for workload, stats in summary.items():
        for metric in end_to_end_for(workload):
            stat = stats.get(metric.name)
            if stat is None:
                continue
            print(f"{workload:<19}{metric.name:<20}{_fmt(stat.value):>14} "
                  f"{metric.unit:<6}{_fmt(stat.q1):>14}{_fmt(stat.q3):>14}"
                  f"{stat.n:>7}  {metric.bound:.0%}")
        rows = [r for r in records if r["workload"] == workload]
        if any(r["kind"] == "cal" and not r["traced"] for r in rows):
            print(f"{workload:<19}host speed {run_host_speed(rows):.3f} of "
                  "the nominal core's (times above are in its seconds: raw "
                  "time = time / this)")
        for record in records:
            if record["kind"] == "verify" and record["workload"] == workload:
                print(f"{workload:<19}verify: golden {record['golden']}; "
                      f"{record['failed']} of {record['attempted']} failed")
                for message in record["messages"]:
                    print(f"{workload:<19}  ! {message}")
                ok = ok and record["failed"] == 0
    layers = layer_values(records)
    if layers:
        print()
        print(f"{'per-layer metric':<58}{'workload':<19}{'value':>14} unit")
        for workload, values in layers.items():
            for name, value in values.items():
                unit = PER_LAYER_BY_NAME[name].unit
                print(f"{name:<58}{workload:<19}{_fmt(value):>14} {unit}")
    return ok
