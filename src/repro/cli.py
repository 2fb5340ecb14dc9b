"""Command-line interface.

Three subcommands cover the library's day-to-day uses:

- ``generate`` — synthesize a Table 1 pattern or application trace to a
  ``.npz`` file;
- ``simulate`` — replay a trace (generated inline or loaded from disk)
  against a prefetcher and print the miss/accuracy report;
- ``experiment`` — regenerate a paper table/figure (same drivers the
  benchmarks use);
- ``telemetry`` — inspect the JSONL run records written by
  ``--telemetry-dir`` (see :mod:`repro.telemetry`);
- ``serve`` — run the online train-and-serve prefetch daemon
  (:mod:`repro.serve`) over a generated multi-tenant miss mix, in
  deterministic lockstep or on real threads.

Performance is measured by the repo-root ``bench`` package
(``python -m bench``), not from here.

Examples::

    python -m repro generate --pattern pointer_chase --n 8000 -o chase.npz
    python -m repro simulate --trace chase.npz --model hebbian --length 2
    python -m repro simulate --app pagerank --n 20000 --model lstm
    python -m repro experiment table2
    python -m repro experiment fig5 --n 20000
    python -m repro --profile simulate --app resnet_training --model hebbian
    python -m repro simulate --app mcf --model hebbian --telemetry-dir runs/
    python -m repro telemetry summarize runs/
    python -m repro serve run --tenants 8 --n 2000 --threaded

``--profile`` (before the subcommand) wraps any run in :mod:`cProfile`
and prints the 25 hottest functions by cumulative time — the same view
``benchmarks/profile_cls.py`` uses to attack the CLS hot path.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import Any, Callable

from . import telemetry
from .core.cls_prefetcher import CLSPrefetcher
from .harness import fig2, fig5, fig6, tables, trace_cache
from .harness.export import export_rows_csv
from .harness.fleet import lane_prefetcher
from .harness.interference import InterferenceConfig, run_interference
from .harness.models import experiment_lstm
from .harness.reporting import format_series, print_table
from .memsim.simulator import SimConfig, baseline_misses, simulate
from .nn.backends import NN_BACKENDS, SIM_BACKENDS
from .patterns.applications import ALL_APPLICATIONS
from .patterns.generators import PATTERN_NAMES, PatternSpec, generate
from .patterns.phases import pattern_pairs
from .patterns.trace import Trace
from .seeding import spawn_seeds


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool],
             rule: str) -> Callable[[str], Any]:
    """An argparse ``type``: ``convert`` the text, and reject a value
    ``ok`` refuses with a usage error (exit 2) that names the flag."""
    def parse(text: str) -> Any:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {value}")
        return value
    # argparse names a failed conversion by the type's name.
    parse.__name__ = convert.__name__
    return parse


_POSITIVE = _checked(int, lambda value: value > 0, "positive")
_VOCAB = _checked(int, lambda value: value >= 2, ">= 2")
_NON_NEGATIVE = _checked(int, lambda value: value >= 0, ">= 0")
_FRACTION = _checked(float, lambda value: 0 < value <= 1, "in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hippocampal-neocortical prefetching (HotOS'23) toolkit")
    parser.add_argument("--profile", action="store_true",
                        help="run the subcommand under cProfile and print "
                             "the top 25 functions by cumulative time")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a trace to a .npz file")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--pattern", choices=PATTERN_NAMES)
    source.add_argument("--app", choices=ALL_APPLICATIONS)
    gen.add_argument("--n", type=int, default=10_000, help="accesses")
    gen.add_argument("--working-set", type=int, default=200,
                     help="elements (pattern traces)")
    gen.add_argument("--element-size", type=int, default=4096)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", required=True, help="output .npz path")

    sim = sub.add_parser("simulate", help="replay a trace with a prefetcher")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help=".npz trace file")
    source.add_argument("--pattern", choices=PATTERN_NAMES)
    source.add_argument("--app", choices=ALL_APPLICATIONS)
    sim.add_argument("--n", type=_POSITIVE, default=10_000)
    sim.add_argument("--working-set", type=int, default=200)
    sim.add_argument("--element-size", type=int, default=4096)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--model",
                     choices=["hebbian", "lstm", "nextline", "stride",
                              "markov", "leap", "none"],
                     default="hebbian")
    sim.add_argument("--encoder", choices=["delta", "page", "region"],
                     default="delta")
    sim.add_argument("--vocab", type=_VOCAB, default=256)
    sim.add_argument("--length", type=_POSITIVE, default=2,
                     help="prefetch length (§5.2)")
    sim.add_argument("--width", type=_POSITIVE, default=2,
                     help="prefetch width (§5.2)")
    sim.add_argument("--mode", choices=["rollout", "direct"],
                     default="rollout")
    sim.add_argument("--min-confidence", type=float, default=0.25)
    sim.add_argument("--memory-fraction", type=float, default=0.5)
    sim.add_argument("--delay", type=int, default=0,
                     help="prefetch landing delay in accesses")
    sim.add_argument("--observe-hits", action="store_true")
    sim.add_argument("--replay", choices=["full", "ring", "confidence",
                                          "prototype", "consolidating",
                                          "generative", "off"],
                     default="full")
    sim.add_argument("--recall", action="store_true",
                     help="enable the Fig. 4 hippocampal recall fast path")
    sim.add_argument("--telemetry-dir", default=None,
                     help="observe the run and write windowed series + "
                          "manifest JSONL into this directory "
                          "(see `repro telemetry summarize`)")
    sim.add_argument("--telemetry-interval", type=int, default=None,
                     help="accesses per telemetry window (default 1000)")
    sim.add_argument("--backend",
                     choices=["auto", *NN_BACKENDS],
                     default="auto",
                     help="kernel backend (see repro.nn.backends): 'c' "
                          "compiles the simulator scans, 'auto' prefers "
                          "it and falls back to numpy; 'int8' quantizes "
                          "Hebbian serving only")

    exp = sub.add_parser("experiment",
                         help="regenerate a paper table/figure")
    exp.add_argument("which", choices=["table1", "table2", "fig2", "fig3",
                                       "fig5", "fig6", "variance"])
    exp.add_argument("--n", type=int, default=20_000,
                     help="accesses per workload (fig5/variance)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--seeds", type=int, default=3,
                     help="number of seeds (variance)")
    exp.add_argument("--jobs", type=int, default=None,
                     help="worker processes for grid experiments; default "
                          "auto-detects from the CPU affinity mask, falling "
                          "back to serial on one core")
    exp.add_argument("--trace-cache-dir", default=None,
                     help="directory for the shared trace-materialization "
                          "cache; each trace is generated once and reused "
                          "across lane jobs and invocations")
    exp.add_argument("--cache-dir", default=None,
                     help="on-disk JSON result cache for grid cells; "
                          "reruns with the same specs are served from disk")
    exp.add_argument("--csv", help="also write the result rows to a CSV file")
    exp.add_argument("--telemetry-dir", default=None,
                     help="write per-run telemetry JSONL for every computed "
                          "grid cell (fig5/variance) into this directory")
    exp.add_argument("--telemetry-interval", type=int, default=None,
                     help="accesses per telemetry window (default 1000)")
    exp.add_argument("--backend",
                     choices=["auto", *SIM_BACKENDS],
                     default="auto",
                     help="kernel backend every grid worker resolves "
                          "'auto' to; never part of the result-cache key "
                          "(backends are bit-identical)")

    fleet = sub.add_parser(
        "fleet", help="run a multi-tenant fleet of simulation lanes in "
                      "one batched loop")
    fleet.add_argument("--tenants", type=_POSITIVE, default=64,
                       help="number of concurrent lanes")
    fleet.add_argument("--pattern", action="append", choices=PATTERN_NAMES,
                       default=None,
                       help="pattern(s) lanes cycle through (repeatable; "
                            "default: all Table 1 patterns)")
    fleet.add_argument("--n", type=_POSITIVE, default=4000,
                       help="accesses per lane")
    fleet.add_argument("--working-set", type=_POSITIVE, default=200)
    fleet.add_argument("--model",
                       choices=["none", "nextline", "stride", "markov",
                                "leap", "hebbian"],
                       default="none",
                       help="per-lane prefetcher ('hebbian' clones one "
                            "CLS prototype per lane)")
    fleet.add_argument("--vocab", type=_VOCAB, default=256)
    fleet.add_argument("--memory-fraction", type=_FRACTION, default=0.5)
    fleet.add_argument("--delay", type=_NON_NEGATIVE, default=0,
                       help="prefetch landing delay in accesses")
    fleet.add_argument("--width", type=_POSITIVE, default=256,
                       help="cohort slot count (lanes beyond it queue "
                            "and refill freed slots)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--jobs", type=int, default=None,
                       help="worker processes for cohort sharding "
                            "(default: auto-detect from CPU affinity; "
                            "under two means run serially in-process)")
    fleet.add_argument("--backend",
                       choices=["auto", *SIM_BACKENDS],
                       default="auto")
    fleet.add_argument("--manifest-dir", default=None,
                       help="write the fleet JSONL manifest (aggregate "
                            "rollup + one record per tenant) here")

    serve = sub.add_parser(
        "serve", help="online train-and-serve prefetch daemon")
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    serve_run = serve_sub.add_parser(
        "run", help="replay a generated multi-tenant miss mix through "
                    "the daemon (deterministic lockstep, or --threaded)")
    serve_run.add_argument("--tenants", type=_POSITIVE, default=4)
    serve_run.add_argument("--pattern", action="append",
                           choices=list(PATTERN_NAMES),
                           help="trace pattern(s), cycled across tenants "
                                "(default: all)")
    serve_run.add_argument("--n", type=_POSITIVE, default=2000,
                           help="miss events per tenant")
    serve_run.add_argument("--working-set", type=_POSITIVE, default=64)
    serve_run.add_argument("--vocab", type=_VOCAB, default=128)
    serve_run.add_argument("--length", type=_POSITIVE, default=2,
                           help="prefetch rollout length")
    serve_run.add_argument("--width", type=_POSITIVE, default=2,
                           help="prefetch rollout width")
    serve_run.add_argument("--max-staleness", type=_POSITIVE, default=256)
    serve_run.add_argument("--ring-capacity", type=_POSITIVE, default=1024)
    serve_run.add_argument("--max-batch", type=_POSITIVE, default=64)
    serve_run.add_argument("--scalar", action="store_true",
                           help="per-lane stepping instead of the "
                                "stacked HebbianFleet path (which needs "
                                "the C backend; without it serving "
                                "steps per lane anyway)")
    serve_run.add_argument("--threaded", action="store_true",
                           help="drive the actors on real threads "
                                "(default: deterministic lockstep)")
    serve_run.add_argument("--seed", type=int, default=0)
    serve_run.add_argument("--manifest-dir", default=None,
                           help="write the serve JSONL manifest here")

    tel = sub.add_parser("telemetry", help="inspect telemetry output")
    tel_sub = tel.add_subparsers(dest="telemetry_command", required=True)
    tel_sum = tel_sub.add_parser(
        "summarize", help="render the runs recorded in a telemetry directory")
    tel_sum.add_argument("dir", help="directory of <run_id>.jsonl files")
    tel_sum.add_argument("--rows", type=int, default=20,
                         help="max table rows per run (subsampled)")

    return parser


# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    trace = trace_cache.materialize(_trace_recipe(args))
    trace.save(args.out)
    print(f"wrote {args.out}: {trace.name}, {len(trace)} accesses, "
          f"{trace.footprint_pages()} pages footprint")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    trace = (Trace.load(args.trace) if args.trace
             else trace_cache.materialize(_trace_recipe(args)))
    sim_cfg = SimConfig(memory_fraction=args.memory_fraction,
                        prefetch_delay_accesses=args.delay)
    baseline = baseline_misses(trace, sim_cfg)
    prefetcher = lane_prefetcher(_prefetcher_job(args), backend=args.backend)
    sink = None
    if args.telemetry_dir is not None:
        sink = telemetry.Telemetry(
            interval=args.telemetry_interval or telemetry.DEFAULT_INTERVAL)
    # ``int8`` only reinterprets Hebbian serving; the simulator itself
    # keeps availability-based selection in that case.
    sim_backend = "auto" if args.backend == "int8" else args.backend
    run = simulate(trace, prefetcher, sim_cfg, backend=sim_backend,
                   telemetry=sink)
    if sink is not None:
        path = sink.write(args.telemetry_dir)
        print(f"telemetry: {len(sink.windows)} windows -> {path}")

    print(f"trace: {trace.name}, {len(trace)} accesses, "
          f"{trace.footprint_pages()} pages, memory {run.capacity_pages} pages")
    print_table(
        ["prefetcher", "demand misses", "misses removed %", "accuracy",
         "coverage"],
        [
            ["none", baseline.demand_misses, 0.0, 0.0, 0.0],
            [run.prefetcher_name, run.demand_misses,
             run.percent_misses_removed(baseline),
             run.stats.prefetch_accuracy, run.stats.coverage],
        ])
    if isinstance(prefetcher, CLSPrefetcher):
        stats = prefetcher.stats
        print(f"\ntrained steps: {stats.trained_steps}, replayed pairs: "
              f"{stats.replayed_pairs}, phases seen: {stats.phases_seen}")
        if prefetcher.recall_memory is not None:
            print(f"recall: consulted {prefetcher.recall_stats.consulted}, "
                  f"answered {prefetcher.recall_stats.answered}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    which = args.which
    headers: list[str] = []
    table_rows: list[list] = []
    title = ""
    if which == "table1":
        headers = ["pattern", "distinct_deltas", "dominant_share", "period"]
        table_rows = [[s.pattern, s.distinct_deltas, s.dominant_delta_share,
                       s.period if s.period else "-"]
                      for s in tables.table1_signatures()]
        title = "Table 1 — pattern signatures"
    elif which == "table2":
        headers = ["model", "params", "params_paper", "inference_ops",
                   "training_ops"]
        table_rows = [[r.model, r.parameters, r.paper_parameters,
                       r.inference_ops, r.training_ops]
                      for r in tables.table2_rows()]
        title = "Table 2 — resource needs"
    elif which == "fig2":
        headers = ["panel", "series", "x", "latency_us"]
        for panel, series_list in (("inference", fig2.inference_panel()),
                                   ("training", fig2.training_panel())):
            for series in series_list:
                for x, y in zip(series.xs, series.latencies_us):
                    table_rows.append([panel, series.label, x, y])
        print("Figure 2a — inference latency (us) vs future predictions")
        for series in fig2.inference_panel():
            print(" ", format_series(series.label, series.xs,
                                     series.latencies_us))
        print("Figure 2b — per-example training latency (us) vs batch")
        for series in fig2.training_panel():
            print(" ", format_series(series.label, series.xs,
                                     series.latencies_us))
        title = ""  # already printed as series
    elif which == "fig3":
        config = InterferenceConfig(seed=args.seed, probe_len=100,
                                    probe_every=1000)
        headers = ["pair", "replay", "conf_A_before", "conf_A_after",
                   "conf_B_after"]
        for pattern_a, pattern_b in pattern_pairs():
            for replay in (False, True):
                run = run_interference(
                    lambda v: experiment_lstm(v, seed=args.seed),
                    pattern_a, pattern_b, replay=replay, config=config)
                table_rows.append([f"{pattern_a}->{pattern_b}", replay,
                                   run.summary.conf_a_before,
                                   run.summary.conf_a_after,
                                   run.summary.conf_b_after])
        title = "Figure 3 — interference and replay"
    elif which == "fig5":
        config = fig5.Fig5Config(n_accesses=args.n, seed=args.seed)
        result = fig5.run_fig5(config, jobs=args.jobs,
                               cache_dir=args.cache_dir,
                               trace_cache_dir=args.trace_cache_dir,
                               telemetry_dir=args.telemetry_dir,
                               telemetry_interval=args.telemetry_interval,
                               backend=args.backend)
        headers = ["application", "hebbian_removed_pct", "lstm_removed_pct"]
        for app in config.applications:
            per_model = result.for_app(app)
            table_rows.append([app,
                               per_model["cls-hebbian"].percent_misses_removed,
                               per_model["cls-lstm"].percent_misses_removed])
        title = "Figure 5 — online prefetching"
    elif which == "variance":
        from .harness.variance import fig5_seed_sweep

        config = fig5.Fig5Config(n_accesses=args.n, seed=args.seed)
        rows = fig5_seed_sweep(seeds=tuple(range(args.seeds)), config=config,
                               jobs=args.jobs, cache_dir=args.cache_dir,
                               trace_cache_dir=args.trace_cache_dir,
                               telemetry_dir=args.telemetry_dir,
                               telemetry_interval=args.telemetry_interval,
                               backend=args.backend)
        headers = ["application", "model", "mean_removed_pct", "std", "worst"]
        table_rows = [[r.application, r.model, r.mean, r.std, r.worst]
                      for r in rows]
        title = "Figure 5 seed sweep — % misses removed, mean ± std"
    elif which == "fig6":
        config = fig6.Fig6Config(seed=args.seed)
        disagg = fig6.run_disaggregated(
            config, jobs=args.jobs, cache_dir=args.cache_dir,
            trace_cache_dir=args.trace_cache_dir, backend=args.backend)
        uvm = fig6.run_uvm(config)
        headers = ["configuration", "speedup"]
        table_rows = [
            ["disagg: decentralized hebbian", disagg.hebbian_speedup],
            ["disagg: decentralized lstm", disagg.lstm_speedup],
            ["disagg: decentralized leap", disagg.leap_speedup],
            ["disagg: centralized hebbian", disagg.centralized_speedup],
            ["uvm: shared w1", uvm.shared.speedup_over(uvm.baseline)],
        ] + [[f"uvm: per-stream w{w}", r.speedup_over(uvm.baseline)]
             for w, r in sorted(uvm.per_stream_by_width.items())]
        title = "Figure 6 — target-system speedups"

    if title:
        print_table(headers, table_rows, title=title)
    if args.csv and table_rows:
        count = export_rows_csv(
            args.csv, [dict(zip(headers, row)) for row in table_rows])
        print(f"\nwrote {count} rows to {args.csv}")
    return 0


# ----------------------------------------------------------------------
def _trace_recipe(args: argparse.Namespace) -> dict:
    """The trace recipe (``harness.trace_cache``) of ``--app`` / ``--pattern``."""
    if args.app:
        return {"app": args.app, "n": args.n, "seed": args.seed}
    return {"pattern": args.pattern, "n": args.n,
            "working_set": args.working_set,
            "element_size": args.element_size, "seed": args.seed}


def _prefetcher_job(args: argparse.Namespace) -> dict:
    """The prefetcher half of the lane job ``simulate``'s args describe."""
    if args.model in ("hebbian", "lstm"):
        return {"prefetcher": f"cls-{args.model}", "cls": {
            "vocab": args.vocab, "seed": args.seed, "encoder": args.encoder,
            "prefetch_length": args.length, "prefetch_width": args.width,
            "prediction_mode": args.mode,
            "min_confidence": args.min_confidence,
            "observe_hits": args.observe_hits,
            "replay_policy": None if args.replay == "off" else args.replay,
            "recall": args.recall}}
    if args.model == "none":
        return {"prefetcher": "none"}
    if args.model == "leap":
        return {"prefetcher": "leap",
                "args": {"max_degree": max(2, args.width * 2)}}
    return {"prefetcher": args.model, "args": {"degree": args.width}}


def _fleet_jobs(args: argparse.Namespace) -> list[dict]:
    """One lane job per tenant: page-sized elements, as ``simulate
    --pattern`` defaults to, and trace seeds spawned from ``--seed``."""
    patterns = args.pattern or list(PATTERN_NAMES)
    lane: dict = {"prefetcher": args.model,
                  "sim": {"memory_fraction": args.memory_fraction,
                          "prefetch_delay_accesses": args.delay}}
    if args.model == "hebbian":
        lane.update(prefetcher="cls-hebbian",
                    cls={"vocab": args.vocab, "seed": args.seed})
    seeds = spawn_seeds(args.seed, args.tenants)
    return [{"pattern": patterns[tenant % len(patterns)], "n": args.n,
             "working_set": args.working_set, "element_size": 4096,
             "seed": seeds[tenant], **lane}
            for tenant in range(args.tenants)]


def cmd_fleet(args: argparse.Namespace) -> int:
    from .harness.fleet import run_fleet_jobs, write_fleet_manifest

    report = run_fleet_jobs(_fleet_jobs(args), jobs=args.jobs,
                            backend=args.backend, max_width=args.width)
    print_table(["metric", "value"],
                [[key, value] for key, value in report.rollup().items()],
                title=f"Fleet — {args.tenants} tenants x {args.n} "
                      f"accesses ({args.model}, {report.jobs} jobs)")
    if args.manifest_dir is not None:
        print(f"manifest: {write_fleet_manifest(report, args.manifest_dir)}")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    if args.telemetry_command == "summarize":
        print(telemetry.summarize_dir(args.dir, max_rows=args.rows))
    return 0


def _serve_events(tenants: int, patterns: list[str], n: int,
                  working_set: int, seed: int
                  ) -> list[tuple[int, int, int]]:
    """A round-robin multi-tenant miss mix from the Table 1 generators.

    Trace seeds derive from the root seed via ``spawn_seeds`` (not
    ``seed + tenant``), so tenant streams stay decorrelated and the
    tenant set can grow without re-seeding existing lanes.
    """
    seeds = spawn_seeds(seed, max(tenants, 1))
    streams = []
    for tenant in range(tenants):
        trace = generate(patterns[tenant % len(patterns)],
                         PatternSpec(n=n, working_set=working_set,
                                     element_size=4096,
                                     seed=seeds[tenant]))
        streams.append(trace.addresses)
    return [(tenant, int(streams[tenant][i]), i)
            for i in range(n) for tenant in range(tenants)]


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import PrefetchService, ServeConfig, replay_lockstep
    from .serve.loop import ThreadScheduler

    config = ServeConfig(
        vocab_size=args.vocab, prefetch_length=args.length,
        prefetch_width=args.width, max_staleness=args.max_staleness,
        ring_capacity=args.ring_capacity, max_batch=args.max_batch,
        stacked=not args.scalar, seed=args.seed)
    service = PrefetchService(config)
    patterns = args.pattern or list(PATTERN_NAMES)
    events = _serve_events(args.tenants, patterns, args.n,
                           args.working_set, args.seed)
    if args.threaded:
        sched = ThreadScheduler()
        for actor in service.actors():
            sched.add(actor)
        sched.start()
        try:
            for tenant, address, timestamp in events:
                service.submit_miss(tenant, address, timestamp)
                ticket = service.query(tenant)
                if not ticket.wait(30.0):
                    raise RuntimeError(
                        f"query {ticket.qid} unanswered after 30 s")
        finally:
            sched.stop()
    else:
        replay_lockstep(service, events)
    rows = [[key, value] for key, value in service.counters().items()]
    rows += [[f"latency_{key}", round(value, 4)]
             for key, value in service.latency_percentiles().items()]
    rows += [[f"swap_pause_{key}", round(value, 4)]
             for key, value in service.swap_pause_percentiles().items()]
    mode = "threaded" if args.threaded else "lockstep"
    print_table(["metric", "value"], rows,
                title=f"Serve — {args.tenants} tenants x {args.n} "
                      f"events ({mode})")
    if args.manifest_dir is not None:
        path = service.write_manifest(args.manifest_dir)
        print(f"manifest: {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "fleet": cmd_fleet,
        "telemetry": cmd_telemetry,
        "serve": cmd_serve,
    }
    handler = handlers[args.command]
    if args.profile:
        profiler = cProfile.Profile()
        status = profiler.runcall(handler, args)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        print("\n--- cProfile: top 25 by cumulative time ---")
        stats.sort_stats("cumulative").print_stats(25)
        return status
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
