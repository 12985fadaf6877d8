"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the full pipeline so the library is usable without
writing Python:

* ``generate``   — synthesize a Haggle-like contact trace to a file;
* ``stats``      — summarize a trace (CRAWDAD, CSV, or ``.ctrace``);
* ``trace``      — convert a text trace to the columnar ``.ctrace`` format
  (streaming, bounded memory) and print its header stats;
* ``schedule``   — run a scheduler on a trace window and print the schedule;
* ``simulate``   — Monte-Carlo a schedule produced by a scheduler
  (``--protocol`` switches the analytic sampler for the protocol-level
  message-passing simulator);
* ``protosim``   — execute a plan as per-node protocol behavior (HELLO/
  DATA/ACK frames, bounded queues, retransmissions, clock offsets) with
  full knob control and an analytic-parity cross-check;
* ``experiment`` — regenerate one of the paper's figures (4–7);
* ``bench``      — micro-benchmarks with a committed-baseline regression gate;
* ``report``     — render a recorded run ledger as a self-contained HTML page;
* ``serve``      — run the HTTP planning service (plan cache + request queue);
* ``cache``      — inspect or clear a persistent plan-cache directory.

Observability flags shared by the pipeline subcommands: ``--trace-out`` /
``--metrics-out`` (tracer exports), ``--ledger-out`` (typed domain events
as NDJSON, manifest embedded), ``--manifest-out`` (standalone
reproducibility manifest), and ``-v`` / ``--log-level`` (stream ledger
events through stdlib logging as they happen; default silent).
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from typing import List, Optional

from . import obs
from .algorithms import SCHEDULERS, canonical_scheduler_name, make_scheduler
from .errors import InfeasibleError, ReproError, SolverError
from .experiments import (
    ExperimentConfig,
    print_sweep,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
)
from .params import PAPER_PARAMS
from .schedule import check_feasibility
from .sim import run_trials
from .temporal.reachability import first_feasible_source
from .traces import (
    HaggleLikeConfig,
    haggle_like_trace,
    load_trace,
    summarize,
    write_crawdad,
    write_csv,
)
from .tveg import tveg_from_trace

__all__ = ["main", "build_parser"]


def _algorithm_arg(value: str) -> str:
    """argparse type: resolve scheduler aliases to canonical names."""
    try:
        return canonical_scheduler_name(value)
    except SolverError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _checked(convert, module: str, check: str):
    """argparse type: ``convert(value)`` once ``check`` in
    ``repro.<module>``, the check the service itself runs on it, accepts
    it, so a bad ``serve`` size or timeout exits 2 with a usage message
    before any trace loads or shard starts.  The module is imported only
    when the flag is given."""

    def parse(value: str):
        from importlib import import_module

        try:
            x = convert(value)
            getattr(import_module(f"repro.{module}"), check)(x)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return x

    return parse


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace_event JSON of the run (chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write aggregated timer/counter metrics as CSV",
    )
    parser.add_argument(
        "--ledger-out", default=None, metavar="FILE",
        help="record typed domain events to this NDJSON file "
        "(render with `repro report`)",
    )
    parser.add_argument(
        "--manifest-out", default=None, metavar="FILE",
        help="write a reproducibility manifest (config hash, seed, git SHA, "
        "platform) as JSON",
    )


def _logging_parent() -> argparse.ArgumentParser:
    """Shared ``-v`` / ``--log-level`` flags, usable after any subcommand."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="stream ledger events to stderr as they happen",
    )
    p.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="stdlib logging level for streamed events (implies -v)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-efficient delay-constrained broadcast on "
        "time-varying energy-demand graphs (ICPP 2015 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _logging_parent()

    g = sub.add_parser("generate", parents=[common],
                       help="synthesize a Haggle-like contact trace")
    g.add_argument("output", help="output path (.csv → CSV, else CRAWDAD)")
    g.add_argument("--nodes", type=int, default=20)
    g.add_argument("--horizon", type=float, default=17000.0)
    g.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("stats", parents=[common],
                       help="summarize a contact trace")
    s.add_argument("trace", help="trace file (CRAWDAD, CSV, or .ctrace)")

    tr = sub.add_parser(
        "trace", parents=[common],
        help="convert a trace to the columnar .ctrace format and/or "
        "print its header stats",
    )
    tr.add_argument("input",
                    help="input trace (CRAWDAD, CSV, or .ctrace)")
    tr.add_argument("-o", "--output", default=None, metavar="FILE",
                    help="write the columnar .ctrace file here (text "
                    "inputs stream straight into the columns; omit to "
                    "only print stats)")
    tr.add_argument("--horizon", type=float, default=None,
                    help="override the trace horizon (default: last "
                    "contact end)")
    tr.add_argument("--node-type", choices=("int", "str"), default="int",
                    help="node-label type for text inputs (default int)")

    c = sub.add_parser("schedule", parents=[common],
                       help="schedule one broadcast on a trace window")
    c.add_argument("trace", help="trace file (CRAWDAD, CSV, or .ctrace)")
    c.add_argument("--algorithm", type=_algorithm_arg, default="eedcb",
                   metavar="ALGO",
                   help="one of %s (aliases like FR_EEDCB accepted)"
                   % "/".join(sorted(SCHEDULERS)))
    c.add_argument("--channel", choices=("static", "rayleigh"), default=None,
                   help="default: static for plain, rayleigh for fr-* algorithms")
    c.add_argument("--window-start", type=float, default=0.0)
    c.add_argument("--delay", type=float, default=2000.0)
    c.add_argument("--source", type=int, default=None,
                   help="default: first broadcast-feasible node")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--save", default=None,
                   help="also write the schedule to this CSV file")
    _add_obs_flags(c)

    m = sub.add_parser("simulate", parents=[common],
                       help="schedule + Monte-Carlo delivery estimate")
    for src_parser in (m,):
        src_parser.add_argument("trace")
        src_parser.add_argument("--algorithm", type=_algorithm_arg,
                                default="fr-eedcb", metavar="ALGO")
        src_parser.add_argument("--channel", choices=("static", "rayleigh"), default=None)
        src_parser.add_argument("--window-start", type=float, default=0.0)
        src_parser.add_argument("--delay", type=float, default=2000.0)
        src_parser.add_argument("--source", type=int, default=None)
        src_parser.add_argument("--seed", type=int, default=0)
    m.add_argument("--trials", type=int, default=300)
    m.add_argument("--workers", type=int, default=1,
                   help="Monte-Carlo worker processes (1 = serial, -1 = one "
                   "per CPU); results are bit-identical for any value")
    m.add_argument("--schedule-file", default=None,
                   help="simulate this saved schedule instead of rescheduling")
    m.add_argument("--protocol", action="store_true",
                   help="run the protocol-level simulator (per-node message "
                   "passing with ACK-driven retransmissions) instead of the "
                   "analytic round sampler")
    _add_obs_flags(m)

    p = sub.add_parser(
        "protosim", parents=[common],
        help="execute a plan as per-node protocol behavior "
        "(HELLO/DATA/ACK, queues, retransmissions, clock offsets)",
    )
    p.add_argument("trace")
    p.add_argument("--algorithm", type=_algorithm_arg, default="eedcb",
                   metavar="ALGO")
    p.add_argument("--channel", choices=("static", "rayleigh"), default=None)
    p.add_argument("--window-start", type=float, default=0.0)
    p.add_argument("--delay", type=float, default=2000.0)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--workers", type=int, default=1,
                   help="trial worker processes (1 = serial, -1 = one per "
                   "CPU); results are bit-identical for any value")
    p.add_argument("--schedule-file", default=None,
                   help="execute this saved schedule instead of rescheduling")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retransmission attempts per plan row (default 2)")
    p.add_argument("--backoff", type=float, default=5.0,
                   help="base retransmission delay; attempt a waits "
                   "backoff*2^a (default 5)")
    p.add_argument("--no-ack", action="store_true",
                   help="disable ACKs (retries become blind repeats)")
    p.add_argument("--hello-cost", type=float, default=0.0,
                   help="transmit cost of one HELLO beacon (default 0)")
    p.add_argument("--queue-capacity", type=int, default=16,
                   help="per-node transmit queue bound (default 16)")
    p.add_argument("--service-time", type=float, default=0.0,
                   help="radio occupancy per DATA frame (default 0)")
    p.add_argument("--clock-jitter", type=float, default=0.0,
                   help="per-node clock offsets drawn from [-J, +J] "
                   "(default 0 = synchronized)")
    p.add_argument("--parity", action="store_true",
                   help="use the degenerate analytic-parity configuration "
                   "(no retries, no ACKs, zero offsets)")
    p.add_argument("--check-parity", action="store_true",
                   help="also cross-validate one parity-mode run against "
                   "the analytic simulator (non-fading channels only); "
                   "a mismatch fails the command")
    _add_obs_flags(p)

    e = sub.add_parser("experiment", parents=[common],
                       help="regenerate a paper figure")
    e.add_argument("figure", choices=("fig4", "fig5", "fig6", "fig7"))
    e.add_argument("--repetitions", type=int, default=3)
    e.add_argument("--trials", type=int, default=100)
    e.add_argument("--nodes", type=int, default=20)
    e.add_argument("--seed", type=int, default=2015)
    e.add_argument("--workers", type=int, default=1,
                   help="Monte-Carlo worker processes (1 = serial, -1 = one "
                   "per CPU); results are bit-identical for any value")
    e.add_argument("--csv-dir", default=None,
                   help="also write each panel as CSV into this directory "
                   "(plus a manifest.json)")
    _add_obs_flags(e)

    b = sub.add_parser(
        "bench", parents=[common],
        help="run the micro-benchmark suite and gate against a baseline",
    )
    b.add_argument("--quick", action="store_true",
                   help="smaller instance and fewer repeats (CI smoke mode)")
    b.add_argument("--repeats", type=int, default=None,
                   help="override the per-op repeat count")
    b.add_argument("--nodes", type=int, default=None,
                   help="override the benchmark instance size")
    b.add_argument("--out", default=None, metavar="FILE",
                   help="output path (default: ./BENCH_<date>.json)")
    b.add_argument("--baseline", default="benchmarks/baseline.json",
                   metavar="FILE",
                   help="baseline to gate against (skipped when missing)")
    b.add_argument("--tolerance", type=float, default=0.25,
                   help="fractional p50/counter regression tolerance "
                   "(default 0.25)")
    b.add_argument("--strict-ops", action="store_true",
                   help="fail the gate when a tier-1 op present in the "
                   "baseline is missing from this run")
    b.add_argument("--write-baseline", action="store_true",
                   help="write the result as the new baseline instead of "
                   "gating")

    r = sub.add_parser(
        "report", parents=[common],
        help="render a recorded NDJSON run ledger as self-contained HTML",
    )
    r.add_argument("ledger", help="NDJSON file from --ledger-out")
    r.add_argument("-o", "--output", default="report.html",
                   help="output HTML path (default: report.html)")

    v = sub.add_parser(
        "serve", parents=[common],
        help="run the HTTP planning service (POST /plan, POST /plan_many, "
        "GET /healthz, GET /metrics, GET /cache/stats)",
    )
    v.add_argument("traces", nargs="*", metavar="TRACE",
                   help="trace files to host (CRAWDAD, CSV, or .ctrace — "
                   "the columnar format loads with an O(1) cache-key "
                   "fingerprint), addressable by file stem in requests")
    v.add_argument("--synthetic", type=int, default=None, metavar="N",
                   help="also host an N-node synthetic Haggle-like trace "
                   "named 'synthetic' (default when no trace files given: "
                   "20 nodes)")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=8437)
    v.add_argument("--seed", type=int, default=0,
                   help="seed for the synthetic trace")
    v.add_argument("--workers", default=None,
                   type=_checked(int, "parallel", "resolve_workers"),
                   help="threads computing distinct plans at once "
                   "(default: 1)")
    v.add_argument("--max-queue", default=256,
                   type=_checked(int, "service.batcher", "check_max_queue"),
                   help="admission bound; requests past it get HTTP 429")
    v.add_argument("--timeout", default=30.0,
                   type=_checked(float, "service.server", "_check_timeout"),
                   help="per-request seconds before HTTP 504")
    v.add_argument("--cache-capacity", default=128,
                   type=_checked(int, "service.cache", "check_capacity"),
                   help="in-memory plan-cache entries")
    v.add_argument("--cache-ttl", type=float, default=None,
                   help="plan-cache expiry in seconds (default: none)")
    v.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist plans to this directory (survives restarts; "
                   "with --shards it is the tier every shard shares)")
    v.add_argument("--shards", type=int, default=0, metavar="N",
                   help="worker processes behind a consistent-hash ring "
                   "(default 0: one in-process service behind the async "
                   "front-end)")
    v.add_argument("--warm", default=None, metavar="FILE",
                   help="JSON array of /plan request bodies replayed into "
                   "the cache at boot (optional \"op\": \"plan_many\")")
    v.add_argument("--max-inflight", default=64,
                   type=_checked(int, "service.server", "check_max_inflight"),
                   help="per-shard in-flight request bound; past it that "
                   "shard answers 429 (default 64)")
    v.add_argument("--edge-cache", type=int, default=1024,
                   help="front-end response-cache entries for repeat /plan "
                   "configurations; 0 disables (default 1024)")

    t = sub.add_parser(
        "top", parents=[common],
        help="live per-shard view of a running service: polls GET /metrics "
        "and renders qps, latency percentiles, and cache hit ratios",
    )
    t.add_argument("url", nargs="?", default="http://127.0.0.1:8437",
                   help="base URL of the service (default "
                   "http://127.0.0.1:8437)")
    t.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    t.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="render N frames then exit (default: until Ctrl-C)")
    t.add_argument("--once", action="store_true",
                   help="render a single frame and exit (same as "
                   "--iterations 1)")
    t.add_argument("--no-clear", action="store_true",
                   help="append frames instead of clearing the screen "
                   "(useful when piping to a file)")

    k = sub.add_parser(
        "cache", parents=[common],
        help="inspect or clear a persistent plan-cache directory",
    )
    k.add_argument("dir", help="plan-cache directory (from serve --cache-dir "
                   "or PlanCache(disk_dir=...))")
    k.add_argument("--clear", action="store_true",
                   help="delete every cached plan instead of listing them")
    return parser


def _prepare(args):
    """Shared trace-window → TVEG → source pipeline for schedule/simulate."""
    trace = load_trace(args.trace)
    window = trace.restrict_window(
        args.window_start, args.window_start + args.delay
    ).shift(-args.window_start)
    channel = args.channel or (
        "rayleigh" if args.algorithm.startswith("fr-") else "static"
    )
    tveg = tveg_from_trace(window, channel, seed=args.seed)
    source = args.source
    if source is None:
        source = first_feasible_source(tveg.tvg, 0.0, args.delay)
        if source is None:
            raise InfeasibleError(
                "no broadcast-feasible source in this window; "
                "try --window-start elsewhere or a larger --delay"
            )
    kwargs = {"seed": args.seed} if "rand" in args.algorithm else {}
    scheduler = make_scheduler(args.algorithm, **kwargs)
    return tveg, source, scheduler


def _cmd_generate(args) -> int:
    trace = haggle_like_trace(
        HaggleLikeConfig(num_nodes=args.nodes, horizon=args.horizon),
        seed=args.seed,
    )
    if args.output.endswith(".csv"):
        write_csv(trace, args.output)
    else:
        write_crawdad(trace, args.output)
    print(f"wrote {trace} to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    print(summarize(load_trace(args.trace)))
    return 0


def _cmd_trace(args) -> int:
    from .traces import CTRACE_SUFFIX

    node_type = {"int": int, "str": str}[args.node_type]
    trace = load_trace(args.input, node_type=node_type,
                       horizon=args.horizon)
    if args.output:
        out = args.output
        if not out.endswith(CTRACE_SUFFIX):
            out += CTRACE_SUFFIX
        trace.save(out)
        print(f"# wrote {out}")
    lo, hi = trace.time_span()
    print(f"nodes:        {trace.num_nodes}")
    print(f"contacts:     {trace.num_contacts}")
    print(f"horizon:      {trace.horizon:g}")
    print(f"time span:    [{lo:g}, {hi:g}]")
    print(f"fingerprint:  {trace.fingerprint()}")
    return 0


def _cmd_schedule(args) -> int:
    from .schedule.io import write_schedule_csv

    tveg, source, scheduler = _prepare(args)
    t0 = time.perf_counter()
    result = scheduler.run(tveg, source, args.delay)
    schedule = result.schedule
    if args.save:
        write_schedule_csv(schedule, args.save)
    print(f"# algorithm={args.algorithm} source={source} delay={args.delay:g}")
    print(f"# total normalized energy: "
          f"{PAPER_PARAMS.normalize_energy(schedule.total_cost):.3f}")
    report = check_feasibility(
        tveg, schedule, source, args.delay, record="final"
    )
    obs.emit(
        obs.EV_RUN_SUMMARY,
        algorithm=args.algorithm,
        num_nodes=tveg.num_nodes,
        transmissions=len(schedule),
        total_cost=schedule.total_cost,
        feasible=report.feasible,
        stage_seconds=result.info.get("stage_seconds", {}),
        wall_seconds=time.perf_counter() - t0,
    )
    print(f"# feasible: {report.feasible}")
    print("# relay time cost")
    for s in schedule:
        print(f"{s.relay} {s.time:.3f} {s.cost:.6e}")
    return 0 if report.feasible else 2


def _cmd_simulate(args) -> int:
    from .schedule.io import read_schedule_csv

    tveg, source, scheduler = _prepare(args)
    if args.schedule_file:
        schedule = read_schedule_csv(args.schedule_file)
    else:
        schedule = scheduler.schedule(tveg, source, args.delay)
    if getattr(args, "protocol", False):
        return _simulate_protocol(args, tveg, schedule, source)
    summary = run_trials(
        tveg, schedule, source, num_trials=args.trials, seed=args.seed,
        count_scheduled_energy=True, workers=args.workers,
    )
    lo, hi = summary.delivery_ci95()
    label = f"file:{args.schedule_file}" if args.schedule_file else args.algorithm
    obs.emit(
        obs.EV_RUN_SUMMARY,
        algorithm=label,
        num_nodes=tveg.num_nodes,
        transmissions=len(schedule),
        total_cost=schedule.total_cost,
        mean_delivery=summary.mean_delivery,
        mean_energy=summary.mean_energy,
        trials=summary.num_trials,
    )
    print(f"algorithm:  {label}")
    print(f"energy:     {PAPER_PARAMS.normalize_energy(schedule.total_cost):.3f} (normalized)")
    print(f"delivery:   {summary.mean_delivery:.4f}  (95% CI [{lo:.4f}, {hi:.4f}])")
    print(f"trials:     {summary.num_trials}")
    return 0


def _protocol_config(args):
    """Build a ProtocolConfig from protosim CLI flags (or the default)."""
    from .protosim import ProtocolConfig

    if getattr(args, "parity", False):
        return ProtocolConfig.parity()
    if not hasattr(args, "max_retries"):
        return ProtocolConfig()  # `simulate --protocol`: library defaults
    return ProtocolConfig(
        max_retries=args.max_retries,
        backoff=args.backoff,
        ack=not args.no_ack,
        hello_cost=args.hello_cost,
        queue_capacity=args.queue_capacity,
        service_time=args.service_time,
        clock_jitter=args.clock_jitter,
    )


def _simulate_protocol(args, tveg, schedule, source) -> int:
    """Shared protocol-run body of ``simulate --protocol`` / ``protosim``."""
    from .protosim import check_analytic_parity, run_protocol_trials

    label = (
        f"file:{args.schedule_file}" if args.schedule_file else args.algorithm
    )
    if getattr(args, "check_parity", False):
        report = check_analytic_parity(tveg, schedule, source, args.delay)
        verdict = "ok" if report.ok else "MISMATCH"
        print(f"parity:     {verdict} (informed={len(report.analytic_informed)}"
              f"/{tveg.num_nodes} nodes, lossless static channel)")
        for line in report.mismatches:
            print(f"#   {line}")
        if not report.ok:
            return 2
    config = _protocol_config(args)
    summary = run_protocol_trials(
        tveg, schedule, source, args.delay, num_trials=args.trials,
        seed=args.seed, config=config, workers=args.workers,
    )
    lo, hi = summary.delivery_ci95()
    obs.emit(
        obs.EV_RUN_SUMMARY,
        algorithm=label,
        num_nodes=tveg.num_nodes,
        transmissions=len(schedule),
        total_cost=schedule.total_cost,
        mean_delivery=summary.mean_delivery,
        mean_energy=summary.mean_energy,
        mean_retransmits=summary.mean_retransmits,
        trials=summary.num_trials,
        engine="protocol",
    )
    print(f"algorithm:  {label} (protocol engine)")
    print(f"energy:     {PAPER_PARAMS.normalize_energy(summary.mean_energy):.3f} "
          "(normalized, radiated incl. retransmissions + overhead)")
    print(f"delivery:   {summary.mean_delivery:.4f}  (95% CI [{lo:.4f}, {hi:.4f}])")
    print(f"data sent:  {summary.mean_data_sent:.2f} frames/trial "
          f"({summary.mean_retransmits:.2f} retransmissions)")
    print(f"trials:     {summary.num_trials}")
    return 0


def _cmd_protosim(args) -> int:
    from .schedule.io import read_schedule_csv

    tveg, source, scheduler = _prepare(args)
    if args.schedule_file:
        schedule = read_schedule_csv(args.schedule_file)
    else:
        schedule = scheduler.schedule(tveg, source, args.delay)
    return _simulate_protocol(args, tveg, schedule, source)


def _cmd_experiment(args) -> int:
    from pathlib import Path

    from .experiments.export import write_sweep_csv

    config = ExperimentConfig(
        repetitions=args.repetitions,
        trials=args.trials,
        num_nodes=args.nodes,
        seed=args.seed,
        workers=args.workers,
    )
    if args.figure == "fig4":
        panels = [run_fig4(ch, config) for ch in ("static", "rayleigh")]
    elif args.figure == "fig5":
        panels = [run_fig5(ch, config) for ch in ("static", "rayleigh")]
    elif args.figure == "fig6":
        panels = list(run_fig6(config))
    else:
        panels = [run_fig7(ch, config) for ch in ("static", "rayleigh")]

    for i, panel in enumerate(panels):
        print_sweep(panel)
        if args.csv_dir:
            out = Path(args.csv_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{args.figure}_panel{chr(ord('a') + i)}.csv"
            write_sweep_csv(panel, path)
            print(f"# wrote {path}")
    if args.csv_dir:
        manifest_path = Path(args.csv_dir) / "manifest.json"
        obs.write_manifest(_args_manifest(args), manifest_path)
        print(f"# wrote {manifest_path}")
    return 0


def _cmd_bench(args) -> int:
    import os

    from .obs import bench

    # The suite times the shipped default (instrumentation off); suspend
    # any ledger the -v flag switched on for the duration of the run.
    old_ledger = obs.set_ledger(None)
    try:
        doc = bench.run_bench(quick=args.quick, repeats=args.repeats,
                              num_nodes=args.nodes)
    finally:
        obs.set_ledger(old_ledger)
    frac = doc["overhead"]["estimated_fraction_of_eedcb"]
    print(f"# disabled-instrumentation overhead: {frac:.2e} of an EEDCB run "
          f"({doc['overhead']['noop_call_ns']:.0f} ns/site)")
    for op, r in doc["results"].items():
        tier = "tier1" if r["tier1"] else "     "
        print(f"{op:20s} {tier}  p50={r['p50_ms']:10.2f} ms  "
              f"p95={r['p95_ms']:10.2f} ms")

    if args.write_baseline:
        bench.write_bench(doc, args.baseline)
        print(f"# wrote baseline to {args.baseline}")
        return 0

    out = args.out or bench.bench_filename()
    bench.write_bench(doc, out)
    print(f"# wrote {out}")

    if not os.path.exists(args.baseline):
        print(f"# no baseline at {args.baseline}; gate skipped "
              "(create one with --write-baseline)", file=sys.stderr)
        return 0
    baseline = bench.read_bench(args.baseline)
    age = bench.baseline_staleness(baseline)
    if age is not None and age > bench.STALE_BASELINE_COMMITS:
        print(f"# warning: baseline {args.baseline} is {age} commits behind "
              f"HEAD (> {bench.STALE_BASELINE_COMMITS}); consider "
              "--write-baseline", file=sys.stderr)
    problems = bench.compare(doc, baseline, tolerance=args.tolerance,
                             strict_missing=args.strict_ops)
    if problems:
        for p in problems:
            print(f"REGRESSION: {p}", file=sys.stderr)
        return 3
    print("# regression gate passed")
    return 0


def _cmd_report(args) -> int:
    from .obs.report import write_report

    try:
        n = write_report(args.ledger, args.output)
    except ValueError as exc:
        raise ReproError(f"{args.ledger} is not a ledger NDJSON file ({exc})")
    print(f"# rendered {n} events from {args.ledger} to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from .service import (
        LocalBackend,
        PlanCache,
        PlanningService,
        ShardPool,
        read_warm_file,
    )

    traces = {}
    for path in args.traces:
        traces[Path(path).stem] = load_trace(path)
    synthetic = args.synthetic if args.synthetic is not None else (
        20 if not traces else None
    )
    if synthetic is not None:
        traces["synthetic"] = haggle_like_trace(
            HaggleLikeConfig(num_nodes=synthetic), seed=args.seed
        )

    warm_configs = read_warm_file(args.warm) if args.warm else None
    cache_kwargs = dict(
        capacity=args.cache_capacity, ttl=args.cache_ttl,
        disk_dir=args.cache_dir,
    )
    service_kwargs = dict(
        workers=args.workers, max_queue=args.max_queue,
        timeout=args.timeout,
    )
    logger = (logging.getLogger("repro.serve")
              if (args.verbose or args.log_level) else None)

    # one in-process backend, or a shard pool
    if args.shards > 0:
        backend = ShardPool(
            traces, args.shards, cache_kwargs=cache_kwargs,
            service_kwargs=service_kwargs, max_inflight=args.max_inflight,
        )
    else:
        service = PlanningService(
            traces, cache=PlanCache(**cache_kwargs), **service_kwargs
        )
        backend = LocalBackend(service, max_inflight=args.max_inflight)
    try:
        return _serve(args, backend, traces, warm_configs, logger)
    except BaseException:
        # A failed boot (say, a taken port) must not leave shard workers
        # behind to hold the process open.
        backend.drain(timeout=5.0)
        raise


def _serve(args, backend, traces, warm_configs, logger) -> int:
    import asyncio
    import signal

    from .service import AsyncPlanningServer

    if warm_configs:
        stats = backend.warm(warm_configs)
        print(f"# warmed {stats['warmed']} configs "
              f"({stats['failed']} failed)")
    server = AsyncPlanningServer(
        backend, args.host, args.port, timeout=args.timeout,
        edge_cache=args.edge_cache, logger=logger,
    )

    async def run() -> None:
        await server.start()
        host, port = server.server_address
        shape = (f"{args.shards} shards" if args.shards > 0
                 else "1 process")
        print(f"# serving on http://{host}:{port}  "
              f"(traces: {', '.join(sorted(traces))})")
        print(f"# async front-end over {shape}; SIGTERM drains gracefully")
        print("# POST /plan | POST /plan_many | GET /healthz | "
              "GET /metrics | GET /cache/stats — Ctrl-C to stop", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-Unix event loop
                pass
        await server.serve_until(stop)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    edge = server.edge_stats()
    print(f"\n# served {server.served} requests ({server.errors} errors, "
          f"edge cache hits {edge['hits']})", file=sys.stderr)
    return 0


def _cmd_top(args) -> int:
    from .service import top_loop

    iterations = 1 if args.once else args.iterations
    return top_loop(
        args.url, interval=args.interval, iterations=iterations,
        clear=not args.no_clear,
    )


def _cmd_cache(args) -> int:
    import os

    from .schedule.io import read_plan_json
    from .service import PlanCache

    if not os.path.isdir(args.dir):
        raise ReproError(f"not a cache directory: {args.dir}")
    cache = PlanCache(disk_dir=args.dir)
    keys = cache.disk_keys()
    if args.clear:
        n = cache.clear(disk=True)
        print(f"# removed {n} cached plans from {args.dir}")
        return 0
    print(f"# {len(keys)} cached plans in {args.dir}")
    if keys:
        print(f"# {'key':16s}  {'algorithm':10s}  {'deadline':>9s}  "
              f"{'relays':>6s}  {'energy':>10s}")
    for key in keys:
        try:
            doc = read_plan_json(os.path.join(args.dir, key + ".json"))
        except ReproError:
            print(f"{key}  (unreadable)")
            continue
        cost = sum(row[2] for row in doc.get("schedule", []))
        print(f"{key}  {doc.get('algorithm', '?'):10s}  "
              f"{doc.get('deadline', float('nan')):9g}  "
              f"{len(doc.get('schedule', [])):6d}  "
              f"{PAPER_PARAMS.normalize_energy(cost):10.3f}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "schedule": _cmd_schedule,
    "simulate": _cmd_simulate,
    "protosim": _cmd_protosim,
    "experiment": _cmd_experiment,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "cache": _cmd_cache,
}

#: args entries that are outputs/plumbing, not part of the run's identity
_NON_CONFIG_ARGS = frozenset(
    ("trace_out", "metrics_out", "ledger_out", "manifest_out", "save",
     "csv_dir", "verbose", "log_level", "out", "output", "baseline",
     "write_baseline")
)


def _args_manifest(args):
    """A reproducibility manifest for one CLI invocation."""
    config = {
        k: v for k, v in vars(args).items()
        if k not in _NON_CONFIG_ARGS and v is not None
    }
    return obs.run_manifest(config=config, seed=getattr(args, "seed", None))


def _export_obs(args) -> None:
    """Write the requested trace/metrics files from the global tracer."""
    from .obs.export import write_chrome_trace, write_metrics_csv

    snap = obs.snapshot()
    if args.trace_out:
        write_chrome_trace(snap, args.trace_out)
        print(f"# wrote trace to {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        write_metrics_csv(snap, args.metrics_out)
        print(f"# wrote metrics to {args.metrics_out}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    tracing = bool(
        getattr(args, "trace_out", None) or getattr(args, "metrics_out", None)
    )
    ledger_out = getattr(args, "ledger_out", None)
    log_level = getattr(args, "log_level", None)
    streaming = bool(getattr(args, "verbose", False) or log_level)
    recording = bool(ledger_out or streaming)
    if tracing:
        obs.enable()
    if recording:
        logger = None
        if streaming:
            level = getattr(logging, (log_level or "info").upper())
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(message)s"))
            logger = logging.getLogger("repro.ledger")
            logger.setLevel(level)
            logger.addHandler(handler)
            logger.propagate = False
        obs.enable_ledger(logger=logger)
        # First record: the run's manifest, so the NDJSON file (and the -v
        # stream) is self-describing.
        obs.emit(obs.EV_MANIFEST, **_args_manifest(args))
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    finally:
        if tracing:
            try:
                _export_obs(args)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
            finally:
                obs.disable()
        if recording:
            try:
                if ledger_out:
                    n = obs.write_ledger_ndjson(ledger_out)
                    print(f"# wrote {n} events to {ledger_out}",
                          file=sys.stderr)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
            finally:
                obs.disable_ledger()
        # Written even when the run failed: the manifest records what was
        # *attempted*, which is exactly what a failure post-mortem needs.
        if getattr(args, "manifest_out", None):
            try:
                obs.write_manifest(_args_manifest(args), args.manifest_out)
                print(f"# wrote manifest to {args.manifest_out}",
                      file=sys.stderr)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
