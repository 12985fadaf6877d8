#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload eedcb-n50 --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``eedcb-n50`` -- ``plan_broadcast`` (EEDCB, default kernel) on the N=50
  Haggle-like scaling trace, one stationary 2000 s window per call;
* ``fr-sweep-n20`` -- one Fig. 5(b) sweep (``run_fig5``, Rayleigh channel,
  FR-EEDCB/FR-GREED/FR-RAND) per operation;
* ``serve-mixed`` -- the planning service (``repro serve``) under cache-hit
  and cold-plan traffic from :mod:`loadgen`.

Each run starts :data:`CHILDREN` fresh program processes one after the
other, each pinned to one vCPU (``child.py``), times each one's set-up,
and splits the timed operations among them.  Compute times are scaled to
the reference speed sampled on the program's vCPU in each process (see
:mod:`refloop`).  ``--trace 1`` runs one traced process instead and prints
the per-layer metrics.  The last line of standard output is the result;
the exit code is nonzero, with no result printed, when the program cannot
be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refloop  # noqa: E402

#: program processes per run; ``setup_s`` is the median of their set-ups
CHILDREN = 3
#: seconds of one reference-loop phase
REF_S = 0.4
#: the benchmark's work files, inside the checkout (ignored by git)
WORKDIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("eedcb-n50", "fr-sweep-n20", "serve-mixed")
#: the N=50 scaling trace of the ROADMAP (Haggle-like, trace seed 99)
EEDCB_TRACE = {"num_nodes": 50, "seed": 99}
#: eedcb-n50 warm-up: a short window outside the timed pool
EEDCB_WARMUP = {"start": 2000.0, "deadline": 500.0}
#: fr-sweep-n20 warm-up: one delay, one window, a few trials
SWEEP_WARMUP = {"seed": 7, "trials": 5}
#: about how long one operation takes on a 2-vCPU cloud VM (s); a run
#: takes as many as fill ``--seconds``
OP_SECONDS = {"eedcb-n50": 6.5, "fr-sweep-n20": 4.5}
#: how closely each workload's times follow the reference loop: they are
#: scaled by the reference factor of their in-operation samples to this
#: power.  Over five runs whose loop drifted 1.7x, the spread of one
#: plan's time across runs was least at 0.7 for eedcb-n50 (3.2 %; 10.9 %
#: raw), whose ~1 GB of array work the loop does not see, and at 0.9-1.0
#: for a sweep (4.3-4.5 %; 16.5 % raw), which is mostly interpreter work.
SCALE_POWER = {"eedcb-n50": 0.7, "fr-sweep-n20": 1.0}


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def pin(cpu: int) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


class Run:
    """What one benchmark run shares: vCPUs, environment, work files."""

    def __init__(self, root: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        cpus = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else [0])
        #: the program's vCPU; the benchmark itself runs on the other one
        self.prog_cpu = cpus[-1]
        self.own_cpu = cpus[0]
        self.workdir = os.path.join(root, WORKDIR)
        os.makedirs(self.workdir, exist_ok=True)
        env = dict(os.environ)
        env.pop("REPRO_COMPUTE", None)  # measure the default kernel
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        pin(self.own_cpu)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def ref_on_program_cpu(self, seconds: float = REF_S) -> List[float]:
        """One reference phase on the program's vCPU, from this process."""
        pin(self.prog_cpu)
        try:
            return refloop.sample(seconds)
        finally:
            pin(self.own_cpu)

    def child_argv(self, spec: Dict[str, Any], name: str) -> Tuple[List[str], str]:
        spec = dict(spec, cpu=self.prog_cpu, ref_s=REF_S)
        spec_path, out_path = self.path(f"{name}.spec.json"), self.path(f"{name}.out.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        if os.path.exists(out_path):
            os.unlink(out_path)
        return [sys.executable, os.path.join(HERE, "child.py"), spec_path, out_path], out_path

    def run_child(self, spec: Dict[str, Any], name: str) -> Dict[str, Any]:
        """Spawn one program process, wait for it, return its report.

        Adds ``setup_s``, spawn to ready scaled by the reference phases
        right before the spawn and right after the set-up, and ``scale``,
        the factor that turns the process's raw times into reference-speed
        times (from all of its own reference phases).
        """
        argv, out_path = self.child_argv(spec, name)
        before = self.ref_on_program_cpu()
        t_spawn = time.monotonic()
        proc = subprocess.run(argv, env=self.env, cwd=self.root,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        if proc.returncode != 0 or not os.path.exists(out_path):
            raise BenchError(f"{name} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-800:]}")
        with open(out_path, "r", encoding="utf-8") as f:
            out = json.load(f)
        out["setup_s"] = ((out["ready"] - t_spawn)
                          * refloop.scale(before + out["ref_ready"]))
        out["scale"] = refloop.scale(out["ref"])
        return out


# ----------------------------------------------------------------------
# work counters that must repeat exactly between runs of one checkout
# ----------------------------------------------------------------------


def check_counters(run: Run, key: str, counters: Dict[str, float]) -> bool:
    """Compare with what earlier runs in this checkout saw; record new."""
    path = run.path("counters.json")
    seen: Dict[str, Dict[str, float]] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            seen = json.load(f)
    old = seen.setdefault(key, {})
    same = all(old[k] == v for k, v in counters.items() if k in old)
    old.update({k: v for k, v in counters.items() if k not in old})
    with open(path, "w", encoding="utf-8") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return same


# ----------------------------------------------------------------------
# eedcb-n50 and fr-sweep-n20: operations in pinned program processes
# ----------------------------------------------------------------------


def write_trace(run: Run, name: str, num_nodes: int, seed: int) -> str:
    """Generate a Haggle-like trace and write it as ``.ctrace``."""
    sys.path.insert(0, os.path.join(run.root, "src"))
    from repro.traces import HaggleLikeConfig, haggle_like_trace
    from repro.traces.store import ContactStore

    path = run.path(f"{name}.ctrace")
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=num_nodes), seed=seed)
    ContactStore.from_trace(trace).save(path)
    return path


def compute_workload(run: Run, workload: str, pool: List[Dict[str, Any]]
                     ) -> Tuple[int, int, Dict[str, float]]:
    """Run ``eedcb-n50`` or ``fr-sweep-n20``; ``(attempted, failed, metrics)``."""
    spec: Dict[str, Any] = {"workload": workload, "trace": run.trace,
                            "run_id": f"{workload}-{run.seed}"}
    if workload == "eedcb-n50":
        spec["input"] = write_trace(run, "eedcb-n50", **EEDCB_TRACE)
        spec["warmup"] = EEDCB_WARMUP
    else:
        spec["warmup"] = SWEEP_WARMUP
    # A run takes the first pool entries that fill --seconds (at least one
    # per process; the pool is sized for 20 s) and the seed orders them and
    # deals them to the processes.  Entries of one size still differ by up
    # to 30 % in work, so entries drawn per seed would move the medians by
    # more than any bound.
    expected = {e["id"]: e for e in pool}
    count = max(CHILDREN, min(len(pool), round(run.seconds / OP_SECONDS[workload])))
    order = random.Random(run.seed).sample(pool[:count], count)
    ops = [{k: v for k, v in e.items() if k not in ("digest", "counters")}
           for e in order]
    if run.trace:
        spec["spans_out"] = run.path(f"{workload}.spans.json")
        out = run.run_child(dict(spec, ops=ops[:1]), f"{workload}-traced")
        return traced_metrics(run, workload, out, expected)

    outs = [run.run_child(dict(spec, ops=ops[k::CHILDREN]), f"{workload}-{k}")
            for k in range(CHILDREN)]
    times, failed, attempted = [], 0, 0
    for out in outs:
        for op in out["ops"]:
            attempted += 1
            if not op_correct(run, workload, op, expected[op["id"]]):
                failed += 1
            scale = refloop.scale(op.get("ref") or out["ref"])
            times.append(op["ms"] * scale ** SCALE_POWER[workload])
    op_ms = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(o["setup_s"] for o in outs),
        "op_ms": op_ms,
        "cold_ms": op_ms,  # no cache answers any plan or sweep
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
    }
    return attempted, failed, metrics


def op_correct(run: Run, workload: str, op: Dict[str, Any],
               want: Dict[str, Any]) -> bool:
    """Feasible, the recorded output digest, and repeatable counters."""
    if not op["ok"]:
        print(f"perfbench: {workload} op {op['id']} failed: "
              f"{op.get('error', 'infeasible plan')}", file=sys.stderr)
        return False
    if op["digest"] != want["digest"]:
        print(f"perfbench: {workload} op {op['id']} output digest "
              f"{op['digest']} != recorded {want['digest']}", file=sys.stderr)
        return False
    if not check_counters(run, f"{workload}/{op['id']}", op["counters"]):
        print(f"perfbench: {workload} op {op['id']} work counters changed "
              f"between runs: {op['counters']}", file=sys.stderr)
        return False
    return True


def traced_metrics(run: Run, workload: str, out: Dict[str, Any],
                   expected: Dict[str, Dict[str, Any]]
                   ) -> Tuple[int, int, Dict[str, float]]:
    before, traced, after = out["ops"]
    want = expected[traced["id"]]
    failed = sum(not op_correct(run, workload, op, want)
                 for op in (before, traced, after))
    info = out["traced"]
    counts = info["counts"]
    # the spans' own counts must agree with the program's info counters
    program = traced.get("counters", {})
    for name, key in (("dts.points", "dts_points"),
                      ("auxgraph.nodes", "aux_nodes"),
                      ("auxgraph.edges", "aux_edges"),
                      ("steiner.expansions", "steiner_expansions")):
        if key in program and counts.get(name) != program[key]:
            print(f"perfbench: traced {name}={counts.get(name)} but the "
                  f"program reports {key}={program[key]}", file=sys.stderr)
            failed += 1
    exact = {k: v for k, v in counts.items() if k != "auxgraph.rss_mb"}
    if not check_counters(run, f"{workload}/{traced['id']}/traced", exact):
        print(f"perfbench: traced work counters changed between runs: "
              f"{exact}", file=sys.stderr)
        failed += 1
    if info["missing"]:
        print(f"perfbench: boundaries not traced (gone from the program): "
              f"{', '.join(info['missing'])}", file=sys.stderr)
    scale = out["scale"] ** SCALE_POWER[workload]
    metrics: Dict[str, float] = {
        f"{layer}_ms": ms * scale
        for layer, ms in info["self_ms"].items() if layer != "op"
    }
    metrics.update(counts)
    if counts.get("auxgraph.nodes"):
        metrics["steiner.expanded_share"] = (
            counts.get("steiner.expansions", 0.0) / counts["auxgraph.nodes"])
    metrics["uncovered_share"] = info["self_ms"].get("op", 0.0) / info["root_ms"]
    metrics["tracing_overhead_share"] = (
        traced["ms"] / statistics.fmean([before["ms"], after["ms"]]) - 1.0)
    metrics["ref_ms"] = statistics.fmean(out["ref"])
    return 3, failed, metrics


# ----------------------------------------------------------------------


def result_line(bench: Dict[str, Any], trace: bool, attempted: int,
                failed: int, metrics: Dict[str, float]) -> str:
    """The result object, every metric BENCHMARK.json names for the mode.

    A per-layer metric of a layer the workload never enters reads 0.
    """
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    doc: Dict[str, Any] = {}
    for m in listed:
        if not trace and m["name"] not in metrics:
            raise BenchError(f"workload did not measure {m['name']}")
        doc[m["name"]] = {"value": float(metrics.get(m["name"], 0.0)),
                          "unit": m["unit"]}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": doc})


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=99)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "expected.json"), "r", encoding="utf-8") as f:
            expected = json.load(f)
        if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
            raise BenchError("src/repro not found; run from the repository root")
        run = Run(root, args.seed, args.seconds, bool(args.trace))
        # bytecode once, so every program process imports alike
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       cwd=root, env=run.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=300)
        if args.workload == "serve-mixed":
            import loadgen

            trace_path = write_trace(run, loadgen.TRACE_NAME,
                                     **loadgen.SERVE_TRACE)
            attempted, failed, metrics = loadgen.serve_workload(
                run, trace_path, 1 if run.trace else CHILDREN)
        else:
            attempted, failed, metrics = compute_workload(
                run, args.workload, expected[args.workload])
        line = result_line(bench, run.trace, attempted, failed, metrics)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
