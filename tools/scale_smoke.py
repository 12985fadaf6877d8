#!/usr/bin/env python
"""Million-contact scale smoke test — run by CI, usable locally.

Regenerates the benchmark suite's N=1000 / 10^6-contact synthetic
instance (same ``SCALE_*`` constants as the ``trace_ingest`` and
``plan_n1000`` bench ops), pushes it through the full columnar pipeline,
and asserts the three scale acceptance properties:

1. **ingest**: the CRAWDAD text rendering (the writers round to 6
   decimals, so the text file *is* the instance) fingerprints
   identically three ways — streamed into columns by ``load_trace``,
   reloaded from a saved ``.ctrace`` file (whose rows are hashed again;
   the header's copy is not used), and parsed into per-contact objects
   by the dict-backed reference model in ``tests/trace_oracle.py``;
2. **bounded memory**: a child interpreter plans one source from the
   ``.ctrace`` file — windowed store → ``tveg_from_trace`` — under a
   hard ``resource.setrlimit`` address-space ceiling (``--limit-mb``).
   The default GREED scheduler answers its discrete cost sets from each
   node's contact components and plans the full instance at about
   240 MB peak RSS, the loaded trace included; a memo of one cost set
   per (node, event time) needed ~2.8 GB there, so a regression to it or
   to per-contact objects dies on ``MemoryError`` instead of quietly
   using more RAM.
   ``--algorithm eedcb`` guards the Section VI-A auxiliary graph and
   the Steiner search instead: on the quick instance (6.1M aux nodes,
   19.1M edges) the implicit graph, which lists each node's active
   components once per segment of its DTS points and stores nothing
   per transmission node, and the compiled search plan under a 320 MB
   ceiling (384 MB at 16 bytes per transmission node, 576 MB while
   every process imported scipy and networkx at start-up), while the
   Python search needed 768 MB, the 40-byte layout joined from
   per-node parts more than 896 MB, queueing every transmission node
   more than 1408 MB and materializing every edge as arrays about
   2600 MB, so ``--limit-mb 448`` trips if any of them comes back.
   On the full instance EEDCB plans under ``--limit-mb 1408``;
3. **parity**: the store-backed schedule is byte-identical (relay ids,
   ``float.hex()`` times/costs, total cost) to the dict-backed oracle
   (``tests/trace_oracle.py``) planned from the same text file in an
   unlimited child — the oracle is allowed to be fat, the store is not.
   That child's EEDCB also takes its DTS from the sweep-based reference
   construction (``tests/dts_oracle.py``, sweeping with the cursor in
   ``tests/aux_oracle.py``) and its reduce passes from the
   one-replay-per-candidate reference (``tests/reduce_oracle.py``), so
   the check covers the columnar DTS and the reduce session too.  Each
   leg line reports its stage seconds (reduce among them), its DTS point
   count, and its reduce work: the store leg's ``reduce.candidates``
   counter, the dict leg's count of reference feasibility replays.

``--haggle-n100`` swaps in the dense N=100 Haggle-like trace (trace seed
99, as for the N=50 scaling trace) over the 9000–11000 s window with a
2000 s deadline, and runs it through the same three checks.  Its
auxiliary graph is the largest of the three instances (43.5M nodes,
471.7M edges): EEDCB plans it at about 0.25 GB peak RSS (0.85 GB at
16 bytes per transmission node), so ``--limit-mb 704`` trips if those
rows, the Python search (1.26 GB) or the 3.9 GB aux-graph layout come
back.

Usage::

    PYTHONPATH=src python tools/scale_smoke.py             # full instance
    PYTHONPATH=src python tools/scale_smoke.py --quick     # 50k contacts
    PYTHONPATH=src python tools/scale_smoke.py --quick --algorithm eedcb \
        --limit-mb 448                                     # aux-graph guard
    PYTHONPATH=src python tools/scale_smoke.py --algorithm eedcb \
        --limit-mb 1408 --timeout 1500                     # EEDCB at N=1000
    PYTHONPATH=src python tools/scale_smoke.py --haggle-n100 \
        --algorithm eedcb --limit-mb 704                   # EEDCB at N=100

Exits nonzero with a diagnostic on the first violated property.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
if SRC_ROOT not in sys.path:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, SRC_ROOT)

# Quick instance mirrors the quick-mode trace_ingest op: same generator,
# two decades smaller, for exercising this script outside CI.
QUICK_NODES, QUICK_CONTACTS, QUICK_HORIZON = 200, 50_000, 20_000.0
QUICK_WINDOW, QUICK_DEADLINE = (0.0, 2000.0), 1500.0
# The round's N=100 target: the Haggle-like generator at trace seed 99.
HAGGLE_NODES, HAGGLE_SEED = 100, 99
HAGGLE_WINDOW, HAGGLE_DEADLINE = (9000.0, 11000.0), 2000.0
SOURCE = 0
ALGORITHMS = ("greed", "eedcb")
PLAN_SEED = 5


def _instance(name: str):
    """``(generate, window, deadline)`` of the named instance."""
    from repro.obs.bench import (
        SCALE_CONTACTS, SCALE_DEADLINE, SCALE_HORIZON, SCALE_NODES,
        SCALE_SEED, SCALE_WINDOW,
    )
    from repro.traces import (
        HaggleLikeConfig, haggle_like_trace, scale_trace_store,
    )

    if name == "haggle-n100":
        return (
            lambda: haggle_like_trace(HaggleLikeConfig(num_nodes=HAGGLE_NODES),
                                      seed=HAGGLE_SEED),
            HAGGLE_WINDOW, HAGGLE_DEADLINE,
        )
    if name == "quick":
        return (
            lambda: scale_trace_store(QUICK_NODES, QUICK_CONTACTS,
                                      QUICK_HORIZON, seed=SCALE_SEED),
            QUICK_WINDOW, QUICK_DEADLINE,
        )
    return (
        lambda: scale_trace_store(SCALE_NODES, SCALE_CONTACTS, SCALE_HORIZON,
                                  seed=SCALE_SEED),
        SCALE_WINDOW, SCALE_DEADLINE,
    )


def _schedule_digest(plan) -> dict:
    """The byte-comparable essence of a plan: exact floats via hex."""
    return {
        "rows": [
            [str(t.relay), t.time.hex(), t.cost.hex()]
            for t in plan.schedule
        ],
        "total_cost": plan.total_cost.hex(),
        "feasible": bool(plan.feasible),
    }


def _child(args) -> int:
    """One planning leg, result JSON on the last stdout line."""
    import resource

    if args.limit_mb:
        ceiling = int(args.limit_mb * 1024 * 1024)
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))

    from repro import obs, plan_broadcast, tveg_from_trace
    from repro.obs.tracer import NoopTracer
    from repro.traces import ContactTrace

    class Counts(NoopTracer):
        """Counters only; spans stay free, as on the default tracer."""

        def __init__(self) -> None:
            self.counts: dict = {}

        def counter(self, name: str, inc: float = 1.0) -> None:
            self.counts[name] = self.counts.get(name, 0.0) + inc

    _, window, deadline = _instance(args.instance)
    counts = Counts()
    t0 = time.perf_counter()
    if args.child == "store":
        trace = ContactTrace.load(args.path)
        obs.set_tracer(counts)
    else:
        sys.path.insert(0, REPO_ROOT)
        from tests import dts_oracle, reduce_oracle
        from tests.trace_oracle import parse_crawdad

        from repro.algorithms import eedcb

        eedcb.build_dts = dts_oracle.build_dts
        for name in ("remove_redundant", "upgrade_and_prune", "lower_costs"):
            setattr(eedcb, name, getattr(reduce_oracle, name))
        check = reduce_oracle.check_feasibility

        def counted_check(*a, **kw):
            counts.counter("reduce.replays")
            return check(*a, **kw)

        reduce_oracle.check_feasibility = counted_check
        trace = parse_crawdad(args.path)
    trace_fp = trace.fingerprint()
    load_s = time.perf_counter() - t0
    # The window → shift → TVEG pipeline plan_broadcast(window=...) runs
    # internally, spelled out because the dict leg's reference trace model
    # is not the ContactTrace that plan_broadcast accepts.
    start, end = window
    t1 = time.perf_counter()
    windowed = trace.restrict_window(start, end).shift(-start)
    tveg = tveg_from_trace(windowed, seed=PLAN_SEED)
    t2 = time.perf_counter()
    plan = plan_broadcast(
        tveg, SOURCE, deadline, algorithm=args.algorithm, seed=PLAN_SEED,
    )
    plan_s = time.perf_counter() - t2
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = rss / 1e6 if sys.platform == "darwin" else rss / 1024.0
    doc = _schedule_digest(plan)
    doc["trace_fp"] = trace_fp
    doc["peak_mb"] = round(peak_mb, 1)
    doc["load_s"] = round(load_s, 2)
    doc["tveg_s"] = round(t2 - t1, 2)
    doc["plan_s"] = round(plan_s, 2)
    if "stage_seconds" in plan.info:
        # (stage, seconds) pairs keep pipeline order through sort_keys
        doc["stage_seconds"] = [
            [k, round(v, 2)] for k, v in plan.info["stage_seconds"].items()
        ]
    for key in ("dts_points", "steiner_expansions"):
        if key in plan.info:
            doc[key] = plan.info[key]
    for key in ("reduce.candidates", "reduce.replays"):
        if counts.counts.get(key):
            doc[key] = int(counts.counts[key])
    print(json.dumps(doc, sort_keys=True))
    return 0



def _run_leg(leg: str, path: str, args, limit_mb: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", leg,
           "--path", path, "--limit-mb", str(limit_mb),
           "--algorithm", args.algorithm]
    if args.instance != "scale":
        cmd.append(f"--{args.instance}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         timeout=args.timeout)
    if out.returncode != 0:
        raise SystemExit(
            f"FAIL: {leg} leg exited {out.returncode}"
            + (f" (limit {limit_mb} MB)" if limit_mb else "")
            + f"\n--- stderr tail ---\n{out.stderr.strip()[-2000:]}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _work(doc: dict) -> str:
    """The per-stage split, DTS points and Steiner expansions of a leg,
    if reported."""
    parts = [f"{k} {v}s" for k, v in doc.get("stage_seconds", ())]
    if "dts_points" in doc:
        parts.append(f"{doc['dts_points']:,} DTS points")
    if "steiner_expansions" in doc:
        parts.append(f"{doc['steiner_expansions']:,} expansions")
    if "reduce.candidates" in doc:
        parts.append(f"{doc['reduce.candidates']:,} reduce candidates")
    if "reduce.replays" in doc:
        parts.append(f"{doc['reduce.replays']:,} reference reduce replays")
    return f"; {', '.join(parts)}" if parts else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    instance = parser.add_mutually_exclusive_group()
    instance.add_argument("--quick", dest="instance", action="store_const",
                          const="quick", default="scale",
                          help="50k-contact instance (local sanity runs)")
    instance.add_argument("--haggle-n100", dest="instance",
                          action="store_const", const="haggle-n100",
                          help="N=100 Haggle-like trace, window 9000-11000 s, "
                          "deadline 2000 s")
    parser.add_argument("--algorithm", choices=ALGORITHMS,
                        default=ALGORITHMS[0],
                        help="scheduler the legs plan with (default greed; "
                        "eedcb exercises the auxiliary graph)")
    parser.add_argument("--limit-mb", type=int, default=1024,
                        help="address-space ceiling for the store leg in MB "
                        "(0 disables; default 1024 — GREED plans the full "
                        "instance at about 240 MB, while a per-(node, time) "
                        "DCS memo needed ~2.8 GB, so a regression to it "
                        "trips the ceiling)")
    parser.add_argument("--workdir", default=None,
                        help="keep generated files here instead of a "
                        "temp directory")
    parser.add_argument("--timeout", type=float, default=1800.0,
                        help="per-leg timeout in seconds (default 1800)")
    parser.add_argument("--child", choices=("store", "dict"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--path", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child(args)

    from repro.traces import ContactTrace, load_trace
    from repro.traces.writer import write_crawdad

    generate, _, _ = _instance(args.instance)
    workdir = args.workdir or tempfile.mkdtemp(prefix="scale-smoke-")
    os.makedirs(workdir, exist_ok=True)
    text_path = os.path.join(workdir, "scale.txt")
    ctrace_path = os.path.join(workdir, "scale.ctrace")

    t0 = time.perf_counter()
    generated = generate()
    write_crawdad(generated, text_path)
    print(f"generated {generated.num_contacts:,} contacts / "
          f"{generated.num_nodes} nodes "
          f"({os.path.getsize(text_path) / 1e6:.1f} MB text) "
          f"in {time.perf_counter() - t0:.1f}s")

    t0 = time.perf_counter()
    ingested = load_trace(text_path)
    fp = ingested.fingerprint()
    print(f"ingest+fingerprint {fp} in {time.perf_counter() - t0:.1f}s")

    ingested.save(ctrace_path)
    t0 = time.perf_counter()
    reloaded_fp = ContactTrace.load(ctrace_path).fingerprint()
    print(f".ctrace reload + fingerprint in {time.perf_counter() - t0:.3f}s")
    if reloaded_fp != fp:
        print("FAIL: .ctrace round trip changed the trace fingerprint")
        return 1
    del generated, ingested

    store_doc = _run_leg("store", ctrace_path, args, args.limit_mb)
    print(f"store leg ({args.algorithm}): {len(store_doc['rows'])} "
          f"transmissions, "
          f"peak RSS {store_doc['peak_mb']} MB "
          f"(ceiling {args.limit_mb or 'none'} MB), "
          f"load {store_doc['load_s']}s, tveg {store_doc['tveg_s']}s, "
          f"plan {store_doc['plan_s']}s"
          f"{_work(store_doc)}")

    dict_doc = _run_leg("dict", text_path, args, 0)
    print(f"dict leg ({args.algorithm}):  {len(dict_doc['rows'])} "
          f"transmissions, "
          f"peak RSS {dict_doc['peak_mb']} MB (oracle, unlimited), "
          f"load {dict_doc['load_s']}s, tveg {dict_doc['tveg_s']}s, "
          f"plan {dict_doc['plan_s']}s"
          f"{_work(dict_doc)}")

    if store_doc["trace_fp"] != fp or dict_doc["trace_fp"] != fp:
        print(f"FAIL: fingerprint disagreement — ingest {fp}, "
              f".ctrace {store_doc['trace_fp']}, "
              f"oracle {dict_doc['trace_fp']}")
        return 1
    for key in ("rows", "total_cost", "feasible"):
        if store_doc[key] != dict_doc[key]:
            print(f"FAIL: store-vs-dict schedule diverged on {key!r}")
            return 1
    if not store_doc["feasible"]:
        print("FAIL: planned schedule is infeasible")
        return 1
    print("ok: store-backed schedule byte-identical to the dict oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
