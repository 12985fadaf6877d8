"""One program process of a benchmark run: pin, set up, then time.

Usage: ``python3 perfbench/child.py SPEC.json OUT.json``

The process turns address randomization off (re-executing itself once)
and pins itself to the vCPU named in the spec before anything else,
imports the program, loads the generated input and runs one untimed
warm-up; that is the set-up the parent times from spawn to ``ready``.
After one reference-loop phase it times its operations one at a time,
with ``gc.collect()`` before each and the reference loop sampled inside
each (:class:`refloop.Sampler`).  For
``serve-mixed`` it runs the planning service itself instead
(``repro serve``), so the server is a pinned process too.

With ``"trace": true`` it times the first operation untraced, traced and
untraced again, and reports per-layer self times from :mod:`spans`.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refloop  # noqa: E402
import spans  # noqa: E402

#: personality(2) flag that turns address-space randomization off
ADDR_NO_RANDOMIZE = 0x0040000
#: the delay constraint of every eedcb-n50 plan (s)
EEDCB_DEADLINE = 2000.0
#: the Fig. 5(b) delays of one fr-sweep-n20 sweep (s)
SWEEP_DELAYS = (2000.0, 4000.0, 6000.0)
#: the counters each eedcb plan reports in ``info``
EEDCB_COUNTERS = ("dts_points", "aux_nodes", "aux_edges", "steiner_expansions")

Op = Callable[[Dict[str, Any]], Any]
Describe = Callable[[Any], Tuple[str, bool, Dict[str, float]]]


def _eedcb(spec: Dict[str, Any]) -> Tuple[Callable[[], None], Op, Describe]:
    from repro.api import plan_broadcast
    from repro.traces.parser import load_trace

    store = load_trace(spec["input"])

    def warmup() -> None:
        w = spec["warmup"]
        plan_broadcast(store, None, w["deadline"],
                       window=(w["start"], w["start"] + w["deadline"]), seed=5)

    def op(entry: Dict[str, Any]) -> Any:
        start = entry["start"]
        return plan_broadcast(store, entry["source"], EEDCB_DEADLINE,
                              window=(start, start + EEDCB_DEADLINE), seed=5)

    def describe(plan: Any) -> Tuple[str, bool, Dict[str, float]]:
        text = json.dumps([[t.relay, t.time, t.cost] for t in plan.schedule])
        counters = {k: plan.info[k] for k in EEDCB_COUNTERS}
        return text, plan.feasible, counters

    return warmup, op, describe


def _sweep(spec: Dict[str, Any]) -> Tuple[Callable[[], None], Op, Describe]:
    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.fig5 import run_fig5

    def warmup() -> None:
        w = spec["warmup"]
        run_fig5(channel="rayleigh",
                 config=FAST_CONFIG.with_(seed=w["seed"], repetitions=1,
                                          trials=w["trials"]),
                 delays=SWEEP_DELAYS[:1])

    def op(entry: Dict[str, Any]) -> Any:
        return run_fig5(channel="rayleigh",
                        config=FAST_CONFIG.with_(seed=entry["seed"]),
                        delays=SWEEP_DELAYS)

    def describe(result: Any) -> Tuple[str, bool, Dict[str, float]]:
        text = json.dumps({"x": result.x_values, "series": result.series},
                          sort_keys=True)
        return text, True, {}

    return warmup, op, describe


WORKLOADS = {"eedcb-n50": _eedcb, "fr-sweep-n20": _sweep}


def _run_op(op: Op, describe: Describe, entry: Dict[str, Any],
            recorder: Optional[spans.Recorder] = None,
            sampler: Optional[refloop.Sampler] = None) -> Dict[str, Any]:
    """Time one operation; with a ``sampler``, net of its bursts.

    The record carries the sampler's in-operation loop times as ``ref``.
    """
    gc.collect()
    if sampler is not None:
        sampler.start()
    t0 = time.perf_counter()
    try:
        result = op(entry) if recorder is None else recorder.call("op", op, entry)
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    if sampler is not None:
        sampler.stop()
    wall = time.perf_counter() - t0
    rec: Dict[str, Any] = {"id": entry["id"], "ms": wall * 1e3}
    if sampler is not None:
        rec.update(ms=(wall - sampler.spent) * 1e3, ref=sampler.samples,
                   spent_ms=sampler.spent * 1e3)
    if error is not None:
        return dict(rec, ok=False, error=error)
    text, ok, counters = describe(result)
    del result
    return dict(rec, ok=ok, counters=counters,
                digest=hashlib.sha256(text.encode("utf-8")).hexdigest()[:16])


def _traced(spec, op, describe, out: Dict[str, Any]) -> None:
    entry = spec["ops"][0]
    ref_s = spec["ref_s"]
    before = _run_op(op, describe, entry)
    out["ref"] += refloop.sample(ref_s)
    recorder = spans.Recorder(run_id=spec["run_id"])
    uninstall, missing = spans.install(recorder)
    try:
        traced = _run_op(op, describe, entry, recorder)
    finally:
        uninstall()
    out["ref"] += refloop.sample(ref_s)
    after = _run_op(op, describe, entry)
    out["ref"] += refloop.sample(ref_s)
    root = recorder.spans[0] if recorder.spans else ["op", 0.0, 0.0, -1]
    self_ms = recorder.self_ms()
    out["ops"] = [before, traced, after]
    out["traced"] = {
        "self_ms": self_ms,
        "counts": recorder.counts,
        "root_ms": (root[2] - root[1]) * 1e3,
        "missing": missing,
    }
    with open(spec["spans_out"], "w", encoding="utf-8") as f:
        json.dump({**recorder.dump(), "op": entry, "missing": missing,
                   "program_counters": traced.get("counters", {})}, f)


def fixed_layout() -> None:
    """Re-execute this process once with address randomization off.

    Three processes planning one eedcb-n50 window peaked at 1392-1419 MB
    with randomized addresses and at 1393-1394 MB without.  Where the
    flag cannot be set, the process runs on as it is.
    """
    try:
        personality = ctypes.CDLL(None).personality
    except (OSError, AttributeError):
        return
    current = personality(0xFFFFFFFF)  # query only
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return
    if personality(current | ADDR_NO_RANDOMIZE) != -1:
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(spec_path: str, out_path: str) -> int:
    fixed_layout()
    with open(spec_path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {spec["cpu"]})
    if spec["workload"] == "serve-mixed":
        from repro.cli import main as cli_main

        return cli_main(spec["argv"])

    warmup, op, describe = WORKLOADS[spec["workload"]](spec)
    warmup()
    gc.collect()
    out: Dict[str, Any] = {"ready": time.monotonic()}
    out["ref_ready"] = refloop.sample(spec["ref_s"])
    out["ref"] = list(out["ref_ready"])
    if spec["trace"]:
        _traced(spec, op, describe, out)
    else:
        sampler = refloop.Sampler()
        out["ops"] = [_run_op(op, describe, entry, sampler=sampler)
                      for entry in spec["ops"]]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
