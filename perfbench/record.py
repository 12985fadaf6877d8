#!/usr/bin/env python3
"""Record the outputs the benchmark checks against: ``expected.json``.

Usage, from the repository root::

    python3 perfbench/record.py

Plans every eedcb-n50 pool entry and sweeps every fr-sweep-n20 pool entry
once, in the environment the benchmark's program processes get, and
writes each one's output digest (the schedule, or the sweep's series) and
work counters.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: eedcb-n50 pool, one (window start, source) per program process: distinct
#: stationary 2000 s windows, so no call can be answered by another's work;
#: 9000 s with source 0 is the ROADMAP's scaling instance
EEDCB_POOL = ((9000.0, 0), (9250.0, 7), (9500.0, 14))
#: fr-sweep-n20 pool, two sweeps per program process: Fig. 5(b) config
#: seeds whose sweeps took within 10 % of each other when chosen
SWEEP_SEEDS = (1, 3, 4, 7, 9, 10)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=os.path.join(os.getcwd(), "src"))
        env.pop("REPRO_COMPUTE", None)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, HERE)
    import child
    import run as bench

    r = bench.Run(os.getcwd(), seed=0, seconds=0.0, trace=False)
    doc = {}
    pools = {
        "eedcb-n50": [{"id": f"w{int(s)}", "start": s, "source": src}
                      for s, src in EEDCB_POOL],
        "fr-sweep-n20": [{"id": f"s{s}", "seed": s} for s in SWEEP_SEEDS],
    }
    for workload, pool in pools.items():
        spec = ({"input": bench.write_trace(r, workload, **bench.EEDCB_TRACE)}
                if workload == "eedcb-n50" else {})
        _, op, describe = child.WORKLOADS[workload](spec)
        entries = []
        for entry in pool:
            t0 = time.perf_counter()
            rec = child._run_op(op, describe, entry)
            if not rec["ok"]:
                raise SystemExit(f"{workload} {entry['id']}: {rec.get('error')}")
            entries.append({**entry, "digest": rec["digest"],
                            "counters": rec["counters"]})
            print(f"{workload} {entry['id']}: {time.perf_counter() - t0:.2f} s "
                  f"{rec['counters']}", file=sys.stderr, flush=True)
        doc[workload] = entries
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
