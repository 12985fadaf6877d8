#!/usr/bin/env python
"""Append one measurement record to the committed trajectory file.

Usage, from the repository root (about five minutes; it runs the
benchmark, which pins both vCPUs, so run nothing else meanwhile)::

    python tools/trajectory.py                  # appends to BENCH_trajectory.json
    python tools/trajectory.py --out other.json

One record holds:

* ``commit`` — ``git rev-parse HEAD``, and ``dirty`` when the working tree
  differs from it;
* ``end_to_end`` — ``perfbench/run.py --seed 1 --trace 0`` of every
  workload: its ``correct`` / ``attempted`` / ``failed`` and each metric;
* ``layers`` — ``--trace 1`` of eedcb-n50 and fr-sweep-n20: the per-layer
  self times and counts, ``ref_ms`` (the box-speed figure: the box's
  speed moves by up to 2x between runs) among them;
* ``tier1`` — the tier-1 suite's test count, failures and wall seconds;
* ``src_lines`` — Python and C lines under ``src/``.

The tool only measures: it gates nothing and exits 0 whenever it could
take the measurements, whatever they read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("eedcb-n50", "fr-sweep-n20", "serve-mixed")
TRACED = ("eedcb-n50", "fr-sweep-n20")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _bench(workload: str, trace: int) -> dict:
    """The benchmark's result object for one run (its last stdout line)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "20", "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=1800,
    )
    if out.returncode != 0:
        raise SystemExit(f"perfbench {workload} --trace {trace} exited "
                         f"{out.returncode}:\n{out.stderr.strip()[-2000:]}")
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    doc["metrics"] = {k: v["value"] for k, v in doc["metrics"].items()}
    return doc


def _tier1() -> dict:
    """Run the tier-1 suite once: test count, failures, wall seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", f"--junitxml={report}"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=3600,
        )
        seconds = time.perf_counter() - t0
        suite = ET.parse(report).getroot()
        suite = suite if suite.tag == "testsuite" else suite.find("testsuite")
    counts = {k: int(suite.get(k, 0))
              for k in ("tests", "failures", "errors", "skipped")}
    return dict(counts, seconds=round(seconds, 1))


def _src_lines() -> dict:
    lines = {"python": 0, "c": 0}
    for root, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in files:
            kind = {".py": "python", ".c": "c"}.get(os.path.splitext(name)[1])
            if kind:
                with open(os.path.join(root, name), "rb") as f:
                    lines[kind] += f.read().count(b"\n")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_trajectory.json",
                        help="trajectory file, relative to the repository "
                        "root (default BENCH_trajectory.json)")
    args = parser.parse_args(argv)

    record = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "end_to_end": {w: _bench(w, 0) for w in WORKLOADS},
        "layers": {w: _bench(w, 1)["metrics"] for w in TRACED},
        "tier1": _tier1(),
        "src_lines": _src_lines(),
    }
    path = os.path.join(REPO_ROOT, args.out)
    records = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            records = json.load(f)
    records.append(record)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    e2e = record["end_to_end"]
    print(f"appended record {len(records)} for {record['commit'][:12]}"
          f"{' (dirty)' if record['dirty'] else ''}: "
          + ", ".join(f"{w} op_ms {e2e[w]['metrics']['op_ms']:.1f}"
                      for w in WORKLOADS)
          + f"; tier-1 {record['tier1']['tests']} tests in "
          f"{record['tier1']['seconds']}s; src {record['src_lines']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
