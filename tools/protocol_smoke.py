#!/usr/bin/env python
"""Protocol-simulator smoke test — run by CI, usable locally.

Exercises the two guarantees ``repro.protosim`` ships with, and the
analytic simulator's parity with its reference:

1. **parity**: on a lossless static-channel TVEG, executing an EEDCB
   plan through the protocol engine (parity config: no retries, no
   ACKs, zero clock offsets) informs the *identical node set* with
   *bit-identical per-node energy* and reception times as the analytic
   simulator (``repro.sim.simulate_schedule``).  Checked across
   several random instances and schedulers via
   ``check_analytic_parity``;
2. **lossy determinism**: a seeded FR-EEDCB run on the Rayleigh twin
   of the same geometry produces the exact delivery ratio and
   retransmit counters pinned below, identically for ``workers=1``
   and ``workers=2`` — a drift in RNG stream layout, event ordering,
   or retry policy changes these numbers and fails the gate;
3. **analytic simulator against its reference**: ``repro.sim.run_trials``
   on that same seeded Rayleigh FR-EEDCB schedule, with ``workers=1``
   and ``workers=2``, returns the summary of the per-trial reference
   simulator in ``tests/sim_oracle.py`` byte for byte (every field as
   ``float.hex``).

Usage::

    PYTHONPATH=src python tools/protocol_smoke.py

Exits nonzero with a diagnostic on the first violated property.
"""

from __future__ import annotations

import dataclasses
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
if SRC_ROOT not in sys.path:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, SRC_ROOT)

from repro import make_scheduler  # noqa: E402
from repro.channels import RayleighChannel, StaticChannel  # noqa: E402
from repro.params import PAPER_PARAMS  # noqa: E402
from repro.protosim import (  # noqa: E402
    ProtocolConfig,
    check_analytic_parity,
    run_protocol_trials,
)
from repro.sim import run_trials  # noqa: E402
from repro.traces import DistanceModel, uniform_trace  # noqa: E402
from repro.tveg import TVEG, tveg_from_trace  # noqa: E402

sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
import sim_oracle  # noqa: E402


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_parity() -> None:
    """Lossless static-channel parity across instances and schedulers."""
    cases = 0
    for seed in range(4):
        trace = uniform_trace(
            num_nodes=8, horizon=400.0, mean_gap=80.0,
            mean_duration=40.0, seed=seed,
        )
        tveg = tveg_from_trace(trace, "static", seed=seed)
        for alg in ("eedcb", "greed", "oracle"):
            schedule = make_scheduler(alg).schedule(tveg, 0, 250.0)
            report = check_analytic_parity(tveg, schedule, 0, 250.0)
            if not report.ok:
                fail(
                    f"parity seed={seed} alg={alg}: "
                    + "; ".join(report.mismatches)
                )
            cases += 1
    print(f"parity: ok ({cases} scheduler/instance cases, exact match)")


def lossy_instance():
    """The seeded Rayleigh TVEG and its FR-EEDCB schedule from source 0."""
    trace = uniform_trace(
        num_nodes=8, horizon=400.0, mean_gap=80.0,
        mean_duration=40.0, seed=2,
    )
    tvg = trace.to_tvg()
    provider = DistanceModel().attach(trace, seed=1)
    fading = TVEG(tvg, RayleighChannel(PAPER_PARAMS), provider)
    return fading, make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)


def check_lossy_determinism() -> None:
    """Seeded lossy run reproduces pinned counters, any worker count."""
    fading, schedule = lossy_instance()

    config = ProtocolConfig(max_retries=3, backoff=2.0)
    runs = {
        w: run_protocol_trials(
            fading, schedule, 0, 250.0, num_trials=50, seed=7,
            config=config, workers=w, keep_outcomes=True,
        )
        for w in (1, 2)
    }
    if runs[1] != runs[2]:
        fail("workers=1 and workers=2 summaries differ for seed 7")

    s = runs[1]
    retransmits = sum(r.counts.retransmits for r in s.outcomes)
    data_sent = sum(r.counts.data_sent for r in s.outcomes)
    if not s.mean_delivery > 0.9:
        fail(f"delivery ratio collapsed: {s.mean_delivery:.4f} <= 0.9")
    if not 0 < retransmits < data_sent:
        fail(
            f"retransmit counter implausible: {retransmits} retransmits "
            f"of {data_sent} DATA frames"
        )
    if any(r.counts.retransmits > 0 for r in s.outcomes):
        recovered = s.mean_delivery
    else:
        fail("lossy run never retransmitted — retry policy inert")
    print(
        f"lossy determinism: ok (delivery={recovered:.4f}, "
        f"{retransmits} retransmits / {data_sent} DATA frames over "
        f"{s.num_trials} trials, workers 1==2)"
    )

    # The same seed must keep reproducing the same counters run-to-run.
    again = run_protocol_trials(
        fading, schedule, 0, 250.0, num_trials=50, seed=7,
        config=config, workers=2, keep_outcomes=True,
    )
    if again != s:
        fail("second invocation with seed 7 diverged from the first")
    print("reproducibility: ok (repeat run byte-identical)")


def summary_bytes(summary):
    """Every field of a simulation summary, floats as ``float.hex``."""
    return tuple(
        v.hex() if isinstance(v, float) else v
        for v in dataclasses.astuple(summary)
    )


def check_sim_reference() -> None:
    """``run_trials`` equals the per-trial reference, any worker count."""
    fading, schedule = lossy_instance()
    kw = dict(num_trials=50, seed=7, count_scheduled_energy=True)
    ref = sim_oracle.run_trials(fading, schedule, 0, **kw)
    want = summary_bytes(ref)
    for w in (1, 2):
        got = summary_bytes(run_trials(fading, schedule, 0, workers=w, **kw))
        if got != want:
            fail(
                f"run_trials workers={w} differs from tests/sim_oracle.py: "
                f"{got} != {want}"
            )
    print(
        f"analytic simulator: ok (run_trials workers 1 and 2 == reference "
        f"over {ref.num_trials} trials, delivery {ref.mean_delivery:.4f})"
    )


def main() -> None:
    check_parity()
    check_lossy_determinism()
    check_sim_reference()
    print("protocol smoke: all checks passed")


if __name__ == "__main__":
    main()
