"""Generate docs/API.md from the package's public surface.

Walks ``repro`` and its subpackages, collects every name exported via
``__all__``, and writes a markdown reference with the first docstring
paragraph of each symbol.  Run from the repository root:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

SUBPACKAGES = [
    "repro",
    "repro.api",
    "repro.compute",
    "repro.service",
    "repro.obs",
    "repro.core",
    "repro.temporal",
    "repro.channels",
    "repro.tveg",
    "repro.schedule",
    "repro.dts",
    "repro.auxgraph",
    "repro.steiner",
    "repro.allocation",
    "repro.algorithms",
    "repro.sim",
    "repro.protosim",
    "repro.parallel",
    "repro.online",
    "repro.traces",
    "repro.mobility",
    "repro.reduction",
    "repro.experiments",
]


# Hand-written prose inserted before the named module's reference section.
PROSE = {
    "repro.api": """\
# High-level API

`repro.plan_broadcast` wraps the five-step pipeline (window → TVEG →
source selection → scheduler → feasibility check) in one call and returns
a `BroadcastPlan` bundling the schedule, the Section IV feasibility
report, the scheduler's standardized `info` metadata, the TVEG itself,
and — when tracing is on — an observability snapshot:

```python
from repro import haggle_like_trace, HaggleLikeConfig, plan_broadcast

trace = haggle_like_trace(HaggleLikeConfig(num_nodes=20), seed=7)
plan = plan_broadcast(trace, None, 2000.0,
                      algorithm="eedcb", window=9000.0, seed=7)
print(plan.feasible, plan.normalized_energy(), plan.info["aux_nodes"])
```

Scheduler names are alias-tolerant everywhere (`"FR-EEDCB"`,
`"fr_eedcb"`, and `"freedcb"` all mean `"fr-eedcb"`); see
`repro.canonical_scheduler_name`.

Pass `cache=PlanCache(...)` to answer repeated problems without
recomputation; `plan_config` / `plan_cache_key` expose the canonical
config dict and its content-addressed hash (== the plan's
`manifest["config_hash"]`) without planning.

EEDCB builds its auxiliary graph one way for every instance: the
implicit numpy graph, whether link costs are constant within each
contact (`tveg.cost_cacheable`) or vary within one. It plans
byte-identically to the networkx construction the tests keep as the
reference.

For many sources over one trace, `plan_broadcast_many` builds the TVEG,
DCS cost sets, and auxiliary graph **once** and retargets them per
source, returning a `BroadcastPlanSet` (a `Sequence[BroadcastPlan]`)
whose per-plan manifests are byte-identical to N single calls:

```python
from repro import plan_broadcast_many

planset = plan_broadcast_many(trace, [None, 1, 5], 2000.0,
                              window=9000.0, seed=7)
for p in planset:
    print(p.source, p.feasible, p.total_cost)
print(planset.total_cost, planset.feasible)
```

`repro.schedule.write_planset_json` / `read_planset_json` round-trip a
plan set as a `repro.planset/1` document.
""",
    "repro.compute": """\
# Compute kernels

`repro.compute.numpy_backend` holds EEDCB's numpy hot path: each
node's canonical contact components (from `repro.tveg.costsets`, the
rows the DCS point queries read too) batched into arrays (one component
per contact when costs are constant within it, one per active
(neighbor, point) cell when they vary), the auxiliary graph in implicit
form — per-state and per-transmission arrays from which each row, node
tuple and cost set is derived on demand — and the greedy Steiner search
reading those rows directly, with search state for the state nodes only
and its tree kept in node ids until one vectorized decode at the end.
It reproduces the networkx reference build and search **byte for byte**
(same node ids, edge order, floats, expansion order and counters;
`tests/test_compute_parity.py` checks this property-based). EEDCB uses
it for every TVEG.
""",
    "repro.protosim": """\
# Protocol-level simulator

`repro.protosim` executes a `BroadcastPlan` (or a bare schedule) as an
actual message-passing protocol: a deterministic discrete-event loop in
which every node is a process with its own neighbor table (built live
from TVEG contact windows via HELLO beacons), clock offset, bounded
transmit queue, and RNG stream. DATA frames are lost per-receiver
according to the channel ED-function at the plan's allocated costs;
ACK-driven retransmissions (retry cap + backoff) recover losses at
extra energy cost:

```python
from repro import ProtocolConfig, execute_plan, run_protocol_trials

res = execute_plan(plan, seed=1)
print(res.delivery_ratio, res.energy, res.counts.retransmits)

s = run_protocol_trials(plan.tveg, plan.schedule, plan.source,
                        plan.deadline, num_trials=200, seed=1, workers=4)
print(s.mean_delivery, s.delivery_ci95())
```

Determinism contract: a fixed seed reproduces the full event sequence
byte for byte, for any worker count (trial seeds are derived up front
with `repro.parallel.derive_seeds`). Cross-validation:
`check_analytic_parity` proves that under
`ProtocolConfig.parity()` (lossless static channel, zero offsets, no
retransmissions) the protocol engine informs the **identical node set
with identical per-node energy** as the analytic `repro.sim` simulator.
See `docs/PROTOCOL.md` for the event model and the parity argument;
`repro protosim trace.dat --check-parity` runs it from the CLI.
""",
    "repro.service": """\
# Planning service

`repro.service` is the serving layer over `plan_broadcast`: a
content-addressed two-tier plan cache (`PlanCache`), a bounded batching
queue that dedupes concurrent duplicate requests to one computation
(`Batcher`), an embeddable facade (`PlanningService`), and the asyncio
HTTP front-end behind `repro serve` (`BackgroundServer(LocalBackend(svc))`
embeds it in process; `ShardPool` backs it with worker processes):

```python
from repro.service import PlanningService

with PlanningService({"demo": trace}) as svc:
    r = svc.plan("demo", 2000.0, window=9000.0, seed=7)
    print(r.plan.total_cost, r.cached)
    rs = svc.plan_many("demo", 2000.0, sources=[None, 1, 5], seed=7)
    print(rs.wall_seconds, rs.cached)
```

`plan_many` routes a batch of sources through
`repro.plan_broadcast_many`, sharing one TVEG (and one auxiliary-graph
build) per deadline group and writing every plan into the same
content-addressed cache the single-plan path reads — the returned keys
and plans are exactly what N `plan` calls would have produced. Over
HTTP it is `POST /plan_many` (body: `sources` plus the `/plan` fields;
`deadlines` may be a scalar or a per-source list).

```bash
python -m repro serve --synthetic 20 --port 8437 &
curl -s -X POST localhost:8437/plan \\
  -d '{"deadline": 2000, "window": 9000, "seed": 7}'
```

See `docs/SERVICE.md` for the architecture, the `POST /plan` body and
status-code contract (400/404/422/429/504), and the replay guarantees.
""",
    "repro.obs": """\
# Observability

`repro.obs` is a zero-dependency instrumentation layer wired through the
schedulers, Steiner solvers, allocation NLP, simulator, and experiment
harness. Tracing is off by default (call sites hit a no-op tracer);
switch it on, run any pipeline, and export:

```python
from repro import obs
from repro.obs import write_chrome_trace, write_metrics_csv

obs.enable()
# ... run schedulers / simulations / experiments ...
snap = obs.snapshot()
write_chrome_trace(snap, "trace.json")   # open in chrome://tracing
write_metrics_csv(snap, "metrics.csv")   # kind,name,count,total,...,p99
obs.disable()
```

The CLI exposes the same via `--trace-out FILE` / `--metrics-out FILE`
on the `schedule`, `simulate`, and `experiment` subcommands. Per-stage
wall times are additionally recorded (tracing on or off) under the
standardized `SchedulerResult.info` keys documented on
`repro.algorithms.Scheduler`.

Alongside the tracer sits the **run ledger** — a typed domain-event log
(relay selections, scheduled transmissions, per-node ε-crossings, energy
debits, named feasibility violations) with the same swappable-global
shape. `obs.enable_ledger()` records events in memory;
`obs.write_ledger_ndjson` / `obs.read_ledger_ndjson` round-trip them as
NDJSON whose first record is the run manifest (`obs.run_manifest`:
config hash, seed, git SHA, platform). The CLI wires this up as
`--ledger-out` / `--manifest-out` plus `-v` for live streaming, `repro
report` renders a ledger to self-contained HTML, and `repro bench`
gates tier-1 pipeline timings against `benchmarks/baseline.json`. See
`docs/OBSERVABILITY.md` for the full tour.
""",
}


def first_paragraph(doc: str) -> str:
    if not doc:
        return "*(undocumented)*"
    lines = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


class _Name:
    """Renders as a bare name inside a signature (no quotes, no address)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


def signature_of(obj) -> str:
    """``obj``'s signature, with callable defaults (functions, classes)
    shown by qualified name: their ``repr`` carries a memory address that
    would change the generated file on every run."""
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    params = [
        p.replace(default=_Name(p.default.__qualname__))
        if p.default is not p.empty and callable(p.default)
        and hasattr(p.default, "__qualname__") else p
        for p in sig.parameters.values()
    ]
    return str(sig.replace(parameters=params))


def render_module(name: str) -> str:
    mod = importlib.import_module(name)
    out = [f"## `{name}`", ""]
    mod_doc = first_paragraph(mod.__doc__ or "")
    out.append(mod_doc)
    out.append("")
    exported = getattr(mod, "__all__", [])
    for sym in exported:
        obj = getattr(mod, sym, None)
        if obj is None or sym.startswith("_"):
            continue
        # Plain data constants inherit builtin-type docstrings — skip them.
        if isinstance(obj, (str, bytes, int, float, dict, list, tuple, frozenset, set)):
            continue
        # Skip re-exports documented in their home subpackage (top level only).
        if name == "repro" and getattr(obj, "__module__", "").startswith("repro."):
            continue
        kind = (
            "class"
            if inspect.isclass(obj)
            else "function"
            if callable(obj)
            else "constant"
        )
        sig = signature_of(obj) if kind == "function" else ""
        out.append(f"### `{sym}{sig}`  *({kind})*")
        out.append("")
        out.append(first_paragraph(inspect.getdoc(obj) or ""))
        out.append("")
    return "\n".join(out)


def main() -> None:
    parts = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "Every symbol below is importable from the listed module; the",
        "top-level `repro` package re-exports the most common ones.",
        "",
    ]
    for name in SUBPACKAGES:
        if name in PROSE:
            parts.append(PROSE[name])
            parts.append("")
        parts.append(render_module(name))
        parts.append("")
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
