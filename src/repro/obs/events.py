"""Typed domain events of a TMEDB run.

Where :mod:`repro.obs.tracer` answers "where did the wall time go", the
event ledger answers "what did the *broadcast* do": which relay was picked
and why, which transmission was scheduled at which DTS point and power,
when each node's uninformed probability ``p_{i,t}`` crossed ε, where energy
was debited, and — when a schedule is infeasible — exactly which Section IV
condition failed.

An :class:`Event` is a frozen record ``(seq, type, t, fields)``:

``seq``
    Monotonic per-ledger sequence number (total emission order).
``type``
    One of the ``EV_*`` constants below (free-form types are allowed for
    extensions; the constants are what the built-in call sites emit).
``t``
    *Domain* time in seconds on the broadcast clock (a transmission time, a
    reception time, ...) — ``None`` for events with no natural instant
    (e.g. a manifest or a run summary).
``fields``
    Flat JSON-safe mapping of event-specific payload.

Events serialize to one JSON object per line (NDJSON) via
:func:`event_to_json` / :func:`event_from_json`; see
:mod:`repro.obs.ledger` for recording and file I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "Event",
    "event_to_json",
    "event_from_json",
    "EV_MANIFEST",
    "EV_RELAY_SELECTED",
    "EV_TRANSMISSION_SCHEDULED",
    "EV_NODE_INFORMED",
    "EV_ENERGY_DEBITED",
    "EV_CONSTRAINT_VIOLATED",
    "EV_FEASIBILITY_CHECKED",
    "EV_SIM_RECEPTION",
    "EV_ONLINE_ATTEMPT",
    "EV_MSG_SENT",
    "EV_MSG_RECEIVED",
    "EV_MSG_DROPPED",
    "EV_MSG_RETRANSMIT",
    "EV_RUN_SUMMARY",
    "EV_PLAN_CACHE_HIT",
    "EV_PLAN_CACHE_MISS",
    "EV_BATCH_FLUSHED",
    "EV_REQUEST_REJECTED",
    "EV_SHARD_STARTED",
    "EV_SHARD_EXITED",
    "EVENT_TYPES",
]

#: run manifest embedded as the ledger's first record (fields = manifest)
EV_MANIFEST = "manifest"
#: a scheduler committed to a relay (relay, time, cost, algorithm, newly)
EV_RELAY_SELECTED = "relay_selected"
#: one schedule row: (relay, DTS point ``t``, power/cost) — final schedule
EV_TRANSMISSION_SCHEDULED = "transmission_scheduled"
#: a node's ``p_{i,t}`` crossed ε (node, time, p, source of the crossing)
EV_NODE_INFORMED = "node_informed"
#: energy actually spent (relay, cost, context: "sim" | "online" | ...)
EV_ENERGY_DEBITED = "energy_debited"
#: one violated Section IV condition (constraint, detail)
EV_CONSTRAINT_VIOLATED = "constraint_violated"
#: summary of one feasibility evaluation (feasible, num_violations)
EV_FEASIBILITY_CHECKED = "feasibility_checked"
#: a Monte-Carlo trial delivered the packet to a node (node, time, relay)
EV_SIM_RECEPTION = "sim_reception"
#: one online forwarding attempt (carrier, target, cost, success) — also
#: carries the protosim-compatible msg/src/dst/outcome fields, so one
#: filter (see :func:`repro.obs.report.message_rows`) reads both engines
EV_ONLINE_ATTEMPT = "online_attempt"
#: a protocol frame hit the air (msg: hello|data|ack, src, dst, cost)
EV_MSG_SENT = "msg_sent"
#: a protocol frame was decoded by its receiver (msg, src, dst, cost)
EV_MSG_RECEIVED = "msg_received"
#: a protocol frame was lost (reason: loss | queue_full)
EV_MSG_DROPPED = "msg_dropped"
#: a DATA frame was repeated (src, attempt) — the matching msg_sent follows
EV_MSG_RETRANSMIT = "msg_retransmit"
#: end-of-run rollup (algorithm, stage_seconds, totals) — what the HTML
#: report's timing panel reads
EV_RUN_SUMMARY = "run_summary"
#: a plan was served from the content-addressed cache (key, tier)
EV_PLAN_CACHE_HIT = "plan_cache_hit"
#: a plan request missed the cache and was computed (key)
EV_PLAN_CACHE_MISS = "plan_cache_miss"
#: the batcher ran one compute (size: requests it served, deduped, failures,
#: groups: key -> request ids — first id is the leader that computed)
EV_BATCH_FLUSHED = "batch_flushed"
#: admission control turned a request away (reason: queue_full | timeout)
EV_REQUEST_REJECTED = "request_rejected"
#: a planning-service shard worker process came up (shard_id, pid)
EV_SHARD_STARTED = "shard_started"
#: a shard worker left the pool (shard_id, pid, requests, clean)
EV_SHARD_EXITED = "shard_exited"

EVENT_TYPES = (
    EV_MANIFEST,
    EV_RELAY_SELECTED,
    EV_TRANSMISSION_SCHEDULED,
    EV_NODE_INFORMED,
    EV_ENERGY_DEBITED,
    EV_CONSTRAINT_VIOLATED,
    EV_FEASIBILITY_CHECKED,
    EV_SIM_RECEPTION,
    EV_ONLINE_ATTEMPT,
    EV_MSG_SENT,
    EV_MSG_RECEIVED,
    EV_MSG_DROPPED,
    EV_MSG_RETRANSMIT,
    EV_RUN_SUMMARY,
    EV_PLAN_CACHE_HIT,
    EV_PLAN_CACHE_MISS,
    EV_BATCH_FLUSHED,
    EV_REQUEST_REJECTED,
    EV_SHARD_STARTED,
    EV_SHARD_EXITED,
)


def _json_safe(value: Any) -> Any:
    """Coerce one payload value to a JSON-serializable equivalent."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return repr(value)


@dataclass(frozen=True)
class Event:
    """One typed domain event (see module docstring for the field contract)."""

    seq: int
    type: str
    t: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        at = f" t={self.t:g}" if self.t is not None else ""
        return f"Event(#{self.seq} {self.type}{at} {self.fields})"


def event_to_json(event: Event) -> str:
    """One compact NDJSON line (no trailing newline) for ``event``."""
    doc: Dict[str, Any] = {"seq": event.seq, "type": event.type}
    if event.t is not None:
        doc["t"] = event.t
    if event.fields:
        doc["fields"] = {str(k): _json_safe(v) for k, v in event.fields.items()}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def event_from_json(line: str) -> Event:
    """Parse one NDJSON line back into an :class:`Event`.

    Raises :class:`ValueError` on malformed lines (the caller decides
    whether to skip or abort — the ledger reader aborts with the line
    number).
    """
    doc = json.loads(line)
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError(f"not an event object: {line!r}")
    t = doc.get("t")
    return Event(
        seq=int(doc.get("seq", 0)),
        type=str(doc["type"]),
        t=float(t) if t is not None else None,
        fields=dict(doc.get("fields", {})),
    )
