"""Observability: spans, counters, gauges, aggregation, and exporters.

A zero-dependency instrumentation subsystem for the broadcast pipeline.
The schedulers, Steiner solvers, allocation NLP, Monte-Carlo runner, and
experiment harness are wired with :func:`span` / :func:`counter` /
:func:`gauge` call sites; by default these hit a no-op tracer and cost
~nothing.  Switch recording on, run any pipeline, and export::

    from repro import obs
    from repro.obs import write_chrome_trace, write_metrics_csv

    obs.enable()
    ...  # run schedulers / simulations / experiments
    snap = obs.snapshot()
    write_chrome_trace(snap, "trace.json")   # load in chrome://tracing
    write_metrics_csv(snap, "metrics.csv")   # flat percentile summaries
    obs.disable()

The same data is reachable from the CLI via ``--trace-out`` /
``--metrics-out`` on the ``schedule``, ``simulate``, and ``experiment``
subcommands.  See :mod:`repro.obs.tracer` for the span API,
:mod:`repro.obs.metrics` for aggregation, :mod:`repro.obs.export` for the
Chrome ``trace_event`` and CSV formats.
"""

from .context import (
    current_request_id,
    current_shard_id,
    new_request_id,
    request_context,
    set_shard_id,
)
from .events import (
    EV_BATCH_FLUSHED,
    EV_CONSTRAINT_VIOLATED,
    EV_ENERGY_DEBITED,
    EV_FEASIBILITY_CHECKED,
    EV_MANIFEST,
    EV_MSG_DROPPED,
    EV_MSG_RECEIVED,
    EV_MSG_RETRANSMIT,
    EV_MSG_SENT,
    EV_NODE_INFORMED,
    EV_ONLINE_ATTEMPT,
    EV_PLAN_CACHE_HIT,
    EV_PLAN_CACHE_MISS,
    EV_RELAY_SELECTED,
    EV_REQUEST_REJECTED,
    EV_RUN_SUMMARY,
    EV_SHARD_EXITED,
    EV_SHARD_STARTED,
    EV_SIM_RECEPTION,
    EV_TRANSMISSION_SCHEDULED,
    EVENT_TYPES,
    Event,
    event_from_json,
    event_to_json,
)
from .export import (
    chrome_trace_document,
    chrome_trace_events,
    write_chrome_trace,
    write_metrics_csv,
)
from .ledger import (
    Ledger,
    NoopLedger,
    disable_ledger,
    emit,
    enable_ledger,
    format_event,
    get_ledger,
    ledger_enabled,
    ledger_events,
    read_ledger_ndjson,
    set_ledger,
    write_ledger_ndjson,
)
from .manifest import (
    MANIFEST_SCHEMA,
    config_hash,
    git_sha,
    read_manifest,
    run_manifest,
    write_manifest,
)
from .histogram import DEFAULT_LATENCY_BUCKETS, FixedHistogram, MetricsRegistry
from .metrics import MetricsReport, MetricStat, aggregate, percentile
from .promtext import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    render_prometheus,
    wants_prometheus,
)
from .tracer import (
    NoopTracer,
    Span,
    Tracer,
    TraceSnapshot,
    counter,
    disable,
    enable,
    gauge,
    get_tracer,
    is_enabled,
    reset,
    set_tracer,
    snapshot,
    span,
    stage,
)

__all__ = [
    # tracer
    "Span",
    "TraceSnapshot",
    "Tracer",
    "NoopTracer",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
    "is_enabled",
    "snapshot",
    "reset",
    "span",
    "counter",
    "gauge",
    "stage",
    # metrics
    "MetricStat",
    "MetricsReport",
    "aggregate",
    "percentile",
    # streaming histograms + exposition
    "DEFAULT_LATENCY_BUCKETS",
    "FixedHistogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "parse_prometheus_text",
    "wants_prometheus",
    # request context
    "new_request_id",
    "current_request_id",
    "request_context",
    "set_shard_id",
    "current_shard_id",
    # export
    "chrome_trace_events",
    "chrome_trace_document",
    "write_chrome_trace",
    "write_metrics_csv",
    # events
    "Event",
    "event_to_json",
    "event_from_json",
    "EVENT_TYPES",
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
    # ledger
    "Ledger",
    "NoopLedger",
    "get_ledger",
    "set_ledger",
    "enable_ledger",
    "disable_ledger",
    "ledger_enabled",
    "emit",
    "ledger_events",
    "write_ledger_ndjson",
    "read_ledger_ndjson",
    "format_event",
    # manifests
    "MANIFEST_SCHEMA",
    "config_hash",
    "git_sha",
    "run_manifest",
    "write_manifest",
    "read_manifest",
]
