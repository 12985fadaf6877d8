"""Prometheus text exposition for the service ``/metrics`` documents.

``GET /metrics`` keeps serving the JSON document it always has; when a
client asks for ``text/plain`` (or OpenMetrics) via the ``Accept``
header, the same document is rendered in Prometheus exposition format
0.0.4 instead.  :func:`render_prometheus` understands both document
shapes the service produces — the single-process/local doc from
:meth:`~repro.service.server.PlanningService.metrics` (wrapped by the
front-end) and the ``mode: "sharded"`` pool doc, where per-shard rows
get a ``shard="N"`` label and the pool-merged telemetry is emitted
unlabelled.

Naming: every family is prefixed ``repro_``.  Registry histograms use
the dotted-name convention from :class:`~repro.obs.histogram.
MetricsRegistry` — ``stage.compute`` becomes
``repro_stage_seconds{stage="compute"}`` and ``request.plan`` becomes
``repro_request_seconds{endpoint="plan"}`` — so the per-stage
latencies the tentpole cares about land in two well-known families
instead of a family per stage.

:func:`parse_prometheus_text` is the matching (deliberately strict)
parser used by ``tools/loadtest.py`` and the tests to validate that an
exposition round-trips: it returns ``{(family, labels): value}`` plus
the declared types, and raises on malformed lines.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "render_prometheus",
    "parse_prometheus_text",
    "PROMETHEUS_CONTENT_TYPE",
    "wants_prometheus",
]

#: Content-Type for the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def wants_prometheus(accept: Optional[str]) -> bool:
    """Content negotiation: does this ``Accept`` value ask for text format?

    ``text/plain`` and ``application/openmetrics-text`` select the
    exposition format; anything else (including no header) keeps the
    JSON document existing clients depend on.
    """
    if not accept:
        return False
    a = accept.lower()
    return "text/plain" in a or "openmetrics" in a


def _fmt(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_str(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Writer:
    """Accumulates samples grouped by family, emitting HELP/TYPE once."""

    def __init__(self) -> None:
        self._families: List[Tuple[str, str, str]] = []  # (name, type, help)
        self._samples: Dict[str, List[str]] = {}

    def family(self, name: str, mtype: str, help_text: str) -> None:
        if not _NAME_OK.match(name):
            raise ValueError(f"invalid metric family name: {name!r}")
        if name not in self._samples:
            self._families.append((name, mtype, help_text))
            self._samples[name] = []

    def sample(
        self,
        family: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
        suffix: str = "",
    ) -> None:
        self._samples[family].append(
            f"{family}{suffix}{_labels_str(labels or {})} {_fmt(float(value))}"
        )

    def render(self) -> str:
        out: List[str] = []
        for name, mtype, help_text in self._families:
            samples = self._samples[name]
            if not samples:
                continue
            out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} {mtype}")
            out.extend(samples)
        return "\n".join(out) + "\n"


# Dotted histogram names from MetricsRegistry map onto two shared
# families keyed by a label, so dashboards can aggregate across stages.
_HISTOGRAM_FAMILIES = {
    "stage": ("repro_stage_seconds", "stage", "Per-stage service latency."),
    "request": (
        "repro_request_seconds",
        "endpoint",
        "End-to-end request latency per endpoint.",
    ),
}


def _sanitize(name: str) -> str:
    s = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(s):
        s = "_" + s
    return s


def _emit_histogram(
    w: _Writer, name: str, hdoc: Mapping[str, object], labels: Dict[str, str]
) -> None:
    prefix, _, rest = name.partition(".")
    fam = _HISTOGRAM_FAMILIES.get(prefix)
    if fam and rest:
        family, label_key, help_text = fam
        labels = dict(labels)
        labels[label_key] = rest
    else:
        family = f"repro_{_sanitize(name)}_seconds"
        help_text = f"Histogram for {name}."
    w.family(family, "histogram", help_text)
    bounds = [float(b) for b in hdoc.get("bounds", [])]
    counts = [int(c) for c in hdoc.get("counts", [])]
    running = 0
    for bound, c in zip(bounds, counts):
        running += c
        w.sample(
            family, running, {**labels, "le": _fmt(bound)}, suffix="_bucket"
        )
    total = int(hdoc.get("count", running))
    w.sample(family, total, {**labels, "le": "+Inf"}, suffix="_bucket")
    w.sample(family, float(hdoc.get("sum", 0.0)), labels, suffix="_sum")
    w.sample(family, total, labels, suffix="_count")


def _emit_registry_doc(
    w: _Writer, doc: Mapping[str, object], labels: Dict[str, str]
) -> None:
    """One MetricsRegistry.as_doc() worth of counters/gauges/histograms."""
    for name, v in (doc.get("counters") or {}).items():  # type: ignore[union-attr]
        family = f"repro_{_sanitize(name)}_total"
        w.family(family, "counter", f"Monotonic counter {name}.")
        w.sample(family, float(v), labels)
    for name, v in (doc.get("gauges") or {}).items():  # type: ignore[union-attr]
        family = f"repro_{_sanitize(name)}"
        w.family(family, "gauge", f"Gauge {name}.")
        w.sample(family, float(v), labels)
    for name, hdoc in (doc.get("histograms") or {}).items():  # type: ignore[union-attr]
        _emit_histogram(w, name, hdoc, labels)


def _emit_cache(w: _Writer, cache: Mapping[str, object], labels: Dict[str, str]) -> None:
    w.family("repro_cache_events_total", "counter", "Plan cache outcomes.")
    for key in ("hits", "misses", "memory_hits", "disk_hits", "puts", "evictions"):
        if key in cache:
            w.sample(
                "repro_cache_events_total",
                float(cache[key]),  # type: ignore[arg-type]
                {**labels, "event": key},
            )
    if "hit_rate" in cache:
        w.family("repro_cache_hit_ratio", "gauge", "Plan cache hit ratio.")
        w.sample("repro_cache_hit_ratio", float(cache["hit_rate"]), labels)  # type: ignore[arg-type]
    if "entries" in cache:
        w.family("repro_cache_entries", "gauge", "Resident plan cache entries.")
        w.sample("repro_cache_entries", float(cache["entries"]), labels)  # type: ignore[arg-type]


def _emit_service_doc(
    w: _Writer,
    doc: Mapping[str, object],
    labels: Dict[str, str],
    include_telemetry: bool = True,
) -> None:
    """One PlanningService.metrics() document (local or per-shard).

    In sharded mode the per-shard rows skip their telemetry registries
    (``include_telemetry=False``): the pool document already carries the
    exact merge across live *and drained* shards, and emitting both
    would double-count any dashboard that sums over labels.
    """
    w.family("repro_requests_total", "counter", "Requests served by the planning service.")
    w.sample("repro_requests_total", float(doc.get("requests", 0)), labels)  # type: ignore[arg-type]
    w.family("repro_errors_total", "counter", "Requests that raised an error.")
    w.sample("repro_errors_total", float(doc.get("errors", 0)), labels)  # type: ignore[arg-type]
    if "shared_tvegs" in doc:
        w.family("repro_shared_tvegs", "gauge", "Live TVEGs the plan cache shares.")
        w.sample("repro_shared_tvegs", float(doc["shared_tvegs"]), labels)  # type: ignore[arg-type]
    cache = doc.get("cache")
    if isinstance(cache, Mapping):
        _emit_cache(w, cache, labels)
    batcher = doc.get("batcher")
    if isinstance(batcher, Mapping):
        w.family("repro_batcher_events_total", "counter", "Batcher queue outcomes.")
        for key in ("submitted", "deduped", "executed", "failures",
                    "rejected"):
            if key in batcher:
                w.sample(
                    "repro_batcher_events_total",
                    float(batcher[key]),  # type: ignore[arg-type]
                    {**labels, "event": key},
                )
        if "queue_depth" in batcher:
            w.family("repro_queue_depth", "gauge", "Batcher queue depth.")
            w.sample("repro_queue_depth", float(batcher["queue_depth"]), labels)  # type: ignore[arg-type]
    if include_telemetry:
        telemetry = doc.get("telemetry")
        if isinstance(telemetry, Mapping):
            _emit_registry_doc(w, telemetry, labels)


def render_prometheus(doc: Mapping[str, object]) -> str:
    """Render a service ``/metrics`` JSON document as exposition text.

    Accepts the local/single-process shape, the ``mode: "sharded"``
    pool shape, and bare :class:`~repro.obs.histogram.MetricsRegistry`
    docs (``{"counters": ..., "histograms": ...}``).
    """
    w = _Writer()
    if "uptime_seconds" in doc:
        w.family("repro_uptime_seconds", "gauge", "Seconds since the service started.")
        w.sample("repro_uptime_seconds", float(doc["uptime_seconds"]))  # type: ignore[arg-type]

    shards = doc.get("shards")
    if doc.get("mode") == "sharded" and isinstance(shards, list):
        w.family("repro_shard_alive", "gauge", "1 if the shard process is alive.")
        w.family("repro_shard_inflight", "gauge", "Requests in flight on the shard pipe.")
        w.family(
            "repro_shard_routed_total", "counter", "Requests routed to the shard."
        )
        for entry in shards:
            labels = {"shard": str(entry.get("shard", "?"))}
            w.sample("repro_shard_alive", 1.0 if entry.get("alive") else 0.0, labels)
            w.sample("repro_shard_inflight", float(entry.get("inflight", 0)), labels)
            w.sample(
                "repro_shard_routed_total", float(entry.get("requests", 0)), labels
            )
            svc = entry.get("service")
            if isinstance(svc, Mapping):
                _emit_service_doc(w, svc, labels, include_telemetry=False)
        totals = doc.get("totals")
        if isinstance(totals, Mapping):
            w.family(
                "repro_pool_requests_total",
                "counter",
                "Cumulative requests across live and drained shards.",
            )
            w.sample("repro_pool_requests_total", float(totals.get("requests", 0)))  # type: ignore[arg-type]
            w.family(
                "repro_pool_errors_total",
                "counter",
                "Cumulative errors across live and drained shards.",
            )
            w.sample("repro_pool_errors_total", float(totals.get("errors", 0)))  # type: ignore[arg-type]
        telemetry = doc.get("telemetry")
        if isinstance(telemetry, Mapping):
            _emit_registry_doc(w, telemetry, {})
    elif "counters" in doc or "histograms" in doc:
        _emit_registry_doc(w, doc, {})
    else:
        _emit_service_doc(w, doc, {})

    frontend = doc.get("frontend")
    if isinstance(frontend, Mapping):
        w.family("repro_frontend_active_requests", "gauge", "Front-end requests in flight.")
        w.sample(
            "repro_frontend_active_requests",
            float(frontend.get("active_requests", 0)),
        )
        w.family("repro_frontend_served_total", "counter", "Responses written by the front-end.")
        w.sample("repro_frontend_served_total", float(frontend.get("served", 0)))
        w.family("repro_frontend_errors_total", "counter", "Front-end error responses.")
        w.sample("repro_frontend_errors_total", float(frontend.get("errors", 0)))
        edge = frontend.get("edge_cache")
        if isinstance(edge, Mapping):
            w.family("repro_edge_cache_events_total", "counter", "Edge response-cache outcomes.")
            for key in ("hits", "misses"):
                if key in edge:
                    w.sample(
                        "repro_edge_cache_events_total",
                        float(edge[key]),  # type: ignore[arg-type]
                        {"event": key},
                    )
            if "entries" in edge:
                w.family("repro_edge_cache_entries", "gauge", "Edge cache resident entries.")
                w.sample("repro_edge_cache_entries", float(edge["entries"]))  # type: ignore[arg-type]
            if "hit_ratio" in edge:
                w.family("repro_edge_cache_hit_ratio", "gauge", "Edge cache hit ratio.")
                w.sample("repro_edge_cache_hit_ratio", float(edge["hit_ratio"]))  # type: ignore[arg-type]
        telemetry = frontend.get("telemetry")
        if isinstance(telemetry, Mapping):
            _emit_registry_doc(w, telemetry, {"component": "frontend"})
    return w.render()


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def parse_prometheus_text(
    text: str,
) -> Tuple[Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float], Dict[str, str]]:
    """Parse exposition text into samples and declared family types.

    Returns ``(samples, types)`` where ``samples`` maps
    ``(metric_name, sorted_label_pairs)`` to the value and ``types``
    maps family name to its ``# TYPE``.  Raises ``ValueError`` on any
    line that is neither a comment, blank, nor a well-formed sample —
    the strictness is the point: CI uses this to prove the exposition
    parses.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    types: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                raise ValueError(f"line {lineno}: malformed TYPE comment: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        raw_labels = m.group("labels")
        labels: List[Tuple[str, str]] = []
        if raw_labels:
            consumed = 0
            for lm in _LABEL.finditer(raw_labels):
                value = lm.group(2)
                value = (
                    value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
                labels.append((lm.group(1), value))
                consumed = lm.end()
            leftover = raw_labels[consumed:].strip().strip(",").strip()
            if leftover:
                raise ValueError(
                    f"line {lineno}: malformed labels {raw_labels!r}"
                )
        key = (m.group("name"), tuple(sorted(labels)))
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = _parse_value(m.group("value"))
    return samples, types
