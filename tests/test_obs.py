"""Observability subsystem: tracer semantics, aggregation, exporters, and
the guarantee that instrumentation does not perturb scheduler results."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro import check_feasibility, make_scheduler, obs
from repro.obs import (
    MetricsReport,
    NoopTracer,
    Tracer,
    aggregate,
    chrome_trace_document,
    percentile,
    write_chrome_trace,
    write_metrics_csv,
)

from .aux_oracle import build_aux_graph
from .conftest import make_random_instance


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Every test starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


class TestTracer:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert isinstance(obs.get_tracer(), NoopTracer)

    def test_enable_disable_roundtrip(self):
        tracer = obs.enable()
        assert obs.is_enabled()
        assert obs.get_tracer() is tracer
        # enabling again keeps the same tracer (and its recorded data)
        assert obs.enable() is tracer
        obs.disable()
        assert not obs.is_enabled()

    def test_span_nesting_depth_and_parent(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
            with obs.span("sibling"):
                pass
        snap = obs.snapshot()
        by_name = {s.name: s for s in snap.spans}
        assert by_name["outer"].depth == 0
        assert by_name["middle"].depth == 1
        assert by_name["inner"].depth == 2
        assert by_name["sibling"].depth == 1
        assert by_name["inner"].parent == by_name["middle"].id
        assert by_name["middle"].parent == by_name["outer"].id
        assert by_name["sibling"].parent == by_name["outer"].id
        assert by_name["outer"].parent is None
        for s in snap.spans:
            assert s.duration is not None and s.duration >= 0.0

    def test_span_decorator_late_binding(self):
        @obs.span("decorated.fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # disabled: records nothing, still works
        assert not obs.snapshot().spans
        obs.enable()
        assert fn(2) == 3  # enabled after decoration: now records
        assert [s.name for s in obs.snapshot().spans] == ["decorated.fn"]

    def test_span_records_attrs_and_exceptions(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom", kind="test"):
                raise ValueError("x")
        (span,) = obs.snapshot().spans
        assert span.name == "boom"
        assert span.attrs["kind"] == "test"
        assert span.duration is not None  # closed despite the exception

    def test_counters_and_gauges(self):
        obs.enable()
        obs.counter("hits")
        obs.counter("hits", 2)
        obs.counter("bytes", 0.5)
        obs.gauge("nodes", 10)
        obs.gauge("nodes", 12)  # last write wins
        snap = obs.snapshot()
        assert snap.counters == {"hits": 3.0, "bytes": 0.5}
        assert snap.gauges == {"nodes": 12.0}

    def test_noop_tracer_records_nothing(self):
        with obs.span("ignored"):
            obs.counter("ignored")
            obs.gauge("ignored", 1)
        snap = obs.snapshot()
        assert not snap.spans and not snap.counters and not snap.gauges

    def test_reset_clears_recorded_data(self):
        obs.enable()
        with obs.span("a"):
            obs.counter("c")
        obs.reset()
        snap = obs.snapshot()
        assert not snap.spans and not snap.counters

    def test_snapshot_excludes_open_spans(self):
        tracer = Tracer()
        with tracer.span("open"):
            assert tracer.snapshot().spans == ()
        assert [s.name for s in tracer.snapshot().spans] == ["open"]

    def test_stage_helper_times_even_when_disabled(self):
        sink = {}
        with obs.stage(sink, "phase1"):
            pass
        with obs.stage(sink, "phase1"):  # accumulates
            pass
        assert sink["phase1"] >= 0.0
        assert not obs.snapshot().spans  # no tracer → no span
        obs.enable()
        with obs.stage(sink, "phase2", "pretty.name"):
            pass
        assert "phase2" in sink
        assert [s.name for s in obs.snapshot().spans] == ["pretty.name"]


class TestMetrics:
    def test_percentile_interpolation(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 4.0
        assert percentile(vals, 50) == pytest.approx(2.5)

    def test_aggregate_groups_spans_by_name(self):
        obs.enable()
        for _ in range(5):
            with obs.span("work"):
                pass
        obs.counter("n", 7)
        obs.gauge("g", 3.0)
        report = aggregate(obs.snapshot())
        assert isinstance(report, MetricsReport)
        assert set(report.timers) == {"work"}
        durations = report.timers["work"]
        assert len(durations) == 5
        assert min(durations) <= percentile(durations, 50) <= max(durations)
        assert report.counters == {"n": 7.0}
        assert report.gauges == {"g": 3.0}
        (timer_row,) = [r for r in report.rows() if r.kind == "timer"]
        assert (timer_row.name, timer_row.count) == ("work", 5)
        assert timer_row.p50 <= timer_row.p90 <= timer_row.p99

    def test_rows_ordering(self):
        obs.enable()
        with obs.span("t"):
            pass
        obs.counter("c")
        obs.gauge("g", 1)
        kinds = [r.kind for r in aggregate(obs.snapshot()).rows()]
        assert kinds == ["timer", "counter", "gauge"]


class TestExport:
    def _sample_snapshot(self):
        obs.enable()
        with obs.span("outer", algorithm="eedcb"):
            with obs.span("inner"):
                pass
        obs.counter("events", 3)
        obs.gauge("size", 42)
        return obs.snapshot()

    def test_chrome_trace_json_roundtrip(self, tmp_path):
        snap = self._sample_snapshot()
        path = tmp_path / "trace.json"
        write_chrome_trace(snap, path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for e in complete:
            # Chrome requires these keys; ts/dur are microseconds
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["dur"] >= 0
        outer = next(e for e in complete if e["name"] == "outer")
        inner = next(e for e in complete if e["name"] == "inner")
        assert outer["args"]["algorithm"] == "eedcb"
        assert outer["ts"] <= inner["ts"]
        assert doc["otherData"]["counters"]["events"] == 3.0

    def test_chrome_trace_document_counts(self):
        snap = self._sample_snapshot()
        doc = chrome_trace_document(snap)
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 2

    def test_metrics_csv_roundtrip(self, tmp_path):
        snap = self._sample_snapshot()
        path = tmp_path / "metrics.csv"
        write_metrics_csv(snap, path)
        rows = list(csv.DictReader(path.open()))
        assert rows, "csv must not be empty"
        by_key = {(r["kind"], r["name"]): r for r in rows}
        assert float(by_key[("counter", "events")]["total"]) == 3.0
        assert float(by_key[("gauge", "size")]["total"]) == 42.0
        timer = by_key[("timer", "outer")]
        assert int(timer["count"]) == 1
        assert float(timer["min"]) <= float(timer["p50"]) <= float(timer["max"])

    def test_export_accepts_open_files(self):
        snap = self._sample_snapshot()
        buf = io.StringIO()
        write_metrics_csv(snap, buf)
        assert buf.getvalue().startswith("kind,name,count,total")
        buf2 = io.StringIO()
        write_chrome_trace(snap, buf2)
        assert json.loads(buf2.getvalue())["traceEvents"]


class TestInstrumentedPipeline:
    def test_scheduler_result_identical_with_and_without_tracing(self):
        _, tveg = make_random_instance(seed=2)
        baseline = make_scheduler("eedcb").run(tveg, 0, 300.0)
        obs.enable()
        traced = make_scheduler("eedcb").run(tveg, 0, 300.0)
        obs.disable()
        again = make_scheduler("eedcb").run(tveg, 0, 300.0)
        assert baseline.schedule == traced.schedule == again.schedule
        for key in ("aux_nodes", "aux_edges", "dts_points", "dcs_levels",
                    "steiner_expansions", "tree_cost"):
            assert baseline.info[key] == traced.info[key] == again.info[key]

    def test_standardized_info_keys_present(self):
        _, tveg = make_random_instance(seed=2)
        info = make_scheduler("eedcb").run(tveg, 0, 300.0).info
        for key in ("stage_seconds", "aux_nodes", "aux_edges", "dts_points",
                    "dcs_levels", "steiner_expansions", "memt_method",
                    "tree_cost", "raw_cost"):
            assert key in info, key
        stages = info["stage_seconds"]
        for stage in ("reachability", "dts", "auxgraph", "steiner",
                      "extract", "reduce"):
            assert stages[stage] >= 0.0

    def test_fr_pipeline_reports_allocation_metrics(self):
        _, tveg = make_random_instance(seed=2, channel="rayleigh")
        info = make_scheduler("fr-eedcb").run(tveg, 0, 300.0).info
        assert info["nlp_iterations"] >= 0
        assert "allocation" in info["stage_seconds"]

    def test_pipeline_spans_and_counters_recorded(self):
        _, tveg = make_random_instance(seed=2)
        obs.enable()
        result = make_scheduler("eedcb").run(tveg, 0, 300.0)
        check_feasibility(tveg, result.schedule, 0, 300.0)
        snap = obs.snapshot()
        names = set(snap.span_names)
        assert {"scheduler.run", "eedcb.steiner", "auxgraph.numpy_build",
                "steiner.solve_memt"} <= names
        assert snap.counters.get("auxgraph.numpy_builds") == 1.0
        assert snap.counters.get("steiner.expansions", 0) > 0
        assert snap.gauges.get("auxgraph.nodes") == float(result.info["aux_nodes"])

    def test_nx_backend_spans_and_counters_recorded(self):
        _, tveg = make_random_instance(seed=2)
        obs.enable()
        aux = build_aux_graph(tveg, 0, 300.0)
        snap = obs.snapshot()
        assert "auxgraph.build" in set(snap.span_names)
        assert snap.counters.get("auxgraph.builds") == 1.0
        assert snap.gauges.get("auxgraph.nodes") == float(aux.num_nodes)
        assert snap.gauges.get("auxgraph.edges") == float(aux.num_edges)
