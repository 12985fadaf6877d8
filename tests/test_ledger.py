"""Run ledger, typed events, manifests, bench gate, and HTML reports."""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import logging
import math

import pytest

from repro import check_feasibility, make_scheduler, obs
from repro.algorithms import SCHEDULERS
from repro.errors import InfeasibleError
from repro.params import PAPER_PARAMS
from repro.schedule import Schedule, Transmission
from repro.obs.bench import compare
from repro.obs.events import Event, event_from_json, event_to_json
from repro.obs.report import render_html
from repro.online import run_online
from repro.online.protocols import Epidemic
from repro.sim import simulate_schedule

from .conftest import make_random_instance


@pytest.fixture(autouse=True)
def _clean_global_ledger():
    """Every test starts and ends with the ledger disabled."""
    obs.disable_ledger()
    yield
    obs.disable_ledger()


class TestEvents:
    def test_json_roundtrip(self):
        ev = Event(seq=3, type="relay_selected", t=12.5,
                   fields={"relay": 4, "cost": 1e-11})
        back = event_from_json(event_to_json(ev))
        assert back == ev

    def test_none_time_and_empty_fields_omitted(self):
        ev = Event(seq=0, type="run_summary", t=None, fields={})
        doc = json.loads(event_to_json(ev))
        assert "t" not in doc and "fields" not in doc
        assert event_from_json(event_to_json(ev)) == ev

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            event_from_json("not json")
        with pytest.raises(ValueError):
            event_from_json('{"seq": 0}')  # missing type

    def test_non_json_fields_coerced(self):
        ev = Event(seq=0, type="x", t=None, fields={"s": {1, 2}, "n": (3, 4)})
        doc = json.loads(event_to_json(ev))
        assert doc["fields"]["n"] == [3, 4]


class TestLedger:
    def test_noop_by_default(self):
        assert not obs.ledger_enabled()
        obs.emit("relay_selected", t=1.0, relay=0)
        assert obs.ledger_events() == ()

    def test_enable_records_in_order(self):
        obs.enable_ledger()
        obs.emit("a", t=1.0)
        obs.emit("b", x=2)
        evs = obs.ledger_events()
        assert [e.type for e in evs] == ["a", "b"]
        assert [e.seq for e in evs] == [0, 1]

    def test_clear_resets_sequence(self):
        led = obs.enable_ledger()
        obs.emit("a")
        led.clear()
        obs.emit("b")
        assert [e.seq for e in led.events()] == [0]

    def test_ndjson_roundtrip_via_buffer(self):
        obs.enable_ledger()
        obs.emit("relay_selected", t=5.0, relay=1, cost=2e-12)
        obs.emit("run_summary", algorithm="eedcb")
        buf = io.StringIO()
        assert obs.write_ledger_ndjson(buf) == 2
        back = obs.read_ledger_ndjson(io.StringIO(buf.getvalue()))
        assert back == list(obs.ledger_events())

    def test_ndjson_file_roundtrip_skips_blanks(self, tmp_path):
        p = tmp_path / "run.ndjson"
        obs.enable_ledger()
        obs.emit("a", t=1.0, node=3)
        obs.write_ledger_ndjson(p)
        p.write_text(p.read_text() + "\n\n")
        assert [e.type for e in obs.read_ledger_ndjson(p)] == ["a"]

    def test_read_names_bad_line_number(self, tmp_path):
        p = tmp_path / "bad.ndjson"
        p.write_text('{"seq":0,"type":"a"}\ngarbage\n')
        with pytest.raises(ValueError, match="line 2"):
            obs.read_ledger_ndjson(p)

    def test_streaming_through_logger(self):
        logger = logging.getLogger("test.ledger.stream")
        logger.setLevel(logging.INFO)
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger.addHandler(handler)
        try:
            obs.enable_ledger(logger=logger)
            obs.emit("relay_selected", t=2.0, relay=7)
        finally:
            logger.removeHandler(handler)
        assert len(records) == 1
        assert "relay_selected" in records[0].getMessage()
        assert "relay=7" in records[0].getMessage()

    def test_format_event(self):
        line = obs.format_event(
            Event(seq=0, type="energy_debited", t=3.0,
                  fields={"relay": 1, "cost": 0.5})
        )
        assert line == "energy_debited t=3 cost=0.5 relay=1"


class TestManifest:
    def test_config_hash_ignores_ordering(self):
        a = obs.config_hash({"x": 1, "y": [1, 2], "z": {"a": True}})
        b = obs.config_hash({"z": {"a": True}, "y": (1, 2), "x": 1})
        assert a == b

    def test_config_hash_distinguishes_values(self):
        assert obs.config_hash({"x": 1}) != obs.config_hash({"x": 2})

    def test_run_manifest_fields_and_determinism(self):
        m1 = obs.run_manifest(config={"algorithm": "eedcb", "delay": 100.0},
                              seed=7)
        m2 = obs.run_manifest(config={"delay": 100.0, "algorithm": "eedcb"},
                              seed=7)
        assert m1["schema"] == obs.MANIFEST_SCHEMA
        assert m1["config_hash"] == m2["config_hash"]
        assert m1["seed"] == 7
        assert m1["python"] and m1["platform"]

    def test_git_runs_once_per_process_and_directory(self, tmp_path,
                                                      monkeypatch):
        import subprocess

        spawned = []

        def fake_run(args, cwd=None, **kwargs):
            spawned.append((tuple(args), cwd))
            return subprocess.CompletedProcess(args, 0, stdout="c0ffee\n",
                                               stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        here, other = tmp_path / "here", tmp_path / "other"
        here.mkdir()
        other.mkdir()
        monkeypatch.chdir(here)
        m1 = obs.run_manifest(config={"k": 1})
        m2 = obs.run_manifest(config={"k": 2})
        assert m1["git_sha"] == m2["git_sha"] == "c0ffee"
        assert len(spawned) == 1
        assert spawned[0][0] == ("git", "rev-parse", "HEAD")
        # another directory asks git once more, then is memoized too
        assert obs.git_sha(cwd=str(other)) == "c0ffee"
        assert obs.git_sha(cwd=str(other)) == "c0ffee"
        assert len(spawned) == 2

    def test_manifest_file_roundtrip(self, tmp_path):
        p = tmp_path / "m.json"
        m = obs.run_manifest(config={"k": 1}, wall_seconds=0.25, figure="fig5")
        obs.write_manifest(m, p)
        back = obs.read_manifest(p)
        assert back == json.loads(json.dumps(m))
        assert back["figure"] == "fig5"
        assert back["wall_seconds"] == 0.25


class TestConfigHashStability:
    """Regression: the plan cache keys on config_hash, so representation
    noise — dataclass field order, dict insertion order, list vs tuple —
    must never change the hash (a silently different key would turn every
    cache lookup into a miss; a colliding one would replay wrong plans)."""

    def test_dict_insertion_order_all_permutations(self):
        items = [("a", 1), ("b", [2, 3]), ("c", {"x": True}), ("d", None)]
        hashes = {
            obs.config_hash(dict(perm))
            for perm in itertools.permutations(items)
        }
        assert len(hashes) == 1

    def test_nested_key_order(self):
        a = {"outer": {"p": 1, "q": {"r": [1, 2], "s": 2}}}
        b = {"outer": {"q": {"s": 2, "r": [1, 2]}, "p": 1}}
        assert obs.config_hash(a) == obs.config_hash(b)

    def test_list_tuple_equivalence(self):
        assert obs.config_hash({"xs": [1, 2, 3]}) == obs.config_hash(
            {"xs": (1, 2, 3)}
        )
        assert obs.config_hash({"xs": [[1], (2,)]}) == obs.config_hash(
            {"xs": ((1,), [2])}
        )

    def test_sequence_order_is_significant(self):
        # Sequences are payload, not keys: reordering them is a different
        # config and must hash differently.
        assert obs.config_hash({"xs": [1, 2]}) != obs.config_hash(
            {"xs": [2, 1]}
        )

    def test_set_iteration_order(self):
        a = {"nodes": {3, 1, 2}}
        b = {"nodes": {2, 3, 1}}
        assert obs.config_hash(a) == obs.config_hash(b)

    def test_dataclass_field_reordering(self):
        @dataclasses.dataclass
        class ConfigV1:
            alpha: float
            beta: int
            gamma: str

        @dataclasses.dataclass
        class ConfigV2:  # same fields, different declaration order
            gamma: str
            alpha: float
            beta: int

        v1 = dataclasses.asdict(ConfigV1(alpha=2.0, beta=3, gamma="x"))
        v2 = dataclasses.asdict(ConfigV2(gamma="x", alpha=2.0, beta=3))
        assert obs.config_hash(v1) == obs.config_hash(v2)

    def test_phy_params_reordering_via_asdict(self):
        # The real dataclass the plan-cache key embeds ("params").
        d = dataclasses.asdict(PAPER_PARAMS)
        reordered = dict(reversed(list(d.items())))
        assert obs.config_hash({"params": d}) == obs.config_hash(
            {"params": reordered}
        )

    def test_hash_is_pinned(self):
        # The disk cache persists across versions; a change to the
        # canonicalization silently orphans every stored plan.  Update this
        # constant only with a deliberate cache-format bump.
        config = {
            "algorithm": "eedcb", "deadline": 2000.0, "window": None,
            "scheduler_kwargs": {}, "seed": 7, "instance": "0" * 16,
        }
        assert obs.config_hash(config) == "0c65b5c4a4491d50"


class TestDomainEvents:
    def test_scheduler_emits_selection_and_schedule_events(self):
        _, tveg = make_random_instance(seed=2)
        obs.enable_ledger()
        result = make_scheduler("greed").run(tveg, 0, 300.0)
        types = [e.type for e in obs.ledger_events()]
        assert types.count(obs.EV_TRANSMISSION_SCHEDULED) == len(result.schedule)
        assert obs.EV_RELAY_SELECTED in types
        sel = next(e for e in obs.ledger_events()
                   if e.type == obs.EV_RELAY_SELECTED)
        assert sel.fields["algorithm"] == "greed"
        assert sel.fields["cost"] > 0

    def test_eedcb_emits_tagged_schedule(self):
        _, tveg = make_random_instance(seed=2)
        obs.enable_ledger()
        result = make_scheduler("eedcb").run(tveg, 0, 300.0)
        rows = [e for e in obs.ledger_events()
                if e.type == obs.EV_TRANSMISSION_SCHEDULED]
        assert len(rows) == len(result.schedule)
        assert all(e.fields["algorithm"] == "eedcb" for e in rows)
        assert all(e.t is not None for e in rows)
        # Every scheduler tags its own result rows, on a full run (300 s)
        # and on a partial one (20 s: GREED/RAND and their FR variants keep
        # the partial backbone; EEDCB, FR-EEDCB and the oracle refuse it).
        _, fading = make_random_instance(seed=2, channel="rayleigh")
        partial = 0
        for name in sorted(SCHEDULERS):
            graph = fading if name.startswith("fr-") else tveg
            for deadline in (300.0, 20.0):
                obs.disable_ledger()
                obs.enable_ledger()
                try:
                    result = make_scheduler(name).run(graph, 0, deadline)
                except InfeasibleError:
                    assert deadline == 20.0
                    assert name in ("eedcb", "fr-eedcb", "oracle")
                    continue
                tagged = [
                    (e.fields["relay"], e.t, e.fields["cost"])
                    for e in obs.ledger_events()
                    if e.type == obs.EV_TRANSMISSION_SCHEDULED
                    and e.fields["algorithm"] == name
                ]
                want = [(s.relay, s.time, s.cost) for s in result.schedule]
                assert tagged == want, (name, deadline)
                if deadline == 20.0 and want:
                    partial += 1
        assert partial == 4  # greed, rand, fr-greed, fr-rand

    def test_feasibility_silent_without_record_label(self):
        _, tveg = make_random_instance(seed=2)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 300.0)
        obs.enable_ledger()
        check_feasibility(tveg, schedule, 0, 300.0)
        assert len(obs.ledger_events()) == 0

    def test_feasibility_records_crossings_and_verdict(self):
        _, tveg = make_random_instance(seed=2)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 300.0)
        obs.enable_ledger()
        report = check_feasibility(tveg, schedule, 0, 300.0, record="final")
        evs = obs.ledger_events()
        informed = [e for e in evs if e.type == obs.EV_NODE_INFORMED]
        finite = sum(1 for _, t in report.informed_times if math.isfinite(t))
        assert len(informed) == finite
        assert all(e.fields["check"] == "final" for e in informed)
        checked = [e for e in evs if e.type == obs.EV_FEASIBILITY_CHECKED]
        assert len(checked) == 1
        assert checked[0].fields["feasible"] == report.feasible

    def test_node_informed_tagged_with_check_eps(self, det_fading):
        # Each row spends 0.4·w0: at ε = 0.2 one firing informs (node 1 at
        # t=15, node 2 at t=25), while the TVEG's own ε is 0.01.
        w = det_fading.min_cost
        sched = Schedule([
            Transmission(0, 15.0, 0.4 * w(0, 1, 15.0)),
            Transmission(0, 16.0, 0.4 * w(0, 1, 16.0)),
            Transmission(0, 17.0, 0.4 * w(0, 3, 17.0)),
            Transmission(1, 25.0, 0.4 * w(1, 2, 25.0)),
        ])
        assert det_fading.params.epsilon != 0.2
        obs.enable_ledger()
        check_feasibility(det_fading, sched, 0, 100.0, eps=0.2,
                          record="final")
        informed = {
            e.fields["node"]: (e.t, e.fields["eps"])
            for e in obs.ledger_events() if e.type == obs.EV_NODE_INFORMED
        }
        assert informed[1] == (15.0, 0.2)
        assert informed[2] == (25.0, 0.2)
        assert {eps for _, eps in informed.values()} == {0.2}

    def test_feasibility_violations_name_constraints(self):
        _, tveg = make_random_instance(seed=2)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 300.0)
        obs.enable_ledger()
        # Impossible deadline: latency + all_informed must both fire.
        report = check_feasibility(tveg, schedule, 0, 1.0, record="final")
        assert not report.feasible
        constraints = {
            e.fields["constraint"] for e in obs.ledger_events()
            if e.type == obs.EV_CONSTRAINT_VIOLATED
        }
        assert "latency" in constraints
        assert "all_informed" in constraints

    def test_simulator_emits_debits_and_receptions(self):
        _, tveg = make_random_instance(seed=2)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 300.0)
        obs.enable_ledger()
        out = simulate_schedule(tveg, schedule, 0, seed=1, trial_id=5)
        evs = obs.ledger_events()
        debits = [e for e in evs if e.type == obs.EV_ENERGY_DEBITED]
        assert len(debits) == out.transmissions
        assert all(e.fields["trial"] == 5 for e in debits)
        received = [e for e in evs if e.type == obs.EV_SIM_RECEPTION]
        assert len(received) == len(out.received) - 1  # source excluded

    def test_online_engine_emits_attempts(self):
        _, tveg = make_random_instance(seed=2, channel="rayleigh")
        obs.enable_ledger()
        out = run_online(tveg, Epidemic(), 0, 300.0, seed=3)
        attempts = [e for e in obs.ledger_events()
                    if e.type == obs.EV_ONLINE_ATTEMPT]
        assert len(attempts) == out.attempts
        assert sum(1 for e in attempts if e.fields["success"]) == out.successes

    def test_results_identical_with_and_without_ledger(self):
        _, tveg = make_random_instance(seed=2)
        baseline = make_scheduler("eedcb").run(tveg, 0, 300.0)
        obs.enable_ledger()
        recorded = make_scheduler("eedcb").run(tveg, 0, 300.0)
        obs.disable_ledger()
        assert baseline.schedule == recorded.schedule


class TestSchedulerInfoKeys:
    """Every scheduler reports stage_seconds, on success and early exit."""

    def test_all_schedulers_report_stage_seconds_on_success(self):
        _, static = make_random_instance(seed=2)
        _, fading = make_random_instance(seed=2, channel="rayleigh")
        cases = [
            ("eedcb", static), ("greed", static), ("rand", static),
            ("oracle", static), ("fr-eedcb", fading), ("fr-greed", fading),
            ("fr-rand", fading),
        ]
        for name, tveg in cases:
            info = make_scheduler(name).run(tveg, 0, 300.0).info
            assert "stage_seconds" in info, name
            assert all(v >= 0.0 for v in info["stage_seconds"].values()), name

    def test_fr_partial_coverage_early_exit_keeps_stage_seconds(self):
        _, fading = make_random_instance(seed=2, channel="rayleigh")
        for name in ("fr-greed", "fr-rand"):
            # A deadline too short to cover everyone: the FR wrapper returns
            # the partial backbone without running the allocation NLP.
            info = make_scheduler(name).run(fading, 0, 20.0).info
            assert info["allocation_method"] == "backbone (partial coverage)"
            assert "stage_seconds" in info, name

    def test_fr_algorithms_report_nlp_iterations(self):
        _, fading = make_random_instance(seed=2, channel="rayleigh")
        for name in ("fr-eedcb", "fr-greed", "fr-rand"):
            info = make_scheduler(name).run(fading, 0, 300.0).info
            assert info["nlp_iterations"] >= 0, name


class TestBenchGate:
    def _doc(self, quick=True, cal=10.0, **ops):
        return {
            "schema": "repro.bench/1",
            "quick": quick,
            "calibration_ms": cal,
            "results": {
                op: {"tier1": True, "min_ms": ms, "p50_ms": ms,
                     "counters": counters or {}}
                for op, (ms, counters) in ops.items()
            },
        }

    def test_gate_passes_on_identical_docs(self):
        doc = self._doc(eedcb_run=(100.0, None))
        assert compare(doc, doc) == []

    def test_gate_fails_past_tolerance(self):
        base = self._doc(eedcb_run=(100.0, None))
        cur = self._doc(eedcb_run=(130.0, None))
        problems = compare(cur, base)
        assert len(problems) == 1 and "eedcb_run" in problems[0]
        assert compare(cur, base, tolerance=0.5) == []

    def test_gate_normalizes_by_calibration(self):
        # 30% slower op on a uniformly 30% slower machine: no regression.
        base = self._doc(cal=10.0, eedcb_run=(100.0, None))
        cur = self._doc(cal=13.0, eedcb_run=(130.0, None))
        assert compare(cur, base) == []

    def test_gate_catches_counter_growth(self):
        base = self._doc(steiner_solve=(50.0, {"steiner_expansions": 1000.0}))
        cur = self._doc(steiner_solve=(50.0, {"steiner_expansions": 2000.0}))
        problems = compare(cur, base)
        assert problems and "steiner_expansions" in problems[0]

    def test_gate_refuses_mode_mismatch(self):
        base = self._doc(quick=False, eedcb_run=(100.0, None))
        cur = self._doc(quick=True, eedcb_run=(100.0, None))
        assert any("quick" in p for p in compare(cur, base))

    def test_sub_millisecond_jitter_ignored(self):
        base = self._doc(dts_build=(0.10, None))
        cur = self._doc(dts_build=(0.50, None))  # +400% but < 1 ms absolute
        assert compare(cur, base) == []

    def test_gate_catches_memory_growth(self):
        base = self._doc(trace_ingest=(100.0, {"peak_mb": 100.0}))
        cur = self._doc(trace_ingest=(100.0, {"peak_mb": 140.0}))
        problems = compare(cur, base)
        assert problems and "peak memory" in problems[0]
        assert compare(cur, base, tolerance=0.5) == []

    def test_memory_gate_has_absolute_slack(self):
        # +50% but only +5 MB absolute: allocator noise, not a regression.
        base = self._doc(trace_ingest=(100.0, {"peak_mb": 10.0}))
        cur = self._doc(trace_ingest=(100.0, {"peak_mb": 15.0}))
        assert compare(cur, base) == []

    @staticmethod
    def _with_op_calibration(doc, **cals):
        for op, cal in cals.items():
            doc["results"][op]["calibration_ms"] = cal
        return doc

    def test_gate_scales_each_op_by_its_own_calibration(self):
        # The machine halved its speed during one op only: that op and the
        # calibration right before it both doubled, while the suite's own
        # calibration stayed put.  No regression.
        base = self._with_op_calibration(
            self._doc(cal=10.0, trace_ingest=(100.0, None),
                      eedcb_run=(100.0, None)),
            trace_ingest=10.0, eedcb_run=10.0,
        )
        cur = self._with_op_calibration(
            self._doc(cal=10.0, trace_ingest=(200.0, None),
                      eedcb_run=(100.0, None)),
            trace_ingest=20.0, eedcb_run=10.0,
        )
        assert compare(cur, base, tolerance=0.5) == []

    def test_gate_fails_slowdown_at_equal_op_calibration(self):
        base = self._with_op_calibration(
            self._doc(cal=10.0, trace_ingest=(100.0, None)), trace_ingest=10.0
        )
        cur = self._with_op_calibration(
            self._doc(cal=20.0, trace_ingest=(200.0, None)), trace_ingest=10.0
        )
        problems = compare(cur, base, tolerance=0.5)
        assert len(problems) == 1 and "trace_ingest" in problems[0]

    def test_gate_falls_back_to_suite_calibration(self):
        # A baseline recorded before per-op calibration: its ops scale by
        # the suite calibration, the current ops by their own.
        base = self._doc(cal=10.0, trace_ingest=(100.0, None))
        slow_machine = self._with_op_calibration(
            self._doc(cal=10.0, trace_ingest=(200.0, None)), trace_ingest=20.0
        )
        assert compare(slow_machine, base, tolerance=0.5) == []
        slow_code = self._with_op_calibration(
            self._doc(cal=20.0, trace_ingest=(200.0, None)), trace_ingest=10.0
        )
        assert compare(slow_code, base, tolerance=0.5)

    def test_memory_gate_ignores_calibration(self):
        # A slower machine does not excuse a bigger heap: calibration
        # scales times, never the peak_mb counter.
        base = self._doc(cal=10.0, trace_ingest=(100.0, {"peak_mb": 100.0}))
        cur = self._doc(cal=20.0, trace_ingest=(100.0, {"peak_mb": 140.0}))
        problems = compare(cur, base)
        assert problems and "peak memory" in problems[0]


class TestReport:
    def _recorded_run(self):
        _, tveg = make_random_instance(seed=2)
        obs.enable_ledger()
        obs.emit(obs.EV_MANIFEST, **obs.run_manifest(config={"algorithm": "eedcb"}))
        result = make_scheduler("eedcb").run(tveg, 0, 300.0)
        report = check_feasibility(tveg, result.schedule, 0, 300.0,
                                   record="final")
        obs.emit(obs.EV_RUN_SUMMARY, algorithm="eedcb",
                 num_nodes=tveg.num_nodes, transmissions=len(result.schedule),
                 total_cost=result.schedule.total_cost,
                 feasible=report.feasible,
                 stage_seconds=result.info["stage_seconds"])
        return list(obs.ledger_events())

    def test_render_contains_all_sections(self):
        evs = self._recorded_run()
        manifest = dict(evs[0].fields)
        html = render_html(evs, manifest)
        for fragment in ("<svg", "Per-node energy", "Stage timing",
                         "Manifest", "config_hash", "Event summary",
                         "eedcb"):
            assert fragment in html, fragment

    def test_render_tolerates_empty_ledger(self):
        html = render_html([], {})
        assert "Event summary" in html

    def test_render_lists_violations(self):
        evs = [Event(seq=0, type=obs.EV_CONSTRAINT_VIOLATED, t=None,
                     fields={"constraint": "budget", "detail": "over"})]
        html = render_html(evs)
        assert "budget" in html and "over" in html
