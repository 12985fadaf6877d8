"""The compiled aux fill and Steiner search: build, cache, load and argument checks.

Each test runs Python in a subprocess whose ``PYTHONPYCACHEPREFIX`` is a
fresh directory, so the library cache starts empty and a failed or
crashing call cannot take the test process down with it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: plans EEDCB once on the deterministic trace and prints the schedule
PLAN = """
import json
from repro import plan_broadcast
from repro.traces import deterministic_trace
plan = plan_broadcast(deterministic_trace(), 0, 100.0, seed=1)
print(json.dumps([[s.relay, s.time, s.cost] for s in plan.schedule]))
"""


def _python(code, cache, **env):
    """Start ``code`` with an empty library cache at ``cache``."""
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC,
             "PYTHONPYCACHEPREFIX": str(cache), **env},
    )


def _run(code, cache, **env):
    proc = _python(code, cache, **env)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out


def test_missing_compiler_is_a_native_build_error_and_a_500(tmp_path):
    out = _run("""
        from repro.errors import NativeBuildError
        from repro.service.server import PlanningService, execute_request
        from repro.traces import deterministic_trace
        from repro import plan_broadcast
        try:
            plan_broadcast(deterministic_trace(), 0, 100.0)
        except NativeBuildError as exc:
            assert "CC" in str(exc) and "/nonexistent" in str(exc), exc
        else:
            raise AssertionError("planned without a compiler")
        svc = PlanningService({"t": deterministic_trace()})
        try:
            status, doc = execute_request(
                svc, "plan", {"trace": "t", "source": 0, "deadline": 100.0}
            )
        finally:
            svc.close()
        print(status, "CC" in doc["error"])
    """, tmp_path / "cache", CC="/nonexistent")
    assert out.split() == ["500", "True"]


def test_concurrent_first_plans_share_one_library(tmp_path):
    cache = tmp_path / "cache"
    procs = [_python(PLAN, cache) for _ in range(4)]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.append(json.loads(out))
    assert outs[0] and all(out == outs[0] for out in outs)
    files = [p.name for p in cache.rglob("_native.*")]
    assert len(files) == 1 and files[0].endswith(".so"), files
    # a second process loads the cached library and plans the same
    assert json.loads(_run(PLAN, cache)) == outs[0]
    assert [p.name for p in cache.rglob("_native.*")] == files


def test_bad_arrays_raise_graph_model_error(tmp_path):
    """Each array the search reads is rejected before the call when its
    type, layout or length is wrong, and so is every index it follows:
    components, neighbor rows, columns, segment lists and receivers."""
    out = _run("""
        import dataclasses
        import numpy as np
        from repro.compute.numpy_backend import (
            build_numpy_aux_graph, greedy_incremental_dst_numpy,
        )
        from repro.errors import GraphModelError
        from repro.traces import deterministic_trace
        from repro.tveg import tveg_from_trace

        tveg = tveg_from_trace(deterministic_trace(), "static", seed=1)
        g = build_numpy_aux_graph(tveg, 0, 100.0)
        act = np.repeat(g.act, 2)[::2]
        assert np.array_equal(act, g.act) and not act.flags.c_contiguous
        rows, width = g.state.shape

        def poke(arr, value, at=-1):
            arr = arr.copy()
            arr[at] = value
            return arr

        sender = int(np.flatnonzero(np.diff(g.tx_ptr))[0])

        bad = {
            "short tx_ptr": dict(tx_ptr=g.tx_ptr[:-1]),
            "negative tx_k0": dict(tx_k0=poke(g.tx_k0, -1)),
            "int32 seg": dict(seg=g.seg.astype(np.int32)),
            "short col": dict(col=g.col[:-1]),
            "non-contiguous act": dict(act=act),
            "float32 cost": dict(cost=g.cost.astype(np.float32)),
            "short nbr": dict(nbr=g.nbr[:-1]),
            "flat state": dict(state=g.state.ravel()),
            "segment past act": dict(seg=poke(g.seg, len(g.act), sender)),
            "component out of range": dict(act=poke(g.act, len(g.cost))),
            "neighbor out of range": dict(nbr=poke(g.nbr, rows)),
            "column out of range": dict(col=poke(g.col, width)),
            "receiver out of range": dict(
                state=poke(g.state.ravel(), len(g.wait)).reshape(g.state.shape)
            ),
            "terminal out of range": dict(
                terminal_indices=(len(g.aux_nodes),)
            ),
            "last state waits": dict(wait=g.wait[:-1] + b"\x01"),
        }
        for name, change in bad.items():
            graph = dataclasses.replace(g, **change)
            try:
                greedy_incremental_dst_numpy(graph, graph.root,
                                             graph.terminals)
            except GraphModelError:
                print("rejected", name)
            else:
                print("accepted", name)
        print(len(greedy_incremental_dst_numpy(g, g.root, g.terminals)) > 0)
    """, tmp_path / "cache")
    assert out.splitlines() == [
        "rejected short tx_ptr", "rejected negative tx_k0",
        "rejected int32 seg", "rejected short col",
        "rejected non-contiguous act", "rejected float32 cost",
        "rejected short nbr", "rejected flat state",
        "rejected segment past act", "rejected component out of range",
        "rejected neighbor out of range", "rejected column out of range",
        "rejected receiver out of range", "rejected terminal out of range",
        "rejected last state waits", "True",
    ]


def test_bad_fill_arrays_raise_graph_model_error(tmp_path):
    out = _run("""
        import numpy as np
        from repro.compute import numpy_backend
        from repro.errors import GraphModelError
        from repro.traces import deterministic_trace
        from repro.tveg import tveg_from_trace

        fill = numpy_backend._fill_rows
        seen = {}

        def spy(**arrays):
            seen.update(arrays)
            return fill(**arrays)

        numpy_backend._fill_rows = spy
        tveg = tveg_from_trace(deterministic_trace(), "static", seed=1)
        g = numpy_backend.build_numpy_aux_graph(tveg, 0, 100.0)
        numpy_backend._fill_rows = fill
        a, b, nbr = seen["a"], seen["b"], seen["nbr"]
        N = len(seen["node_base"]) - 1
        first = int(np.flatnonzero(np.diff(seen["comp_ptr"]))[0])
        past = b.copy()
        past[seen["comp_ptr"][first]] = np.diff(seen["node_base"])[first] + 1
        far = nbr.copy()
        far[0] = N
        loose = np.repeat(a, 2)[::2]
        assert np.array_equal(loose, a) and not loose.flags.c_contiguous
        bad = {
            "float32 costs": dict(cost=seen["cost"].astype(np.float32)),
            "non-contiguous runs": dict(a=loose),
            "run past the node's points": dict(b=past),
            "neighbor index N": dict(nbr=far),
        }
        for name, change in bad.items():
            try:
                fill(**{**seen, **change})
            except GraphModelError:
                print("rejected", name)
            else:
                print("accepted", name)
        rows = fill(**seen)
        print(all(np.array_equal(x, getattr(g, name)) for x, name in zip(
            rows, ("tx_ptr", "tx_k0", "seg", "col", "act")
        )) and rows[5:] == (g.num_edges, g.dcs_levels))
    """, tmp_path / "cache")
    assert out.splitlines() == [
        "rejected float32 costs", "rejected non-contiguous runs",
        "rejected run past the node's points", "rejected neighbor index N",
        "True",
    ]
