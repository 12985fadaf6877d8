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
        svc = PlanningService({"t": deterministic_trace()}, max_wait=0.0)
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
        recv = np.repeat(g.recv, 2)[::2]
        assert np.array_equal(recv, g.recv) and not recv.flags.c_contiguous
        bad = {
            "float32 tx_w": dict(tx_w=g.tx_w.astype(np.float32)),
            "non-contiguous recv": dict(recv=recv),
            "short tx_ptr": dict(tx_ptr=g.tx_ptr[:-1]),
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
        "rejected float32 tx_w", "rejected non-contiguous recv",
        "rejected short tx_ptr", "rejected terminal out of range",
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
            rows, ("tx_ptr", "recv_ptr", "tx_k0", "tx_w", "tx_cnt", "recv")
        )) and rows[6:] == (g.num_edges, g.dcs_levels))
    """, tmp_path / "cache")
    assert out.splitlines() == [
        "rejected float32 costs", "rejected non-contiguous runs",
        "rejected run past the node's points", "rejected neighbor index N",
        "True",
    ]
