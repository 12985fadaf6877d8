"""scipy and networkx stay out of cold starts: what each path imports.

The static and Rayleigh EEDCB, GREED, RAND and oracle planners, the
planning service and the CLI run on numpy and the compiled kernels.  scipy
serves only the fr-* allocation NLP (``scipy.optimize``) and the Rician and
Nakagami channels (``scipy.stats``, ``scipy.special``); networkx serves
only the reference Steiner solvers and ``TVG.snapshot``.  Each test runs a
fresh interpreter and reads its ``sys.modules``, so an import that creeps
back to module level fails here instead of as a slower process start.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: prints, as its last stdout line, what a fresh interpreter had loaded
#: after each step: the scipy/networkx top-level packages in sys.modules
LIGHT_PATHS = """
import io, json, sys
from contextlib import redirect_stdout

def heavy():
    top = {m.split(".")[0] for m in sys.modules}
    return sorted(top & {"scipy", "networkx"})

import repro
seen = {"import repro": heavy()}

from repro import plan_broadcast
from repro.traces import deterministic_trace

trace = deterministic_trace()
for channel in ("static", "rayleigh"):
    for algorithm in ("eedcb", "greed", "rand", "oracle"):
        plan = plan_broadcast(trace, 0, 100.0, algorithm=algorithm,
                              channel=channel, seed=1)
        assert plan.schedule, (channel, algorithm)
        seen[f"{channel} {algorithm}"] = heavy()

from repro.service import PlanningService

with PlanningService({"t": trace}) as svc:
    assert svc.plan("t", 100.0, source=0, seed=1).plan.schedule
seen["PlanningService.plan"] = heavy()

from repro.cli import main

path = sys.argv[1]
with redirect_stdout(io.StringIO()) as out:
    assert main(["generate", path, "--nodes", "10", "--seed", "3"]) == 0
    assert main(["schedule", path, "--delay", "2000"]) == 0
assert "feasible: True" in out.getvalue(), out.getvalue()
seen["repro schedule"] = heavy()
print(json.dumps(seen))
"""

#: one FR-EEDCB plan; which of scipy's subpackages it loaded
FR_PLAN = """
import json, sys
from repro import plan_broadcast
from repro.traces import deterministic_trace

plan = plan_broadcast(deterministic_trace(), 0, 100.0, algorithm="fr-eedcb",
                      channel="rayleigh", seed=1)
assert plan.feasible and plan.info["allocation_method"]
print(json.dumps({m: m in sys.modules
                  for m in ("scipy.optimize", "scipy.stats", "networkx")}))
"""

#: each lazily importing call, first in its interpreter; prints the
#: module the call had to load
LAZY_CALLS = {
    "rician": """
        import math
        from repro.channels.rician import RicianED
        ed = RicianED(1.0, 3.0)
        w = ed.min_cost(0.01)
        assert math.isfinite(w) and w > 0.0, w
        assert abs(ed.failure(w) - 0.01) < 1e-6, ed.failure(w)
        loaded = "scipy.stats"
    """,
    "nakagami": """
        import math
        from repro.channels.nakagami import NakagamiED
        ed = NakagamiED(1.0, 2.0)
        w = ed.min_cost(0.01)
        assert math.isfinite(w) and w > 0.0, w
        assert abs(ed.failure(w) - 0.01) < 1e-6, ed.failure(w)
        loaded = "scipy.special"
    """,
    "snapshot": """
        from repro.traces import deterministic_trace
        g = deterministic_trace().to_tvg().snapshot(10.0)
        assert g.number_of_nodes() == 4 and g.has_edge(0, 1), g.edges
        loaded = "networkx"
    """,
    "sptree": """
        from repro import plan_broadcast
        from repro.traces import deterministic_trace
        plan = plan_broadcast(deterministic_trace(), 0, 100.0, seed=1,
                              memt_method="sptree")
        assert plan.feasible and plan.info["memt_method"] == "sptree"
        loaded = "networkx"
    """,
}


def _run(code, *argv):
    """``code`` in a fresh interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_static_and_rayleigh_planners_service_and_cli_load_neither(tmp_path):
    seen = _run(LIGHT_PATHS, str(tmp_path / "trace.csv"))
    assert len(seen) == 11
    assert {step: mods for step, mods in seen.items() if mods} == {}


def test_fr_plan_loads_the_optimizer_only():
    # scipy.optimize itself pulls in scipy.special, so only the
    # channel-side packages can be told apart here.
    assert _run(FR_PLAN) == {
        "scipy.optimize": True, "scipy.stats": False, "networkx": False,
    }


@pytest.mark.parametrize("call", sorted(LAZY_CALLS))
def test_lazily_importing_calls_work_first_in_a_fresh_interpreter(call):
    code = textwrap.dedent(LAZY_CALLS[call]) + textwrap.dedent("""
        import json, sys
        print(json.dumps(loaded in sys.modules))
    """)
    assert _run(code) is True
