"""Spans around the calls one layer of the program makes into another.

The traced run never edits the program.  :func:`install` replaces, for the
length of the run, each public function named in :data:`BOUNDARIES` with a
wrapper from this file, in the module that calls it; the wrapper records a
span (layer name, start, end, parent span) and, where the layer returns
one, an exact work count.  Spans are kept in memory and written out when
the run ends.  A layer's self time is its spans' durations minus the part
their child spans cover; the benchmark's own root span, around the whole
timed operation, keeps as self time what no layer span covers.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Counter = Callable[[Dict[str, float], tuple, dict, Any, float], None]


def _rss_mb() -> float:
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as f:
            pages = int(f.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def _add(counts: Dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0.0) + value


def _count_dts(counts, args, kwargs, result, rss_before) -> None:
    _add(counts, "dts.points", result.total_points())


def _count_aux(counts, args, kwargs, result, rss_before) -> None:
    _add(counts, "auxgraph.nodes", result.num_nodes)
    _add(counts, "auxgraph.edges", result.num_edges)
    _add(counts, "auxgraph.rss_mb", _rss_mb() - rss_before)


def _count_steiner(counts, args, kwargs, result, rss_before) -> None:
    stats = kwargs.get("stats") or {}
    _add(counts, "steiner.expansions", stats.get("expansions", 0))


def _count_nlp(counts, args, kwargs, result, rss_before) -> None:
    _add(counts, "allocation.nlp_iterations", result.nlp_iterations)


def _count_trials(counts, args, kwargs, result, rss_before) -> None:
    _add(counts, "sim.trials", kwargs.get("num_trials", 0))


_FR_MODULES = (
    "repro.algorithms.fr_eedcb",
    "repro.algorithms.greedy",
    "repro.algorithms.random_select",
)

#: (module, attribute in that module, layer, work counter): the calls that
#: cross from one layer into another on the eedcb and fr-* paths
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.traces.store", "ContactStore.restrict_window", "traces.window", None),
    ("repro.traces.store", "ContactStore.shift", "traces.window", None),
    ("repro.traces.model", "ContactTrace.restrict_window", "traces.window", None),
    ("repro.traces.model", "ContactTrace.shift", "traces.window", None),
    ("repro.api", "tveg_from_trace", "tveg.build", None),
    ("repro.api", "broadcast_feasible_sources", "temporal.feasible_sources", None),
    ("repro.experiments.harness", "broadcast_feasible_sources",
     "temporal.feasible_sources", None),
    ("repro.temporal.reachability", "reachable_set", "temporal.reachability", None),
    ("repro.algorithms.eedcb", "build_dts", "dts.build", _count_dts),
    ("repro.compute.numpy_backend", "build_numpy_aux_graph", "auxgraph.build",
     _count_aux),
    ("repro.algorithms.eedcb", "build_compact_aux_graph", "auxgraph.build",
     _count_aux),
    ("repro.algorithms.eedcb", "solve_memt", "steiner.solve", _count_steiner),
    ("repro.algorithms.eedcb", "extract_schedule", "auxgraph.extract", None),
    ("repro.algorithms.eedcb", "remove_redundant", "schedule.reduce", None),
    ("repro.algorithms.eedcb", "upgrade_and_prune", "schedule.reduce", None),
    ("repro.algorithms.eedcb", "lower_costs", "schedule.reduce", None),
    ("repro.api", "check_feasibility", "schedule.feasibility", None),
    ("repro.schedule.reduce", "check_feasibility", "schedule.feasibility", None),
    *((m, "check_feasibility", "schedule.feasibility", None) for m in _FR_MODULES),
    *((m, "build_allocation_problem", "allocation.solve", None)
      for m in _FR_MODULES),
    *((m, "solve_allocation", "allocation.solve", _count_nlp) for m in _FR_MODULES),
    ("repro.algorithms.greedy", "run_event_scheduler", "algorithms.event_sim", None),
    ("repro.algorithms.random_select", "run_event_scheduler",
     "algorithms.event_sim", None),
    ("repro.experiments.harness", "run_trials", "sim.trials", _count_trials),
    ("repro.experiments.fig5", "default_trace", "experiments.sample", None),
    ("repro.experiments.fig5", "sample_paired_starts", "experiments.sample", None),
    ("repro.experiments.fig5", "sample_instance", "experiments.sample", None),
    ("repro.experiments.harness", "sample_instance", "experiments.sample", None),
)


class Recorder:
    """In-memory spans of one traced run, plus the work counts they saw."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: [layer, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, layer: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """Run ``fn`` inside a span named ``layer``."""
        idx = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn: Callable[..., Any], layer: str,
             count: Optional[Counter]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss_before = _rss_mb() if count is _count_aux else 0.0
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result, rss_before)
            return result

        return traced

    def self_ms(self, first: int = 0) -> Dict[str, float]:
        """Per-layer self time (ms) of the spans from index ``first`` on."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans[first:]:
            if parent >= first:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for i in range(first, len(self.spans)):
            layer, start, end, _ = self.spans[i]
            out[layer] = out.get(layer, 0.0) + (end - start - covered[i]) * 1e3
        return out

    def dump(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": self.counts,
        }


def install(recorder: Recorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every boundary that exists; returns ``(uninstall, missing)``.

    A boundary the program no longer has is listed in ``missing`` rather
    than failing the run: its layer then reports no time.
    """
    undo: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    for module_name, attr, layer, count in BOUNDARIES:
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if not callable(original):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(owner, name, recorder.wrap(original, layer, count))
        undo.append((owner, name, original))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall, missing
