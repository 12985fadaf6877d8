"""Micro-benchmarks of the pipeline stages.

These time the individual substrates on a paper-scale instance (N = 20,
2000 s window) so regressions in any stage — interval algebra, DTS
construction, auxiliary-graph build, Steiner solve, NLP allocation,
Monte-Carlo simulation — show up in isolation.
"""

import numpy as np
import pytest

from repro.allocation import build_allocation_problem, solve_allocation
from repro.compute.numpy_backend import build_numpy_aux_graph
from repro.core.intervals import IntervalSet
from repro.dts import build_dts
from repro.algorithms import make_scheduler
from repro.schedule import uninformed_probabilities
from repro.sim import run_trials
from repro.steiner import solve_memt
from repro.temporal import earliest_arrivals
from repro.traces import HaggleLikeConfig, haggle_like_trace
from repro.tveg import tveg_from_trace


@pytest.fixture(scope="module")
def instance():
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=20), seed=99)
    window = trace.restrict_window(9000.0, 11000.0).shift(-9000.0)
    static = tveg_from_trace(window, "static", seed=5)
    fading = tveg_from_trace(window, "rayleigh", seed=5)
    from repro.temporal.reachability import broadcast_feasible_sources

    sources = broadcast_feasible_sources(static.tvg, 0.0, 2000.0)
    assert sources, "fixture window must be broadcast-feasible"
    return static, fading, sorted(sources)[0]


@pytest.mark.benchmark(group="micro")
def test_interval_algebra(benchmark):
    rng = np.random.default_rng(0)
    sets = []
    for _ in range(50):
        starts = np.sort(rng.uniform(0, 1e4, 40))
        sets.append(IntervalSet(zip(starts, starts + rng.uniform(1, 50, 40))))

    def work():
        acc = sets[0]
        for s in sets[1:]:
            acc = acc | s
        out = 0
        for s in sets:
            out += len(acc & s)
            acc.complement(0.0, 1e4)
        return out

    benchmark(work)


@pytest.mark.benchmark(group="micro")
def test_temporal_dijkstra(benchmark, instance):
    static, _, source = instance
    benchmark(earliest_arrivals, static.tvg, source)


@pytest.mark.benchmark(group="micro")
def test_dts_build(benchmark, instance):
    static, _, _ = instance
    dts = benchmark(build_dts, static.tvg, 2000.0)
    assert dts.total_points() > 0


@pytest.mark.benchmark(group="micro")
def test_aux_graph_build(benchmark, instance):
    static, _, source = instance
    aux = benchmark(build_numpy_aux_graph, static, source, 2000.0)
    assert aux.num_nodes > 0


@pytest.mark.benchmark(group="micro")
def test_steiner_solve(benchmark, instance):
    static, _, source = instance
    aux = build_numpy_aux_graph(static, source, 2000.0)
    edges = benchmark(solve_memt, aux, aux.root, aux.terminals)
    assert edges


@pytest.mark.benchmark(group="micro")
def test_nlp_allocation(benchmark, instance):
    _, fading, source = instance
    backbone = make_scheduler("eedcb").schedule(fading, source, 2000.0)
    problem = build_allocation_problem(fading, backbone, source)
    res = benchmark(solve_allocation, problem)
    assert problem.is_feasible(res.costs)


@pytest.mark.benchmark(group="micro")
def test_probability_engine(benchmark, instance):
    _, fading, source = instance
    sched = make_scheduler("fr-eedcb").schedule(fading, source, 2000.0)
    probs = benchmark(uninformed_probabilities, fading, sched, 2000.0, source)
    assert len(probs) == 20


@pytest.mark.benchmark(group="micro")
def test_monte_carlo(benchmark, instance):
    _, fading, source = instance
    sched = make_scheduler("fr-eedcb").schedule(fading, source, 2000.0)
    summary = benchmark.pedantic(
        run_trials,
        args=(fading, sched, source),
        kwargs={"num_trials": 100, "seed": 0},
        rounds=2,
        iterations=1,
    )
    assert summary.mean_delivery > 0.9
