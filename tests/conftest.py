"""Shared fixtures: deterministic instances and small random traces."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.channels import RayleighChannel, StaticChannel
from repro.params import PAPER_PARAMS
from repro.steiner.sptree import tree_cost
from repro.traces import DistanceModel, deterministic_trace, uniform_trace
from repro.tveg import TVEG, tveg_from_trace

from .aux_oracle import build_aux_graph, extract_schedule, solve_memt
from .dts_oracle import build_dts as reference_dts
from .reduce_oracle import lower_costs, remove_redundant, upgrade_and_prune


@pytest.fixture
def det_trace():
    """The fixed 4-node trace with hand-checkable schedules."""
    return deterministic_trace()


@pytest.fixture
def det_tvg(det_trace):
    return det_trace.to_tvg()


@pytest.fixture
def det_static(det_trace):
    """Static-channel TVEG on the deterministic trace (seeded distances)."""
    return tveg_from_trace(det_trace, "static", seed=1)


@pytest.fixture
def det_fading(det_trace):
    """Rayleigh TVEG sharing the deterministic trace (seeded distances)."""
    return tveg_from_trace(det_trace, "rayleigh", seed=1)


@pytest.fixture
def paired_tvegs(det_trace):
    """Static + fading TVEGs sharing one distance provider (same geometry)."""
    tvg = det_trace.to_tvg()
    provider = DistanceModel().attach(det_trace, seed=1)
    return (
        TVEG(tvg, StaticChannel(PAPER_PARAMS), provider),
        TVEG(tvg, RayleighChannel(PAPER_PARAMS), provider),
    )


def make_random_instance(num_nodes=6, horizon=300.0, seed=0, channel="static"):
    """A small random instance helper used across algorithm tests."""
    trace = uniform_trace(
        num_nodes=num_nodes,
        horizon=horizon,
        mean_gap=80.0,
        mean_duration=40.0,
        seed=seed,
    )
    return trace, tveg_from_trace(trace, channel, seed=seed)


def reference_pipeline(tveg, source, deadline, targets=None):
    """EEDCB's Section VI-A pipeline on the networkx reference graph.

    The reference DTS (``tests/dts_oracle.py``) → the networkx
    auxiliary graph, the greedy search on it and its extraction
    (``tests/aux_oracle.py``) → the reference reduce passes
    (``tests/reduce_oracle.py``, one full replay per candidate).  The
    production scheduler builds a different graph form and reduces on a
    replay session, so equality with this pins both to the plain
    construction.
    Returns the reduced ``schedule`` (FR-EEDCB's backbone) with
    ``raw_cost`` (before reduction), ``tree_cost``,
    ``steiner_expansions``, ``aux_nodes`` and ``aux_edges``.  Raises
    :class:`~repro.errors.InfeasibleError` when no Steiner tree spans the
    terminals.
    """
    dts = reference_dts(tveg.tvg, deadline)
    aux = build_aux_graph(tveg, source, deadline, dts, targets=targets)
    stats = {}
    edges = solve_memt(aux.graph, aux.root, aux.terminals, method="greedy",
                       stats=stats)
    extracted = extract_schedule(aux, edges)
    schedule = remove_redundant(tveg, extracted, source, deadline,
                                targets=targets)
    schedule = upgrade_and_prune(tveg, schedule, source, deadline,
                                 targets=targets)
    schedule = lower_costs(tveg, schedule, source, deadline, targets=targets)
    return SimpleNamespace(
        schedule=schedule,
        raw_cost=extracted.total_cost,
        tree_cost=tree_cost(aux.graph, edges),
        steiner_expansions=stats.get("expansions", 0),
        aux_nodes=aux.num_nodes,
        aux_edges=aux.num_edges,
    )


def assert_cost_sets_match(na, nxa):
    """The implicit graph ``na`` holds the reference build ``nxa``'s cost
    sets in its arrays.

    The reference keys its cost sets by the points that emit a
    transmission node, in build order: those are the states ``s`` of
    ``na`` with ``tx_ptr[s] < tx_ptr[s + 1]``.  For each, the set's level
    count is ``tx_k0[s]`` (the levels that cover no receiver, a prefix)
    plus the state's transmissions, and each kept level ``k`` costs what
    :meth:`level_costs` reads for ``index_of(("tx", node, l, k))``.
    """
    S = na.num_states
    ptr, k0 = na.tx_ptr.tolist(), na.tx_k0.tolist()
    emitting = [
        (node, l)
        for node, base in na.state_base.items()
        for l in range(len(na.dts.points(node)))
        if ptr[base + l] < ptr[base + l + 1]
    ]
    assert emitting == list(nxa.cost_sets)
    for (node, l), dcs in nxa.cost_sets.items():
        s = na.index_of(("state", node, l))
        assert len(dcs) == k0[s] + ptr[s + 1] - ptr[s]
        j = [na.index_of(("tx", node, l, k)) - S
             for k in range(k0[s], len(dcs))]
        assert na.level_costs(j).tolist() == [
            w for w, _ in dcs.entries[k0[s]:]
        ]


def assert_matches_reference(result, ref):
    """An EEDCB-family plan or result equals :func:`reference_pipeline`'s.

    Graph size, Steiner work and costs always match.  EEDCB's schedule
    matches row for row; FR-EEDCB re-costs the reference schedule as its
    backbone, so its relays and times match and ``backbone_cost`` equals
    the reference cost.
    """
    info = result.info
    assert info["aux_nodes"] == ref.aux_nodes
    assert info["aux_edges"] == ref.aux_edges
    assert info["steiner_expansions"] == ref.steiner_expansions
    assert info["tree_cost"] == ref.tree_cost
    assert info["raw_cost"] == ref.raw_cost
    if "backbone_cost" in info:
        assert [(s.relay, s.time) for s in result.schedule] == [
            (s.relay, s.time) for s in ref.schedule
        ]
        assert info["backbone_cost"] == ref.schedule.total_cost
    else:
        assert result.schedule.transmissions == ref.schedule.transmissions
