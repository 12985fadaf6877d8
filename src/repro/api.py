"""High-level one-call broadcast planning.

:func:`plan_broadcast` collapses the standard five-step pipeline —
``restrict_window → shift → tveg_from_trace → make_scheduler → schedule``
— into a single call, and :class:`BroadcastPlan` bundles everything a
caller usually wants afterwards: the schedule, the Section IV feasibility
report, the solver's standardized ``info`` metadata, the TVEG the plan was
computed on, and (when tracing is enabled) an observability snapshot.

Example::

    from repro import HaggleLikeConfig, haggle_like_trace, plan_broadcast

    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=20), seed=7)
    plan = plan_broadcast(trace, None, 2000.0,
                          algorithm="eedcb", window=(9000.0, 11000.0), seed=7)
    print(plan.feasible, plan.total_cost, plan.info["aux_nodes"])

Every plan carries a reproducibility manifest whose ``config_hash``
content-addresses the *problem instance*: the canonical hash covers the
algorithm, channel, deadline, window, scheduler kwargs, seed, physical
parameters, and the content fingerprint of the trace or TVEG.  Pass a
:class:`repro.service.PlanCache` as ``cache=`` and identical calls are
answered from that cache instead of recomputed::

    from repro.service import PlanCache

    cache = PlanCache(capacity=256, disk_dir="~/.cache/repro-plans")
    plan = plan_broadcast(trace, None, 2000.0, window=9000.0, seed=7,
                          cache=cache)          # computed
    again = plan_broadcast(trace, None, 2000.0, window=9000.0, seed=7,
                           cache=cache)         # served from cache
    assert again.schedule == plan.schedule
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence as SequenceABC
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

from . import obs
from .algorithms.base import canonical_scheduler_name, make_scheduler
from .channels.models import ChannelModel
from .errors import GraphModelError, InfeasibleError
from .obs.tracer import TraceSnapshot
from .params import PAPER_PARAMS, PhyParams
from .schedule.feasibility import FeasibilityReport, check_feasibility
from .schedule.schedule import Schedule
from .temporal.reachability import broadcast_feasible_sources
from .traces.model import ContactTrace
from .tveg.builders import tveg_from_trace
from .tveg.graph import TVEG

__all__ = [
    "BroadcastPlan",
    "BroadcastPlanSet",
    "plan_broadcast",
    "plan_broadcast_many",
    "plan_config",
    "plan_cache_key",
]

Node = Hashable
Window = Union[float, Tuple[float, float]]


@dataclass(frozen=True)
class BroadcastPlan:
    """Everything one broadcast planning call produced.

    Bundles the relay schedule, the four-condition feasibility report, the
    scheduler's standardized ``info`` metadata (see
    :class:`~repro.algorithms.base.Scheduler`), the TVEG the plan was
    computed on (so callers can simulate or visualize without rebuilding
    it), and — when tracing was enabled during planning — the observability
    snapshot of the run.
    """

    schedule: Schedule
    feasibility: FeasibilityReport
    tveg: TVEG
    source: Node
    deadline: float
    algorithm: str
    channel: str
    info: Dict[str, object] = field(default_factory=dict)
    obs: Optional[TraceSnapshot] = None
    #: reproducibility manifest (config hash, seed, git SHA, platform, ...)
    manifest: Dict[str, object] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        """True iff the schedule passes all four Section IV conditions."""
        return self.feasibility.feasible

    @property
    def total_cost(self) -> float:
        """Total scheduled transmission cost ``Σ w_k`` (joule-scale)."""
        return self.schedule.total_cost

    def normalized_energy(self, params: Optional[PhyParams] = None) -> float:
        """The paper's normalized energy metric for this plan."""
        p = params if params is not None else self.tveg.params
        return p.normalize_energy(self.schedule.total_cost)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastPlan(algorithm={self.algorithm!r}, "
            f"source={self.source!r}, deadline={self.deadline:g}, "
            f"transmissions={len(self.schedule)}, "
            f"feasible={self.feasible})"
        )


@dataclass(frozen=True)
class BroadcastPlanSet(SequenceABC):
    """The plans of one :func:`plan_broadcast_many` call, request order.

    A proper sequence — ``len(ps)``, ``ps[i]``, iteration, ``in`` — of
    :class:`BroadcastPlan` objects.  Each element is exactly what the
    equivalent single :func:`plan_broadcast` call would have returned
    (same schedule, info, and manifest ``config_hash``); the set exists
    because the batch computed them against one shared TVEG/auxiliary
    graph build.  Round-trips through :mod:`repro.schedule.io` as a
    ``repro.planset/1`` document.
    """

    plans: Tuple[BroadcastPlan, ...]

    def __len__(self) -> int:
        return len(self.plans)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BroadcastPlanSet(plans=self.plans[i])
        return self.plans[i]

    def __iter__(self) -> Iterator[BroadcastPlan]:
        return iter(self.plans)

    @property
    def feasible(self) -> bool:
        """True iff every plan in the set is feasible."""
        return all(p.feasible for p in self.plans)

    @property
    def total_cost(self) -> float:
        """Summed transmission cost over all plans."""
        return sum(p.total_cost for p in self.plans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastPlanSet(plans={len(self.plans)}, "
            f"feasible={self.feasible})"
        )


def _window_bounds(window: Window, deadline: float) -> Tuple[float, float]:
    """Normalize a window spec: a scalar start means ``deadline`` seconds.

    Raises :class:`ValueError` unless both bounds are finite.
    """
    if isinstance(window, (int, float)):
        start = float(window)
        bounds = (start, start + float(deadline))
    else:
        start, end = window
        bounds = (float(start), float(end))
    if not (math.isfinite(bounds[0]) and math.isfinite(bounds[1])):
        raise ValueError(f"window must be finite, got {bounds!r}")
    return bounds


def _check_deadline(deadline: float) -> float:
    """``deadline`` as a float; :class:`ValueError` unless it is finite
    (the delay bounds the plan) and not negative."""
    deadline = float(deadline)
    if not math.isfinite(deadline):
        raise ValueError(f"deadline must be finite, got {deadline!r}")
    if deadline < 0:
        raise ValueError(f"deadline must be non-negative, got {deadline!r}")
    return deadline


def plan_config(
    trace_or_tveg: Union[ContactTrace, TVEG],
    source: Optional[Node],
    deadline: float,
    *,
    algorithm: str = "eedcb",
    channel: Union[str, ChannelModel] = "static",
    window: Optional[Window] = None,
    seed=None,
    params: PhyParams = PAPER_PARAMS,
    **scheduler_kwargs,
) -> Dict[str, Any]:
    """The canonical configuration of one :func:`plan_broadcast` call.

    This dict *is* the problem's identity: hashed by
    :func:`repro.obs.config_hash` it yields the plan's
    ``manifest["config_hash"]``, the content address the plan cache and
    the planning service key on.  Two calls produce the same hash exactly
    when they would produce the same plan — the fingerprint field covers
    the trace's (or TVEG's) full content, so a different trace can never
    alias a cached plan.

    ``source=None`` (auto-pick) is part of the identity as-is; the pick is
    deterministic, so the key remains sound without resolving it here (and
    the hit path never has to build a graph to find out).

    Raises :class:`ValueError` for a non-finite or negative ``deadline``
    (:func:`_check_deadline`) or a non-finite window bound.
    """
    deadline = _check_deadline(deadline)
    algo = canonical_scheduler_name(algorithm)
    if isinstance(trace_or_tveg, TVEG):
        if window is not None:
            raise GraphModelError(
                "window applies to contact traces; restrict/shift the trace "
                "before building a TVEG"
            )
        fingerprint = trace_or_tveg.fingerprint()
        channel_label = type(trace_or_tveg.channel).__name__
        eff_params = trace_or_tveg.params
    elif isinstance(trace_or_tveg, ContactTrace):
        if window is not None:
            _window_bounds(window, deadline)
        fingerprint = trace_or_tveg.fingerprint()
        channel_label = (
            channel if isinstance(channel, str) else type(channel).__name__
        )
        eff_params = params
    else:
        raise TypeError(
            f"expected a ContactTrace or TVEG, "
            f"got {type(trace_or_tveg).__name__}"
        )
    kwargs = dict(scheduler_kwargs)
    if "rand" in algo and "seed" not in kwargs:
        kwargs["seed"] = seed
    return {
        "algorithm": algo,
        "channel": channel_label,
        "source": source,
        "deadline": deadline,
        "window": window,
        "scheduler_kwargs": kwargs,
        "seed": seed,
        "params": asdict(eff_params),
        "instance": fingerprint,
    }


def plan_cache_key(
    trace_or_tveg: Union[ContactTrace, TVEG],
    source: Optional[Node],
    deadline: float,
    **kwargs,
) -> str:
    """The content-address a :func:`plan_broadcast` call caches under.

    Equals ``plan.manifest["config_hash"]`` of the plan the same arguments
    produce.  The planning service's batcher keys request dedup on it.
    """
    return obs.config_hash(plan_config(trace_or_tveg, source, deadline, **kwargs))


def _plan_on_tveg(
    tveg: TVEG,
    source: Optional[Node],
    deadline: float,
    *,
    config: Dict[str, Any],
    seed,
    cache,
    key: str,
    feasible_memo: Optional[Dict[float, List[Node]]] = None,
) -> BroadcastPlan:
    """Run one planning request against an already-built TVEG.

    The shared tail of :func:`plan_broadcast` and
    :func:`plan_broadcast_many` — source auto-pick, scheduler run,
    feasibility check, manifest, cache store — kept in one place so the
    batch path is the single path per request, not a reimplementation.
    ``feasible_memo`` (batch only) caches the auto-pick source list per
    deadline across requests on the same TVEG.
    """
    algo = config["algorithm"]
    if source is None:
        feasible = feasible_memo.get(deadline) if feasible_memo is not None else None
        if feasible is None:
            feasible = sorted(
                broadcast_feasible_sources(tveg.tvg, 0.0, deadline)
            )
            if feasible_memo is not None:
                feasible_memo[deadline] = feasible
        if not feasible:
            raise InfeasibleError(
                "no broadcast-feasible source in this window; try another "
                "window or a larger deadline"
            )
        source = feasible[0]

    scheduler = make_scheduler(algo, **config["scheduler_kwargs"])

    t0 = time.perf_counter()
    with obs.span("api.plan_broadcast", algorithm=algo):
        result = scheduler.run(tveg, source, deadline)
        report = check_feasibility(
            tveg, result.schedule, source, deadline, record="final"
        )

    manifest = obs.run_manifest(
        config=config,
        seed=seed,
        wall_seconds=time.perf_counter() - t0,
        resolved_source=source,
    )
    plan = BroadcastPlan(
        schedule=result.schedule,
        feasibility=report,
        tveg=tveg,
        source=source,
        deadline=deadline,
        algorithm=algo,
        channel=config["channel"],
        info=dict(result.info),
        obs=obs.snapshot() if obs.is_enabled() else None,
        manifest=manifest,
    )
    if cache is not None:
        cache.put(key, plan)
    return plan


def plan_broadcast(
    trace_or_tveg: Union[ContactTrace, TVEG],
    source: Optional[Node],
    deadline: float,
    *,
    algorithm: str = "eedcb",
    channel: Union[str, ChannelModel] = "static",
    window: Optional[Window] = None,
    seed=None,
    params: PhyParams = PAPER_PARAMS,
    cache=None,
    **scheduler_kwargs,
) -> BroadcastPlan:
    """Plan one energy-efficient delay-constrained broadcast in a single call.

    Parameters
    ----------
    trace_or_tveg:
        A :class:`~repro.traces.model.ContactTrace` (the usual case — the
        TVEG is built internally) or an already-constructed
        :class:`~repro.tveg.graph.TVEG` (then ``channel``, ``window``,
        ``seed``, and ``params`` do not apply; passing ``window`` raises).
    source:
        The broadcasting node, or ``None`` to pick the smallest
        broadcast-feasible source automatically (raises
        :class:`~repro.errors.InfeasibleError` when none exists).
    deadline:
        The delay constraint ``T`` in seconds, measured from the (shifted)
        window start: the broadcast runs over ``[0, deadline]``.
    algorithm:
        Scheduler name or alias — ``"eedcb"``, ``"FR-EEDCB"``,
        ``"fr_eedcb"``, ``"freedcb"``, ... (see
        :func:`~repro.algorithms.base.canonical_scheduler_name`).
    channel:
        Channel spec for TVEG construction: ``"static"``, ``"rayleigh"``,
        ``"rician"``, ``"nakagami"``, or a
        :class:`~repro.channels.models.ChannelModel` instance.
    window:
        Optional trace window.  ``(start, end)`` restricts the trace to
        that interval and shifts it so the broadcast starts at ``t = 0``;
        a scalar ``start`` means ``(start, start + deadline)``.  ``None``
        uses the trace as-is.
    seed:
        Seed for the synthesized link distances (and for the RAND
        schedulers' relay choices, unless ``scheduler_kwargs`` overrides).
    params:
        Physical-layer parameters (defaults to the paper's).
    cache:
        Optional :class:`repro.service.PlanCache`.  The call is keyed by
        its :func:`plan_cache_key`; a hit replays the stored plan —
        byte-identical schedule, cost, and info — without touching a
        scheduler (a memory hit builds no graph at all), a miss computes
        normally and stores the result.
    scheduler_kwargs:
        Extra constructor arguments forwarded to the scheduler (e.g.
        ``memt_method="charikar"``).

    Returns a :class:`BroadcastPlan`; the plan's ``obs`` field holds a
    trace snapshot when ``repro.obs`` tracing is enabled, else ``None``.
    """
    config = plan_config(
        trace_or_tveg, source, deadline,
        algorithm=algorithm, channel=channel, window=window, seed=seed,
        params=params, **scheduler_kwargs,
    )
    deadline = float(deadline)

    def build_tveg() -> TVEG:
        if isinstance(trace_or_tveg, TVEG):
            return trace_or_tveg
        trace = trace_or_tveg
        if window is not None:
            start, end = _window_bounds(window, deadline)
            trace = trace.restrict_window(start, end).shift(-start)
        return tveg_from_trace(trace, channel, params=params, seed=seed)

    key = obs.config_hash(config)
    if cache is not None:
        hit = cache.lookup(key, build_tveg)
        if hit is not None:
            return hit

    return _plan_on_tveg(
        build_tveg(), source, deadline,
        config=config, seed=seed, cache=cache, key=key,
    )


def plan_broadcast_many(
    trace_or_tveg: Union[ContactTrace, TVEG],
    sources: Sequence[Optional[Node]],
    deadlines: Union[float, Sequence[float]],
    *,
    algorithm: str = "eedcb",
    channel: Union[str, ChannelModel] = "static",
    window: Optional[Window] = None,
    seed=None,
    params: PhyParams = PAPER_PARAMS,
    cache=None,
    **scheduler_kwargs,
) -> BroadcastPlanSet:
    """Plan many broadcasts on one instance, amortizing the shared builds.

    Semantically exactly ``[plan_broadcast(trace_or_tveg, s, d, ...) for
    (s, d) in zip(sources, deadlines)]`` — each returned plan carries the
    same schedule, info, and manifest ``config_hash`` the single call
    would have produced (the parity suite pins this) — but the expensive
    shared state is built once, not k times:

    * one TVEG per distinct effective trace window (requests sharing
      ``_window_bounds(window, deadline)`` share the graph);
    * one auxiliary-graph build per (deadline, targets) on that TVEG,
      re-rooted per source via the TVEG's aux cache (the Section VI-A
      construction is source-independent);
    * one auto-pick feasible-source computation per deadline.

    This is the natural shape for the time-vs-energy tradeoff sweeps and
    repeated same-graph broadcasts of the related work: k plans for
    roughly the cost of one build plus k Steiner runs.

    Parameters mirror :func:`plan_broadcast`; ``sources`` is a sequence
    (``None`` entries auto-pick), and ``deadlines`` is either one float
    applied to every source or a sequence matching ``sources``.  Returns
    a :class:`BroadcastPlanSet` in request order.
    """
    src_list = list(sources)
    if isinstance(deadlines, (int, float)):
        dl_list = [float(deadlines)] * len(src_list)
    else:
        dl_list = [float(d) for d in deadlines]
    if len(dl_list) != len(src_list):
        raise ValueError(
            f"sources and deadlines disagree in length "
            f"({len(src_list)} vs {len(dl_list)})"
        )

    configs = [
        plan_config(
            trace_or_tveg, s, d,
            algorithm=algorithm, channel=channel, window=window, seed=seed,
            params=params, **scheduler_kwargs,
        )
        for s, d in zip(src_list, dl_list)
    ]
    keys = [obs.config_hash(c) for c in configs]

    # One TVEG per distinct effective trace window.  ``None`` bounds mean
    # "the input as-is" (a TVEG input, or no window), i.e. a single group.
    groups: Dict[Optional[Tuple[float, float]], Dict[str, Any]] = {}

    def group_for(deadline: float) -> Dict[str, Any]:
        bounds = (
            None
            if isinstance(trace_or_tveg, TVEG) or window is None
            else _window_bounds(window, deadline)
        )
        g = groups.get(bounds)
        if g is None:
            g = {"bounds": bounds, "tveg": None, "feas": {}}
            groups[bounds] = g
        return g

    def group_tveg(g: Dict[str, Any]) -> TVEG:
        if g["tveg"] is None:
            if isinstance(trace_or_tveg, TVEG):
                g["tveg"] = trace_or_tveg
            else:
                trace = trace_or_tveg
                if g["bounds"] is not None:
                    start, end = g["bounds"]
                    trace = trace.restrict_window(start, end).shift(-start)
                g["tveg"] = tveg_from_trace(
                    trace, channel, params=params, seed=seed
                )
        return g["tveg"]

    plans: List[BroadcastPlan] = []
    with obs.span("api.plan_broadcast_many", requests=len(src_list)):
        for s, d, config, key in zip(src_list, dl_list, configs, keys):
            g = group_for(d)
            if cache is not None:
                hit = cache.lookup(key, lambda: group_tveg(g))
                if hit is not None:
                    plans.append(hit)
                    continue
            plans.append(
                _plan_on_tveg(
                    group_tveg(g), s, d,
                    config=config, seed=seed,
                    cache=cache, key=key, feasible_memo=g["feas"],
                )
            )
    return BroadcastPlanSet(plans=tuple(plans))
