"""Event-driven execution of online forwarding protocols on a TVEG.

The engine walks contact opportunities chronologically with **no knowledge
of the future**: when a node acquires the packet, an exchange opportunity
is scheduled for every currently/later active contact it has; the protocol
decides per opportunity, the channel decides success (via the edge's
ED-function), and failures may be retried while the contact lasts.

Unlike the offline schedule executor (:mod:`repro.sim`), energy here counts
*every attempt* — an online node cannot know a transmission will fade out,
so failed attempts burn energy too.  Comparing the resulting energy against
EEDCB's offline optimum quantifies the price of non-clairvoyance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

import numpy as np

from .. import obs
from ..core.rng import SeedLike, as_generator, spawn
from ..errors import SolverError
from ..tveg.graph import TVEG
from .base import NodeView, OnlineProtocol
from .protocols import DirectDelivery

__all__ = ["OnlineOutcome", "OnlineSummary", "run_online", "run_online_trials"]

Node = Hashable


@dataclass(frozen=True)
class OnlineOutcome:
    """One trial of an online protocol."""

    received: frozenset
    energy: float
    attempts: int
    successes: int
    #: per-node reception times (source at start_time)
    reception_times: Tuple[Tuple[Node, float], ...]

    def delivery_ratio(self, num_nodes: int) -> float:
        return len(self.received) / num_nodes


@dataclass(frozen=True)
class OnlineSummary:
    """Aggregate over independent trials."""

    num_trials: int
    mean_delivery: float
    mean_energy: float
    mean_attempts: float
    mean_latency: float  # mean reception time of reached nodes


def run_online(
    tveg: TVEG,
    protocol: OnlineProtocol,
    source: Node,
    deadline: float,
    seed: SeedLike = None,
    retry_interval: float = 30.0,
    max_attempts_per_contact: int = 4,
) -> OnlineOutcome:
    """Run one trial of ``protocol`` from ``source`` until ``deadline``."""
    if retry_interval <= 0 or max_attempts_per_contact < 1:
        raise SolverError("retry_interval > 0 and max_attempts >= 1 required")
    if isinstance(protocol, DirectDelivery):
        protocol.bind_source(source)
    rng = as_generator(seed)
    views: Dict[Node, NodeView] = {
        source: NodeView(node=source, received_at=0.0, tokens=protocol.initial_tokens())
    }
    energy = 0.0
    attempts = 0
    successes = 0
    # Hoisted: attempt events must cost nothing when the ledger is off
    # (run_online_trials calls this engine once per Monte-Carlo trial).
    led = obs.get_ledger()
    recording = led.enabled

    # (time, seq, carrier, other, attempts_left)
    heap: List[Tuple[float, int, Node, Node, int]] = []
    seq = 0

    def schedule_opportunities(node: Node, t: float) -> None:
        """New carrier at time t: queue an exchange per relevant contact."""
        nonlocal seq
        for other in tveg.tvg.incident(node):
            for iv in tveg.tvg.adjacency_set(node, other):
                start = max(iv.start, t)
                if start >= deadline or start >= iv.end:
                    continue
                heapq.heappush(
                    heap, (start, seq, node, other, max_attempts_per_contact)
                )
                seq += 1

    schedule_opportunities(source, 0.0)

    with obs.span("online.run", protocol=type(protocol).__name__):
        while heap:
            t, _, carrier, other, tries = heapq.heappop(heap)
            if t >= deadline:
                break
            if other in views:
                continue  # already informed meanwhile
            view = views[carrier]
            if view.tokens is not None and view.tokens < 1:
                continue  # spray-and-wait leaf: holds packet, never spreads
            if not tveg.adjacent(carrier, other, t):
                continue  # contact over (or τ-window no longer fits)
            decision = protocol.on_contact(view, other, t, rng)
            if decision.transmit:
                cost = (
                    decision.cost
                    if decision.cost is not None
                    else tveg.min_cost(carrier, other, t)
                )
                if math.isfinite(cost):
                    energy += cost
                    attempts += 1
                    p_fail = tveg.failure(carrier, other, t, cost)
                    ok = rng.random() >= p_fail
                    if recording:
                        # carrier/peer/success are the historical names;
                        # msg/src/dst/outcome mirror the protosim's msg_*
                        # events so one ledger filter reads both engines
                        # (repro.obs.report.message_rows).
                        led.emit(
                            obs.EV_ONLINE_ATTEMPT, t=t, carrier=carrier,
                            peer=other, cost=cost, success=ok,
                            msg="data", src=carrier, dst=other,
                            outcome="received" if ok else "dropped",
                        )
                    if ok:
                        successes += 1
                        view.forwards += 1
                        given = decision.tokens_given
                        if view.tokens is not None and given is not None:
                            given = min(given, view.tokens - 1)
                            view.tokens -= given
                        views[other] = NodeView(
                            node=other,
                            received_at=t + tveg.tau,
                            tokens=given,
                        )
                        schedule_opportunities(other, t + tveg.tau)
                        continue
            # failed or declined: retry later within the same contact
            if tries > 1:
                heapq.heappush(
                    heap, (t + retry_interval, seq, carrier, other, tries - 1)
                )
                seq += 1
    if attempts:
        obs.counter("online.attempts", attempts)
    if successes:
        obs.counter("online.successes", successes)

    reception = tuple(
        sorted(((n, v.received_at) for n, v in views.items()), key=lambda kv: kv[1])
    )
    return OnlineOutcome(
        received=frozenset(views),
        energy=energy,
        attempts=attempts,
        successes=successes,
        reception_times=reception,
    )


def run_online_trials(
    tveg: TVEG,
    protocol: OnlineProtocol,
    source: Node,
    deadline: float,
    num_trials: int = 50,
    seed: SeedLike = None,
    **engine_kwargs,
) -> OnlineSummary:
    """Aggregate independent online trials (seeded child streams)."""
    rng = as_generator(seed)
    children = spawn(rng, num_trials)
    deliveries = np.empty(num_trials)
    energies = np.empty(num_trials)
    att = np.empty(num_trials)
    latencies: List[float] = []
    n = tveg.num_nodes
    for i, child in enumerate(children):
        out = run_online(tveg, protocol, source, deadline, child, **engine_kwargs)
        deliveries[i] = out.delivery_ratio(n)
        energies[i] = out.energy
        att[i] = out.attempts
        latencies.extend(t for _, t in out.reception_times)
    return OnlineSummary(
        num_trials=num_trials,
        mean_delivery=float(deliveries.mean()),
        mean_energy=float(energies.mean()),
        mean_attempts=float(att.mean()),
        mean_latency=float(np.mean(latencies)) if latencies else math.nan,
    )
