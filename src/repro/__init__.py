"""repro — Energy-Efficient and Delay-Constrained Broadcast in TVEGs.

A from-scratch reproduction of Qiu, Shen & Yu (ICPP 2015):

* time-varying graphs and TVEGs (Section III),
* the TMEDB problem machinery — schedules, Eq. (6) probabilities, the four
  feasibility conditions (Section IV),
* discrete time sets, the ET-law, and the auxiliary-graph reduction
  (Sections V / VI-A),
* the EEDCB / FR-EEDCB schedulers, the GREED / RAND baselines, and the
  Section VI-B energy-allocation NLP,
* trace substrates (Haggle-like synthesis, CRAWDAD parsing, mobility),
  a Monte-Carlo simulator, and the Fig. 4–7 experiment harness.

Quick start::

    from repro import haggle_like_trace, HaggleLikeConfig, plan_broadcast

    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=20), seed=1)
    plan = plan_broadcast(trace, None, 2000.0,
                          algorithm="eedcb", window=(8000.0, 10000.0), seed=1)
    print(plan.total_cost, plan.feasible)

(or assemble the pipeline by hand with ``tveg_from_trace`` /
``make_scheduler`` / ``check_feasibility`` — ``plan_broadcast`` is sugar,
not a different code path).
"""

from . import obs
from .algorithms import (
    EEDCB,
    FREEDCB,
    FRGreed,
    FRRand,
    Greed,
    OracleExact,
    Rand,
    SCHEDULERS,
    Scheduler,
    SchedulerResult,
    canonical_scheduler_name,
    make_scheduler,
)
from .api import (
    BroadcastPlan,
    BroadcastPlanSet,
    plan_broadcast,
    plan_broadcast_many,
)
from .channels import (
    AbsentED,
    EDFunction,
    NakagamiChannel,
    NakagamiED,
    RayleighChannel,
    RayleighED,
    RicianChannel,
    RicianED,
    StaticChannel,
    StepED,
)
from .core import Interval, IntervalSet, Partition
from .errors import (
    ChannelModelError,
    GraphModelError,
    InfeasibleError,
    IntervalError,
    NativeBuildError,
    PartitionError,
    ReproError,
    ScheduleError,
    SolverError,
    TraceFormatError,
)
from .online import (
    DirectDelivery,
    Epidemic,
    Gossip,
    SprayAndWait,
    make_protocol,
    run_online,
    run_online_trials,
)
from .params import PAPER_PARAMS, PhyParams
from .schedule import (
    FeasibilityReport,
    Schedule,
    Transmission,
    check_feasibility,
    informed_time,
    uninformed_probability,
)
from .protosim import (
    ProtocolConfig,
    ProtocolResult,
    ProtocolSummary,
    check_analytic_parity,
    execute_plan,
    execute_schedule,
    run_protocol_trials,
)
from .sim import SimulationSummary, run_trials, simulate_schedule
from .temporal import TVG, Journey, earliest_arrivals, foremost_journey
from .traces import (
    Contact,
    ContactTrace,
    DistanceModel,
    HaggleLikeConfig,
    haggle_like_trace,
    load_trace,
    parse_crawdad,
    parse_csv,
    uniform_trace,
)
from .tveg import TVEG, DiscreteCostSet, discrete_cost_set, tveg_from_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # parameters
    "PhyParams",
    "PAPER_PARAMS",
    # core
    "Interval",
    "IntervalSet",
    "Partition",
    # temporal
    "TVG",
    "Journey",
    "earliest_arrivals",
    "foremost_journey",
    # channels
    "EDFunction",
    "AbsentED",
    "StepED",
    "RayleighED",
    "RicianED",
    "NakagamiED",
    "StaticChannel",
    "RayleighChannel",
    "RicianChannel",
    "NakagamiChannel",
    # TVEG
    "TVEG",
    "DiscreteCostSet",
    "discrete_cost_set",
    "tveg_from_trace",
    # schedules
    "Schedule",
    "Transmission",
    "uninformed_probability",
    "informed_time",
    "FeasibilityReport",
    "check_feasibility",
    # high-level API
    "plan_broadcast",
    "plan_broadcast_many",
    "BroadcastPlan",
    "BroadcastPlanSet",
    # observability
    "obs",
    # algorithms
    "Scheduler",
    "SchedulerResult",
    "canonical_scheduler_name",
    "make_scheduler",
    "SCHEDULERS",
    "EEDCB",
    "FREEDCB",
    "Greed",
    "FRGreed",
    "Rand",
    "FRRand",
    "OracleExact",
    # simulation
    "simulate_schedule",
    "run_trials",
    "SimulationSummary",
    "ProtocolConfig",
    "ProtocolResult",
    "ProtocolSummary",
    "check_analytic_parity",
    "execute_plan",
    "execute_schedule",
    "run_protocol_trials",
    # online protocols
    "Epidemic",
    "Gossip",
    "SprayAndWait",
    "DirectDelivery",
    "make_protocol",
    "run_online",
    "run_online_trials",
    # traces
    "Contact",
    "ContactTrace",
    "haggle_like_trace",
    "HaggleLikeConfig",
    "uniform_trace",
    "parse_crawdad",
    "parse_csv",
    "load_trace",
    "DistanceModel",
    # errors
    "ReproError",
    "IntervalError",
    "PartitionError",
    "GraphModelError",
    "ChannelModelError",
    "ScheduleError",
    "InfeasibleError",
    "SolverError",
    "TraceFormatError",
    "NativeBuildError",
]
