"""Time-varying graphs (Section III-A): model, journeys, reachability."""

from .builders import from_contacts, from_networkx, from_snapshots
from .journey_variants import fastest_journey, shortest_journey
from .journeys import Hop, Journey, earliest_arrivals, foremost_journey
from .nondeterministic import (
    CandidateContact,
    ProbabilisticTVG,
    RobustnessReport,
    schedule_robustness,
)
from .metrics import (
    average_degree,
    average_degree_series,
    contact_durations,
    degree_profile,
    inter_contact_times,
    pair_contact_counts,
    temporal_density,
)
from .reachability import (
    broadcast_feasible_sources,
    first_feasible_source,
    is_broadcastable,
    reachability_graph,
    reachable_set,
)
from .tvg import TVG, edge_key

__all__ = [
    "TVG",
    "edge_key",
    "CandidateContact",
    "ProbabilisticTVG",
    "RobustnessReport",
    "schedule_robustness",
    "Hop",
    "Journey",
    "earliest_arrivals",
    "foremost_journey",
    "shortest_journey",
    "fastest_journey",
    "reachable_set",
    "is_broadcastable",
    "reachability_graph",
    "broadcast_feasible_sources",
    "first_feasible_source",
    "from_contacts",
    "from_snapshots",
    "from_networkx",
    "average_degree",
    "average_degree_series",
    "degree_profile",
    "contact_durations",
    "inter_contact_times",
    "pair_contact_counts",
    "temporal_density",
]
