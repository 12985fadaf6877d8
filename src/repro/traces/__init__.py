"""Contact traces: model, parsing, synthesis, distance enrichment, stats.

One trace class, :class:`ContactTrace`, holds a trace as four columns, so
million-contact traces ingest and plan in bounded memory; the streaming
parsers build it from CRAWDAD or CSV text, and it saves to and loads from
the binary ``.ctrace`` format (:mod:`repro.traces.store`, where the class
is also named ``ContactStore``).
"""

from .enrich import ContactDistanceProvider, DistanceModel
from .model import Contact, ContactTrace
from .parser import load_trace, parse_crawdad, parse_csv
from .stats import TraceStats, summarize
from .store import CTRACE_SUFFIX, ContactStore
from .synthetic import (
    HaggleLikeConfig,
    deterministic_trace,
    haggle_like_trace,
    scale_trace_store,
    uniform_trace,
)
from .writer import write_crawdad, write_csv

__all__ = [
    "Contact",
    "ContactTrace",
    "ContactStore",
    "CTRACE_SUFFIX",
    "parse_crawdad",
    "parse_csv",
    "load_trace",
    "write_crawdad",
    "write_csv",
    "HaggleLikeConfig",
    "haggle_like_trace",
    "uniform_trace",
    "deterministic_trace",
    "scale_trace_store",
    "DistanceModel",
    "ContactDistanceProvider",
    "TraceStats",
    "summarize",
]
