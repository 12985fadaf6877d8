"""Contact-trace serialization (round-trips with :mod:`repro.traces.parser`).

Both text writers stream a :class:`~repro.traces.model.ContactTrace`'s
rows straight off its columns (``iter_rows``), without building
``Contact`` objects.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TextIO, Union

from .model import ContactTrace

__all__ = ["write_crawdad", "write_csv"]

PathLike = Union[str, Path]


def write_crawdad(trace: ContactTrace, target: Union[PathLike, TextIO]) -> None:
    """Write a trace in CRAWDAD one-contact-per-line format."""
    owns = isinstance(target, (str, Path))
    fh = open(target, "w", encoding="utf-8") if owns else target
    try:
        fh.write("# u v start end\n")
        for u, v, start, end in trace.iter_rows():
            fh.write(f"{u} {v} {start:.6f} {end:.6f}\n")
    finally:
        if owns:
            fh.close()


def write_csv(trace: ContactTrace, target: Union[PathLike, TextIO]) -> None:
    """Write a trace as headered CSV (``u,v,start,end``)."""
    owns = isinstance(target, (str, Path))
    fh = open(target, "w", encoding="utf-8", newline="") if owns else target
    try:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "start", "end"])
        for u, v, start, end in trace.iter_rows():
            writer.writerow([u, v, f"{start:.6f}", f"{end:.6f}"])
    finally:
        if owns:
            fh.close()
