"""Deterministic process-level parallelism for Monte-Carlo workloads.

Trials are embarrassingly parallel, but naive parallelisation breaks the
repo's reproducibility contract (same seed → bit-identical summaries).
This module keeps the contract by separating *seed derivation* from
*execution*:

* :func:`derive_seeds` draws every child seed from the parent generator
  up front, with the exact integer stream :func:`repro.core.rng.spawn`
  consumes — so the i-th trial sees the same child generator no matter
  how many workers run, or in which order chunks finish;
* :func:`parallel_map` evaluates a picklable function over the items on a
  ``ProcessPoolExecutor``, chunked so each worker unpickles the shared
  payload once, and reassembles results in item order.

``workers <= 1`` short-circuits to a plain serial loop (no executor, no
pickling), which is also the fallback when the obs ledger is recording —
events emitted inside worker processes would be silently lost, and a
silently incomplete ledger is worse than a slower run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from . import obs
from .core.rng import SeedLike, as_generator

__all__ = [
    "derive_seeds",
    "mp_context",
    "parallel_map",
    "resolve_workers",
    "chunk_indices",
]

T = TypeVar("T")
R = TypeVar("R")


def derive_seeds(seed: SeedLike, n: int) -> List[int]:
    """``n`` child seeds drawn exactly as :func:`repro.core.rng.spawn` does.

    ``numpy.random.default_rng(derive_seeds(seed, n)[i])`` is bit-identical
    to ``spawn(as_generator(seed), n)[i]`` — the property that makes
    parallel trial execution reproduce serial execution exactly.
    """
    rng = as_generator(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request to a concrete positive int.

    ``None`` / ``0`` / ``1`` mean serial; ``-1`` means one worker per CPU.
    """
    if workers is None or workers == 0:
        return 1
    if workers == -1:
        return os.cpu_count() or 1
    if workers < -1:
        raise ValueError(f"invalid worker count {workers!r}")
    return workers


def chunk_indices(n: int, chunks: int) -> List[range]:
    """Split ``range(n)`` into ≤ ``chunks`` contiguous, near-even ranges."""
    chunks = max(1, min(chunks, n)) if n else 0
    out: List[range] = []
    base, extra = divmod(n, chunks) if chunks else (0, 0)
    start = 0
    for c in range(chunks):
        size = base + (1 if c < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def mp_context(
    method: Optional[str] = None,
) -> multiprocessing.context.BaseContext:
    """The multiprocessing start-method context long-lived workers use.

    Preference order: an explicit ``method`` argument, the
    ``REPRO_MP_START`` environment variable, then ``fork`` where available
    (shard workers inherit the parent's loaded traces and imported modules
    for free — spawn would re-import the package and re-pickle every trace
    per worker), finally the platform default.  Raises :class:`ValueError`
    for a method the platform doesn't offer, so a typo in the env var
    fails loudly at boot instead of silently picking a different one.
    """
    chosen = method or os.environ.get("REPRO_MP_START") or None
    available = multiprocessing.get_all_start_methods()
    if chosen is not None:
        if chosen not in available:
            raise ValueError(
                f"multiprocessing start method {chosen!r} unavailable here; "
                f"choices: {', '.join(available)}"
            )
        return multiprocessing.get_context(chosen)
    if "fork" in available:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, optionally across worker processes.

    Results always come back in item order regardless of completion order.
    ``fn`` and every item must be picklable when ``workers > 1``; with one
    worker (or fewer items than that) the loop runs in-process.  Emits the
    ``parallel.tasks`` counter either way so instrumented runs record how
    much work was farmed out.
    """
    n = len(items)
    w = min(resolve_workers(workers), n) if n else 1
    obs.counter("parallel.tasks", n)
    if w <= 1:
        return [fn(x) for x in items]
    with obs.span("parallel.map", tasks=n, workers=w):
        with ProcessPoolExecutor(max_workers=w) as pool:
            chunksize = max(1, n // (w * 4))
            return list(pool.map(fn, items, chunksize=chunksize))

