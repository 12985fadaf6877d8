"""Run manifests: reproducibility metadata for every planning run.

A manifest answers "what exactly produced this output": the configuration
(hashed canonically, so two runs with the same config share a hash
regardless of dict ordering), the seed, the source git commit (best
effort), the Python/platform fingerprint, the package version, and wall
time.  :func:`run_manifest` builds one; :func:`plan_broadcast
<repro.api.plan_broadcast>` attaches one to every
:class:`~repro.api.BroadcastPlan`, the CLI writes one next to experiment
CSVs, and the ledger embeds one as its first NDJSON record so a single
``run.ndjson`` file is a self-describing artifact.

Volatile fields (``created_unix``, ``wall_seconds``, ``git_sha``,
``python``, ``platform``) are *excluded* from the config hash — the hash
identifies the experiment, not the machine or the moment.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, Mapping, Optional, TextIO, Union

__all__ = [
    "MANIFEST_SCHEMA",
    "config_hash",
    "git_sha",
    "run_manifest",
    "write_manifest",
    "read_manifest",
]

MANIFEST_SCHEMA = "repro.manifest/1"

PathLike = Union[str, "os.PathLike[str]"]
Target = Union[PathLike, TextIO]


def _canonical(obj: Any) -> Any:
    """Recursively coerce ``obj`` to a canonical JSON-safe structure."""
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_canonical(v) for v in obj), key=repr)
    return repr(obj)


def config_hash(config: Any) -> str:
    """Deterministic short SHA-256 of a configuration structure.

    Key order, tuple-vs-list, and set ordering do not affect the hash;
    non-JSON values hash by their ``repr``.
    """
    doc = json.dumps(_canonical(config), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repo / without git.

    ``git`` runs once per process and working directory (``cwd``, else the
    process's): every later manifest reuses the first answer, so a
    long-running process records the commit it saw first.
    """
    try:
        where = os.path.abspath(cwd if cwd is not None else os.curdir)
    except OSError:  # the working directory was removed
        return None
    return _rev_parse_head(where)


@functools.lru_cache(maxsize=None)
def _rev_parse_head(cwd: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_manifest(
    config: Optional[Mapping[str, Any]] = None,
    seed: Any = None,
    wall_seconds: Optional[float] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Assemble a manifest dict for one run.

    ``config`` is the run's logical configuration (algorithm, deadline,
    window, ...); ``seed`` is recorded both inside the config hash (when
    part of ``config``) and as a top-level convenience field.  ``extra``
    keys land at the top level (e.g. ``figure="fig5"``).
    """
    cfg = _canonical(dict(config) if config is not None else {})
    doc: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": _canonical(seed),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "package_version": _package_version(),
        "created_unix": time.time(),
    }
    if wall_seconds is not None:
        doc["wall_seconds"] = float(wall_seconds)
    for k, v in extra.items():
        doc[k] = _canonical(v)
    return doc


def _package_version() -> str:
    from .. import __version__

    return __version__


def _open_target(target: Target, mode: str):
    if hasattr(target, "write") or hasattr(target, "read"):
        return target, False
    return open(os.fspath(target), mode, encoding="utf-8") , True


def write_manifest(manifest: Mapping[str, Any], target: Target) -> None:
    """Write a manifest as pretty-printed JSON."""
    f, close = _open_target(target, "w")
    try:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    finally:
        if close:
            f.close()


def read_manifest(source: Target) -> Dict[str, Any]:
    """Load a manifest written by :func:`write_manifest`."""
    f, close = _open_target(source, "r")
    try:
        return json.load(f)
    finally:
        if close:
            f.close()
