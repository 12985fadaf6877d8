"""Build, cache and load the compiled greedy Steiner search.

``_steiner.c`` (plain C, no Python C API) is compiled on first use with
``$CC`` (default ``cc``, split with :func:`shlex.split`) and
:data:`FLAGS`, and called through :mod:`ctypes`, which releases the GIL
for the call.  ``-ffp-contract=off`` keeps every sum a plain IEEE double
addition, so the search compares exactly the floats the networkx
reference search compares; ``-ffast-math`` or ``-Ofast`` would not.

The library goes where Python caches this package's bytecode
(:func:`importlib.util.cache_from_source`, so ``PYTHONPYCACHEPREFIX``
redirects it for read-only installs), named by the sha256 of the source,
the compiler command, the flags and the interpreter's ``SOABI``.  A
compile writes a process-private temp file in that directory and
``os.replace``\\ s it into place, so processes racing on an empty cache
each load a complete library, and a module lock keeps the threads of one
process from compiling twice.  A missing compiler or a failed compile
raises :class:`~repro.errors.NativeBuildError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import threading
from pathlib import Path

from ..errors import NativeBuildError

__all__ = ["FLAGS", "SOURCE", "library"]

#: the C source of the search, shipped as package data
SOURCE = Path(__file__).with_name("_steiner.c")
#: compile flags; never ``-ffast-math`` / ``-Ofast``
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_lock = threading.Lock()
_library = None


def library() -> ctypes.CDLL:
    """The loaded search library, compiled first if the cache lacks it."""
    global _library
    with _lock:
        if _library is None:
            _library = _load(_build())
        return _library


def _build() -> str:
    """The path of the compiled library, compiling it if needed."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    source = SOURCE.read_bytes()
    key = hashlib.sha256()
    for part in (source, *cc, *FLAGS, str(sysconfig.get_config_var("SOABI"))):
        key.update(part if isinstance(part, bytes) else part.encode())
        key.update(b"\0")
    directory = os.path.dirname(importlib.util.cache_from_source(__file__))
    path = os.path.join(directory, f"_steiner.{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = [*cc, *FLAGS, "-o", tmp, str(SOURCE)]
    try:
        os.makedirs(directory, exist_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise NativeBuildError(_failure(cmd, proc.stderr))
        os.replace(tmp, path)
    except OSError as exc:
        raise NativeBuildError(_failure(cmd, str(exc))) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _failure(cmd, detail: str) -> str:
    tail = "\n".join(detail.strip().splitlines()[-8:])
    return (
        "cannot compile the Steiner search: a C compiler is required "
        f"(set CC to one; it is {os.environ.get('CC') or 'unset'}); "
        f"`{shlex.join(cmd)}` failed:\n{tail}"
    )


def _load(path: str) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise NativeBuildError(f"cannot load {path}: {exc}") from exc
    i64 = ctypes.c_int64
    p64 = ctypes.POINTER(i64)
    ptr = ctypes.c_void_p
    lib.repro_steiner_search.argtypes = [
        i64, i64, ctypes.c_char_p, ptr, ptr, ptr, ptr, ptr,
        i64, ptr, i64, ctypes.POINTER(p64), p64, p64, p64,
    ]
    lib.repro_steiner_search.restype = ctypes.c_int
    lib.repro_steiner_free.argtypes = [p64]
    lib.repro_steiner_free.restype = None
    return lib
