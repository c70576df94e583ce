"""Build, cache and load the package's native kernels (the ``_*_kernel.c`` files).

A kernel is compiled on first use with the system C compiler and
:data:`CFLAGS` (without ``-march=native`` because the cache may be shared
between hosts), then loaded with :mod:`ctypes`.  Builds are cached in
``$XDG_CACHE_HOME/tiscc`` (default ``~/.cache/tiscc``) as
``<stem>-<sha16>-<machine>.so``, a name that encodes the hash of the source
and the flags, and the machine type, so an edited kernel, a flag change or
another architecture never loads a stale object.  Each build is written
under a temporary name and moved into place with :func:`os.replace`, so
concurrent processes never load a half-written file, and a cached object
that fails to load is rebuilt.

Nothing here runs at import.  A kernel's user (the union-find decoder, the
frame sampler, the DEM walk, the SIMD scheduler, the validity check, the
syndrome-round scheduler) calls :func:`load` when it is constructed or
first runs, then either binds the returned library or records the returned
reason and runs its Python fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from pathlib import Path

__all__ = ["CFLAGS", "cache_path", "find_compiler", "load"]

#: Every kernel's compiler flags.  ``-ffp-contract=off`` keeps each float
#: product and sum rounded on its own: kernels that repeat NumPy arithmetic
#: bit for bit (the DEM fold's XOR-combine) would drift on a target where
#: the compiler may fuse them into one FMA instruction, such as aarch64.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: Per kernel source: ``(library, None)`` after a load, ``(None, reason)``
#: after a failed one.  Process-wide, like the dynamic loader's own table of
#: loaded objects.
_loaded: dict[Path, tuple[ctypes.CDLL | None, str | None]] = {}


def cache_path(source: Path) -> Path:
    """Where the build of ``source``, as it reads now, with :data:`CFLAGS`,
    for this machine lives."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    flags = " ".join(CFLAGS).encode()
    digest = hashlib.sha256(flags + b"\0" + source.read_bytes()).hexdigest()[:16]
    return Path(base) / "tiscc" / f"{source.stem}-{digest}-{platform.machine()}.so"


def find_compiler() -> str | None:
    """The first C compiler on ``PATH``: ``cc``, then ``gcc``, then ``clang``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def load(
    source: Path, declare: Callable[[ctypes.CDLL], ctypes.CDLL]
) -> tuple[ctypes.CDLL | None, str | None]:
    """The loaded kernel and ``None``, or ``None`` and why it is unavailable.

    ``declare`` sets every entry point's signature and raises
    :class:`AttributeError` for a missing one.  The first call for a source
    loads its cached build, building it first when it is missing or fails to
    load; later calls return the first call's result.
    """
    result = _loaded.get(source)
    if result is None:
        try:
            result = (_load(source, declare), None)
        except (OSError, AttributeError, RuntimeError, subprocess.SubprocessError) as exc:
            result = (None, f"native kernel {source.name} unavailable: {exc}")
        _loaded[source] = result
    return result


def _load(source: Path, declare: Callable[[ctypes.CDLL], ctypes.CDLL]) -> ctypes.CDLL:
    path = cache_path(source)
    if path.exists():
        try:
            return declare(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            pass  # corrupt or foreign object: rebuild it below
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc, gcc or clang) on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        build = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(source)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if build.returncode != 0:
            raise RuntimeError(
                f"{compiler} exited with status {build.returncode}: {build.stderr.strip()}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return declare(ctypes.CDLL(str(path)))
