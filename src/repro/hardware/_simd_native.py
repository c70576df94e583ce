"""Bind the native SIMD scheduling loop (``_simd_kernel.c``) through :mod:`ctypes`.

:func:`repro.util.native.load` builds, caches and loads the kernel;
:func:`_declare` is the signature table it applies.
:func:`repro.hardware.simd.simd_schedule` imports this module at its first
call, never at import, and hands :func:`schedule` the loaded kernel and the
columns it laid the sorted stream out as, or runs its Python loop over the
same columns when there is no kernel.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.hardware.simd import SOURCE, _Columns

__all__ = ["SOURCE", "schedule"]


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the entry point's signature; a missing one raises AttributeError."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.simd_schedule.argtypes = [i64, ptr, ptr, ptr, *[i64] * 4, ctypes.c_double, ptr, ptr]
    lib.simd_schedule.restype = i64
    return lib


def schedule(
    lib: ctypes.CDLL, columns: _Columns, width: int, serial: bool, overhead_us: float
) -> tuple[np.ndarray, int, int]:
    """Each sorted row's new start, the pass count and the widest pass.

    A ``width`` of at least the row count splits no pass, so the kernel gets
    at most the row count, which never wraps its ``int64``.
    """
    n = len(columns.classes)
    new_t = np.empty(n, dtype=np.float64)
    max_group = ctypes.c_int64()
    passes = lib.simd_schedule(
        n,
        columns.classes.ctypes.data,
        columns.duration.ctypes.data,
        columns.resources.ctypes.data,
        columns.n_resources,
        columns.n_classes,
        min(width, n),
        serial,
        overhead_us,
        new_t.ctypes.data,
        ctypes.byref(max_group),
    )
    if passes == -1:
        raise MemoryError("the native SIMD scheduler ran out of memory")
    if passes < 0:  # pragma: no cover - the DAG is acyclic
        raise RuntimeError("SIMD scheduler deadlocked with unscheduled rows")
    return new_t, passes, max_group.value
