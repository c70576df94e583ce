"""Bind the native union-find kernel (``_uf_kernel.c``) through :mod:`ctypes`.

:func:`repro.util.native.load` builds, caches and loads the kernel;
:func:`_declare` is the signature table it applies.
:class:`~repro.decode.union_find.UnionFindDecoder` loads the kernel when it is
constructed, then either binds its graph into a :class:`NativeKernel` or
records the returned reason and runs the Python kernel.
"""

from __future__ import annotations

import ctypes
import weakref
from pathlib import Path

import numpy as np

__all__ = ["ERRORS", "NativeKernel", "SOURCE"]

SOURCE = Path(__file__).with_name("_uf_kernel.c")

#: Kernel failure codes -> the Python kernel's message for the same failure.
ERRORS = {
    1: "union-find growth stalled: defects cannot reach each other or the boundary",
    2: "union-find growth failed to converge",
    3: "peeling left unmatched defects; grown support disconnected",
    4: "lone defect on a detector with no path to the boundary",
}


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare every entry point's signature; a missing one raises AttributeError."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.uf_new.argtypes = [i64, i64] + [ptr] * 8
    lib.uf_new.restype = ptr
    lib.uf_free.argtypes = [ptr]
    lib.uf_free.restype = None
    lib.uf_decode_batch.argtypes = [ptr, ptr, i64, ptr]
    lib.uf_decode_batch.restype = ctypes.c_int
    lib.uf_decode_edges.argtypes = [ptr, ptr, i64, ptr]
    lib.uf_decode_edges.restype = i64
    return lib


class NativeKernel:
    """One matching graph loaded into the kernel; its C state dies with this object.

    Takes the arrays :class:`~repro.decode.union_find.UnionFindDecoder`
    builds: edge endpoints ``eu``/``ev`` (the open boundary is node ``n``),
    frame bits, integer capacities, the CSR adjacency ``indptr``/``adj_edge``
    over the ``n + 1`` nodes, and the single-defect boundary table.  The
    kernel copies them.  Like the Python kernel it reuses scratch state
    between calls, so one instance must not decode concurrently.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        n: int,
        eu: np.ndarray,
        ev: np.ndarray,
        frame: np.ndarray,
        cap: np.ndarray,
        indptr: np.ndarray,
        adj_edge: np.ndarray,
        single_verdict: np.ndarray,
        single_reachable: np.ndarray,
    ):
        n_edges = len(eu)
        layout = [
            (eu, np.int64, n_edges),
            (ev, np.int64, n_edges),
            (frame, np.uint8, n_edges),
            (cap, np.int64, n_edges),
            (indptr, np.int64, n + 2),
            (adj_edge, np.int64, 2 * n_edges),
            (single_verdict, np.uint8, n),
            (single_reachable, np.uint8, n),
        ]
        arrays = [np.ascontiguousarray(a, dtype=dtype) for a, dtype, _ in layout]
        for array, (_, _, size) in zip(arrays, layout):
            if array.shape != (size,):
                raise ValueError(f"kernel input of shape {array.shape}, expected ({size},)")
        handle = lib.uf_new(n, n_edges, *(a.ctypes.data for a in arrays))
        if not handle:
            raise MemoryError("native union-find kernel could not allocate its state")
        self._lib = lib
        self._handle = handle
        self._n = n
        self._edges = np.empty(n + 1, dtype=np.int64)
        weakref.finalize(self, lib.uf_free, handle)

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Verdicts for a ``(n_shots, n)`` batch of 0/1 entries, in one call."""
        syndromes = np.ascontiguousarray(syndromes, dtype=np.uint8)
        if syndromes.ndim != 2 or syndromes.shape[1] != self._n:
            raise ValueError(
                f"syndromes shape {syndromes.shape} does not match (n_shots, {self._n})"
            )
        out = np.empty(syndromes.shape[0], dtype=np.uint8)
        code = self._lib.uf_decode_batch(
            self._handle, syndromes.ctypes.data, syndromes.shape[0], out.ctypes.data
        )
        if code:
            raise RuntimeError(ERRORS[code])
        return out

    def decode_edges(self, defect_ids: np.ndarray) -> list[int]:
        """Correction edge ids, in peeling order, for defect ids in ``[0, n)``."""
        ids = np.ascontiguousarray(defect_ids, dtype=np.int64)
        count = self._lib.uf_decode_edges(
            self._handle, ids.ctypes.data, ids.size, self._edges.ctypes.data
        )
        if count < 0:
            raise RuntimeError(ERRORS[-count])
        return self._edges[:count].tolist()
