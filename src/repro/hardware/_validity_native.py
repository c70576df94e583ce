"""Bind the native validity replay (``_validity_kernel.c``) through :mod:`ctypes`.

:func:`repro.util.native.load` builds, caches and loads the kernel;
:func:`_declare` is the signature table it applies.
:func:`repro.hardware.validity.check_circuit` imports this module at its
first call, never at import, and hands :func:`replay` the loaded kernel.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np

from repro.hardware.circuit import HardwareCircuit, name_code
from repro.hardware.grid import GridManager
from repro.hardware.validity import SOURCE

__all__ = ["SOURCE", "Replay", "replay"]


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the entry point's signature; a missing one raises AttributeError."""
    ptr, i64, i32, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32, ctypes.c_double
    lib.validity_replay.argtypes = [
        i64, *[ptr] * 7, *[i32] * 3, i64, i64, ptr, f64, f64, i64, *[ptr] * 4
    ]
    lib.validity_replay.restype = i64
    return lib


class Replay(NamedTuple):
    """One pass of the kernel over a circuit's execution order."""

    #: The first invalid row's position in execution order; -1 when all are valid.
    failed_at: int
    #: Per site: the final ion's dense index (initial ions first, then
    #: loads in execution order), -1 where the site is empty.
    occupant: np.ndarray
    #: Per site: True on each junction a move crossed.
    junction_used: np.ndarray
    n_moves: int
    n_junction_crossings: int
    #: Initial plus loaded ions.
    n_ions: int
    #: Latest row end, from 0.0.
    makespan: float


def replay(
    lib: ctypes.CDLL, grid: GridManager, circuit: HardwareCircuit, initial_sites: np.ndarray
) -> Replay:
    """Run the kernel over ``circuit`` from ions on ``initial_sites``.

    Initial ion ``k`` sits on ``initial_sites[k]``, which the caller has
    checked are distinct trapping zones.
    """
    cols = circuit.columns()
    # Bound to names for the whole call: a pointer into a temporary would dangle.
    columns = [
        np.ascontiguousarray(column, dtype=dtype)
        for column, dtype in (
            (circuit.sort_order(), np.int64),
            (cols.codes, np.int32),
            (cols.site0, np.int64),
            (cols.site1, np.int64),
            (cols.nsites, np.int8),
            (cols.t, np.float64),
            (cols.duration, np.float64),
        )
    ]
    occupant = np.full(grid.n_positions, -1, dtype=np.int64)
    occupant[initial_sites] = np.arange(len(initial_sites), dtype=np.int64)
    junction_used = np.zeros(grid.n_positions, dtype=np.uint8)
    stats = np.zeros(3, dtype=np.int64)
    makespan = ctypes.c_double()
    codes = [name_code(name) for name in ("Load", "Move", "ZZ")]
    failed = lib.validity_replay(
        cols.n,
        *[column.ctypes.data for column in columns],
        *[-1 if code is None else code for code in codes],
        grid.width,
        grid.height,
        grid.site_kinds().ctypes.data,
        grid.move_us,
        grid.junction_hop_us,
        len(initial_sites),
        occupant.ctypes.data,
        junction_used.ctypes.data,
        stats.ctypes.data,
        ctypes.byref(makespan),
    )
    if failed == -2:
        raise MemoryError("the native validity replay ran out of memory")
    n_moves, n_crossings, n_ions = stats.tolist()
    return Replay(
        int(failed),
        occupant,
        junction_used.view(bool),
        n_moves,
        n_crossings,
        n_ions,
        makespan.value,
    )
