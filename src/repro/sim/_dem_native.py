"""Bind the native DEM walk (``_dem_kernel.c``) through :mod:`ctypes`.

:func:`repro.util.native.load` builds, caches and loads the kernel;
:func:`_declare` is the signature table it applies.  :mod:`repro.sim.dem`
imports this module at its first extraction, never at import, and hands
:func:`walk` the loaded kernel, or runs its Python walk when there is none.
:func:`walk` lays a circuit's resolved stream out as the kernel's columns
(per row: opcode, tableau qubits, duration and idle gaps; per measurement
label: the detector and observable lanes of its last measurement) and wraps
the kernel's site columns and sorted mechanism keys as a
:class:`~repro.sim.dem.FaultTable`.
"""

from __future__ import annotations

import ctypes
from itertools import chain

import numpy as np

from repro.hardware.circuit import HardwareCircuit, name_code
from repro.hardware.model import SINGLE_QUBIT_GATES
from repro.sim import dem
from repro.sim.dem import (
    _FRAME_PAULI,
    _FRAME_PHASE,
    _FRAME_SQRT_X,
    _FRAME_SWAP,
    SOURCE,
)
from repro.sim.interpreter import RELOCATIONS, ReplayStream
from repro.sim.noise import NoiseParams

__all__ = ["SOURCE", "walk"]

#: Row opcodes of the native walk (``OP_*`` in ``_dem_kernel.c``).  The
#: single-qubit gates neither walk folds (non-Clifford ones) and every other
#: unknown name get the last two codes: the first such row raises
#: :class:`~repro.sim.dem.DemExtractionError` before the kernel runs, and
#: until then they count fault sites as
#: :func:`~repro.sim.dem.enumerate_fault_sites` does.
_OPCODES = {
    **dict.fromkeys(SINGLE_QUBIT_GATES, 8),
    **dict.fromkeys(RELOCATIONS, 0),
    **dict.fromkeys(_FRAME_PAULI, 1),
    **dict.fromkeys(_FRAME_PHASE, 2),
    **dict.fromkeys(_FRAME_SQRT_X, 3),
    **dict.fromkeys(_FRAME_SWAP, 4),
    "ZZ": 5,
    "Prepare_Z": 6,
    "Measure_Z": 7,
}
_OP_MEASURE, _OP_OTHER_1Q, _OP_OTHER = 7, 8, 9


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the entry points' signatures; a missing one raises AttributeError."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.dem_count_sites.argtypes = [i64, ptr, ptr, ptr, ptr, i64]
    lib.dem_count_sites.restype = i64
    lib.dem_walk.argtypes = [i64, *[ptr] * 9, *[i64] * 6, *[ptr] * 8]
    lib.dem_walk.restype = ptr
    lib.dem_fetch.argtypes = [ptr, ptr, ptr, ptr]
    lib.dem_fetch.restype = None
    return lib


def _offsets(lengths, n: int) -> np.ndarray:
    """CSR row pointers over ``n`` row lengths."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(lengths, dtype=np.int64, count=n), out=ptr[1:])
    return ptr


def _opcodes(codes: np.ndarray) -> np.ndarray:
    """Per-row native opcodes of a sorted stream's gate-name codes."""
    lut = np.full(int(codes.max(initial=-1)) + 1, _OP_OTHER, dtype=np.int8)
    for name, op in _OPCODES.items():
        code = name_code(name)
        if code is not None and code < lut.size:
            lut[code] = op
    return lut[codes]


def _label_lanes(
    cols, ops: np.ndarray, detectors: list[list[str]], observables: list[list[str]], words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's lane row (its label's last measurement, else -1) and the lanes.

    Lane ``d`` is detector ``d`` and lane ``len(detectors) + o`` observable
    ``o``; a label's lanes XOR every detector and observable listing it, so
    a repeat cancels.  Raises for the first unknown label, in detector then
    observable order.
    """
    last: dict[str, int] = {}
    for row in np.flatnonzero(ops == _OP_MEASURE).tolist():
        last[cols.labels.get(row) or f"m?{row}"] = row
    lane_row = {label: k for k, label in enumerate(last)}
    label_rows = np.full(cols.n, -1, dtype=np.int64)
    label_rows[list(last.values())] = np.arange(len(last), dtype=np.int64)
    hits, lanes_hit = [], []
    for lane, labels in enumerate(chain(detectors, observables)):
        for label in labels:
            k = lane_row.get(label)
            if k is None:
                raise dem._unknown_label(label)
            hits.append(k)
            lanes_hit.append(lane)
    lanes = np.zeros((max(len(last), 1), words), dtype=np.uint64)
    lane_ids = np.array(lanes_hit, dtype=np.uint64)
    np.bitwise_xor.at(
        lanes,
        (np.array(hits, dtype=np.int64), (lane_ids >> np.uint64(6)).astype(np.int64)),
        np.uint64(1) << (lane_ids & np.uint64(63)),
    )
    return label_rows, lanes


def walk(
    lib: ctypes.CDLL,
    circuit: HardwareCircuit,
    stream: ReplayStream,
    params: NoiseParams,
    detectors: list[list[str]],
    observables: list[list[str]],
    skip_empty: bool,
) -> dem.FaultTable | None:
    """The full walk's table on the native kernel (see ``_dem_kernel.c``).

    With ``skip_empty`` a stream without fault sites returns ``None``
    before any row is checked; otherwise the first row the kernel cannot
    fold raises :class:`~repro.sim.dem.DemExtractionError`, then the first
    unknown label ``ValueError``, as the Python walk does.
    """
    cols = circuit.sorted_columns()
    n = cols.n
    ops = _opcodes(cols.codes)
    qptr = _offsets(map(len, stream.qubits), n)
    qubits = np.fromiter(chain.from_iterable(stream.qubits), dtype=np.int32, count=int(qptr[-1]))
    tracks_idle = params.t2_us is not None
    gaps = [gap for row in stream.idle for gap in row] if tracks_idle else []
    iptr = _offsets(map(len, stream.idle), n) if tracks_idle else np.zeros(n + 1, np.int64)
    idle_q = np.fromiter((q for q, _, _ in gaps), dtype=np.int32, count=len(gaps))
    idle_gap = np.fromiter((g for _, g, _ in gaps), dtype=np.float64, count=len(gaps))
    durations = np.ascontiguousarray(cols.duration, dtype=np.float64)
    flags = sum(bit for bit, on in zip((1, 2, 4, 8, 16), dem.dem_structure_key(params)) if on)

    n_sites = lib.dem_count_sites(
        n, ops.ctypes.data, qptr.ctypes.data, iptr.ctypes.data, durations.ctypes.data, flags
    )
    dem._VISIT_COUNTS["enumerate"] += n
    if skip_empty and not n_sites:
        return None
    dem._VISIT_COUNTS["propagate"] += n
    bad = np.flatnonzero(ops >= _OP_OTHER_1Q)
    if bad.size:
        raise dem._unsupported(cols.names[int(bad[0])])
    n_det, n_obs = len(detectors), len(observables)
    words = max(1, -(-(n_det + n_obs) // 64))
    label_rows, lanes = _label_lanes(cols, ops, detectors, observables, words)

    rows = np.empty(n_sites, dtype=np.int64)
    when = np.empty(n_sites, dtype=np.int8)
    kinds = np.empty(n_sites, dtype=np.int8)
    site_durations = np.empty(n_sites, dtype=np.float64)
    paulis = np.empty((n_sites, 2), dtype=np.int32)
    mech = np.empty(n_sites, dtype=np.int64)
    n_keys, n_ids = ctypes.c_int64(), ctypes.c_int64()
    handle = lib.dem_walk(
        n,
        ops.ctypes.data,
        qptr.ctypes.data,
        qubits.ctypes.data,
        durations.ctypes.data,
        iptr.ctypes.data,
        idle_q.ctypes.data,
        idle_gap.ctypes.data,
        label_rows.ctypes.data,
        lanes.ctypes.data,
        stream.n_qubits,
        n_det,
        n_obs,
        words,
        flags,
        n_sites,
        rows.ctypes.data,
        when.ctypes.data,
        kinds.ctypes.data,
        site_durations.ctypes.data,
        paulis.ctypes.data,
        mech.ctypes.data,
        ctypes.byref(n_keys),
        ctypes.byref(n_ids),
    )
    if not handle:
        raise MemoryError("the native DEM walk ran out of memory")
    key_ptr = np.empty(n_keys.value + 1, dtype=np.int64)
    key_ids = np.empty(n_ids.value, dtype=np.int32)
    key_obs = np.empty(n_keys.value, dtype=np.uint64)
    lib.dem_fetch(handle, key_ptr.ctypes.data, key_ids.ctypes.data, key_obs.ctypes.data)

    flat, bounds = key_ids.tolist(), key_ptr.tolist()
    labels = cols.labels
    return dem.FaultTable(
        n_det,
        n_obs,
        kernel="native",
        locations=(
            rows,
            when,
            paulis,
            [labels.get(r) or f"m?{r}" for r in rows[kinds == dem._READOUT].tolist()],
        ),
        channels=(kinds, site_durations),
        mechanisms=(mech, [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])], key_obs),
    )
