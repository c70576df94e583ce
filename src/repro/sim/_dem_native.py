"""Bind the native DEM kernel (``_dem_kernel.c``) through :mod:`ctypes`.

:func:`repro.util.native.load` builds, caches and loads the kernel;
:func:`_declare` is the signature table it applies.  :mod:`repro.sim.dem`
imports this module at its first extraction or fold, never at import, and
hands these functions the loaded kernel, or runs its Python code when there
is none:

* :func:`resolve` resolves a circuit's sorted stream against its initial
  occupancy in one pass, as :func:`~repro.sim.interpreter.replay_stream`
  does, into :class:`Stream` columns (per row: tableau qubits and the idle
  gaps it closes);
* :func:`walk` reads those columns (plus per row an opcode and a duration,
  and per measurement label the detector and observable lanes of its last
  measurement) and wraps the kernel's site columns and sorted mechanism
  keys as a :class:`~repro.sim.dem.FaultTable`;
* :func:`fold` XOR-combines a table's priced sites into mechanisms, in site
  order, for :func:`~repro.sim.dem.build_dem`.
"""

from __future__ import annotations

import ctypes
from itertools import chain
from typing import NamedTuple

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
from repro.sim.interpreter import RELOCATIONS
from repro.sim.noise import NoiseParams

__all__ = ["SOURCE", "Stream", "fold", "resolve", "walk"]

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
    lib.dem_resolve.argtypes = [i64, *[ptr] * 6, *[i64] * 3, ptr, i64, *[ptr] * 7]
    lib.dem_resolve.restype = i64
    lib.dem_fold.argtypes = [i64, *[ptr] * 4, i64, ptr, i64, *[ptr] * 2]
    lib.dem_fold.restype = i64
    return lib


class Stream(NamedTuple):
    """A sorted stream's tableau qubits and idle gaps, as CSR columns.

    Row ``r`` acts on tableau qubits ``qubits[qptr[r]:qptr[r + 1]]`` and
    closes idle gaps ``iptr[r]:iptr[r + 1]``: qubit ``idle_q``, length
    ``idle_gap`` (µs) and predecessor row ``idle_pred``, the fields of
    :attr:`ReplayStream.idle <repro.sim.interpreter.ReplayStream.idle>`.
    """

    qptr: np.ndarray  # (n + 1,) int64
    qubits: np.ndarray  # int32
    iptr: np.ndarray  # (n + 1,) int64
    idle_q: np.ndarray  # int32
    idle_gap: np.ndarray  # float64
    idle_pred: np.ndarray  # int64
    n_qubits: int


def resolve(lib: ctypes.CDLL, circuit: HardwareCircuit, occupancy: dict[int, int]) -> Stream | int:
    """``replay_stream(circuit, occupancy)``'s qubits and gaps, resolved natively.

    Returns the columns, or the first sorted row the kernel cannot resolve
    (``-1`` for an occupancy that maps two sites to one ion or names a
    negative qsite, the row count when out of memory); the caller then uses
    nothing of the pass and runs the Python walk, whose ``replay_stream``
    raises its own error or resolves what the kernel leaves to it.
    """
    cols = circuit.sorted_columns()
    n = cols.n
    sites = np.fromiter(occupancy.keys(), dtype=np.int64, count=len(occupancy))
    ions = np.fromiter(occupancy.values(), dtype=np.int64, count=len(occupancy))
    distinct = np.unique(ions)
    if distinct.size != ions.size or sites.min(initial=0) < 0:
        return -1
    top = int(max(cols.site0.max(initial=-1), cols.site1.max(initial=-1), sites.max(initial=-1)))
    occ = np.full(top + 1, -1, dtype=np.int32)
    occ[sites] = np.searchsorted(distinct, ions)  # the k-th ion in id order is qubit k
    total = int(cols.nsites.sum())
    qptr, iptr = np.empty(n + 1, dtype=np.int64), np.empty(n + 1, dtype=np.int64)
    qubits, idle_q = np.empty(total, dtype=np.int32), np.empty(total, dtype=np.int32)
    idle_gap = np.empty(total, dtype=np.float64)
    idle_pred = np.empty(total, dtype=np.int64)
    move = name_code("Move")
    n_qubits = ctypes.c_int64()
    inputs = [
        np.ascontiguousarray(column, dtype=dtype)
        for column, dtype in (
            (cols.codes, np.int32),
            (cols.site0, np.int64),
            (cols.site1, np.int64),
            (cols.nsites, np.int8),
            (cols.t, np.float64),
            (cols.duration, np.float64),
        )
    ]
    bad = lib.dem_resolve(
        n,
        *(column.ctypes.data for column in inputs),
        name_code("Load"),
        -1 if move is None else move,
        occ.size,
        occ.ctypes.data,
        ions.size,
        qptr.ctypes.data,
        qubits.ctypes.data,
        iptr.ctypes.data,
        idle_q.ctypes.data,
        idle_gap.ctypes.data,
        idle_pred.ctypes.data,
        ctypes.byref(n_qubits),
    )
    if bad != -1:
        return bad
    m, g = int(qptr[-1]), int(iptr[-1])
    return Stream(qptr, qubits[:m], iptr, idle_q[:g], idle_gap[:g], idle_pred[:g], n_qubits.value)


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
    stream: Stream,
    params: NoiseParams,
    detectors: list[list[str]],
    observables: list[list[str]],
    skip_empty: bool,
) -> dem.FaultTable | None:
    """The full walk's table over ``circuit``'s resolved ``stream``, natively.

    See ``_dem_kernel.c``.  With ``skip_empty`` a stream without fault sites returns ``None``
    before any row is checked; otherwise the first row the kernel cannot
    fold raises :class:`~repro.sim.dem.DemExtractionError`, then the first
    unknown label ``ValueError``, as the Python walk does.
    """
    cols = circuit.sorted_columns()
    n = cols.n
    ops = _opcodes(cols.codes)
    durations = np.ascontiguousarray(cols.duration, dtype=np.float64)
    # Without dephasing the kernel reads no idle gap.
    flags = sum(bit for bit, on in zip((1, 2, 4, 8, 16), dem.dem_structure_key(params)) if on)

    n_sites = lib.dem_count_sites(
        n,
        ops.ctypes.data,
        stream.qptr.ctypes.data,
        stream.iptr.ctypes.data,
        durations.ctypes.data,
        flags,
    )
    if skip_empty and not n_sites:
        return None
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
        stream.qptr.ctypes.data,
        stream.qubits.ctypes.data,
        durations.ctypes.data,
        stream.iptr.ctypes.data,
        stream.idle_q.ctypes.data,
        stream.idle_gap.ctypes.data,
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


def fold(
    lib: ctypes.CDLL,
    kinds: np.ndarray,
    mech: np.ndarray,
    rates: np.ndarray,
    timed: np.ndarray | None,
    visible: np.ndarray,
) -> tuple:
    """:func:`~repro.sim.dem.build_dem`'s fold on the native kernel.

    Site ``s`` fires with ``rates[kinds[s]]``, or for a dephasing kind with
    the next entry of ``timed`` when given; it joins key ``mech[s]`` when it
    fires and the key is ``visible``.  Returns the NumPy fold's
    ``(mechanism ids, probabilities)``.  Raises the NumPy fold's
    ``ValueError`` for the first site whose kind or key is out of range, and
    ``ValueError`` when ``timed`` does not hold one entry per dephasing
    site.
    """
    kinds = np.ascontiguousarray(kinds, dtype=np.int8)
    mech = np.ascontiguousarray(mech, dtype=np.int64)
    rates = np.ascontiguousarray(rates, dtype=np.float64)
    visible = np.ascontiguousarray(visible, dtype=np.uint8)
    if rates.shape != (len(dem.KINDS),):
        raise ValueError(f"need one rate per site kind, got shape {rates.shape}")
    if mech.shape != kinds.shape:
        raise ValueError(f"need one mechanism id per site, got {mech.size} for {kinds.size}")
    if timed is not None:
        timed = np.ascontiguousarray(timed, dtype=np.float64)
    p = np.empty(visible.size, dtype=np.float64)
    count = np.empty(visible.size, dtype=np.int64)
    bad = lib.dem_fold(
        kinds.size,
        kinds.ctypes.data,
        mech.ctypes.data,
        rates.ctypes.data,
        None if timed is None else timed.ctypes.data,
        0 if timed is None else timed.size,
        visible.ctypes.data,
        visible.size,
        p.ctypes.data,
        count.ctypes.data,
    )
    if bad == -2:
        raise ValueError("need one timed probability per dephasing site")
    if bad != -1:
        raise dem._bad_site(kinds, mech, visible.size, bad)
    mechs = np.flatnonzero(count)
    return mechs, p[mechs]
