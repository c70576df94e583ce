"""SIMD beam-pass rescheduling of a compiled hardware circuit.

TISCC's scheduler (and the per-site pricing of §3.4) treats every gate as
its own laser event, but trapped-ion hardware drives many *identical* gates
in one global beam pass — TrapSIMD (arXiv:2504.17886) shows batching
same-mnemonic gates is the dominant backend-compiler lever on 2D junction
grids.  This module adds that backend phase: :func:`simd_schedule` takes a
compiled :class:`~repro.hardware.circuit.HardwareCircuit`, regroups its
laser gates into wide same-``(mnemonic, duration)`` beam passes, compacts
the time axis, and co-schedules transport so groups form as early and as
wide as possible.

The pass is a *pure retiming*: it never reorders two instructions that
share a site (or a junction), so the rescheduled circuit passes the
reference validity checker and — because detector error models depend only
on the per-site instruction order and on idle gaps derived from the
schedule — yields the same DEM as the input up to idle-window durations.
For dephasing-free noise the mechanism structure (detector footprints and
observable masks) is *identical* and every probability agrees to within a
few ulp: retiming can permute the XOR-combine fold order inside a
mechanism, which is the only float-level freedom left.  Fixed-seed
frame-engine logical-error counters are identical in practice — a sampled
bit flips only when a uniform draw lands inside that ulp-wide sliver —
and tests and ``bench_simd`` enforce both properties.

Scheduling model
----------------

* **Laser rows** are the mnemonics priced in
  :attr:`HardwareProfile.gate_times_us`; ``Move``/``Load`` are transport
  and are never beam-limited — they drain eagerly between passes.
* **Resources** are trap sites, plus one pseudo-resource per junction for
  junction-crossing ``Move`` rows (two swaps through one junction must
  serialize, matching the validity checker's junction rule).
* The scheduler is a readiness-driven list scheduler: per-resource
  last-user chains define the dependency DAG; at each step every ready
  transport row fires at its earliest start, then the ready laser class
  with the earliest member start fires as one pass (chunked to
  ``width`` members when the profile caps group width).  Ready members of
  one class are provably resource-disjoint, so firing them together is
  always conflict-free.
* ``site_parallel`` (default): a pass occupies only its member sites;
  per-pass overhead extends each member's busy window.  ``pass_serial``:
  one global beam serializes passes — each pass waits for the beam and
  holds it for ``duration + overhead``; this prices beam-limited hardware
  and can *lengthen* the circuit, which is the point of the model.

Two loops run that scheduler over one set of columns, which
:func:`simd_schedule` lays the sorted stream out as once: per row a
beam-class id (ranked by mnemonic, then duration, so the lowest id wins a
tie on earliest start; -1 marks transport), the duration, and up to three
resource ids (a junction is looked up once per distinct ``Move`` site
pair).  The native one (``_simd_kernel.c``, built on first use and cached
by :mod:`repro.util.native`) is a line-for-line port of the Python one,
which stays as its oracle and as the fallback when no C compiler is
available.  Start times agree bit for bit; :attr:`SimdReport.kernel` says
which loop ran and :attr:`SimdReport.fallback_reason` why the Python one
did.

The result is :meth:`HardwareCircuit.retimed`: the input circuit with the
same rows, labels and template-replay records, and new start times.  On a
replayed memory the bulk rounds come out periodic again, so the DEM
extractor tiles them as it does unscheduled memories.  It verifies that
periodicity against the retimed columns and walks the whole circuit when
the check fails, as it does for a ``pass_serial`` beam's bulk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.hardware.circuit import CircuitColumns, HardwareCircuit, _name_rank, name_code
from repro.hardware.profile import SIMD_MODES

__all__ = ["SimdReport", "simd_schedule", "baseline_beam_passes", "SIMD_MODES"]

#: The native scheduling loop, built and loaded by :mod:`repro.util.native`
#: at the first :func:`simd_schedule` call, never at import.
SOURCE = Path(__file__).with_name("_simd_kernel.c")


@dataclass(frozen=True)
class SimdReport:
    """What one :func:`simd_schedule` run did to a circuit.

    ``utilization`` is mean group width over the effective beam capacity —
    the width cap when one is set, else the widest group actually formed —
    so 1.0 means every pass was as wide as the hardware allows.  ``kernel``
    names the loop that scheduled (``"native"`` or ``"python"``) and
    ``fallback_reason`` why the Python one ran (compiler stderr included).
    """

    n_rows: int
    n_laser_rows: int
    baseline_passes: int
    beam_passes: int
    max_group_width: int
    mean_group_width: float
    utilization: float
    baseline_makespan_us: float
    makespan_us: float
    width: int
    mode: str
    overhead_us: float
    kernel: str
    fallback_reason: str | None = None

    @property
    def pass_reduction(self) -> float:
        """Fraction of baseline beam passes eliminated (0 when none existed)."""
        if self.baseline_passes == 0:
            return 0.0
        return 1.0 - self.beam_passes / self.baseline_passes

    @property
    def makespan_ratio(self) -> float:
        """Compacted / original circuit duration (1.0 for an empty circuit)."""
        if self.baseline_makespan_us == 0.0:
            return 1.0
        return self.makespan_us / self.baseline_makespan_us

    def to_dict(self) -> dict:
        import dataclasses

        out = dataclasses.asdict(self)
        out["pass_reduction"] = self.pass_reduction
        out["makespan_ratio"] = self.makespan_ratio
        return out


def _check_width(width) -> None:
    if isinstance(width, bool) or not isinstance(width, int) or width < 0:
        raise ValueError(f"width must be an integer >= 0 (0 = unlimited), got {width!r}")


def _rows_named(cols: CircuitColumns, names: Iterable[str]) -> np.ndarray:
    """Per row: is its gate one of ``names``?"""
    return np.isin(cols.codes, [c for c in map(name_code, names) if c is not None])


def _laser_rows(cols: CircuitColumns, profile) -> np.ndarray:
    """The rows of laser gates: the mnemonics priced in the profile's gate times."""
    return np.flatnonzero(_rows_named(cols, (name for name, _ in profile.gate_times_us)))


def _groups(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.lexsort(keys)`` and, per sorted row, the rank of its distinct key tuple."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    return order, np.cumsum(new) - 1


class _Columns(NamedTuple):
    """A sorted stream laid out for the scheduling loops (see ``_simd_kernel.c``)."""

    #: Per row: its beam class, ranked by (mnemonic, duration); -1 for transport.
    classes: np.ndarray
    #: Per row: its duration in microseconds.
    duration: np.ndarray
    #: Per row, -1 padded: its sites, then ``n_positions + junction`` for a
    #: junction-crossing ``Move`` (two swaps through one junction serialize).
    resources: np.ndarray
    n_resources: int
    n_classes: int


def _columns(cols: CircuitColumns, grid) -> _Columns:
    """Lay a sorted stream out as both scheduling loops' columns."""
    laser = _laser_rows(cols, grid.profile)
    order, ids = _groups(cols.duration[laser], _name_rank()[cols.codes[laser]])
    classes = np.full(cols.n, -1, dtype=np.int32)
    classes[laser[order]] = ids
    resources = np.full((cols.n, 3), -1, dtype=np.int64)
    resources[:, 0] = cols.site0
    resources[:, 1] = cols.site1
    moves = np.flatnonzero(_rows_named(cols, ("Move",)) & (cols.nsites == 2))
    if moves.size:
        # One lookup per distinct site pair, not per Move.
        pairs, inverse = np.unique(
            (resources[moves, 0] << 32) | resources[moves, 1], return_inverse=True
        )
        junctions = [grid.junction_between(p >> 32, p & 0xFFFFFFFF) for p in pairs.tolist()]
        pseudo = np.array([-1 if j is None else grid.n_positions + j for j in junctions])
        resources[moves, 2] = pseudo[inverse]
    return _Columns(
        classes,
        np.ascontiguousarray(cols.duration, dtype=np.float64),
        resources,
        int(resources.max(initial=-1)) + 1,
        int(ids[-1]) + 1 if ids.size else 0,
    )


def _schedule_python(
    columns: _Columns, width: int, serial: bool, overhead_us: float
) -> tuple[list[float], int, int]:
    """The scheduling loop in Python: the native kernel's oracle and fallback.

    Returns each sorted row's new start, the pass count and the widest pass.
    """
    classes = columns.classes.tolist()
    dur = columns.duration.tolist()
    resources = [
        () if a < 0 else (a,) if b < 0 else (a, b) if c < 0 else (a, b, c)
        for a, b, c in zip(*columns.resources.T.tolist())
    ]
    n = len(classes)

    # Dependency DAG from per-resource last-user chains: row i depends on
    # the previous user of each of its resources.  Edges follow the sorted
    # stream, so per-site order is preserved by construction.
    succs: dict[int, list[int]] = {}
    indeg = [0] * n
    last_user = [-1] * columns.n_resources
    for i, rs in enumerate(resources):
        preds = set()
        for r in rs:
            prev = last_user[r]
            if prev >= 0:
                preds.add(prev)
            last_user[r] = i
        indeg[i] = len(preds)
        for p in preds:
            succs.setdefault(p, []).append(i)

    avail = [0.0] * columns.n_resources
    est = [0.0] * n  # earliest start, finalized when the row becomes ready
    new_t = [0.0] * n
    beam_free = 0.0
    n_passes = 0
    max_group = 0
    ready_transport: list[int] = []
    ready_laser: list[list[int]] = [[] for _ in range(columns.n_classes)]
    class_min = [math.inf] * columns.n_classes  # least ready earliest start

    def release(i: int) -> None:
        earliest = 0.0
        for res in resources[i]:
            a = avail[res]
            if a > earliest:
                earliest = a
        est[i] = earliest
        c = classes[i]
        if c >= 0:
            ready_laser[c].append(i)
            if earliest < class_min[c]:
                class_min[c] = earliest
        else:
            ready_transport.append(i)

    for i in range(n):
        if indeg[i] == 0:
            release(i)

    scheduled = 0
    while scheduled < n:
        # Transport is not beam-limited: drain every ready Move/Load at its
        # earliest start (in sorted-stream order, for determinism) before
        # committing the next pass, so pass groups form as wide as possible.
        while ready_transport:
            batch = sorted(ready_transport)
            ready_transport.clear()
            for i in batch:
                start = est[i]
                new_t[i] = start
                end = start + dur[i]
                for res in resources[i]:
                    avail[res] = end
                scheduled += 1
                for nxt in succs.get(i, ()):
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        release(nxt)
        if scheduled >= n:
            break
        # Fire the class whose earliest ready member can start first (the
        # lowest class id, so mnemonic then duration, breaks a tie).
        best = -1
        for c, rows in enumerate(ready_laser):
            if rows and (best < 0 or class_min[c] < class_min[best]):
                best = c
        if best < 0:  # pragma: no cover - the DAG is acyclic
            raise RuntimeError("SIMD scheduler deadlocked with unscheduled rows")
        members = sorted(ready_laser[best])
        ready_laser[best] = []
        class_min[best] = math.inf
        duration = dur[members[0]]
        cap = width if width else len(members)
        for c0 in range(0, len(members), cap):
            chunk = members[c0 : c0 + cap]
            start = max(est[i] for i in chunk)
            if serial:
                if beam_free > start:
                    start = beam_free
                beam_free = start + duration + overhead_us
                busy_end = start + duration
            else:
                busy_end = start + duration + overhead_us
            for i in chunk:
                new_t[i] = start
                for res in resources[i]:
                    avail[res] = busy_end
                scheduled += 1
            n_passes += 1
            if len(chunk) > max_group:
                max_group = len(chunk)
            for i in chunk:
                for nxt in succs.get(i, ()):
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        release(nxt)
    return new_t, n_passes, max_group


def baseline_beam_passes(circuit: HardwareCircuit, profile, width: int = 0) -> int:
    """Beam passes the *unscheduled* circuit needs: distinct
    ``(mnemonic, start, duration)`` groups of laser rows, chunked to
    ``width`` members when the hardware caps group width (0 = unlimited).

    This is the honest baseline — gates the original scheduler already
    started at the same instant ride one pass for free.
    """
    _check_width(width)
    cols = circuit.sorted_columns()
    laser = _laser_rows(cols, profile)
    _, groups = _groups(cols.duration[laser], cols.t[laser], cols.codes[laser])
    sizes = np.bincount(groups)
    if width:
        # A width past the laser row count splits no group; clamped, it fits int64.
        return int((-(-sizes // min(width, laser.size))).sum())
    return int(sizes.size)


def simd_schedule(
    circuit: HardwareCircuit,
    grid,
    width: int = 0,
    mode: str = "site_parallel",
    overhead_us: float = 0.0,
) -> tuple[HardwareCircuit, SimdReport]:
    """Reschedule ``circuit`` into SIMD beam passes on ``grid``.

    ``width`` caps members per pass (0 = unlimited), ``mode`` selects the
    beam timing discipline (:data:`SIMD_MODES`), ``overhead_us`` is the
    per-pass setup cost.  Returns ``circuit.retimed(...)`` (same rows in
    the same append order, same labels and replay records, new start
    times) and a :class:`SimdReport`, whose ``kernel`` names the loop that
    scheduled.
    """
    if mode not in SIMD_MODES:
        raise ValueError(f"mode must be one of {SIMD_MODES}, got {mode!r}")
    _check_width(width)
    if not (overhead_us >= 0.0 and np.isfinite(overhead_us)):
        raise ValueError(f"overhead_us must be finite and >= 0, got {overhead_us}")
    # Imported here, not at module level: loading the native kernel (and
    # building it, the first time on a host) is scheduling work, never
    # import-time work.
    from repro.hardware import _simd_native
    from repro.util import native

    columns = _columns(circuit.sorted_columns(), grid)
    serial = mode == "pass_serial"
    lib, reason = native.load(SOURCE, _simd_native._declare)
    if lib is not None:
        new_t, n_passes, max_group = _simd_native.schedule(lib, columns, width, serial, overhead_us)
    else:
        new_t, n_passes, max_group = _schedule_python(columns, width, serial, overhead_us)
    n = len(columns.classes)
    n_laser = int(np.count_nonzero(columns.classes >= 0))

    # The schedule was built over the sorted stream; retime in append order.
    t_arr = np.empty(n, dtype=np.float64)
    t_arr[circuit.sort_order()] = new_t
    new = circuit.retimed(t_arr)

    mean_group = n_laser / n_passes if n_passes else 0.0
    capacity = width if width else max_group
    report = SimdReport(
        n_rows=n,
        n_laser_rows=n_laser,
        baseline_passes=baseline_beam_passes(circuit, grid.profile, width),
        beam_passes=n_passes,
        max_group_width=max_group,
        mean_group_width=mean_group,
        utilization=mean_group / capacity if capacity else 0.0,
        baseline_makespan_us=circuit.makespan,
        makespan_us=new.makespan,
        width=width,
        mode=mode,
        overhead_us=overhead_us,
        kernel="python" if lib is None else "native",
        fallback_reason=reason,
    )
    return new, report
