"""Independent hardware-circuit validity checking (paper §3.3).

"In TISCC, we implement basic hardware validity checks such as that two
qubits do not move through the same junction at the same time, and that two
qubits do not occupy the same site at the same time."

:func:`check_circuit` replays a compiled, time-resolved circuit against an
initial site occupancy and raises :class:`CircuitValidityError` on the first
violation.  It is deliberately independent of the scheduling logic in
:class:`~repro.hardware.grid.GridManager` so that it can double-check any
compiled circuit, exactly as ORQCS re-models the hardware on its side.

One specification and one fast pass share the contract:

* :func:`check_circuit_reference` is the specification: an
  instruction-by-instruction replay over :class:`Instruction` objects in
  execution order.  It raises every error message, it is the fallback when
  no C compiler is available, and it is the native pass's oracle.
* :func:`check_circuit` runs the same state machine in C
  (``_validity_kernel.c``, built on first use and cached by
  :mod:`repro.util.native`): one O(n) loop over the circuit's append-order
  columns read through :meth:`HardwareCircuit.sort_order`, so no sorted
  copy of the columns is built.  It returns the report when every row is
  valid.  Otherwise it re-runs the reference, which raises the same row's
  error with its message.  :attr:`ValidityReport.kernel` says which replay
  accepted the circuit and :attr:`ValidityReport.fallback_reason` why the
  reference ran instead of the native pass.

A vectorized NumPy replay used to sit between the two.  It was deleted, not
kept as a test oracle, because it was not the specification: it accepted
Loads onto negative sites and Loads before a never-used site's release at
0.0, both of which the reference rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.hardware.circuit import HardwareCircuit, Instruction
from repro.hardware.grid import GridManager

__all__ = [
    "CircuitValidityError",
    "ValidityReport",
    "check_circuit",
    "check_circuit_reference",
]

#: The native validity replay, built and loaded by :mod:`repro.util.native`
#: at the first :func:`check_circuit` call, never at import.
SOURCE = Path(__file__).with_name("_validity_kernel.c")

_EPS = 1e-9


class CircuitValidityError(RuntimeError):
    """A hardware circuit violates an occupancy/movement/timing constraint."""

    def __init__(self, message: str, instruction: Instruction | None = None):
        if instruction is not None:
            message = f"{message} (at {instruction.to_text()!r})"
        super().__init__(message)
        self.instruction = instruction


@dataclass
class ValidityReport:
    """Summary statistics from a successful validity replay."""

    n_instructions: int = 0
    n_moves: int = 0
    n_junction_crossings: int = 0
    junctions_used: set[int] = field(default_factory=set)
    sites_used: set[int] = field(default_factory=set)
    final_occupancy: dict[int, int] = field(default_factory=dict)
    makespan: float = 0.0
    #: The replay that accepted the circuit: ``"native"`` (the C pass) or
    #: ``"python"`` (the reference).  Not compared: both give equal reports.
    kernel: str = field(default="python", compare=False)
    #: Why the reference ran instead of the native pass (compiler stderr
    #: included); ``None`` when it did not fall back.
    fallback_reason: str | None = field(default=None, compare=False)


def check_circuit_reference(
    grid: GridManager,
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
) -> ValidityReport:
    """Replay ``circuit`` from ``initial_occupancy`` (site -> ion).

    Verifies, instruction by instruction in time order:

    * moves are single hops between adjacent zones (5.25 µs) or junction
      crossings between the two zones flanking one junction (210 µs);
    * an ion never starts an operation before its previous one finished;
    * a move's destination has been fully vacated before the transit begins;
    * no two ions cross the same junction at overlapping times;
    * gates/preps/measurements act on occupied zones, with ZZ requiring
      lattice adjacency;
    * every site a row names is a grid position.

    A site never vacated counts as released at 0.0, and an ion loaded
    mid-circuit gets the id one above every id before it.  This is the
    executable specification: one Python iteration per instruction.
    :func:`check_circuit` is the native production path.
    """
    _check_initial(grid, initial_occupancy)
    occupant: dict[int, int] = dict(initial_occupancy)
    site_release: dict[int, float] = {}
    ion_free: dict[int, float] = {ion: 0.0 for ion in occupant.values()}
    junction_free: dict[int, float] = {}
    report = ValidityReport(final_occupancy=occupant)

    for inst in circuit.sorted_instructions():
        report.n_instructions += 1
        report.sites_used.update(inst.sites)
        t, dur = inst.t, inst.duration
        for s in inst.sites:
            if not 0 <= s < grid.n_positions:
                raise CircuitValidityError(f"qsite {s} out of range", inst)

        if inst.name == "Load":
            if len(inst.sites) != 1:
                raise CircuitValidityError("Load takes exactly one qsite", inst)
            (s,) = inst.sites
            if s in occupant:
                raise CircuitValidityError(f"Load onto occupied site {s}", inst)
            if not grid.is_zone(s):
                raise CircuitValidityError("ions load onto trapping zones only", inst)
            if t + _EPS < site_release.get(s, 0.0):
                raise CircuitValidityError(f"site {s} not vacated at load time", inst)
            new_ion = max(ion_free, default=-1) + 1
            occupant[s] = new_ion
            ion_free[new_ion] = t

        elif inst.name == "Move":
            if len(inst.sites) != 2:
                raise CircuitValidityError("Move takes exactly two qsites", inst)
            src, dst = inst.sites
            ion = occupant.get(src)
            if ion is None:
                raise CircuitValidityError(f"Move from unoccupied site {src}", inst)
            if ion_free.get(ion, 0.0) > t + _EPS:
                raise CircuitValidityError(
                    f"ion {ion} busy until {ion_free[ion]:.3f}, move starts at {t:.3f}", inst
                )
            if dst in occupant:
                raise CircuitValidityError(
                    f"Move into occupied site {dst} (ion {occupant[dst]})", inst
                )
            if t + _EPS < site_release.get(dst, 0.0):
                raise CircuitValidityError(
                    f"site {dst} not vacated until {site_release[dst]:.3f}", inst
                )
            if not grid.is_zone(dst) or not grid.is_zone(src):
                raise CircuitValidityError("moves must start and end on trapping zones", inst)
            junction = grid.junction_between(src, dst)
            if dst in grid.neighbors(src):
                if abs(dur - grid.move_us) > _EPS:
                    raise CircuitValidityError(
                        f"adjacent-zone move must take {grid.move_us} µs", inst
                    )
            elif junction is not None:
                if abs(dur - grid.junction_hop_us) > _EPS:
                    raise CircuitValidityError(
                        f"junction crossing must take {grid.junction_hop_us} µs", inst
                    )
                if t + _EPS < junction_free.get(junction, 0.0):
                    raise CircuitValidityError(
                        f"junction {junction} busy until {junction_free[junction]:.3f}", inst
                    )
                junction_free[junction] = t + dur
                report.n_junction_crossings += 1
                report.junctions_used.add(junction)
            else:
                raise CircuitValidityError(f"{src} -> {dst} is not a legal hop", inst)
            del occupant[src]
            occupant[dst] = ion
            site_release[src] = t + dur
            ion_free[ion] = t + dur
            report.n_moves += 1

        elif inst.name == "ZZ":
            if len(inst.sites) != 2:
                raise CircuitValidityError("ZZ takes exactly two qsites", inst)
            a, b = inst.sites
            if not grid.gate_adjacent(a, b):
                raise CircuitValidityError(f"ZZ between non-adjacent zones {a}, {b}", inst)
            for s in (a, b):
                ion = occupant.get(s)
                if ion is None:
                    raise CircuitValidityError(f"ZZ on unoccupied site {s}", inst)
                if ion_free.get(ion, 0.0) > t + _EPS:
                    raise CircuitValidityError(f"ion {ion} busy at {t:.3f}", inst)
            for s in (a, b):
                ion_free[occupant[s]] = t + dur

        else:  # single-site native operation
            if len(inst.sites) != 1:
                raise CircuitValidityError(f"{inst.name} takes exactly one qsite", inst)
            (s,) = inst.sites
            ion = occupant.get(s)
            if ion is None:
                raise CircuitValidityError(f"{inst.name} on unoccupied site {s}", inst)
            if ion_free.get(ion, 0.0) > t + _EPS:
                raise CircuitValidityError(f"ion {ion} busy at {t:.3f}", inst)
            ion_free[ion] = t + dur

        report.makespan = max(report.makespan, t + dur)

    report.final_occupancy = occupant
    return report


def _check_initial(grid: GridManager, initial_occupancy: dict[int, int]) -> None:
    """Ions start on distinct trapping zones, one ion per site."""
    for site, ion in initial_occupancy.items():
        if not grid.is_zone(site):
            raise CircuitValidityError(f"initial occupancy places ion {ion} on junction {site}")
    if len(set(initial_occupancy.values())) != len(initial_occupancy):
        raise CircuitValidityError("initial occupancy maps two sites to the same ion")


def check_circuit(
    grid: GridManager,
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
) -> ValidityReport:
    """Replay ``circuit`` natively; see :func:`check_circuit_reference`.

    Accepts exactly the circuits the reference accepts, with an equal
    report.  When a row is invalid the reference re-runs and raises that
    row's :class:`CircuitValidityError`, so messages are the reference's.
    Without a native kernel the reference runs instead, and the report's
    ``fallback_reason`` says why.
    """
    # Imported here, not at module level: loading the native kernel (and
    # building it, the first time on a host) is validation work, never
    # import-time work.
    from repro.hardware import _validity_native
    from repro.util import native

    lib, reason = native.load(SOURCE, _validity_native._declare)
    if lib is None:
        report = check_circuit_reference(grid, circuit, initial_occupancy)
        report.fallback_reason = reason
        return report
    _check_initial(grid, initial_occupancy)
    sites = np.fromiter(initial_occupancy, dtype=np.int64, count=len(initial_occupancy))
    run = _validity_native.replay(lib, grid, circuit, sites)
    if run.failed_at >= 0:
        # The reference stops at the same row and raises its error message.
        return check_circuit_reference(grid, circuit, initial_occupancy)

    # Dense ion index -> ion id: the initial ions, then one id per Load
    # above every id before it.
    ions = np.fromiter(initial_occupancy.values(), dtype=np.int64, count=len(sites))
    first_load = int(ions.max()) + 1 if len(ions) else 0
    ion_ids = np.concatenate([ions, first_load + np.arange(run.n_ions - len(ions))])
    occupied = np.flatnonzero(run.occupant >= 0)
    return ValidityReport(
        n_instructions=len(circuit),
        n_moves=run.n_moves,
        n_junction_crossings=run.n_junction_crossings,
        junctions_used=set(np.flatnonzero(run.junction_used).tolist()),
        sites_used=circuit.used_sites(),  # cached, shared with §3.4 estimation
        final_occupancy=dict(zip(occupied.tolist(), ion_ids[run.occupant[occupied]].tolist())),
        makespan=run.makespan,
        kernel="native",
    )
