"""Bind the native round scheduler (``_round_kernel.c``) through :mod:`ctypes`.

:func:`repro.util.native.load` builds, caches and loads the kernel;
:func:`_declare` is the signature table it applies.
:meth:`repro.code.stabilizer_circuits.SyndromeScheduler.schedule_round`
imports this module at its first call, never at import, and hands
:func:`schedule_round` the loaded kernel.
"""

from __future__ import annotations

import ctypes
from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.code.plaquette import Plaquette
from repro.code.stabilizer_circuits import SOURCE, RoundRecord
from repro.hardware.circuit import HardwareCircuit, gate_code
from repro.hardware.grid import GridManager
from repro.hardware.model import HardwareModel

__all__ = ["SOURCE", "GATES", "schedule_round"]

#: The gates a round emits besides ``Move``, in the kernel's slot order.
GATES = ("Prepare_Z", "Y_pi/4", "ZZ", "Z_-pi/4", "Z_pi/2", "Z_pi/4", "Y_-pi/4", "Measure_Z")
#: Their interned codes, then ``Move``'s: the code column the kernel writes.
_CODES = np.array([gate_code(name) for name in (*GATES, "Move")], dtype=np.int32)

#: The kernel's return codes; any other is an error the Python loop raises.
_OK, _FULL, _NOMEM = 0, -1, -2
#: Calendar event kinds: a site interval and a junction interval.
_SITE, _JUNCTION = 0, 1


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the entry point's signature; a missing one raises AttributeError."""
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    geometry = [ptr, i64, i64, f64, f64, ptr, ptr]  # with gate codes and durations
    ions = [i64, ptr, ptr, ptr, ptr]  # with the occupant of every position
    calendars = [ptr, ptr, i64, ptr, ptr, ptr, ptr]  # horizons, live intervals
    faces = [i64, *[ptr] * 12]  # plaquettes, pockets, face graphs
    scalars = [f64, f64, i64]  # t_min, t_horizon, capacity
    outputs = [ptr] * 16  # rows, ions, calendar events, stats, times
    lib.round_schedule.argtypes = geometry + ions + calendars + faces + scalars + outputs
    lib.round_schedule.restype = i64
    return lib


def _ptr(lengths: list[int]) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths."""
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def schedule_round(
    lib: ctypes.CDLL,
    grid: GridManager,
    model: HardwareModel,
    circuit: HardwareCircuit,
    plaquettes: Sequence[Plaquette],
    measure_ions: dict[tuple[int, int], int],
    data_ion_at: dict[int, int],
    t_min: float,
) -> RoundRecord | None:
    """Schedule one round in the kernel and commit it to ``circuit`` and ``grid``.

    Returns the round's record, or ``None`` with nothing committed when the
    round cannot be scheduled (the kernel or the input gathering reported
    an error), so the caller can rerun the Python loop to raise it.
    """
    try:
        args = _Inputs(grid, model, plaquettes, measure_ions, data_ion_at, t_min)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError):
        return None  # an inconsistent round: the Python loop raises its error
    cap = 4 * len(plaquettes) + 16 * args.n_visits + 64
    while True:
        out = _Outputs(cap, len(args.ions))
        rc = lib.round_schedule(*args.pointers(grid), cap, *out.pointers())
        if rc == _FULL:
            cap *= 2
            continue
        if rc == _NOMEM:
            raise MemoryError("the native round scheduler ran out of memory")
        if rc != _OK:
            return None
        return out.commit(grid, circuit, plaquettes, args)


class _Inputs:
    """The kernel's inputs for one round, gathered from the grid's state."""

    def __init__(self, grid, model, plaquettes, measure_ions, data_ion_at, t_min):
        self.t_min = t_min
        # The Python loop's own ion list: the round's ions in id order.
        ions = [measure_ions[p.face] for p in plaquettes]
        ions += [data_ion_at[s] for p in plaquettes for s in p.data_sites.values()]
        self.ions = ions = sorted(set(ions))
        local = {ion: k for k, ion in enumerate(ions)}
        site_of = grid._site_of
        self.sites = [site_of[ion] for ion in ions]
        self.site = np.array(self.sites, dtype=np.int64)
        if len(ions) and not 0 <= self.site.min() <= self.site.max() < grid.n_positions:
            raise IndexError("an ion sits off the grid")
        self.ready = np.array([grid._ion_ready[ion] for ion in ions], dtype=np.float64)
        since = grid._occupied_since
        self.since = np.array([since[site] for site in self.sites], dtype=np.float64)
        self.durations = np.array([model.duration(name) for name in GATES], dtype=np.float64)

        occupant = np.full(grid.n_positions, -1, dtype=np.int64)
        occupant[np.fromiter(grid._occupant, dtype=np.int64, count=len(grid._occupant))] = -2
        occupant[self.site] = np.arange(len(ions), dtype=np.int64)
        self.occupant = occupant

        # The kernel copies the grid's horizon arrays.  Calendar history
        # matters only where it ends after t_min: every move of the round
        # starts at or after t_min.  At or after the grid's horizon there is
        # none, and every horizon is at most t_min.  The kernel's slot
        # search does not depend on the intervals' order.
        self.horizons = (grid._sites.horizon, grid._junctions.horizon)
        columns = [np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)]
        flags = np.zeros(0, dtype=np.int8)
        if not t_min >= grid.t_horizon:
            live = (grid._sites.live(t_min), grid._junctions.live(t_min))
            columns = [np.concatenate([part[k] for part in live]) for k in range(3)]
            flags = np.repeat(np.array([0, 1], dtype=np.int8), [len(part[0]) for part in live])
        self.intervals = (*columns, flags)

        n_plaq = len(plaquettes)
        pocket, data = [-1] * (4 * n_plaq), [-1] * (4 * n_plaq)
        last_layer = {}
        for k, p in enumerate(plaquettes):
            visits = p.visits()
            last_layer[p.face] = max(layer for layer, _ in visits)
            for layer, corner in visits:
                pocket[4 * k + layer - 1] = p.pockets[corner]
                data[4 * k + layer - 1] = local[data_ion_at[p.data_sites[corner]]]
        self.n_visits = sum(d >= 0 for d in data)
        faces = [p.face for p in plaquettes]
        # Face graphs as given: keys in dict order, each with its list, so
        # paths and sidestep candidates come out in the Python loop's order.
        graphs = [p.graph for p in plaquettes]
        adjacency = [adj for graph in graphs for adj in graph.values()]
        self.plaquettes = (
            np.array([local[measure_ions[f]] for f in faces], dtype=np.int64),
            np.array([p.home for p in plaquettes], dtype=np.int64),
            np.array([p.pauli != "Z" for p in plaquettes], dtype=np.int8),
            np.array([last_layer[f] for f in faces], dtype=np.int8),
            np.array(pocket, dtype=np.int64),
            np.array(data, dtype=np.int64),
            _ptr([len(p.pockets) for p in plaquettes]),
            np.fromiter(chain.from_iterable(p.pockets.values() for p in plaquettes), np.int64),
            _ptr([len(graph) for graph in graphs]),
            np.fromiter(chain.from_iterable(graphs), np.int64),
            _ptr([len(adj) for adj in adjacency]),
            np.fromiter(chain.from_iterable(adjacency), np.int64),
        )

    def pointers(self, grid: GridManager) -> list:
        """The kernel's arguments up to (not including) its output capacity."""
        return [
            grid.site_kinds().ctypes.data,
            grid.width,
            grid.height,
            grid.move_us,
            grid.junction_hop_us,
            _CODES.ctypes.data,
            self.durations.ctypes.data,
            len(self.ions),
            self.site.ctypes.data,
            self.ready.ctypes.data,
            self.since.ctypes.data,
            self.occupant.ctypes.data,
            *[h.ctypes.data for h in self.horizons],
            len(self.intervals[0]),
            *[a.ctypes.data for a in self.intervals],
            len(self.plaquettes[0]),
            *[a.ctypes.data for a in self.plaquettes],
            float(self.t_min),
            float(grid.t_horizon),
        ]


class _Outputs:
    """Buffers for one kernel call, and the commit of its results."""

    def __init__(self, cap: int, n_ions: int):
        self.rows = (
            np.empty(cap, dtype=np.int32),
            np.empty(cap, dtype=np.int64),
            np.empty(cap, dtype=np.int64),
            np.empty(cap, dtype=np.int8),
            np.empty(cap, dtype=np.float64),
            np.empty(cap, dtype=np.float64),
        )
        self.ions = (
            np.empty(n_ions, dtype=np.int64),
            np.empty(n_ions, dtype=np.float64),
            np.empty(n_ions, dtype=np.float64),
            np.empty(n_ions, dtype=np.int64),
        )
        self.events = (
            np.empty(2 * cap, dtype=np.int8),
            np.empty(2 * cap, dtype=np.int64),
            np.empty(2 * cap, dtype=np.float64),
            np.empty(2 * cap, dtype=np.float64),
        )
        self.stats = np.zeros(4, dtype=np.int64)
        self.times = np.zeros(2, dtype=np.float64)

    def pointers(self) -> list:
        arrays = (*self.rows, *self.ions, *self.events, self.stats, self.times)
        return [a.ctypes.data for a in arrays]

    def commit(
        self,
        grid: GridManager,
        circuit: HardwareCircuit,
        plaquettes: Sequence[Plaquette],
        args: _Inputs,
    ) -> RoundRecord:
        """Apply the round to ``circuit`` and ``grid`` as the Python loop would have."""
        n_rows, n_events, conflicts, delays = self.stats.tolist()
        t_horizon, t_end = self.times.tolist()

        # Each plaquette ends on its Y_-pi/4 and labelled Measure_Z rows.
        first = n_rows - 2 * len(plaquettes)
        fresh = circuit.new_measure_labels(len(plaquettes))
        labels = {first + 2 * k + 1: label for k, label in enumerate(fresh)}
        outcome = {p.face: label for p, label in zip(plaquettes, fresh)}
        circuit.append_rows(*[column[:n_rows].copy() for column in self.rows], labels)

        ions = args.ions
        site, ready, since, seq = self.ions
        grid._ion_ready.update(zip(ions, ready.tolist()))
        moved = np.flatnonzero(seq >= 0)
        if len(moved):
            # Re-key the moved ions' sites in the order of their last moves,
            # which is the order the Python loop's dict updates leave.
            moved = moved[np.argsort(seq[moved])].tolist()
            occupant, parked, site_of = grid._occupant, grid._occupied_since, grid._site_of
            for k in moved:
                del occupant[args.sites[k]]
                del parked[args.sites[k]]
            new_site, new_since = site.tolist(), since.tolist()
            for k in moved:
                ion, s = ions[k], new_site[k]
                occupant[s] = ion
                parked[s] = new_since[k]
                site_of[ion] = s

        # Each calendar keeps its intervals as one chunk per round.
        kinds, positions, starts, ends = (e[:n_events] for e in self.events)
        for kind, calendar in ((_SITE, grid._sites), (_JUNCTION, grid._junctions)):
            mine = kinds == kind
            calendar.add_chunk(positions[mine], starts[mine], ends[mine])

        grid.junction_conflicts += conflicts
        grid.site_delays += delays
        grid.t_horizon = t_horizon
        return RoundRecord(
            outcome_labels=outcome,
            t_start=args.t_min,
            t_end=t_end,
            junction_conflicts=conflicts,
            kernel="native",
        )
