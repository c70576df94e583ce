"""Replays TISCC hardware circuits on a quantum-state backend.

The hardware-model half of the ORQCS substitute (§4): instructions act on
*qsites* of the trapped-ion grid, so a replay has to know which ion sits
where at every point in time (Load and Move change the occupancy) and
resolve each gate's qsites to the ions — and hence tableau qubits — they
hold.  :func:`replay_stream` is the one place that decides this, and the
idle gaps between a qubit's operations, in a single pass over the sorted
stream; the single-shot interpreter here, the batched sampler
(:mod:`repro.sim.batch`) and the Python DEM-extraction walk
(:mod:`repro.sim.dem`) read its :class:`ReplayStream` and track no ions
themselves: to them a Load or Move changes no quantum state.  The native
DEM walk reads the same stream as its kernel resolves it
(``dem_resolve`` in ``_dem_kernel.c``), bit for bit with this pass, which
stays its oracle and raises its errors.

Non-Clifford ``Z_pi/8`` gates are replaced per-shot by one Clifford sampled
from the quasi-probability decomposition of the T-gate channel, with the
shot weight adjusted (§4.1); see :mod:`repro.sim.quasi`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.code.pauli import PauliString
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.sim.gates import NON_CLIFFORD_GATES, apply_to_tableau
from repro.sim.quasi import QuasiCliffordSampler
from repro.sim.tableau import StabilizerTableau

__all__ = ["CircuitInterpreter", "ReplayStream", "RunResult", "replay_stream"]

#: Pseudo-instructions that only relocate ions: :func:`replay_stream`
#: applies them, so no replay engine changes quantum state for them.
RELOCATIONS = frozenset({"Load", "Move"})


@dataclass
class ReplayStream:
    """A circuit's sorted stream resolved against the hardware model.

    ``qubits[row]`` holds the tableau qubits sorted row ``row`` acts on
    (none for a Load; the moving ion's for a Move).  ``idle[row]`` lists
    the idle gaps that row closes as ``(qubit, start - busy_end,
    predecessor row)``, where the predecessor is the row that last made
    the qubit busy (``-1`` before any).  ``occupancy`` (qsite -> ion) and
    ``ion_index`` (ion -> tableau qubit) are the end-of-circuit maps, and
    ``n_qubits`` the tableau size.
    """

    qubits: list[tuple[int, ...]]
    idle: list[tuple[tuple[int, float, int], ...]]
    occupancy: dict[int, int]
    ion_index: dict[int, int]
    n_qubits: int


def replay_stream(
    circuit: HardwareCircuit,
    occupancy: dict[int, int],
    ion_index: dict[int, int] | None = None,
    n_qubits: int | None = None,
) -> ReplayStream:
    """Resolve every row of ``circuit.sorted_columns()`` in one pass.

    Starts from a qsite -> ion ``occupancy``.  By default the ``k``-th ion
    in id order gets tableau qubit ``k``, and the tableau reserves one more
    slot per Load; ``ion_index``/``n_qubits`` instead continue a previous
    replay from its end-of-circuit map and tableau size.  Raises
    ``ValueError`` for two sites holding one ion, a gate on an empty
    qsite, a Load onto an occupied qsite or past the tableau's slots, and
    a Move into an occupied qsite.

    A qubit's idle gap is ``start - busy_end`` in the circuit's own float
    arithmetic (no rounding, no epsilon), recorded when positive: the
    compacted times of a SIMD schedule or the tiled times of a replayed
    round, never a nominal schedule.  The DEM extractor's bit-identity
    guarantees depend on this.
    """
    ions = sorted(set(occupancy.values()))
    if len(ions) != len(occupancy):
        raise ValueError("occupancy maps two sites to one ion")
    occupancy = dict(occupancy)
    if ion_index is None:
        ion_index = {ion: k for k, ion in enumerate(ions)}
    else:
        ion_index = dict(ion_index)
    if n_qubits is None:
        n_qubits = max(1, len(ions) + circuit.count("Load"))

    cols = circuit.sorted_columns()
    names, sites_of = cols.names, cols.sites
    starts = cols.t.tolist()
    ends = cols.t_end.tolist()
    busy_end = [0.0] * n_qubits
    busy_row = [-1] * n_qubits
    qubits_of: list[tuple[int, ...]] = []
    idle_of: list[tuple[tuple[int, float, int], ...]] = []
    # Rows share their qubit tuples: a circuit drives a few hundred distinct
    # qubit sets, and one new tuple per row costs an extra full GC pass in a
    # long extraction.
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for row in range(cols.n):
        name = names[row]
        sites = sites_of[row]
        if name == "Load":
            site = sites[0]
            if site in occupancy:
                raise ValueError(f"Load onto occupied qsite {site}")
            ion = max(ion_index) + 1 if ion_index else 0
            ion_index[ion] = len(ion_index)
            if ion_index[ion] >= n_qubits:
                raise ValueError("more Load instructions than tableau slots")
            occupancy[site] = ion
            qubits_of.append(())
            idle_of.append(())
            continue

        qubits = []
        for site in sites[:1] if name == "Move" else sites:
            ion = occupancy.get(site)
            if ion is None:
                text = " ".join([name, *map(str, sites)])
                raise ValueError(f"instruction {text!r} targets empty qsite {site}")
            qubits.append(ion_index[ion])
        if name == "Move":
            src, dst = sites
            if dst in occupancy:
                raise ValueError(f"move into occupied qsite {dst}")
            occupancy[dst] = occupancy.pop(src)

        start = starts[row]
        gaps = []
        for q in qubits:
            gap = start - busy_end[q]
            if gap > 0:
                gaps.append((q, gap, busy_row[q]))
        end = ends[row]
        for q in qubits:
            busy_end[q] = end
            busy_row[q] = row
        qubits = tuple(qubits)
        qubits_of.append(shared.setdefault(qubits, qubits))
        idle_of.append(tuple(gaps))

    return ReplayStream(qubits_of, idle_of, occupancy, ion_index, n_qubits)


@dataclass
class RunResult:
    """Outcome of replaying one circuit (one Monte-Carlo shot).

    ``tableau`` holds the final state; ``ion_index`` maps ion id -> tableau
    qubit; ``occupancy`` maps qsite -> ion at the end of the circuit.
    ``weight`` is the quasi-probability shot weight (1.0 for pure Clifford
    circuits).  ``outcomes`` maps measurement labels to 0/1 and
    ``deterministic`` records which of those were forced by the state.
    """

    tableau: StabilizerTableau
    ion_index: dict[int, int]
    occupancy: dict[int, int]
    outcomes: dict[str, int] = field(default_factory=dict)
    deterministic: dict[str, bool] = field(default_factory=dict)
    weight: float = 1.0
    generator_snapshots: list[tuple[float, list[PauliString]]] = field(default_factory=list)

    def qubit_of_site(self, site: int) -> int:
        """Tableau qubit currently held at a qsite."""
        ion = self.occupancy.get(site)
        if ion is None:
            raise KeyError(f"no ion at qsite {site} at end of circuit")
        return self.ion_index[ion]

    def expectation(self, pauli_over_sites: PauliString) -> int:
        """<P> for a Pauli string keyed by qsites (end-of-circuit occupancy)."""
        index_of = {
            site: self.qubit_of_site(site) for site in pauli_over_sites.support
        }
        return self.tableau.expectation(pauli_over_sites, index_of)

    def expectation_over_ions(self, pauli_over_ions: PauliString) -> int:
        index_of = {ion: self.ion_index[ion] for ion in pauli_over_ions.support}
        return self.tableau.expectation(pauli_over_ions, index_of)

    def sign(self, label: str) -> int:
        """Measurement outcome as a +/-1 eigenvalue sign."""
        return 1 - 2 * self.outcomes[label]


class CircuitInterpreter:
    """Executes hardware circuits against a stabilizer tableau.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts — an int,
    ``None``, or a ``SeedSequence``.  To reproduce shot ``k`` of a batched
    :class:`~repro.sim.batch.BatchRunner` run, seed with
    :func:`repro.sim.batch.per_shot_seed(seed, k) <repro.sim.batch.per_shot_seed>`.
    """

    def __init__(
        self,
        grid: GridManager,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ):
        self.grid = grid
        self.rng = np.random.default_rng(seed)
        self.sampler = QuasiCliffordSampler()

    def run(
        self,
        circuit: HardwareCircuit,
        initial_occupancy: dict[int, int],
        forced_outcomes: dict[str, int] | None = None,
        snapshot_times: list[float] | None = None,
        initial_state: RunResult | None = None,
    ) -> RunResult:
        """Replay ``circuit`` from a site -> ion occupancy map.

        ``forced_outcomes`` pins specific measurement labels (for branch
        verification); ``snapshot_times`` records stabilizer generators right
        after the last instruction starting at-or-before each time (the §4.3
        layer-by-layer check).  ``initial_state`` continues from a previous
        run's tableau (occupancy is taken from it).
        """
        forced = forced_outcomes or {}
        if initial_state is not None:
            stream = replay_stream(
                circuit,
                initial_state.occupancy,
                initial_state.ion_index,
                initial_state.tableau.n,
            )
            tableau = initial_state.tableau.copy()
            weight = initial_state.weight
            outcomes = dict(initial_state.outcomes)
            deterministic = dict(initial_state.deterministic)
        else:
            stream = replay_stream(circuit, initial_occupancy)
            tableau = StabilizerTableau(stream.n_qubits)
            weight = 1.0
            outcomes = {}
            deterministic = {}

        snaps: list[tuple[float, list[PauliString]]] = []
        pending = sorted(snapshot_times or [])

        cols = circuit.sorted_columns()
        names, labels = cols.names, cols.labels
        starts = cols.t.tolist()
        n_rows = cols.n
        qubits_of = stream.qubits
        for idx in range(n_rows):
            name = names[idx]
            qubits = qubits_of[idx]

            if name in RELOCATIONS:
                pass
            elif name == "Prepare_Z":
                tableau.reset(qubits[0], self.rng)
            elif name == "Measure_Z":
                label = labels.get(idx) or f"m?{idx}"
                outcome, det = tableau.measure(
                    qubits[0], self.rng, forced.get(label)
                )
                outcomes[label] = outcome
                deterministic[label] = det
            elif name in NON_CLIFFORD_GATES:
                gate, w = self.sampler.sample(name, self.rng)
                weight *= w
                if gate is not None:
                    apply_to_tableau(tableau, gate, qubits)
            else:
                apply_to_tableau(tableau, name, qubits)

            while pending and (idx + 1 == n_rows or starts[idx + 1] > pending[0]):
                snaps.append((pending.pop(0), tableau.stabilizer_generators()))

        result = RunResult(
            tableau=tableau,
            ion_index=stream.ion_index,
            occupancy=stream.occupancy,
            outcomes=outcomes,
            deterministic=deterministic,
            weight=weight,
            generator_snapshots=snaps,
        )
        return result
