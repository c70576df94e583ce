"""LogicalQubit: a surface-code patch and its primitive operations (Table 2).

"LogicalQubit: Constructed by requesting Plaquettes from the GridManager.
Provides functions to compile the patch-level operations ... Manages its
Plaquettes, parity check matrix, and logical operators by updating them when
necessary and testing validity." (paper App. B)

The class owns

* the patch geometry (:class:`~repro.code.patch_layout.PatchLayout`) and its
  resolved plaquettes,
* the explicit stabilizer generator list (kept as Pauli strings; during
  corner movements it deviates from the canonical layout),
* the default-edge logical operators with their *sign-correction ledgers*:
  measurement labels whose outcome signs multiply the raw expectation value
  of the current operator representative (§4.5 post-processing), and
* the data/measure ion registries on the grid.

Primitives implemented here: transversal Prepare/Measure/Hadamard, Inject
Y/T, Pauli X/Y/Z, and Idle (Table 2).  Merge/Split live in
:mod:`repro.code.patch_ops`, corner movement in :mod:`repro.code.corner`,
and Move Right / Swap Left in :mod:`repro.code.translation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.code.arrangements import Arrangement
from repro.code.patch_layout import PatchLayout
from repro.code.pauli import PauliString
from repro.code.plaquette import Plaquette
from repro.code.stabilizer_circuits import RoundRecord, SyndromeScheduler
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.hardware.model import HardwareModel
from repro.util.gf2 import gf2_in_rowspace, gf2_rank

__all__ = ["LogicalQubit", "TrackedOperator"]

_ROTATION_FOR = {"X": "X_pi/2", "Y": "Y_pi/2", "Z": "Z_pi/2"}


@dataclass
class TrackedOperator:
    """A logical operator representative plus its outcome-sign ledger.

    ``pauli`` is the current Pauli-string representative over data qsites;
    ``corrections`` lists measurement labels whose +/-1 outcome signs must
    multiply the raw simulated expectation of ``pauli`` to recover the value
    of the *original* logical operator (§4.5: operator deformation/movement
    tracking for classical post-processing).
    """

    pauli: PauliString
    corrections: list[str] = field(default_factory=list)

    def multiplied_by(self, stab: PauliString, label: str | None = None) -> "TrackedOperator":
        new = self.pauli * stab
        if new.phase % 2 != 0:
            raise ValueError("logical operator update lost hermiticity")
        corr = list(self.corrections)
        if label is not None:
            corr.append(label)
        return TrackedOperator(new, corr)


def _symplectic(paulis: list[PauliString], site_order: list[int]) -> np.ndarray:
    """Stack Pauli strings as GF(2) symplectic rows [x-part | z-part]."""
    idx = {s: k for k, s in enumerate(site_order)}
    n = len(site_order)
    mat = np.zeros((len(paulis), 2 * n), dtype=np.uint8)
    for r, p in enumerate(paulis):
        for site, letter in p.ops.items():
            k = idx[site]
            if letter in ("X", "Y"):
                mat[r, k] = 1
            if letter in ("Z", "Y"):
                mat[r, n + k] = 1
    return mat


class LogicalQubit:
    """One surface-code patch with dx columns and dz rows of data qubits."""

    def __init__(
        self,
        grid: GridManager,
        model: HardwareModel,
        dx: int,
        dz: int,
        origin: tuple[int, int] = (0, 0),
        arrangement: Arrangement = Arrangement.STANDARD,
        name: str = "q",
        place_ions: bool = True,
    ):
        self.grid = grid
        self.model = model
        self.name = name
        self.scheduler = SyndromeScheduler(grid, model)
        self.layout = PatchLayout(grid, dx, dz, origin, arrangement)
        self.plaquettes: tuple[Plaquette, ...] = self.layout.plaquettes()
        self.stabilizers: list[PauliString] = [p.stabilizer() for p in self.plaquettes]

        self.logical_x = TrackedOperator(self.layout.logical_x())
        self.logical_z = TrackedOperator(self.layout.logical_z())
        #: Deformation log: (description, old pauli, new pauli) tuples (§4.5).
        self.deformation_log: list[tuple[str, PauliString, PauliString]] = []

        self.data_ions: dict[tuple[int, int], int] = {}
        self.measure_ions: dict[tuple[int, int], int] = {}
        self.initialized = False
        self.round_records: list[RoundRecord] = []

        if place_ions:
            self.place_ions()

    # -------------------------------------------------------------- plumbing
    @property
    def dx(self) -> int:
        return self.layout.dx

    @property
    def dz(self) -> int:
        return self.layout.dz

    @property
    def arrangement(self) -> Arrangement:
        return self.layout.arrangement

    @property
    def dt(self) -> int:
        """Default rounds per logical time-step: max(dx, dz)."""
        return max(self.dx, self.dz)

    def place_ions(self) -> None:
        """Park data ions on data sites and measure ions at face homes."""
        if self.data_ions:
            raise RuntimeError("ions already placed")
        for (i, j), site in self.layout.data_sites().items():
            existing = self.grid.ion_at(site)
            self.data_ions[(i, j)] = (
                existing
                if existing is not None
                else self.grid.add_ion(site, f"{self.name}:d{i},{j}")
            )
        for plaq in self.plaquettes:
            existing = self.grid.ion_at(plaq.home)
            self.measure_ions[plaq.face] = (
                existing
                if existing is not None
                else self.grid.add_ion(plaq.home, f"{self.name}:m{plaq.face}")
            )

    def data_ion_at(self) -> dict[int, int]:
        """data qsite -> ion, for the syndrome scheduler."""
        return {
            self.layout.data_site(i, j): ion for (i, j), ion in self.data_ions.items()
        }

    def data_sites_present(self) -> list[int]:
        """Sorted qsites of data qubits currently part of the patch."""
        return sorted(self.layout.data_site(i, j) for (i, j) in self.data_ions)

    def all_ions(self) -> list[int]:
        return sorted(set(self.data_ions.values()) | set(self.measure_ions.values()))

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Parity-check validity: commutation, rank, logical independence."""
        sites = self.data_sites_present()
        n = len(sites)
        for i, s1 in enumerate(self.stabilizers):
            for s2 in self.stabilizers[i + 1 :]:
                if not s1.commutes_with(s2):
                    raise AssertionError(f"stabilizers anticommute: {s1} vs {s2}")
        lx, lz = self.logical_x.pauli, self.logical_z.pauli
        for s in self.stabilizers:
            if not s.commutes_with(lx) or not s.commutes_with(lz):
                raise AssertionError(f"logical operator anticommutes with {s}")
        if lx.commutes_with(lz):
            raise AssertionError("logical X and Z must anticommute")
        mat = _symplectic(self.stabilizers, sites)
        rank = gf2_rank(mat)
        if rank != n - 1:
            raise AssertionError(f"stabilizer rank {rank} != n_data - 1 = {n - 1}")
        for label, op in (("X", lx), ("Z", lz)):
            row = _symplectic([op], sites)[0]
            if gf2_in_rowspace(mat, row):
                raise AssertionError(f"logical {label} lies in the stabilizer group")

    def parity_check_matrix(self) -> np.ndarray:
        return _symplectic(self.stabilizers, self.data_sites_present())

    # -------------------------------------------------- Table 2: transversal
    def transversal_prepare(self, circuit: HardwareCircuit, basis: str = "Z") -> None:
        """Prepare every data qubit in |0> (basis Z) or |+> (basis X); 0 steps."""
        prep = self.model.prepare_z if basis == "Z" else self.model.prepare_x
        if basis not in ("Z", "X"):
            raise ValueError("transversal preparation basis must be 'Z' or 'X'")
        for ion in self.data_ions.values():
            prep(circuit, ion)

    def transversal_measure(
        self, circuit: HardwareCircuit, basis: str = "Z"
    ) -> dict[tuple[int, int], str]:
        """Measure every data qubit in the X/Z basis; tile becomes uninitialized."""
        if basis not in ("Z", "X"):
            raise ValueError("transversal measurement basis must be 'Z' or 'X'")
        measure = self.model.measure_z if basis == "Z" else self.model.measure_x
        labels = {}
        for ij, ion in sorted(self.data_ions.items()):
            _, label = measure(circuit, ion)
            labels[ij] = label
        self.initialized = False
        return labels

    def transversal_hadamard(self, circuit: HardwareCircuit) -> None:
        """Transversal H; swaps X/Z roles, leaving the rotated arrangement (fn 4)."""
        for ion in self.data_ions.values():
            self.model.hadamard(circuit, ion)
        self._set_arrangement(self.arrangement.after_transversal_hadamard())
        # Per-qubit H maps the X-string <-> Z-string representatives in place.
        old_x, old_z = self.logical_x, self.logical_z
        self.logical_x = TrackedOperator(
            PauliString({s: "X" for s in old_z.pauli.ops}), old_z.corrections
        )
        self.logical_z = TrackedOperator(
            PauliString({s: "Z" for s in old_x.pauli.ops}), old_x.corrections
        )

    def _set_arrangement(self, arrangement: Arrangement) -> None:
        """Rebuild layout/plaquettes; measure-ion homes are position-invariant."""
        self.layout = PatchLayout(
            self.grid, self.dx, self.dz, self.layout.origin, arrangement
        )
        old_faces = set(self.measure_ions)
        self.plaquettes = self.layout.plaquettes()
        new_faces = {p.face for p in self.plaquettes}
        if old_faces != new_faces:
            raise RuntimeError(
                "arrangement change moved plaquette positions; "
                "measure ions must be re-homed explicitly"
            )
        self.stabilizers = [p.stabilizer() for p in self.plaquettes]

    # ------------------------------------------------------ Table 2: paulis
    def apply_pauli(self, circuit: HardwareCircuit, which: str) -> None:
        """Apply logical X/Y/Z via physical pi/2 rotations on the support."""
        if which in ("X", "Z"):
            op = (self.logical_x if which == "X" else self.logical_z).pauli
        elif which == "Y":
            op = (self.logical_x.pauli * self.logical_z.pauli).times_i()
            if op.phase % 2 != 0:
                raise AssertionError("logical Y is not Hermitian")
        else:
            raise ValueError("which must be 'X', 'Y' or 'Z'")
        for site, letter in sorted(op.ops.items()):
            ion = self.grid.ion_at(site)
            if ion is None:
                raise RuntimeError(f"no ion at data site {site}")
            self.model.native1(circuit, _ROTATION_FOR[letter], ion)

    def logical_y(self) -> TrackedOperator:
        op = (self.logical_x.pauli * self.logical_z.pauli).times_i()
        return TrackedOperator(op, self.logical_x.corrections + self.logical_z.corrections)

    # ------------------------------------------------------- Table 2: idle
    def idle(
        self, circuit: HardwareCircuit, rounds: int | None = None, t_min: float | None = None
    ) -> list[RoundRecord]:
        """``rounds`` (default dt) rounds of error correction; 1 logical step."""
        rounds = self.dt if rounds is None else rounds
        t = self.grid.now if t_min is None else t_min
        records = self.scheduler.schedule_rounds(
            circuit,
            self.plaquettes,
            self.measure_ions,
            self.data_ion_at(),
            rounds,
            t_min=t,
        )
        self.round_records.extend(records)
        return records

    # --------------------------------------------------- Table 2: prepare
    def prepare(
        self, circuit: HardwareCircuit, basis: str = "Z", rounds: int | None = None
    ) -> list[RoundRecord]:
        """Fault-tolerant Prepare Z/X: transversal prep then one logical step."""
        self.transversal_prepare(circuit, basis)
        self.initialized = True
        self.logical_x = TrackedOperator(self.layout.logical_x())
        self.logical_z = TrackedOperator(self.layout.logical_z())
        return self.idle(circuit, rounds)

    # ----------------------------------------------------- Table 2: inject
    def inject_state(
        self, circuit: HardwareCircuit, which: str, rounds: int = 1
    ) -> list[RoundRecord]:
        """Inject Y/T non-fault-tolerantly (Table 1: 0 logical time-steps).

        The corner (0,0) data qubit is prepared in |+i> (Y) or |T> = T|+>
        (T, the single non-Clifford gate of §4.1); the rest of column 0 is
        prepared in the vertical logical's basis and all remaining qubits in
        the horizontal logical's basis, then one round of syndrome
        extraction projects into the code space with the encoded state.
        """
        if which not in ("Y", "T"):
            raise ValueError("inject_state supports 'Y' or 'T'")
        v_basis = self.layout.arrangement.vertical_letter
        h_basis = self.layout.arrangement.horizontal_letter
        for (i, j), ion in sorted(self.data_ions.items()):
            if (i, j) == (0, 0):
                if which == "Y":
                    self.model.prepare_y(circuit, ion)
                else:
                    self.model.prepare_x(circuit, ion)
                    self.model.t_gate(circuit, ion)
            elif j == 0:
                (self.model.prepare_z if v_basis == "Z" else self.model.prepare_x)(
                    circuit, ion
                )
            else:
                (self.model.prepare_z if h_basis == "Z" else self.model.prepare_x)(
                    circuit, ion
                )
        self.initialized = True
        self.logical_x = TrackedOperator(self.layout.logical_x())
        self.logical_z = TrackedOperator(self.layout.logical_z())
        return self.idle(circuit, rounds)

    # ------------------------------------------------------------- mutation
    def measure_out_data_qubit(
        self,
        circuit: HardwareCircuit,
        ij: tuple[int, int],
        basis: str,
    ) -> str:
        """Measure one data qubit out of the patch (corner removal, §2.5).

        Gauge-fixes the stabilizer set: generators anticommuting with the
        measured single-qubit operator are pairwise multiplied so only one
        remains, which is dropped; logical operators are repaired with that
        generator and, if supported on the qubit, reduced by the measured
        operator with the outcome label pushed onto their ledger.
        """
        site = self.layout.data_site(*ij)
        meas_op = PauliString({site: basis})
        anti = [s for s in self.stabilizers if not s.commutes_with(meas_op)]
        keep = [s for s in self.stabilizers if s.commutes_with(meas_op)]
        removed: PauliString | None = None
        if anti:
            removed = anti[0]
            keep.extend(anti[0] * other for other in anti[1:])
        self.stabilizers = keep

        ion = self.data_ions.pop(ij)
        measure = {"Z": self.model.measure_z, "X": self.model.measure_x, "Y": self.model.measure_y}
        _, label = measure[basis](circuit, ion)

        for attr in ("logical_x", "logical_z"):
            op: TrackedOperator = getattr(self, attr)
            if not op.pauli.commutes_with(meas_op):
                if removed is None:
                    raise RuntimeError(
                        f"{attr} anticommutes with measured {basis}({ij}) and no "
                        "stabilizer can repair it — invalid deformation"
                    )
                repaired = op.multiplied_by(removed)
                self.deformation_log.append((f"repair {attr}", op.pauli, repaired.pauli))
                setattr(self, attr, repaired)
                op = repaired
            if site in op.pauli.support:
                # Factor the measured operator out: L = B_site * L'.
                reduced = op.multiplied_by(meas_op, label)
                self.deformation_log.append((f"reduce {attr}", op.pauli, reduced.pauli))
                setattr(self, attr, reduced)
        return label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LogicalQubit {self.name} dx={self.dx} dz={self.dz} "
            f"{self.arrangement.name} init={self.initialized}>"
        )
