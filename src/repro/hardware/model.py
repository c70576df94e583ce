"""Native trapped-ion gate set, timings, and gate compilation (paper §3.2).

The native set is specialized to surface-code compilation: Pauli-axis
rotations ``P_theta = exp(-i * theta * P)`` with ``P in {X, Y, Z}`` and
``theta in {pi/2, +/-pi/4, +/-pi/8}``, the Molmer-Sorensen-style entangler
``ZZ = (ZZ)_{pi/4} = exp(-i pi/4 Z (x) Z)``, state preparation, measurement,
and movement.  Durations are the literature-derived values of Table 5 / Fig 5.

``HardwareModel`` "compiles gates requested by LogicalQubit to the native
gate set and adds native gates to a time-resolved hardware circuit"
(paper App. B).  All composite decompositions below are verified as exact
unitaries (up to global phase) in ``tests/test_hardware_model.py``:

* ``H = Y_{pi/4} . Z_{pi/2}``  (apply Z-rotation first),
* ``CZ = (Z_{-pi/4} (x) Z_{-pi/4}) . ZZ_{pi/4}``  (up to global phase),
* ``CNOT(c,t) = (I (x) H) . CZ . (I (x) H)`` with the two adjacent Z-axis
  rotations on the target fused (``Z_{-pi/4} . Z_{pi/2} = Z_{pi/4}``).
"""

from __future__ import annotations

import warnings

from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.hardware.profile import DEFAULT_PROFILE

__all__ = ["GATE_TIMES_US", "HardwareModel", "NATIVE_GATES", "SINGLE_QUBIT_GATES"]


class _GateTimeTable(dict):
    """Read-mostly view of the default profile's gate-time table.

    Mutation still works (legacy scripts monkey-patch timings) but warns
    once per call site: edits here are invisible to profile fingerprints,
    so cached results would silently go stale.  Define a
    :class:`~repro.hardware.profile.HardwareProfile` instead.
    """

    _WARNING = (
        "mutating GATE_TIMES_US is deprecated; define a HardwareProfile "
        "(repro.hardware.profile) so caches and sweeps see the change"
    )

    def _warn(self) -> None:
        warnings.warn(self._WARNING, DeprecationWarning, stacklevel=3)

    def __setitem__(self, key, value):
        self._warn()
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._warn()
        super().__delitem__(key)

    def update(self, *args, **kwargs):
        self._warn()
        super().update(*args, **kwargs)

    def pop(self, *args):
        self._warn()
        return super().pop(*args)

    def popitem(self):
        self._warn()
        return super().popitem()

    def clear(self):
        self._warn()
        super().clear()

    def setdefault(self, key, default=None):
        if key not in self:
            self._warn()
        return super().setdefault(key, default)


#: Native operation durations in microseconds — paper Table 5 / Fig 5.
#: A view of :data:`~repro.hardware.profile.DEFAULT_PROFILE`; per-scenario
#: tables live on ``HardwareProfile.gate_times`` (mutating this one warns).
GATE_TIMES_US: dict[str, float] = _GateTimeTable(DEFAULT_PROFILE.gate_times)

#: Names that may appear in compiled circuit output.
NATIVE_GATES = frozenset(GATE_TIMES_US) - {"Junction"}

#: Native gates acting as single-qubit unitaries (shared with the noise model).
SINGLE_QUBIT_GATES = frozenset(
    n for n in NATIVE_GATES if n not in {"ZZ", "Move", "Prepare_Z", "Measure_Z"}
)


class HardwareModel:
    """Compiles requested gates into timed native instructions on a grid.

    All methods schedule through the :class:`GridManager` so that ion clocks,
    site calendars, and junction conflicts are accounted for.  Methods return
    ``(t_start, t_end)`` of the emitted sequence.
    """

    def __init__(self, grid: GridManager):
        self.grid = grid
        self.profile = grid.profile
        self._times = self.profile.gate_times

    # ----------------------------------------------------------- primitives
    def duration(self, name: str) -> float:
        try:
            return self._times[name]
        except KeyError:
            raise ValueError(f"unknown native operation {name!r}") from None

    def native1(
        self,
        circuit: HardwareCircuit,
        name: str,
        ion: int,
        t_min: float = 0.0,
        label: str | None = None,
    ) -> tuple[float, float]:
        if name not in self._times or name in {"ZZ", "Move", "Junction"}:
            raise ValueError(f"{name!r} is not a single-site native operation")
        return self.grid.schedule_gate1(circuit, name, ion, self.duration(name), t_min, label)

    def _seq1(
        self, circuit: HardwareCircuit, names: list[str], ion: int, t_min: float
    ) -> tuple[float, float]:
        t0 = None
        t1 = t_min
        for name in names:
            a, t1 = self.native1(circuit, name, ion, t_min)
            t0 = a if t0 is None else t0
        return (t0 if t0 is not None else t_min, t1)

    # ------------------------------------------------------- prep / measure
    def prepare_z(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        """Reset to |0>."""
        return self.native1(circuit, "Prepare_Z", ion, t_min)

    def prepare_x(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        """Prepare |+> = Y_{pi/4} |0>."""
        return self._seq1(circuit, ["Prepare_Z", "Y_pi/4"], ion, t_min)

    def prepare_y(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        """Prepare |+i> = X_{-pi/4} |0>."""
        return self._seq1(circuit, ["Prepare_Z", "X_-pi/4"], ion, t_min)

    def measure_z(self, circuit, ion, t_min=0.0) -> tuple[tuple[float, float], str]:
        label = circuit.new_measure_label()
        span = self.native1(circuit, "Measure_Z", ion, t_min, label=label)
        return span, label

    def measure_x(self, circuit, ion, t_min=0.0) -> tuple[tuple[float, float], str]:
        """Measure X: rotate X->Z with Y_{-pi/4}, then Measure_Z."""
        t0, _ = self.native1(circuit, "Y_-pi/4", ion, t_min)
        (_, t1), label = self.measure_z(circuit, ion)
        return (t0, t1), label

    def measure_y(self, circuit, ion, t_min=0.0) -> tuple[tuple[float, float], str]:
        """Measure Y: rotate Y->Z with X_{pi/4}, then Measure_Z."""
        t0, _ = self.native1(circuit, "X_pi/4", ion, t_min)
        (_, t1), label = self.measure_z(circuit, ion)
        return (t0, t1), label

    # ------------------------------------------------------------ 1q gates
    def pauli_x(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        """Pauli X up to global phase: X_{pi/2} = -iX."""
        return self.native1(circuit, "X_pi/2", ion, t_min)

    def pauli_y(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        return self.native1(circuit, "Y_pi/2", ion, t_min)

    def pauli_z(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        return self.native1(circuit, "Z_pi/2", ion, t_min)

    def hadamard(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        """H = Y_{pi/4} . Z_{pi/2} up to global phase (Z applied first)."""
        return self._seq1(circuit, ["Z_pi/2", "Y_pi/4"], ion, t_min)

    def s_gate(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        """S = diag(1, i) up to phase: Z_{pi/4}."""
        return self.native1(circuit, "Z_pi/4", ion, t_min)

    def t_gate(self, circuit, ion, t_min=0.0) -> tuple[float, float]:
        """T = diag(1, e^{i pi/4}) up to phase: Z_{pi/8} (non-Clifford)."""
        return self.native1(circuit, "Z_pi/8", ion, t_min)

    # ------------------------------------------------------------ 2q gates
    def zz(self, circuit, ion_a, ion_b, t_min=0.0) -> tuple[float, float]:
        """Native entangler (ZZ)_{pi/4} between adjacent-zone ions."""
        return self.grid.schedule_gate2(circuit, "ZZ", ion_a, ion_b, self.duration("ZZ"), t_min)

    def cz(self, circuit, ion_a, ion_b, t_min=0.0) -> tuple[float, float]:
        """CZ = (Z_{-pi/4} (x) Z_{-pi/4}) . ZZ_{pi/4}, up to global phase."""
        t0, _ = self.zz(circuit, ion_a, ion_b, t_min)
        self.native1(circuit, "Z_-pi/4", ion_a)
        _, t1 = self.native1(circuit, "Z_-pi/4", ion_b)
        # The two trailing Z rotations act on different ions in parallel.
        t1 = max(self.grid.ion_ready(ion_a), self.grid.ion_ready(ion_b))
        return (t0, t1)

    def cnot(self, circuit, control, target, t_min=0.0) -> tuple[float, float]:
        """CNOT via one ZZ: (I (x) H) CZ (I (x) H) with fused Z rotations."""
        t0, _ = self._seq1(circuit, ["Z_pi/2", "Y_pi/4"], target, t_min)
        self.zz(circuit, control, target)
        self.native1(circuit, "Z_-pi/4", control)
        self._seq1(circuit, ["Z_pi/4", "Y_pi/4"], target, 0.0)
        t1 = max(self.grid.ion_ready(control), self.grid.ion_ready(target))
        return (t0, t1)
