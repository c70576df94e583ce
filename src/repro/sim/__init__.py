"""Quasi-Clifford simulation of TISCC hardware circuits (ORQCS substitute).

The paper verifies compiled circuits with the Oak Ridge Quasi-Clifford
Simulator (ORQCS, §4): a parser and hardware model that interprets TISCC
circuits — gates acting on qsites of the trapped-ion grid — as unitaries on
a quantum state, returning Pauli-string expectation values, simulated
measurement outcomes, and per-layer stabilizer generators.  ORQCS is not
public, so this package re-implements the same interface:

* :mod:`repro.sim.tableau` — vectorized Aaronson-Gottesman stabilizer tableau;
* :mod:`repro.sim.packed` — the same tableau bit-packed 64 qubits per
  ``uint64`` word with a leading batch axis, evolving a whole batch of
  shots at once (the high-throughput backend);
* :mod:`repro.sim.dense` — exact statevector reference for small systems;
* :mod:`repro.sim.gates` — the native-gate semantics shared by the backends;
* :mod:`repro.sim.parser` — text-format circuit parser;
* :mod:`repro.sim.interpreter` — resolves a circuit's ion movement and
  idle gaps once (``replay_stream``, read by every replay engine) and
  replays circuits one shot at a time;
* :mod:`repro.sim.batch` — the batched shot engine: replays one compiled
  circuit across all shots in single vectorized passes, returning per-shot
  outcome bitmaps, determinism flags, and quasi-probability weights;
* :mod:`repro.sim.quasi` — quasi-probability Monte Carlo over Clifford
  channels for the non-Clifford ``Z_pi/8`` gate (§4.1);
* :mod:`repro.sim.dem` — detector-error-model extraction: one walk of a
  compiled circuit (a native backward pass of detector sensitivity, or the
  Python Pauli-frame walk without a C compiler) folds a noise model into
  deduplicated error mechanisms (probability, detector footprint,
  observable mask);
* :mod:`repro.sim.frame` — the tableau-free fast sampling path: detection
  events and logical flips drawn straight from a DEM as bit-packed XORs
  over sampled mechanisms.

The three state backends are interchangeable and cross-validated: random
Clifford circuits drive :class:`StabilizerTableau`, :class:`PackedTableau`,
and :class:`DenseSimulator` through identical trajectories (forced
measurement outcomes) and must agree on stabilizer generators, outcomes,
determinism flags, and expectation values; ``PackedTableau`` additionally
round-trips losslessly through ``from_tableau``/``to_tableau``.  For bulk
sampling (quasi-probability T-gate estimates, logical-error statistics) use
:meth:`repro.core.compiler.TISCC.simulate_shots` or
:class:`~repro.sim.batch.BatchRunner` directly — orders of magnitude more
shots/second than looping :class:`CircuitInterpreter`.
"""

from repro.sim.tableau import StabilizerTableau
from repro.sim.packed import PackedTableau, apply_packed, pack_bits, unpack_bits
from repro.sim.dense import DenseSimulator
from repro.sim.parser import parse_circuit
from repro.sim.interpreter import CircuitInterpreter, RunResult
from repro.sim.batch import BatchRunner, BatchResult, PauliInjection, per_shot_seed
from repro.sim.quasi import QuasiCliffordSampler, channel_decomposition
from repro.sim.dem import (
    DemExtractionError,
    DetectorErrorModel,
    FaultSite,
    FaultTable,
    build_dem,
    dem_structure_key,
    extract_dem,
    extract_fault_table,
)
from repro.sim.frame import FrameSampler, FrameSamples

__all__ = [
    "StabilizerTableau",
    "PackedTableau",
    "apply_packed",
    "pack_bits",
    "unpack_bits",
    "DenseSimulator",
    "parse_circuit",
    "CircuitInterpreter",
    "RunResult",
    "BatchRunner",
    "BatchResult",
    "PauliInjection",
    "per_shot_seed",
    "QuasiCliffordSampler",
    "channel_decomposition",
    "DemExtractionError",
    "DetectorErrorModel",
    "FaultSite",
    "FaultTable",
    "build_dem",
    "dem_structure_key",
    "extract_dem",
    "extract_fault_table",
    "FrameSampler",
    "FrameSamples",
]
