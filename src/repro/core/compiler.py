"""Top-level TISCC compiler facade (paper App. B usage pattern).

"To use TISCC, one typically initializes the GridManager with the size of
the hardware grid.  Then, LogicalQubit(s) are added.  Finally, primitive
operations from Table 2 are appended using the appropriate LogicalQubit
methods.  Lastly, validity of the hardware circuit is enforced through the
GridManager and the circuit and/or final resource counts are printed."

:class:`TISCC` wraps that flow at the tile level: allocate a tile grid,
execute Table 1/Table 3 instructions by name, and collect the time-resolved
circuit, validity report, resource estimate, and (optionally) a simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.code.stabilizer_circuits import round_kernel
from repro.core.derived import DerivedInstructions
from repro.core.instructions import InstructionResult
from repro.core.tiles import TileGrid
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.profile import HardwareProfile
from repro.hardware.resources import ResourceReport, estimate_resources
from repro.hardware.simd import SimdReport, simd_schedule
from repro.hardware.validity import ValidityReport, check_circuit
from repro.sim.batch import BatchResult, BatchRunner
from repro.sim.interpreter import CircuitInterpreter, RunResult
from repro.sim.noise import NoiseModel

__all__ = ["TISCC", "CompiledOperation"]


@dataclass
class CompiledOperation:
    """A compiled program: circuit, per-instruction results, bookkeeping."""

    circuit: HardwareCircuit
    results: list[InstructionResult]
    initial_occupancy: dict[int, int]
    operation: str = ""
    dx: int = 0
    dz: int = 0
    validity: ValidityReport | None = None
    resources: ResourceReport | None = None
    #: Wall-clock phase timings of :meth:`TISCC.compile`, in seconds.
    compile_seconds: float = 0.0
    validate_seconds: float = 0.0
    estimate_seconds: float = 0.0
    simd_seconds: float = 0.0
    #: What the SIMD rescheduling pass did (None when it did not run).
    simd_report: SimdReport | None = None
    #: The scheduler the compile's QEC rounds ran on: ``"native"`` (the C
    #: round kernel) or ``"python"`` (the round loop), and why the loop ran
    #: instead (see :func:`repro.code.stabilizer_circuits.round_kernel`).
    round_kernel: str = "python"
    round_fallback_reason: str | None = None

    @property
    def logical_timesteps(self) -> int:
        return sum(r.logical_timesteps for r in self.results)

    def to_text(self) -> str:
        return self.circuit.to_text(header=f"TISCC {self.operation} dx={self.dx} dz={self.dz}")


class TISCC:
    """Compile tile-level programs to trapped-ion hardware circuits.

    A program is a list of steps ``(mnemonic, *args)``; supported mnemonics
    cover Table 1 and Table 3 (see ``MNEMONICS``).  ``rounds`` overrides the
    number of error-correction rounds per logical time-step (default dt;
    anything below 1 is a ``ValueError``).
    """

    #: Mnemonic -> (argument signature, min arity, max arity, handler); a
    #: handler takes ``(ops, circuit, *args)``, ``ops`` the compiler's
    #: :class:`DerivedInstructions`.
    INSTRUCTIONS: dict[str, tuple[str, int, int, Callable]] = {
        "PrepareZ": ("(tile)", 1, 1, DerivedInstructions.prepare_z),
        "PrepareX": ("(tile)", 1, 1, DerivedInstructions.prepare_x),
        "InjectY": ("(tile)", 1, 1, lambda ops, circuit, tile: ops.inject(circuit, tile, "Y")),
        "InjectT": ("(tile)", 1, 1, lambda ops, circuit, tile: ops.inject(circuit, tile, "T")),
        "MeasureZ": ("(tile)", 1, 1, lambda ops, circuit, tile: ops.measure(circuit, tile, "Z")),
        "MeasureX": ("(tile)", 1, 1, lambda ops, circuit, tile: ops.measure(circuit, tile, "X")),
        "PauliX": ("(tile)", 1, 1, lambda ops, circuit, tile: ops.pauli(circuit, tile, "X")),
        "PauliY": ("(tile)", 1, 1, lambda ops, circuit, tile: ops.pauli(circuit, tile, "Y")),
        "PauliZ": ("(tile)", 1, 1, lambda ops, circuit, tile: ops.pauli(circuit, tile, "Z")),
        "Hadamard": ("(tile)", 1, 1, DerivedInstructions.hadamard),
        "Idle": ("(tile)", 1, 1, DerivedInstructions.idle),
        "MeasureZZ": ("(tile_a, tile_b)", 2, 2, DerivedInstructions.measure_zz),
        "MeasureXX": ("(tile_a, tile_b)", 2, 2, DerivedInstructions.measure_xx),
        "BellPrepare": ("(tile_a, tile_b)", 2, 2, DerivedInstructions.bell_prepare),
        "BellMeasure": ("(tile_a, tile_b)", 2, 2, DerivedInstructions.bell_measure),
        "Move": ("(tile, direction='right')", 1, 2, DerivedInstructions.move),
        "ExtendSplit": ("(tile, direction='right')", 1, 2, DerivedInstructions.extend_split),
        "MergeContract": (
            "(tile_a, tile_b, keep='near')", 2, 3, DerivedInstructions.merge_contract
        ),
        "PatchExtension": ("(tile, direction='right')", 1, 2, DerivedInstructions.patch_extension),
    }
    MNEMONICS = tuple(INSTRUCTIONS)
    #: Mnemonic -> human-readable argument signature and accepted arity range.
    SIGNATURES: dict[str, tuple[str, int, int]] = {m: row[:3] for m, row in INSTRUCTIONS.items()}

    def __init__(
        self,
        dx: int,
        dz: int,
        tile_rows: int = 1,
        tile_cols: int = 2,
        rounds: int | None = None,
        profile: "HardwareProfile | str | None" = None,
    ):
        if rounds is not None and rounds < 1:
            raise ValueError(f"rounds must be at least 1 (got {rounds})")
        self.tiles = TileGrid(tile_rows, tile_cols, dx, dz, profile=profile)
        self.ops = DerivedInstructions(self.tiles, rounds=rounds)

    @property
    def grid(self):
        return self.tiles.grid

    @property
    def profile(self) -> "HardwareProfile":
        """The hardware profile every compiled circuit is timed against."""
        return self.tiles.grid.profile

    def compile(
        self,
        program: list[tuple],
        operation: str = "",
        simd: bool = False,
    ) -> CompiledOperation:
        """Execute a program, returning the compiled operation bundle.

        Every compile ends with the §3.3 validity replay and the §3.4
        resource estimate; per-phase wall-clock timings are recorded on the
        returned bundle.  ``simd`` runs the beam-pass rescheduling backend
        phase (:mod:`repro.hardware.simd`) with the profile's ``simd_*``
        fields first: the bundle's ``circuit`` becomes the compacted
        schedule, which validation and estimation then apply to.
        """
        occ0 = self.tiles.occupancy_snapshot()
        circuit = HardwareCircuit()
        results = []
        t0 = time.perf_counter()
        for step in program:
            mnemonic, *args = step
            results.append(self._dispatch(circuit, mnemonic, args))
        compiled = CompiledOperation(
            circuit=circuit,
            results=results,
            initial_occupancy=occ0,
            operation=operation or "+".join(s[0] for s in program),
            dx=self.tiles.dx,
            dz=self.tiles.dz,
        )
        compiled.compile_seconds = time.perf_counter() - t0
        compiled.round_kernel, compiled.round_fallback_reason = round_kernel()
        if simd:
            prof = self.profile
            t0 = time.perf_counter()
            scheduled, report = simd_schedule(
                circuit,
                self.grid,
                width=prof.simd_width,
                mode=prof.simd_mode,
                overhead_us=prof.simd_pass_overhead_us,
            )
            compiled.simd_seconds = time.perf_counter() - t0
            compiled.circuit = scheduled
            compiled.simd_report = report
        t0 = time.perf_counter()
        compiled.validity = check_circuit(self.grid, compiled.circuit, occ0)
        compiled.validate_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        compiled.resources = estimate_resources(
            self.grid,
            compiled.circuit,
            compiled.operation,
            self.tiles.dx,
            self.tiles.dz,
            simd_report=compiled.simd_report,
        )
        compiled.estimate_seconds = time.perf_counter() - t0
        return compiled

    def _dispatch(self, circuit, mnemonic: str, args) -> InstructionResult:
        try:
            sig, lo, hi, handler = self.INSTRUCTIONS[mnemonic]
        except KeyError:
            raise ValueError(
                f"unknown mnemonic {mnemonic!r}; supported: {', '.join(self.MNEMONICS)}"
            ) from None
        if not lo <= len(args) <= hi:
            raise ValueError(
                f"wrong number of arguments for {mnemonic!r}: got {len(args)}, "
                f"expected {mnemonic}{sig}"
            )
        return handler(self.ops, circuit, *args)

    def simulate(
        self,
        compiled: CompiledOperation,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> RunResult:
        """Replay a compiled operation on the stabilizer backend.

        ``seed`` is anything ``numpy.random.default_rng`` accepts; use
        :func:`repro.sim.batch.per_shot_seed` to reproduce one shot of a
        batched run.
        """
        interp = CircuitInterpreter(self.grid, seed=seed)
        return interp.run(compiled.circuit, compiled.initial_occupancy)

    def simulate_shots(
        self,
        compiled: CompiledOperation,
        n_shots: int,
        seed: int | None = 0,
        forced_outcomes: dict | None = None,
        independent_streams: bool = True,
        noise: NoiseModel | None = None,
        noise_seed: int | None = None,
        shot_offset: int = 0,
        injections: list | None = None,
    ) -> BatchResult:
        """Replay a compiled operation across a whole batch of Monte-Carlo shots.

        Runs on the packed batched backend (:mod:`repro.sim.batch`): outcome
        bitmaps, determinism flags, and quasi-probability weights come back
        as per-shot arrays.  With ``independent_streams`` (default) shot
        ``k`` reproduces ``simulate`` seeded with the per-shot stream
        ``per_shot_seed(seed, shot_offset + k)`` exactly; turn it off for
        maximum throughput when only batch statistics matter.

        ``noise`` (a :class:`~repro.sim.noise.NoiseModel`) injects
        hardware-calibrated Pauli channels into the replay; ``injections``
        adds deterministic :class:`~repro.sim.batch.PauliInjection` faults
        at fixed instruction positions; see
        :meth:`~repro.sim.batch.BatchRunner.run_shots`.
        """
        runner = BatchRunner(self.grid)
        return runner.run_shots(
            compiled.circuit,
            compiled.initial_occupancy,
            n_shots,
            seed=seed,
            forced_outcomes=forced_outcomes,
            independent_streams=independent_streams,
            noise=noise,
            noise_seed=noise_seed,
            shot_offset=shot_offset,
            injections=injections,
        )
