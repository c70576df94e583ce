"""Batched Monte-Carlo shot engine over the packed stabilizer backend.

Replays one compiled :class:`~repro.hardware.circuit.HardwareCircuit` across
a whole batch of shots in single vectorized passes: every instruction is
visited once, acting on all shots at word granularity via
:class:`~repro.sim.packed.PackedTableau`.  Per-shot quasi-probability
T-gate substitutions (§4.1) are drawn for the whole batch up front at each
non-Clifford instruction and applied as masked gate layers; per-shot weights
and per-label outcome bitmaps come back as arrays.

Two randomness modes:

* ``independent_streams=True`` (default) gives shot ``k`` its own
  generator derived via :func:`per_shot_seed` —
  ``np.random.SeedSequence(seed, spawn_key=(shot_offset + k,))``, the
  spawn-key form of ``SeedSequence(seed).spawn(n)[k]`` — consumed in
  instruction order: exactly the stream a single-shot
  :class:`~repro.sim.interpreter.CircuitInterpreter` seeded with that
  SeedSequence would consume, so batched trajectories reproduce looped
  single-shot runs shot-for-shot (outcomes, weights, determinism flags).
  Because the stream depends only on the *absolute* shot index, a run
  split into chunks with matching ``shot_offset`` reproduces the unsplit
  run bit-for-bit (the same contract as
  :class:`~repro.sim.frame.FrameSampler`).
* ``independent_streams=False`` draws every random vector from one shared
  generator — the maximum-throughput mode for logical-error statistics,
  reproducible as a batch but not relatable to single-shot replays.

Noisy sampling: pass a :class:`~repro.sim.noise.NoiseModel` and its
hardware-calibrated Pauli channels are injected as vectorized masked Pauli
layers after each instruction (plus idle-gap dephasing before, and readout
flips on measurement records).  Tableau qubits and idle gaps come from
:func:`~repro.sim.interpreter.replay_stream`, the one place that decides
occupancy and idle time, so the sampler dephases exactly the gaps that DEM
extraction turns into fault sites.  Noise randomness comes from a
dedicated generator (``noise_seed``), so the ideal trajectory of every shot
is unchanged by the presence of a trivial (all-zero-rate) model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.code.pauli import PauliString
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.sim.gates import NON_CLIFFORD_GATES
from repro.sim.interpreter import RELOCATIONS, RunResult, replay_stream
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedTableau, apply_packed
from repro.sim.quasi import QuasiCliffordSampler

__all__ = ["BatchRunner", "BatchResult", "PauliInjection", "per_shot_seed"]

#: Offset mixed into ``seed`` for the dedicated noise stream when no explicit
#: ``noise_seed`` is given (an arbitrary large odd constant).
_NOISE_SEED_OFFSET = 0x9E3779B1


def per_shot_seed(seed: int | None, shot: int) -> np.random.SeedSequence | None:
    """Seed for the independent stream of absolute shot index ``shot``.

    The single source of truth for per-shot randomness, shared by
    :class:`BatchRunner` and :class:`~repro.sim.frame.FrameSampler`:
    ``SeedSequence(seed, spawn_key=(shot,))`` is exactly the ``shot``-th
    child ``SeedSequence(seed).spawn()`` would produce, but addressable by
    absolute index — which is what makes chunked runs reproduce unchunked
    ones.  ``None`` (no seed) stays ``None``: fresh OS entropy per shot.
    """
    if seed is None:
        return None
    return np.random.SeedSequence(seed, spawn_key=(shot,))


@dataclass(frozen=True)
class PauliInjection:
    """A deterministic Pauli inserted into the replay at a fixed location.

    ``index`` addresses ``circuit.sorted_instructions()``; the Pauli given
    by ``ops`` (``(tableau qubit, letter)`` pairs) is applied ``when`` =
    ``"before"`` or ``"after"`` that instruction executes, to every shot
    (``shot=None``) or one batch lane.  This is the cross-engine test hook:
    a :class:`~repro.sim.dem.FaultSite`'s Pauli injected here must flip
    exactly the detectors and observables its DEM mechanism predicts.
    """

    index: int
    when: str = "after"
    ops: tuple[tuple[int, str], ...] = ()
    shot: int | None = None

    def __post_init__(self) -> None:
        if self.when not in ("before", "after"):
            raise ValueError(f"injection 'when' must be before/after, got {self.when!r}")
        for _, letter in self.ops:
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"injection Pauli letter must be X/Y/Z, got {letter!r}")


@dataclass
class BatchResult:
    """Outcome of replaying one circuit across a batch of Monte-Carlo shots.

    The array-valued mirror of :class:`~repro.sim.interpreter.RunResult`:
    ``outcomes[label]`` is a ``(n_shots,)`` 0/1 bitmap, ``deterministic``
    the matching determinism flags, ``weights`` the quasi-probability shot
    weights.  ``sign``/``expectation`` return per-shot arrays, which makes
    the compiler's ``InstructionResult.value`` callables (products of signs)
    evaluate vectorized over the whole batch unchanged.
    """

    tableau: PackedTableau
    ion_index: dict[int, int]
    occupancy: dict[int, int]
    outcomes: dict[str, np.ndarray]
    deterministic: dict[str, np.ndarray]
    weights: np.ndarray

    @property
    def n_shots(self) -> int:
        return self.tableau.batch

    def qubit_of_site(self, site: int) -> int:
        """Tableau qubit currently held at a qsite (shared across shots)."""
        ion = self.occupancy.get(site)
        if ion is None:
            raise KeyError(f"no ion at qsite {site} at end of circuit")
        return self.ion_index[ion]

    def sign(self, label: str) -> np.ndarray:
        """Measurement outcomes as +/-1 eigenvalue signs, one per shot."""
        return 1 - 2 * self.outcomes[label].astype(np.int64)

    def expectation(self, pauli_over_sites: PauliString) -> np.ndarray:
        """Per-shot <P> for a Pauli string keyed by qsites (end occupancy)."""
        index_of = {
            site: self.qubit_of_site(site) for site in pauli_over_sites.support
        }
        return self.tableau.expectation(pauli_over_sites, index_of)

    def expectation_over_ions(self, pauli_over_ions: PauliString) -> np.ndarray:
        index_of = {ion: self.ion_index[ion] for ion in pauli_over_ions.support}
        return self.tableau.expectation(pauli_over_ions, index_of)

    def estimate(self, values: PauliString | np.ndarray) -> tuple[float, float]:
        """Weighted Monte-Carlo mean and standard error over the batch.

        ``values`` is either a Pauli string over qsites (its per-shot
        expectations are taken) or a precomputed per-shot value array; the
        quasi-probability estimator is ``E[weight * value]`` (§4.1).
        """
        if isinstance(values, PauliString):
            values = self.expectation(values)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.weights.shape:
            raise ValueError(f"need one value per shot, got shape {values.shape}")
        if self.n_shots < 2:
            raise ValueError("need at least two shots for an error estimate")
        samples = self.weights * values
        return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(self.n_shots))

    def shot(self, k: int) -> RunResult:
        """Materialize shot ``k`` as a single-shot :class:`RunResult`."""
        return RunResult(
            tableau=self.tableau.to_tableau(k),
            ion_index=dict(self.ion_index),
            occupancy=dict(self.occupancy),
            outcomes={label: int(arr[k]) for label, arr in self.outcomes.items()},
            deterministic={label: bool(arr[k]) for label, arr in self.deterministic.items()},
            weight=float(self.weights[k]),
        )


class BatchRunner:
    """Executes hardware circuits against a batch of packed tableaux."""

    def __init__(self, grid: GridManager):
        self.grid = grid
        self.sampler = QuasiCliffordSampler()

    def run_shots(
        self,
        circuit: HardwareCircuit,
        initial_occupancy: dict[int, int],
        n_shots: int,
        seed: int | None = 0,
        forced_outcomes: dict | None = None,
        independent_streams: bool = True,
        noise: NoiseModel | None = None,
        noise_seed: int | None = None,
        shot_offset: int = 0,
        injections: list[PauliInjection] | None = None,
    ) -> BatchResult:
        """Replay ``circuit`` from a site -> ion occupancy map, ``n_shots`` at once.

        ``forced_outcomes`` pins measurement labels (scalar or per-shot
        arrays).  With ``independent_streams`` (default) shot ``k``
        consumes ``default_rng(per_shot_seed(seed, shot_offset + k))``
        exactly like a ``CircuitInterpreter`` seeded with that
        SeedSequence would; with it off, one shared ``default_rng(seed)``
        draws every random vector (fastest; ``shot_offset`` is then
        irrelevant to the draws).

        ``noise`` injects that model's Pauli channels around every
        instruction, drawing from a dedicated ``default_rng(noise_seed)``
        stream (derived from ``seed`` when unset) so ideal trajectories
        are reproducible independent of the noise draws.  ``injections``
        adds deterministic :class:`PauliInjection` faults at fixed
        instruction positions (the DEM cross-engine test hook).
        """
        if n_shots < 1:
            raise ValueError("need at least one shot")
        forced = forced_outcomes or {}
        pending_injections: dict[tuple[int, str], list[PauliInjection]] = {}
        for inj in injections or ():
            pending_injections.setdefault((inj.index, inj.when), []).append(inj)
        stream = replay_stream(circuit, initial_occupancy)
        tableau = PackedTableau(stream.n_qubits, batch=n_shots)
        weights = np.ones(n_shots)
        outcomes: dict[str, np.ndarray] = {}
        deterministic: dict[str, np.ndarray] = {}

        noise_rng: np.random.Generator | None = None
        dephase_idle = False
        if noise is not None and not noise.is_trivial:
            if noise_seed is None and seed is not None:
                noise_seed = seed + _NOISE_SEED_OFFSET
            noise_rng = np.random.default_rng(noise_seed)
            dephase_idle = noise.tracks_idle

        if independent_streams:
            rngs = [
                np.random.default_rng(per_shot_seed(seed, shot_offset + k))
                for k in range(n_shots)
            ]
            measure_rng: object = rngs
        else:
            shared = np.random.default_rng(seed)
            measure_rng = shared

        cols = circuit.sorted_columns()
        names, labels = cols.names, cols.labels
        durations = cols.duration.tolist()
        qubits_of, idle_of = stream.qubits, stream.idle
        for entries in pending_injections.values():
            for inj in entries:
                if not 0 <= inj.index < cols.n:
                    raise ValueError(
                        f"injection index {inj.index} outside circuit of {cols.n}"
                    )
                if inj.shot is not None and not 0 <= inj.shot < n_shots:
                    raise ValueError(
                        f"injection shot {inj.shot} outside batch of {n_shots}"
                    )
        for idx in range(cols.n):
            name = names[idx]
            qubits = qubits_of[idx]

            for inj in pending_injections.get((idx, "before"), ()):
                self._inject(tableau, inj)

            if dephase_idle:
                for q, gap, _ in idle_of[idx]:
                    noise.apply_idle_dephasing(tableau, q, gap, noise_rng)

            if name in RELOCATIONS:
                pass
            elif name == "Prepare_Z":
                tableau.reset(qubits[0], measure_rng)
            elif name == "Measure_Z":
                label = labels.get(idx) or f"m?{idx}"
                out, det = tableau.measure(
                    qubits[0], measure_rng, forced=forced.get(label)
                )
                if noise_rng is not None and label not in forced:
                    # Pinned labels stay pinned: readout flips never override
                    # a forced_outcomes entry.
                    out = noise.flip_outcomes(out, noise_rng)
                outcomes[label] = out
                deterministic[label] = det
            elif name in NON_CLIFFORD_GATES:
                if independent_streams:
                    drawn = [self.sampler.sample(name, rngs[k]) for k in range(n_shots)]
                    gates = [g for g, _ in drawn]
                    weights *= np.array([w for _, w in drawn])
                else:
                    gates, factors = self.sampler.sample_batch(name, shared, n_shots)
                    weights *= factors
                self._apply_substitutes(tableau, gates, qubits)
            else:
                apply_packed(tableau, name, qubits)

            for inj in pending_injections.get((idx, "after"), ()):
                self._inject(tableau, inj)

            if noise_rng is not None and qubits:
                noise.apply_operation_noise(tableau, name, durations[idx], qubits, noise_rng)

        return BatchResult(
            tableau=tableau,
            ion_index=stream.ion_index,
            occupancy=stream.occupancy,
            outcomes=outcomes,
            deterministic=deterministic,
            weights=weights,
        )

    @staticmethod
    def _inject(tableau: PackedTableau, inj: PauliInjection) -> None:
        """Apply one deterministic Pauli injection (whole batch or one lane)."""
        mask = None
        if inj.shot is not None:
            mask = np.zeros(tableau.batch, dtype=bool)
            mask[inj.shot] = True
        for q, letter in inj.ops:
            apply = {"X": tableau.pauli_x, "Y": tableau.pauli_y, "Z": tableau.pauli_z}[letter]
            apply(q, mask=mask)

    @staticmethod
    def _apply_substitutes(
        tableau: PackedTableau, gates: list[str | None], qubits: tuple[int, ...]
    ) -> None:
        """Apply per-shot Clifford substitutes as masked gate layers."""
        per_shot = np.array(["" if g is None else g for g in gates])
        for gate in np.unique(per_shot):
            if gate == "":
                continue  # identity substitute
            mask = per_shot == gate
            apply_packed(
                tableau, str(gate), qubits, mask=None if mask.all() else mask
            )
