"""Hardware-calibrated Pauli noise channels for the batched sampler.

Maps a small set of physical error-rate parameters onto the native
instruction stream of a compiled :class:`~repro.hardware.circuit.HardwareCircuit`:

* every single-qubit native gate is followed by a depolarizing channel of
  probability ``p1``,
* every ``ZZ`` entangler is followed by a two-qubit depolarizing channel of
  probability ``p2``,
* ``Prepare_Z`` mis-prepares (X flip) with probability ``p_prep``,
* ``Measure_Z`` records the wrong outcome with probability ``p_meas``
  (classical readout flip; the post-measurement state is untouched), and
* when a dephasing time ``t2_us`` is set, every gate and transport
  operation *and* every idle gap between operations contributes a Z error
  with probability ``0.5 * (1 - exp(-duration / t2_us))`` — the duration
  comes from the time-resolved instruction itself, so transport (``Move``,
  junction hops) and the 2 ms ``ZZ`` are automatically weighted by the
  :class:`~repro.hardware.model.HardwareModel` timings of Table 5.
  ``Prepare_Z``/``Measure_Z`` take no duration dephasing of their own:
  preparation leaves no coherence to dephase and a Z error after the
  measurement projection is unobservable — their imperfections are the
  ``p_prep``/``p_meas`` channels (other qubits still accrue the wait as
  idle-gap dephasing).

Channels are injected by :class:`~repro.sim.batch.BatchRunner` as vectorized
masked Pauli layers over the :class:`~repro.sim.packed.PackedTableau` batch
axis: one uniform draw per channel application selects the per-shot error
masks, and the masked ``pauli_x/y/z`` column updates apply them to all shots
at once, so noisy sampling keeps the packed engine's throughput.  This
module only turns durations into probabilities: which qubits an
instruction drives and how long each qubit sat idle are decided once, by
:func:`~repro.sim.interpreter.replay_stream`, for the sampler and the DEM
extractor alike.

Zero-probability channels draw no randomness at all, so a
:class:`NoiseModel` whose rates are all zero reproduces the ideal engine
shot-for-shot (property-tested in ``tests/test_noise_and_decode.py``).

Presets (named after trapped-ion hardware regimes)::

    NoiseModel.preset("ideal")       # all rates zero
    NoiseModel.preset("near_term")   # today's trapped-ion error rates
    NoiseModel.preset("projected")   # an order of magnitude better

``NoiseModel.uniform(p)`` gives the single-knob model used by threshold
sweeps, and ``model.scaled(f)`` scales every rate for parametric studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.hardware.model import SINGLE_QUBIT_GATES
from repro.hardware.profile import DEFAULT_PROFILE, HardwareProfile, get_profile
from repro.sim.packed import PackedTableau

__all__ = ["NoiseParams", "NoiseModel", "NOISE_PRESETS"]


@dataclass(frozen=True)
class NoiseParams:
    """Physical error-rate parameters of a trapped-ion processor.

    Probabilities are per operation; ``t2_us`` is the memory dephasing time
    constant in microseconds (``None`` disables duration-derived dephasing).
    """

    name: str = "custom"
    p1: float = 0.0
    p2: float = 0.0
    p_prep: float = 0.0
    p_meas: float = 0.0
    t2_us: float | None = None

    def __post_init__(self) -> None:
        for field_name in ("p1", "p2", "p_prep", "p_meas"):
            p = getattr(self, field_name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{field_name}={p} is not a probability")
        if self.t2_us is not None and not self.t2_us > 0:
            raise ValueError(f"t2_us={self.t2_us} must be positive (or None)")

    def scaled(self, factor: float) -> "NoiseParams":
        """Scale every error rate by ``factor`` (T2 shrinks by the factor)."""
        if not (factor >= 0 and np.isfinite(factor)):
            raise ValueError(f"scale factor must be finite and non-negative, got {factor}")
        return replace(
            self,
            name=f"{self.name}*{factor:g}",
            p1=min(1.0, self.p1 * factor),
            p2=min(1.0, self.p2 * factor),
            p_prep=min(1.0, self.p_prep * factor),
            p_meas=min(1.0, self.p_meas * factor),
            t2_us=None if self.t2_us is None or factor == 0 else self.t2_us / factor,
        )


def _presets_of(profile: HardwareProfile) -> dict[str, NoiseParams]:
    """Materialize a profile's declared noise presets as ``NoiseParams``."""
    return {
        name: NoiseParams(name=name, **profile.preset_params(name))
        for name in profile.preset_names
    }


#: Named parameter sets of the default hardware profile.  ``near_term``
#: mirrors demonstrated trapped-ion fidelities (two-qubit ~99.8%, SPAM
#: ~99.7%, seconds-scale T2); ``projected`` is the order-of-magnitude
#: improvement architecture studies assume.  Other profiles declare their
#: own sets — use ``NoiseModel.preset(name, profile=...)``.
NOISE_PRESETS: dict[str, NoiseParams] = _presets_of(DEFAULT_PROFILE)


class NoiseModel:
    """Applies Pauli channels derived from :class:`NoiseParams` to a batch.

    All application methods are vectorized over the batch axis and draw from
    the generator they are handed (the batch runner keeps a dedicated noise
    stream so ideal replays are unaffected).  Channels with probability zero
    return without consuming randomness.
    """

    def __init__(self, params: NoiseParams):
        self.params = params

    # ------------------------------------------------------------- factories
    @classmethod
    def preset(
        cls, name: str, profile: "HardwareProfile | str | None" = None
    ) -> "NoiseModel":
        """Named preset, resolved against ``profile`` (default profile if None)."""
        presets = (
            NOISE_PRESETS if profile is None else _presets_of(get_profile(profile))
        )
        try:
            return cls(presets[name])
        except KeyError:
            raise ValueError(
                f"unknown noise preset {name!r}; choose from {sorted(presets)}"
            ) from None

    @classmethod
    def uniform(cls, p: float, name: str | None = None) -> "NoiseModel":
        """Single-knob model: every per-operation probability equals ``p``.

        No duration-derived dephasing — the one parameter *is* the physical
        error rate, which is what distance/rate threshold sweeps vary.
        """
        return cls(
            NoiseParams(
                name=name or f"uniform(p={p:g})", p1=p, p2=p, p_prep=p, p_meas=p
            )
        )

    def scaled(self, factor: float) -> "NoiseModel":
        return NoiseModel(self.params.scaled(factor))

    # ------------------------------------------------------------ properties
    @property
    def name(self) -> str:
        return self.params.name

    @property
    def is_trivial(self) -> bool:
        """True when no channel can ever fire (the ideal model)."""
        p = self.params
        return (
            p.p1 == 0.0
            and p.p2 == 0.0
            and p.p_prep == 0.0
            and p.p_meas == 0.0
            and p.t2_us is None
        )

    @property
    def tracks_idle(self) -> bool:
        """True when idle gaps between operations must be dephased."""
        return self.params.t2_us is not None

    def dephasing_probability(self, duration_us: float) -> float:
        """Z-error probability accumulated over ``duration_us`` of memory."""
        if self.params.t2_us is None or duration_us <= 0:
            return 0.0
        return -0.5 * float(np.expm1(-duration_us / self.params.t2_us))

    # ------------------------------------------------------------- channels
    @staticmethod
    def _dephase(tab: PackedTableau, q: int, p: float, rng: np.random.Generator) -> None:
        if p <= 0:
            return
        mask = rng.random(tab.batch) < p
        if mask.any():
            tab.pauli_z(q, mask=mask)

    @staticmethod
    def _depolarize_1q(
        tab: PackedTableau, q: int, p: float, rng: np.random.Generator
    ) -> None:
        if p <= 0:
            return
        u = rng.random(tab.batch)
        if not (u < p).any():
            return
        # One uniform draw per shot: [0, p) is split evenly between X, Y, Z.
        x = u < p / 3
        y = (u >= p / 3) & (u < 2 * p / 3)
        z = (u >= 2 * p / 3) & (u < p)
        if x.any():
            tab.pauli_x(q, mask=x)
        if y.any():
            tab.pauli_y(q, mask=y)
        if z.any():
            tab.pauli_z(q, mask=z)

    @staticmethod
    def _depolarize_2q(
        tab: PackedTableau, a: int, b: int, p: float, rng: np.random.Generator
    ) -> None:
        if p <= 0:
            return
        u = rng.random(tab.batch)
        err = u < p
        if not err.any():
            return
        # Map the erring shots' uniforms onto the 15 non-identity two-qubit
        # Paulis: k in 1..15, qubit a gets Pauli k >> 2, qubit b gets k & 3
        # (0 = I, 1 = X, 2 = Y, 3 = Z).
        k = np.where(err, 1 + (u * (15 / p)).astype(np.int64), 0)
        for qubit, letter_of in ((a, k >> 2), (b, k & 3)):
            for letter, apply in ((1, tab.pauli_x), (2, tab.pauli_y), (3, tab.pauli_z)):
                mask = err & (letter_of == letter)
                if mask.any():
                    apply(qubit, mask=mask)

    # ----------------------------------------------------------- application
    def apply_operation_noise(
        self,
        tab: PackedTableau,
        name: str,
        duration: float,
        qubits: list[int],
        rng: np.random.Generator,
    ) -> None:
        """Post-operation noise for one instruction, over the whole batch.

        ``name``/``duration`` are the instruction's gate name and length in
        µs (the duration drives the dephasing contribution), ``qubits`` the
        tableau qubits it resolved to — taken straight from the circuit's
        columns, no Instruction object required.
        """
        p = self.params
        if name in SINGLE_QUBIT_GATES:
            self._depolarize_1q(tab, qubits[0], p.p1, rng)
        elif name == "ZZ":
            self._depolarize_2q(tab, qubits[0], qubits[1], p.p2, rng)
        elif name == "Prepare_Z":
            # Mis-preparation: |1> instead of |0> with probability p_prep.
            if p.p_prep > 0:
                mask = rng.random(tab.batch) < p.p_prep
                if mask.any():
                    tab.pauli_x(qubits[0], mask=mask)
            return  # a fresh |0>/|1> has no coherence to dephase
        elif name == "Measure_Z":
            return  # readout flips are applied to the record, not the state
        p_z = self.dephasing_probability(duration)
        for q in qubits:
            self._dephase(tab, q, p_z, rng)

    def flip_outcomes(
        self, outcomes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Classical readout flips: XOR a Bernoulli(p_meas) vector in place."""
        if self.params.p_meas > 0:
            flips = rng.random(outcomes.shape[0]) < self.params.p_meas
            outcomes ^= flips.astype(outcomes.dtype)
        return outcomes

    def apply_idle_dephasing(
        self,
        tab: PackedTableau,
        q: int,
        gap_us: float,
        rng: np.random.Generator,
    ) -> None:
        """Memory error for a qubit that sat idle for ``gap_us`` microseconds."""
        self._dephase(tab, q, self.dephasing_probability(gap_us), rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.params
        t2 = "None" if p.t2_us is None else f"{p.t2_us:g}us"
        return (
            f"<NoiseModel {p.name}: p1={p.p1:g} p2={p.p2:g} "
            f"p_prep={p.p_prep:g} p_meas={p.p_meas:g} t2={t2}>"
        )

