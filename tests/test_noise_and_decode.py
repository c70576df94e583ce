"""Noise-channel calibration, zero-noise equivalence, and decoded LER sweeps."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.code.pauli import PauliString
from repro.decode import MemoryExperiment
from repro.estimator.sweep import logical_error_sweep
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.sim.batch import BatchRunner
from repro.sim.noise import NOISE_PRESETS, NoiseModel, NoiseParams


def run_tiny(steps, shots, noise, seed=1, forced=None):
    """Replay a hand-built single/two-qubit circuit with noise injected."""
    c = HardwareCircuit()
    for name, sites, t, duration, *label in steps:
        c.append(name, sites, t, duration, label[0] if label else None)
    runner = BatchRunner(GridManager(2, 2))
    occupancy = {s: s for s in sorted({s for _, sites, *_ in steps for s in sites})}
    return runner.run_shots(
        c,
        occupancy,
        shots,
        seed=seed,
        independent_streams=False,
        noise=noise,
        forced_outcomes=forced,
    )


class TestNoiseParams:
    def test_presets_exist_and_are_ordered(self):
        near, proj = NOISE_PRESETS["near_term"], NOISE_PRESETS["projected"]
        assert NoiseModel.preset("ideal").is_trivial
        for field in ("p1", "p2", "p_prep", "p_meas"):
            assert getattr(proj, field) < getattr(near, field)
        assert proj.t2_us > near.t2_us

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown noise preset"):
            NoiseModel.preset("optimistic")

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(p1=1.5)
        with pytest.raises(ValueError):
            NoiseParams(t2_us=0.0)

    def test_non_finite_values_rejected(self):
        """A NaN T2 used to pass (``nan <= 0`` is False) and silently disabled
        dephasing on the tableau engine; ``scaled(nan)`` returned every rate
        as 1.0 and T2 as NaN."""
        with pytest.raises(ValueError, match="t2_us=nan must be positive"):
            NoiseParams(t2_us=float("nan"))
        for factor in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite and non-negative"):
                NOISE_PRESETS["near_term"].scaled(factor)

    def test_scaled(self):
        m = NoiseModel.preset("near_term").scaled(2.0)
        assert m.params.p2 == pytest.approx(2 * NOISE_PRESETS["near_term"].p2)
        assert m.params.t2_us == pytest.approx(NOISE_PRESETS["near_term"].t2_us / 2)
        assert NoiseModel.preset("near_term").scaled(0.0).params.t2_us is None

    def test_uniform(self):
        m = NoiseModel.uniform(1e-3)
        p = m.params
        assert (p.p1, p.p2, p.p_prep, p.p_meas) == (1e-3,) * 4
        assert p.t2_us is None and not m.is_trivial

    def test_dephasing_probability_from_durations(self):
        m = NoiseModel(NoiseParams(t2_us=1000.0))
        assert m.dephasing_probability(0.0) == 0.0
        short, long = m.dephasing_probability(10.0), m.dephasing_probability(2000.0)
        assert 0 < short < long < 0.5
        assert long == pytest.approx(0.5 * (1 - np.exp(-2.0)))
        assert NoiseModel(NoiseParams()).dephasing_probability(1e9) == 0.0


class TestChannels:
    def test_preparation_flip_is_exact_at_unit_rate(self):
        batch = run_tiny(
            [("Prepare_Z", [0], 0, 10), ("Measure_Z", [0], 20, 120, "m0")],
            shots=64,
            noise=NoiseModel(NoiseParams(p_prep=1.0)),
        )
        assert batch.outcomes["m0"].all()

    def test_readout_flip_is_classical(self):
        batch = run_tiny(
            [("Prepare_Z", [0], 0, 10), ("Measure_Z", [0], 20, 120, "m0")],
            shots=64,
            noise=NoiseModel(NoiseParams(p_meas=1.0)),
        )
        # Record flipped on every shot, but the state stayed |0>.
        assert batch.outcomes["m0"].all()
        assert batch.deterministic["m0"].all()
        assert (batch.expectation(PauliString({0: "Z"})) == 1).all()

    def test_forced_labels_are_never_flipped(self):
        # forced_outcomes pins a label; readout noise must not override it.
        batch = run_tiny(
            [
                ("Prepare_Z", [0], 0, 10),
                ("Y_pi/4", [0], 10, 10),
                ("Measure_Z", [0], 30, 120, "m0"),
            ],
            shots=64,
            noise=NoiseModel(NoiseParams(p_meas=1.0)),
            forced={"m0": 0},
        )
        assert not batch.outcomes["m0"].any()

    def test_readout_flip_rate_matches_p_meas(self):
        batch = run_tiny(
            [("Prepare_Z", [0], 0, 10), ("Measure_Z", [0], 20, 120, "m0")],
            shots=4000,
            noise=NoiseModel(NoiseParams(p_meas=0.25)),
        )
        assert batch.outcomes["m0"].mean() == pytest.approx(0.25, abs=0.03)

    def test_depolarizing_flips_two_thirds(self):
        # Unit-rate depolarizing after a Z rotation: X and Y flip |0>, Z not.
        batch = run_tiny(
            [
                ("Prepare_Z", [0], 0, 10),
                ("Z_pi/2", [0], 20, 3),
                ("Measure_Z", [0], 40, 120, "m0"),
            ],
            shots=6000,
            noise=NoiseModel(NoiseParams(p1=1.0)),
        )
        assert batch.outcomes["m0"].mean() == pytest.approx(2 / 3, abs=0.03)

    def test_two_qubit_depolarizing_marginals(self):
        # Unit-rate two-qubit depolarizing: each qubit sees a bit-flipping
        # component (X or Y) in 8 of the 15 equally likely error Paulis.
        batch = run_tiny(
            [
                ("Prepare_Z", [0], 0, 10),
                ("Prepare_Z", [1], 0, 10),
                ("ZZ", [0, 1], 20, 2000),
                ("Measure_Z", [0], 2040, 120, "m0"),
                ("Measure_Z", [1], 2040, 120, "m1"),
            ],
            shots=6000,
            noise=NoiseModel(NoiseParams(p2=1.0)),
        )
        m0, m1 = batch.outcomes["m0"], batch.outcomes["m1"]
        assert m0.mean() == pytest.approx(8 / 15, abs=0.03)
        assert m1.mean() == pytest.approx(8 / 15, abs=0.03)
        both_clean = ((m0 == 0) & (m1 == 0)).mean()
        assert both_clean == pytest.approx(3 / 15, abs=0.03)

    def test_idle_gap_dephasing_scales_with_t2(self):
        # |+> parked for 1 ms: Z errors flip the recovered Z outcome with
        # probability 0.5 * (1 - exp(-gap / T2)).
        steps = [
            ("Prepare_Z", [0], 0, 10),
            ("Y_pi/4", [0], 10, 10),
            ("Y_-pi/4", [0], 1_000_020, 10),
            ("Measure_Z", [0], 1_000_040, 120, "m0"),
        ]
        strong = run_tiny(
            steps, 6000, NoiseModel(NoiseParams(t2_us=500_000.0))
        )
        expected = 0.5 * (1 - np.exp(-1_000_000 / 500_000))
        assert strong.outcomes["m0"].mean() == pytest.approx(expected, abs=0.03)
        weak = run_tiny(steps, 2000, NoiseModel(NoiseParams(t2_us=5e12)))
        assert weak.outcomes["m0"].mean() < 0.005


@lru_cache(maxsize=None)
def _memory(basis: str, distance: int = 2, rounds: int = 1) -> MemoryExperiment:
    return MemoryExperiment(distance=distance, rounds=rounds, basis=basis)


@given(
    seed=st.integers(0, 2**16),
    shots=st.integers(1, 6),
    basis=st.sampled_from(["Z", "X"]),
)
@settings(max_examples=20, deadline=None)
def test_zero_rate_noise_reproduces_ideal_shot_for_shot(seed, shots, basis):
    """A NoiseModel with all rates zero must not perturb any trajectory."""
    exp = _memory(basis)
    ideal = exp.sample(shots, seed=seed, independent_streams=True)
    zero = exp.sample(
        shots,
        noise=NoiseModel(NoiseParams()),
        seed=seed,
        independent_streams=True,
    )
    assert set(ideal.outcomes) == set(zero.outcomes)
    for label in ideal.outcomes:
        assert np.array_equal(ideal.outcomes[label], zero.outcomes[label])
        assert np.array_equal(ideal.deterministic[label], zero.deterministic[label])
    assert np.array_equal(ideal.weights, zero.weights)


@given(
    seed=st.integers(0, 2**16),
    shots=st.integers(1, 6),
    basis=st.sampled_from(["Z", "X"]),
)
@settings(max_examples=20, deadline=None)
def test_decoder_is_trivial_on_zero_noise_batches(seed, shots, basis):
    """Without noise every detector is silent and every verdict trivial."""
    exp = _memory(basis)
    batch = exp.sample(shots, noise=NoiseModel.preset("ideal"), seed=seed)
    assert not exp.syndromes(batch).any()
    assert not exp.measured_flips(batch).any()
    assert not exp.decode_batch(batch).any()


@pytest.mark.parametrize("profile", ["baseline", "slow_junction", "fast_projected"])
@pytest.mark.parametrize("simd", [False, True], ids=["serial", "simd"])
@pytest.mark.parametrize("basis", ["Z", "X"])
def test_syndromes_match_the_round_by_round_layout(basis, simd, profile):
    """``syndromes``/``measured_flips`` XOR over the DEM's detector and
    observable labels; on noisy batches they equal the layout rebuilt round
    by round from the patch's records and the logical readout's sign."""
    exp = MemoryExperiment(distance=3, rounds=3, basis=basis, simd=simd, profile=profile)
    batch = exp.sample(200, noise=NoiseModel.preset("near_term", profile=exp.profile), seed=7)
    detectors, flips = oracles.memory_syndromes(exp, batch)
    assert detectors.any() and flips.any(), "the noise must fire for the check to bite"
    assert np.array_equal(exp.syndromes(batch), detectors)
    assert np.array_equal(exp.measured_flips(batch), flips)


class TestLogicalErrorSweep:
    def test_sweep_validates_arguments(self):
        with pytest.raises(ValueError, match="exactly one"):
            logical_error_sweep([3])
        with pytest.raises(ValueError, match="exactly one"):
            logical_error_sweep([3], rates=[1e-3], noise_models=[NoiseModel.uniform(1e-3)])

    def test_threshold_crossover_and_decode_speed(self):
        """LER falls with distance below threshold and rises far above it.

        Pinned to the reference tableau engine (same rates, shots, seed,
        and draws as at introduction); the frame engine's statistical
        agreement with this path is asserted in tests/test_frame_sampler.py.
        The d=5, 2000-shot batches must decode in seconds.
        """
        below, above = 3e-4, 5e-3
        reports = logical_error_sweep(
            [3, 5], rates=[below, above], shots=2000, seed=7, engine="tableau"
        )
        by = {(r.dx, r.physical_rate): r for r in reports}
        b3, b5 = by[(3, below)], by[(5, below)]
        a3, a5 = by[(3, above)], by[(5, above)]
        # Below threshold: distance helps, and decoding beats the raw flips.
        assert b5.logical_error_rate <= b3.logical_error_rate < 0.02
        assert b3.logical_error_rate < b3.raw_error_rate
        assert b5.logical_error_rate < b5.raw_error_rate
        # Far above threshold: more distance means more logical errors.
        assert a5.logical_error_rate > a3.logical_error_rate > 0.05
        # Packed-path acceptance: a d=5, 2000-shot batch decodes in seconds.
        assert a5.decode_seconds < 10.0
        assert b5.decode_seconds < 10.0

    def test_reports_carry_bookkeeping(self):
        rep = logical_error_sweep([2], rates=[1e-3], shots=50, rounds=1, seed=0)[0]
        assert (rep.dx, rep.dz, rep.rounds, rep.n_shots) == (2, 2, 1, 50)
        assert rep.noise_name == "uniform(p=0.001)"
        assert rep.physical_rate == pytest.approx(1e-3)
        assert 0.0 <= rep.logical_error_rate <= 1.0
        d = rep.to_dict()
        assert d["failures"] == rep.failures
        assert d["logical_error_rate"] == rep.logical_error_rate
