"""Detector-error-model extraction: structure, determinism, and properties.

The DEM is the foundation of the fast sampling path, and a silently wrong
DEM produces plausible-looking but false logical error rates — so beyond
the cross-engine injection tests (test_dem_equivalence.py) this suite
locks down the structural invariants: extraction is deterministic for a
fixed circuit + noise pair, a zero-rate model yields an empty DEM,
readout-only noise produces exactly the time-edge mechanisms the matching
graph predicts, and probabilities/footprints are well-formed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.decode.memory import MemoryExperiment
from repro.sim.dem import (
    DemExtractionError,
    build_dem,
    dem_structure_key,
    extract_dem,
    extract_fault_table,
)
from repro.sim.noise import NoiseModel, NoiseParams


@pytest.fixture(scope="module")
def exp3():
    return MemoryExperiment(distance=3)


@pytest.fixture(scope="module")
def exp3x():
    return MemoryExperiment(distance=3, basis="X")


def fresh_dem(exp, noise):
    """Extract without MemoryExperiment's fault-table cache."""
    return extract_dem(
        exp.compiled.circuit,
        exp.compiled.initial_occupancy,
        noise,
        exp.detector_labels,
        [exp.observable_labels],
    )


def fresh_sources(exp, noise):
    """A fresh extraction's DEM and the fault sites of each of its mechanisms."""
    table = extract_fault_table(
        exp.compiled.circuit,
        exp.compiled.initial_occupancy,
        noise.params,
        exp.detector_labels,
        [exp.observable_labels],
    )
    dem = build_dem(table, noise.params)
    return dem, oracles.dem_sources(dem, table, noise.params)


class TestStructure:
    def test_zero_noise_yields_empty_dem(self, exp3):
        dem = exp3.detector_error_model(NoiseModel.preset("ideal"))
        assert dem.n_mechanisms == 0
        assert dem.n_detectors == exp3.n_detectors
        assert np.all(dem.detection_rates() == 0.0)
        assert np.all(dem.observable_rates() == 0.0)

    def test_scaled_to_zero_yields_empty_dem(self, exp3):
        # The satellite property in its sharpest form: scaling any model to
        # zero must kill every mechanism, not just shrink probabilities.
        dem = fresh_dem(exp3, NoiseModel.preset("near_term").scaled(0))
        assert dem.n_mechanisms == 0

    def test_mechanisms_are_well_formed(self, exp3):
        dem = exp3.detector_error_model(NoiseModel.uniform(2e-3))
        assert dem.n_mechanisms > 0
        assert np.all(dem.probs > 0) and np.all(dem.probs < 0.5)
        for dets, obs in zip(dem.detectors, dem.observables):
            assert list(dets) == sorted(set(dets))
            assert all(0 <= d < dem.n_detectors for d in dets)
            assert int(obs) < (1 << dem.n_observables)
            assert dets or int(obs)  # invisible mechanisms are dropped

    def test_readout_only_noise_gives_time_edges(self, exp3):
        """p_meas alone: each face-ancilla readout flips two stacked slices.

        A readout flip of face f's round-t outcome fires detectors
        (f, t) and (f, t+1) — the matching graph's time edges — and never
        the logical observable; final transversal data readouts behave like
        space edges in the last slice (at most two faces, observable flip
        only on the logical support).
        """
        dem, sources = fresh_sources(exp3, NoiseModel(NoiseParams(p_meas=1e-3)))
        n_faces = len(exp3.faces)
        time_pairs = {
            (t * n_faces + f, (t + 1) * n_faces + f)
            for t in range(exp3.rounds)
            for f in range(n_faces)
        }
        seen_pairs = set()
        for dets, obs, sites in zip(dem.detectors, dem.observables, sources):
            assert all(site.kind == "readout" for site in sites)
            assert 1 <= len(dets) <= 2
            if dets in time_pairs:
                seen_pairs.add(dets)
                assert int(obs) == 0
                assert dem.probs[list(dem.detectors).index(dets)] == pytest.approx(1e-3)
            else:
                # Final-data readouts live in the last time slice.
                assert all(d >= exp3.rounds * n_faces for d in dets)
        assert seen_pairs == time_pairs

    def test_dephasing_only_mechanisms(self, exp3, exp3x):
        """Pure-dephasing DEMs are syndrome-type in both bases.

        Data-qubit Z faults commute through the ZZ entanglers and cannot
        fire Z-sector detectors — but *ancilla* dephasing between the
        measure ion's Y_pi/4 basis rotations becomes an X component at
        readout, so dephasing-only noise still produces (injection-
        verified) syndrome-error mechanisms in both memory bases.
        """
        dephase_only = NoiseModel(NoiseParams(t2_us=1e4))
        dem_z, sources_z = fresh_sources(exp3, dephase_only)
        dem_x = fresh_dem(exp3x, dephase_only)
        assert dem_z.n_mechanisms > 0
        assert dem_x.n_mechanisms > 0
        assert {s.kind for srcs in sources_z for s in srcs} <= {"idle", "dephase"}
        # Footprints never depend on the rate values, only the structure.
        assert fresh_dem(exp3, NoiseModel(NoiseParams(t2_us=37.0))).detectors == (
            dem_z.detectors
        )

    def test_structure_key_reuses_fault_table(self, exp3):
        table_a = exp3.fault_table(NoiseModel.uniform(1e-3))
        table_b = exp3.fault_table(NoiseModel.uniform(5e-3))
        assert table_a is table_b  # same structure -> one extraction
        key_nt = dem_structure_key(NoiseModel.preset("near_term").params)
        key_uni = dem_structure_key(NoiseModel.uniform(1e-3).params)
        assert key_nt != key_uni  # t2 changes the site structure

    def test_non_clifford_schedule_raises(self):
        from repro.core.compiler import TISCC

        compiler = TISCC(dx=2, dz=2, tile_rows=1, tile_cols=1, rounds=1)
        compiled = compiler.compile([("InjectT", (0, 0))], operation="InjectT")
        with pytest.raises(DemExtractionError, match="non-Clifford"):
            extract_fault_table(
                compiled.circuit,
                compiled.initial_occupancy,
                NoiseModel.uniform(1e-3).params,
                [],
                [],
            )

    def test_to_dict_round_trips_mechanisms(self, exp3):
        dem = exp3.detector_error_model(NoiseModel.uniform(1e-3))
        d = dem.to_dict()
        assert d["n_mechanisms"] == dem.n_mechanisms
        assert len(d["mechanisms"]) == dem.n_mechanisms
        assert d["mechanisms"][0]["detectors"] == list(dem.detectors[0])


class TestProperties:
    @given(p=st.floats(min_value=1e-6, max_value=0.05))
    @settings(max_examples=10, deadline=None)
    def test_extraction_is_deterministic(self, exp3, p):
        """Two independent extractions of the same circuit+noise agree exactly."""
        model = NoiseModel.uniform(p)
        a = fresh_dem(exp3, model)
        b = fresh_dem(exp3, model)
        assert a.detectors == b.detectors
        assert np.array_equal(a.observables, b.observables)
        assert np.array_equal(a.probs, b.probs)

    @given(p=st.floats(min_value=0.0, max_value=0.05))
    @settings(max_examples=8, deadline=None)
    def test_any_model_scaled_to_zero_is_empty(self, exp3, p):
        assert fresh_dem(exp3, NoiseModel.uniform(p).scaled(0)).n_mechanisms == 0

    @given(seed=st.integers(0, 2**31), shots=st.integers(1, 64))
    @settings(max_examples=10, deadline=None)
    def test_zero_noise_frames_decode_trivially(self, exp3, seed, shots):
        """Frame-sampled syndromes at zero noise are empty and decode to 0."""
        ideal = NoiseModel.preset("ideal")
        samples = exp3.sample_frame(shots, noise=ideal, seed=seed)
        assert not samples.detectors.any()
        assert not samples.observables.any()
        assert not exp3.decoder_for(ideal).decode_batch(samples.detectors).any()

    @given(p=st.floats(min_value=1e-5, max_value=0.02))
    @settings(max_examples=8, deadline=None)
    def test_rate_sweeps_share_footprints(self, exp3, p):
        """Only probabilities change with the rate knob, never footprints."""
        base = exp3.detector_error_model(NoiseModel.uniform(1e-3))
        swept = exp3.detector_error_model(NoiseModel.uniform(p))
        assert swept.detectors == base.detectors
        assert np.array_equal(swept.observables, base.observables)


class TestBuildDemOracle:
    """The columnar fold equals the per-site dictionary loop it replaced."""

    @pytest.mark.parametrize(
        "noise",
        [NoiseModel.preset("near_term"), NoiseModel.uniform(2e-3), NoiseModel.uniform(0.6)],
        ids=["near_term", "uniform", "rate-above-half"],
    )
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("rounds", [3, 12], ids=["full", "periodic"])
    def test_fold_matches_the_loop_oracle(self, noise, basis, rounds):
        exp = MemoryExperiment(distance=3, rounds=rounds, basis=basis)
        table = exp.fault_table(noise)
        assert table.method == ("full" if rounds == 3 else "periodic")
        fast = build_dem(table, noise.params)
        slow = oracles.build_dem(table, noise.params)
        assert fast.n_mechanisms > 0
        assert np.array_equal(fast.probs, slow.probs)  # float64, bitwise
        assert fast.detectors == slow.detectors
        assert np.array_equal(fast.observables, slow.observables)
