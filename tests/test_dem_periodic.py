"""Periodic (template-tiled) DEM extraction: bit-identity and O(1) walks.

The periodic path must be invisible to everything downstream: for every
operating point it has to produce the *bit-identical* fault table and DEM
the full instruction walk produces — same site objects, same footprints,
same float64 probability bits — because decoder tie-breaks and checkpoint
content-hashes are sensitive to the last ulp.  This suite locks that down
across bases, distances, round counts, and noise structures (including a
hypothesis sweep over random rate combinations), and counts the stream
walks extraction makes to prove the fast path walks only the template
compile, however many rounds the target replays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.decode.memory import _TEMPLATE_ROUNDS, MemoryExperiment
from repro.sim import dem as dem_module
from repro.sim.dem import build_dem, extract_fault_table
from repro.sim.noise import NoiseModel, NoiseParams


def full_walk_table(exp, noise):
    """The oracle: a fresh full-walk extraction, bypassing every cache."""
    return extract_fault_table(
        exp.compiled.circuit,
        exp.compiled.initial_occupancy,
        noise.params,
        exp.detector_labels,
        [exp.observable_labels],
    )


def assert_tables_identical(periodic, full):
    """Field-level bit-identity of two fault tables (any construction)."""
    assert periodic.n_sites == full.n_sites
    assert periodic.sites == full.sites
    assert periodic.footprints == full.footprints
    assert np.array_equal(periodic.observables, full.observables)
    pk, pd = periodic.site_columns()
    fk, fd = full.site_columns()
    assert np.array_equal(pk, fk)
    assert np.array_equal(pd, fd)  # float64 durations, bitwise


def assert_dems_identical(dem_p, dem_f):
    assert np.array_equal(dem_p.probs, dem_f.probs)  # float64, bitwise
    assert dem_p.detectors == dem_f.detectors
    assert np.array_equal(dem_p.observables, dem_f.observables)


#: (d, rounds, profile, simd, expected extraction method); an id names the
#: schedule only when it is not the default.  SIMD scheduling keeps the
#: replay records, so SIMD memories tile too.  A pass_serial beam
#: (slow_junction) leaves the bulk non-periodic: the verifier rejects it and
#: the walk runs, with the same table either way.
BIT_IDENTITY_CASES = [
    pytest.param(
        d, rounds, "baseline", simd, "periodic", id=f"{d}-{rounds}" + ("-simd" if simd else "")
    )
    for d, rounds in [(3, 10), (3, 17), (5, 15)]
    for simd in (False, True)
] + [pytest.param(3, 10, "slow_junction", True, "full", id="3-10-slow_junction-simd")]


class TestBitIdentity:
    @pytest.mark.parametrize("preset", ["near_term", "projected"])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("d, rounds, profile, simd, method", BIT_IDENTITY_CASES)
    def test_periodic_matches_full_walk(self, preset, basis, d, rounds, profile, simd, method):
        noise = NoiseModel.preset(preset)
        exp = MemoryExperiment(
            distance=d, rounds=rounds, basis=basis, profile=profile, simd=simd
        )
        exp._fault_tables.clear()
        table = exp.fault_table(noise)
        assert table.method == method
        assert_tables_identical(table, full_walk_table(exp, noise))

    def test_dem_bit_identical(self):
        noise = NoiseModel.preset("near_term")
        exp = MemoryExperiment(distance=3, rounds=12)
        exp._fault_tables.clear()
        periodic = exp.fault_table(noise)
        assert periodic.method == "periodic"
        full = full_walk_table(exp, noise)
        assert_dems_identical(
            build_dem(periodic, noise.params), build_dem(full, noise.params)
        )

    def test_larger_distance_once(self):
        noise = NoiseModel.preset("projected")
        exp = MemoryExperiment(distance=7, rounds=10)
        exp._fault_tables.clear()
        periodic = exp.fault_table(noise)
        assert periodic.method == "periodic"
        assert_tables_identical(periodic, full_walk_table(exp, noise))

    def test_memoized_reextraction_identical(self):
        # A second extraction for the same compile reuses the memoized
        # structural verification — and must still be bit-identical.
        noise = NoiseModel.preset("near_term")
        exp = MemoryExperiment(distance=3, rounds=15)
        exp._fault_tables.clear()
        first = exp.fault_table(noise)
        exp._fault_tables.clear()
        second = exp.fault_table(noise)
        assert second.method == "periodic"
        assert_tables_identical(second, first)

    @settings(max_examples=8, deadline=None)
    @given(
        rounds=st.integers(min_value=_TEMPLATE_ROUNDS, max_value=24),
        basis=st.sampled_from(["Z", "X"]),
        p1=st.sampled_from([0.0, 1e-4, 2e-3]),
        p2=st.sampled_from([0.0, 5e-3]),
        p_prep=st.sampled_from([0.0, 1e-3]),
        p_meas=st.sampled_from([0.0, 4e-3]),
        t2=st.sampled_from([None, 50_000.0]),
        simd=st.booleans(),
    )
    def test_random_structures_bit_identical(
        self, rounds, basis, p1, p2, p_prep, p_meas, t2, simd
    ):
        noise = NoiseModel(
            NoiseParams(p1=p1, p2=p2, p_prep=p_prep, p_meas=p_meas, t2_us=t2)
        )
        exp = MemoryExperiment(distance=3, rounds=rounds, basis=basis, simd=simd)
        exp._fault_tables.clear()
        table = exp.fault_table(noise)
        assert_tables_identical(table, full_walk_table(exp, noise))
        exp._fault_tables.clear()


class TestVisitCounts:
    def test_extraction_walks_are_rounds_independent(self, monkeypatch):
        # After the one-time template walk, changing the round count must
        # not walk a single additional instruction: tiling is pure index
        # arithmetic over the template's arrays.  SIMD memories included.
        noise = NoiseModel.preset("near_term")
        d = 3
        walked: list[int] = []
        walk = dem_module._walk

        def counted(circuit, *args, **kwargs):
            walked.append(len(circuit))
            return walk(circuit, *args, **kwargs)

        monkeypatch.setattr(dem_module, "_walk", counted)
        for simd in (False, True):
            MemoryExperiment.clear_compile_cache()
            walked.clear()
            try:
                exp_small = MemoryExperiment(distance=d, rounds=3 * d, simd=simd)
                exp_small.fault_table(noise)
                after_template = list(walked)
                assert after_template  # the template's own walk
                for rounds in (10 * d, 10 * d + 1):
                    exp = MemoryExperiment(distance=d, rounds=rounds, simd=simd)
                    table = exp.fault_table(noise)
                    assert table.method == "periodic"
                assert walked == after_template
            finally:
                MemoryExperiment.clear_compile_cache()

    def test_short_memories_use_the_full_walk(self):
        noise = NoiseModel.preset("near_term")
        exp = MemoryExperiment(distance=3, rounds=_TEMPLATE_ROUNDS - 1)
        exp._fault_tables.clear()
        assert exp.fault_table(noise).method == "full"

    def test_template_rounds_reuses_the_template_walk(self):
        # At exactly the template's round count the target *is* the
        # template compile, so extraction returns its oracle table.
        noise = NoiseModel.preset("near_term")
        exp = MemoryExperiment(distance=3, rounds=_TEMPLATE_ROUNDS)
        exp._fault_tables.clear()
        table = exp.fault_table(noise)
        assert table.method == "full"
        assert_tables_identical(table, full_walk_table(exp, noise))


class TestMetadataAndRates:
    @pytest.fixture(scope="class")
    def periodic_pair(self):
        noise = NoiseModel.preset("near_term")
        exp = MemoryExperiment(distance=3, rounds=15)
        exp._fault_tables.clear()
        return exp, exp.fault_table(noise), noise

    def test_tiling_metadata(self, periodic_pair):
        _, table, _ = periodic_pair
        assert table.method == "periodic"
        assert table.sites_per_round > 0
        assert table.n_bulk_rounds > 0

    def test_full_walk_has_no_period(self, periodic_pair):
        exp, _, noise = periodic_pair
        full = full_walk_table(exp, noise)
        assert full.method == "full"
        assert full.sites_per_round is None

    def test_vectorized_rates_match_loop_oracles(self, periodic_pair):
        exp, table, noise = periodic_pair
        for dem in (
            build_dem(table, noise.params),
            build_dem(full_walk_table(exp, noise), noise.params),
        ):
            assert np.array_equal(dem.detection_rates(), oracles.detection_rates(dem))
            assert np.array_equal(dem.observable_rates(), oracles.observable_rates(dem))

    def test_kind_counts_match_between_paths(self, periodic_pair):
        exp, table, noise = periodic_pair
        assert table.kind_counts() == full_walk_table(exp, noise).kind_counts()
