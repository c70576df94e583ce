"""Cross-engine single-fault equivalence: DEM predictions vs Pauli injection.

The adversarial core of the fast-path test suite.  For *every* fault site
the detector error model enumerates, the same physical Pauli (or classical
readout flip) is injected into the packed-tableau engine at the same
instruction position, and the resulting detector bit vector and logical
flip must equal the DEM mechanism's footprint and observable mask exactly
— detectors and logical parities are noiseless-deterministic, so this
comparison is exact, not statistical, and independent of measurement
randomness.

All injections for one experiment run as a single batched replay (one
batch lane per fault site plus one fault-free control lane), which keeps
the exhaustive d=3 sweep fast enough for tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from repro.decode.memory import MemoryExperiment
from repro.sim.batch import PauliInjection
from repro.sim.noise import NoiseModel, NoiseParams


def mechanism_sites(exp, noise):
    """The experiment's DEM and its ``[(mechanism id, site)]`` pairs."""
    dem = exp.detector_error_model(noise)
    sources = oracles.dem_sources(dem, exp.fault_table(noise), noise.params)
    return dem, [(m, site) for m, sites in enumerate(sources) for site in sites]


def run_injected(exp, dem, pairs):
    """One batched replay with fault ``pairs`` = [(mechanism id, site)].

    Returns ``(syndromes, flips)`` where row ``k`` is the detector vector /
    logical flip produced by injecting pair ``k`` alone; the final row is
    the fault-free control lane.
    """
    quantum = [(m, s) for m, s in pairs if s.kind != "readout"]
    readout = [(m, s) for m, s in pairs if s.kind == "readout"]
    n_shots = len(pairs) + 1
    injections = [
        PauliInjection(index=site.index, when=site.when, ops=site.pauli, shot=k)
        for k, (_, site) in enumerate(quantum)
    ]
    batch = exp.compiler.simulate_shots(
        exp.compiled,
        n_shots,
        seed=0,
        independent_streams=False,
        injections=injections,
    )
    for k, (_, site) in enumerate(readout):
        batch.outcomes[site.label][len(quantum) + k] ^= 1
    return exp.syndromes(batch), exp.measured_flips(batch), quantum + readout


def assert_all_sites_match(exp, noise):
    dem, pairs = mechanism_sites(exp, noise)
    assert dem.n_mechanisms > 0
    syndromes, flips, ordered = run_injected(exp, dem, pairs)
    assert not syndromes[-1].any() and not flips[-1], "control lane must be clean"
    for k, (m, site) in enumerate(ordered):
        expected = np.zeros(exp.n_detectors, dtype=np.uint8)
        expected[list(dem.detectors[m])] = 1
        assert np.array_equal(syndromes[k], expected), (site, dem.detectors[m])
        assert flips[k] == (int(dem.observables[m]) & 1), (site, dem.observables[m])


class TestExhaustiveSingleFault:
    def test_every_mechanism_matches_injection_z_memory(self):
        """Exhaustive: all ~1300 visible fault sites of a d=3 Z memory."""
        assert_all_sites_match(MemoryExperiment(distance=3), NoiseModel.uniform(2e-3))

    def test_every_mechanism_matches_injection_x_memory(self):
        """The transversal dual decodes the other sector — run it too."""
        assert_all_sites_match(
            MemoryExperiment(distance=3, basis="X"), NoiseModel.uniform(2e-3)
        )

    def test_every_mechanism_matches_injection_asymmetric_patch(self):
        """dx != dz exercises unequal sector sizes and boundary structure."""
        assert_all_sites_match(
            MemoryExperiment(dx=3, dz=5, rounds=2), NoiseModel.uniform(2e-3)
        )

    def test_near_term_sites_match_injection_sampled(self):
        """near_term adds t2 idle/dephase sites; check a deterministic sample.

        Dephasing sites are Z-type and thus invisible to the Z memory, so
        the X-basis experiment (where they fire detectors) is the
        interesting one.  A fixed subset of a few hundred sites keeps this
        in tier-1; the exhaustive uniform sweeps above cover every other
        channel kind.
        """
        exp = MemoryExperiment(distance=3, basis="X")
        dem, pairs = mechanism_sites(exp, NoiseModel.preset("near_term"))
        assert any(s.kind in ("idle", "dephase") for _, s in pairs)
        rng = np.random.default_rng(7)
        picks = rng.choice(len(pairs), size=min(300, len(pairs)), replace=False)
        chosen = [pairs[i] for i in picks]
        syndromes, flips, ordered = run_injected(exp, dem, chosen)
        for k, (m, site) in enumerate(ordered):
            expected = np.zeros(exp.n_detectors, dtype=np.uint8)
            expected[list(dem.detectors[m])] = 1
            assert np.array_equal(syndromes[k], expected), (site, dem.detectors[m])
            assert flips[k] == (int(dem.observables[m]) & 1), (site, dem.observables[m])

    def test_single_channel_models_match_injection(self):
        """Each channel kind alone must also match (catches cross-terms)."""
        exp = MemoryExperiment(distance=3)
        for params in (
            NoiseParams(p_prep=1e-3),
            NoiseParams(p_meas=1e-3),
            NoiseParams(p1=1e-3),
            NoiseParams(p2=1e-3),
            NoiseParams(t2_us=1e4),
        ):
            assert_all_sites_match(exp, NoiseModel(params))


@pytest.mark.slow
class TestExhaustiveSingleFaultSlow:
    def test_every_mechanism_matches_injection_d5(self):
        """The full d=5 sweep (~10k sites) runs nightly."""
        assert_all_sites_match(MemoryExperiment(distance=5), NoiseModel.uniform(2e-3))

    def test_every_near_term_site_matches_injection_d3(self):
        """Exhaustive near_term (idle + dephase included), both bases."""
        for basis in ("Z", "X"):
            assert_all_sites_match(
                MemoryExperiment(distance=3, basis=basis), NoiseModel.preset("near_term")
            )
