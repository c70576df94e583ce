"""FrameSampler: reproducibility, chunk invariance, and statistical parity.

Two layers of lock-down for the fast sampling path:

* Seed plumbing — per-shot ``SeedSequence.spawn`` streams make sampling
  bit-reproducible and invariant under batch chunking, for the sampler
  itself, for ``MemoryExperiment.run(engine="frame")`` (whose chunk size the
  tests shrink by patching ``repro.decode.memory.CHUNK_BYTES``), and for
  ``logical_error_sweep``; a frame run never samples more than one chunk's
  byte budget at once.
* Distribution — frame samples must be statistically indistinguishable
  from the packed-tableau engine: summed per-detector chi-square on firing
  marginals, agreement with the DEM's analytic marginals, and decoded /
  raw logical error rates within overlapping Wilson intervals.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.decode import memory
from repro.decode.memory import MemoryExperiment
from repro.estimator.sweep import logical_error_sweep
from repro.sim import frame
from repro.sim.frame import FrameSampler
from repro.sim.noise import NoiseModel
from repro.util import native
from repro.util.stats import (
    detector_marginal_chi2,
    intervals_overlap,
    wilson_interval,
)


@pytest.fixture(scope="module")
def exp3():
    return MemoryExperiment(distance=3)


class TestSeedPlumbing:
    def test_same_seed_reproduces(self, exp3):
        model = NoiseModel.uniform(3e-3)
        a = exp3.sample_frame(64, noise=model, seed=5)
        b = exp3.sample_frame(64, noise=model, seed=5)
        assert np.array_equal(a.detectors, b.detectors)
        assert np.array_equal(a.observables, b.observables)
        c = exp3.sample_frame(64, noise=model, seed=6)
        assert not np.array_equal(a.detectors, c.detectors)

    def test_chunking_is_invisible(self, exp3, monkeypatch):
        """Any split into (offset, size) chunks equals the one-shot batch."""
        model = NoiseModel.uniform(5e-3)
        sampler = FrameSampler(exp3.detector_error_model(model))
        full = sampler.sample(100, seed=11)
        for splits in ([(0, 37), (37, 63)], [(0, 1), (1, 50), (51, 49)]):
            parts = [sampler.sample(n, seed=11, shot_offset=off) for off, n in splits]
            dets = np.concatenate([p.detectors for p in parts], axis=0)
            obs = np.concatenate([p.observables for p in parts], axis=0)
            assert np.array_equal(full.detectors, dets)
            assert np.array_equal(full.observables, obs)
        # The numpy kernel's internal Bernoulli chunk size must be invisible too.
        monkeypatch.setattr(frame, "CHUNK", 7)
        monkeypatch.setitem(native._loaded, frame.SOURCE, (None, "forced by the test"))
        small = FrameSampler(sampler.dem).sample(100, seed=11)
        assert np.array_equal(full.detectors, small.detectors)

    def test_run_results_independent_of_chunk_size(self, exp3, monkeypatch):
        model = NoiseModel.uniform(4e-3)
        baseline = exp3.run(500, noise=model, seed=9, engine="frame")
        for chunk in (100, 177, 500, 1000):
            monkeypatch.setattr(memory, "CHUNK_BYTES", chunk * exp3.n_detectors)
            rep = exp3.run(500, noise=model, seed=9, engine="frame")
            assert rep.failures == baseline.failures
            assert rep.raw_failures == baseline.raw_failures
            assert rep.mean_defects == pytest.approx(baseline.mean_defects)

    def test_noise_seed_varies_frame_realizations(self, exp3):
        """On the frame path noise_seed selects the streams (seed is fallback).

        All frame randomness is noise randomness, so fixing noise_seed
        pins the realization (like the tableau path's dedicated noise
        stream) and varying it must vary the draws.
        """
        model = NoiseModel.uniform(3e-3)
        a = exp3.run(300, noise=model, seed=0, noise_seed=1, engine="frame")
        b = exp3.run(300, noise=model, seed=99, noise_seed=1, engine="frame")
        c = exp3.run(300, noise=model, seed=0, noise_seed=2, engine="frame")
        assert (a.failures, a.raw_failures) == (b.failures, b.raw_failures)
        assert a.mean_defects != c.mean_defects or a.raw_failures != c.raw_failures

    def test_sweep_reproducible_regardless_of_chunking(self, monkeypatch):
        """Fixed seed -> identical sweep, any chunking."""
        kwargs = dict(rates=[2e-3], shots=400, rounds=2, seed=21, engine="frame")
        baseline = logical_error_sweep([3], **kwargs)
        n_detectors = MemoryExperiment(distance=3, rounds=2).n_detectors
        for chunk in (64, 150, 400):
            monkeypatch.setattr(memory, "CHUNK_BYTES", chunk * n_detectors)
            swept = logical_error_sweep([3], **kwargs)
            assert [r.failures for r in swept] == [r.failures for r in baseline]
            assert [r.raw_failures for r in swept] == [r.raw_failures for r in baseline]


class TestChunkBudget:
    """A frame run holds one chunk's detector matrix at a time, however many
    shots it draws: at most ``CHUNK_BYTES // n_detectors`` shots per chunk."""

    def test_sampler_calls_stay_within_the_byte_budget(self, monkeypatch):
        exp = MemoryExperiment(distance=5, rounds=100)  # 1,212 detectors
        model = NoiseModel.uniform(5e-4)
        shots = 30_000
        step = memory.CHUNK_BYTES // exp.n_detectors
        assert step < shots, "the run must span more than one chunk"
        calls = []
        sample = FrameSampler.sample

        def recording_sample(self, n_shots, *args, **kwargs):
            calls.append(n_shots)
            return sample(self, n_shots, *args, **kwargs)

        monkeypatch.setattr(FrameSampler, "sample", recording_sample)
        chunked = exp.run(shots, noise=model, seed=1, engine="frame")
        assert max(calls) <= step and sum(calls) == shots
        assert len(calls) == -(-shots // step)

        monkeypatch.setattr(memory, "CHUNK_BYTES", shots * exp.n_detectors)
        del calls[:]
        whole = exp.run(shots, noise=model, seed=1, engine="frame")
        assert calls == [shots]
        assert (chunked.failures, chunked.raw_failures, chunked.mean_defects) == (
            whole.failures,
            whole.raw_failures,
            whole.mean_defects,
        )

    @pytest.mark.slow
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the child's VmHWM")
    def test_d11_cli_run_peak_rss_is_bounded(self):
        """Memory gate: a 400,000-shot d=11 ``tiscc lfr`` cell stays under
        200 MB peak RSS (sampled as one block it peaks near 350 MB).

        The child reports its own high-water mark, so the C compiler runs
        that build the native kernels do not count.  It reads ``VmHWM``
        rather than ``RUSAGE_SELF``: Linux carries ``ru_maxrss`` over from
        the forking process, so under a large pytest process it would
        report the parent's peak."""
        code = (
            "import sys\n"
            "from repro.__main__ import main\n"
            "code = main(['lfr', '--distances', '11', '--noise', 'near_term',"
            " '--shots', '400000'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line for line in fh if line.startswith('VmHWM:')).strip())\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=1800
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        peak_mb = int(proc.stdout.split("VmHWM:")[-1].split()[0]) / 1024
        assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"


class TestEngineBehaviour:
    def test_frame_engine_reports_itself(self, exp3):
        rep = exp3.run(50, noise=NoiseModel.uniform(1e-3), seed=0, engine="frame")
        assert rep.engine == "frame"
        assert rep.to_dict()["engine"] == "frame"
        rep = exp3.run(50, noise=NoiseModel.uniform(1e-3), seed=0)
        assert rep.engine == "tableau"

    def test_unknown_engine_rejected(self, exp3):
        with pytest.raises(ValueError, match="engine"):
            exp3.run(10, engine="statevector")

    @pytest.mark.parametrize("engine", ["frame", "tableau"])
    @pytest.mark.parametrize("shots", [0, -3])
    def test_fewer_than_one_shot_rejected(self, exp3, engine, shots):
        """Regression: the frame engine crashed in range() or divided by
        zero on 0 shots, and reported n_shots=-3 for -3."""
        with pytest.raises(ValueError, match="need at least one shot"):
            exp3.run(shots, noise=NoiseModel.uniform(1e-3), engine=engine)

    def test_noisy_non_clifford_memory_raises(self):
        """Both engines decode over the DEM graph, so neither runs a
        non-Clifford schedule with noise: each raises the one-line error."""
        from repro.sim.dem import DemExtractionError

        # Compiled cores are shared per (distance, rounds, basis); isolate
        # this experiment so splicing a gate below cannot leak to (or pick
        # up state from) other tests' experiments.
        MemoryExperiment.clear_compile_cache()
        try:
            exp = MemoryExperiment(distance=3, rounds=1)
            # Splice a non-Clifford instruction into the compiled stream, so
            # no detector error model exists for it.
            site = exp.compiled.circuit.sorted_instructions()[0].sites[0]
            exp.compiled.circuit.append("Z_pi/8", (site,), t=0.05, duration=0.1)
            for engine in ("frame", "tableau"):
                with pytest.raises(DemExtractionError, match="non-Clifford") as err:
                    exp.run(20, noise=NoiseModel.uniform(1e-3), seed=1, engine=engine)
                assert "\n" not in str(err.value)
        finally:
            MemoryExperiment.clear_compile_cache()

    def test_frame_and_tableau_agree_at_zero_noise(self, exp3):
        for noise in (None, NoiseModel.preset("ideal")):
            rep = exp3.run(30, noise=noise, seed=2, engine="frame")
            assert rep.engine == "frame"
            assert rep.failures == 0 and rep.raw_failures == 0
            assert rep.mean_defects == 0.0


def assert_engines_indistinguishable(distance, model, shots, seed):
    """Chi-square detector marginals + Wilson-interval LER/raw agreement."""
    exp = MemoryExperiment(distance=distance)
    batch = exp.sample(shots, noise=model, seed=seed)
    syn_t = exp.syndromes(batch)
    raw_t = exp.measured_flips(batch)
    frames = exp.sample_frame(shots, noise=model, seed=seed + 1)

    stat, dof, p_value = detector_marginal_chi2(
        syn_t.sum(axis=0), shots, frames.detectors.sum(axis=0), shots
    )
    assert dof > 0
    assert p_value > 1e-4, (
        f"detector marginals distinguishable: chi2={stat:.1f}/{dof} (p={p_value:.2g})"
    )

    # Frame marginals must also track the DEM's analytic rates.
    analytic = exp.detector_error_model(model).detection_rates()
    observed = frames.detectors.mean(axis=0)
    sigma = np.sqrt(np.maximum(analytic * (1 - analytic), 1e-12) / shots)
    assert np.all(np.abs(observed - analytic) < 6 * sigma + 1e-9)

    raw_f = frames.observables[:, 0]
    assert intervals_overlap(
        wilson_interval(int(raw_t.sum()), shots, z=3.0),
        wilson_interval(int(raw_f.sum()), shots, z=3.0),
    ), "raw logical flip rates disagree"

    decoder = exp.decoder_for(model)
    fail_t = int((raw_t ^ decoder.decode_batch(syn_t)).sum())
    fail_f = int((raw_f ^ decoder.decode_batch(frames.detectors)).sum())
    assert intervals_overlap(
        wilson_interval(fail_t, shots, z=3.0), wilson_interval(fail_f, shots, z=3.0)
    ), f"decoded LERs disagree: {fail_t}/{shots} vs {fail_f}/{shots}"


class TestStatisticalEquivalence:
    @pytest.mark.parametrize(
        "model",
        [NoiseModel.uniform(2e-3), NoiseModel.preset("near_term")],
        ids=["uniform", "near_term"],
    )
    def test_engines_agree_d3(self, model):
        assert_engines_indistinguishable(3, model, shots=4000, seed=17)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "model",
        [NoiseModel.uniform(2e-3), NoiseModel.preset("near_term")],
        ids=["uniform", "near_term"],
    )
    def test_engines_agree_d5(self, model):
        assert_engines_indistinguishable(5, model, shots=4000, seed=29)
