"""The fast sampling path, step by step: circuit -> DEM -> frame samples.

Demonstrates the detector-error-model subsystem on a d=5 memory
experiment:

1. compile the memory circuit once through the TISCC stack,
2. fold it with a noise model into a :class:`DetectorErrorModel` — one
   Pauli-frame walk over the compiled instruction stream, deduplicating
   every fault into (probability, detector footprint, observable mask)
   mechanisms,
3. draw 100 000 shots of detection events with the tableau-free
   :class:`FrameSampler` (bit-packed XORs over sampled mechanisms),
4. decode them with the union-find decoder,

and cross-checks the sampled per-detector marginals against the DEM's
analytic rates.  A batch this size is far beyond what the packed-tableau
noisy path does in comparable time (~25 s for just 2000 shots at d=7; see
``benchmarks/bench_frame_sampler.py`` for the measured ratio).

Run:  python examples/fast_sampling.py
"""

import time

import numpy as np

from repro.decode import MemoryExperiment
from repro.sim.frame import FrameSampler
from repro.sim.noise import NoiseModel

DISTANCE = 5
SHOTS = 100_000
NOISE = NoiseModel.preset("near_term")


def main() -> None:
    t0 = time.perf_counter()
    experiment = MemoryExperiment(distance=DISTANCE, basis="Z")
    print(
        f"compiled {experiment!r} "
        f"({len(experiment.compiled.circuit)} native instructions, "
        f"{time.perf_counter() - t0:.2f} s)"
    )

    t0 = time.perf_counter()
    table = experiment.fault_table(NOISE)
    dem = experiment.detector_error_model(NOISE)
    print(
        f"extracted {dem!r} from {table.n_sites} fault sites "
        f"({time.perf_counter() - t0:.2f} s, one-time per noise structure)"
    )

    sampler = FrameSampler(dem)
    t0 = time.perf_counter()
    samples = sampler.sample(SHOTS, seed=0)
    t_sample = time.perf_counter() - t0
    print(
        f"sampled {SHOTS} shots in {t_sample:.2f} s "
        f"({SHOTS / t_sample:,.0f} shots/s, no tableau involved)"
    )

    t0 = time.perf_counter()
    predicted = experiment.decoder_for(NOISE).decode_batch(samples.detectors)
    failures = int((samples.observables[:, 0] ^ predicted).sum())
    print(
        f"decoded in {time.perf_counter() - t0:.2f} s: "
        f"logical error rate {failures / SHOTS:.5f} "
        f"(raw, undecoded flip rate {samples.observables.mean():.5f})"
    )

    analytic = dem.detection_rates()
    observed = samples.detectors.mean(axis=0)
    print(
        f"analytic vs sampled detector marginals: "
        f"mean {analytic.mean():.5f} vs {observed.mean():.5f}, "
        f"max abs deviation {np.abs(analytic - observed).max():.5f}"
    )


if __name__ == "__main__":
    main()
