"""DEM frame sampler vs packed-tableau noisy sampling: the fast-path bench.

Acceptance target for the detector-error-model subsystem: at d=7 with 2000
shots, sampling detection events from the DEM (extraction amortized) must
be at least **20x** faster than the packed-tableau noisy path (sampling +
syndrome extraction), while remaining statistically indistinguishable —
summed per-detector chi-square on firing marginals and decoded/raw logical
error rates inside overlapping Wilson intervals.  The sampler must run its
native kernel (``sampler.kernel == "native"``), so a broken kernel build
fails here instead of silently timing the numpy fallback.  The speedup,
the kernel and the agreement statistics land in the JSON artifact.

Run directly::

    python benchmarks/bench_frame_sampler.py            # full: d=7, 2000 shots, >=20x
    python benchmarks/bench_frame_sampler.py --quick    # CI smoke: d=5, 500 shots, >=5x
    python benchmarks/bench_frame_sampler.py --json BENCH_frame_sampler.json

or via pytest (quick scale): ``pytest benchmarks/bench_frame_sampler.py -s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.decode import MemoryExperiment
from repro.sim.frame import FrameSampler
from repro.sim.noise import NoiseModel
from repro.util.stats import detector_marginal_chi2, intervals_overlap, wilson_interval

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table

#: Single-knob physical rate for the headline comparison.
RATE = 1e-3


def run_comparison(d: int = 7, shots: int = 2000, seed: int = 0) -> dict:
    """Time both engines on one memory patch and compare their samples."""
    model = NoiseModel.uniform(RATE)
    t0 = time.perf_counter()
    experiment = MemoryExperiment(distance=d, basis="Z")
    t_compile = time.perf_counter() - t0

    # Reference: packed-tableau noisy sampling + syndrome extraction.
    t0 = time.perf_counter()
    batch = experiment.sample(shots, noise=model, seed=seed)
    syndromes = experiment.syndromes(batch)
    raw_t = experiment.measured_flips(batch)
    t_tableau = time.perf_counter() - t0

    # Fast path: one-time DEM extraction, then tableau-free frame sampling.
    t0 = time.perf_counter()
    dem = experiment.detector_error_model(model)
    sampler = FrameSampler(dem)
    t_extract = time.perf_counter() - t0
    t0 = time.perf_counter()
    frames = sampler.sample(shots, seed=seed + 1)
    t_frame = time.perf_counter() - t0

    # Statistical agreement between the engines.
    stat, dof, p_value = detector_marginal_chi2(
        syndromes.sum(axis=0), shots, frames.detectors.sum(axis=0), shots
    )
    raw_f = frames.observables[:, 0]
    decoder = experiment.decoder_for(model)
    fail_t = int((raw_t ^ decoder.decode_batch(syndromes)).sum())
    fail_f = int((raw_f ^ decoder.decode_batch(frames.detectors)).sum())
    wilson_t = wilson_interval(fail_t, shots, z=3.0)
    wilson_f = wilson_interval(fail_f, shots, z=3.0)

    return {
        "d": d,
        "shots": shots,
        "rate": RATE,
        "rounds": experiment.rounds,
        "detectors": experiment.n_detectors,
        "fault_sites": experiment.fault_table(model).n_sites,
        "mechanisms": dem.n_mechanisms,
        "kernel": sampler.kernel,
        "fallback_reason": sampler.fallback_reason,
        "compile_seconds": t_compile,
        "tableau_seconds": t_tableau,
        "extract_seconds": t_extract,
        "frame_seconds": t_frame,
        "speedup": t_tableau / t_frame,
        "speedup_with_extraction": t_tableau / (t_extract + t_frame),
        "tableau_shots_per_second": shots / t_tableau,
        "frame_shots_per_second": shots / t_frame,
        "chi2": stat,
        "chi2_dof": dof,
        "chi2_p_value": p_value,
        "ler_tableau": fail_t / shots,
        "ler_frame": fail_f / shots,
        "wilson_tableau": wilson_t,
        "wilson_frame": wilson_f,
        "ler_wilson_overlap": intervals_overlap(wilson_t, wilson_f),
        "raw_tableau": float(raw_t.mean()),
        "raw_frame": float(raw_f.mean()),
    }


def report(res: dict) -> None:
    print_table(
        f"frame sampler vs packed-tableau noisy path "
        f"(d={res['d']}, {res['shots']} shots, uniform(p={res['rate']:g}), "
        f"{res['detectors']} detectors, {res['fault_sites']} fault sites -> "
        f"{res['mechanisms']} mechanisms)",
        ["engine", "sample [s]", "shots/s", "LER", "raw"],
        [
            [
                "packed tableau",
                f"{res['tableau_seconds']:.3f}",
                f"{res['tableau_shots_per_second']:.0f}",
                f"{res['ler_tableau']:.4f}",
                f"{res['raw_tableau']:.4f}",
            ],
            [
                f"DEM frame ({res['kernel']})",
                f"{res['frame_seconds']:.3f}",
                f"{res['frame_shots_per_second']:.0f}",
                f"{res['ler_frame']:.4f}",
                f"{res['raw_frame']:.4f}",
            ],
        ],
    )
    print(
        f"speedup: {res['speedup']:.1f}x sampling "
        f"({res['speedup_with_extraction']:.1f}x including the one-time "
        f"{res['extract_seconds']:.2f} s DEM extraction)"
    )
    print(
        f"agreement: chi2 {res['chi2']:.1f}/{res['chi2_dof']} dof "
        f"(p = {res['chi2_p_value']:.3f}), LER Wilson overlap: "
        f"{res['ler_wilson_overlap']}"
    )


def test_frame_sampler_speedup():
    """Quick-scale pytest entry: the fast path must win and agree."""
    res = run_comparison(d=5, shots=500)
    report(res)
    assert res["kernel"] == "native", res["fallback_reason"]
    assert res["speedup"] >= 5.0
    assert res["chi2_p_value"] > 1e-4
    assert res["ler_wilson_overlap"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (d=5, 500 shots, >=5x)"
    )
    parser.add_argument("--d", type=int, default=None, help="code distance override")
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)
    d = args.d if args.d is not None else (5 if args.quick else 7)
    shots = args.shots if args.shots is not None else (500 if args.quick else 2000)
    res = run_comparison(d=d, shots=shots, seed=args.seed)
    report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res, fh, indent=2)
        print(f"wrote {args.json}")
    target = 5.0 if args.quick else 20.0
    if res["kernel"] != "native":
        print(f"FAIL: the sampler ran its {res['kernel']} kernel: {res['fallback_reason']}")
        return 1
    ok = (
        res["speedup"] >= target
        and res["chi2_p_value"] > 1e-4
        and res["ler_wilson_overlap"]
    )
    if not ok:
        print(
            f"FAIL: need >= {target:.0f}x speedup with indistinguishable marginals "
            f"(got {res['speedup']:.1f}x, p = {res['chi2_p_value']:.3g}, "
            f"overlap = {res['ler_wilson_overlap']})"
        )
        return 1
    print(f"OK: >= {target:.0f}x speedup on the native kernel with statistically matching samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
