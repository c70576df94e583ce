"""Logical-error-rate pipeline: noisy batched sampling + union-find decoding.

Acceptance target for the decoding subsystem: a d=5 memory experiment with
1000 noisy shots must sample *and* decode in seconds on the packed batch
path, and the decoder must beat the raw (undecoded) logical flip rate at a
sub-threshold physical rate.

Run directly::

    python benchmarks/bench_logical_error.py            # full: d=5, 1000 shots
    python benchmarks/bench_logical_error.py --quick    # CI smoke: d=3, 300 shots
    python benchmarks/bench_logical_error.py --quick --json BENCH_logical_error.json

or via pytest (quick scale): ``pytest benchmarks/bench_logical_error.py -s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.decode import MemoryExperiment
from repro.sim.noise import NoiseModel

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table

#: Sub-threshold single-knob physical rate used for the decoder-wins check.
SUB_THRESHOLD_RATE = 3e-4


def run_pipeline(d: int = 5, shots: int = 1000, seed: int = 0) -> dict:
    """Time compile, noisy sampling, and batch decoding of one memory patch."""
    t0 = time.perf_counter()
    experiment = MemoryExperiment(distance=d, basis="Z")
    t_compile = time.perf_counter() - t0

    rows = []
    for model in (
        NoiseModel.uniform(SUB_THRESHOLD_RATE),
        NoiseModel.preset("near_term"),
    ):
        report = experiment.run(shots, noise=model, seed=seed)
        rows.append(
            {
                "noise": model.name,
                "edges": experiment.matching_graph(model).n_edges,
                "ler": report.logical_error_rate,
                "raw": report.raw_error_rate,
                "stderr": report.stderr,
                "defects_per_shot": report.mean_defects,
                "sim_seconds": report.sim_seconds,
                "decode_seconds": report.decode_seconds,
                "shots_per_second": shots / (report.sim_seconds + report.decode_seconds),
            }
        )
    return {
        "d": d,
        "shots": shots,
        "rounds": experiment.rounds,
        "detectors": experiment.n_detectors,
        "compile_seconds": t_compile,
        "runs": rows,
    }


def report(res: dict) -> None:
    print_table(
        f"noisy sampling + union-find decoding (d={res['d']}, {res['shots']} shots, "
        f"{res['detectors']} detectors, compile {res['compile_seconds']:.2f} s)",
        ["noise", "DEM edges", "LER", "raw", "defects/shot", "sim [s]", "decode [s]", "shots/s"],
        [
            [
                r["noise"],
                str(r["edges"]),
                f"{r['ler']:.4f}",
                f"{r['raw']:.4f}",
                f"{r['defects_per_shot']:.2f}",
                f"{r['sim_seconds']:.2f}",
                f"{r['decode_seconds']:.2f}",
                f"{r['shots_per_second']:.0f}",
            ]
            for r in res["runs"]
        ],
    )
    print("(target: sample + decode a d=5, 1000-shot batch in seconds)")


def test_logical_error_pipeline():
    """Quick-scale pytest entry: decoding must be fast and beat raw flips."""
    res = run_pipeline(d=3, shots=300)
    report(res)
    sub = res["runs"][0]
    assert sub["decode_seconds"] < 5.0
    assert sub["ler"] <= sub["raw"] + 3 * sub["stderr"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (d=3, 300 shots)"
    )
    parser.add_argument("--d", type=int, default=None, help="code distance override")
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)
    d = args.d if args.d is not None else (3 if args.quick else 5)
    shots = args.shots if args.shots is not None else (300 if args.quick else 1000)
    res = run_pipeline(d=d, shots=shots)
    report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res, fh, indent=2)
        print(f"wrote {args.json}")
    total = max(r["sim_seconds"] + r["decode_seconds"] for r in res["runs"])
    if not args.quick and total > 30.0:
        print("WARNING: pipeline slower than the seconds-scale acceptance target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
