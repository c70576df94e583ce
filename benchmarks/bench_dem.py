"""Periodic DEM extraction vs the full instruction walk: the tentpole bench.

Acceptance target for the rounds-independent extraction path: at d=7 with
``rounds = 10 d``, tiling a cached round template onto the target circuit
must be at least **10x** faster than walking every instruction, and the
extraction time must stay flat — at most **1.2x** — when the round count
doubles (the path is O(prologue + one bulk round + epilogue) plus a
rate-independent structural verification that is memoized per compile).
The bench times both extraction regimes:

* **cold** — first extraction for a compile: runs the full structural
  verification (geometry, bitwise head/tail equality, detector/label
  translation) before tiling; this is what the speedup gate measures.
* **warm** — any later extraction for the same compile (e.g. another noise
  preset with the same structure key): the memoized verdict is reused and
  the cost is one lazy table construction; this is what the flatness gate
  measures, since it is the steady-state cost the estimator pays.

The bench also re-verifies on the spot that the tiled table is bit-identical
to the full walk, and it fails unless the walk ran the native kernel
(``repro/sim/_dem_kernel.c``): the full walk is the baseline of the
speedup gate, and the Python fallback would inflate it.  A ``build_dem`` row
times the fold of the tiled table into a DEM (median of 5) on the kernel's
native fold against the forced NumPy fallback, compares the two DEMs bit for
bit, and fails unless the fold ran native.  Both round counts
are timed *interleaved* in the same process so slow-container noise hits
both sides equally.  It measures two rows under the same gates: the
compiler's own schedule (``simd=False``) and the SIMD beam-pass schedule
(``simd=True``), which keeps the replay records and so tiles the same way.

Run directly::

    python benchmarks/bench_dem.py                     # full: d=7, rounds=70 vs 140
    python benchmarks/bench_dem.py --quick             # CI smoke: d=5, rounds=25 vs 50
    python benchmarks/bench_dem.py --min-speedup 10 --json BENCH_dem.json

or via pytest (quick scale): ``pytest benchmarks/bench_dem.py -s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from unittest import mock

import numpy as np

from repro.decode import MemoryExperiment
from repro.decode.memory import _periodic_template
from repro.sim.dem import SOURCE, build_dem, dem_structure_key, extract_fault_table
from repro.sim.noise import NoiseModel
from repro.util import native

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table

#: Noise preset for the headline comparison (dephasing on, so the idle-gap
#: verification — the most expensive periodic precondition — is exercised).
PRESET = "near_term"

#: Interleaved timing repetitions per round count (cold / warm).
COLD_REPS = 7
WARM_REPS = 100

#: Timed ``build_dem`` calls per fold (the row reports their median).
FOLD_REPS = 5

#: Required flatness: warm extraction time ratio under a 2x rounds doubling
#: (full scale only; quick scale reports it without gating).
FLATNESS_LIMIT = 1.2


def _time_extraction(experiment: MemoryExperiment, model: NoiseModel, cold: bool) -> float:
    """One extraction through the public path, in seconds.

    ``cold`` also evicts the memoized structural-verification verdict, so
    the timed call re-proves the periodic preconditions from scratch.
    """
    experiment._fault_tables.pop(dem_structure_key(model.params), None)
    if cold:
        cols = experiment.compiled.circuit.sorted_columns()
        if hasattr(cols, "_periodic_check"):
            del cols._periodic_check
    t0 = time.perf_counter()
    table = experiment.fault_table(model)
    dt = time.perf_counter() - t0
    if table.method != "periodic":
        raise RuntimeError(
            f"expected the periodic path at rounds={experiment.rounds}, "
            f"got method={table.method!r}"
        )
    return dt


def _time_folds(table, params) -> dict:
    """``build_dem`` on the native fold and on the forced NumPy fallback.

    Medians of :data:`FOLD_REPS` calls each, after one untimed call that
    builds the table's lazy columns, plus whether both DEMs agree bit for
    bit.
    """
    models, seconds = {}, {}
    for fold in ("native", "numpy"):
        # The NumPy fold runs while the kernel's loader reports a failure.
        forced = {SOURCE: (None, "forced by bench_dem")} if fold == "numpy" else {}
        with mock.patch.dict(native._loaded, forced):
            models[fold] = build_dem(table, params)
            times = []
            for _ in range(FOLD_REPS):
                t0 = time.perf_counter()
                build_dem(table, params)
                times.append(time.perf_counter() - t0)
        seconds[fold] = statistics.median(times)
    fast, slow = models["native"], models["numpy"]
    return {
        "fold_kernel": fast.kernel,
        "fold_fallback_reason": fast.fallback_reason,
        "build_dem_seconds": seconds["native"],
        "build_dem_numpy_seconds": seconds["numpy"],
        "fold_identical": bool(
            fast.probs.tobytes() == slow.probs.tobytes()
            and fast.detectors == slow.detectors
            and np.array_equal(fast.observables, slow.observables)
        ),
    }


def run_comparison(d: int = 7, rounds: int | None = None, verify: bool = True) -> list[dict]:
    """One :func:`compare_paths` row without and one with SIMD scheduling."""
    return [compare_paths(d, rounds, simd, verify) for simd in (False, True)]


def compare_paths(d: int, rounds: int | None, simd: bool, verify: bool = True) -> dict:
    """Time both extraction paths on one memory patch at R and 2R rounds."""
    rounds = rounds if rounds is not None else 10 * d
    model = NoiseModel.preset(PRESET)

    t0 = time.perf_counter()
    exp_r = MemoryExperiment(distance=d, rounds=rounds, basis="Z", simd=simd)
    exp_2r = MemoryExperiment(distance=d, rounds=2 * rounds, basis="Z", simd=simd)
    t_compile = time.perf_counter() - t0

    # One-time template build (a small-rounds compile + full walk), shared
    # by every later periodic extraction of this patch/basis/noise shape.
    t0 = time.perf_counter()
    template = _periodic_template(exp_r.spec, model.params)
    t_template = time.perf_counter() - t0
    if template is None or not template.usable:
        raise RuntimeError("periodic template unavailable for this configuration")

    # Reference: the full instruction walk at R rounds (the oracle).
    t0 = time.perf_counter()
    full = extract_fault_table(
        exp_r.compiled.circuit,
        exp_r.compiled.initial_occupancy,
        model.params,
        exp_r.detector_labels,
        [exp_r.observable_labels],
    )
    t_full = time.perf_counter() - t0

    # Fast path, interleaved at R and 2R rounds.
    for exp in (exp_r, exp_2r):
        _time_extraction(exp, model, cold=True)  # warm-up (allocator, caches)
    cold = {rounds: [], 2 * rounds: []}
    for _ in range(COLD_REPS):
        for exp in (exp_r, exp_2r):
            cold[exp.rounds].append(_time_extraction(exp, model, cold=True))
    warm = {rounds: [], 2 * rounds: []}
    for _ in range(WARM_REPS):
        for exp in (exp_r, exp_2r):
            warm[exp.rounds].append(_time_extraction(exp, model, cold=False))
    t_cold = sum(cold[rounds]) / COLD_REPS
    t_cold_2x = sum(cold[2 * rounds]) / COLD_REPS
    t_warm = sum(warm[rounds]) / WARM_REPS
    t_warm_2x = sum(warm[2 * rounds]) / WARM_REPS

    periodic = exp_r.fault_table(model)
    folds = _time_folds(periodic, model.params)
    identical = None
    if verify:
        kp, dp = periodic.site_columns()
        kf, df = full.site_columns()
        identical = bool(
            np.array_equal(kp, kf)
            and np.array_equal(dp, df)
            and periodic.sites == full.sites
            and periodic.footprints == full.footprints
            and np.array_equal(periodic.observables, full.observables)
        )

    return {
        "kernel": full.kernel,
        "fallback_reason": full.fallback_reason,
        "preset": PRESET,
        "simd": simd,
        "d": d,
        "rounds": rounds,
        "rounds_2x": 2 * rounds,
        "n_sites": full.n_sites,
        "sites_per_round": periodic.sites_per_round,
        "n_bulk_rounds": periodic.n_bulk_rounds,
        "compile_seconds": t_compile,
        "template_seconds": t_template,
        "full_seconds": t_full,
        "cold_seconds": t_cold,
        "cold_seconds_2x": t_cold_2x,
        "warm_seconds": t_warm,
        "warm_seconds_2x": t_warm_2x,
        "speedup": t_full / t_cold,
        "flatness": t_warm_2x / t_warm,
        "flatness_cold": t_cold_2x / t_cold,
        "bit_identical": identical,
        **folds,
    }


def passes(res: dict, min_speedup: float, gate_flatness: bool) -> bool:
    """The gates every row must meet: bit-identity of the tables and of the
    two folds' DEMs, speedup, warm flatness."""
    ok = bool(res["bit_identical"]) and res["fold_identical"] and res["speedup"] >= min_speedup
    return ok and (not gate_flatness or res["flatness"] <= FLATNESS_LIMIT)


def report(res: dict) -> None:
    print_table(
        f"periodic tiling vs full walk (d={res['d']}, {res['preset']}, "
        f"simd {'on' if res['simd'] else 'off'}, {res['kernel']} kernel, "
        f"{res['n_sites']} fault sites, {res['sites_per_round']} per round)",
        ["extraction", "rounds", "seconds"],
        [
            ["full walk", str(res["rounds"]), f"{res['full_seconds']:.3f}"],
            ["periodic cold", str(res["rounds"]), f"{res['cold_seconds']:.4f}"],
            ["periodic cold", str(res["rounds_2x"]), f"{res['cold_seconds_2x']:.4f}"],
            ["periodic warm", str(res["rounds"]), f"{res['warm_seconds']:.6f}"],
            ["periodic warm", str(res["rounds_2x"]), f"{res['warm_seconds_2x']:.6f}"],
            ["build_dem, native fold", str(res["rounds"]), f"{res['build_dem_seconds']:.4f}"],
            ["build_dem, NumPy fold", str(res["rounds"]), f"{res['build_dem_numpy_seconds']:.4f}"],
        ],
    )
    print(
        f"speedup: {res['speedup']:.0f}x cold at rounds={res['rounds']} "
        f"(one-time template build: {res['template_seconds']:.2f} s)"
    )
    print(
        f"flatness: {res['flatness']:.2f}x warm / {res['flatness_cold']:.2f}x cold "
        f"under a 2x rounds doubling (warm limit {FLATNESS_LIMIT:g}x)"
    )
    if res["bit_identical"] is not None:
        print(f"bit-identical to the full walk: {res['bit_identical']}")
    print(
        f"build_dem: {res['build_dem_numpy_seconds'] / res['build_dem_seconds']:.1f}x on the "
        f"{res['fold_kernel']} fold over the NumPy fold, bit-identical: {res['fold_identical']}"
    )


def test_dem_extraction_speedup():
    """Quick-scale pytest entry: tiling must win and stay bit-identical."""
    for res in run_comparison(d=5, rounds=25):
        report(res)
        assert res["kernel"] == "native", res["fallback_reason"]
        assert res["fold_kernel"] == "native", res["fold_fallback_reason"]
        assert passes(res, 3.0, gate_flatness=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (d=5, rounds=25, >=3x)"
    )
    parser.add_argument("--d", type=int, default=None, help="code distance override")
    parser.add_argument("--rounds", type=int, default=None, help="round count override")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="required full-walk / cold periodic extraction ratio (default 10, quick 3)",
    )
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)
    d = args.d if args.d is not None else (5 if args.quick else 7)
    rounds = args.rounds if args.rounds is not None else (25 if args.quick else 10 * d)
    target = args.min_speedup if args.min_speedup is not None else (3.0 if args.quick else 10.0)
    rows = run_comparison(d=d, rounds=rounds)
    for res in rows:
        report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}")
    if rows[0]["kernel"] != "native":
        print(f"FAIL: the walk ran its {rows[0]['kernel']} kernel: {rows[0]['fallback_reason']}")
        return 1
    if rows[0]["fold_kernel"] != "native":
        print(f"FAIL: build_dem ran its NumPy fold: {rows[0]['fold_fallback_reason']}")
        return 1
    failed = [res for res in rows if not passes(res, target, gate_flatness=not args.quick)]
    for res in failed:
        print(
            f"FAIL (simd {'on' if res['simd'] else 'off'}): need bit-identical tables "
            f"and folds, >= {target:g}x speedup"
            + ("" if args.quick else f", and warm flatness <= {FLATNESS_LIMIT:g}x")
            + f" (got identical = {res['bit_identical']}, folds identical = "
            f"{res['fold_identical']}, {res['speedup']:.1f}x, flatness {res['flatness']:.2f}x)"
        )
    if failed:
        return 1
    print(
        f"OK: bit-identical, >= {target:g}x extraction speedup"
        + ("" if args.quick else ", flat under rounds doubling")
        + ", with and without SIMD, on the native kernel and fold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
