"""SIMD beam-pass scheduling: grouping win and equivalence, the tentpole bench.

Acceptance target for the beam-pass scheduler: on both a ``ZMemory`` patch
and a lattice-surgery ``CNOT`` at d >= 7 under the baseline profile, the
rescheduled circuit must need at least **30%** fewer beam passes than the
one-gate-per-pass baseline (a beam pass is one distinct ``(gate, start,
duration)`` laser event; identical conflict-free gates fired together
count once).  Equivalence is asserted on the spot, not assumed:

* every rescheduled circuit must pass the executable reference validity
  checker (`check_circuit_reference`) and preserve the per-site
  instruction order and the instruction multiset exactly;
* at small distance the detector error model of the scheduled memory
  experiment must keep the unscheduled DEM's structure (detector
  footprints, observable masks) with probabilities equal to within a few
  ULP, and fixed-seed frame-engine logical-error counters must match the
  unscheduled run exactly.

The bench also reports the scheduled-vs-baseline makespan ratio (wall-time
win) and the per-profile picture for the two beam-pass-limited shipped
profiles (``fast_projected``: wide site-parallel groups; ``slow_junction``:
one serial beam with per-pass overhead).  It fails unless the scheduler ran
its native kernel (``repro/hardware/_simd_kernel.c``), so a broken kernel
build cannot pass on the Python fallback; the kernel and any fallback
reason land in the JSON artifact.

Run directly::

    python benchmarks/bench_simd.py                    # full: d=7
    python benchmarks/bench_simd.py --quick            # CI smoke: d=5
    python benchmarks/bench_simd.py --min-reduction 0.30 --json BENCH_simd.json

or via pytest (quick scale): ``pytest benchmarks/bench_simd.py -s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.decode import MemoryExperiment
from repro.hardware.simd import simd_schedule
from repro.hardware.validity import check_circuit_reference
from repro.sim.noise import NoiseModel

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table

#: Beam-pass-limited shipped profiles reported next to the baseline run.
PROFILES = ("fast_projected", "slow_junction")

#: Distance / shots of the fixed-seed logical-error equivalence check.
LER_D = 3
LER_SHOTS = 4000
LER_SEED = 7


def _per_site_order(circuit):
    cols = circuit.sorted_columns()
    seq = {}
    for i in range(cols.n):
        for s in cols.sites[i]:
            seq.setdefault(s, []).append((int(cols.codes[i]), float(cols.duration[i])))
    return seq


def _multiset(circuit):
    cols = circuit.sorted_columns()
    return sorted(
        (int(cols.codes[i]), int(cols.site0[i]), int(cols.site1[i]), float(cols.duration[i]))
        for i in range(cols.n)
    )


def _compile(op: str, d: int, profile=None):
    if op == "CNOT":
        compiler = TISCC(dx=d, dz=d, tile_rows=2, tile_cols=2, profile=profile)
        program = lattice_surgery_cnot_program()
    else:
        compiler = TISCC(dx=d, dz=d, tile_rows=1, tile_cols=1, profile=profile)
        program = [("PrepareZ", (0, 0)), (f"Measure{op[0]}", (0, 0))]
    return compiler, compiler.compile(program, operation=op)


def run_one(op: str, d: int, profile=None) -> dict:
    """Schedule one compiled operation under ``profile`` and prove retiming."""
    compiler, compiled = _compile(op, d, profile)
    prof = compiler.profile
    t0 = time.perf_counter()
    scheduled, rep = simd_schedule(
        compiled.circuit,
        compiler.grid,
        width=prof.simd_width,
        mode=prof.simd_mode,
        overhead_us=prof.simd_pass_overhead_us,
    )
    t_schedule = time.perf_counter() - t0

    # Equivalence, on the spot: validity replay + exact retiming invariants.
    check_circuit_reference(compiler.grid, scheduled, compiled.initial_occupancy)
    if _multiset(scheduled) != _multiset(compiled.circuit):
        raise RuntimeError(f"{op} d={d}: instruction multiset changed")
    if _per_site_order(scheduled) != _per_site_order(compiled.circuit):
        raise RuntimeError(f"{op} d={d}: per-site order changed")

    return {
        "op": op,
        "d": d,
        "profile": prof.name,
        "schedule_seconds": t_schedule,
        **rep.to_dict(),
    }


def verify_dem_equivalence(d: int = LER_D) -> dict:
    """Scheduled-vs-unscheduled DEM and fixed-seed LER counters at small d."""
    noise = NoiseModel.uniform(1.5e-3)  # t2-free: idle windows out of the DEM
    plain = MemoryExperiment(distance=d)
    simd = MemoryExperiment(distance=d, simd=True)
    a = plain.detector_error_model(noise)
    b = simd.detector_error_model(noise)
    structure = (
        a.detectors == b.detectors
        and np.array_equal(a.observables, b.observables)
        and a.n_detectors == b.n_detectors
    )
    max_ulp = float(
        (np.abs(a.probs - b.probs) / np.spacing(np.maximum(a.probs, b.probs))).max()
    )
    kwargs = dict(noise=noise, seed=LER_SEED, engine="frame")
    r0 = plain.run(LER_SHOTS, **kwargs)
    r1 = simd.run(LER_SHOTS, **kwargs)
    return {
        "d": d,
        "dem_structure_identical": bool(structure),
        "dem_probs_max_ulp": max_ulp,
        "ler_failures": (r0.failures, r1.failures),
        "ler_raw_failures": (r0.raw_failures, r1.raw_failures),
        "ler_counters_identical": bool(
            r0.failures == r1.failures and r0.raw_failures == r1.raw_failures
        ),
    }


def run_comparison(d: int = 7) -> dict:
    """Baseline-profile headline runs plus the per-profile picture."""
    headline = [run_one(op, d) for op in ("ZMemory", "CNOT")]
    per_profile = [run_one("ZMemory", d, profile=name) for name in PROFILES]
    equivalence = verify_dem_equivalence()
    return {
        "d": d,
        "kernel": headline[0]["kernel"],
        "fallback_reason": headline[0]["fallback_reason"],
        "headline": headline,
        "per_profile": per_profile,
        "equivalence": equivalence,
        "min_reduction": min(r["pass_reduction"] for r in headline),
    }


def report(res: dict) -> None:
    rows = []
    for r in res["headline"] + res["per_profile"]:
        rows.append(
            [
                r["op"],
                r["profile"],
                str(r["baseline_passes"]),
                str(r["beam_passes"]),
                f"{r['pass_reduction']:.1%}",
                f"{r['makespan_ratio']:.3f}",
                f"{r['schedule_seconds']:.3f}",
                r["kernel"],
            ]
        )
    print_table(
        f"SIMD beam-pass scheduling (d={res['d']})",
        [
            "op",
            "profile",
            "base_passes",
            "beam_passes",
            "reduction",
            "makespan",
            "sched_s",
            "kernel",
        ],
        rows,
    )
    eq = res["equivalence"]
    print(
        f"equivalence at d={eq['d']}: DEM structure identical: "
        f"{eq['dem_structure_identical']}, probs within {eq['dem_probs_max_ulp']:.0f} ulp, "
        f"fixed-seed LER counters identical: {eq['ler_counters_identical']} "
        f"(failures {eq['ler_failures'][0]} vs {eq['ler_failures'][1]})"
    )


def _ok(res: dict, target: float) -> bool:
    eq = res["equivalence"]
    return (
        res["min_reduction"] >= target
        and eq["dem_structure_identical"]
        and eq["dem_probs_max_ulp"] <= 8.0
        and eq["ler_counters_identical"]
    )


def test_simd_beam_pass_reduction():
    """Quick-scale pytest entry: >=30% fewer passes, equivalence proven."""
    res = run_comparison(d=5)
    report(res)
    assert res["kernel"] == "native", res["fallback_reason"]
    assert _ok(res, 0.30)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke scale (d=5)")
    parser.add_argument("--d", type=int, default=None, help="code distance override")
    parser.add_argument(
        "--min-reduction",
        type=float,
        default=0.30,
        help="required beam-pass reduction on every headline op (default 0.30)",
    )
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)
    d = args.d if args.d is not None else (5 if args.quick else 7)
    res = run_comparison(d=d)
    report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res, fh, indent=2)
        print(f"wrote {args.json}")
    if res["kernel"] != "native":
        print(f"FAIL: the scheduler ran its {res['kernel']} kernel: {res['fallback_reason']}")
        return 1
    if not _ok(res, args.min_reduction):
        print(
            f"FAIL: need >= {args.min_reduction:.0%} beam-pass reduction on every "
            "headline op with DEM structure, ulp-level probs, and fixed-seed "
            "LER counters preserved"
        )
        return 1
    print(
        f"PASS: >= {args.min_reduction:.0%} beam-pass reduction, equivalence held, "
        "native kernel"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
