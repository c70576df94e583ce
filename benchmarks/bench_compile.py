"""Compile-path benchmark: the production compile against the reference path.

Times compile + validate + estimate for the single-tile memory program and
the multi-tile lattice-surgery CNOT, and checks that the production path
serializes **byte-identically** to the repo's reference path, with equal
validity reports and resource figures.

The reference leg compiles every QEC round on its own (no template
replay: the tests' round loop, ``schedule_rounds`` in ``tests/oracles.py``),
in the Python round scheduler, and validates with the instruction-by-
instruction reference replay (``check_circuit_reference``): both kernels
are forced off through the kernel loader's memo, ``repro.util.native._loaded``.
The production leg replays rounds from a template compiled on the native
round kernel (``repro/code/_round_kernel.c``) and validates on the native
validity kernel (``repro/hardware/_validity_kernel.c``).  The table's
``round kernel`` and ``kernel`` columns and ``--json`` say which scheduler
and which replay each leg ran, and both the script and its pytest entry
fail unless the production leg's were native, so a broken kernel build
cannot pass on a Python fallback.  The timings are reported, not gated.

Run directly::

    python benchmarks/bench_compile.py            # full: d=7/11
    python benchmarks/bench_compile.py --quick    # CI smoke: d=3/5
    python benchmarks/bench_compile.py --json BENCH_compile.json

or via pytest (quick scale): ``pytest benchmarks/bench_compile.py -s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.code import stabilizer_circuits
from repro.code.stabilizer_circuits import SyndromeScheduler
from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.hardware import validity
from repro.util import native

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table

# The every-round reference loop is the tests' oracle: one copy, in tests/.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

#: (program builder, tile grid shape) — the two workloads.
PROGRAMS = {
    "ZMemory": (lambda: [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))], (1, 1)),
    "CNOT": (lattice_surgery_cnot_program, (2, 2)),
}

#: The kernels the reference leg forces off: the round scheduler's and the
#: validity replay's.
REFERENCE_SOURCES = (stabilizer_circuits.SOURCE, validity.SOURCE)


@contextmanager
def reference_path():
    """Compile every round in the Python round loop; validate with the reference."""
    saved_rounds = SyndromeScheduler.schedule_rounds
    saved = {source: native._loaded.get(source) for source in REFERENCE_SOURCES}
    SyndromeScheduler.schedule_rounds = oracles.schedule_rounds
    for source in REFERENCE_SOURCES:
        native._loaded[source] = (None, "forced by the reference path")
    try:
        yield
    finally:
        SyndromeScheduler.schedule_rounds = saved_rounds
        for source, loaded in saved.items():
            if loaded is None:
                native._loaded.pop(source, None)
            else:
                native._loaded[source] = loaded


def _run_leg(op: str, d: int, reference: bool) -> dict:
    """Compile (which validates and estimates) one program on one leg."""
    build, shape = PROGRAMS[op]
    compiler = TISCC(dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1])
    if reference:
        with reference_path():
            compiled = compiler.compile(build(), operation=op)
        assert not compiled.circuit.replay_blocks, "the reference leg replayed a round"
    else:
        compiled = compiler.compile(build(), operation=op)
    return {
        "op": op,
        "d": d,
        "path": "reference" if reference else "production",
        "n_instructions": len(compiled.circuit),
        "compile_seconds": compiled.compile_seconds,
        "validate_seconds": compiled.validate_seconds,
        "estimate_seconds": compiled.estimate_seconds,
        "total_seconds": (
            compiled.compile_seconds + compiled.validate_seconds + compiled.estimate_seconds
        ),
        "text": compiled.circuit.to_text(),
        "validity": compiled.validity,
        "kernel": compiled.validity.kernel,
        "fallback_reason": compiled.validity.fallback_reason,
        "round_kernel": compiled.round_kernel,
        "round_fallback_reason": compiled.round_fallback_reason,
        "resources": compiled.resources,
    }


ROW_FIELDS = (
    "op",
    "d",
    "path",
    "n_instructions",
    "compile_seconds",
    "validate_seconds",
    "estimate_seconds",
    "total_seconds",
    "round_kernel",
    "round_fallback_reason",
    "kernel",
    "fallback_reason",
)


def run_bench(distances: list[int]) -> dict:
    """Run both legs on both programs, asserting exact equivalence."""
    # Warm up imports and kernel loads outside the timed region.
    TISCC(dx=2, dz=2, rounds=1).compile([("PrepareZ", (0, 0))])

    rows = []
    equivalent = True
    for op in PROGRAMS:
        for d in distances:
            reference = _run_leg(op, d, reference=True)
            production = _run_leg(op, d, reference=False)
            same = (
                production["text"] == reference["text"]
                and production["validity"] == reference["validity"]
                and production["resources"] == reference["resources"]
            )
            equivalent &= same
            rows.append({k: reference[k] for k in ROW_FIELDS})
            rows.append({k: production[k] for k in ROW_FIELDS})
            rows[-1]["equivalent"] = same

    production = [r for r in rows if r["path"] == "production"]
    fallback = next((r for r in production if r["kernel"] != "native"), production[0])
    round_fallback = next((r for r in production if r["round_kernel"] != "native"), production[0])
    return {
        "distances": distances,
        "programs": list(PROGRAMS),
        "round_kernel": round_fallback["round_kernel"],
        "round_fallback_reason": round_fallback["round_fallback_reason"],
        "kernel": fallback["kernel"],
        "fallback_reason": fallback["fallback_reason"],
        "rows": rows,
        "equivalent": equivalent,
    }


def report(res: dict) -> None:
    print_table(
        "compile + validate + estimate (production vs reference path)",
        ["program", "d", "path", "instr", "compile [s]", "round kernel", "validate [s]",
         "kernel", "estimate [s]", "total [s]"],
        [
            [
                r["op"],
                str(r["d"]),
                r["path"],
                str(r["n_instructions"]),
                f"{r['compile_seconds']:.3f}",
                r["round_kernel"],
                f"{r['validate_seconds']:.3f}",
                r["kernel"],
                f"{r['estimate_seconds']:.3f}",
                f"{r['total_seconds']:.3f}",
            ]
            for r in res["rows"]
        ],
    )
    print(
        f"byte-identical circuits, equal validity/resource reports: {res['equivalent']}"
    )


def test_compile_matches_reference():
    """Quick-scale pytest entry: byte-identical, on the native kernels."""
    res = run_bench(distances=[3, 5])
    report(res)
    assert res["round_kernel"] == "native", res["round_fallback_reason"]
    assert res["kernel"] == "native", res["fallback_reason"]
    assert res["equivalent"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke scale (d=3/5)")
    parser.add_argument(
        "--distances", type=int, nargs="+", default=None, help="distance override"
    )
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)
    distances = args.distances or ([3, 5] if args.quick else [7, 11])
    res = run_bench(distances=distances)
    report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res, fh, indent=2)
        print(f"wrote {args.json}")
    if res["round_kernel"] != "native":
        print(
            f"FAIL: rounds ran on the {res['round_kernel']} round kernel: "
            f"{res['round_fallback_reason']}"
        )
        return 1
    if res["kernel"] != "native":
        print(f"FAIL: validation ran its {res['kernel']} kernel: {res['fallback_reason']}")
        return 1
    if not res["equivalent"]:
        print("FAIL: the production path is not byte-identical to the reference path")
        return 1
    print("OK: outputs byte-identical to the reference path, native round and validity kernels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
