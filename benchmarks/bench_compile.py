"""Compile-path benchmark: the production compile against the reference path.

Times compile + validate + estimate for every operation of the resource
sweep (``repro.estimator.sweep.OPERATION_PROGRAMS``: the 13 Table 1/3
programs, the single-tile memory program and the lattice-surgery CNOT
among them), and checks that the production path serializes
**byte-identically** to the repo's reference path, with equal validity
reports and resource figures.

The reference leg compiles every QEC round on its own (no template
replay: the tests' round loop, ``schedule_rounds`` in ``tests/oracles.py``),
in the Python round scheduler, and validates with the instruction-by-
instruction reference replay (``check_circuit_reference``): both kernels
are forced off through the kernel loader's memo, ``repro.util.native._loaded``.
Each reference compile starts cold, after ``MemoryExperiment.clear_compile_cache()``
has dropped the process-wide geometry and plaquette memos.  The production
leg replays rounds from a template compiled on the native round kernel
(``repro/code/_round_kernel.c``), validates on the native validity kernel
(``repro/hardware/_validity_kernel.c``) and compiles every cell back to
back on warm memos, so the check also covers geometry shared across
operations and distances.  The table's ``round kernel`` and ``kernel``
columns and ``--json`` say which scheduler and which replay each leg ran,
and both the script and its pytest entry fail unless the production leg's
were native, so a broken kernel build cannot pass on a Python fallback.
The timings are reported, not gated.

Run directly::

    python benchmarks/bench_compile.py            # full: d=3/5/7, MeasureZ and CNOT also d=11
    python benchmarks/bench_compile.py --quick    # CI smoke: d=3/5
    python benchmarks/bench_compile.py --json BENCH_compile.json

or via pytest (quick scale): ``pytest benchmarks/bench_compile.py -s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.code import stabilizer_circuits
from repro.code.stabilizer_circuits import SyndromeScheduler
from repro.core.compiler import TISCC
from repro.decode.memory import MemoryExperiment
from repro.estimator.sweep import OPERATION_PROGRAMS
from repro.hardware import validity
from repro.util import native

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table

# The every-round reference loop is the tests' oracle: one copy, in tests/.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

#: (program builder, tile grid shape) per operation: the resource sweep's.
PROGRAMS = OPERATION_PROGRAMS

#: Distances per scale; full mode also runs these operations at d=11.
QUICK_DISTANCES = [3, 5]
FULL_DISTANCES = [3, 5, 7]
FULL_EXTRA = {"MeasureZ": [11], "CNOT": [11]}

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
    """Compile (which validates and estimates) one program on one leg.

    A reference compile starts from cold memos; a production compile reads
    whatever the compiles before it left.
    """
    build, shape = PROGRAMS[op]
    if reference:
        MemoryExperiment.clear_compile_cache()
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
        "text_sha256": hashlib.sha256(compiled.circuit.to_text().encode()).hexdigest(),
        "labels": compiled.circuit.columns().labels,
        "validity": compiled.validity,
        "kernel": compiled.validity.kernel,
        "fallback_reason": compiled.validity.fallback_reason,
        "round_kernel": compiled.round_kernel,
        "round_fallback_reason": compiled.round_fallback_reason,
        "resources": compiled.resources,
    }


#: What must agree between the legs: the circuit text (as a digest), the
#: measurement labels, and the validity and resource reports.
COMPARED = ("text_sha256", "labels", "validity", "resources")

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


def run_bench(distances: list[int], extra: dict[str, list[int]] | None = None) -> dict:
    """Run both legs on every program, asserting exact equivalence.

    ``extra`` adds distances for named operations.  The production leg
    compiles every cell back to back on warm memos; then each reference
    compile runs cold.
    """
    cells = [
        (op, d) for op in PROGRAMS for d in [*distances, *(extra or {}).get(op, [])]
    ]
    # Warm up imports and kernel loads outside the timed region, then start
    # the production leg from cold memos.
    TISCC(dx=2, dz=2, rounds=1).compile([("PrepareZ", (0, 0))])
    MemoryExperiment.clear_compile_cache()
    production = {cell: _run_leg(*cell, reference=False) for cell in cells}

    rows = []
    equivalent = True
    for cell in cells:
        reference = _run_leg(*cell, reference=True)
        fast = production[cell]
        same = all(fast[k] == reference[k] for k in COMPARED)
        equivalent &= same
        rows.append({k: reference[k] for k in ROW_FIELDS})
        rows.append({k: fast[k] for k in ROW_FIELDS})
        rows[-1]["equivalent"] = same

    production = [r for r in rows if r["path"] == "production"]
    fallback = next((r for r in production if r["kernel"] != "native"), production[0])
    round_fallback = next((r for r in production if r["round_kernel"] != "native"), production[0])
    return {
        "distances": distances,
        "extra_distances": extra or {},
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
        f"byte-identical circuits, equal labels and validity/resource reports: {res['equivalent']}"
    )


def test_compile_matches_reference():
    """Quick-scale pytest entry: byte-identical, on the native kernels."""
    res = run_bench(distances=QUICK_DISTANCES)
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
    if args.distances:
        distances, extra = args.distances, None
    elif args.quick:
        distances, extra = QUICK_DISTANCES, None
    else:
        distances, extra = FULL_DISTANCES, FULL_EXTRA
    res = run_bench(distances=distances, extra=extra)
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
