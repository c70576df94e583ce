"""Run one workload of the pipeline benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload lfr_canonical --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``BENCHMARK.json``); ``--smoke`` shrinks every workload to toy
size (d=3, 200 shots) on the same code path.  A human-readable summary and
the environment stamp come first; the last line of standard output is the
JSON result.  The full record, span tree included when traced, is also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("lfr_canonical", "lfr_long_simd", "resource_sweep")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, same code path")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARS

    # Cap the numeric libraries' thread pools before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = str(os.cpu_count() or 1)
    from perfbench.harness import run_workload

    record = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out_dir=ROOT / "perfbench" / "out",
    )
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for name, (value, unit) in record["summary"].items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for name, metric in record["result"]["metrics"].items():
        print(f"# {args.workload} metric {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
