"""Sharded-sweep benchmark: process-pool execution and the warm
content-addressed cache vs an in-process (``jobs=1``) run of the same cells.

Acceptance targets for the job layer: on a multi-cell logical-error
sweep, 4 workers must beat the in-process sweep by **>= 3x** wall clock
(on hardware with at least 4 cores — the gate auto-downgrades to
report-only when the machine cannot physically parallelize), and a warm
rerun against the checkpoint (every cell a hash-verified file read) must
beat in-process by **>= 50x**.  Both parallel and warm results must be
bit-identical to the in-process run, timing columns aside.

Run directly::

    python benchmarks/bench_sweep.py             # full: d=7,5,3 x 4 rates, 20k shots
    python benchmarks/bench_sweep.py --quick     # CI smoke: d=5,3 x 2 rates, 2k shots
    python benchmarks/bench_sweep.py --json BENCH_sweep.json
    python benchmarks/bench_sweep.py --min-speedup 2 --min-cache-speedup 25
    python benchmarks/bench_sweep.py --crash-smoke   # run, SIGKILL, resume, diff

or via pytest (quick scale): ``pytest benchmarks/bench_sweep.py -s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.estimator.jobs import new_stats, payload_fingerprint
from repro.estimator.sweep import logical_error_sweep

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table


def _fingerprints(reports) -> list[str]:
    return [payload_fingerprint(r.to_dict()) for r in reports]


def run_bench(
    distances: list[int],
    rates: list[float],
    shots: int,
    jobs: int = 4,
    seed: int = 0,
    root: str | None = None,
) -> dict:
    """Time parallel, serial, and warm-cache executions of one sweep.

    The parallel run goes first from a cold process so its workers pay
    their own compiles, exactly as a fresh sharded invocation would; the
    in-process run then pays its compiles the same way.  Distances are
    submitted largest-first so the pool's greedy assignment approximates
    longest-processing-time scheduling.
    """
    workdir = root or tempfile.mkdtemp(prefix="bench_sweep_")
    checkpoint = os.path.join(workdir, "checkpoint")
    common = dict(rates=rates, shots=shots, seed=seed)

    parallel_stats = new_stats()
    t0 = time.perf_counter()
    parallel = logical_error_sweep(
        distances, jobs=jobs, checkpoint=checkpoint, stats=parallel_stats, **common
    )
    t_parallel = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = logical_error_sweep(distances, **common)
    t_serial = time.perf_counter() - t0

    warm_stats = new_stats()
    t0 = time.perf_counter()
    warm = logical_error_sweep(distances, checkpoint=checkpoint, stats=warm_stats, **common)
    t_warm = time.perf_counter() - t0

    if root is None:
        shutil.rmtree(workdir, ignore_errors=True)

    n_cells = len(distances) * len(rates)
    return {
        "distances": distances,
        "rates": rates,
        "shots": shots,
        "cells": n_cells,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_seconds": t_serial,
        "parallel_seconds": t_parallel,
        "warm_seconds": t_warm,
        "parallel_speedup": t_serial / t_parallel,
        "cache_speedup": t_serial / t_warm,
        "parallel_matches_serial": _fingerprints(parallel) == _fingerprints(serial),
        "warm_matches_serial": _fingerprints(warm) == _fingerprints(serial),
        "parallel_executed": parallel_stats["executed"],
        "parallel_degraded": parallel_stats["degraded"],
        "warm_cache_hits": warm_stats["cache_hits"],
        "warm_executed": warm_stats["executed"],
    }


def report(res: dict) -> None:
    print_table(
        f"sharded sweep ({res['cells']} cells: d={res['distances']} x "
        f"{len(res['rates'])} rates, {res['shots']} shots, {res['jobs']} workers, "
        f"{res['cpu_count']} cpu(s))",
        ["mode", "wall [s]", "speedup", "matches serial"],
        [
            ["serial (jobs=1)", f"{res['serial_seconds']:.2f}", "1.0x", "—"],
            [
                f"parallel ({res['jobs']} workers)",
                f"{res['parallel_seconds']:.2f}",
                f"{res['parallel_speedup']:.1f}x",
                str(res["parallel_matches_serial"]),
            ],
            [
                f"warm cache ({res['warm_cache_hits']} hits)",
                f"{res['warm_seconds']:.3f}",
                f"{res['cache_speedup']:.1f}x",
                str(res["warm_matches_serial"]),
            ],
        ],
    )


def _group_empties(pgid: int, within: float) -> bool:
    """Whether process group ``pgid`` has no members left within ``within`` s."""
    deadline = time.monotonic() + within
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.1)


def crash_smoke(quick: bool = True) -> int:
    """Run a checkpointed sweep, SIGKILL it mid-run, resume, and diff.

    The CI robustness step: proves on every PR that a killed sweep resumes
    to bit-identical reports against an uninterrupted in-process run.  The
    driver runs in its own session and the whole process group is killed:
    killing the driver alone would orphan its pool workers, which keep this
    process's stdout open.  The smoke fails if any member of the group is
    still alive 10 s after the kill.
    """
    distances, rates, shots = [3], [1e-3, 2e-3, 3e-3, 5e-3], 2000 if quick else 20000
    workdir = tempfile.mkdtemp(prefix="crash_smoke_")
    checkpoint = os.path.join(workdir, "checkpoint")
    code = (
        "from repro.estimator.sweep import logical_error_sweep\n"
        f"logical_error_sweep({distances!r}, rates={rates!r}, shots={shots},"
        f" seed=0, jobs=2, checkpoint={checkpoint!r})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, start_new_session=True)
    manifest = os.path.join(checkpoint, "manifest.jsonl")
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline and proc.poll() is None:
        if os.path.exists(manifest) and open(manifest).read().count("\n") >= 1:
            break
        time.sleep(0.02)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the driver and its workers have already exited
    proc.wait(timeout=60)
    if not _group_empties(proc.pid, within=10.0):
        print(f"crash smoke FAIL: driver process group {proc.pid} outlived the kill by 10 s")
        return 1
    if not os.path.exists(manifest):
        print("crash smoke FAIL: driver died before any cell was checkpointed")
        return 1
    completed = open(manifest).read().count("\n")

    stats = new_stats()
    resumed = logical_error_sweep(
        distances, rates=rates, shots=shots, seed=0, checkpoint=checkpoint, stats=stats
    )
    serial = logical_error_sweep(distances, rates=rates, shots=shots, seed=0)
    ok = _fingerprints(resumed) == _fingerprints(serial)
    shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"crash smoke: killed driver after {completed}/{len(rates)} cells; resume "
        f"served {stats['cache_hits']} from checkpoint, recomputed {stats['executed']}; "
        f"bit-identical to serial: {ok}"
    )
    if not ok:
        print("crash smoke FAIL: resumed reports diverge from the uninterrupted run")
        return 1
    print("crash smoke OK")
    return 0


def test_sweep_cache_speedup(tmp_path):
    """Quick-scale pytest entry: warm cache and parallel merge must hold."""
    res = run_bench([5, 3], [1e-3, 3e-3], shots=2000, jobs=2, root=str(tmp_path))
    report(res)
    assert res["parallel_matches_serial"] and res["warm_matches_serial"]
    assert res["warm_cache_hits"] == res["cells"] and res["warm_executed"] == 0
    assert res["cache_speedup"] >= 5.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (4 cells, 2000 shots)"
    )
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this parallel speedup (default: 3 full, report-only "
        "quick; requires >= --jobs cpus, else downgraded to report-only)",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=None,
        help="fail below this warm-cache speedup (default: 50 full, 10 quick)",
    )
    parser.add_argument(
        "--crash-smoke",
        action="store_true",
        help="run/SIGKILL/resume/diff robustness check instead of the timing bench",
    )
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)

    if args.crash_smoke:
        return crash_smoke(quick=args.quick or args.shots is None)

    distances = [5, 3] if args.quick else [7, 5, 3]
    rates = [1e-3, 3e-3] if args.quick else [1e-3, 2e-3, 3e-3, 5e-3]
    shots = args.shots if args.shots is not None else (2000 if args.quick else 20000)
    target = args.min_speedup if args.min_speedup is not None else (0.0 if args.quick else 3.0)
    cache_target = (
        args.min_cache_speedup if args.min_cache_speedup is not None
        else (10.0 if args.quick else 50.0)
    )
    if target > 0 and (os.cpu_count() or 1) < args.jobs:
        print(
            f"note: {os.cpu_count()} cpu(s) < {args.jobs} workers — the machine "
            f"cannot parallelize; parallel gate downgraded to report-only"
        )
        target = 0.0

    res = run_bench(distances, rates, shots, jobs=args.jobs, seed=args.seed)
    res["min_speedup"] = target
    res["min_cache_speedup"] = cache_target
    report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res, fh, indent=2)
        print(f"wrote {args.json}")
    ok = (
        res["parallel_matches_serial"]
        and res["warm_matches_serial"]
        and res["parallel_speedup"] >= target
        and res["cache_speedup"] >= cache_target
    )
    if not ok:
        print(
            f"FAIL: need >= {target:.1f}x parallel and >= {cache_target:.1f}x "
            f"warm-cache speedup with bit-identical merges (got "
            f"{res['parallel_speedup']:.1f}x / {res['cache_speedup']:.1f}x, "
            f"parallel_matches={res['parallel_matches_serial']}, "
            f"warm_matches={res['warm_matches_serial']})"
        )
        return 1
    print(
        f"OK: >= {target:.1f}x parallel, >= {cache_target:.1f}x warm cache, "
        "merges bit-identical to serial"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
