"""Sharded, checkpointed sweeps with a content-addressed result cache.

A parameter sweep is a grid of independent *cells* — one (distance, noise,
shots, seed, decoder, engine) point each.  ``repro.estimator.jobs``
decomposes every sweep into such cells, executes them on a process pool,
and checkpoints each finished cell to disk under a key derived by hashing
the cell's physical parameters (canonical JSON -> SHA-256).  That buys
three things demonstrated below:

1. **Sharding** — ``jobs=N`` fans the grid out over N worker processes;
   ``jobs=1`` (the default) runs the same cells in-process.  The merged
   reports are bit-identical either way because every cell derives its
   per-shot randomness from ``SeedSequence(seed, spawn_key=(shot,))``
   streams, independent of which worker (or batch chunking) runs it.
2. **Crash tolerance** — each finished cell is written atomically
   (write-then-rename) and recorded in an append-only fsync'd manifest.
   Kill the driver at any instant and rerun with the same checkpoint:
   completed cells replay from disk, only the remainder is recomputed.
3. **Memoisation** — rerunning an already-finished sweep is pure cache
   lookup (>>50x faster than recomputing; measure it with
   ``python benchmarks/bench_sweep.py --quick``),
   and every payload is hash-verified on read, so a corrupted result file
   is detected and transparently recomputed, never served.

The same machinery backs ``tiscc lfr --jobs 4 --checkpoint DIR --resume``.

Run:  python examples/sharded_sweep.py
"""

import tempfile
import time
from pathlib import Path

from repro.estimator.jobs import new_stats
from repro.estimator.report import format_logical_error_table
from repro.estimator.sweep import logical_error_sweep

DISTANCES = [3, 5]
RATES = [1e-3, 3e-3]
SHOTS = 2000


def main() -> None:
    checkpoint = Path(tempfile.mkdtemp(prefix="sharded_sweep_")) / "checkpoint"

    # Cold run: every cell computed, fanned out over two worker processes,
    # each result checkpointed as it completes.
    stats = new_stats()
    t0 = time.perf_counter()
    reports = logical_error_sweep(
        DISTANCES,
        rates=RATES,
        shots=SHOTS,
        seed=7,
        jobs=2,
        checkpoint=str(checkpoint),
        stats=stats,
    )
    cold = time.perf_counter() - t0
    print(
        f"cold run: {stats['executed']} cells computed on 2 workers "
        f"in {cold:.2f} s\n"
    )
    print(format_logical_error_table(reports))

    # The checkpoint directory now holds one content-addressed file per
    # cell plus the manifest that indexes them.
    results = sorted(p.name for p in (checkpoint / "results").iterdir())
    manifest_lines = (checkpoint / "manifest.jsonl").read_text().splitlines()
    print(f"\ncheckpoint layout under {checkpoint}:")
    print("  meta.json          sweep fingerprint (guards against key mixups)")
    print(f"  manifest.jsonl     {len(manifest_lines)} completed-cell records")
    print(f"  results/           {len(results)} files, e.g. {results[0]}")

    # Warm run: identical parameters, no pool needed — pure cache lookup.
    # This is also exactly what resuming after a crash looks like, except
    # a crashed run replays the finished prefix and computes the rest.
    stats = new_stats()
    t0 = time.perf_counter()
    cached = logical_error_sweep(
        DISTANCES,
        rates=RATES,
        shots=SHOTS,
        seed=7,
        checkpoint=str(checkpoint),
        stats=stats,
    )
    warm = time.perf_counter() - t0
    same = [
        (a.dx, a.physical_rate, a.failures) == (b.dx, b.physical_rate, b.failures)
        for a, b in zip(reports, cached)
    ]
    print(
        f"\nwarm run: {stats['cache_hits']} cells served from cache, "
        f"{stats['executed']} computed, in {warm:.3f} s "
        f"({cold / warm:.0f}x faster); failure counts identical: {all(same)}"
    )


if __name__ == "__main__":
    main()
