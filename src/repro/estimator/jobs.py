"""Sharded, checkpointed sweep execution over independent cells.

A sweep — ``logical_error_sweep``, ``sweep_operation``, ``sweep_all`` — is
decomposed into independent :class:`SweepCell` units, each a pure function
of its parameters: one operation, one
:class:`~repro.estimator.spec.ExperimentSpec` (dx/dz, rounds, basis,
hardware profile, SIMD, decoder, window/commit), and for memory cells one
noise model, engine, shot count, seed and shot offset.  Each cell has a
deterministic content key (:meth:`SweepCell.key`: SHA-256 over the
canonical cell parameters, whose experiment part — noise fingerprint
included — the spec builds), which addresses its result in an on-disk
:class:`~repro.estimator.cache.ResultCache`.  The driver,
:func:`run_cells`,

* serves every cached cell with a hash-verified file read,
* executes missing cells in-process and in order (``jobs=1``, the
  default) or on a ``ProcessPoolExecutor`` (``jobs > 1``) with per-cell
  retry and timeout, degrading gracefully to in-process execution when
  workers die (``BrokenProcessPool`` after a SIGKILL, say),
* appends each completed cell to the checkpoint (atomic result write +
  manifest append), so a killed sweep resumes by replaying the manifest
  and submitting only the missing cells.

**Determinism contract.**  Every cell's randomness is rooted in the sweep
seed itself: the engines spawn per-shot streams via
``SeedSequence(seed, spawn_key=(shot,))``, a derivation that depends on
neither the executing worker, the submission order, nor any chunk size —
so *any* sharding of the cell list merges to bit-identical reports (the
property suite in ``tests/test_sweep_jobs.py`` checks every mode against
the plain loops in ``tests/oracles.py``), and the frame engine's
memory-bounded chunks inside a cell (``repro.decode.memory.CHUNK_BYTES``)
never enter the cell key.  Wall-clock timing fields are the one
nondeterministic part of a payload; compare runs with
:func:`payload_fingerprint`, which drops them.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.estimator.cache import CheckpointError, ResultCache, content_hash
from repro.estimator.spec import ExperimentSpec
from repro.sim.noise import NoiseModel, NoiseParams

__all__ = [
    "SweepCell",
    "sweep_fingerprint",
    "payload_fingerprint",
    "logical_error_cells",
    "resource_cells",
    "shard_cell",
    "merge_shard_payloads",
    "execute_cell",
    "run_cells",
    "new_stats",
]

#: Payload fields that record wall-clock measurements — the only
#: nondeterministic content of a cell result.
TIMING_FIELDS = frozenset({"sim_seconds", "decode_seconds"})


@dataclass(frozen=True)
class SweepCell:
    """One independently executable unit of a sweep.

    ``kind`` selects the workload: ``"memory_lfr"`` runs a decoded memory
    experiment (one row of :func:`~repro.estimator.sweep.logical_error_sweep`),
    ``"resource"`` compiles one operation at one distance (one row of
    :func:`~repro.estimator.sweep.sweep_operation`).  ``spec`` holds the
    experiment's axes.  The frame engine samples a cell in memory-bounded
    chunks whose size is no cell parameter: per-shot seed streams make the
    results identical for any chunking.
    """

    kind: str
    op: str
    spec: ExperimentSpec
    noise: NoiseParams | None = None
    engine: str = "frame"
    shots: int = 0
    seed: int = 0
    #: First global shot index of this cell's slice of the per-shot seed
    #: streams (frame engine only).  Nonzero for shot-axis shards produced
    #: by :func:`shard_cell`; enters the key only when nonzero, so
    #: unsharded keys — and existing checkpoints — are unchanged.
    shot_offset: int = 0

    def key_payload(self) -> dict:
        """The canonical parameter dict hashed into this cell's key.

        The spec builds the experiment's part
        (:meth:`~repro.estimator.spec.ExperimentSpec.memory_key`,
        :meth:`~repro.estimator.spec.ExperimentSpec.resource_key`).

        The DEM *extraction path* (periodic template tiling vs full walk,
        see :meth:`MemoryExperiment.fault_table`) is deliberately absent
        from the key: both paths produce bit-identical fault tables and
        DEMs by construction, so results — and therefore existing
        checkpoints — are path-independent.
        """
        if self.kind == "memory_lfr":
            return {
                "kind": self.kind,
                **self.spec.memory_key(self.noise),
                "engine": self.engine,
                "shots": self.shots,
                "seed": self.seed,
                **({"shot_offset": self.shot_offset} if self.shot_offset else {}),
            }
        if self.kind == "resource":
            return {"kind": self.kind, "op": self.op, **self.spec.resource_key()}
        raise ValueError(f"unknown sweep cell kind {self.kind!r}")

    def key(self) -> str:
        return content_hash(self.key_payload())


def sweep_fingerprint(keys: list[str]) -> str:
    """Order-independent identity of a whole sweep: hash of its cell keys."""
    return content_hash(sorted(set(keys)))


def payload_fingerprint(payload: dict) -> str:
    """Hash of a payload's deterministic content (timing fields dropped)."""
    return content_hash({k: v for k, v in payload.items() if k not in TIMING_FIELDS})


# ------------------------------------------------------------- cell builders
def logical_error_cells(
    specs: list[ExperimentSpec],
    noise_models: list[NoiseModel | None],
    *,
    shots: int,
    seed: int = 0,
    engine: str = "frame",
) -> list[SweepCell]:
    """Cells of a logical-error sweep, spec-major; a ``None`` model is noiseless."""
    return [
        SweepCell(
            kind="memory_lfr",
            op=f"{spec.basis}Memory",
            spec=spec,
            noise=model.params if model is not None else None,
            engine=engine,
            shots=shots,
            seed=seed,
        )
        for spec in specs
        for model in noise_models
    ]


def resource_cells(ops: list[str], specs: list[ExperimentSpec]) -> list[SweepCell]:
    """Cells of a resource sweep, operation-major then spec-major."""
    return [SweepCell(kind="resource", op=op, spec=spec) for op in ops for spec in specs]


def shard_cell(cell: SweepCell, shards: int) -> list[SweepCell]:
    """Split one cell's shot axis into up to ``shards`` disjoint sub-cells.

    Each shard covers a contiguous ``[shot_offset, shot_offset + shots)``
    slice of the cell's global per-shot seed streams, so the shards sample
    exactly the shots the unsharded cell would — decode work fans out over
    workers while :func:`merge_shard_payloads` restores the single-cell
    report.  Only frame-engine ``memory_lfr`` cells shard (the tableau
    engine has no per-shot streams to slice); anything else — including a
    cell with fewer shots than ``shards`` asks for — comes back as fewer
    (possibly one) cells rather than empty ones.
    """
    if shards <= 1 or cell.kind != "memory_lfr" or cell.shots <= 0:
        return [cell]
    if cell.engine != "frame":
        raise ValueError(
            f"shot-axis sharding requires the frame engine, not {cell.engine!r}"
        )
    shards = min(shards, cell.shots)
    base, extra = divmod(cell.shots, shards)
    out: list[SweepCell] = []
    offset = cell.shot_offset
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(replace(cell, shots=size, shot_offset=offset))
        offset += size
    return out


def merge_shard_payloads(payloads: list[dict]) -> dict:
    """Recombine the payloads of one cell's disjoint shot shards.

    Counters (``n_shots``, ``failures``, ``raw_failures``) and timings sum;
    ``mean_defects`` is re-derived from the recovered integer defect totals
    (``round(mean * n_shots)`` is exact — float64 carries the sums of
    billions of unit defects with error far below 0.5), so the merged value
    equals the unsharded run's bit for bit.  Every other field is identical
    across shards and passes through.
    """
    if not payloads:
        raise ValueError("no shard payloads to merge")
    if len(payloads) == 1:
        return payloads[0]
    merged = dict(payloads[0])
    total = sum(int(p["n_shots"]) for p in payloads)
    defects = sum(round(float(p["mean_defects"]) * int(p["n_shots"])) for p in payloads)
    merged["n_shots"] = total
    merged["failures"] = sum(int(p["failures"]) for p in payloads)
    merged["raw_failures"] = sum(int(p["raw_failures"]) for p in payloads)
    merged["mean_defects"] = defects / total if total else 0.0
    for field_name in ("sim_seconds", "decode_seconds"):
        merged[field_name] = float(sum(float(p[field_name]) for p in payloads))
    # Re-derive the dependent columns (logical_error_rate, stderr, ...) from
    # the merged counters — copying them from shard 0 would serve the first
    # shard's rates under the full cell's shot count.
    from repro.estimator.report import LogicalErrorReport

    return LogicalErrorReport.from_dict(merged).to_dict()


# --------------------------------------------------------------- execution
def _maybe_inject_fault(key: str) -> None:
    """Crash/exception injection hook for the fault-tolerance test suite.

    Set ``TISCC_SWEEP_FAULT`` to ``"kill"`` (SIGKILL the executing process),
    ``"hang"`` (record this PID in the fault dir, then sleep far past any
    test timeout — the stand-in for a wedged worker the degrade path must
    terminate), or ``"raise"`` (raise from the cell), and
    ``TISCC_SWEEP_FAULT_KEY`` to a cell-key prefix to target.  When
    ``TISCC_SWEEP_FAULT_DIR`` names a directory, an ``O_EXCL`` marker file
    arbitrates so the fault fires exactly once across all workers — the
    retry/resume path then has to finish the job.  Inert unless the
    environment variables are set.
    """
    mode = os.environ.get("TISCC_SWEEP_FAULT")
    if not mode:
        return
    prefix = os.environ.get("TISCC_SWEEP_FAULT_KEY", "")
    if prefix and not key.startswith(prefix):
        return
    marker_dir = os.environ.get("TISCC_SWEEP_FAULT_DIR")
    if marker_dir:
        marker = os.path.join(marker_dir, f"fault-fired-{prefix or 'any'}")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        if marker_dir:
            pid_file = os.path.join(marker_dir, "hang-pid")
            with open(pid_file, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
        time.sleep(600.0)
        return
    raise RuntimeError(f"injected fault for cell {key[:12]}")


def execute_cell(cell: SweepCell) -> dict:
    """Run one cell to completion and return its JSON-ready payload.

    Pure in the cell parameters (modulo timing fields) and picklable, so it
    runs identically in the driver process and in pool workers.
    """
    _maybe_inject_fault(cell.key())
    spec = cell.spec
    if cell.kind == "memory_lfr":
        # Lazy: repro.decode.memory imports this package.
        from repro.decode.memory import MemoryExperiment

        experiment = MemoryExperiment.from_spec(spec)
        model = NoiseModel(cell.noise) if cell.noise is not None else None
        report = experiment.run(
            cell.shots,
            noise=model,
            seed=cell.seed,
            engine=cell.engine,
            shot_offset=cell.shot_offset,
        )
        return report.to_dict()
    if cell.kind == "resource":
        from repro.estimator.sweep import operation_compiler

        compiler, program = operation_compiler(cell.op, spec)
        compiled = compiler.compile(program, operation=cell.op, simd=spec.simd)
        return compiled.resources.to_dict()
    raise ValueError(f"unknown sweep cell kind {cell.kind!r}")


def new_stats() -> dict:
    """A fresh execution-statistics record for :func:`run_cells`."""
    return {
        "cells": 0,
        "cache_hits": 0,
        "executed": 0,
        "retried": 0,
        "timed_out": 0,
        "degraded": False,
    }


def _sweep_summary(cells: list[SweepCell]) -> dict:
    """Human-readable sweep description pinned into the checkpoint meta."""
    specs = [c.spec for c in cells]
    return {
        "kinds": sorted({c.kind for c in cells}),
        "ops": sorted({c.op for c in cells}),
        "distances": sorted({s.dx for s in specs} | {s.dz for s in specs}),
        "bases": sorted({s.basis for s in specs}),
        "noise": sorted({c.noise.name if c.noise is not None else "none" for c in cells}),
        "shots": sorted({c.shots for c in cells}),
        "seeds": sorted({c.seed for c in cells}),
        "profiles": sorted({s.profile.name for s in specs}),
        "cells": len(cells),
    }


def run_cells(
    cells: list[SweepCell],
    *,
    jobs: int = 1,
    checkpoint: str | os.PathLike | None = None,
    use_cache: bool = True,
    resume: bool = True,
    retries: int = 1,
    timeout: float | None = None,
    stats: dict | None = None,
) -> list[dict]:
    """Execute ``cells`` and return their payloads, in cell order.

    ``checkpoint`` names a :class:`ResultCache` directory: completed cells
    are durably recorded there as they finish, and (with ``use_cache``)
    already-recorded cells are served from disk instead of recomputed.
    ``resume=False`` refuses a checkpoint that already holds completed
    cells — the explicit-opt-in behaviour the CLI's ``--resume`` flag
    exposes; library callers default to resuming.  A checkpoint written
    for *different* cell parameters raises :class:`CheckpointError` either
    way.

    ``jobs > 1`` fans missing cells out over a process pool; each failed
    cell is retried up to ``retries`` times, ``timeout`` (seconds) bounds
    how long the driver waits without *any* cell completing, and a broken
    pool (killed workers) degrades to in-process execution of whatever
    remains.  ``stats`` (see :func:`new_stats`) is updated in place with
    cache/execution counters.
    """
    if stats is None:
        stats = new_stats()
    else:
        for k, v in new_stats().items():
            stats.setdefault(k, v)
    stats["cells"] += len(cells)

    keys = [c.key() for c in cells]
    cache: ResultCache | None = None
    if checkpoint is not None:
        cache = ResultCache(checkpoint)
        cache.ensure_meta(sweep_fingerprint(keys), _sweep_summary(cells))
        if not resume and use_cache and len(cache):
            raise CheckpointError(
                f"checkpoint {checkpoint} already holds {len(cache)} completed "
                "cell(s); pass --resume to reuse them (or --no-cache to recompute)"
            )

    results: dict[str, dict] = {}
    pending: list[tuple[str, SweepCell]] = []
    seen: set[str] = set()
    for key, cell in zip(keys, cells):
        if key in seen:
            continue  # identical cells share one execution (and one payload)
        seen.add(key)
        payload = cache.get(key) if (cache is not None and use_cache) else None
        if payload is not None:
            results[key] = payload
            stats["cache_hits"] += 1
        else:
            pending.append((key, cell))

    def record(key: str, payload: dict) -> None:
        results[key] = payload
        stats["executed"] += 1
        if cache is not None:
            cache.put(key, payload)

    if pending:
        leftovers = pending
        if jobs > 1:
            leftovers = _run_pool(pending, jobs, retries, timeout, record, stats)
        for key, cell in leftovers:
            record(key, execute_cell(cell))

    return [results[key] for key in keys]


def _terminate_pool_workers(pool: ProcessPoolExecutor, grace: float = 5.0) -> None:
    """Forcefully stop a degraded pool's worker processes.

    ``shutdown(cancel_futures=True)`` only cancels *queued* futures; a
    worker already executing a cell keeps running to completion — which,
    for the wedged workers that trigger the timeout degrade, means an
    orphaned process burning CPU on a cell the driver is about to redo
    in-process.  Terminate every worker, escalating to SIGKILL for any
    that outlives the grace period (a worker stuck in native code ignores
    SIGTERM).
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for p in procs:
        try:
            p.terminate()
        except Exception:
            pass
    deadline = time.monotonic() + grace
    for p in procs:
        try:
            p.join(max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                p.kill()
                p.join(1.0)
        except Exception:
            pass


def _run_pool(
    pending: list[tuple[str, SweepCell]],
    jobs: int,
    retries: int,
    timeout: float | None,
    record,
    stats: dict,
) -> list[tuple[str, SweepCell]]:
    """Pool-execute cells; return the ones that must finish in-process.

    Cells come back to the caller (for in-process execution) when their
    retry budget is exhausted, when the pool breaks (a worker died — the
    classic SIGKILL/OOM case), or when no cell completes within
    ``timeout`` seconds.  Either degrade path terminates the pool's
    workers before handing cells back, so an in-process redo never races
    an orphaned worker still computing the same cell.
    """
    leftovers: list[tuple[str, SweepCell]] = []
    attempts: dict[str, int] = {}
    done_keys: set[str] = set()
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        futures = {pool.submit(execute_cell, cell): (key, cell) for key, cell in pending}
        while futures:
            done, not_done = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                # Nothing finished within the timeout: stop trusting the
                # pool and run the rest in-process.
                stats["timed_out"] += len(not_done)
                stats["degraded"] = True
                _terminate_pool_workers(pool)
                break
            for fut in done:
                key, cell = futures.pop(fut)
                try:
                    payload = fut.result()
                except BrokenProcessPool:
                    raise
                except Exception:
                    attempts[key] = attempts.get(key, 0) + 1
                    stats["retried"] += 1
                    if attempts[key] <= retries:
                        futures[pool.submit(execute_cell, cell)] = (key, cell)
                    else:
                        leftovers.append((key, cell))
                    continue
                record(key, payload)
                done_keys.add(key)
    except BrokenProcessPool:
        # One or more workers died (SIGKILL, OOM, segfault).  Everything
        # in flight is lost; degrade gracefully to in-process execution of
        # whatever has not been recorded yet — after stopping any workers
        # the broken pool still has alive.
        stats["degraded"] = True
        _terminate_pool_workers(pool)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    finished = done_keys | {key for key, _ in leftovers}
    leftovers.extend((key, cell) for key, cell in pending if key not in finished)
    return leftovers
