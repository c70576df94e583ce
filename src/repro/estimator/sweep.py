"""Parameter sweeps: resource estimates across code distances (paper §3.4)
and decoded logical error rates across distances and physical rates.

Each Table 1/Table 3 operation is compiled at a range of code distances on
a fresh tile grid and its §3.4 resource figures are collected — the
co-design workflow the paper motivates in the introduction (resource
estimation "for fault-tolerant implementations of quantum algorithms using
a realistic hardware model").  :func:`logical_error_sweep` extends that
workflow to the quantity that actually justifies a code distance: the
decoded logical error rate of a memory experiment under hardware-calibrated
noise, which exhibits the threshold-like crossover (increasing the distance
helps below a critical physical rate and hurts above it).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.estimator.jobs import (
    logical_error_cells,
    merge_shard_payloads,
    resource_cells,
    run_cells,
    shard_cell,
)
from repro.estimator.report import LogicalErrorReport
from repro.estimator.spec import ExperimentSpec
from repro.hardware.profile import HardwareProfile, get_profile
from repro.hardware.resources import ResourceReport
from repro.sim.noise import NoiseModel

__all__ = [
    "OPERATION_PROGRAMS",
    "operation_compiler",
    "sweep_operation",
    "sweep_all",
    "logical_error_sweep",
]


def _profiles(
    profile: HardwareProfile | str | Sequence[HardwareProfile | str] | None,
) -> list[HardwareProfile]:
    """Resolve a profile spec (or list of specs) to concrete profiles.

    ``None`` means the default profile; a list sweeps each entry in order
    (the profile-major axis of a multi-architecture comparison).  Takes the
    CLI's ``--profile`` values as argparse leaves them; a bad name or file
    raises a one-line ``ProfileError`` (a ``ValueError``).
    """
    if profile is None or isinstance(profile, (HardwareProfile, str)):
        return [get_profile(profile)]
    profs = [get_profile(p) for p in profile]
    return profs or [get_profile(None)]


def _resolve_noise(models: Sequence, profile: HardwareProfile) -> list[NoiseModel]:
    """Resolve noise specs against one hardware profile.

    Concrete :class:`NoiseModel` instances pass through unchanged; a string
    names one of the profile's presets; a ``(name, scale)`` pair scales that
    preset — so a preset-named sweep over several profiles uses each
    architecture's own calibration, not the default one.
    """
    resolved: list[NoiseModel] = []
    for m in models:
        if isinstance(m, str):
            resolved.append(NoiseModel.preset(m, profile=profile))
        elif isinstance(m, tuple):
            name, scale = m
            base = NoiseModel.preset(name, profile=profile)
            resolved.append(base.scaled(scale) if scale != 1.0 else base)
        else:
            resolved.append(m)
    return resolved


#: Operation name -> (program builder, tile grid shape).
OPERATION_PROGRAMS: dict[str, tuple] = {
    "PrepareZ": (lambda: [("PrepareZ", (0, 0))], (1, 1)),
    "PrepareX": (lambda: [("PrepareX", (0, 0))], (1, 1)),
    "InjectY": (lambda: [("InjectY", (0, 0))], (1, 1)),
    "MeasureZ": (lambda: [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))], (1, 1)),
    "PauliX": (lambda: [("PrepareZ", (0, 0)), ("PauliX", (0, 0))], (1, 1)),
    "Hadamard": (lambda: [("PrepareZ", (0, 0)), ("Hadamard", (0, 0))], (1, 1)),
    "Idle": (lambda: [("PrepareZ", (0, 0)), ("Idle", (0, 0))], (1, 1)),
    "MeasureZZ": (
        lambda: [("PrepareZ", (0, 0)), ("PrepareZ", (0, 1)), ("MeasureZZ", (0, 0), (0, 1))],
        (1, 2),
    ),
    "MeasureXX": (
        lambda: [("PrepareZ", (0, 0)), ("PrepareZ", (1, 0)), ("MeasureXX", (0, 0), (1, 0))],
        (2, 1),
    ),
    "BellPrepare": (lambda: [("BellPrepare", (0, 0), (0, 1))], (1, 2)),
    "Move": (lambda: [("PrepareZ", (0, 0)), ("Move", (0, 0))], (1, 2)),
    "ExtendSplit": (lambda: [("PrepareZ", (0, 0)), ("ExtendSplit", (0, 0))], (1, 2)),
    "CNOT": (lattice_surgery_cnot_program, (2, 2)),
}


def _operation(op: str) -> tuple:
    """``OPERATION_PROGRAMS[op]``; an unknown name raises one line."""
    try:
        return OPERATION_PROGRAMS[op]
    except KeyError:
        raise ValueError(
            f"unknown operation {op!r}; choose from {sorted(OPERATION_PROGRAMS)}"
        ) from None


def operation_compiler(op: str, spec: ExperimentSpec) -> tuple[TISCC, list[tuple]]:
    """``(compiler, program)`` for operation ``op`` on its tile grid.

    The compiler takes ``spec``'s distances, rounds and profile.  Unknown
    operations, distances below 2 and rounds below 1 raise one-line
    ``ValueError``s.
    """
    build, (tile_rows, tile_cols) = _operation(op)
    compiler = TISCC(
        dx=spec.dx,
        dz=spec.dz,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
        rounds=spec.rounds,
        profile=spec.profile,
    )
    return compiler, build()


def _resource_sweep(
    ops: list[str],
    distances: list[int],
    rounds: int | None,
    profile: HardwareProfile | str | Sequence[HardwareProfile | str] | None,
    simd: bool,
    **run,
) -> list[ResourceReport]:
    """Resource reports for ``ops`` x profiles x ``distances``, in that nesting."""
    specs = [
        ExperimentSpec(d, d, rounds, profile=prof, simd=simd)
        for prof in _profiles(profile)
        for d in distances
    ]
    cells = resource_cells(ops, specs)
    return [ResourceReport.from_dict(p) for p in run_cells(cells, **run)]


def sweep_operation(
    name: str,
    distances: list[int],
    rounds: int | None = None,
    *,
    profile: HardwareProfile | str | Sequence[HardwareProfile | str] | None = None,
    jobs: int = 1,
    checkpoint: str | None = None,
    use_cache: bool = True,
    resume: bool = True,
    stats: dict | None = None,
    simd: bool = False,
) -> list[ResourceReport]:
    """Compile ``name`` at each distance and collect resource reports.

    Each distance is one resource cell of :mod:`repro.estimator.jobs`.
    With the default ``jobs=1`` the cells run in-process, in order;
    ``jobs > 1`` shards them over a process pool, and ``checkpoint``
    persists (and, on a rerun, serves) each distance's report through the
    content-addressed cache.

    ``profile`` selects the hardware calibration (name, path, instance, or
    a list of those).  A list makes the profile a sweep axis: reports come
    back profile-major, so one call prices the same operation on several
    architectures side by side.

    ``simd`` runs the beam-pass rescheduling phase on every compile
    (:mod:`repro.hardware.simd`): reports price the compacted schedule and
    carry beam-pass counts; cache keys extend only for SIMD cells, so
    existing checkpoints stay valid.
    """
    _operation(name)
    return _resource_sweep(
        [name],
        distances,
        rounds,
        profile,
        simd,
        jobs=jobs,
        checkpoint=checkpoint,
        use_cache=use_cache,
        resume=resume,
        stats=stats,
    )


def sweep_all(
    distances: list[int],
    rounds: int | None = None,
    *,
    profile: HardwareProfile | str | Sequence[HardwareProfile | str] | None = None,
    jobs: int = 1,
    checkpoint: str | None = None,
    use_cache: bool = True,
    resume: bool = True,
    stats: dict | None = None,
    simd: bool = False,
) -> dict[str, list[ResourceReport]]:
    """Resource sweeps for every registered operation.

    The full (operation x distance) cell grid runs as one batch — one pool
    and one checkpoint under ``jobs``/``checkpoint`` — instead of one
    sweep per operation.  ``profile`` threads a hardware profile (or a
    list of them — profile-major within each operation) through every
    compile.
    """
    ops = list(OPERATION_PROGRAMS)
    reports = _resource_sweep(
        ops,
        distances,
        rounds,
        profile,
        simd,
        jobs=jobs,
        checkpoint=checkpoint,
        use_cache=use_cache,
        resume=resume,
        stats=stats,
    )
    n = len(reports) // len(ops)
    return {op: reports[i * n : (i + 1) * n] for i, op in enumerate(ops)}


def logical_error_sweep(
    distances: list[int],
    noise_models: list | None = None,
    rates: list[float] | None = None,
    shots: int = 1000,
    basis: str = "Z",
    rounds: int | None = None,
    seed: int = 0,
    engine: str = "frame",
    decoder: str | None = None,
    profile: HardwareProfile | str | Sequence[HardwareProfile | str] | None = None,
    jobs: int = 1,
    checkpoint: str | None = None,
    use_cache: bool = True,
    resume: bool = True,
    stats: dict | None = None,
    window: int | None = None,
    commit: int | None = None,
    shot_shards: int = 1,
    simd: bool = False,
) -> list[LogicalErrorReport]:
    """Decoded logical error rate across code distances and noise strengths.

    Give either ``noise_models`` explicitly or ``rates`` (each rate ``p``
    becomes the single-knob ``NoiseModel.uniform(p)``); a ``None`` entry
    runs noiseless.  Each (distance, noise) point is one memory cell of
    :mod:`repro.estimator.jobs`; the compile is shared across noise
    settings through :class:`~repro.decode.memory.MemoryExperiment`'s
    compile cache.  Reports come back distance-major.

    ``engine="frame"`` (default) samples each point from the detector
    error model — extracted once per distance and re-weighted per noise
    model, orders of magnitude faster than the packed-tableau replay.
    ``engine="tableau"`` forces the reference path.  Both engines decode
    over the DEM graph, so a noisy point whose schedule cannot be folded
    into a DEM raises :class:`~repro.sim.dem.DemExtractionError` on
    either.  The frame engine samples and decodes each point in
    memory-bounded chunks (``repro.decode.memory.CHUNK_BYTES`` of detector
    matrix each); per-shot ``SeedSequence.spawn`` streams make sweep
    results identical for any chunking (a property the test suite locks
    down).

    ``decoder`` names a registered decoder (``"union_find"``,
    ``"union_find_unweighted"``, ``"union_find_windowed"``, ``"lookup"``,
    ...); ``None`` keeps each experiment's default (weighted union-find
    over the DEM-built graph).  ``window``/``commit`` set the sliding-
    window shape for layout-aware decoders; a whole-block decoder rejects
    them.

    ``shot_shards > 1`` splits every cell's shot axis into that many
    disjoint slices of the per-shot seed streams so *decode* work fans out
    across pool workers even when the sweep has fewer cells than workers;
    the shard payloads are merged back into one report per cell
    (bit-identical counters vs the unsharded run).  Requires the frame
    engine.

    With the default ``jobs=1`` the cells run in-process, in order.
    ``jobs > 1`` shards them over a process pool, and ``checkpoint``
    persists each completed cell to a content-addressed on-disk cache so
    a killed sweep resumes where it stopped and a repeated sweep is pure
    file reads — see :mod:`repro.estimator.jobs` for the cell/key/resume
    semantics.  Every mode is bit-identical (timing fields aside).

    ``profile`` selects the hardware calibration — a name, path, instance,
    or a list of those, which makes the profile the outermost sweep axis
    (reports come back profile-major).  ``noise_models`` entries may also
    be preset *names* (or ``(name, scale)`` pairs): those are resolved
    against each profile in turn, so e.g. ``"near_term"`` means each
    architecture's own near-term calibration rather than the default one.

    ``simd`` compiles every memory circuit through the beam-pass
    rescheduling phase (:mod:`repro.hardware.simd`) with each profile's
    ``simd_*`` knobs — the compacted schedule shrinks idle-dephasing
    windows, so dephasing-aware presets see a (usually lower) logical
    error rate.  SIMD cells extend their cache keys non-default-only, so
    existing checkpoints stay valid.
    """
    if (noise_models is None) == (rates is None):
        raise ValueError("give exactly one of noise_models or rates")
    if noise_models is None:
        assert rates is not None
        noise_models = [NoiseModel.uniform(p) for p in rates]
    decoder = decoder if decoder is not None else "union_find"
    cells = [
        cell
        for prof in _profiles(profile)
        for cell in logical_error_cells(
            [
                ExperimentSpec(d, d, rounds, basis, prof, simd, decoder, window, commit)
                for d in distances
            ],
            _resolve_noise(noise_models, prof),
            shots=shots,
            seed=seed,
            engine=engine,
        )
    ]
    groups = [shard_cell(c, shot_shards) for c in cells]
    payloads = run_cells(
        [shard for group in groups for shard in group],
        jobs=jobs,
        checkpoint=checkpoint,
        use_cache=use_cache,
        resume=resume,
        stats=stats,
    )
    it = iter(payloads)
    merged = [merge_shard_payloads([next(it) for _ in group]) for group in groups]
    return [LogicalErrorReport.from_dict(p) for p in merged]
