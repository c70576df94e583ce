"""Command-line interface (paper App. B: "TISCC can either be compiled into
an executable and given command line input (code distances, operation of
interest) or used as a library").

Examples::

    tiscc compile --op MeasureZZ --dx 3 --dz 3 --rounds 1 --resources
    tiscc compile --op Idle --dx 5 --dz 5 --print-circuit
    tiscc compile --op CNOT --dx 11 --dz 11 --resources --timings
    tiscc render --dx 3 --dz 3
    tiscc sweep --op Idle --distances 3 5 7
    tiscc sweep --op CNOT --distances 3 5 7 9 11
    tiscc sample --op MeasureZZ --dx 3 --dz 3 --shots 500 --seed 1
    tiscc lfr --distances 3 5 --rates 3e-4 5e-3 --shots 1000
    tiscc lfr --distances 3 --noise near_term --shots 500
    tiscc lfr --distances 3 5 7 --rates 1e-3 --shots 20000 --engine frame
    tiscc lfr --distances 3 --rates 1e-3 --decoder union_find_unweighted
    tiscc lfr --distances 3 5 --rates 1e-3 --decoder union_find_windowed --window 6 --commit 3
    tiscc lfr --distances 3 --rates 1e-3 --jobs 4 --shot-shards 4 --checkpoint runs/lfr
    tiscc lfr --distances 3 5 7 --rates 1e-3 3e-3 --jobs 4 --checkpoint runs/lfr
    tiscc lfr --distances 3 5 7 --rates 1e-3 3e-3 --jobs 4 --checkpoint runs/lfr --resume
    tiscc sweep --op CNOT --distances 3 5 7 --jobs 2 --checkpoint runs/cnot --resume
    tiscc dem --distance 5 --rate 1e-3 --json dem5.json
    tiscc dem --distance 3 --rate 1e-3 --decoder lookup
    tiscc profiles list
    tiscc profiles show slow_junction
    tiscc compile --op Idle --dx 3 --dz 3 --profile fast_projected --resources
    tiscc sweep --op Idle --distances 3 5 --profile baseline --profile slow_junction
    tiscc lfr --distances 3 --rates 1e-3 --profile my_trap.toml
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.code.arrangements import Arrangement
from repro.decode.base import available_decoders
from repro.estimator.report import (
    format_logical_error_table,
    format_logical_summary,
    format_outcome_summary,
    format_resource_table,
)
from repro.estimator.spec import ExperimentSpec
from repro.estimator.sweep import _profiles, operation_compiler, sweep_operation

__all__ = ["main"]


def _profile_note(profiles) -> str:
    """Status-line fragment naming non-default profiles (else empty).

    Empty for a pure-baseline run so that default CLI output stays
    bit-identical to the pre-profile format.
    """
    if all(p.name == "baseline" for p in profiles):
        return ""
    names = [p.name for p in profiles]
    return f", profile {names[0]}" if len(names) == 1 else f", profiles {names}"


def _cmd_compile(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    spec = ExperimentSpec(args.dx, args.dz, args.rounds, profile=args.profile)
    compiler, program = operation_compiler(args.op, spec)
    compiled = compiler.compile(program, operation=args.op, simd=args.simd)
    print(
        f"# compiled {args.op} (dx={args.dx}, dz={args.dz}{_profile_note([compiler.profile])}): "
        f"{len(compiled.circuit)} native instructions, "
        f"makespan {compiled.circuit.makespan / 1000:.3f} ms, "
        f"{compiled.logical_timesteps} logical time-step(s), "
        f"junction conflicts resolved: {compiler.grid.junction_conflicts}"
    )
    if compiled.simd_report is not None:
        r = compiled.simd_report
        print(
            f"# simd: beam passes {r.baseline_passes} -> {r.beam_passes} "
            f"({r.pass_reduction:.1%} reduction, utilization {r.utilization:.3f}), "
            f"makespan ratio {r.makespan_ratio:.3f} [{r.mode}"
            + (f", width {r.width}" if r.width else "")
            + (f", overhead {r.overhead_us:g} us" if r.overhead_us else "")
            + "]"
        )
    if args.timings:
        simd_part = (
            f", simd {compiled.simd_seconds:.3f} s ({compiled.simd_report.kernel} kernel)"
            if compiled.simd_report is not None
            else ""
        )
        print(
            f"# phase timings: compile {compiled.compile_seconds:.3f} s "
            f"({compiled.round_kernel} round kernel)"
            + simd_part
            + f", validate {compiled.validate_seconds:.3f} s ({compiled.validity.kernel} kernel), "
            f"estimate {compiled.estimate_seconds:.3f} s"
        )
    if args.resources:
        print(format_resource_table([compiled.resources]))
    if args.print_circuit:
        print(compiled.to_text())
    if args.simulate:
        result = compiler.simulate(compiled, seed=args.seed)
        outcomes = {
            r.name: r.value(result) for r in compiled.results if r.value is not None
        }
        print(f"# simulated (seed {args.seed}); logical outcomes: {outcomes}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.shots < 1:
        raise ValueError("--shots must be at least 1")
    _check_seed(args.seed)
    if args.max_labels < 0:
        raise ValueError(f"--max-labels must be at least 0 (got {args.max_labels})")
    spec = ExperimentSpec(args.dx, args.dz, args.rounds, profile=args.profile)
    compiler, program = operation_compiler(args.op, spec)
    compiled = compiler.compile(program, operation=args.op)
    t0 = time.perf_counter()
    batch = compiler.simulate_shots(
        compiled, args.shots, seed=args.seed, independent_streams=not args.fast
    )
    elapsed = time.perf_counter() - t0
    print(
        f"# sampled {args.op} (dx={args.dx}, dz={args.dz}): {args.shots} shots in "
        f"{elapsed:.3f} s ({args.shots / elapsed:.0f} shots/s, "
        f"{'shared-stream' if args.fast else 'per-shot-stream'} mode, seed {args.seed})"
    )
    print(format_logical_summary(compiled, batch, title="logical outcomes"))
    if args.outcomes:
        print(format_outcome_summary(batch, title="measurement outcomes", limit=args.max_labels))
    return 0


def _check_distances(distances: list[int]) -> None:
    """Raise a one-line ``ValueError`` for invalid code distances.

    Surface-code distances on this layout are odd and at least 3 — an even
    ``d`` silently builds a different (and weaker) code, so it is rejected
    rather than compiled.
    """
    for d in distances:
        if d < 3:
            raise ValueError(f"code distances must be at least 3 (got {d})")
        if d % 2 == 0:
            raise ValueError(
                f"code distances must be odd (got {d}); even distances are "
                "not surface codes on this layout"
            )


def _check_sweep_distances(distances: list[int]) -> None:
    """Raise a one-line ``ValueError`` for invalid resource-sweep distances.

    Resource sweeps intentionally accept even distances (the estimator can
    price a d=2 patch even though it is not a code the lfr path would
    decode), but anything below 2 has no patch to compile.
    """
    for d in distances:
        if d < 2:
            raise ValueError(f"--distances must be at least 2 for resource sweeps (got {d})")


def _check_seed(seed: int) -> None:
    """Raise a one-line ``ValueError`` for a negative ``--seed``.

    Seeds feed numpy's ``SeedSequence``, which takes non-negative integers.
    """
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer (got {seed})")


def _check_json_path(path: str | None) -> None:
    """Raise a one-line ``ValueError`` for a ``--json`` path that cannot be written.

    Checked before the run, so a long sweep never ends in a traceback over
    where to put its results.
    """
    if path is None:
        return
    if os.path.isdir(path):
        raise ValueError(f"--json {path} is a directory, not a file")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--json {path}: no such directory {parent}")


def _write_json(path: str, payload) -> None:
    """Write ``payload`` to ``--json`` ``path``; a failed write raises one line."""
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
    except OSError as err:
        raise ValueError(f"--json {path}: {err.strerror or err}") from None
    print(f"# wrote {path}")


def _add_profile_argument(parser: argparse.ArgumentParser, repeatable: bool = False) -> None:
    """``--profile NAME|PATH``: hardware profile selection.

    ``repeatable=True`` (the sweep front-ends) lets the flag appear several
    times, making the profile a first-class sweep axis.
    """
    extra = "; repeat the flag to sweep several profiles" if repeatable else ""
    parser.add_argument(
        "--profile",
        action="append" if repeatable else "store",
        default=None,
        metavar="NAME|PATH",
        help="hardware profile: a shipped/registered name (see `tiscc profiles "
        f"list`) or a TOML/JSON file path{extra}",
    )


def _add_simd_argument(parser: argparse.ArgumentParser) -> None:
    """``--simd``: run the beam-pass rescheduling phase on every compile."""
    parser.add_argument(
        "--simd",
        action="store_true",
        help="SIMD beam-pass scheduling: batch identical gates into beam "
        "passes and compact the schedule (knobs come from the profile's "
        "simd_* fields)",
    )


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    """Sharding/checkpointing options shared by the sweep front-ends."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for cell execution (1 = in-process)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint directory: completed cells are persisted there "
        "(content-addressed) and served on --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from an existing --checkpoint directory",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell, refreshing any checkpoint entries",
    )


def _check_job_args(args: argparse.Namespace) -> None:
    """Raise a one-line ``ValueError`` for inconsistent sharding options."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1 (got {args.jobs})")
    if args.resume and args.checkpoint is None:
        raise ValueError("--resume requires --checkpoint DIR (there is nothing to resume from)")


def _print_job_summary(args: argparse.Namespace, stats: dict) -> None:
    """One status line about sharded execution (only when it was requested)."""
    if args.jobs <= 1 and args.checkpoint is None:
        return
    extra = ", degraded to in-process" if stats.get("degraded") else ""
    print(
        f"# sweep cells: {stats.get('cache_hits', 0)} served from cache, "
        f"{stats.get('executed', 0)} computed ({args.jobs} worker(s){extra})"
    )


def _check_window_args(args: argparse.Namespace) -> None:
    """Raise a one-line ``ValueError`` for inconsistent sliding-window options."""
    if args.commit is not None and args.window is None:
        raise ValueError("--commit requires --window W (there is no window to commit into)")
    if args.window is not None and args.window < 2:
        raise ValueError(f"--window must span at least 2 time slices (got {args.window})")
    if args.commit is not None and args.commit < 1:
        raise ValueError(f"--commit must be at least 1 slice (got {args.commit})")
    if args.window is not None and args.commit is not None and args.commit >= args.window:
        raise ValueError(
            f"--commit ({args.commit}) must be smaller than --window "
            f"({args.window}); the trailing buffer absorbs boundary artifacts"
        )
    if args.window is not None or args.commit is not None:
        from repro.decode.base import decoder_class

        effective = args.decoder or "union_find"
        if not decoder_class(effective).wants_layout:
            raise ValueError(
                f"--window/--commit only apply to windowed decoders, not "
                f"{effective!r} (try --decoder union_find_windowed)"
            )
    if args.window is not None and args.commit is None:
        commit = max(ExperimentSpec(d, d).window_shape[1] for d in args.distances)
        if commit >= args.window:
            raise ValueError(
                f"--window ({args.window}) must be larger than the default --commit, the "
                f"distance ({commit}); pass a larger --window or a --commit below "
                f"{args.window}"
            )
    if args.shot_shards < 1:
        raise ValueError(f"--shot-shards must be at least 1 (got {args.shot_shards})")
    if args.shot_shards > 1 and args.engine != "frame":
        raise ValueError("--shot-shards requires --engine frame (per-shot seed streams)")


def _check_rates(
    rates: list[float] | None,
    scales: list[float] | None = None,
    flag: str = "--rates",
) -> None:
    """Raise a one-line ``ValueError`` for invalid physical rates/scales.

    ``flag`` names the offending option in the message (``--rates`` for
    ``lfr``, ``--rate`` for ``dem``).
    """
    for p in rates or ():
        if p < 0:
            raise ValueError(f"{flag} must be non-negative probabilities (got {p:g})")
        if not p <= 1:  # NaN included
            raise ValueError(f"{flag} must be probabilities in [0, 1] (got {p:g})")
    for s in scales or ():
        if not 0 <= s < float("inf"):  # NaN included
            raise ValueError(f"--scales must be finite and non-negative (got {s:g})")


def _cmd_lfr(args: argparse.Namespace) -> int:
    from repro.estimator.sweep import logical_error_sweep
    from repro.sim.noise import NoiseModel

    if args.shots < 2:
        raise ValueError("--shots must be at least 2")
    _check_distances(args.distances)
    _check_rates(args.rates, args.scales)
    _check_seed(args.seed)
    _check_job_args(args)
    _check_window_args(args)
    _check_json_path(args.json)
    stats: dict = {}
    profiles = _profiles(args.profile)
    if args.rates is not None:
        models = [NoiseModel.uniform(p) for p in args.rates]
    else:
        # Preset specs resolve against each profile inside the sweep,
        # so "near_term" means each architecture's own calibration.
        models = [(args.noise, s) for s in args.scales]
    t0 = time.perf_counter()
    reports = logical_error_sweep(
        args.distances,
        noise_models=models,
        shots=args.shots,
        basis=args.basis,
        rounds=args.rounds,
        seed=args.seed,
        engine=args.engine,
        decoder=args.decoder,
        profile=profiles,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        use_cache=not args.no_cache,
        resume=args.resume,
        stats=stats,
        window=args.window,
        commit=args.commit,
        shot_shards=args.shot_shards,
        simd=args.simd,
    )
    elapsed = time.perf_counter() - t0
    print(
        f"# logical error rates: {args.basis}-basis memory, distances "
        f"{args.distances}, {args.shots} shots each, seed {args.seed}, "
        f"{args.engine} engine, {args.decoder or 'union_find'} decoder"
        + (", simd scheduling" if args.simd else "")
        + f"{_profile_note(profiles)} ({elapsed:.1f} s total)"
    )
    _print_job_summary(args, stats)
    print(format_logical_error_table(reports, title="decoded logical error rates"))
    if args.json:
        _write_json(args.json, [r.to_dict() for r in reports])
    return 0


def _cmd_dem(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.decode.memory import MemoryExperiment
    from repro.sim.noise import NoiseModel

    _check_distances([args.distance])
    _check_rates(None if args.rate is None else [args.rate], flag="--rate")
    _check_json_path(args.json)
    (prof,) = _profiles(args.profile)
    model = (
        NoiseModel.uniform(args.rate)
        if args.rate is not None
        else NoiseModel.preset(args.noise, profile=prof)
    )
    experiment = MemoryExperiment(
        distance=args.distance, rounds=args.rounds, basis=args.basis, profile=prof
    )
    t0 = time.perf_counter()
    table = experiment.fault_table(model)
    extract_seconds = time.perf_counter() - t0
    dem = experiment.detector_error_model(model)
    elapsed = time.perf_counter() - t0
    kinds = table.kind_counts()
    sizes = Counter(len(dets) for dets in dem.detectors)
    stats = {
        "extraction_seconds": extract_seconds,
        "n_sites": table.n_sites,
        "n_mechanisms": dem.n_mechanisms,
        "path": table.method,
        "kernel": table.kernel,
        "fold_kernel": dem.kernel,
    }
    print(
        f"# detector error model: {args.basis}-basis memory, d={args.distance}, "
        f"{experiment.rounds} round(s), noise {model.name}{_profile_note([prof])} "
        f"({elapsed:.2f} s extraction)"
    )
    if args.stats:
        print(
            f"stats: extraction {stats['extraction_seconds']:.4f} s "
            f"({stats['path']} path, {stats['kernel']} kernel, {stats['fold_kernel']} fold), "
            f"n_sites {stats['n_sites']}, n_mechanisms {stats['n_mechanisms']}"
        )
    print(
        f"detectors: {dem.n_detectors}  observables: {dem.n_observables}  "
        f"fault sites: {table.n_sites}  mechanisms: {dem.n_mechanisms}"
    )
    print("sites by kind: " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    print(
        "mechanisms by detector count: "
        + ", ".join(f"|D|={k}: {v}" for k, v in sorted(sizes.items()))
    )
    if dem.n_mechanisms:
        print(
            f"mechanism probabilities: min {dem.probs.min():.3g}, "
            f"max {dem.probs.max():.3g}, total weight {dem.probs.sum():.3g}"
        )
        print(
            f"analytic marginals: mean detector rate "
            f"{dem.detection_rates().mean():.4g}, raw observable flip rate "
            f"{float(dem.observable_rates()[0]):.4g}"
        )
    if args.decoder is not None:
        graph = experiment.matching_graph(model)
        experiment.decoder_for(model, args.decoder)  # validates buildability
        ws = graph.weight
        span = f"weights {ws.min():.3g}..{ws.max():.3g}" if ws.size else "no edges"
        print(
            f"decoding graph ({args.decoder}): {graph.n_detectors} detectors, "
            f"{graph.n_edges} edges, {span}"
        )
    if args.json:
        payload = dem.to_dict()
        if args.stats:
            # --stats + --json is not an error: the same fields ride along
            # inside the artifact.
            payload["stats"] = stats
        _write_json(args.json, payload)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.code.patch_layout import PatchLayout
    from repro.hardware.grid import grid_for_patch

    arrangement = Arrangement.__members__.get(args.arrangement.upper())
    if arrangement is None:
        raise ValueError(
            f"unknown arrangement {args.arrangement!r}; "
            f"choose from {[a.name.lower() for a in Arrangement]}"
        )
    (prof,) = _profiles(args.profile)
    grid = grid_for_patch(prof, args.dx, args.dz)
    layout = PatchLayout(grid, args.dx, args.dz, arrangement=arrangement)
    print(
        f"# {arrangement.name} arrangement, dx={args.dx}, dz={args.dz} "
        "(D data, x/z measure-ion homes, M/O/J sites)"
    )
    print(layout.render_ascii())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_sweep_distances(args.distances)
    _check_job_args(args)
    stats: dict = {}
    reports = sweep_operation(
        args.op,
        args.distances,
        rounds=args.rounds,
        profile=_profiles(args.profile),
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        use_cache=not args.no_cache,
        resume=args.resume,
        stats=stats,
        simd=args.simd,
    )
    print(format_resource_table(reports, title=f"{args.op} resource sweep (§3.4)"))
    _print_job_summary(args, stats)
    return 0


def _cmd_profiles_list(args: argparse.Namespace) -> int:
    from repro.hardware.profile import available_profiles, get_profile

    print(
        f"{'name':<16} {'fingerprint':<12} {'move_us':>8} {'junction_us':>11} "
        f"{'presets':<28} description"
    )
    for name in available_profiles():
        p = get_profile(name)
        presets = ",".join(p.preset_names)
        print(
            f"{p.name:<16} {p.fingerprint[:12]:<12} {p.move_us:>8g} "
            f"{p.junction_us:>11g} {presets:<28} {p.description}"
        )
    return 0


def _cmd_profiles_show(args: argparse.Namespace) -> int:
    from repro.hardware.profile import get_profile

    p = get_profile(args.name)
    if args.json:
        print(p.dumps())
        return 0
    print(f"# hardware profile {p.name} (fingerprint {p.fingerprint})")
    if p.description:
        print(f"# {p.description}")
    print(
        f"topology: {p.topology}  zone_pitch_um: {p.zone_pitch_um:g}  "
        f"move_us: {p.move_us:g}  junction_us: {p.junction_us:g} "
        f"(hop {p.junction_hop_us:g})"
    )
    print("gate times [us]:")
    for gate, t in p.gate_times_us:
        print(f"  {gate:<12} {t:g}")
    print("noise presets:")
    for name in p.preset_names:
        params = p.preset_params(name)
        knobs = "  ".join(f"{k}={v:g}" for k, v in params.items() if v is not None)
        print(f"  {name:<12} {knobs}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tiscc",
        description="TISCC reproduction: surface-code compiler and resource "
        "estimator for trapped-ion processors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile one surface-code operation")
    p_compile.add_argument("--op", required=True)
    p_compile.add_argument("--dx", type=int, default=3)
    p_compile.add_argument("--dz", type=int, default=3)
    p_compile.add_argument("--rounds", type=int, default=None)
    p_compile.add_argument("--resources", action="store_true")
    p_compile.add_argument("--print-circuit", action="store_true")
    p_compile.add_argument(
        "--timings",
        action="store_true",
        help="print per-phase wall-clock timings (compile/simd/validate/estimate)",
    )
    p_compile.add_argument("--simulate", action="store_true")
    p_compile.add_argument("--seed", type=int, default=0)
    _add_profile_argument(p_compile)
    _add_simd_argument(p_compile)
    p_compile.set_defaults(fn=_cmd_compile)

    p_sample = sub.add_parser(
        "sample", help="batched Monte-Carlo sampling of one operation (§4.1)"
    )
    p_sample.add_argument("--op", required=True)
    p_sample.add_argument("--dx", type=int, default=3)
    p_sample.add_argument("--dz", type=int, default=3)
    p_sample.add_argument("--rounds", type=int, default=None)
    p_sample.add_argument("--shots", type=int, default=500)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument(
        "--fast",
        action="store_true",
        help="one shared rng stream (fastest; not relatable to single-shot replays)",
    )
    p_sample.add_argument(
        "--outcomes", action="store_true", help="also print per-label outcome statistics"
    )
    p_sample.add_argument("--max-labels", type=int, default=16)
    _add_profile_argument(p_sample)
    p_sample.set_defaults(fn=_cmd_sample)

    p_lfr = sub.add_parser(
        "lfr",
        help="logical error rate: noisy batched sampling + union-find decoding",
    )
    p_lfr.add_argument("--distances", type=int, nargs="+", default=[3, 5])
    p_lfr.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        help="physical rates; each p becomes the single-knob uniform(p) model",
    )
    p_lfr.add_argument(
        "--noise",
        default="near_term",
        help="noise preset (used when --rates is not given)",
    )
    p_lfr.add_argument(
        "--scales",
        type=float,
        nargs="+",
        default=[1.0],
        help="scale factors applied to the preset's rates",
    )
    p_lfr.add_argument("--shots", type=int, default=1000)
    p_lfr.add_argument("--basis", choices=["Z", "X"], default="Z")
    p_lfr.add_argument("--rounds", type=int, default=None)
    p_lfr.add_argument("--seed", type=int, default=0)
    p_lfr.add_argument(
        "--engine",
        choices=["frame", "tableau"],
        default="frame",
        help="sampling path: DEM frame sampler (fast, default) or packed-tableau replay",
    )
    p_lfr.add_argument(
        "--decoder",
        choices=available_decoders(),
        default=None,
        help="registered decoder (default: weighted union-find on the DEM graph)",
    )
    p_lfr.add_argument(
        "--window",
        type=int,
        default=None,
        help="sliding-window width in time slices for --decoder "
        "union_find_windowed (default: 2*distance)",
    )
    p_lfr.add_argument(
        "--commit",
        type=int,
        default=None,
        help="slices committed per window advance (default: distance; "
        "must be < --window)",
    )
    p_lfr.add_argument(
        "--shot-shards",
        type=int,
        default=1,
        help="split each cell's shot axis into N disjoint shards so decode "
        "fans out across --jobs workers (frame engine only)",
    )
    p_lfr.add_argument("--json", default=None, help="also write reports to a JSON file")
    _add_profile_argument(p_lfr, repeatable=True)
    _add_simd_argument(p_lfr)
    _add_job_arguments(p_lfr)
    p_lfr.set_defaults(fn=_cmd_lfr)

    p_dem = sub.add_parser(
        "dem",
        help="extract and summarize a detector error model for a memory experiment",
    )
    p_dem.add_argument("--distance", type=int, default=3)
    p_dem.add_argument("--basis", choices=["Z", "X"], default="Z")
    p_dem.add_argument("--rounds", type=int, default=None)
    p_dem.add_argument(
        "--rate", type=float, default=None, help="uniform(p) single-knob physical rate"
    )
    p_dem.add_argument(
        "--noise", default="near_term", help="noise preset (used when --rate is not given)"
    )
    p_dem.add_argument(
        "--decoder",
        choices=available_decoders(),
        default=None,
        help="also summarize the DEM-built decoding graph for this decoder",
    )
    p_dem.add_argument("--json", default=None, help="write the full DEM to a JSON file")
    p_dem.add_argument(
        "--stats",
        action="store_true",
        help="print extraction stats (seconds, sites, mechanisms, periodic-vs-full "
        "path, walk and fold kernels); with --json the same fields are embedded in "
        "the artifact",
    )
    _add_profile_argument(p_dem)
    p_dem.set_defaults(fn=_cmd_dem)

    p_render = sub.add_parser("render", help="render a patch layout (Fig 1/Fig 2)")
    p_render.add_argument("--dx", type=int, default=3)
    p_render.add_argument("--dz", type=int, default=3)
    p_render.add_argument(
        "--arrangement",
        default="standard",
        help="standard, rotated, flipped or rotated_flipped (any case)",
    )
    _add_profile_argument(p_render)
    p_render.set_defaults(fn=_cmd_render)

    p_sweep = sub.add_parser("sweep", help="resource sweep over code distances")
    p_sweep.add_argument("--op", required=True)
    p_sweep.add_argument("--distances", type=int, nargs="+", default=[3, 5])
    p_sweep.add_argument("--rounds", type=int, default=None)
    _add_profile_argument(p_sweep, repeatable=True)
    _add_simd_argument(p_sweep)
    _add_job_arguments(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_profiles = sub.add_parser(
        "profiles", help="list or inspect declarative hardware profiles"
    )
    profiles_sub = p_profiles.add_subparsers(dest="profiles_command", required=True)
    pp_list = profiles_sub.add_parser("list", help="list shipped/registered profiles")
    pp_list.set_defaults(fn=_cmd_profiles_list)
    pp_show = profiles_sub.add_parser(
        "show", help="show one profile's calibration in full"
    )
    pp_show.add_argument("name", help="profile name or TOML/JSON file path")
    pp_show.add_argument(
        "--json", action="store_true", help="print the profile as canonical JSON"
    )
    pp_show.set_defaults(fn=_cmd_profiles_show)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:
        # The CLI's one error exit (App. B): every check above and every
        # library refusal (ProfileError, CheckpointError, a decoder refusing
        # its graph, ...) is a ValueError whose message is the whole report.
        print(err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
