"""Pipeline benchmark: three workloads, output checks, end-to-end and layer metrics.

Each workload is a closed loop with one client: an iteration starts only
after the previous one finished, in this one process, with no worker pool.
Every iteration starts from ``MemoryExperiment.clear_compile_cache()``,
because every ``tiscc`` invocation pays compile and DEM extraction again.

* ``lfr_canonical`` — the ROADMAP's canonical ``tiscc lfr`` run (d=7,
  near_term, rounds=3d, 20k shots, frame engine, weighted union-find).
  Decode-bound.
* ``lfr_long_simd`` — the same call at rounds=70 with SIMD beam-pass
  scheduling and 1k shots.  Extraction-bound: SIMD circuits take the full
  DEM walk.
* ``resource_sweep`` — the paper's §3.4 resource-estimation workflow,
  ``sweep_operation`` over every registered operation at d=3..11.
  Compiler-bound; no DEM, sampling or decoding.

The seed drives the lfr workloads' noise sampling; compilation is
deterministic, so ``resource_sweep`` draws nothing from it.

Times that a bound guards (``setup_s``, ``ref_wall_s``, ``ref_work_per_s``)
are in reference seconds: each timed region samples the host's speed while
it runs and is rescaled to a reference host (see ``perfbench.hostclock``),
because on a few shared cores the host's own speed drifts by more than any
bound allows.  The raw host seconds are printed and recorded beside them.

An untraced run (``trace=False``) reports the end-to-end metrics; a traced
run alternates untraced and traced iterations and reports the per-layer
metrics, including the tracing overhead.  Per-layer times are self times
(a span minus its child spans), so they add up, with the residual, to the
traced wall time; the template compile inside ``fault_table`` therefore
counts under ``core.*`` and ``hardware.*``.  Metric names, units and the
preferred direction are declared once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.estimator.sweep as sweep_mod
from repro.decode.memory import MemoryExperiment
from repro.sim.noise import NoiseModel

from perfbench import THREAD_VARS
from perfbench.hostclock import HostClock
from perfbench.trace import Tracer, hooks

__all__ = ["WORKLOADS", "declared_metrics", "run_workload"]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What every ``tiscc`` CLI call pays before doing any work: interpreter
#: start, the CLI module's imports, and loading every hardware profile.
#: The child samples the host while it imports and prints the slowdown and
#: the probes' own seconds, so the parent can rescale its wall time.
SETUP_CODE = (
    "import json\n"
    "from perfbench.hostclock import HostClock\n"
    "with HostClock() as clock:\n"
    "    import repro.__main__\n"
    "    from repro.hardware.profile import available_profiles, get_profile\n"
    "    for name in available_profiles():\n"
    "        get_profile(name)\n"
    "print(json.dumps([clock.slowdown, clock.wall_s - clock.program_s]))\n"
)

#: Half-width of the logical-error-rate acceptance band, in binomial sigmas.
LER_BAND_SIGMAS = 5.0

#: Table 1 logical time-steps per instruction, as the paper lists them
#: (the same values ``benchmarks/bench_table1_instructions.py`` asserts).
TABLE1_TIMESTEPS = {
    "PrepareZ": 1,
    "PrepareX": 1,
    "InjectY": 0,
    "MeasureZ": 0,
    "PauliX": 0,
    "Hadamard": 0,
    "Idle": 1,
    "MeasureZZ": 1,
    "MeasureXX": 1,
}


@dataclass(frozen=True)
class LfrSize:
    """One ``logical_error_sweep`` cell and the reference LER to check it by."""

    distance: int
    rounds: int
    shots: int
    simd: bool
    #: Logical error rate measured once with 10-100x this cell's shots at an
    #: unrelated seed; each run must land within the binomial band around it.
    expected_ler: float


@dataclass(frozen=True)
class SweepSize:
    distances: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    full: LfrSize | SweepSize
    smoke: LfrSize | SweepSize
    #: Timed iterations' unit of work: decoded shots or native instructions.
    work_unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lfr_canonical",
            full=LfrSize(7, 21, 20000, False, expected_ler=0.00279),
            smoke=LfrSize(3, 10, 200, False, expected_ler=0.01473),
            work_unit="shots",
        ),
        Workload(
            "lfr_long_simd",
            full=LfrSize(7, 70, 1000, True, expected_ler=0.0102),
            smoke=LfrSize(3, 10, 200, True, expected_ler=0.01435),
            work_unit="shots",
        ),
        Workload(
            "resource_sweep",
            full=SweepSize((3, 5, 7, 9, 11)),
            smoke=SweepSize((3,)),
            work_unit="instructions",
        ),
    )
}


def declared_metrics() -> dict[str, list[dict]]:
    """The ``end_to_end`` and ``per_layer`` metric lists of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# --------------------------------------------------------------- iterations
@dataclass
class Outcome:
    """One iteration: its timing, work done, and its output checks."""

    clock: HostClock
    work: int
    cells: int
    #: Cells that raised or failed a check, and what went wrong.
    failed_cells: int
    failures: list[str]
    modelled_time_s: float
    ler: float = 0.0
    defects_per_shot: float = 0.0
    fingerprint: tuple = ()


def _run_lfr(size: LfrSize, seed: int, compiled_ops: list, tracer: Tracer | None) -> Outcome:
    MemoryExperiment.clear_compile_cache()
    gc.collect()
    raised = None
    with hooks(compiled_ops, tracer), HostClock() as clock:
        try:
            reports = sweep_mod.logical_error_sweep(
                [size.distance],
                noise_models=["near_term"],
                rounds=size.rounds,
                shots=size.shots,
                seed=seed,
                engine="frame",
                simd=size.simd,
                jobs=1,
            )
        except Exception as exc:  # a raising run counts as a failed cell
            raised = exc
    if raised is not None:
        return Outcome(clock, 0, 1, 1, [f"raised {raised!r}"], 0.0)

    # Checks read the run's outputs through the (now cached) compile; they
    # run after the hooks are gone, so nothing here is timed or traced.
    (report,) = reports
    exp = MemoryExperiment(distance=size.distance, rounds=size.rounds, simd=size.simd)
    dem = exp.detector_error_model(NoiseModel.preset("near_term"))
    d = size.distance
    expected_detectors = (size.rounds + 1) * (d * d - 1) // 2
    failures = []
    for what, n in (("layout", exp.n_detectors), ("DEM", dem.n_detectors)):
        if n != expected_detectors:
            failures.append(f"{what} has {n} detectors, expected {expected_detectors}")
    if report.n_shots != size.shots:
        failures.append(f"decoded {report.n_shots} shots, asked for {size.shots}")
    if not report.failures < report.raw_failures:
        failures.append(
            f"decoded failures {report.failures} not below raw flips {report.raw_failures}"
        )
    mean = size.shots * size.expected_ler
    sigma = (mean * (1.0 - size.expected_ler)) ** 0.5
    if abs(report.failures - mean) > LER_BAND_SIGMAS * sigma:
        failures.append(
            f"{report.failures} logical failures outside {mean:.1f} +- "
            f"{LER_BAND_SIGMAS * sigma:.1f}"
        )
    simd_report = exp.compiled.simd_report
    if size.simd and not simd_report.beam_passes < simd_report.baseline_passes:
        failures.append(
            f"SIMD beam passes {simd_report.beam_passes} not below "
            f"unscheduled {simd_report.baseline_passes}"
        )
    return Outcome(
        clock=clock,
        work=report.n_shots,
        cells=1,
        failed_cells=int(bool(failures)),
        failures=failures,
        modelled_time_s=exp.compiled.resources.computation_time_s,
        ler=report.logical_error_rate,
        defects_per_shot=report.mean_defects,
        fingerprint=(report.failures, report.raw_failures, report.mean_defects),
    )


def _run_sweep(size: SweepSize, seed: int, compiled_ops: list, tracer: Tracer | None) -> Outcome:
    # Compilation is deterministic: the seed draws nothing here.  The order
    # stays the registry's, because peak memory depends on it.
    ops = list(sweep_mod.OPERATION_PROGRAMS)
    MemoryExperiment.clear_compile_cache()
    gc.collect()
    per_op: list[tuple[str, list | Exception, list]] = []
    with hooks(compiled_ops, tracer), HostClock() as clock:
        for op in ops:
            start = len(compiled_ops)
            try:
                reports = sweep_mod.sweep_operation(op, list(size.distances), jobs=1)
            except Exception as exc:  # the op's cells count as failed
                reports = exc
            per_op.append((op, reports, compiled_ops[start:]))

    failures: list[str] = []
    failed_cells = 0
    work = 0
    modelled = 0.0
    cell_outputs = []
    for op, reports, compiled in per_op:
        if isinstance(reports, Exception):
            failures.extend(f"{op} d={d}: raised {reports!r}" for d in size.distances)
            failed_cells += len(size.distances)
            continue
        for d, rep, comp in zip(size.distances, reports, compiled):
            work += rep.n_instructions
            modelled += rep.computation_time_s
            cell_outputs.append((op, d, rep.n_instructions, rep.computation_time_s))
            problems = []
            if (comp.operation, comp.dx, rep.dx) != (op, d, d):
                problems.append(f"compiled {comp.operation} d={comp.dx}, report d={rep.dx}")
            if comp.validity is None:
                problems.append("no validity report")
            elif comp.validity.n_instructions != rep.n_instructions:
                problems.append(
                    f"report counts {rep.n_instructions} instructions, "
                    f"validity replay {comp.validity.n_instructions}"
                )
            steps = TABLE1_TIMESTEPS.get(op)
            if steps is not None and comp.results[-1].logical_timesteps != steps:
                problems.append(
                    f"{comp.results[-1].logical_timesteps} logical time-steps, paper says {steps}"
                )
            failures.extend(f"{op} d={d}: {p}" for p in problems)
            failed_cells += bool(problems)
    return Outcome(
        clock=clock,
        work=work,
        cells=len(ops) * len(size.distances),
        failed_cells=failed_cells,
        failures=failures,
        modelled_time_s=modelled,
        fingerprint=tuple(sorted(cell_outputs)),
    )


def _iterate(size: LfrSize | SweepSize, seed: int, tracer: Tracer | None = None) -> Outcome:
    run = _run_lfr if isinstance(size, LfrSize) else _run_sweep
    return run(size, seed, [], tracer)


# ------------------------------------------------------------------ metrics
def measure_setup(repeats: int) -> float:
    """Median reference seconds for a fresh interpreter to import the CLI and load profiles."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - t0
        slowdown, probe_s = json.loads(child.stdout.splitlines()[-1])
        times.append((wall - probe_s) / slowdown)
    return statistics.median(times)


def _layer_metrics(tracer: Tracer, outcome: Outcome) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (self times + counts)."""
    own = tracer.self_seconds()
    c = tracer.counts

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    dem_tables = c["sim.dem_periodic"] + c["sim.dem_full"]
    return {
        "core.setup_s": s("core.setup"),
        "core.compile_s": s("core.compile"),
        "core.instructions": c["core.instructions"],
        "hardware.validate_s": s("hardware.validate"),
        "hardware.estimate_s": s("hardware.estimate"),
        "hardware.simd_s": s("hardware.simd"),
        "hardware.beam_passes": c["hardware.beam_passes"],
        "hardware.beam_passes_unscheduled": c["hardware.beam_passes_unscheduled"],
        "hardware.junction_conflicts": c["hardware.junction_conflicts"],
        "hardware.modelled_time_s": outcome.modelled_time_s,
        "sim.fault_table_s": s("sim.fault_table"),
        "sim.fault_sites": c["sim.fault_sites"],
        "sim.dem_periodic": c["sim.dem_periodic"],
        "sim.dem_full": c["sim.dem_full"],
        "sim.dem_periodic_ratio": rate(c["sim.dem_periodic"], dem_tables),
        "sim.build_dem_s": s("sim.build_dem"),
        "sim.build_dem.calls": c["sim.build_dem.calls"],
        "sim.mechanisms": c["sim.mechanisms"],
        "sim.sampler_init_s": s("sim.sampler_init"),
        "sim.sample_s": s("sim.sample"),
        "sim.shots_per_s": rate(c["sim.shots"], s("sim.sample")),
        "decode.experiment_init_s": s("decode.experiment_init"),
        "decode.graph_s": s("decode.graph"),
        "decode.graph_edges": c["decode.graph_edges"],
        "decode.graph_dem": c["decode.graph_dem"],
        "decode.graph_schedule": c["decode.graph_schedule"],
        "decode.decoder_init_s": s("decode.decoder_init"),
        "decode.decode_s": s("decode.decode"),
        "decode.shots_per_s": rate(c["decode.shots"], s("decode.decode")),
        "decode.defects_per_shot": outcome.defects_per_shot,
        "decode.ler": outcome.ler,
        "estimator.sweep_s": s("estimator.sweep"),
        "estimator.engine_frame": c["estimator.engine_frame"],
        "estimator.engine_tableau": c["estimator.engine_tableau"],
        "trace.wall_s": tracer.spans[0]["end"] - tracer.spans[0]["start"],
        "trace.residual_s": s("run"),
    }


def environment(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Stamp recorded with every result, so runs on different boxes never mix silently."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    out_dir: Path | None = None,
) -> dict:
    """Run one workload for ``seconds`` and return the full result record.

    The record holds the contract line (``correct``/``attempted``/``failed``/
    ``metrics``) plus everything a reader needs to interpret it: the
    environment stamp, per-iteration wall times, failed checks, the
    human-readable summary values and, when traced, the last traced
    iteration's span tree.  With ``out_dir`` the record is also written
    there as JSON.
    """
    workload = WORKLOADS[name]
    size = workload.smoke if smoke else workload.full
    setup_s = measure_setup(1 if smoke else 7)

    # A toy-size iteration on the same code path finishes lazy imports and
    # first-use set-up before anything is timed.
    _iterate(workload.smoke, seed)
    plain: list[Outcome] = []
    traced: list[tuple[Outcome, Tracer]] = []
    start = time.perf_counter()
    # At least two untraced iterations, so every run repeats the same-seed
    # computation at least once and checks that its outputs repeat.
    while len(plain) < 2 or time.perf_counter() - start < seconds:
        plain.append(_iterate(size, seed))
        if trace:
            tracer = Tracer()
            traced.append((_iterate(size, seed, tracer), tracer))
    first = plain[0]
    outcomes = plain + [o for o, _ in traced]

    failures: list[str] = []
    failed = 0
    for i, o in enumerate(outcomes):
        failures.extend(f"iteration {i}: {f}" for f in o.failures)
        failed += o.failed_cells
        if o.fingerprint != first.fingerprint and not o.failed_cells:
            failures.append(f"iteration {i}: outputs differ from the same-seed first run")
            failed += o.cells
    attempted = sum(o.cells for o in outcomes)

    wall = statistics.median(o.clock.reference_s for o in plain)
    end_to_end = {
        "setup_s": setup_s,
        "ref_wall_s": wall,
        "ref_work_per_s": statistics.median(o.work / o.clock.reference_s for o in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # What one command shows a reader, with units: the end-to-end metrics
    # plus the values that are deterministic or too noisy to bound.
    summary = {
        "setup_s": (setup_s, "s"),
        "ref_wall_s": (wall, "s"),
        f"ref_{workload.work_unit}_per_s": (end_to_end["ref_work_per_s"], "1/s"),
        "host_wall_s": (statistics.median(o.clock.wall_s for o in plain), "s"),
        "host_slowdown": (statistics.median(o.clock.slowdown for o in plain), "x"),
        "peak_rss_mb": (end_to_end["peak_rss_mb"], "MB"),
        "failed_frac": (failed / attempted, "frac"),
        "modelled_time_s": (first.modelled_time_s, "modelled_s"),
    }
    if isinstance(size, LfrSize):
        summary["ler"] = (first.ler, "frac")

    declared = declared_metrics()
    record: dict = {
        "env": environment(name, seed, seconds, trace, smoke),
        "iterations": {
            "untraced_s": [o.clock.wall_s for o in plain],
            "untraced_ref_s": [o.clock.reference_s for o in plain],
            "untraced_slowdown": [o.clock.slowdown for o in plain],
            "traced_s": [o.clock.wall_s for o, _ in traced],
            "traced_ref_s": [o.clock.reference_s for o, _ in traced],
        },
        "failures": failures,
        "summary": summary,
    }
    if trace:
        layers = [_layer_metrics(t, o) for o, t in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        traced_wall = statistics.median(o.clock.reference_s for o, _ in traced)
        values["trace_overhead_frac"] = (traced_wall - wall) / wall
        spec = declared["per_layer"]
        record["trace"] = traced[-1][1].to_dict()
    else:
        values = end_to_end
        spec = declared["end_to_end"]
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(
            f"emitted metrics {sorted(values)} differ from the declared {[m['name'] for m in spec]}"
        )
    record["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
        (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    return record
