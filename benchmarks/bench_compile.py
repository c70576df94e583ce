"""Compile-path benchmark: columnar compiler core vs the pre-refactor path.

Acceptance target for the columnar refactor (structure-of-arrays
``HardwareCircuit``, QEC-round template replay, native validity replay and
vectorized resource estimation): at d=11 the compile + validate + estimate pipeline
must run at least **10x** faster than the pre-refactor path for both the
single-tile memory program and the multi-tile lattice-surgery CNOT, and
the columnar circuit must serialize **byte-identically** to the legacy
one (with equal validity reports and resource figures).

The legacy leg reproduces the pre-refactor behavior exactly, the same way
``bench_decode.py`` keeps the PR 2 decoder: QEC rounds compiled one by one
(template replay off) by the Python round loop, the
instruction-by-instruction reference validity replay, the object-iterating
resource estimator kept verbatim below, and the original uncached per-call
grid geometry scans monkeypatched back in.  The columnar leg schedules its
rounds on the native round kernel (``repro/code/_round_kernel.c``) and
validates on the native validity kernel
(``repro/hardware/_validity_kernel.c``); the table's ``round kernel`` and
``kernel`` columns and ``--json`` say which scheduler and which replay each
leg ran, and both the script and its pytest entry fail unless the columnar
leg's were native, so a broken kernel build cannot pass on a Python
fallback.

Run directly::

    python benchmarks/bench_compile.py            # full: d=7/11, >=10x at d=11
    python benchmarks/bench_compile.py --quick    # CI smoke: d=3/5, >=3x
    python benchmarks/bench_compile.py --json BENCH_compile.json
    python benchmarks/bench_compile.py --min-speedup 2   # nightly regression gate

or via pytest (quick scale): ``pytest benchmarks/bench_compile.py -s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

import repro.core.compiler as compiler_module
from repro.code import stabilizer_circuits
from repro.code.stabilizer_circuits import SyndromeScheduler
from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.hardware.circuit import Instruction
from repro.hardware.grid import (
    GridManager,
    JUNCTION_HOP_US,
    MOVE_US,
    SiteBlockedError,
    _earliest_slot,
)
from repro.hardware.resources import ResourceReport, estimate_resources
from repro.hardware.validity import check_circuit, check_circuit_reference
from repro.util import native
from repro.util.geometry import SiteType, site_exists

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table

#: (program builder, tile grid shape) — the two acceptance workloads.
PROGRAMS = {
    "ZMemory": (lambda: [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))], (1, 1)),
    "CNOT": (lattice_surgery_cnot_program, (2, 2)),
}


# --------------------------------------------------------------------------
# The pre-refactor path, kept verbatim (not in the library) so the benchmark
# always measures the new hot path against exactly what it replaced.
# --------------------------------------------------------------------------


class LegacyHardwareCircuit:
    """The pre-refactor circuit container, verbatim: one Instruction object
    per append, Python ``sorted`` with a tuple key per consumer pass."""

    def __init__(self) -> None:
        self._instructions: list[Instruction] = []
        self._measure_count = 0

    def append(self, name, sites, t, duration, label=None) -> Instruction:
        inst = Instruction(name, tuple(int(s) for s in sites), float(t), float(duration), label)
        self._instructions.append(inst)
        return inst

    def new_measure_label(self) -> str:
        label = f"m{self._measure_count}"
        self._measure_count += 1
        return label

    def extend(self, other) -> None:
        self._instructions.extend(other._instructions)
        self._measure_count = max(self._measure_count, other._measure_count)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self):
        return iter(self.sorted_instructions())

    @property
    def instructions(self) -> list[Instruction]:
        return list(self._instructions)

    def sorted_instructions(self) -> list[Instruction]:
        return sorted(
            self._instructions,
            key=lambda i: (i.t, 0 if i.name == "Load" else 1, i.sites, i.name),
        )

    @property
    def makespan(self) -> float:
        if not self._instructions:
            return 0.0
        return max(i.t_end for i in self._instructions)

    @property
    def t_start(self) -> float:
        if not self._instructions:
            return 0.0
        return min(i.t for i in self._instructions)

    def used_sites(self) -> set[int]:
        sites: set[int] = set()
        for inst in self._instructions:
            sites.update(inst.sites)
        return sites

    def count(self, name: str) -> int:
        return sum(1 for i in self._instructions if i.name == name)

    def gate_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for inst in self._instructions:
            hist[inst.name] = hist.get(inst.name, 0) + 1
        return dict(sorted(hist.items()))

    def measurements(self) -> list[Instruction]:
        return [i for i in self.sorted_instructions() if i.label is not None]

    def to_text(self, header=None) -> str:
        lines = []
        if header:
            lines.append(f"# {header}")
        lines += [inst.to_text() for inst in self.sorted_instructions()]
        return "\n".join(lines) + "\n"


def _legacy_neighbors(self, site):
    """Pre-refactor GridManager.neighbors: a fresh geometry scan per call."""
    r, c = self.coords(site)
    out = []
    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if 0 <= rr < self.height and 0 <= cc < self.width and site_exists(rr, cc):
            out.append(rr * self.width + cc)
    return out


def _legacy_is_zone(self, site):
    return self.site_type(site) is not SiteType.JUNCTION


def _legacy_adjacent_zones(self, site):
    return [s for s in self.neighbors(site) if self.is_zone(s)]


def _legacy_junction_between(self, a, b):
    if not (self.is_zone(a) and self.is_zone(b)):
        return None
    for j in self.neighbors(a):
        if self.site_type(j) is SiteType.JUNCTION and b in self.neighbors(j):
            return j
    return None


def _legacy_reserve_site(self, site, t, dur):
    """Pre-refactor _reserve_site: always scans the full interval list."""
    intervals = self._site_busy.setdefault(site, [])
    return _earliest_slot(intervals, t, dur)


def _legacy_schedule_move(self, circuit, ion, dst, t_min=0.0):
    """Pre-refactor schedule_move: no calendar-horizon fast paths."""
    src = self._site_of[ion]
    if dst == src:
        return (self._ion_ready[ion], self._ion_ready[ion])
    if not self.is_zone(dst):
        raise ValueError(f"ion cannot stop on junction site {dst}")
    junction = None
    if dst in self.neighbors(src):
        dur = MOVE_US
    else:
        junction = self.junction_between(src, dst)
        if junction is None:
            raise ValueError(f"sites {src} and {dst} are not one hop apart")
        dur = JUNCTION_HOP_US
    occupant = self._occupant.get(dst)
    if occupant is not None:
        raise SiteBlockedError(dst, occupant)
    t = max(t_min, self._ion_ready[ion])
    t_site = self._reserve_site(dst, t, dur)
    if t_site > t:
        self.site_delays += 1
    t = t_site
    if junction is not None:
        intervals = self._junction_busy.setdefault(junction, [])
        t_junction = _earliest_slot(intervals, t, dur)
        if t_junction > t:
            self.junction_conflicts += 1
            t_junction = self._reserve_site(dst, t_junction, dur)
        t = t_junction
        intervals.append((t, t + dur))
    since = self._occupied_since.pop(src)
    self._commit_site(src, since, t + dur)
    del self._occupant[src]
    self._occupant[dst] = ion
    self._occupied_since[dst] = t
    self._site_of[ion] = dst
    self._ion_ready[ion] = t + dur
    circuit.append("Move", (src, dst), t, dur)
    return (t, t + dur)


def legacy_estimate_resources(grid, circuit, operation="", dx=0, dz=0):
    """The pre-refactor estimator: per-Instruction Python iteration."""
    instructions = circuit.instructions
    if instructions:
        t0 = min(i.t for i in instructions)
        t1 = max(i.t_end for i in instructions)
        time_s = (t1 - t0) * 1e-6
    else:
        time_s = 0.0
    sites = circuit.used_sites()
    if sites:
        coords = [grid.coords(s) for s in sites]
        r0 = min(r for r, _ in coords)
        r1 = max(r for r, _ in coords)
        c0 = min(c for _, c in coords)
        c1 = max(c for _, c in coords)
        # The pitch the grid's profile prices (420.0 µm * 1e-6, one ulp off
        # the old module constant 420e-6), as the columnar estimator uses.
        pitch_m = grid.profile.zone_pitch_m
        area = ((r1 - r0 + 1) * pitch_m) * ((c1 - c0 + 1) * pitch_m)
        zones = grid.zones_in_bbox(r0, c0, r1, c1)
    else:
        area = 0.0
        zones = 0
    active = sum(i.duration * len(i.sites) for i in instructions) * 1e-6
    return ResourceReport(
        operation=operation,
        dx=dx,
        dz=dz,
        computation_time_s=time_s,
        grid_area_m2=area,
        spacetime_volume_s_m2=time_s * area,
        n_trapping_zones=zones,
        zone_seconds=zones * time_s,
        active_zone_seconds=active,
        n_instructions=len(instructions),
        gate_histogram=circuit.gate_histogram(),
    )


@contextmanager
def legacy_compiler_path():
    """Run the exact pre-refactor pipeline: list-of-Instruction circuits,
    round-by-round scheduling in the Python round loop (the round kernel
    would bypass the patched grid methods and cannot append to the legacy
    container), and uncached per-call geometry scans."""
    source = stabilizer_circuits.SOURCE
    loaded = native._loaded.get(source)
    native._loaded[source] = (None, "the pre-refactor path schedules rounds in Python")
    saved = (
        GridManager.neighbors,
        GridManager.is_zone,
        GridManager.adjacent_zones,
        GridManager.junction_between,
        GridManager._reserve_site,
        GridManager.schedule_move,
        SyndromeScheduler.template_replay,
        compiler_module.HardwareCircuit,
    )
    GridManager.neighbors = _legacy_neighbors
    GridManager.is_zone = _legacy_is_zone
    GridManager.adjacent_zones = _legacy_adjacent_zones
    GridManager.junction_between = _legacy_junction_between
    GridManager._reserve_site = _legacy_reserve_site
    GridManager.schedule_move = _legacy_schedule_move
    SyndromeScheduler.template_replay = False
    compiler_module.HardwareCircuit = LegacyHardwareCircuit
    try:
        yield
    finally:
        if loaded is None:
            native._loaded.pop(source, None)
        else:
            native._loaded[source] = loaded
        (
            GridManager.neighbors,
            GridManager.is_zone,
            GridManager.adjacent_zones,
            GridManager.junction_between,
            GridManager._reserve_site,
            GridManager.schedule_move,
            SyndromeScheduler.template_replay,
            compiler_module.HardwareCircuit,
        ) = saved


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


def _run_leg(op: str, d: int, legacy: bool, repeat: int = 1) -> dict:
    """Compile + validate + estimate one program, timing each phase.

    With ``repeat > 1`` the whole pipeline runs that many times on fresh
    compiler instances and the fastest total is kept — the standard
    noise-robust estimator; both legs are treated identically.
    """
    best = None
    for _ in range(max(1, repeat)):
        leg = _run_leg_once(op, d, legacy)
        if best is None or leg["total_seconds"] < best["total_seconds"]:
            best = leg
    assert best is not None
    return best


def _run_leg_once(op: str, d: int, legacy: bool) -> dict:
    build, shape = PROGRAMS[op]
    checker = check_circuit_reference if legacy else check_circuit
    estimator = legacy_estimate_resources if legacy else estimate_resources

    compiler = TISCC(dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1])
    t0 = time.perf_counter()
    compiled = compiler.compile(build(), operation=op, validate=False, estimate=False)
    t_compile = time.perf_counter() - t0

    t0 = time.perf_counter()
    validity = checker(compiler.grid, compiled.circuit, compiled.initial_occupancy)
    t_validate = time.perf_counter() - t0

    t0 = time.perf_counter()
    resources = estimator(compiler.grid, compiled.circuit, op, d, d)
    t_estimate = time.perf_counter() - t0

    return {
        "op": op,
        "d": d,
        "path": "legacy" if legacy else "columnar",
        "n_instructions": len(compiled.circuit),
        "compile_seconds": t_compile,
        "validate_seconds": t_validate,
        "estimate_seconds": t_estimate,
        "total_seconds": t_compile + t_validate + t_estimate,
        "text": compiled.circuit.to_text(),
        "validity": validity,
        "kernel": validity.kernel,
        "fallback_reason": validity.fallback_reason,
        "round_kernel": compiled.round_kernel,
        "round_fallback_reason": compiled.round_fallback_reason,
        "resources": resources,
    }


def run_bench(distances: list[int], repeat: int = 2) -> dict:
    """Time both paths on both programs, asserting exact equivalence."""
    # Warm up imports/JIT-ish caches outside the timed region.
    TISCC(dx=2, dz=2, rounds=1).compile([("PrepareZ", (0, 0))])

    rows = []
    speedups: dict[tuple[str, int], float] = {}
    equivalent = True
    for op in PROGRAMS:
        for d in distances:
            with legacy_compiler_path():
                legacy = _run_leg(op, d, legacy=True, repeat=repeat)
            new = _run_leg(op, d, legacy=False, repeat=repeat)
            same = (
                new["text"] == legacy["text"]
                and new["validity"] == legacy["validity"]
                and new["resources"] == legacy["resources"]
            )
            equivalent &= same
            speedup = legacy["total_seconds"] / new["total_seconds"]
            speedups[(op, d)] = speedup
            for leg in (legacy, new):
                rows.append(
                    {
                        k: leg[k]
                        for k in (
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
                    }
                )
            rows[-1]["speedup"] = speedup
            rows[-1]["equivalent"] = same

    d_max = max(distances)
    columnar = [r for r in rows if r["path"] == "columnar"]
    fallback = next((r for r in columnar if r["kernel"] != "native"), columnar[0])
    round_fallback = next((r for r in columnar if r["round_kernel"] != "native"), columnar[0])
    return {
        "distances": distances,
        "programs": list(PROGRAMS),
        "round_kernel": round_fallback["round_kernel"],
        "round_fallback_reason": round_fallback["round_fallback_reason"],
        "kernel": fallback["kernel"],
        "fallback_reason": fallback["fallback_reason"],
        "rows": rows,
        "speedups": {f"{op}@d{d}": s for (op, d), s in speedups.items()},
        "speedup": min(speedups[(op, d_max)] for op in PROGRAMS),
        "equivalent": equivalent,
    }


def report(res: dict) -> None:
    print_table(
        "compile + validate + estimate (columnar vs pre-refactor)",
        ["program", "d", "path", "instr", "compile [s]", "round kernel", "validate [s]",
         "kernel", "estimate [s]", "total [s]", "speedup"],
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
                f"{r['speedup']:.1f}x" if "speedup" in r else "",
            ]
            for r in res["rows"]
        ],
    )
    print(
        f"worst speedup at d={max(res['distances'])}: {res['speedup']:.1f}x; "
        f"byte-identical circuits, equal validity/resource reports: "
        f"{res['equivalent']}"
    )


def test_compile_speedup():
    """Quick-scale pytest entry: the columnar path must win clearly."""
    res = run_bench(distances=[3, 5])
    report(res)
    assert res["round_kernel"] == "native", res["round_fallback_reason"]
    assert res["kernel"] == "native", res["fallback_reason"]
    assert res["equivalent"]
    assert res["speedup"] >= 3.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (d=3/5, >=3x)"
    )
    parser.add_argument(
        "--distances", type=int, nargs="+", default=None, help="distance override"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="repetitions per leg; the fastest run is kept (noise floor)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this compile+validate+estimate speedup at the largest "
        "distance (default: 10 full, 3 quick; nightly passes 2 as a "
        ">5x-regression-from-10x gate)",
    )
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)
    distances = args.distances or ([3, 5] if args.quick else [7, 11])
    target = args.min_speedup if args.min_speedup is not None else (3.0 if args.quick else 10.0)
    res = run_bench(distances=distances, repeat=args.repeat)
    res["min_speedup"] = target
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
        print("FAIL: columnar path is not byte-identical to the legacy path")
        return 1
    if res["speedup"] < target:
        print(
            f"FAIL: need >= {target:.1f}x at d={max(distances)}, "
            f"got {res['speedup']:.1f}x"
        )
        return 1
    print(
        f"OK: >= {target:.1f}x at d={max(distances)}, outputs byte-identical, "
        "native round and validity kernels"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
