"""Native SIMD scheduler: bit for bit against the Python loop, its oracle.

The C kernel (``repro/hardware/_simd_kernel.c``) and the Python loop both
read the columns :func:`~repro.hardware.simd.simd_schedule` lays the sorted
stream out as (beam class, duration, resources).  They must produce the same
start times, compared as bytes, and the same :class:`SimdReport` apart from
which kernel ran, because the scheduled circuit's DEM, every fixed-seed
logical error rate and the golden schedule digests in ``test_simd.py``
depend on them.  The Python loop is forced by making the loader report a
failure during a schedule.  The build, rebuild, fallback and import-time
checks shared with the other kernels live in ``tests/test_uf_kernel.py``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
import test_simd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import TISCC
from repro.decode.memory import MemoryExperiment
from repro.estimator.sweep import OPERATION_PROGRAMS
from repro.hardware import _simd_native, simd
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import MOVE_US, GridManager
from repro.hardware.profile import SIMD_MODES
from repro.hardware.simd import SimdReport, simd_schedule
from repro.util import native

GRID = GridManager(2, 2)
#: Two site-disjoint crossings of one junction, and one adjacent-zone hop.
CROSS_A, CROSS_B, HOP = (31, 39), (41, 49), (1, 2)


def on_python(call):
    """``call()`` with the native kernel unavailable: the Python loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, simd.SOURCE, (None, "forced by the test"))
        return call()


@pytest.fixture(scope="module")
def native_kernel():
    """Skips a comparison where no native kernel can be built here."""
    lib, reason = native.load(simd.SOURCE, _simd_native._declare)
    if lib is None:
        pytest.skip(reason)


def _fields(report: SimdReport) -> dict:
    """Every report field but the two that name the kernel."""
    out = dataclasses.asdict(report)
    del out["kernel"], out["fallback_reason"]
    return out


def assert_same_schedule(circuit: HardwareCircuit, grid, **kwargs) -> HardwareCircuit:
    """Both kernels' schedules of ``circuit``, held bit for bit; the native one."""
    fast, fast_report = simd_schedule(circuit, grid, **kwargs)
    oracle, oracle_report = on_python(lambda: simd_schedule(circuit, grid, **kwargs))
    assert fast_report.kernel == "native", fast_report.fallback_reason
    assert oracle_report.kernel == "python"
    assert oracle_report.fallback_reason == "forced by the test"
    assert fast.columns().t.tobytes() == oracle.columns().t.tobytes()
    assert _fields(fast_report) == _fields(oracle_report)
    return fast


@functools.cache
def compiled_op(op: str, distance: int, profile: str) -> tuple[GridManager, HardwareCircuit]:
    """One unscheduled compile of a sweep operation, shared across examples."""
    build, (rows, cols) = OPERATION_PROGRAMS[op]
    compiler = TISCC(dx=distance, dz=distance, tile_rows=rows, tile_cols=cols, profile=profile)
    compiled = compiler.compile(build(), operation=op)
    return compiler.grid, compiled.circuit


@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(sorted(OPERATION_PROGRAMS)),
    distance=st.sampled_from([3, 5]),
    profile=st.sampled_from(["baseline", "fast_projected", "slow_junction"]),
    width=st.sampled_from([0, 1, 2, 3, 8, 16, 64]),
    mode=st.sampled_from(SIMD_MODES),
    overhead=st.sampled_from([0.0, 2.5, 5.0]),
)
def test_operations_schedule_identically(
    native_kernel, op, distance, profile, width, mode, overhead
):
    grid, circuit = compiled_op(op, distance, profile)
    assert_same_schedule(circuit, grid, width=width, mode=mode, overhead_us=overhead)


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_long_simd_memories_schedule_identically(native_kernel, basis):
    """The benchmark's long SIMD memory shape: d=7, 70 rounds."""
    plain = MemoryExperiment(distance=7, rounds=70, basis=basis)
    scheduled = assert_same_schedule(plain.compiled.circuit, plain.compiler.grid)
    simd = MemoryExperiment(distance=7, rounds=70, basis=basis, simd=True).compiled.circuit
    assert scheduled.columns().t.tobytes() == simd.columns().t.tobytes()


def test_empty_circuit(native_kernel):
    scheduled = assert_same_schedule(HardwareCircuit(), GRID, width=2)
    _, report = simd_schedule(HardwareCircuit(), GRID)
    assert len(scheduled) == 0
    assert (report.n_rows, report.beam_passes, report.baseline_passes) == (0, 0, 0)
    assert report.makespan_us == report.baseline_makespan_us == 0.0


def test_transport_only_circuit(native_kernel):
    """Transport rows drain at their earliest starts, and two swaps through
    one junction serialize even though they share no site."""
    junction = GRID.junction_between(*CROSS_A)
    assert junction is not None and GRID.junction_between(*CROSS_B) == junction
    assert GRID.junction_between(*HOP) is None
    circuit = HardwareCircuit()
    for site in (CROSS_A[0], CROSS_B[0], HOP[0]):
        circuit.append("Load", (site,), 0.0, 0.0)
    crossing = GRID.junction_hop_us
    circuit.append("Move", CROSS_A, 100.0, crossing)
    circuit.append("Move", CROSS_B, 100.0, crossing)
    circuit.append("Move", HOP, 100.0, MOVE_US)
    circuit.append("Move", HOP[::-1], 200.0, MOVE_US)
    scheduled = assert_same_schedule(circuit, GRID, mode="pass_serial", overhead_us=5.0)
    _, report = simd_schedule(circuit, GRID)
    assert (report.n_laser_rows, report.beam_passes, report.baseline_passes) == (0, 0, 0)
    assert scheduled.columns().t.tolist() == [0.0, 0.0, 0.0, 0.0, crossing, 0.0, MOVE_US]
    assert report.makespan_us == 2 * crossing


def test_a_width_past_int64_splits_no_pass(native_kernel):
    grid, circuit = compiled_op("MeasureZ", 3, "baseline")
    wide = assert_same_schedule(circuit, grid, width=2**64 + 1)
    unlimited, _ = simd_schedule(circuit, grid)
    assert wide.columns().t.tobytes() == unlimited.columns().t.tobytes()


GOLDEN = test_simd.test_scheduled_circuits_match_golden_digests.pytestmark[0]


@pytest.mark.parametrize(*GOLDEN.args, **GOLDEN.kwargs)
def test_golden_digests_hold_on_the_python_loop(kwargs, program, expected):
    """``test_simd.py``'s pinned schedules, from the fallback loop."""
    compiled = on_python(lambda: TISCC(**kwargs).compile(program, simd=True))
    assert compiled.simd_report.kernel == "python"
    assert test_simd.schedule_digest(compiled.circuit) == expected


def test_compile_timings_name_the_kernel(native_kernel, capsys):
    from repro.__main__ import main

    argv = ["compile", "--op", "MeasureZ", "--simd", "--timings"]
    assert main(argv) == 0
    assert " s (native kernel), validate " in capsys.readouterr().out
    assert on_python(lambda: main(argv)) == 0
    assert " s (python kernel), validate " in capsys.readouterr().out


def test_columns_resolve_each_junction_once(monkeypatch):
    """The Move site pairs' junctions are looked up once per distinct pair."""
    grid, circuit = compiled_op("CNOT", 3, "baseline")
    lookup, calls = grid.junction_between, []

    def counted(a, b):
        calls.append((a, b))
        return lookup(a, b)

    monkeypatch.setattr(grid, "junction_between", counted)
    cols = circuit.sorted_columns()
    columns = simd._columns(cols, grid)
    moves = [i for i, name in enumerate(cols.names) if name == "Move" and cols.nsites[i] == 2]
    pairs = {cols.sites[i] for i in moves}
    assert sorted(calls) == sorted(pairs) and len(moves) > len(pairs)
    for i in moves:
        j = lookup(*cols.sites[i])
        assert columns.resources[i, 2] == (-1 if j is None else grid.n_positions + j)
    assert np.all(columns.resources[columns.classes >= 0, 2] == -1)
