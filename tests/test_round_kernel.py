"""Native round scheduler: bit for bit against the Python round loop, its oracle.

The C kernel (``repro/code/_round_kernel.c``) runs
``SyndromeScheduler._schedule_round_python`` in one call: the phase-0
preparations, the four Z/N layers with their deferral worklist and
sidesteps, the homeward drain and the X measurements.  Every case here
compiles twice, natively and with the Python loop forced (the loader is
made to report a failure), and compares the circuit's six columns as bytes,
its label table, every ``RoundRecord`` and the whole grid state the rounds
leave: the ion registry with its dict order, and both calendars as each
position's intervals in commit order plus the horizon arrays' bytes.
Where the Python loop raises, the kernel commits nothing and the loop
reruns, so both paths raise the same error with the same message.  The
build, rebuild, fallback and import-time checks shared with the other
kernels live in ``tests/test_uf_kernel.py``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.code import _round_native, stabilizer_circuits
from repro.code.arrangements import Arrangement
from repro.code.corner import flip_patch
from repro.code.logical_qubit import LogicalQubit
from repro.code.patch_layout import PatchLayout
from repro.code.stabilizer_circuits import RoundRecord, SyndromeScheduler
from repro.code.translation import move_right_swap_left
from repro.core.compiler import TISCC
from repro.estimator.sweep import OPERATION_PROGRAMS
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.hardware.model import HardwareModel
from repro.hardware.profile import PROFILE_DIR
from repro.util import native
from tests.conftest import fresh_patch

#: The profiles shipped with the package, one file each.
SHIPPED_PROFILES = sorted(p.stem for ext in ("toml", "json") for p in PROFILE_DIR.glob(f"*.{ext}"))

#: Everything a round reads or writes on the grid: the ion registry ...
IONS = ("_site_of", "_occupant", "_occupied_since", "_ion_ready")
#: ... the site and junction calendars ...
CALENDARS = ("_sites", "_junctions")
#: ... and the counters.
COUNTERS = ("junction_conflicts", "site_delays", "t_horizon")
GRID_STATE = (
    *IONS,
    *[f"{name}.{part}" for name in CALENDARS for part in ("intervals", "horizon")],
    *COUNTERS,
)


def grid_state(grid: GridManager) -> list:
    """The grid state in :data:`GRID_STATE` order, comparable with ``==``."""
    state = [list(getattr(grid, name).items()) for name in IONS]
    for name in CALENDARS:
        calendar = getattr(grid, name)
        state += [calendar.by_position(), calendar.horizon.tobytes()]
    return state + [getattr(grid, name) for name in COUNTERS]


@pytest.fixture(scope="module", autouse=True)
def kernel():
    """The loaded kernel; skips the file where none can be built here."""
    lib, reason = native.load(stabilizer_circuits.SOURCE, _round_native._declare)
    if lib is None:
        pytest.skip(reason)
    return lib


class Run(NamedTuple):
    """What one compile left behind."""

    columns: list[bytes]
    labels: dict[int, str]
    records: list[RoundRecord]
    grid: list
    #: Sidesteps the Python loop scheduled (0 on the native path).
    sidesteps: int


def run(build: Callable[[], tuple[GridManager, HardwareCircuit]], python: bool) -> Run:
    """``build()`` with every round and round list it schedules recorded."""
    records: list[RoundRecord] = []
    sidesteps = [0]
    round_, rounds, sidestep = (
        SyndromeScheduler.schedule_round,
        SyndromeScheduler.schedule_rounds,
        SyndromeScheduler._sidestep,
    )

    def recorded_round(self, *args, **kwargs):
        records.append(round_(self, *args, **kwargs))
        return records[-1]

    def recorded_rounds(self, *args, **kwargs):
        out = rounds(self, *args, **kwargs)
        records.extend(out)
        return out

    def counted_sidestep(self, *args, **kwargs):
        stepped = sidestep(self, *args, **kwargs)
        sidesteps[0] += stepped
        return stepped

    with pytest.MonkeyPatch.context() as mp:
        if python:
            mp.setitem(native._loaded, stabilizer_circuits.SOURCE, (None, "forced by the test"))
        mp.setattr(SyndromeScheduler, "schedule_round", recorded_round)
        mp.setattr(SyndromeScheduler, "schedule_rounds", recorded_rounds)
        mp.setattr(SyndromeScheduler, "_sidestep", counted_sidestep)
        grid, circuit = build()
    cols = circuit.columns()
    columns = (cols.codes, cols.site0, cols.site1, cols.nsites, cols.t, cols.duration)
    return Run(
        [column.tobytes() for column in columns],
        dict(cols.labels),
        records,
        grid_state(grid),
        sidesteps[0],
    )


def assert_identical(build: Callable[[], tuple[GridManager, HardwareCircuit]]) -> Run:
    """Compile natively and on the Python loop; everything must agree."""
    fast, oracle = run(build, python=False), run(build, python=True)
    assert fast.columns == oracle.columns
    assert fast.labels == oracle.labels
    assert fast.records == oracle.records
    for name, a, b in zip(GRID_STATE, fast.grid, oracle.grid, strict=True):
        assert a == b, name
    assert fast.records, "no round was scheduled"
    assert {r.kernel for r in fast.records} == {"native"}
    assert {r.kernel for r in oracle.records} == {"python"}
    assert {r.fallback_reason for r in oracle.records} == {"forced by the test"}
    return oracle


def compiled(op: str, d: int, profile: str, rounds: int):
    build, shape = OPERATION_PROGRAMS[op]

    def compile_():
        compiler = TISCC(
            dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1], rounds=rounds, profile=profile
        )
        out = compiler.compile(build(), operation=op)
        return compiler.grid, out.circuit

    return compile_


# --------------------------------------------------------------- operations
@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(sorted(OPERATION_PROGRAMS)),
    d=st.integers(2, 5),
    profile=st.sampled_from(SHIPPED_PROFILES),
    rounds=st.sampled_from(["1", "2", "d"]),
)
def test_operations_compile_identically(op, d, profile, rounds):
    assert_identical(compiled(op, d, profile, d if rounds == "d" else int(rounds)))


def test_compile_reports_the_round_kernel():
    program = OPERATION_PROGRAMS["MeasureZ"][0]
    out = TISCC(dx=3, dz=3, rounds=1).compile(program())
    assert (out.round_kernel, out.round_fallback_reason) == ("native", None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, stabilizer_circuits.SOURCE, (None, "forced by the test"))
        out = TISCC(dx=3, dz=3, rounds=1).compile(program())
    assert (out.round_kernel, out.round_fallback_reason) == ("python", "forced by the test")


# ------------------------------------------------------------- arrangements
def test_prepare_in_every_arrangement_sidesteps_identically():
    """Non-standard arrangements break occupancy cycles with sidesteps."""
    sidesteps = 0
    for arrangement in Arrangement:
        for d in (2, 3, 4):

            def prepare(arrangement=arrangement, d=d):
                grid, _, lq, circuit, _ = fresh_patch(d, d, arrangement)
                lq.prepare(circuit, basis="Z")
                return grid, circuit

            sidesteps += assert_identical(prepare).sidesteps
    assert sidesteps >= 1


def test_fig4_rotated_to_flipped_compiles_identically():
    def fig4():
        grid = GridManager(4, 8)
        lq = LogicalQubit(grid, HardwareModel(grid), 3, 3, (0, 0), Arrangement.ROTATED, "A")
        circuit = HardwareCircuit()
        lq.prepare(circuit, basis="Z", rounds=1)
        move_right_swap_left(circuit, lq, rounds=1)
        return grid, circuit

    assert assert_identical(fig4).sidesteps >= 1


# -------------------------------------------------------- rounds from history
def test_a_round_entered_with_live_calendar_history():
    """Calendar intervals that end after t_min delay the round's moves."""

    def history():
        grid, _, lq, circuit, _ = fresh_patch(3, 3)
        # Cross one face's north junction and hold another pocket late, then
        # leave: the round starts below the horizon those intervals set.
        plaq = next(p for p in lq.plaquettes if p.weight == 4)
        crosser = grid.add_ion(plaq.pockets["a"], "crosser")
        grid.schedule_move(circuit, crosser, plaq.pockets["b"], t_min=20_000.0)
        grid.remove_ion(crosser)
        grid.remove_ion(grid.add_ion(plaq.pockets["c"], "blocker"), t=30_000.0)
        lq.prepare(circuit, basis="Z", rounds=3)
        assert grid.site_delays > 0
        return grid, circuit

    assert_identical(history)


def test_a_round_before_time_zero_scans_never_used_calendars():
    """Below 0.0 a move's reservation scans a never-used site's calendar
    (its horizon 0.0 lies past the move's start), which holds no interval."""

    def early():
        grid = GridManager(5, 5)
        layout = PatchLayout(grid, 3, 3)
        for site in [*layout.data_sites().values(), *(p.home for p in layout.plaquettes())]:
            grid.add_ion(site, "early", t=-5_000.0)
        lq = LogicalQubit(grid, HardwareModel(grid), 3, 3)
        circuit = HardwareCircuit()
        lq.idle(circuit, rounds=1, t_min=-4_000.0)
        return grid, circuit

    assert_identical(early)


def test_a_round_from_t_min_below_the_horizon():
    def again():
        grid, _, lq, circuit, _ = fresh_patch(3, 3)
        lq.prepare(circuit, basis="X", rounds=1)
        lq.scheduler.schedule_round(
            circuit, lq.plaquettes, lq.measure_ions, lq.data_ion_at(), t_min=grid.t_horizon / 2
        )
        return grid, circuit

    assert_identical(again)


def test_single_plaquette_rounds_of_corner_movement():
    def flip():
        grid, _, lq, circuit, _ = fresh_patch(3, 3)
        lq.prepare(circuit, basis="Z", rounds=1)
        flip_patch(lq, circuit)
        return grid, circuit

    oracle = assert_identical(flip)
    assert any(len(r.outcome_labels) == 1 for r in oracle.records)


# -------------------------------------------------------------- error paths
def raised(build: Callable[[dict], None], python: bool) -> tuple[type, str, Run]:
    """The error ``build(state)`` raises, and what it left in ``state``."""
    state = {}

    def capture():
        try:
            build(state)
        except Exception as err:  # the error is the result
            state["error"] = (type(err), str(err))
        return state["grid"], state["circuit"]

    out = run(capture, python)
    return (*state["error"], out)


def assert_same_error(build: Callable[[dict], None]) -> tuple[type, str]:
    fast_type, fast_message, fast = raised(build, python=False)
    oracle_type, oracle_message, oracle = raised(build, python=True)
    assert (fast_type, fast_message) == (oracle_type, oracle_message)
    # Nothing the kernel did survives: the rerun's partial round is all.
    assert fast.columns == oracle.columns
    assert fast.grid == oracle.grid
    return fast_type, fast_message


def test_misparked_measure_ion_raises_the_same_error():
    def misparked(state):
        grid, _, lq, circuit, _ = fresh_patch(3, 3)
        state.update(grid=grid, circuit=circuit)
        plaq = next(p for p in lq.plaquettes if p.weight == 4)
        ion = lq.measure_ions[plaq.face]
        free = [s for s in grid.adjacent_zones(grid.site_of(ion)) if grid.ion_at(s) is None]
        grid.schedule_move(circuit, ion, free[0])
        lq.idle(circuit, rounds=1)

    error, message = assert_same_error(misparked)
    assert error is ValueError
    assert "is not parked at home" in message


def test_deadlocked_round_raises_the_same_error():
    def deadlocked(state):
        grid, _, lq, circuit, _ = fresh_patch(2, 2)
        state.update(grid=grid, circuit=circuit)
        for plaq in lq.plaquettes:  # park an outsider on every pocket
            for pocket in plaq.pockets.values():
                if grid.ion_at(pocket) is None:
                    grid.add_ion(pocket, "squatter")
        lq.idle(circuit, rounds=1)

    error, message = assert_same_error(deadlocked)
    assert error is RuntimeError
    assert message.startswith("syndrome schedule deadlock")


def test_a_kernel_disagreement_is_raised_not_hidden(monkeypatch):
    """Where the kernel fails a round the Python loop schedules, say so."""
    monkeypatch.setattr(_round_native, "schedule_round", lambda *args: None)
    grid, _, lq, circuit, _ = fresh_patch(2, 2)
    with pytest.raises(RuntimeError, match="native round kernel rejected a round"):
        lq.prepare(circuit, basis="Z", rounds=1)


def test_compile_timings_name_the_round_kernel(capsys):
    from repro.__main__ import main

    argv = ["compile", "--op", "MeasureZ", "--timings"]
    assert main(argv) == 0
    assert " s (native round kernel), validate " in capsys.readouterr().out
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, stabilizer_circuits.SOURCE, (None, "forced by the test"))
        assert main(argv) == 0
    assert " s (python round kernel), validate " in capsys.readouterr().out
