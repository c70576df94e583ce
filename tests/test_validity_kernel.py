"""Native validity replay: verdict for verdict against the reference, its oracle.

The C kernel (``repro/hardware/_validity_kernel.c``) runs
:func:`~repro.hardware.validity.check_circuit_reference`'s state machine in
one pass over a circuit's execution order.  It must accept exactly the
circuits the reference accepts, with an equal report, and stop at the row
the reference raises on, because :func:`check_circuit` re-runs the
reference only to raise that row's message.  The reference is forced by
making the loader report a failure during a check.  The build, rebuild,
fallback and import-time checks shared with the other kernels live in
``tests/test_uf_kernel.py``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import TISCC
from repro.estimator.sweep import OPERATION_PROGRAMS
from repro.hardware import _validity_native, validity
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.hardware.profile import PROFILE_DIR
from repro.hardware.validity import (
    CircuitValidityError,
    ValidityReport,
    check_circuit,
    check_circuit_reference,
)
from repro.util import native

#: Rows as ``(name, sites, t, duration)``, in append order.
Row = tuple[str, tuple[int, ...], float, float]

#: The profiles shipped with the package, one file each.
SHIPPED_PROFILES = sorted(p.stem for ext in ("toml", "json") for p in PROFILE_DIR.glob(f"*.{ext}"))


def on_python(call):
    """``call()`` with the native kernel unavailable: the reference replay."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, validity.SOURCE, (None, "forced by the test"))
        return call()


@pytest.fixture(scope="module")
def kernel():
    """The loaded kernel; skips a comparison where none can be built here."""
    lib, reason = native.load(validity.SOURCE, _validity_native._declare)
    if lib is None:
        pytest.skip(reason)
    return lib


def circuit_of(rows: list[Row]) -> HardwareCircuit:
    circuit = HardwareCircuit()
    for row in rows:
        circuit.append(*row)
    return circuit


def rows_of(circuit: HardwareCircuit) -> list[Row]:
    cols = circuit.columns()
    return list(zip(cols.names, cols.sites, cols.t.tolist(), cols.duration.tolist()))


def assert_same_report(fast: ValidityReport, oracle: ValidityReport) -> None:
    """Every compared field equal, as the same type."""
    for f in dataclasses.fields(ValidityReport):
        if f.compare:
            a, b = getattr(fast, f.name), getattr(oracle, f.name)
            assert a == b, f.name
            assert type(a) is type(b), f.name
    assert fast == oracle


def raw_verdict(lib, grid: GridManager, circuit: HardwareCircuit, occupancy: dict) -> int:
    """The kernel's own verdict: -1, or the first invalid sorted position."""
    sites = np.fromiter(occupancy, dtype=np.int64, count=len(occupancy))
    return _validity_native.replay(lib, grid, circuit, sites).failed_at


def assert_agree(lib, grid: GridManager, circuit: HardwareCircuit, occupancy: dict) -> None:
    """Kernel and reference accept alike, or reject at the same row alike."""
    try:
        oracle = check_circuit_reference(grid, circuit, occupancy)
    except CircuitValidityError as exc:
        rows = circuit.sorted_instructions()  # the objects the reference replayed
        position = next(p for p, inst in enumerate(rows) if inst is exc.instruction)
        assert raw_verdict(lib, grid, circuit, occupancy) == position
        with pytest.raises(CircuitValidityError) as fast_error:
            check_circuit(grid, circuit, occupancy)
        assert str(fast_error.value) == str(exc)
        return
    assert raw_verdict(lib, grid, circuit, occupancy) == -1
    fast = check_circuit(grid, circuit, occupancy)
    assert fast.kernel == "native", fast.fallback_reason
    assert_same_report(fast, oracle)


# ------------------------------------------------------- compiled operations
@functools.cache
def compiled_op(op: str, distance: int, profile: str, simd: bool):
    build, (rows, cols) = OPERATION_PROGRAMS[op]
    compiler = TISCC(dx=distance, dz=distance, tile_rows=rows, tile_cols=cols, profile=profile)
    compiled = compiler.compile(build(), operation=op, simd=simd)
    return compiler.grid, compiled.circuit, compiled.initial_occupancy


@pytest.mark.parametrize("simd", [False, True], ids=["unscheduled", "simd"])
@pytest.mark.parametrize("profile", SHIPPED_PROFILES)
@pytest.mark.parametrize("distance", [3, 5])
@pytest.mark.parametrize("op", sorted(OPERATION_PROGRAMS))
def test_operations_are_accepted_identically(kernel, op, distance, profile, simd):
    grid, circuit, occupancy = compiled_op(op, distance, profile, simd)
    fast = check_circuit(grid, circuit, occupancy)
    oracle = on_python(lambda: check_circuit(grid, circuit, occupancy))
    assert (fast.kernel, fast.fallback_reason) == ("native", None)
    assert (oracle.kernel, oracle.fallback_reason) == ("python", "forced by the test")
    assert_same_report(fast, oracle)
    assert fast.n_instructions == len(circuit) and fast.makespan == circuit.makespan


def test_shipped_profiles_are_all_covered():
    assert {"baseline", "fast_projected", "slow_junction"} <= set(SHIPPED_PROFILES)


# ------------------------------------------------------------ mutated circuits
#: Compiled d=3 circuits the mutation sweep starts from: a memory, a patch
#: move with junction crossings, and a SIMD-retimed two-patch measurement.
BASES = [("MeasureZ", False), ("Move", False), ("MeasureZZ", True)]


@functools.cache
def base(op: str, simd: bool):
    grid, circuit, occupancy = compiled_op(op, 3, "baseline", simd)
    return grid, rows_of(circuit), occupancy


NAMES = ["Load", "Move", "ZZ", "Prepare_Z", "Measure_Z", "X_pi/2"]
SHIFTS = [-420.0, -210.0, -105.0, -5.25, -1e-3, -1e-10, 1e-10, 1e-3, 5.25, 105.0, 210.0]


def _times(rows: list[Row]) -> st.SearchStrategy[float]:
    end = max((t + d for _, _, t, d in rows), default=0.0)
    return st.floats(-100.0, end + 100.0, allow_nan=False).map(lambda t: round(t, 2))


def _sites(grid: GridManager) -> st.SearchStrategy[int]:
    return st.integers(-3, grid.n_positions + 2)


def _durations(grid: GridManager) -> st.SearchStrategy[float]:
    return st.sampled_from([0.0, grid.move_us, grid.junction_hop_us, 10.0, 99.0, -5.0])


def _crossings(grid: GridManager, rows: list[Row]) -> list[int]:
    """The rows that are junction-crossing moves between grid zones."""
    return [
        i
        for i, (name, sites, _, _) in enumerate(rows)
        if name == "Move"
        and len(sites) == 2
        and all(0 <= s < grid.n_positions for s in sites)
        and grid.junction_between(*sites) is not None
    ]


@st.composite
def mutations(draw, grid: GridManager, rows: list[Row]):
    """One edit of a row list: retime, re-site, re-arity, rename, drop or add rows."""
    rows = list(rows)
    crossings = _crossings(grid, rows)
    i = draw(st.integers(0, len(rows) - 1))
    name, sites, t, dur = rows[i]
    kind = draw(
        st.sampled_from(
            ["shift", "cross", "junction", "duration", "site", "arity", "rename", "drop"]
            + ["row", "load"]
        )
    )
    if kind == "shift":
        rows[i] = (name, sites, t + draw(st.sampled_from(SHIFTS)), dur)
    elif kind == "cross" and crossings:
        # Push a junction crossing into its neighbours' slots, or time it as a one-zone hop.
        j = draw(st.sampled_from(crossings))
        name, sites, t, dur = rows[j]
        shift = draw(st.sampled_from([-209.0, -105.0, -5.25, -1e-3, 1e-3, 5.25, 105.0, 209.0, 0.0]))
        rows[j] = (name, sites, t + shift, dur if shift else grid.move_us)
    elif kind == "junction" and crossings:
        # A fresh ion crossing the same junction between its other two zones.
        name, (a, b), t, dur = rows[draw(st.sampled_from(crossings))]
        flank = [s for s in grid.neighbors(grid.junction_between(a, b)) if s not in (a, b)]
        if len(flank) == 2:
            c, d = draw(st.permutations(flank))
            start = t + draw(st.sampled_from([-209.0, -5.25, 0.0, 5.25, 209.0, 210.0]))
            rows += [("Load", (c,), start - 1.0, 0.0), ("Move", (c, d), start, dur)]
    elif kind == "duration":
        rows[i] = (name, sites, t, draw(_durations(grid)))
    elif kind == "site" and sites:
        # Anywhere, or a lattice neighbour (a junction, say) of the old site.
        k = draw(st.integers(0, len(sites) - 1))
        near = grid.neighbors(sites[k]) if 0 <= sites[k] < grid.n_positions else []
        site = draw(st.sampled_from(near) if near and draw(st.booleans()) else _sites(grid))
        sites = sites[:k] + (site,) + sites[k + 1 :]
        rows[i] = (name, sites, t, dur)
    elif kind == "arity":
        rows[i] = (name, tuple(draw(st.lists(_sites(grid), max_size=2))), t, dur)
    elif kind == "rename":
        rows[i] = (draw(st.sampled_from(NAMES)), sites, t, dur)
    elif kind == "drop":
        del rows[i]
    elif kind == "row":
        name, sites = draw(st.sampled_from(NAMES)), tuple(draw(st.lists(_sites(grid), max_size=2)))
        rows.append((name, sites, draw(_times(rows)), draw(_durations(grid))))
    else:  # a Load onto a site the circuit uses: occupied or not yet released
        used = sorted({s for _, sites, _, _ in rows for s in sites})
        rows.append(("Load", (draw(st.sampled_from(used)),), draw(_times(rows)), 0.0))
    return rows


@st.composite
def mutated(draw):
    grid, rows, occupancy = base(*draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(mutations(grid, rows))
    return grid, circuit_of(rows), occupancy


@settings(max_examples=150, deadline=None)
@given(case=mutated())
def test_mutated_circuits_fail_at_the_same_row(kernel, case):
    assert_agree(kernel, *case)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_rows_fail_at_the_same_row(kernel, data):
    """Short random streams from a random initial occupancy on a small grid."""
    grid = GridManager(2, 2)
    zones = grid.zone_sites()
    start = data.draw(st.lists(st.sampled_from(zones), max_size=4, unique=True))
    occupancy = {site: ion for ion, site in enumerate(start)}
    rows = []
    for _ in range(data.draw(st.integers(0, 8))):
        sites = tuple(data.draw(st.lists(st.sampled_from(zones + [-1, 0, 81]), max_size=2)))
        name = data.draw(st.sampled_from(NAMES))
        t = data.draw(st.sampled_from([-50.0, 0.0, 5.25, 10.0, 210.0, 500.0]))
        rows.append((name, sites, t, data.draw(_durations(grid))))
    assert_agree(kernel, grid, circuit_of(rows), occupancy)


# ----------------------------------------------------------------- edge cases
def test_empty_circuit_keeps_the_initial_occupancy(kernel):
    grid = GridManager(2, 2)
    occupancy = {grid.index(0, 1): 7, grid.index(0, 2): 3}
    report = check_circuit(grid, HardwareCircuit(), occupancy)
    assert report.kernel == "native"
    assert report.final_occupancy == occupancy and report.makespan == 0.0
    assert_same_report(report, check_circuit_reference(grid, HardwareCircuit(), occupancy))


def test_every_short_zone_pair_hops_as_the_reference_does(kernel):
    """Each ordered pair of zones at most two lattice steps apart, timed as a
    one-zone hop and as a junction crossing: the kernel finds the same
    adjacent hop, junction crossing or illegal hop as the reference."""
    grid = GridManager(2, 3)
    zones = grid.zone_sites()
    for a in zones:
        for b in zones:
            (ra, ca), (rb, cb) = grid.coords(a), grid.coords(b)
            if not 0 < abs(ra - rb) + abs(ca - cb) <= 2:
                continue
            for dur in (grid.move_us, grid.junction_hop_us):
                circuit = circuit_of([("Load", (a,), 0.0, 0.0), ("Move", (a, b), 1.0, dur)])
                assert_agree(kernel, grid, circuit, {})


def test_junction_crossings_serialize(kernel):
    """Two site-disjoint crossings of one junction: back to back is valid,
    any overlap is not."""
    grid = GridManager(2, 2)
    hop = grid.junction_hop_us
    (a, b), (c, d) = (31, 39), (41, 49)
    assert grid.junction_between(a, b) == grid.junction_between(c, d) is not None
    for gap in (0.0, 1e-10, -1e-10, -1e-3, -105.0, -hop):
        circuit = circuit_of([("Move", (a, b), 0.0, hop), ("Move", (c, d), hop + gap, hop)])
        assert_agree(kernel, grid, circuit, {a: 0, c: 1})
    report = check_circuit(grid, circuit_of([("Move", (a, b), 0.0, hop)]), {a: 0})
    assert report.junctions_used == {grid.junction_between(a, b)}


@pytest.mark.parametrize("early", [-1e-3, 0.0, 5e-10, 2e-9, 1e-3])
def test_every_timing_tolerance_matches_the_reference(kernel, early):
    """Each time or duration check, missed by ``early`` µs: within the
    reference's 1e-9 µs tolerance the row is valid, beyond it not."""
    grid = GridManager(2, 2)
    s1, s2, s3 = grid.index(0, 1), grid.index(0, 2), grid.index(0, 3)
    move, hop = grid.move_us, grid.junction_hop_us
    prep = ("Prepare_Z", (s1,), 0.0, 10.0)
    cases = [
        ({s1: 0}, [prep, ("X_pi/2", (s1,), 10.0 - early, 10.0)]),  # ion busy
        ({s1: 0, s2: 1}, [prep, ("ZZ", (s1, s2), 10.0 - early, 10.0)]),
        ({s1: 0, s2: 1}, [prep, ("ZZ", (s2, s1), 10.0 - early, 10.0)]),
        ({s1: 0}, [prep, ("Move", (s1, s2), 10.0 - early, move)]),
        # A site is released when the transit leaving it ends.
        ({s1: 0, s2: 1}, [("Move", (s2, s3), 0.0, move), ("Move", (s1, s2), move - early, move)]),
        ({s1: 0}, [("Move", (s1, s2), 0.0, move), ("Load", (s1,), move - early, 0.0)]),
        ({31: 0, 41: 1}, [("Move", (31, 39), 0.0, hop), ("Move", (41, 49), hop - early, hop)]),
        ({s1: 0}, [("Move", (s1, s2), 0.0, move + early)]),
        ({31: 0}, [("Move", (31, 39), 0.0, hop + early)]),
    ]
    for occupancy, rows in cases:
        assert_agree(kernel, grid, circuit_of(rows), occupancy)


def test_loaded_ions_take_ids_above_every_initial_id(kernel):
    grid = GridManager(2, 2)
    s, u, v = grid.index(0, 1), grid.index(0, 2), grid.index(0, 3)
    circuit = circuit_of([("Load", (u,), 0.0, 0.0), ("Load", (v,), 1.0, 0.0)])
    report = check_circuit(grid, circuit, {s: 41})
    assert report.final_occupancy == {s: 41, u: 42, v: 43}
    assert_agree(kernel, grid, circuit, {s: 41})


def test_the_native_pass_builds_no_sorted_copy_and_calls_no_geometry(kernel, monkeypatch):
    """Geometry comes from the grid's arrays and rows from the append-order
    columns: no per-row Python lookups, no sorted column copy."""
    grid, circuit, occupancy = compiled_op("Move", 3, "baseline", False)
    expected = check_circuit_reference(grid, circuit, occupancy)
    circuit = circuit.retimed(circuit.columns().t)  # a fresh copy, nothing cached

    def forbidden(*args, **kwargs):
        raise AssertionError("called during the native pass")

    for name in ("junction_between", "neighbors", "gate_adjacent"):
        monkeypatch.setattr(grid, name, forbidden)
    monkeypatch.setattr(HardwareCircuit, "sorted_columns", forbidden)
    assert_same_report(check_circuit(grid, circuit, occupancy), expected)


def test_compile_timings_name_the_validity_kernel(kernel, capsys):
    from repro.__main__ import main

    argv = ["compile", "--op", "MeasureZ", "--timings"]
    assert main(argv) == 0
    assert " s (native kernel), estimate " in capsys.readouterr().out
    assert on_python(lambda: main(argv)) == 0
    assert " s (python kernel), estimate " in capsys.readouterr().out


# ------------------------------------------------------------------ used sites
@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(NAMES),
            st.lists(st.integers(-3, 40), max_size=2).map(tuple),
            st.floats(0.0, 100.0),
        ),
        max_size=12,
    )
)
def test_used_sites_match_a_sort_over_both_columns(rows):
    circuit = circuit_of([(name, sites, t, 1.0) for name, sites, t in rows])
    cols = circuit.columns()
    sites = np.unique(np.concatenate([cols.site0, cols.site1]))
    assert circuit.used_sites() == set(sites[sites >= 0].tolist())
