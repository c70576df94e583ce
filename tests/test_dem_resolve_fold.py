"""The DEM kernel's stream resolver and fold, bit for bit against their oracles.

``dem_resolve`` (``repro/sim/_dem_kernel.c``) resolves a circuit's sorted
stream in one native pass; :func:`~repro.sim.interpreter.replay_stream`,
which the interpreter and the batched sampler keep reading, is its oracle
and the error path.  ``dem_fold`` folds a fault table's priced sites into
mechanisms; the NumPy fold in :func:`~repro.sim.dem.build_dem` is its
no-compiler fallback, and the per-site dictionary loop in
``tests/oracles.py`` the oracle of both.  Gaps are compared as
``float.hex`` and probabilities as bytes, so a one-ulp drift fails.  The
literal digests at the end pin the two benchmark-shaped DEMs, since the
native and NumPy folds could drift together.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.decode.memory import MemoryExperiment
from repro.hardware.circuit import HardwareCircuit
from repro.sim import _dem_native, dem
from repro.sim.dem import LETTERS, FaultTable, build_dem, extract_fault_table
from repro.sim.interpreter import replay_stream
from repro.sim.noise import NoiseModel, NoiseParams
from repro.util import native

NEAR_TERM = NoiseModel.preset("near_term").params
SITES = range(8)


@pytest.fixture(scope="module")
def lib():
    """The loaded kernel; skips where no native kernel can be built here."""
    lib, reason = native.load(dem.SOURCE, _dem_native._declare)
    if lib is None:
        pytest.skip(reason)
    return lib


def on_python(call):
    """``call()`` with the native kernel unavailable."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, dem.SOURCE, (None, "forced by the test"))
        return call()


def outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except (ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------------- resolver
def python_resolved(stream) -> tuple:
    """A :class:`ReplayStream`'s qubits, gaps (``float.hex``) and tableau size."""
    gaps = [[(q, gap.hex(), pred) for q, gap, pred in row] for row in stream.idle]
    return [list(q) for q in stream.qubits], gaps, stream.n_qubits


def native_resolved(stream: _dem_native.Stream) -> tuple:
    """:func:`python_resolved` of the kernel's CSR columns."""
    q, gap, pred = stream.idle_q.tolist(), stream.idle_gap.tolist(), stream.idle_pred.tolist()
    qptr, iptr = stream.qptr.tolist(), stream.iptr.tolist()
    qubits = [stream.qubits[a:b].tolist() for a, b in zip(qptr, qptr[1:])]
    gaps = [[(q[i], gap[i].hex(), pred[i]) for i in range(a, b)] for a, b in zip(iptr, iptr[1:])]
    return qubits, gaps, stream.n_qubits


def prefix(circuit: HardwareCircuit, k: int) -> HardwareCircuit:
    """The circuit of ``circuit``'s first ``k`` sorted rows."""
    out = HardwareCircuit()
    for row in circuit.sorted_instructions()[:k]:
        out.append(row.name, row.sites, row.t, row.duration, row.label)
    return out


def assert_resolves_like_replay_stream(lib, circuit, occupancy):
    """Same columns as ``replay_stream``, or the same first failing row."""
    resolved = _dem_native.resolve(lib, circuit, occupancy)
    expected = outcome(lambda: python_resolved(replay_stream(circuit, occupancy)))
    if isinstance(resolved, _dem_native.Stream):
        assert native_resolved(resolved) == expected
        return None
    assert isinstance(expected, str), f"the kernel stopped at row {resolved}"
    replay_stream(prefix(circuit, resolved), occupancy)  # resolves up to that row
    assert outcome(lambda: replay_stream(prefix(circuit, resolved + 1), occupancy)) == expected
    return resolved


@st.composite
def circuits(draw):
    """Random circuits over eight qsites, valid when sorted in append order.

    Start times never decrease, but ties between rows sort by site, so some
    circuits use a qsite before the row that fills it: those must fail at
    the same row on both resolvers.  Times mix exact and inexact binary
    fractions, zero durations, and starts one ulp after the last end.
    """
    n_ions = draw(st.integers(0, 5))
    held = draw(st.lists(st.sampled_from(SITES), min_size=n_ions, max_size=n_ions, unique=True))
    ions = draw(st.lists(st.integers(0, 50), min_size=n_ions, max_size=n_ions, unique=True))
    occupancy = dict(zip(held, ions))
    occupied = set(held)
    circuit = HardwareCircuit()
    t = end = 0.0
    for _ in range(draw(st.integers(0, 24))):
        step = draw(st.sampled_from(["same", "ulp", 0.1, 0.2, 0.3, 1 / 3, 5.0]))
        if step == "ulp":
            t = max(t, float(np.nextafter(end, np.inf)))
        elif step != "same":
            t += step
        duration = draw(st.sampled_from([0.0, 0.1, 0.2, 1 / 3, 10.0]))
        empty = sorted(set(SITES) - occupied)
        full = sorted(occupied)
        kind = draw(st.sampled_from(["gate", "gate", "zz", "load", "move"]))
        if kind == "load" and empty:
            site = draw(st.sampled_from(empty))
            circuit.append("Load", (site,), t, 0.0)
            occupied.add(site)
            continue
        if kind == "move" and empty and full:
            src, dst = draw(st.sampled_from(full)), draw(st.sampled_from(empty))
            circuit.append("Move", (src, dst), t, duration)
            occupied ^= {src, dst}
        elif kind == "zz" and len(full) >= 2:
            pair = draw(st.lists(st.sampled_from(full), min_size=2, max_size=2, unique=True))
            circuit.append("ZZ", pair, t, duration)
        elif full:
            name = draw(st.sampled_from(["X_pi/2", "Z_pi/4", "Prepare_Z", "Measure_Z"]))
            circuit.append(name, (draw(st.sampled_from(full)),), t, duration)
        else:
            continue
        end = t + duration
    return circuit, occupancy


@settings(max_examples=300, deadline=None)
@given(case=circuits())
def test_the_resolver_matches_replay_stream(lib, case):
    assert_resolves_like_replay_stream(lib, *case)


@pytest.mark.parametrize(
    "shape",
    [dict(distance=3, rounds=3), dict(distance=3, rounds=10, basis="X", simd=True)],
    ids=["d3-r3", "d3-r10-X-simd"],
)
def test_memories_resolve_like_replay_stream(lib, shape):
    compiled = MemoryExperiment(**shape).compiled
    resolved = assert_resolves_like_replay_stream(lib, compiled.circuit, compiled.initial_occupancy)
    assert resolved is None


def _circuit(*rows) -> HardwareCircuit:
    circuit = HardwareCircuit()
    for name, sites, t in rows:
        circuit.append(name, sites, t, 1.0)
    return circuit


#: (circuit, initial occupancy, first failing sorted row, message).  Each
#: circuit fails again later, so only the first failure may be reported.
MALFORMED = {
    "gate-on-empty-qsite": (
        _circuit(("Prepare_Z", (1,), 0.0), ("X_pi/2", (3,), 2.0), ("Z_pi/4", (4,), 3.0)),
        {1: 7},
        1,
        "ValueError: instruction 'X_pi/2 3' targets empty qsite 3",
    ),
    "second-site-empty": (
        _circuit(("ZZ", (1, 2), 0.0), ("ZZ", (1, 5), 2.0), ("X_pi/2", (6,), 3.0)),
        {1: 7, 2: 3},
        1,
        "ValueError: instruction 'ZZ 1 5' targets empty qsite 5",
    ),
    "load-onto-occupied-qsite": (
        _circuit(("Load", (4,), 0.0), ("Load", (1,), 1.0), ("Load", (1,), 2.0)),
        {1: 7},
        1,
        "ValueError: Load onto occupied qsite 1",
    ),
    "move-into-occupied-qsite": (
        _circuit(("Move", (1, 3), 0.0), ("Move", (3, 2), 2.0), ("Move", (2, 2), 3.0)),
        {1: 7, 2: 3},
        1,
        "ValueError: move into occupied qsite 2",
    ),
    "move-onto-itself": (
        _circuit(("Prepare_Z", (1,), 0.0), ("Move", (1, 1), 2.0)),
        {1: 7},
        1,
        "ValueError: move into occupied qsite 1",
    ),
    "move-from-empty-qsite": (
        _circuit(("Move", (1, 3), 0.0), ("Move", (1, 4), 2.0)),
        {1: 7},
        1,
        "ValueError: instruction 'Move 1 4' targets empty qsite 1",
    ),
    "move-with-one-site": (
        _circuit(("Prepare_Z", (1,), 0.0), ("Move", (1,), 2.0)),
        {1: 7},
        1,
        "ValueError: not enough values to unpack (expected 2, got 1)",
    ),
    "load-without-a-site": (
        _circuit(("Prepare_Z", (1,), 0.0), ("Load", (), 2.0)),
        {1: 7},
        1,
        "IndexError: tuple index out of range",
    ),
    "two-sites-one-ion": (
        _circuit(("Prepare_Z", (1,), 0.0)),
        {1: 7, 2: 7},
        -1,
        "ValueError: occupancy maps two sites to one ion",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_circuits_fail_at_the_same_row_with_the_same_error(lib, case):
    circuit, occupancy, row, message = MALFORMED[case]
    assert _dem_native.resolve(lib, circuit, occupancy) == row
    if row >= 0:
        assert assert_resolves_like_replay_stream(lib, circuit, occupancy) == row
    args = (circuit, occupancy, NEAR_TERM, [], [])
    assert outcome(lambda: extract_fault_table(*args)) == message
    assert on_python(lambda: outcome(lambda: extract_fault_table(*args))) == message


@pytest.mark.parametrize(
    "loaded, reason",
    [
        (True, "the native stream resolver stopped at sorted row 0"),
        (False, "the native stream resolver left the initial occupancy to replay_stream"),
    ],
    ids=["loaded", "initial"],
)
def test_negative_qsites_run_the_python_walk(lib, loaded, reason):
    """Negative qsites are outside the kernel's occupancy table, but the
    Python pass accepts them: the Python walk then builds the table."""
    circuit = HardwareCircuit()
    if loaded:
        circuit.append("Load", (-2,), 0.0, 0.0)
    circuit.append("Prepare_Z", (-2,), 1.0, 10.0)
    circuit.append("X_pi/2", (-2,), 15.0, 10.0)
    circuit.append("Measure_Z", (-2,), 30.0, 10.0, "m")
    occupancy = {} if loaded else {-2: 5}
    assert _dem_native.resolve(lib, circuit, occupancy) == (0 if loaded else -1)
    args = (circuit, occupancy, NEAR_TERM, [["m"]], [])
    table, oracle = extract_fault_table(*args), on_python(lambda: extract_fault_table(*args))
    assert (table.kernel, oracle.kernel) == ("python", "python")
    assert table.fallback_reason == reason
    assert table.kind_counts() == oracle.kind_counts()
    assert table.kind_counts()["idle"] == 3
    assert table.sites == oracle.sites and table.footprints == oracle.footprints


# ------------------------------------------------------------------ fold
@st.composite
def fault_tables(draw):
    """Random columnar tables: a sorted list of distinct (footprint, mask)
    keys, some invisible, and up to 400 sites over them, so a key can hold
    more than a hundred sites.  Timed sites carry zero, negative and
    positive durations."""
    fps = st.lists(st.integers(0, 5), max_size=3, unique=True).map(lambda ids: tuple(sorted(ids)))
    keys = sorted(draw(st.sets(st.tuples(fps, st.integers(0, 3)), max_size=6)))
    n_sites = draw(st.integers(0, 400)) if keys else 0
    mech = draw(
        st.lists(st.integers(0, len(keys) - 1), min_size=n_sites, max_size=n_sites)
        if keys
        else st.just([])
    )
    kinds = draw(st.lists(st.integers(0, 5), min_size=n_sites, max_size=n_sites))
    spans = st.sampled_from([0.0, -1.0, 1e-3, 0.5, 3.0, 250.0])
    durations = [draw(spans) if k >= 4 else 0.0 for k in kinds]
    rows = np.arange(n_sites, dtype=np.int64)
    paulis = np.zeros((n_sites, 2), dtype=np.int32)
    paulis[:, 0] = 4 * np.arange(n_sites) + LETTERS.index("Z")
    reads = [f"m{s}" for s, k in enumerate(kinds) if k == 3]
    return FaultTable(
        6,
        2,
        kernel="python",
        locations=(rows, np.ones(n_sites, dtype=np.int8), paulis, reads),
        channels=(np.array(kinds, dtype=np.int8), np.array(durations, dtype=np.float64)),
        mechanisms=(
            np.array(mech, dtype=np.int64),
            [fp for fp, _ in keys],
            np.array([obs for _, obs in keys], dtype=np.uint64),
        ),
    )


rates = st.sampled_from([0.0, 1e-3, 0.3])


def assert_same_dem(a, b):
    assert a.probs.dtype == b.probs.dtype and a.probs.tobytes() == b.probs.tobytes()
    assert a.detectors == b.detectors
    assert a.observables.dtype == b.observables.dtype
    assert np.array_equal(a.observables, b.observables)


@settings(max_examples=300, deadline=None)
@given(
    table=fault_tables(),
    p1=rates,
    p2=rates,
    p_prep=rates,
    p_meas=rates,
    t2=st.sampled_from([None, 1.0, 50.0]),
)
def test_the_fold_matches_the_oracle_and_the_numpy_fold(lib, table, p1, p2, p_prep, p_meas, t2):
    params = NoiseParams(p1=p1, p2=p2, p_prep=p_prep, p_meas=p_meas, t2_us=t2)
    fast = build_dem(table, params)
    fallback = on_python(lambda: build_dem(table, params))
    assert (fast.kernel, fast.fallback_reason) == ("native", None)
    assert (fallback.kernel, fallback.fallback_reason) == ("python", "forced by the test")
    oracle = oracles.build_dem(table, params)
    assert_same_dem(fast, oracle)
    assert_same_dem(fallback, oracle)


def out_of_range_table(kinds, mech) -> FaultTable:
    """A two-site table over one visible key, with the given columns."""
    return FaultTable(
        1,
        0,
        kernel="python",
        locations=(np.zeros(2, np.int64), np.ones(2, np.int8), np.zeros((2, 2), np.int32), []),
        channels=(np.array(kinds, dtype=np.int8), np.zeros(2)),
        mechanisms=(np.array(mech, dtype=np.int64), [(0,)], np.zeros(1, dtype=np.uint64)),
    )


@pytest.mark.parametrize(
    "kinds, mech, message",
    [
        ([0, 0], [0, 1], "fault site 1 has mechanism id 1, outside the 1 keys"),
        ([0, 0], [-1, 0], "fault site 0 has mechanism id -1, outside the 1 keys"),
        ([0, 6], [0, 0], "fault site 1 has kind code 6, outside 0..5"),
        ([-1, 0], [0, 0], "fault site 0 has kind code -1, outside 0..5"),
        ([4, 9], [0, 0], "fault site 1 has kind code 9, outside 0..5"),
    ],
    ids=["key-past-the-end", "negative-key", "kind-past-the-end", "negative-kind", "after-timed"],
)
def test_both_folds_reject_the_first_out_of_range_site(lib, kinds, mech, message):
    """Neither fold prices a site it cannot index (NumPy would wrap a
    negative id round to the last kind or key): both name the site."""
    table = out_of_range_table(kinds, mech)
    for params in (NEAR_TERM, NoiseParams(p1=0.1)):
        with pytest.raises(ValueError) as fast:
            build_dem(table, params)
        with pytest.raises(ValueError) as fallback:
            on_python(lambda: build_dem(table, params))
        assert str(fast.value) == str(fallback.value) == message


def test_the_native_fold_reads_one_timed_entry_per_dephasing_site(lib):
    """Dephasing sites read one NumPy-priced entry each, never past the end."""
    dephase, mech = np.full(2, 4, dtype=np.int8), np.zeros(2, dtype=np.int64)
    visible, rates = np.ones(1, dtype=bool), np.full(6, 0.1)
    for timed in (np.full(1, 0.1), np.full(3, 0.1)):
        with pytest.raises(ValueError, match="one timed probability per dephasing site"):
            _dem_native.fold(lib, dephase, mech, rates, timed, visible)
    mechs, probs = _dem_native.fold(lib, dephase, mech, rates, np.array([0.5, 0.25]), visible)
    assert mechs.tolist() == [0]
    assert probs.tolist() == [0.5 * 0.75 + 0.25 * 0.5]


# ------------------------------------------------------------ golden DEMs
def dem_digest(model) -> str:
    """SHA-256 over probability bytes, footprint ids and observable masks."""
    h = hashlib.sha256()
    h.update(model.probs.astype("<f8").tobytes())
    for dets in model.detectors:
        h.update((",".join(map(str, dets)) + ";").encode())
    h.update(model.observables.astype("<u8").tobytes())
    return h.hexdigest()


#: The benchmark's two memory cells (near_term noise), as the parent of the
#: native fold built them.
DEM_DIGESTS = [
    pytest.param(
        dict(distance=7, rounds=21),
        2563,
        "b24629d24b3bf22b81af0cae6e8e1874ec6ca66b92ea9bb9a45393ae4a2ecaae",
        id="lfr_canonical-d7-r21",
    ),
    pytest.param(
        dict(distance=7, rounds=70, simd=True),
        8443,
        "7fe3c352168aee980fbdddd0d73eb0657394ace8a3fd35ec0e742f8446fa2053",
        id="lfr_long_simd-d7-r70-simd",
    ),
]


@pytest.mark.parametrize("shape, n_mechanisms, expected", DEM_DIGESTS)
def test_benchmark_dems_match_golden_digests(lib, shape, n_mechanisms, expected):
    exp = MemoryExperiment(**shape)
    noise = NoiseModel.preset("near_term")
    table = exp.fault_table(noise)
    fast = build_dem(table, noise.params)
    fallback = on_python(lambda: build_dem(table, noise.params))
    assert (fast.kernel, fallback.kernel) == ("native", "python")
    assert fast.n_mechanisms == n_mechanisms
    assert dem_digest(fast) == dem_digest(fallback) == expected
