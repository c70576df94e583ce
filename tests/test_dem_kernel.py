"""Native DEM walk: bit for bit against the Python walk, its oracle.

The C kernel (``repro/sim/_dem_kernel.c``) propagates detector sensitivity
backward, one lane per detector or observable, where the Python walk pushes
one frame lane per fault site forward.  Both must emit the same columnar
:class:`~repro.sim.dem.FaultTable` — same site columns, same sorted
mechanism keys, same mechanism ids — and raise the same errors in the same
order, because every DEM, decoder weight and cached sweep cell is built
from that table.  The Python walk is forced by making the loader report a
failure during an extraction.  The build, rebuild, fallback and
import-time checks shared with the other kernels live in
``tests/test_uf_kernel.py``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decode.memory import MemoryExperiment
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import MOVE_US, GridManager
from repro.sim import _dem_native, dem
from repro.sim.dem import (
    DemExtractionError,
    build_dem,
    extract_fault_table,
    make_periodic_template,
)
from repro.sim.noise import NoiseModel, NoiseParams
from repro.util import native

GRID = GridManager(2, 2)
S1, S2, S3 = GRID.index(0, 1), GRID.index(0, 2), GRID.index(4, 1)
NEAR_TERM = NoiseModel.preset("near_term").params


def on_python(extract):
    """``extract()`` with the native kernel unavailable: the Python walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, dem.SOURCE, (None, "forced by the test"))
        return extract()


@pytest.fixture(scope="module")
def native_kernel():
    """Skips a comparison where no native kernel can be built here."""
    lib, reason = native.load(dem.SOURCE, _dem_native._declare)
    if lib is None:
        pytest.skip(reason)


def both_tables(*args):
    """The native and the Python walk's table of one extraction."""
    fast = extract_fault_table(*args)
    oracle = on_python(lambda: extract_fault_table(*args))
    assert (fast.kernel, fast.fallback_reason) == ("native", None)
    assert (oracle.kernel, oracle.fallback_reason) == ("python", "forced by the test")
    return fast, oracle


def assert_same_tables(fast, oracle):
    assert fast.n_sites == oracle.n_sites
    assert (fast.n_detectors, fast.n_observables) == (oracle.n_detectors, oracle.n_observables)
    for name in ("rows", "when", "paulis", "mechanisms", "key_observables"):
        a, b = getattr(fast, name), getattr(oracle, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for a, b in zip(fast.site_columns(), oracle.site_columns()):
        assert a.dtype == b.dtype and np.array_equal(a, b)  # float64 bits
    assert fast.readout_labels == oracle.readout_labels
    assert fast.key_detectors == oracle.key_detectors
    assert fast.sites == oracle.sites
    assert fast.footprints == oracle.footprints
    assert np.array_equal(fast.observables, oracle.observables)


def assert_same_dems(fast, oracle, params):
    a = build_dem(fast, params)
    b = build_dem(oracle, params)
    assert np.array_equal(a.probs, b.probs)
    assert a.detectors == b.detectors
    assert np.array_equal(a.observables, b.observables)


def memory_args(exp, params):
    return (
        exp.compiled.circuit,
        exp.compiled.initial_occupancy,
        params,
        exp.detector_labels,
        [exp.observable_labels],
    )


def outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except (DemExtractionError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def circuit_of(*rows) -> HardwareCircuit:
    """``(name, sites, start, duration[, label])`` rows."""
    circuit = HardwareCircuit()
    for name, sites, t, duration, *label in rows:
        circuit.append(name, sites, t, duration, *label)
    return circuit


# ------------------------------------------------------------ bit identity
@settings(max_examples=16, deadline=None)
@given(
    basis=st.sampled_from(["Z", "X"]),
    simd=st.booleans(),
    profile=st.sampled_from(["baseline", "slow_junction", "fast_projected"]),
    rounds=st.integers(1, 4),
    p1=st.sampled_from([0.0, 1e-4]),
    p2=st.sampled_from([0.0, 5e-3]),
    p_prep=st.sampled_from([0.0, 1e-3]),
    p_meas=st.sampled_from([0.0, 4e-3]),
    t2=st.sampled_from([None, 50_000.0]),
)
def test_memories_extract_identically(
    native_kernel, basis, simd, profile, rounds, p1, p2, p_prep, p_meas, t2
):
    params = NoiseParams(p1=p1, p2=p2, p_prep=p_prep, p_meas=p_meas, t2_us=t2)
    exp = MemoryExperiment(distance=3, rounds=rounds, basis=basis, profile=profile, simd=simd)
    fast, oracle = both_tables(*memory_args(exp, params))
    assert_same_tables(fast, oracle)
    assert_same_dems(fast, oracle, params)


@pytest.mark.parametrize("distance", [5, 7])
def test_templates_walk_identically(native_kernel, distance):
    exp = MemoryExperiment(distance=distance, rounds=9)
    args = memory_args(exp, NEAR_TERM)
    fast = make_periodic_template(*args)
    oracle = on_python(lambda: make_periodic_template(*args))
    assert fast.usable and oracle.usable
    assert_same_tables(fast.table, oracle.table)
    assert_same_dems(fast.table, oracle.table, NEAR_TERM)


def test_tiled_tables_identical_under_both_templates(native_kernel):
    small = MemoryExperiment(distance=3, rounds=9)
    target = MemoryExperiment(distance=3, rounds=15)
    tables = []
    for run in (lambda f: f(), on_python):
        template = run(lambda: make_periodic_template(*memory_args(small, NEAR_TERM)))
        args = memory_args(target, NEAR_TERM)
        tables.append(extract_fault_table(*args, template=template))
    fast, oracle = tables
    assert fast.method == oracle.method == "periodic"
    assert (fast.kernel, oracle.kernel) == ("native", "python")
    assert_same_tables(fast, oracle)
    assert_same_dems(fast, oracle, NEAR_TERM)


# ---------------------------------------------------------------- errors
def test_more_than_64_observables_are_rejected(native_kernel):
    exp = MemoryExperiment(distance=3, rounds=1)
    label = exp.observable_labels[0]
    circuit, occupancy = exp.compiled.circuit, exp.compiled.initial_occupancy
    message = "at most 64 observables fit a fault table's uint64 masks, got 65"
    for run in (lambda f: f(), on_python):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(lambda: extract_fault_table(circuit, occupancy, NEAR_TERM, [], [[label]] * 65))
    # 64 still fit: the last observable owns the mask's top bit.
    fast, oracle = both_tables(circuit, occupancy, NEAR_TERM, [], [[label]] * 64)
    assert_same_tables(fast, oracle)
    assert int(fast.key_observables.max()) == 2**64 - 1


def _error_cases():
    prep = ("Prepare_Z", (S1,), 0.0, 10.0)
    measure = ("Measure_Z", (S1,), 40.0, 10.0, "m")
    return {
        "gate-on-empty-qsite": (
            circuit_of(("Prepare_Z", (S3,), 0.0, 10.0)),
            [["m"]],
            [],
            f"ValueError: instruction 'Prepare_Z {S3}' targets empty qsite {S3}",
        ),
        # The first unfoldable row in forward order wins, before any label.
        "unknown-before-non-clifford": (
            circuit_of(prep, ("Bogus", (S1,), 20.0, 5.0), ("Z_pi/8", (S1,), 30.0, 5.0), measure),
            [["nope"]],
            [],
            "DemExtractionError: unknown instruction 'Bogus' in DEM extraction",
        ),
        "non-clifford-before-unknown": (
            circuit_of(prep, ("Z_pi/8", (S1,), 20.0, 5.0), ("Bogus", (S1,), 30.0, 5.0), measure),
            [["nope"]],
            [],
            "DemExtractionError: Z_pi/8 is non-Clifford: its per-shot quasi-Clifford "
            "substitutes have no fixed fault footprint, so no detector error model exists",
        ),
        # Unknown labels: the first in detector order, then observables.
        "unknown-detector-label": (
            circuit_of(prep, measure),
            [["m"], ["m", "first"], ["second"]],
            [["third"]],
            "ValueError: detector references unknown measurement label 'first'",
        ),
        "unknown-observable-label": (
            circuit_of(prep, measure),
            [["m"]],
            [["m"], ["obs"]],
            "ValueError: detector references unknown measurement label 'obs'",
        ),
    }


@pytest.mark.parametrize("case", sorted(_error_cases()))
@pytest.mark.parametrize("noise", ["ideal", "near_term"])
def test_errors_are_raised_identically(native_kernel, case, noise):
    circuit, detectors, observables, message = _error_cases()[case]
    params = NoiseModel.preset(noise).params
    args = (circuit, {S1: 0}, params, detectors, observables)
    assert outcome(lambda: extract_fault_table(*args)) == message
    assert on_python(lambda: outcome(lambda: extract_fault_table(*args))) == message


# ------------------------------------------------------------ edge cases
def test_a_circuit_without_sites_gives_an_empty_table(native_kernel):
    for circuit in (HardwareCircuit(), circuit_of(("Prepare_Z", (S1,), 0.0, 10.0))):
        fast, oracle = both_tables(circuit, {S1: 0}, NoiseModel.preset("ideal").params, [], [])
        assert fast.n_sites == 0
        assert_same_tables(fast, oracle)
        assert build_dem(fast, NEAR_TERM).n_mechanisms == 0


def test_a_label_listed_twice_in_a_detector_cancels(native_kernel):
    exp = MemoryExperiment(distance=3, rounds=2)
    first = exp.detector_labels[0]
    detectors = [first + first[:1], *exp.detector_labels[1:]]
    args = (exp.compiled.circuit, exp.compiled.initial_occupancy, NEAR_TERM, detectors, [])
    fast, oracle = both_tables(*args)
    assert_same_tables(fast, oracle)
    plain = extract_fault_table(*args[:3], exp.detector_labels, [])
    assert fast.footprints != plain.footprints  # the repeat changed detector 0


def test_the_last_measurement_of_a_label_wins(native_kernel):
    circuit = circuit_of(
        ("Prepare_Z", (S1,), 0.0, 10.0),
        ("Measure_Z", (S1,), 10.0, 10.0, "a"),
        ("X_pi/2", (S1,), 20.0, 10.0),
        ("Measure_Z", (S1,), 30.0, 10.0, "a"),
    )
    fast, oracle = both_tables(circuit, {S1: 0}, NoiseModel.uniform(1e-3).params, [["a"]], [])
    assert_same_tables(fast, oracle)
    readouts = [i for i, s in enumerate(fast.sites) if s.kind == "readout"]
    assert [fast.footprints[i] for i in readouts] == [(), (0,)]
    # An X fault after the first readout still reaches the second.
    gate = [i for i, s in enumerate(fast.sites) if s.kind == "gate1" and s.pauli[0][1] == "X"]
    assert [fast.footprints[i] for i in gate] == [(0,)]


def test_move_rows_carry_idle_and_dephase_sites(native_kernel):
    circuit = circuit_of(
        ("Prepare_Z", (S1,), 0.0, 10.0),
        ("Y_pi/4", (S1,), 12.0, 10.0),
        ("Move", (S1, S2), 30.0, MOVE_US),
        ("Y_-pi/4", (S2,), 30.0 + MOVE_US + 4.0, 10.0),
        ("Measure_Z", (S2,), 60.0 + MOVE_US, 10.0, "m"),
    )
    fast, oracle = both_tables(circuit, {S1: 0}, NEAR_TERM, [["m"]], [])
    assert_same_tables(fast, oracle)
    move_row = circuit.sorted_columns().names.index("Move")
    at_move = {s.kind for s in fast.sites if s.index == move_row}
    assert at_move == {"idle", "dephase"}
    assert any(fast.footprints[i] for i, s in enumerate(fast.sites) if s.index == move_row)
