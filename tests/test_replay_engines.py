"""Every replay engine resolves a circuit the same way, and as it always has.

The single-shot interpreter, the batched sampler and DEM extraction all
read one resolved instruction stream, so a malformed circuit is rejected
with the same message whichever engine replays it.  The golden digests pin
full-walk fault tables and one noisy tableau batch to literal SHA-256
values over a canonical text encoding: the bit-identity suites compare the
periodic path with the full walk of the same code, so only literals catch
a change that both paths share.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.core.compiler import TISCC
from repro.decode.memory import MemoryExperiment
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import MOVE_US, GridManager
from repro.sim.batch import BatchRunner
from repro.sim.dem import extract_fault_table
from repro.sim.interpreter import CircuitInterpreter
from repro.sim.noise import NoiseModel

GRID = GridManager(2, 2)
S1, S2, S3 = GRID.index(0, 1), GRID.index(0, 2), GRID.index(4, 1)


def _circuit(*rows) -> HardwareCircuit:
    circuit = HardwareCircuit()
    for name, sites, duration in rows:
        circuit.append(name, sites, 0.0, duration)
    return circuit


#: (circuit, initial occupancy, expected message) per malformed replay.
MALFORMED = {
    "gate-on-empty-qsite": (
        _circuit(("Prepare_Z", (S3,), 10.0)),
        {S1: 0},
        f"instruction 'Prepare_Z {S3}' targets empty qsite {S3}",
    ),
    "load-onto-occupied-qsite": (
        _circuit(("Load", (S1,), 0.0)),
        {S1: 0},
        f"Load onto occupied qsite {S1}",
    ),
    "move-into-occupied-qsite": (
        _circuit(("Move", (S1, S2), MOVE_US)),
        {S1: 0, S2: 1},
        f"move into occupied qsite {S2}",
    ),
    "two-sites-one-ion": (
        _circuit(("Prepare_Z", (S1,), 10.0)),
        {S1: 0, S2: 0},
        "occupancy maps two sites to one ion",
    ),
}

ENGINES = {
    "interpreter": lambda c, occ: CircuitInterpreter(GRID, seed=0).run(c, occ),
    "batch": lambda c, occ: BatchRunner(GRID).run_shots(
        c, occ, 2, noise=NoiseModel.preset("near_term")
    ),
    "dem": lambda c, occ: extract_fault_table(
        c, occ, NoiseModel.preset("near_term").params, [], []
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_circuit_same_error_in_every_engine(case, engine):
    circuit, occupancy, message = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENGINES[engine](circuit, occupancy)


def table_digest(table) -> str:
    """SHA-256 over one text line per fault site: site, footprint, observables.

    Durations are written with ``float.hex`` so the digest pins their bits.
    """
    h = hashlib.sha256()
    for site, fp, obs in zip(table.sites, table.footprints, table.observables.tolist()):
        pauli = ",".join(f"{q}{letter}" for q, letter in site.pauli)
        dets = ",".join(map(str, fp))
        h.update(
            f"{site.index} {site.when} {site.kind} {pauli} {site.label} "
            f"{float(site.duration_us).hex()} {dets} {obs}\n".encode()
        )
    return h.hexdigest()


def outcomes_digest(outcomes) -> str:
    """SHA-256 over one ``label bits`` line per measurement label."""
    h = hashlib.sha256()
    for label in sorted(outcomes):
        bits = "".join(map(str, outcomes[label].tolist()))
        h.update(f"{label} {bits}\n".encode())
    return h.hexdigest()


#: (memory experiment, noise preset, full-walk fault-table digest).
TABLE_DIGESTS = [
    pytest.param(
        dict(distance=3, rounds=3),
        "near_term",
        "6e1f0948638e6af16af8ff3c088f5b72a63b7126c07ed0189039d33b9c4737f0",
        id="d3-r3-Z-near_term",
    ),
    pytest.param(
        dict(distance=3, rounds=10, basis="X", simd=True),
        "projected",
        "056919d1791a366ffb442e287b66d34fcf35d3c8374d07fbbe7a029dfe65cd80",
        id="d3-r10-X-simd-projected",
    ),
    pytest.param(
        dict(distance=3, rounds=10, profile="slow_junction", simd=True),
        "near_term",
        "c5871bad3c1359df36b139dcdd894b14e569b37d6cf65dcceccb9339da124cd0",
        id="d3-r10-Z-slow_junction-simd-near_term",
    ),
    pytest.param(
        dict(distance=5, rounds=5),
        "near_term",
        "aca4a19673c95cbc83f9963c6c3231770b19b20f404f8de437bb6144da4e8958",
        id="d5-r5-Z-near_term",
    ),
]


@pytest.mark.parametrize("experiment, preset, expected", TABLE_DIGESTS)
def test_full_walk_fault_table_matches_golden_digest(experiment, preset, expected):
    exp = MemoryExperiment(**experiment)
    table = extract_fault_table(
        exp.compiled.circuit,
        exp.compiled.initial_occupancy,
        NoiseModel.preset(preset).params,
        exp.detector_labels,
        [exp.observable_labels],
    )
    assert table.method == "full"
    assert table.kind_counts()["idle"] > 0  # the digest covers idle gaps
    assert table_digest(table) == expected


def test_noisy_batch_outcomes_match_golden_digest():
    # near_term dephases every idle gap, so the noise stream's draws, and
    # with them every outcome, depend on the exact gaps.
    compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1, rounds=2)
    compiled = compiler.compile([("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))])
    batch = BatchRunner(compiler.grid).run_shots(
        compiled.circuit,
        compiled.initial_occupancy,
        32,
        seed=11,
        independent_streams=True,
        noise=NoiseModel.preset("near_term"),
    )
    assert outcomes_digest(batch.outcomes) == (
        "1fdd42a061a1a3558e5cd22139029ca3b01d2e5215333669f93475a4472e0be3"
    )
