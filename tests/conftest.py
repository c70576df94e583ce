"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.code.arrangements import Arrangement
from repro.code.logical_qubit import LogicalQubit
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.hardware.model import HardwareModel
from repro.sim.interpreter import CircuitInterpreter


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running suites (randomized fuzz, memory gates) "
        '(deselect with -m "not slow" for a quick pass)',
    )


def fresh_patch(dx=3, dz=3, arrangement=Arrangement.STANDARD, margin=(2, 2)):
    """Grid + model + LogicalQubit + occupancy snapshot + empty circuit."""
    grid = GridManager(dz + margin[0], dx + margin[1])
    model = HardwareModel(grid)
    lq = LogicalQubit(grid, model, dx=dx, dz=dz, arrangement=arrangement)
    occ0 = grid.occupancy()
    circuit = HardwareCircuit()
    return grid, model, lq, circuit, occ0


def simulate(grid, circuit, occ0, seed=0):
    return CircuitInterpreter(grid, seed=seed).run(circuit, occ0)


def corrected(result, tracked):
    """Expectation of a TrackedOperator with its ledger applied."""
    v = result.expectation(tracked.pauli)
    for label in tracked.corrections:
        v *= result.sign(label)
    return v


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
