"""Shared helpers for the benchmark harness.

Each ``bench_table*``/``bench_fig*`` file regenerates the paper table or
figure its name gives and prints the reproduced rows; the other benches
time one pipeline layer (README.md quotes their numbers, ROADMAP.md lists
the gates still open).  ``bench_*`` files are not collected by a bare
``pytest benchmarks/``: name one, e.g.
``pytest benchmarks/bench_table1_instructions.py -s``, or run it as a script.
"""

from __future__ import annotations

from repro.code.arrangements import Arrangement
from repro.code.logical_qubit import LogicalQubit
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.hardware.model import HardwareModel
from repro.sim.interpreter import CircuitInterpreter


def fresh_patch(dx=3, dz=3, arrangement=Arrangement.STANDARD, margin=(2, 2)):
    grid = GridManager(dz + margin[0], dx + margin[1])
    model = HardwareModel(grid)
    lq = LogicalQubit(grid, model, dx=dx, dz=dz, arrangement=arrangement)
    occ0 = grid.occupancy()
    circuit = HardwareCircuit()
    return grid, model, lq, circuit, occ0


def simulate(grid, circuit, occ0, seed=0):
    return CircuitInterpreter(grid, seed=seed).run(circuit, occ0)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
    print(f"\n{title}")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
