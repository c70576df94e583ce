"""Ablation benches for the reproduction's named design choices.

Not a paper table — these quantify the trade-offs the paper (and our
reproduction) takes as given:

* the ancilla strip (fn 7): split costs 0 rounds instead of dt;
* the CZ-form syndrome interaction vs. a naive CNOT-form compilation;
* junction-conflict serialization overhead vs. an idealized
  conflict-free lower bound.
"""

import pytest

from benchmarks.conftest import fresh_patch, print_table
from repro.hardware.model import GATE_TIMES_US


def test_ablation_ancilla_strip_saves_a_timestep():
    """With the strip, MeasureZZ = merge rounds only; without it, the
    post-split boundary stabilizers would need dt more rounds (fn 7)."""
    rows = []
    for dt in (2, 3, 5):
        with_strip = dt  # rounds actually compiled
        without = dt + dt  # fn 7: split would need dt more
        rows.append([dt, with_strip, without, f"{without/with_strip:.1f}x"])
    print_table(
        "Ablation — ancilla strip (fn 7): rounds per Measure XX/ZZ",
        ["dt", "with strip", "without strip", "saving"],
        rows,
    )
    assert all(r[2] == 2 * r[1] for r in rows)


def test_ablation_cz_form_interaction_cost():
    """Per Z-face data visit we emit ZZ + 2 Z rotations (2006 µs); the
    CNOT-form would add two Hadamards on the measure qubit per visit
    (+26 µs) and two more single-qubit gates of depth."""
    cz_form = GATE_TIMES_US["ZZ"] + 2 * GATE_TIMES_US["Z_-pi/4"]
    cnot_form = (
        GATE_TIMES_US["ZZ"]
        + 2 * GATE_TIMES_US["Z_-pi/4"]
        + 2 * (GATE_TIMES_US["Z_pi/2"] + GATE_TIMES_US["Y_pi/4"])
    )
    print_table(
        "Ablation — syndrome interaction compilation",
        ["form", "µs per Z-face visit"],
        [["CZ-form (ours)", f"{cz_form:g}"], ["CNOT-form", f"{cnot_form:g}"]],
    )
    assert cz_form < cnot_form


@pytest.mark.parametrize("d", [3, 4, 5])
def test_ablation_junction_serialization_overhead(d):
    """Measured round time vs. the conflict-free critical-path bound."""
    grid, _, lq, c, _ = fresh_patch(d, d)
    rec = lq.idle(c, rounds=1)[0]
    # Lower bound: prep + 4 ZZ layers + measure, zero movement.
    bound = (
        GATE_TIMES_US["Prepare_Z"] + GATE_TIMES_US["Y_pi/4"]
        + 4 * GATE_TIMES_US["ZZ"]
        + GATE_TIMES_US["Y_-pi/4"] + GATE_TIMES_US["Measure_Z"]
    )
    overhead = rec.duration / bound
    print(f"\nd={d}: round {rec.duration/1000:.2f} ms vs bound {bound/1000:.2f} ms "
          f"(movement+serialization overhead {overhead:.2f}x, "
          f"{rec.junction_conflicts} conflicts)")
    assert 1.0 <= overhead < 1.6


def test_bench_round_vs_bound(benchmark):
    def round_d3():
        grid, _, lq, c, _ = fresh_patch(3, 3)
        return lq.idle(c, rounds=1)[0]

    rec = benchmark(round_d3)
    assert rec.duration > 8000
