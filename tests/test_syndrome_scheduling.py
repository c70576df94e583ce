"""Syndrome-extraction scheduling: layers, conflicts, and §4.3 checks."""

import pytest

from repro.code.arrangements import Arrangement
from repro.hardware.validity import check_circuit
from repro.sim.interpreter import CircuitInterpreter
from tests.conftest import fresh_patch, simulate


class TestRoundStructure:
    def test_round_has_expected_gate_counts(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.idle(c, rounds=1)
        # One ZZ per (face, corner) pair.
        n_interactions = sum(p.weight for p in lq.plaquettes)
        assert c.count("ZZ") == n_interactions
        # One prep + one measure per face.
        assert c.count("Measure_Z") == len(lq.plaquettes)
        assert c.count("Prepare_Z") == len(lq.plaquettes)

    def test_measure_ions_return_home(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.idle(c, rounds=1)
        for plaq in lq.plaquettes:
            assert grid.site_of(lq.measure_ions[plaq.face]) == plaq.home

    def test_junction_conflicts_detected(self):
        """§3.3: parallel Z/N patterns contend for shared junctions."""
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        recs = lq.idle(c, rounds=1)
        assert recs[0].junction_conflicts > 0

    def test_rounds_are_sequential(self):
        grid, _, lq, c, occ0 = fresh_patch(2, 2)
        recs = lq.idle(c, rounds=3)
        for earlier, later in zip(recs, recs[1:]):
            assert later.t_start >= earlier.t_end

    def test_compiled_round_is_valid_hardware(self):
        for arr in Arrangement:
            grid, _, lq, c, occ0 = fresh_patch(3, 3, arr)
            lq.idle(c, rounds=2)
            check_circuit(grid, c, occ0)

    def test_round_duration_dominated_by_four_zz_layers(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        recs = lq.idle(c, rounds=1)
        assert recs[0].duration >= 4 * 2000.0
        assert recs[0].duration < 4 * 2000.0 + 4000.0  # movement overhead bounded

    def test_misparked_measure_ion_rejected(self):
        grid, _, lq, c, occ0 = fresh_patch(2, 2)
        plaq = lq.plaquettes[0]
        ion = lq.measure_ions[plaq.face]
        neighbor = [
            s for s in grid.adjacent_zones(grid.site_of(ion)) if grid.ion_at(s) is None
        ]
        if neighbor:
            grid.schedule_move(c, ion, neighbor[0])
            with pytest.raises(ValueError):
                lq.idle(c, rounds=1)


class TestStabilizerEstablishment:
    """§4.3: the d=2 layer-by-layer generator check, generalized."""

    def test_d2_generators_after_prep_round(self):
        grid, _, lq, c, occ0 = fresh_patch(2, 2)
        lq.prepare(c, basis="Z", rounds=1)
        res = simulate(grid, c, occ0, seed=3)
        # Every face stabilizer has a definite value...
        for plaq in lq.plaquettes:
            assert res.expectation(plaq.stabilizer()) != 0
        # ...and the logical Z is +1 while logical X is undetermined.
        assert res.expectation(lq.logical_z.pauli) == 1
        assert res.expectation(lq.logical_x.pauli) == 0

    def test_d2_generator_snapshots_per_layer(self):
        """Stabilizer generators inspected after each ZZ layer (§4.3)."""
        grid, _, lq, c, occ0 = fresh_patch(2, 2)
        lq.transversal_prepare(c, basis="Z")
        lq.initialized = True
        lq.idle(c, rounds=1)
        # Layers are globally synchronized: a ZZ that starts once every
        # earlier ZZ has ended opens the next one.  Snapshot at each layer's
        # end, then at the end of the round.
        cols = c.sorted_columns()
        layer_ends: list[float] = []
        for i in range(cols.n):
            if cols.names[i] == "ZZ":
                start, end = float(cols.t[i]), float(cols.t[i] + cols.duration[i])
                if not layer_ends or start >= layer_ends[-1]:
                    layer_ends.append(end)
                else:
                    layer_ends[-1] = max(layer_ends[-1], end)
        assert len(layer_ends) == 4
        times = layer_ends + [c.makespan]
        res = CircuitInterpreter(grid, seed=4).run(c, occ0, snapshot_times=times)
        assert [t for t, _ in res.generator_snapshots] == times
        assert all(len(gens) == res.tableau.n for _, gens in res.generator_snapshots)
        assert res.generator_snapshots[-1][1] == res.tableau.stabilizer_generators()
        # After the final layer the group contains all the face stabilizers.
        for plaq in lq.plaquettes:
            assert res.expectation(plaq.stabilizer()) != 0

    def test_quiescence_at_d4(self):
        grid, _, lq, c, occ0 = fresh_patch(4, 4)
        recs = lq.prepare(c, basis="Z", rounds=2)
        res = simulate(grid, c, occ0, seed=5)
        r1, r2 = recs
        for face, lab in r2.outcome_labels.items():
            assert res.outcomes[lab] == res.outcomes[r1.outcome_labels[face]]


class TestHookErrorProtection:
    """The Z/N pattern pairing (Fig 6) orients hook errors safely."""

    def test_z_and_n_orders(self):
        from repro.code.plaquette import N_PATTERN, Z_PATTERN

        assert Z_PATTERN == ("a", "b", "c", "d")
        assert N_PATTERN == ("a", "c", "b", "d")

    def test_mid_circuit_measure_qubit_error_alignment(self):
        """A measure-qubit Z error halfway through a Z-face syndrome circuit
        spreads to at most two data qubits that are NOT parallel to the
        logical Z (they lie along a row, perpendicular to the vertical
        logical) — the §3.3 property motivating the two patterns."""
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        z_face = next(p for p in lq.plaquettes if p.pauli == "Z" and p.weight == 4)
        order = [z_face.corners[corner] for _, corner in z_face.visits()]
        first_two = order[:2]
        # Z pattern visits a then b: same row, different columns.
        assert first_two[0][0] == first_two[1][0]
        assert first_two[0][1] != first_two[1][1]
        x_face = next(p for p in lq.plaquettes if p.pauli == "X" and p.weight == 4)
        order = [x_face.corners[corner] for _, corner in x_face.visits()]
        # N pattern visits a then c: same column, different rows.
        assert order[0][1] == order[1][1]
        assert order[0][0] != order[1][0]
