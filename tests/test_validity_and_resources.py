"""Independent validity replay and §3.4 resource estimation."""

import pytest

from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager, JUNCTION_HOP_US, MOVE_US
from repro.hardware.resources import estimate_resources
from repro.hardware.validity import (
    CircuitValidityError,
    check_circuit,
    check_circuit_reference,
)
from repro.util.geometry import ZONE_PITCH_M
from tests.conftest import fresh_patch


class TestValidityChecker:
    def grid(self):
        return GridManager(2, 2)

    def test_accepts_compiled_prep(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        report = check_circuit(grid, c, occ0)
        assert report.n_instructions == len(c)
        assert report.n_junction_crossings > 0

    def test_rejects_double_occupancy_move(self):
        g = self.grid()
        c = HardwareCircuit()
        s1, s2 = g.index(0, 1), g.index(0, 2)
        c.append("Move", (s1, s2), 0.0, MOVE_US)
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {s1: 0, s2: 1})

    def test_rejects_gate_on_empty_site(self):
        g = self.grid()
        c = HardwareCircuit()
        c.append("Prepare_Z", (g.index(0, 1),), 0.0, 10.0)
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {})

    def test_rejects_busy_ion_overlap(self):
        g = self.grid()
        s = g.index(0, 1)
        c = HardwareCircuit()
        c.append("Prepare_Z", (s,), 0.0, 10.0)
        c.append("X_pi/2", (s,), 5.0, 10.0)  # overlaps the prep
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {s: 0})

    def test_rejects_wrong_move_duration(self):
        g = self.grid()
        s1, s2 = g.index(0, 1), g.index(0, 2)
        c = HardwareCircuit()
        c.append("Move", (s1, s2), 0.0, 99.0)
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {s1: 0})

    def test_rejects_junction_overlap(self):
        g = self.grid()
        a, b = g.index(0, 3), g.index(0, 5)
        x, y = g.index(1, 4), g.index(0, 3)
        c = HardwareCircuit()
        c.append("Move", (a, b), 0.0, JUNCTION_HOP_US)
        c.append("Move", (x, g.index(0, 5)), 100.0, JUNCTION_HOP_US)
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {a: 0, x: 1})

    def test_rejects_illegal_hop(self):
        g = self.grid()
        c = HardwareCircuit()
        c.append("Move", (g.index(0, 1), g.index(0, 3)), 0.0, MOVE_US)
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {g.index(0, 1): 0})

    def test_rejects_zz_non_adjacent(self):
        g = self.grid()
        a, b = g.index(0, 1), g.index(0, 3)
        c = HardwareCircuit()
        c.append("ZZ", (a, b), 0.0, 2000.0)
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {a: 0, b: 1})

    def test_rejects_initial_junction_occupancy(self):
        g = self.grid()
        with pytest.raises(CircuitValidityError):
            check_circuit(g, HardwareCircuit(), {g.index(0, 0): 0})

    def test_load_onto_occupied_rejected(self):
        g = self.grid()
        s = g.index(0, 1)
        c = HardwareCircuit()
        c.append("Load", (s,), 0.0, 0.0)
        with pytest.raises(CircuitValidityError):
            check_circuit(g, c, {s: 0})

    @pytest.mark.parametrize("checker", [check_circuit, check_circuit_reference])
    def test_load_onto_a_negative_site_rejected(self, checker):
        c = HardwareCircuit()
        c.append("Load", (-2,), 0.0, 0.0)
        with pytest.raises(CircuitValidityError, match=r"^qsite -2 out of range \(at 'Load -2"):
            checker(self.grid(), c, {})

    @pytest.mark.parametrize("checker", [check_circuit, check_circuit_reference])
    def test_load_before_a_fresh_site_is_released_rejected(self, checker):
        """A never-used site counts as released at 0.0."""
        c = HardwareCircuit()
        c.append("Load", (1,), -50.0, 0.0)
        with pytest.raises(CircuitValidityError, match="^site 1 not vacated at load time"):
            checker(self.grid(), c, {})

    @pytest.mark.parametrize("checker", [check_circuit, check_circuit_reference])
    @pytest.mark.parametrize(
        "name,sites",
        [
            ("ZZ", (1, 81)),
            ("Move", (1, 81)),
            ("Move", (-1, 2)),
            ("Move", (81, 2)),
            ("X_pi/2", (81,)),
            ("Load", (81,)),
        ],
    )
    def test_row_sites_off_the_grid_rejected(self, checker, name, sites):
        """Not the grid's bare ValueError: a validity error naming the site."""
        g = self.grid()
        c = HardwareCircuit()
        c.append(name, sites, 0.0, 10.0)
        bad = next(s for s in sites if not 0 <= s < g.n_positions)
        with pytest.raises(CircuitValidityError, match=f"^qsite {bad} out of range"):
            checker(g, c, {1: 0})


class TestResources:
    def test_empty_circuit(self):
        g = GridManager(2, 2)
        r = estimate_resources(g, HardwareCircuit())
        assert r.computation_time_s == 0.0
        assert r.n_trapping_zones == 0

    def test_single_gate_accounting(self):
        g = GridManager(2, 2)
        c = HardwareCircuit()
        c.append("ZZ", (g.index(0, 1), g.index(0, 2)), 0.0, 2000.0)
        r = estimate_resources(g, c, "zz", 1, 1)
        assert r.computation_time_s == pytest.approx(2000e-6)
        assert r.active_zone_seconds == pytest.approx(2 * 2000e-6)
        assert r.grid_area_m2 == pytest.approx(ZONE_PITCH_M * 2 * ZONE_PITCH_M)
        assert r.spacetime_volume_s_m2 == pytest.approx(
            r.computation_time_s * r.grid_area_m2
        )
        assert r.zone_seconds == pytest.approx(r.n_trapping_zones * 2000e-6)

    def test_patch_prep_resources_scale_with_distance(self):
        rows = []
        for d in (2, 3):
            grid, _, lq, c, occ0 = fresh_patch(d, d)
            lq.prepare(c, basis="Z", rounds=1)
            rows.append(estimate_resources(grid, c, "prep", d, d))
        assert rows[1].n_trapping_zones > rows[0].n_trapping_zones
        assert rows[1].grid_area_m2 > rows[0].grid_area_m2
        assert rows[1].active_zone_seconds > rows[0].active_zone_seconds

    def test_report_row_formatting(self):
        grid, _, lq, c, occ0 = fresh_patch(2, 2)
        lq.prepare(c, basis="Z", rounds=1)
        r = estimate_resources(grid, c, "prep", 2, 2)
        assert "prep" in r.row()
        header = type(r).header()
        assert "zone_s" in header and "volume" in header

    def test_gate_histogram_dominated_by_zz_time(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.idle(c, rounds=1)
        r = estimate_resources(grid, c, "idle", 3, 3)
        zz_time = r.gate_histogram["ZZ"] * 2000e-6
        # Four sequential ZZ layers dominate the round (§3.2).
        assert zz_time > 0.5 * r.computation_time_s * len(lq.plaquettes)


class TestEstimatorSweep:
    def test_sweep_idle(self):
        from repro.estimator.sweep import sweep_operation

        reports = sweep_operation("Idle", [2, 3], rounds=1)
        assert [r.dx for r in reports] == [2, 3]
        assert reports[1].computation_time_s > 0

    def test_sweep_unknown(self):
        from repro.estimator.sweep import sweep_operation

        with pytest.raises(ValueError):
            sweep_operation("Nope", [3])

    def test_format_table(self):
        from repro.estimator.report import format_resource_table
        from repro.estimator.sweep import sweep_operation

        table = format_resource_table(sweep_operation("Idle", [2], rounds=1), "T")
        assert "Idle" in table and "T" in table
