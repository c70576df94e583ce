"""Corner movement / Flip Patch (Fig 3) and Move Right / Swap Left (Fig 4)."""

import pytest

from repro.code.arrangements import Arrangement
from repro.code.corner import (
    DeformationError,
    DeformationSession,
    add_boundary_stabilizer,
    flip_patch,
)
from repro.code.translation import move_right, move_right_swap_left, swap_left
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager
from repro.hardware.model import HardwareModel
from repro.hardware.validity import check_circuit
from repro.code.logical_qubit import LogicalQubit
from tests.conftest import corrected, fresh_patch, simulate


class TestAddBoundaryStabilizer:
    def test_single_corner_movement(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        session = DeformationSession(lq)
        n_before = len(lq.stabilizers)
        add_boundary_stabilizer(session, c, -1, 0, "X")
        assert len(lq.stabilizers) == n_before  # one removed, one added
        lq_stab_keys = {frozenset(s.ops.items()) for s in lq.stabilizers}
        new = lq.layout.build_boundary_plaquette(-1, 0, "X").stabilizer()
        assert frozenset(new.ops.items()) in lq_stab_keys
        # The old top face anticommuted and is gone.
        old = lq.layout.build_boundary_plaquette(-1, 1, "Z").stabilizer()
        assert frozenset(old.ops.items()) not in lq_stab_keys
        # Logical Z was repaired: still commutes with everything.
        for s in lq.stabilizers:
            assert s.commutes_with(lq.logical_z.pauli)

    def test_deformation_log_records(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        session = DeformationSession(lq)
        add_boundary_stabilizer(session, c, -1, 0, "X")
        kinds = {entry[0] for entry in lq.deformation_log}
        assert any("repair" in k or "reduce" in k for k in kinds)

    def test_state_preserved_through_single_movement(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        session = DeformationSession(lq)
        add_boundary_stabilizer(session, c, -1, 0, "X")
        res = simulate(grid, c, occ0, seed=3)
        assert corrected(res, lq.logical_z) == 1


class TestFlipPatch:
    @pytest.mark.parametrize("start,end", [
        (Arrangement.STANDARD, Arrangement.FLIPPED),
        (Arrangement.ROTATED, Arrangement.ROTATED_FLIPPED),
    ])
    @pytest.mark.parametrize("basis,attr", [("Z", "logical_z"), ("X", "logical_x")])
    def test_identity_process_d3(self, start, end, basis, attr):
        grid, _, lq, c, occ0 = fresh_patch(3, 3, start)
        lq.prepare(c, basis=basis, rounds=1)
        flip_patch(lq, c)
        assert lq.arrangement == end
        lq.validate()
        lq.idle(c, rounds=1)
        check_circuit(grid, c, occ0)
        res = simulate(grid, c, occ0, seed=5)
        assert corrected(res, getattr(lq, attr)) == 1

    @pytest.mark.parametrize("dx,dz", [(5, 3), (3, 5)])
    def test_mixed_odd_distances(self, dx, dz):
        grid, _, lq, c, occ0 = fresh_patch(dx, dz)
        lq.prepare(c, basis="Z", rounds=1)
        flip_patch(lq, c)
        lq.validate()
        res = simulate(grid, c, occ0, seed=6)
        assert corrected(res, lq.logical_z) == 1

    def test_default_edge_support_fully_moves(self):
        """§4.3: after the flip neither default logical overlaps its old self."""
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        z_before = set(lq.logical_z.pauli.support)
        x_before = set(lq.logical_x.pauli.support)
        flip_patch(lq, c)
        # The logicals now run in swapped directions; their representatives
        # moved off at least part of the old default edges.
        assert lq.logical_z.pauli.support != z_before
        assert lq.logical_x.pauli.support != x_before

    def test_requires_standard_or_rotated(self):
        grid, _, lq, c, _ = fresh_patch(3, 3, Arrangement.FLIPPED)
        lq.initialized = True
        with pytest.raises(ValueError):
            flip_patch(lq, c)

    def test_requires_initialized(self):
        grid, _, lq, c, _ = fresh_patch(3, 3)
        with pytest.raises(ValueError):
            flip_patch(lq, c)

    @pytest.mark.parametrize("dx,dz", [(2, 2), (2, 3)])
    def test_even_distance_raises_cleanly(self, dx, dz):
        """Even-distance flips require a corner protocol the paper does not
        specify; we fail with a diagnostic rather than corrupt the state."""
        grid, _, lq, c, occ0 = fresh_patch(dx, dz)
        lq.prepare(c, basis="Z", rounds=1)
        with pytest.raises(DeformationError):
            flip_patch(lq, c)


class TestMoveRightSwapLeft:
    @pytest.mark.parametrize("basis,attr", [("Z", "logical_z"), ("X", "logical_x")])
    def test_fig4_standard_to_rotated_flipped(self, basis, attr):
        grid = GridManager(4, 8)
        model = HardwareModel(grid)
        lq = LogicalQubit(grid, model, 3, 3, (0, 0), name="A")
        occ0 = grid.occupancy()
        c = HardwareCircuit()
        lq.prepare(c, basis=basis, rounds=1)
        final, _recs = move_right_swap_left(c, lq, rounds=1)
        assert final.arrangement is Arrangement.ROTATED_FLIPPED
        final.validate()
        final.idle(c, rounds=1)
        check_circuit(grid, c, occ0)
        res = simulate(grid, c, occ0, seed=21)
        assert corrected(res, getattr(final, attr)) == 1

    def test_fig4_rotated_to_flipped(self):
        grid = GridManager(4, 8)
        model = HardwareModel(grid)
        lq = LogicalQubit(
            grid, model, 3, 3, (0, 0), arrangement=Arrangement.ROTATED, name="A"
        )
        occ0 = grid.occupancy()
        c = HardwareCircuit()
        lq.prepare(c, basis="Z", rounds=1)
        final, _ = move_right_swap_left(c, lq, rounds=1)
        assert final.arrangement is Arrangement.FLIPPED
        res = simulate(grid, c, occ0, seed=22)
        assert corrected(res, final.logical_z) == 1

    def test_patch_ends_on_original_tile(self):
        grid = GridManager(4, 8)
        model = HardwareModel(grid)
        lq = LogicalQubit(grid, model, 3, 3, (0, 0), name="A")
        c = HardwareCircuit()
        lq.prepare(c, basis="Z", rounds=1)
        final, _ = move_right_swap_left(c, lq, rounds=1)
        assert final.layout.origin == (0, 0)

    def test_move_right_borrows_next_tile_column(self):
        """fn 10: the shifted patch's right corridor is in the next tile."""
        grid = GridManager(4, 8)
        model = HardwareModel(grid)
        lq = LogicalQubit(grid, model, 3, 3, (0, 0), name="A")
        c = HardwareCircuit()
        lq.prepare(c, basis="Z", rounds=1)
        shifted, _ = move_right(c, lq, rounds=1)
        right_homes = [
            p.home for p in shifted.plaquettes if p.face[1] == shifted.dx - 1
        ]
        cols = {grid.coords(h)[1] for h in right_homes}
        assert max(cols) >= 4 * 4  # beyond the first tile's 4 unit columns

    def test_swap_left_needs_room(self):
        grid = GridManager(4, 4)
        model = HardwareModel(grid)
        lq = LogicalQubit(grid, model, 3, 3, (0, 0), name="A")
        c = HardwareCircuit()
        lq.prepare(c, basis="Z", rounds=1)
        with pytest.raises(ValueError):
            swap_left(c, lq)

    def test_swap_left_is_movement_only(self):
        """Swap Left adds no gates — ion movement alone (§2.5)."""
        grid = GridManager(4, 8)
        model = HardwareModel(grid)
        lq = LogicalQubit(grid, model, 3, 3, (0, 0), name="A")
        c = HardwareCircuit()
        lq.prepare(c, basis="Z", rounds=1)
        shifted, _ = move_right(c, lq, rounds=1)
        n_before = len(c)
        swap_left(c, shifted)
        added = [i for i in c.instructions[n_before:]]
        assert all(i.name in ("Move", "Load") for i in added)
