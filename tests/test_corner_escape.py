"""Corner-qubit measure-out/re-preparation mechanics (§2.5).

The escape hatch used by corner movement when a new boundary face would
otherwise conflict with a logical operator: remove the corner data qubit in
the complementary basis, re-prepare it in the face's basis, and re-attach.
Tested in isolation here (even-distance flips exercise it end-to-end but
are a known limitation, see ``test_corner_and_translation.py``).
"""

from repro.code.corner import (
    DeformationSession,
    add_boundary_stabilizer,
)
from repro.code.pauli import PauliString
from tests.conftest import corrected, fresh_patch, simulate


class TestMeasureOutMechanics:
    def test_gauge_fixing_removes_one_generator(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        n = len(lq.stabilizers)
        lq.measure_out_data_qubit(c, (2, 2), "Z")
        # One anticommuting generator removed, others repaired by products.
        assert len(lq.stabilizers) == n - 1
        meas = PauliString({lq.layout.data_site(2, 2): "Z"})
        for s in lq.stabilizers:
            assert s.commutes_with(meas)

    def test_logical_survives_corner_removal_both_bases(self):
        for basis, attr, corner in (("Z", "logical_z", (0, 0)), ("X", "logical_x", (0, 0))):
            grid, _, lq, c, occ0 = fresh_patch(3, 3)
            lq.prepare(c, basis=basis, rounds=1)
            lq.measure_out_data_qubit(c, corner, basis)
            res = simulate(grid, c, occ0, seed=1)
            assert corrected(res, getattr(lq, attr)) == 1

    def test_forbidden_removal_raises(self):
        """Measuring a qubit in a basis that hits a logical with no
        repairing stabilizer must refuse rather than corrupt."""
        grid, _, lq, c, occ0 = fresh_patch(2, 2)
        lq.prepare(c, basis="Z", rounds=1)
        # On d=2, measuring corner (0,0) in X anticommutes with Z_L and the
        # only Z-type stabilizer is the full plaquette; the repair leaves
        # Z_L intact (weight check) or raises — either way Z_L survives if
        # no exception escaped.
        try:
            lq.measure_out_data_qubit(c, (0, 0), "X")
            for s in lq.stabilizers:
                assert s.commutes_with(lq.logical_z.pauli)
        except RuntimeError:
            pass  # refusal is the documented safe behaviour


class TestRedundantFaceMeasurement:
    def test_implied_face_is_harmless(self):
        """A face already in the generated group can be measured freely
        (deterministic outcome, no rank change)."""
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        session = DeformationSession(lq)
        # Add a face, then ask for it again: second call is a no-op.
        s1 = add_boundary_stabilizer(session, c, -1, 0, "X")
        n = len(lq.stabilizers)
        s2 = add_boundary_stabilizer(session, c, -1, 0, "X")
        assert s1.equals_up_to_sign(s2)
        assert len(lq.stabilizers) == n

    def test_session_tracks_labels(self):
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        session = DeformationSession(lq)
        for plaq in lq.plaquettes:
            assert session.labels_for(plaq.stabilizer()), "seeded from last round"
        new = add_boundary_stabilizer(session, c, -1, 0, "X")
        assert len(session.labels_for(new)) == 1
