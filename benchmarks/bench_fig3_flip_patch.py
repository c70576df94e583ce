"""Fig 3: Flip Patch — four clockwise corner movements, verified identity."""

from benchmarks.conftest import fresh_patch, print_table, simulate
from repro.code.arrangements import Arrangement
from repro.code.corner import DeformationSession, extend_logical_operator_clockwise, flip_patch


def test_fig3_intermediate_states():
    """The inset of Fig 3: patch state after each corner movement."""
    grid, _, lq, c, occ0 = fresh_patch(3, 3)
    lq.prepare(c, basis="Z", rounds=1)
    session = DeformationSession(lq)
    rows = []
    for k, edge in enumerate(("top", "right", "bottom", "left"), start=1):
        added = extend_logical_operator_clockwise(session, c, edge)
        rows.append([
            f"after movement {k} ({edge})",
            len(lq.stabilizers),
            lq.logical_z.pauli.weight,
            lq.logical_x.pauli.weight,
            len(added),
        ])
    print_table(
        "Fig 3 — Flip Patch corner-movement sequence (d=3, |0>_L)",
        ["state", "stabilizers", "w(Z_L)", "w(X_L)", "faces measured"],
        rows,
    )
    assert all(r[1] == 8 for r in rows)  # generator count preserved throughout
    res = simulate(grid, c, occ0, seed=2)
    v = res.expectation(lq.logical_z.pauli)
    for lab in lq.logical_z.corrections:
        v *= res.sign(lab)
    assert v == 1


def test_fig3_verified_distances():
    """§4.3: flip verified for odd and mixed-odd distances; even-distance
    flips need a corner protocol beyond the paper's text."""
    rows = []
    for dx, dz in [(3, 3), (5, 3), (3, 5)]:
        grid, _, lq, c, occ0 = fresh_patch(dx, dz)
        lq.prepare(c, basis="Z", rounds=1)
        flip_patch(lq, c)
        res = simulate(grid, c, occ0, seed=3)
        v = res.expectation(lq.logical_z.pauli)
        for lab in lq.logical_z.corrections:
            v *= res.sign(lab)
        rows.append([f"dx={dx}, dz={dz}", lq.arrangement.name, v])
        assert v == 1
    print_table("Fig 3 — flip patch identity check", ["distances", "final", "<Z_L>"], rows)


def test_bench_flip_patch(benchmark):
    def flip():
        grid, _, lq, c, occ0 = fresh_patch(3, 3)
        lq.prepare(c, basis="Z", rounds=1)
        flip_patch(lq, c)
        return lq

    lq = benchmark(flip)
    assert lq.arrangement is Arrangement.FLIPPED
