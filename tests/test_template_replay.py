"""QEC-round template replay, vectorized validity, and the compile cache.

The syndrome scheduler compiles one round per ``schedule_rounds`` call and
replays the rest as vectorized time-shifted copies (re-anchoring the known
first-round transient).  These tests lock in the contract that the replayed
stream is **instruction-for-instruction identical** to compiling every
round (``oracles.schedule_rounds``, patched in) — circuits, round records,
grid clocks, conflict counters, validity reports, and resource figures all
agree — that the vectorized validity checker is exchangeable with the
reference replay, and pin the d=7 and d=11 memory and CNOT compiles with
literal digests.
"""

import hashlib
import json

import pytest

import oracles
from repro.code.stabilizer_circuits import SyndromeScheduler
from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager, MOVE_US
from repro.hardware.validity import (
    CircuitValidityError,
    check_circuit,
    check_circuit_reference,
)

MEM_Z = [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))]
MEM_X = [("PrepareX", (0, 0)), ("MeasureX", (0, 0))]

PROGRAMS = [
    ("memZ", MEM_Z, (1, 1), 3),
    ("memX", MEM_X, (1, 1), 3),
    ("memZ5", MEM_Z, (1, 1), 5),
    ("rect", MEM_Z, (1, 1), None),  # dx=3, dz=5 rectangular patch
    ("idle", [("PrepareZ", (0, 0)), ("Idle", (0, 0)), ("MeasureZ", (0, 0))], (1, 1), 3),
    ("cnot", lattice_surgery_cnot_program(), (2, 2), 3),
    ("bell", [("BellPrepare", (0, 0), (0, 1)), ("BellMeasure", (0, 0), (0, 1))], (1, 2), 3),
    ("extend", [("PrepareZ", (0, 0)), ("ExtendSplit", (0, 0))], (1, 2), 3),
    ("move", [("PrepareZ", (0, 0)), ("Move", (0, 0)), ("MeasureZ", (0, 1))], (1, 2), 3),
    ("inject", [("InjectY", (0, 0)), ("MeasureZ", (0, 0))], (1, 1), 3),
]


def _compile(program, shape, d, replay: bool):
    with pytest.MonkeyPatch.context() as mp:
        if not replay:
            mp.setattr(SyndromeScheduler, "schedule_rounds", oracles.schedule_rounds)
        if d is None:
            compiler = TISCC(dx=3, dz=5, tile_rows=shape[0], tile_cols=shape[1])
        else:
            compiler = TISCC(dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1])
        return compiler, compiler.compile(program, operation="op")


class TestTemplateReplayEquivalence:
    @pytest.mark.parametrize("name,program,shape,d", PROGRAMS, ids=[p[0] for p in PROGRAMS])
    def test_replay_is_byte_identical_to_legacy(self, name, program, shape, d):
        ca, a = _compile(program, shape, d, replay=True)
        cb, b = _compile(program, shape, d, replay=False)
        assert not b.circuit.replay_blocks
        # Instruction-for-instruction identity of the compiled streams.
        assert a.circuit.sorted_instructions() == b.circuit.sorted_instructions()
        assert a.circuit.to_text() == b.circuit.to_text()
        # Grid bookkeeping advanced exactly as if every round were compiled.
        assert ca.grid._ion_ready == cb.grid._ion_ready
        assert ca.grid.occupancy() == cb.grid.occupancy()
        assert ca.grid.junction_conflicts == cb.grid.junction_conflicts
        assert ca.grid.site_delays == cb.grid.site_delays
        # Downstream reports agree.
        assert a.validity == b.validity
        assert a.resources == b.resources

    def test_round_records_match_legacy(self):
        ca, _ = _compile(MEM_Z, (1, 1), 5, replay=True)
        cb, _ = _compile(MEM_Z, (1, 1), 5, replay=False)
        ra = ca.tiles[(0, 0)].patch.round_records
        rb = cb.tiles[(0, 0)].patch.round_records
        assert len(ra) == len(rb) == 5
        for rec_a, rec_b in zip(ra, rb):
            assert rec_a.outcome_labels == rec_b.outcome_labels
            assert rec_a.t_start == rec_b.t_start
            assert rec_a.t_end == rec_b.t_end
            assert rec_a.junction_conflicts == rec_b.junction_conflicts

    def test_single_round_never_replays(self):
        compiler = TISCC(dx=3, dz=3, rounds=1)
        compiled = compiler.compile(MEM_Z, operation="m")
        assert compiled.validity is not None  # compiles and validates fine

    def test_simulation_agrees_after_replay(self):
        """The replayed circuit is not just textually right — it runs."""
        ca, a = _compile(MEM_Z, (1, 1), 3, replay=True)
        cb, b = _compile(MEM_Z, (1, 1), 3, replay=False)
        res_a = ca.simulate(a, seed=7)
        res_b = cb.simulate(b, seed=7)
        assert res_a.outcomes == res_b.outcomes


def compile_digest(compiled) -> str:
    """SHA-256 of a compile's outputs: circuit text, validity and resources."""
    v = compiled.validity
    h = hashlib.sha256()
    h.update(compiled.circuit.to_text().encode())
    h.update(json.dumps(compiled.resources.to_dict(), sort_keys=True).encode())
    h.update(
        json.dumps(
            [
                v.n_instructions,
                v.n_moves,
                v.n_junction_crossings,
                sorted(v.junctions_used),
                sorted(v.sites_used),
                sorted(v.final_occupancy.items()),
                v.makespan,
            ]
        ).encode()
    )
    return h.hexdigest()


GOLDEN_PROGRAMS = {"ZMemory": (MEM_Z, (1, 1)), "CNOT": (lattice_surgery_cnot_program(), (2, 2))}

#: (operation, distance, instruction count, digest of the outputs).
COMPILE_DIGESTS = [
    ("ZMemory", 7, 10451, "4465a9e8f0b1dcc5bcd68cb83e839ce67937ab52f82786080f93a473198e6a04"),
    ("ZMemory", 11, 42757, "fc75634ae021ac35572fe8aafc666b643450541b8b28a9b10d31a3b2be3bf5bd"),
    ("CNOT", 7, 78079, "ad04a603c443878c1664ea56ce778a22d1ed8212d21d85e67476a62a98f16ab2"),
    ("CNOT", 11, 311507, "f657a60cb46ec87ac85d7c055451292359ecea3826a2b03368102c36bc6545d2"),
]


@pytest.mark.parametrize(
    "op, d, n_instructions, expected",
    COMPILE_DIGESTS,
    ids=[f"{op}-d{d}" for op, d, _, _ in COMPILE_DIGESTS],
)
def test_compiles_match_golden_digests(op, d, n_instructions, expected):
    program, shape = GOLDEN_PROGRAMS[op]
    compiled = TISCC(dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1]).compile(
        program, operation=op
    )
    assert len(compiled.circuit) == n_instructions
    assert compile_digest(compiled) == expected


class TestVectorizedValidity:
    @pytest.mark.parametrize("name,program,shape,d", PROGRAMS[:6], ids=[p[0] for p in PROGRAMS[:6]])
    def test_fast_checker_matches_reference(self, name, program, shape, d):
        compiler, compiled = _compile(program, shape, d, replay=True)
        fast = check_circuit(compiler.grid, compiled.circuit, compiled.initial_occupancy)
        ref = check_circuit_reference(
            compiler.grid, compiled.circuit, compiled.initial_occupancy
        )
        assert fast == ref

    def _valid_base(self):
        g = GridManager(2, 2)
        c = HardwareCircuit()
        s1, s2 = g.index(0, 1), g.index(0, 2)
        c.append("Prepare_Z", (s1,), 0.0, 10.0)
        c.append("Move", (s1, s2), 10.0, MOVE_US)
        c.append("Measure_Z", (s2,), 20.0, 120.0, label="m0")
        return g, c, {s1: 0}

    def test_mutations_raise_identically(self):
        """Every corruption trips both checkers with the same message."""
        mutations = [
            lambda c, g: c.append("X_pi/2", (g.index(0, 1),), 5.0, 10.0),  # busy ion
            lambda c, g: c.append(
                "X_pi/2",
                (next(s for s in g.zone_sites() if s not in (g.index(0, 1), g.index(0, 2))),),
                0.0,
                10.0,
            ),  # empty site
            lambda c, g: c.append("Move", (g.index(0, 1), g.index(0, 2)), 0.0, 99.0),
            lambda c, g: c.append("ZZ", (g.index(0, 1), g.index(0, 3)), 200.0, 2000.0),
            lambda c, g: c.append("Load", (g.index(0, 2),), 21.0, 0.0),  # occupied
            lambda c, g: c.append("Move", (g.index(0, 3), g.index(0, 5)), 300.0, 210.0),
            lambda c, g: c.append("ZZ", (g.index(0, 2),), 300.0, 2000.0),  # arity
        ]
        for mutate in mutations:
            g, c, occ = self._valid_base()
            mutate(c, g)
            with pytest.raises(CircuitValidityError) as fast_err:
                check_circuit(g, c, occ)
            g2, c2, occ2 = self._valid_base()
            mutate(c2, g2)
            with pytest.raises(CircuitValidityError) as ref_err:
                check_circuit_reference(g2, c2, occ2)
            assert str(fast_err.value) == str(ref_err.value)

    def test_valid_base_passes_both(self):
        g, c, occ = self._valid_base()
        assert check_circuit(g, c, occ) == check_circuit_reference(g, c, occ)


class TestMemoryCompileCache:
    def setup_method(self):
        from repro.decode.memory import MemoryExperiment

        MemoryExperiment.clear_compile_cache()

    teardown_method = setup_method

    def test_same_key_shares_compiled_core(self):
        from repro.decode.memory import MemoryExperiment

        a = MemoryExperiment(distance=3)
        b = MemoryExperiment(distance=3)
        assert a.compiled is b.compiled
        assert a.graph is b.graph

    def test_default_rounds_key_is_normalized(self):
        from repro.decode.memory import MemoryExperiment

        a = MemoryExperiment(distance=3, rounds=None)
        b = MemoryExperiment(distance=3, rounds=3)  # dt = max(dx, dz) = 3
        assert a.compiled is b.compiled

    def test_distinct_keys_do_not_share(self):
        from repro.decode.memory import MemoryExperiment

        a = MemoryExperiment(distance=3)
        for other in (
            MemoryExperiment(distance=3, basis="X"),
            MemoryExperiment(distance=3, rounds=2),
            MemoryExperiment(dx=3, dz=5),
        ):
            assert other.compiled is not a.compiled

    def test_decoder_choice_is_per_instance_but_shares_core(self):
        from repro.decode.memory import MemoryExperiment

        a = MemoryExperiment(distance=3, decoder="union_find")
        b = MemoryExperiment(distance=3, decoder="lookup")
        assert a.compiled is b.compiled
        assert a.decoder_for().name == "union_find"
        assert b.decoder_for().name == "lookup"

    def test_clear_cache_forces_recompile(self):
        from repro.decode.memory import MemoryExperiment

        a = MemoryExperiment(distance=3)
        MemoryExperiment.clear_compile_cache()
        b = MemoryExperiment(distance=3)
        assert a.compiled is not b.compiled
        # Both still decode identically.
        ra = a.run(50, seed=3)
        rb = b.run(50, seed=3)
        assert ra.failures == rb.failures
