"""Columnar HardwareCircuit vs a list-of-Instruction reference model.

The container was refactored from a list of :class:`Instruction` objects to
a structure-of-arrays; these tests pin the public API to the old semantics:
append/iterate/serialize behave identically, sorting follows the exact
``(t, Load-first, sites, name)`` key with append-order stability, and the
bulk :meth:`HardwareCircuit.replay_block` primitive is equivalent to
re-appending the block by hand.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.circuit import CircuitColumns, HardwareCircuit, Instruction


class ReferenceCircuit:
    """The pre-refactor container semantics, kept as the test oracle."""

    def __init__(self):
        self.instructions: list[Instruction] = []

    def append(self, name, sites, t, duration, label=None):
        self.instructions.append(
            Instruction(name, tuple(int(s) for s in sites), float(t), float(duration), label)
        )

    def sorted_instructions(self):
        return sorted(
            self.instructions,
            key=lambda i: (i.t, 0 if i.name == "Load" else 1, i.sites, i.name),
        )

    def to_text(self, header=None):
        lines = [f"# {header}"] if header else []
        lines += [inst.to_text() for inst in self.sorted_instructions()]
        return "\n".join(lines) + "\n"


_NAMES = ["Prepare_Z", "Measure_Z", "X_pi/2", "Y_pi/4", "Z_-pi/4", "ZZ", "Move", "Load"]

_instruction = st.tuples(
    st.sampled_from(_NAMES),
    st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=2),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False, width=32),
    st.sampled_from([0.0, 3.0, 5.25, 10.0, 120.0, 210.0, 2000.0]),
)


def _build_pair(steps):
    circuit, reference = HardwareCircuit(), ReferenceCircuit()
    for name, sites, t, dur in steps:
        label = circuit.new_measure_label() if name == "Measure_Z" else None
        circuit.append(name, sites, t, dur, label)
        reference.append(name, sites, t, dur, label)
    return circuit, reference


class TestColumnarRoundTrip:
    @given(st.lists(_instruction, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_sorted_instructions_and_text_match_reference(self, steps):
        circuit, reference = _build_pair(steps)
        expected = reference.sorted_instructions()
        assert circuit.sorted_instructions() == expected
        assert circuit.to_text(header="h") == reference.to_text(header="h")
        # Append-order view and the scalar accessors agree with the oracle.
        assert circuit.instructions == reference.instructions
        assert len(circuit) == len(reference.instructions)

    @given(st.lists(_instruction, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_reductions_match_reference(self, steps):
        circuit, reference = _build_pair(steps)
        instrs = reference.instructions
        hist = {}
        for i in instrs:
            hist[i.name] = hist.get(i.name, 0) + 1
        assert circuit.gate_histogram() == dict(sorted(hist.items()))
        for name in _NAMES:
            assert circuit.count(name) == hist.get(name, 0)
        assert circuit.used_sites() == {s for i in instrs for s in i.sites}
        assert circuit.makespan == (max((i.t_end for i in instrs), default=0.0))
        assert circuit.t_start == (min((i.t for i in instrs), default=0.0))
        assert [m.label for m in circuit.measurements()] == [
            i.label for i in reference.sorted_instructions() if i.label is not None
        ]

    def test_full_sort_ties_keep_append_order(self):
        """Rows identical in every sort field stay in append order (stable)."""
        c = HardwareCircuit()
        c.append("Measure_Z", (3,), 1.0, 120.0, label="m0")
        c.append("Measure_Z", (3,), 1.0, 120.0, label="m1")
        assert [i.label for i in c.sorted_instructions()] == ["m0", "m1"]

    def test_iteration_is_time_ordered(self):
        c = HardwareCircuit()
        c.append("X_pi/2", (1,), 50.0, 10.0)
        c.append("Load", (1,), 50.0, 0.0)
        c.append("Prepare_Z", (2,), 0.0, 10.0)
        assert [i.name for i in c] == ["Prepare_Z", "Load", "X_pi/2"]

    def test_three_site_append_rejected(self):
        """A row acts on at most two sites; a third is a one-line error."""
        c = HardwareCircuit()
        c.append("Prepare_Z", (1,), 5.0, 10.0)
        with pytest.raises(ValueError, match="at most two") as err:
            c.append("Weird", (3, 2, 1), 0.0, 1.0)
        assert "\n" not in str(err.value)
        assert len(c) == 1 and c.used_sites() == {1}


class TestColumnsView:
    def test_columns_expose_arrays(self):
        c = HardwareCircuit()
        c.append("ZZ", (4, 5), 10.0, 2000.0)
        c.append("Measure_Z", (4,), 2010.0, 120.0, label="m0")
        cols = c.columns()
        assert isinstance(cols, CircuitColumns)
        assert cols.n == 2
        assert cols.site0.tolist() == [4, 4]
        assert cols.site1.tolist() == [5, -1]
        assert cols.nsites.tolist() == [2, 1]
        assert cols.names == ["ZZ", "Measure_Z"]
        assert cols.sites == [(4, 5), (4,)]
        assert cols.labels == {1: "m0"}
        assert cols.instruction(0) == Instruction("ZZ", (4, 5), 10.0, 2000.0)

    def test_a_snapshot_keeps_its_labels_after_later_appends(self):
        c = HardwareCircuit()
        c.append("Prepare_Z", (0,), 0.0, 1.0)
        cols = c.columns()
        c.append("Measure_Z", (0,), 1.0, 1.0, label="m0")
        assert cols.labels == {}
        assert cols.n == 1
        with pytest.raises(IndexError):
            cols.instruction(1)
        assert c.columns().labels == {1: "m0"}
        assert c.columns() is c.columns()  # cached until the next mutation

    def test_block_reads_rows_across_chunks_and_the_builder(self):
        import numpy as np

        c = HardwareCircuit()
        c.append("Prepare_Z", (1,), 0.0, 10.0)
        c.append("Y_pi/4", (1,), 10.0, 10.0)
        c.append_rows(
            np.array([c.columns().codes[0]] * 2, dtype=np.int32),
            np.array([2, 3]), np.array([-1, -1]), np.array([1, 1], dtype=np.int8),
            np.array([5.0, 6.0]), np.array([1.0, 1.0]), {},
        )
        c.append("ZZ", (3, 4), 20.0, 2000.0)
        cols = c.columns()
        whole = (cols.codes, cols.site0, cols.site1, cols.nsites, cols.t, cols.duration)
        c.append("Move", (4, 5), 3000.0, 5.25)  # a live builder row again
        for start, stop in [(0, 6), (1, 3), (2, 4), (3, 3), (4, 6), (5, 6), (0, 1)]:
            block = c.block(start, stop)
            full = c.columns()
            for got, column in zip(block, (full.codes, full.site0, full.site1, full.nsites,
                                           full.t, full.duration)):
                assert got.dtype == column.dtype
                assert got.tolist() == column[start:stop].tolist()
        assert [column.tolist() for column in c.block(0, 5)] == [w.tolist() for w in whole]
        with pytest.raises(ValueError):
            c.block(2, 9)

    def test_sorted_columns_relabel_positions(self):
        c = HardwareCircuit()
        c.append("Measure_Z", (1,), 100.0, 120.0, label="late")
        c.append("Measure_Z", (2,), 0.0, 120.0, label="early")
        cols = c.sorted_columns()
        assert cols.labels == {0: "early", 1: "late"}

    def test_extend_merges_labels_and_counters(self):
        a, b = HardwareCircuit(), HardwareCircuit()
        a.append("Prepare_Z", (1,), 0.0, 10.0)
        b.append("Measure_Z", (1,), 20.0, 120.0, label=b.new_measure_label())
        b.new_measure_label()
        a.extend(b)
        assert len(a) == 2
        assert a.measurements()[0].label == "m0"
        assert a.new_measure_label() == "m2"


class TestReplayBlock:
    def _manual_copy(self, circuit, instrs, copies, dt):
        maps = []
        for k in range(1, copies + 1):
            relabel = {}
            for inst in instrs:
                label = None
                if inst.label is not None:
                    label = circuit.new_measure_label()
                    relabel[inst.label] = label
                circuit.append(inst.name, inst.sites, inst.t + k * dt, inst.duration, label)
            maps.append(relabel)
        return maps

    def test_matches_manual_reappend(self):
        base = [
            ("Prepare_Z", (1,), 0.0, 10.0, None),
            ("ZZ", (1, 2), 10.0, 2000.0, None),
            ("Measure_Z", (1,), 2010.0, 120.0, "m0"),
            ("Measure_Z", (2,), 2010.0, 120.0, "m1"),
        ]
        fast, slow = HardwareCircuit(), HardwareCircuit()
        for name, sites, t, dur, label in base:
            for c in (fast, slow):
                c.append(
                    name, sites, t, dur, c.new_measure_label() if label else None
                )
        template = slow.instructions
        maps_fast = fast.replay_block(0, 4, copies=3, dt=2130.0)
        maps_slow = self._manual_copy(slow, template, copies=3, dt=2130.0)
        assert maps_fast == maps_slow
        assert fast.to_text() == slow.to_text()
        assert fast.instructions == slow.instructions

    def test_override_reanchors_rows(self):
        c = HardwareCircuit()
        c.append("Z_pi/2", (1,), 7.0, 3.0)
        c.append("Y_pi/4", (1,), 10.0, 10.0)
        c.append("ZZ", (1, 2), 100.0, 2000.0)
        import numpy as np

        c.replay_block(
            0, 3, copies=2, dt=1000.0,
            override=(np.array([0, 1]), np.array([3.0, 6.0])),
        )
        ts = [i.t for i in c.instructions]
        # Copy 1: overridden rows at base times, ZZ shifted by dt.
        assert ts[3:6] == [3.0, 6.0, 1100.0]
        # Copy 2: overridden rows advance by dt once more.
        assert ts[6:9] == [1003.0, 1006.0, 2100.0]

    def test_rejects_bad_ranges(self):
        c = HardwareCircuit()
        c.append("Prepare_Z", (1,), 0.0, 10.0)
        import pytest

        with pytest.raises(ValueError):
            c.replay_block(0, 2, 1, 10.0)
        assert c.replay_block(0, 1, 0, 10.0) == []
        assert c.replay_block(1, 1, 2, 10.0) == [{}, {}]
