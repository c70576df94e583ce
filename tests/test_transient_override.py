"""Template-round transient analysis: the array form against the loop oracle.

``SyndromeScheduler._transform_override`` finds, in a compiled template
round, the entry-anchored prefix chains of data ions and returns the rows
to re-anchor and their first-replica times, or ``None`` when replaying
would not be exact.  It works on the round's column chunk with array
operations; ``oracles.transform_override`` is the row-by-row walk it
replaced.  Both must agree bit for bit: the same positions in the same
order and the same times, or both ``None``, on one hand-built block per
outcome (each check alone rejects its block), on generated blocks that
reach every outcome, and on every transient template round the sweep's
operations compile.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.code.stabilizer_circuits import SyndromeScheduler
from repro.core.compiler import TISCC
from repro.estimator.sweep import OPERATION_PROGRAMS
from repro.hardware.circuit import HardwareCircuit, gate_code

#: Every reason the oracle gives for a ``None``.
NONE_REASONS = {
    "no chain",
    "no phase-0 chain",
    "never absorbed",
    "past the phase-0 floor",
    "flips the absorbing max",
    "past the shifted phase-0 floor",
}

_ONE_SITE = gate_code("Z_pi/2")
_TWO_SITE = gate_code("ZZ")


def assert_same(fast, slow) -> None:
    if slow is None:
        assert fast is None
        return
    assert fast is not None
    for got, want in zip(fast, slow, strict=True):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@st.composite
def template_blocks(draw):
    """A template-like block of rows, with the round's clocks.

    As in a compiled round, each data site opens with a chain of rows from
    its entry clock and each other site with one from the round start, and
    a two-site row may then absorb a data chain.  The sites' rows
    interleave at random, each site's kept in order, among stray rows.
    Jittered starts, data ions without an entry clock, zero-site rows and
    chains never absorbed break the pattern.
    """
    data_sites = [10 + 2 * k for k in range(draw(st.sampled_from([1, 2, 3, 0])))]
    other_sites = [30 + k for k in range(draw(st.sampled_from([1, 2, 0])))]
    ion_of = {site: 100 + k for k, site in enumerate(data_sites)}
    t_start = draw(st.sampled_from([0.0, 10.0, 40.0]))
    delta = draw(st.sampled_from([30.0, 100.0, 1000.0]))
    # Most data ions belong to the round and have an entry clock.
    ready_before = {
        ion_of[site]: draw(st.sampled_from([0.0, 2.0, 7.5, t_start, 60.0]))
        for site in data_sites
        if draw(st.sampled_from([True] * 5 + [False]))
    }
    durations = st.sampled_from([1.0, 3.0, 10.0, 2000.0])
    jitter = st.sampled_from([0.0] * 6 + [1.0, -1.0])

    def chain(site: int, t: float) -> tuple[list, float]:
        rows = []
        for _ in range(draw(st.sampled_from([1, 2, 2, 3, 0]))):
            t += draw(jitter)
            dur = draw(durations)
            rows.append((site, -1, 1, t, dur))
            t += dur
        return rows, t

    sites = data_sites + other_sites
    streams = []
    for site in other_sites:
        streams.append(chain(site, t_start)[0])
    for site in data_sites:
        rows, end = chain(site, ready_before.get(ion_of[site], t_start))
        if draw(st.sampled_from([True] * 4 + [False])):  # absorbed, mostly
            partner = draw(st.sampled_from(sites))
            start = end + draw(st.sampled_from([0.0, 0.0, 5.0, 50.0, -1.0]))
            rows.append((site, partner, 2, start, draw(durations)))
        streams.append(rows)
    for _ in range(draw(st.integers(0, 3))):  # stray rows
        if sites and draw(st.booleans()):
            a, b = draw(st.sampled_from(sites)), draw(st.sampled_from(sites))
            two = draw(st.booleans())
            row = (a, b if two else -1, 2 if two else 1, draw(st.sampled_from([t_start, 500.0])))
        else:
            row = (-1, -1, 0, draw(st.sampled_from([t_start, 3.0])))
        streams.append([(*row, draw(durations))])
    rows = []
    streams = [stream for stream in streams if stream]
    while streams:
        k = draw(st.integers(0, len(streams) - 1))
        rows.append(streams[k].pop(0))
        if not streams[k]:
            del streams[k]
    # End-of-template clocks: a round after the entry clock or after the
    # round start (an ion that entered late), or later still.
    ready_after = {
        ion: draw(st.sampled_from([ready, t_start]))
        + delta
        + draw(st.sampled_from([0.0, 0.0, 2.0, 4.0, 20.0, 500.0]))
        for ion, ready in ready_before.items()
    }
    lead = draw(st.integers(0, 2))
    chunked = draw(st.booleans())
    data_ion_at = {s: ion_of[s] for s in data_sites}
    return rows, data_ion_at, ready_before, ready_after, delta, t_start, lead, chunked


def build_block(rows, lead: int, chunked: bool) -> tuple[HardwareCircuit, tuple[int, int]]:
    """The rows as a circuit block after ``lead`` unrelated rows (and one after)."""
    circuit = HardwareCircuit()
    for k in range(lead):
        circuit.append("Prepare_Z", (90 + k,), 0.0, 10.0)
    start = len(circuit)
    if chunked and rows:
        s0, s1, ns, t, d = (np.array(column) for column in zip(*rows))
        codes = np.where(ns == 2, _TWO_SITE, _ONE_SITE).astype(np.int32)
        circuit.append_rows(
            codes, s0.astype(np.int64), s1.astype(np.int64), ns.astype(np.int8),
            t.astype(np.float64), d.astype(np.float64), {},
        )
    else:
        for s0, s1, ns, t, d in rows:
            sites = (s0, s1)[:ns]
            circuit.append("ZZ" if ns == 2 else "Z_pi/2", sites, t, d)
    stop = len(circuit)
    circuit.append("Measure_Z", (99,), 5000.0, 120.0)
    return circuit, (start, stop)


def branch_case(rows, entry=0.0, after=100.0, site=10):
    """One data ion (100) at ``site``, entry clock ``entry`` and end-of-template
    clock ``after``; the round starts at 0.0 and lasts 100.0."""
    return rows, {site: 100}, {100: entry}, {100: after}, 100.0, 0.0, 0, False


#: Per outcome, a block where it alone decides: a site-30 preparation sets
#: the phase-0 floor, and the data ion's chain is absorbed by a two-site row.
BRANCHES = {
    "override": branch_case([(30, -1, 1, 0.0, 3.0), (10, -1, 1, 0.0, 1.0), (10, 30, 2, 5.0, 10.0)]),
    # The re-anchored chain ends exactly at the absorbing row's shifted
    # start, which the timing slack accepts.
    "override at the slack": branch_case(
        [(30, -1, 1, 0.0, 10.0), (10, -1, 1, 0.0, 1.0), (10, 30, 2, 5.0, 10.0)], after=104.0
    ),
    "no chain": branch_case([(30, -1, 1, 0.0, 3.0), (10, -1, 1, 0.5, 1.0), (10, 30, 2, 5.0, 10.0)]),
    "no phase-0 chain": branch_case([(10, -1, 1, 0.0, 1.0), (10, 30, 2, 5.0, 10.0)]),
    # The data site sorts after site 30: no other site's rows follow its chain.
    "never absorbed": branch_case([(30, -1, 1, 0.0, 3.0), (40, -1, 1, 0.0, 1.0)], site=40),
    # A data ion that entered late and ends the round with it.
    "past the phase-0 floor": branch_case(
        [(30, -1, 1, 0.0, 3.0), (10, -1, 1, 7.5, 1.0), (10, 30, 2, 8.5, 10.0)], entry=7.5
    ),
    "flips the absorbing max": branch_case(
        [(30, -1, 1, 0.0, 10.0), (10, -1, 1, 0.0, 1.0), (10, 31, 2, 1.0, 5.0)], after=102.0
    ),
    "past the shifted phase-0 floor": branch_case(
        [(30, -1, 1, 0.0, 3.0), (10, -1, 1, 0.0, 1.0), (10, 31, 2, 50.0, 10.0)], after=104.0
    ),
}


def analyses(case):
    """The array analysis, the loop oracle and the oracle's reason for ``None``."""
    rows, data_ion_at, ready_before, ready_after, delta, t_start, lead, chunked = case
    circuit, block = build_block(rows, lead, chunked)
    self = SimpleNamespace(grid=SimpleNamespace(ion_ready=ready_after.__getitem__))
    args = (circuit, block, data_ion_at, ready_before, delta, t_start + delta)
    fast = SyndromeScheduler._transform_override(self, *args)
    why: list[str] = []
    slow = oracles.transform_override(self, *args, why=why)
    return fast, slow, why[0] if why else "override"


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_array_analysis_equals_the_loop_on_each_branch(name):
    fast, slow, why = analyses(BRANCHES[name])
    assert why == name.removesuffix(" at the slack")
    assert_same(fast, slow)


def test_array_analysis_equals_the_loop_on_generated_blocks():
    seen: set[str] = set()

    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(template_blocks())
    def check(case):
        fast, slow, why = analyses(case)
        assert_same(fast, slow)
        seen.add(why)

    check()
    # The generated blocks reach every None return, and real overrides.
    assert seen == NONE_REASONS | {"override"}, NONE_REASONS - seen


def test_array_analysis_equals_the_loop_on_every_template_round(monkeypatch):
    """Every transient template round of the 13 operations at d=3, 5 and 7."""
    production = SyndromeScheduler._transform_override
    outcomes = []

    def both(self, *args):
        fast = production(self, *args)
        slow = oracles.transform_override(self, *args)
        assert_same(fast, slow)
        outcomes.append(slow is not None)
        return fast

    monkeypatch.setattr(SyndromeScheduler, "_transform_override", both)
    for op, (build, shape) in OPERATION_PROGRAMS.items():
        for d in (3, 5, 7):
            compiler = TISCC(dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1])
            compiler.compile(build(), operation=op)
    assert any(outcomes), "no template round replayed with an override"
