"""SIMD beam-pass rescheduling of a compiled hardware circuit.

TISCC's scheduler (and the per-site pricing of §3.4) treats every gate as
its own laser event, but trapped-ion hardware drives many *identical* gates
in one global beam pass — TrapSIMD (arXiv:2504.17886) shows batching
same-mnemonic gates is the dominant backend-compiler lever on 2D junction
grids.  This module adds that backend phase: :func:`simd_schedule` takes a
compiled :class:`~repro.hardware.circuit.HardwareCircuit`, regroups its
laser gates into wide same-``(mnemonic, duration)`` beam passes, compacts
the time axis, and co-schedules transport so groups form as early and as
wide as possible.

The pass is a *pure retiming*: it never reorders two instructions that
share a site (or a junction), so the rescheduled circuit passes the
reference validity checker and — because detector error models depend only
on the per-site instruction order and on idle gaps derived from the
schedule — yields the same DEM as the input up to idle-window durations.
For dephasing-free noise the mechanism structure (detector footprints and
observable masks) is *identical* and every probability agrees to within a
few ulp: retiming can permute the XOR-combine fold order inside a
mechanism, which is the only float-level freedom left.  Fixed-seed
frame-engine logical-error counters are identical in practice — a sampled
bit flips only when a uniform draw lands inside that ulp-wide sliver —
and tests and ``bench_simd`` enforce both properties.

Scheduling model
----------------

* **Laser rows** are the mnemonics priced in
  :attr:`HardwareProfile.gate_times_us`; ``Move``/``Load`` are transport
  and are never beam-limited — they drain eagerly between passes.
* **Resources** are trap sites, plus one pseudo-resource per junction for
  junction-crossing ``Move`` rows (two swaps through one junction must
  serialize, matching the validity checker's junction rule).
* The scheduler is a readiness-driven list scheduler: per-resource
  last-user chains define the dependency DAG; at each step every ready
  transport row fires at its earliest start, then the ready laser class
  with the earliest member start fires as one pass (chunked to
  ``width`` members when the profile caps group width).  Ready members of
  one class are provably resource-disjoint, so firing them together is
  always conflict-free.
* ``site_parallel`` (default): a pass occupies only its member sites;
  per-pass overhead extends each member's busy window.  ``pass_serial``:
  one global beam serializes passes — each pass waits for the beam and
  holds it for ``duration + overhead``; this prices beam-limited hardware
  and can *lengthen* the circuit, which is the point of the model.

The result is :meth:`HardwareCircuit.retimed`: the input circuit with the
same rows, labels and template-replay records, and new start times.  On a
replayed memory the bulk rounds come out periodic again, so the DEM
extractor tiles them as it does unscheduled memories.  It verifies that
periodicity against the retimed columns and walks the whole circuit when
the check fails, as it does for a ``pass_serial`` beam's bulk.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.hardware.circuit import HardwareCircuit
from repro.hardware.profile import SIMD_MODES

__all__ = ["SimdReport", "simd_schedule", "baseline_beam_passes", "SIMD_MODES"]


@dataclass(frozen=True)
class SimdReport:
    """What one :func:`simd_schedule` run did to a circuit.

    ``utilization`` is mean group width over the effective beam capacity —
    the width cap when one is set, else the widest group actually formed —
    so 1.0 means every pass was as wide as the hardware allows.
    """

    n_rows: int
    n_laser_rows: int
    baseline_passes: int
    beam_passes: int
    max_group_width: int
    mean_group_width: float
    utilization: float
    baseline_makespan_us: float
    makespan_us: float
    width: int
    mode: str
    overhead_us: float

    @property
    def pass_reduction(self) -> float:
        """Fraction of baseline beam passes eliminated (0 when none existed)."""
        if self.baseline_passes == 0:
            return 0.0
        return 1.0 - self.beam_passes / self.baseline_passes

    @property
    def makespan_ratio(self) -> float:
        """Compacted / original circuit duration (1.0 for an empty circuit)."""
        if self.baseline_makespan_us == 0.0:
            return 1.0
        return self.makespan_us / self.baseline_makespan_us

    def to_dict(self) -> dict:
        import dataclasses

        out = dataclasses.asdict(self)
        out["pass_reduction"] = self.pass_reduction
        out["makespan_ratio"] = self.makespan_ratio
        return out


def _laser_names(profile) -> frozenset[str]:
    return frozenset(name for name, _ in profile.gate_times_us)


def _row_resources(grid, names, s0, s1, ns):
    """Per-row resource tuples: sites, plus a junction pseudo-resource for
    junction-crossing Moves (two swaps through one junction serialize)."""
    npos = grid.n_positions
    n = len(names)
    resources = [()] * n
    for i in range(n):
        if ns[i] == 2:
            if names[i] == "Move":
                j = grid.junction_between(s0[i], s1[i])
                if j is None:
                    resources[i] = (s0[i], s1[i])
                else:
                    resources[i] = (s0[i], s1[i], npos + j)
            else:
                resources[i] = (s0[i], s1[i])
        elif ns[i] == 1:
            resources[i] = (s0[i],)
    return resources


def baseline_beam_passes(circuit: HardwareCircuit, profile, width: int = 0) -> int:
    """Beam passes the *unscheduled* circuit needs: distinct
    ``(mnemonic, start, duration)`` groups of laser rows, chunked to
    ``width`` members when the hardware caps group width (0 = unlimited).

    This is the honest baseline — gates the original scheduler already
    started at the same instant ride one pass for free.
    """
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    cols = circuit.sorted_columns()
    laser = _laser_names(profile)
    names = cols.names
    t = cols.t.tolist()
    dur = cols.duration.tolist()
    groups: dict[tuple, int] = defaultdict(int)
    for i in range(cols.n):
        if names[i] in laser:
            groups[(int(cols.codes[i]), t[i], dur[i])] += 1
    if width:
        return sum(-(-count // width) for count in groups.values())
    return len(groups)


def simd_schedule(
    circuit: HardwareCircuit,
    grid,
    width: int = 0,
    mode: str = "site_parallel",
    overhead_us: float = 0.0,
) -> tuple[HardwareCircuit, SimdReport]:
    """Reschedule ``circuit`` into SIMD beam passes on ``grid``.

    ``width`` caps members per pass (0 = unlimited), ``mode`` selects the
    beam timing discipline (:data:`SIMD_MODES`), ``overhead_us`` is the
    per-pass setup cost.  Returns ``circuit.retimed(...)`` (same rows in
    the same append order, same labels and replay records, new start
    times) and a :class:`SimdReport`.
    """
    if mode not in SIMD_MODES:
        raise ValueError(f"mode must be one of {SIMD_MODES}, got {mode!r}")
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    if not (overhead_us >= 0.0 and np.isfinite(overhead_us)):
        raise ValueError(f"overhead_us must be finite and >= 0, got {overhead_us}")

    cols = circuit.sorted_columns()
    n = cols.n
    profile = grid.profile
    laser = _laser_names(profile)
    names = cols.names
    s0 = cols.site0.tolist()
    s1 = cols.site1.tolist()
    ns = cols.nsites.tolist()
    dur = cols.duration.tolist()
    is_laser = [nm in laser for nm in names]

    resources = _row_resources(grid, names, s0, s1, ns)

    # Dependency DAG from per-resource last-user chains: row i depends on
    # the previous user of each of its resources.  Edges follow the sorted
    # stream, so per-site order is preserved by construction.
    succs: dict[int, list[int]] = defaultdict(list)
    indeg = [0] * n
    last_user: dict[int, int] = {}
    for i in range(n):
        preds = set()
        for res in resources[i]:
            prev = last_user.get(res)
            if prev is not None:
                preds.add(prev)
            last_user[res] = i
        indeg[i] = len(preds)
        for p in preds:
            succs[p].append(i)

    avail: dict[int, float] = defaultdict(float)
    est = [0.0] * n  # earliest start, finalized when the row becomes ready
    new_t = [0.0] * n
    beam_free = 0.0
    n_passes = 0
    n_laser = sum(is_laser)
    max_group = 0
    ready_transport: list[int] = []
    ready_laser: dict[tuple[str, float], list[int]] = defaultdict(list)

    def release(i: int) -> None:
        earliest = 0.0
        for res in resources[i]:
            a = avail[res]
            if a > earliest:
                earliest = a
        est[i] = earliest
        if is_laser[i]:
            ready_laser[(names[i], dur[i])].append(i)
        else:
            ready_transport.append(i)

    for i in range(n):
        if indeg[i] == 0:
            release(i)

    scheduled = 0
    while scheduled < n:
        # Transport is not beam-limited: drain every ready Move/Load at its
        # earliest start (in sorted-stream order, for determinism) before
        # committing the next pass, so pass groups form as wide as possible.
        while ready_transport:
            batch = sorted(ready_transport)
            ready_transport.clear()
            for i in batch:
                start = est[i]
                new_t[i] = start
                end = start + dur[i]
                for res in resources[i]:
                    avail[res] = end
                scheduled += 1
                for nxt in succs[i]:
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        release(nxt)
        if scheduled >= n:
            break
        # Fire the laser class whose earliest ready member can start first
        # (ties broken by mnemonic then duration, for determinism).
        best_key = None
        best_rank = None
        for key, rows in ready_laser.items():
            if not rows:
                continue
            rank = (min(est[i] for i in rows), key[0], key[1])
            if best_rank is None or rank < best_rank:
                best_rank, best_key = rank, key
        if best_key is None:  # pragma: no cover - the DAG is acyclic
            raise RuntimeError("SIMD scheduler deadlocked with unscheduled rows")
        members = sorted(ready_laser.pop(best_key))
        duration = best_key[1]
        cap = width if width else len(members)
        for c0 in range(0, len(members), cap):
            chunk = members[c0 : c0 + cap]
            start = max(est[i] for i in chunk)
            if mode == "pass_serial":
                if beam_free > start:
                    start = beam_free
                beam_free = start + duration + overhead_us
                busy_end = start + duration
            else:
                busy_end = start + duration + overhead_us
            for i in chunk:
                new_t[i] = start
                for res in resources[i]:
                    avail[res] = busy_end
                scheduled += 1
            n_passes += 1
            if len(chunk) > max_group:
                max_group = len(chunk)
            for i in chunk:
                for nxt in succs[i]:
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        release(nxt)

    # The schedule was built over the sorted stream; retime in append order.
    t_arr = np.empty(n, dtype=np.float64)
    t_arr[circuit.sort_order()] = new_t
    new = circuit.retimed(t_arr)

    mean_group = n_laser / n_passes if n_passes else 0.0
    capacity = width if width else max_group
    report = SimdReport(
        n_rows=n,
        n_laser_rows=n_laser,
        baseline_passes=baseline_beam_passes(circuit, profile, width),
        beam_passes=n_passes,
        max_group_width=max_group,
        mean_group_width=mean_group,
        utilization=mean_group / capacity if capacity else 0.0,
        baseline_makespan_us=circuit.makespan,
        makespan_us=new.makespan,
        width=width,
        mode=mode,
        overhead_us=overhead_us,
    )
    return new, report
