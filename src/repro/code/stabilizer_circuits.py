"""Explicit X/Z stabilizer circuit scheduling (paper §3.3, Fig 6).

Each plaquette is serviced by one mobile syndrome measure qubit that travels
to a gate pocket adjacent to each of its data qubits, in the order given by
the Z pattern (Z faces) or N pattern (X faces) — the two patterns prevent a
single measure-qubit error from becoming two data errors parallel to the
same-type logical operator (hook-error alignment, §3.3).

A round is scheduled in four data-interaction layers, globally synchronized
across plaquettes (each data qubit is touched by at most one face per
layer — this is what the Z/N pairing guarantees).  Within a layer, faces are
scheduled with a deferral worklist: a face whose next pocket is still
parked-on by another face's measure ion is retried after that ion departs.
Contention for shared junctions is resolved by the grid's junction calendar,
which serializes the crossings and counts the conflicts (§3.3).

Native interaction circuits (verified exactly in tests):

* Z face:  prep |+>_m;  per data:  ZZ(m,d), Z_{-pi/4}(m), Z_{-pi/4}(d)
  (= CZ up to phase);  finally measure X_m  — measures the Z-parity.
* X face:  same with the data qubit conjugated by Hadamards, fused to
  Z_{pi/2}(d), Y_{pi/4}(d), ZZ, Z_{-pi/4}(m), Z_{pi/4}(d), Y_{pi/4}(d)
  — measures the X-parity.

One specification and one fast path compile each round:

* :meth:`SyndromeScheduler._schedule_round_python` is the round loop above,
  one grid call per row.  It is the specification, the fallback when no C
  compiler is available, the path that raises every scheduling error, and
  the native kernel's oracle.
* :meth:`SyndromeScheduler.schedule_round` runs the same loop in C
  (``_round_kernel.c``, built on first use and cached by
  :mod:`repro.util.native`): the move and gate scheduling, both calendars
  and the face graphs' paths are ported line for line, so the round's rows,
  labels, clocks, occupancy and calendars are bit for bit the loop's.  The
  rows land as one column chunk (:meth:`HardwareCircuit.append_rows`).
  Where the kernel reports an error it has committed nothing, and the loop
  reruns to raise it.  :attr:`RoundRecord.kernel` says which one compiled
  a round and :attr:`RoundRecord.fallback_reason` why the loop ran.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.code.plaquette import Plaquette
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import GridManager, SiteBlockedError
from repro.hardware.model import HardwareModel

__all__ = ["SyndromeScheduler", "RoundRecord", "round_kernel"]

#: The native round scheduler, built and loaded by :mod:`repro.util.native`
#: at the first :meth:`SyndromeScheduler.schedule_round` call, never at import.
SOURCE = Path(__file__).with_name("_round_kernel.c")


@dataclass
class RoundRecord:
    """Bookkeeping for one round of error correction over a patch."""

    outcome_labels: dict[tuple[int, int], str] = field(default_factory=dict)
    t_start: float = 0.0
    t_end: float = 0.0
    junction_conflicts: int = 0
    #: The scheduler that compiled the round: ``"native"`` (the C kernel) or
    #: ``"python"`` (the round loop).  A replayed round reports its
    #: template's.  Not compared: both give equal records.
    kernel: str = field(default="python", compare=False)
    #: Why the Python round loop ran instead of the kernel (compiler stderr
    #: included); ``None`` when it did not fall back.
    fallback_reason: str | None = field(default=None, compare=False)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


#: Timing slack for template-replay eligibility (matches the validity EPS).
_EPS = 1e-9


class SyndromeScheduler:
    """Schedules rounds of syndrome extraction for sets of plaquettes."""

    def __init__(self, grid: GridManager, model: HardwareModel):
        self.grid = grid
        self.model = model

    # ----------------------------------------------------------- interaction
    def _interaction(
        self,
        circuit: HardwareCircuit,
        plaq: Plaquette,
        m_ion: int,
        d_ion: int,
    ) -> None:
        model = self.model
        if plaq.pauli == "Z":
            model.zz(circuit, m_ion, d_ion)
            model.native1(circuit, "Z_-pi/4", m_ion)
            model.native1(circuit, "Z_-pi/4", d_ion)
        else:
            model.native1(circuit, "Z_pi/2", d_ion)
            model.native1(circuit, "Y_pi/4", d_ion)
            model.zz(circuit, m_ion, d_ion)
            model.native1(circuit, "Z_-pi/4", m_ion)
            model.native1(circuit, "Z_pi/4", d_ion)
            model.native1(circuit, "Y_pi/4", d_ion)

    # ------------------------------------------------------------- worklist
    def _sidestep(self, circuit: HardwareCircuit, jobs: deque, t_floor: float) -> bool:
        """Break an occupancy cycle by parking one blocked ion off to the side.

        Two measure ions can need to swap places across a junction (e.g. an
        interior face's a->b transition against a top face leaving home).
        The interior ion retreats one hop into a free site of its own face
        graph — preferably its private corridor — freeing the contested
        pocket.  Returns True when a sidestep was scheduled.
        """
        for ion, target, plaq, _after in jobs:
            cur = self.grid.site_of(ion)
            pockets = set(plaq.pockets.values())
            candidates = sorted(plaq.graph) + []
            # Prefer non-pocket (corridor/park) sites.
            candidates.sort(key=lambda s: (s in pockets, s))
            for s in candidates:
                if s in (cur, target) or not self.grid.is_zone(s):
                    continue
                if self.grid.ion_at(s) is not None:
                    continue
                try:
                    hop_path = plaq.path(cur, s)
                except ValueError:
                    continue
                if len(hop_path) > 3:  # only one hop (possibly across a junction)
                    continue
                self.grid.schedule_route(circuit, ion, hop_path, t_min=t_floor)
                return True
        return False

    def _drain(
        self,
        circuit: HardwareCircuit,
        jobs: deque,
        t_floor: float,
    ) -> None:
        """Run (ion, target_site, plaquette, after_arrival) jobs with deferral."""
        stalls = 0
        sidesteps = 0
        while jobs:
            ion, target, plaq, after = jobs.popleft()
            cur = self.grid.site_of(ion)
            try:
                path = plaq.path(cur, target)
                self.grid.schedule_route(circuit, ion, path, t_min=t_floor)
            except SiteBlockedError:
                jobs.append((ion, target, plaq, after))
                stalls += 1
                if stalls > len(jobs):
                    if self._sidestep(circuit, jobs, t_floor):
                        sidesteps += 1
                        stalls = 0
                        if sidesteps <= 4 * len(jobs) + 8:
                            continue
                    blockers = {j[1]: self.grid.ion_at(j[1]) for j in jobs}
                    raise RuntimeError(
                        f"syndrome schedule deadlock; blocked targets: {blockers}"
                    ) from None
                continue
            stalls = 0
            if after is not None:
                after()

    # ----------------------------------------------------------------- round
    def schedule_round(
        self,
        circuit: HardwareCircuit,
        plaquettes: Sequence[Plaquette],
        measure_ions: dict[tuple[int, int], int],
        data_ion_at: dict[int, int],
        t_min: float = 0.0,
    ) -> RoundRecord:
        """One round of error correction over ``plaquettes``.

        ``measure_ions`` maps face coords to the measure ion (which must be
        parked at the face's home site); ``data_ion_at`` maps data qsites to
        data ions.  Returns the per-face measurement labels.

        The round runs in the native kernel (``_round_kernel.c``), which
        emits exactly the rows and grid updates of the Python round loop
        (:meth:`_schedule_round_python`), its oracle.  Where the kernel
        reports an error it has committed nothing, and the Python loop
        reruns from the same state to raise that error with its message.
        Without a native kernel the Python loop runs, and the record's
        ``fallback_reason`` says why.
        """
        # Imported here, not at module level: loading the native kernel (and
        # building it, the first time on a host) is compile work, never
        # import-time work.
        from repro.code import _round_native

        lib, reason = _load()
        if lib is None:
            record = self._schedule_round_python(
                circuit, plaquettes, measure_ions, data_ion_at, t_min
            )
            record.fallback_reason = reason
            return record
        record = _round_native.schedule_round(
            lib, self.grid, self.model, circuit, plaquettes, measure_ions, data_ion_at, t_min
        )
        if record is not None:
            return record
        # The kernel committed nothing; the Python loop raises its error.
        self._schedule_round_python(circuit, plaquettes, measure_ions, data_ion_at, t_min)
        raise RuntimeError(
            f"the native round kernel rejected a round of {len(plaquettes)} plaquette(s) "
            f"from t={t_min} that the Python round loop schedules"
        )

    def _schedule_round_python(
        self,
        circuit: HardwareCircuit,
        plaquettes: Sequence[Plaquette],
        measure_ions: dict[tuple[int, int], int],
        data_ion_at: dict[int, int],
        t_min: float = 0.0,
    ) -> RoundRecord:
        """The round loop: the kernel's oracle, fallback and error path."""
        grid = self.grid
        record = RoundRecord(t_start=t_min)
        conflicts_before = grid.junction_conflicts

        all_ions = [measure_ions[p.face] for p in plaquettes]
        all_ions += [data_ion_at[s] for p in plaquettes for s in p.data_sites.values()]
        all_ions = sorted(set(all_ions))

        # Phase 0: prepare every measure ion in |+> at its parking site.
        for plaq in plaquettes:
            m = measure_ions[plaq.face]
            if grid.site_of(m) != plaq.home:
                raise ValueError(
                    f"measure ion of face {plaq.face} is not parked at home "
                    f"({grid.site_of(m)} != {plaq.home})"
                )
            self.model.prepare_x(circuit, m, t_min=t_min)

        # Phases 1-4: pattern layers, globally synchronized.  A face that
        # finishes its visits early returns home in the following layer so
        # that its final pocket is free for later visitors (weight-2 faces
        # share pockets with their interior neighbours).
        last_layer = {p.face: max(l for l, _ in p.visits()) for p in plaquettes}
        go_home: deque = deque()
        t_floor = t_min
        for layer in range(1, 5):
            jobs: deque = deque(go_home)
            go_home = deque()
            for plaq in plaquettes:
                for visit_layer, corner in plaq.visits():
                    if visit_layer != layer:
                        continue
                    m = measure_ions[plaq.face]
                    d = data_ion_at[plaq.data_sites[corner]]

                    def hook(plaq=plaq, m=m, d=d) -> None:
                        self._interaction(circuit, plaq, m, d)

                    jobs.append((m, plaq.pockets[corner], plaq, hook))
            self._drain(circuit, jobs, t_floor)
            for plaq in plaquettes:
                if last_layer[plaq.face] == layer:
                    go_home.append((measure_ions[plaq.face], plaq.home, plaq, None))
            t_floor = max(grid.ion_ready(ion) for ion in all_ions)

        # Phase 5: remaining homeward moves, then measure in the X basis.
        self._drain(circuit, go_home, t_floor)

        for plaq in plaquettes:
            m = measure_ions[plaq.face]
            _, label = self.model.measure_x(circuit, m)
            record.outcome_labels[plaq.face] = label

        record.t_end = max(grid.ion_ready(ion) for ion in all_ions)
        record.junction_conflicts = grid.junction_conflicts - conflicts_before
        return record

    def schedule_rounds(
        self,
        circuit: HardwareCircuit,
        plaquettes: Sequence[Plaquette],
        measure_ions: dict[tuple[int, int], int],
        data_ion_at: dict[int, int],
        rounds: int,
        t_min: float = 0.0,
    ) -> list[RoundRecord]:
        """``rounds`` rounds of error correction, template-replayed when safe.

        Every round of syndrome extraction over a fixed plaquette set is a
        time-shifted copy of the previous one, provided the round starts in
        a *steady state*: every measure ion parked at home and no scheduled
        history (ion clocks, site/junction calendars) extending past the
        round's start time.  When those conditions hold — verified against
        :attr:`GridManager.t_horizon` before compiling and against the ion
        positions after — one round is compiled as a template and the
        remaining ``rounds - 1`` are replayed by a vectorized time-offset +
        measurement-relabel (:meth:`HardwareCircuit.replay_block`), instead
        of re-walking the plaquette schedules.  The emitted instruction
        stream is identical to compiling every round (locked down by
        tests).
        """
        grid = self.grid
        records: list[RoundRecord] = []
        t = t_min
        r = 0
        ions: set[int] | None = None
        while r < rounds:
            eligible = rounds - r >= 2 and t + _EPS >= grid.t_horizon
            if eligible:
                if ions is None:
                    ions = set(measure_ions.values())
                    ions.update(
                        data_ion_at[s] for p in plaquettes for s in p.data_sites.values()
                    )
                pos_before = {i: grid.site_of(i) for i in ions}
                ready_before = {i: grid.ion_ready(i) for i in ions}
            start = len(circuit)
            delays_before = grid.site_delays
            rec = self.schedule_round(circuit, plaquettes, measure_ions, data_ion_at, t)
            records.append(rec)
            t = rec.t_end
            r += 1
            if eligible:
                # The round is a reusable template only in *steady state*:
                # every ion back where it started with its clock advanced by
                # exactly the round duration, so the next round's schedule is
                # this one shifted.  A round entered from a non-steady state
                # (round 1 after a preparation or a merge) is still usable
                # when its only entry-dependence is the known transient —
                # data ions whose first visit is an X face open with a
                # rotation pair anchored to their own free time — which
                # :meth:`_transform_override` re-anchors per replica.
                delta = rec.t_end - rec.t_start
                assert ions is not None
                home_again = all(grid.site_of(i) == pos_before[i] for i in ions)
                steady = home_again and delta > 0 and all(
                    abs(grid.ion_ready(i) - ready_before[i] - delta) <= _EPS
                    for i in ions
                )
                override = None
                if not steady and home_again and delta > 0:
                    override = self._transform_override(
                        circuit, (start, len(circuit)), data_ion_at,
                        ready_before, delta, t
                    )
                if steady or override is not None:
                    records.extend(
                        self._replay_rounds(
                            circuit,
                            ions,
                            template=rec,
                            block=(start, len(circuit)),
                            copies=rounds - r,
                            site_delays=grid.site_delays - delays_before,
                            override=None if steady else override,
                        )
                    )
                    r = rounds
        return records

    def _transform_override(
        self,
        circuit: HardwareCircuit,
        block: tuple[int, int],
        data_ion_at: dict[int, int],
        ready_before: dict[int, float],
        delta: float,
        t_end: float,
    ):
        """Re-anchoring data for replaying a *transient* first round.

        A freshly entered round differs from the steady-state rounds that
        follow it in exactly one way: a data ion whose first visit is an
        X-face interaction opens with single-qubit rotations scheduled at
        its own entry clock (``max(0, ready)`` anchoring), while every
        other row's time is a function of the round start.  In round
        ``k + 1`` those prefix rows start at the ion's end-of-round-``k``
        clock instead.  This analysis finds every such prefix chain in the
        template block and returns ``(block_positions, first-replica
        times)`` for :meth:`HardwareCircuit.replay_block`, or ``None`` when
        any of the safety conditions fails (in which case the caller simply
        compiles the next round and templates from there):

        * prefix chains consist of single-site rows on non-moving data
          ions, exactly continuing the ion's entry clock, and terminate at
          a two-site row (an ion that never interacts would re-anchor by
          its chain length, not by the round duration);
        * every re-anchored chain still finishes before the interaction
          that absorbs it (``max`` keeps resolving to the measure-ion
          side), and before every measure ion's phase-0 preparation ends
          (so no layer barrier can resolve to a re-anchored clock).
        """
        # Each (row, site) incidence, grouped by site in row order: a site's
        # chain is the leading run of single-site rows that each start at
        # the clock the previous one left (the entry clock for data sites,
        # the round start for every other site), and the first row that
        # breaks it absorbs the chain.
        _, site0, site1, nsites, ts, durs = circuit.block(*block)
        two = nsites == 2
        rows = np.concatenate([np.arange(len(ts)), np.flatnonzero(two)])
        sites = np.concatenate([site0, site1[two]])
        order = np.lexsort((rows, sites))
        rows, sites = rows[order], sites[order]
        m = len(rows)
        if not m:
            return None
        group = np.ones(m, dtype=bool)
        group[1:] = sites[1:] != sites[:-1]
        heads = np.flatnonzero(group)
        ends = np.append(heads[1:], m)

        # The round's data sites, ascending, with their ions' entry clocks.
        entries = sorted((s, ion) for s, ion in data_ion_at.items() if ion in ready_before)
        if not entries:
            return None  # no data ion to re-anchor
        data_sites = np.array([s for s, _ in entries], dtype=np.int64)
        entry_ready = np.array([ready_before[ion] for _, ion in entries])
        at = np.minimum(np.searchsorted(data_sites, sites), len(entries) - 1)
        is_data = data_sites[at] == sites

        t_row = ts[rows]
        end_row = t_row + durs[rows]
        expected = np.where(is_data, entry_ready[at], t_end - delta)
        expected[1:] = np.where(group[1:], expected[1:], end_row[:-1])
        ok = ~two[rows] & (t_row == expected)
        broken = np.minimum(np.minimum.reduceat(np.where(ok, m, np.arange(m)), heads), ends)
        length = broken - heads
        chained = length > 0
        data_head = is_data[heads]
        phase0 = chained & ~data_head
        chains = np.flatnonzero(chained & data_head)
        if not len(chains) or not phase0.any():
            return None  # no recognizable transient to re-anchor
        # No re-anchored chain may outlast the earliest measure-ion
        # preparation, or a layer barrier (max over ion clocks) could
        # resolve to a re-anchored clock and shift the whole layer.
        phase0_floor = end_row[broken[phase0] - 1].min()
        if (broken[chains] == ends[chains]).any():
            return None  # a chain never interacts: re-anchoring diverges
        if (end_row[broken[chains] - 1] > phase0_floor + _EPS).any():
            return None

        # Re-anchor each chain at its ion's end-of-template clock, chains in
        # the order their first rows appear, one chain step at a time.
        chains = chains[np.argsort(rows[heads[chains]])]
        first, length = heads[chains], length[chains]
        ions = [entries[k][1] for k in at[first].tolist()]
        grid = self.grid
        clock = np.array([grid.ion_ready(ion) for ion in ions])
        offset = np.concatenate([[0], np.cumsum(length)[:-1]])
        picks = np.repeat(first - offset, length) + np.arange(length.sum())
        times = np.empty(len(picks))
        for step in range(int(length.max())):
            live = length > step
            times[offset[live] + step] = clock[live]
            clock[live] += durs[rows[first[live] + step]]
        absorb = t_row[broken[chains]]
        if (clock > absorb + delta + _EPS).any():
            return None  # the absorbing max() would flip sides
        if (clock > phase0_floor + delta + _EPS).any():
            return None
        return rows[picks].astype(np.int64), times

    def _replay_rounds(
        self,
        circuit: HardwareCircuit,
        ions: set[int],
        template: RoundRecord,
        block: tuple[int, int],
        copies: int,
        site_delays: int,
        override: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[RoundRecord]:
        """Replay ``copies`` rounds from a compiled template block.

        Replicates the instruction slice with vectorized time offsets and
        fresh measurement labels (re-anchoring any transient prefix rows
        via ``override``), then advances the grid's bookkeeping (ion
        clocks, parked-since stamps, junction-conflict and site-delay
        counters) exactly as the round-by-round path would have.
        """
        if copies < 1:
            return []
        delta = template.t_end - template.t_start
        label_maps = circuit.replay_block(
            block[0], block[1], copies, delta, override=override
        )
        records = []
        for k, relabel in enumerate(label_maps, start=1):
            records.append(
                RoundRecord(
                    outcome_labels={
                        face: relabel[label]
                        for face, label in template.outcome_labels.items()
                    },
                    t_start=template.t_start + k * delta,
                    t_end=template.t_end + k * delta,
                    junction_conflicts=template.junction_conflicts,
                    kernel=template.kernel,
                    fallback_reason=template.fallback_reason,
                )
            )
        self.grid.shift_ions(ions, copies * delta)
        self.grid.junction_conflicts += copies * template.junction_conflicts
        self.grid.site_delays += copies * site_delays
        return records


def _load():
    """The loaded round kernel and ``None``, or ``None`` and why it is unavailable."""
    from repro.code import _round_native
    from repro.util import native

    return native.load(SOURCE, _round_native._declare)


def round_kernel() -> tuple[str, str | None]:
    """The scheduler :meth:`SyndromeScheduler.schedule_round` runs rounds on.

    ``("native", None)`` when the C kernel is loaded, ``("python", reason)``
    when the round loop runs instead.  Loads (or builds) the kernel if no
    round has yet.
    """
    lib, reason = _load()
    return ("native", None) if lib is not None else ("python", reason)
