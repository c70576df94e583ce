"""The grid of trapping zones and junctions, plus ion scheduling.

``GridManager`` (paper App. B) provides "access to an array representation of
the trapped-ion architecture along with functions to help navigate it" and
"enforces validity of the final hardware circuit by tracking qubit movement".

The fine grid tiles the repeating unit ``{M, O, M, J, M, O, M}`` of §3.1 (see
:mod:`repro.util.geometry`).  Scheduling semantics:

* ions rest only on trapping zones (M/O sites), never on junctions (§3.2);
* a one-site move between adjacent zones takes 5.25 µs; crossing a junction
  is emitted as a single ``Move zoneA zoneB`` between the two zones flanking
  the junction and is allocated the time of two Junction operations
  (2 x 105 µs = 210 µs, §3.2);
* during a move both endpoint sites are held, so ions can never swap through
  each other or co-occupy a site;
* when two ions contend for the same junction the later move is delayed until
  the junction frees up, and the conflict is counted
  (§3.3 junction-conflict resolution).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.hardware.circuit import HardwareCircuit
from repro.hardware.profile import DEFAULT_PROFILE, HardwareProfile, get_profile
from repro.util.geometry import SiteType, site_exists, site_type_at
from repro.util.memo import BoundedMemo

__all__ = [
    "GEOMETRY",
    "GridManager",
    "SiteBlockedError",
    "grid_for_patch",
    "MOVE_US",
    "JUNCTION_HOP_US",
]

#: Duration of a zone-to-zone move: 420 µm at 80 m/s (§3.2).  A view of the
#: default :class:`~repro.hardware.profile.HardwareProfile`; per-scenario
#: values live on ``grid.profile``.
MOVE_US = DEFAULT_PROFILE.move_us
#: Duration of a junction crossing: two Junction ops at 105 µs each (§3.2).
#: Default-profile view, like :data:`MOVE_US`.
JUNCTION_HOP_US = DEFAULT_PROFILE.junction_hop_us

#: :meth:`GridManager.site_kinds` codes.
NO_SITE, JUNCTION_SITE, ZONE_SITE = 0, 1, 2


class SiteBlockedError(RuntimeError):
    """A move targets a site occupied by a parked ion with no scheduled departure."""

    def __init__(self, site: int, occupant: int):
        super().__init__(f"site {site} is parked-on by ion {occupant}")
        self.site = site
        self.occupant = occupant


class _Geometry:
    """Read-only tables of one grid shape.

    Every :class:`GridManager` of the same ``(height, width)`` in a process
    reads one instance (see :data:`GEOMETRY`): per position its site kind
    (``kinds``), whether it is a trapping zone (``zone`` as an array,
    ``is_zone`` as a tuple) and its lattice neighbours (up, down, left,
    right), the zone sites in index order, and the junction flanked by any
    two zones one crossing apart.  The arrays are not writeable and the
    rows are tuples, so a mutation fails instead of reaching another grid.
    """

    def __init__(self, height: int, width: int):
        # The §3.1 tiling (repro.util.geometry): a site wherever the row or
        # the column is 0 mod 4, a junction where both are.
        r = np.arange(height)[:, None] % 4 == 0
        c = np.arange(width)[None, :] % 4 == 0
        kinds = np.where(r & c, JUNCTION_SITE, np.where(r | c, ZONE_SITE, NO_SITE))
        self.kinds = kinds.astype(np.int8).ravel()
        self.kinds.setflags(write=False)
        self.zone = self.kinds == ZONE_SITE
        self.zone.setflags(write=False)
        self.is_zone: tuple[bool, ...] = tuple(self.zone.tolist())
        self.zone_sites: tuple[int, ...] = tuple(np.flatnonzero(self.zone).tolist())

        exists = (self.kinds != NO_SITE).tolist()
        rows: list[tuple[int, ...]] = [()] * (height * width)
        for p in np.flatnonzero(self.kinds).tolist():
            row, col = divmod(p, width)
            rows[p] = tuple(
                q
                for q, inside in (
                    (p - width, row > 0),
                    (p + width, row < height - 1),
                    (p - 1, col > 0),
                    (p + 1, col < width - 1),
                )
                if inside and exists[q]
            )
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(rows)

        # (zone, zone) -> junction; ties keep the first in neighbour order.
        zone = self.is_zone
        junctions: dict[tuple[int, int], int] = {}
        for za in self.zone_sites:
            for j in rows[za]:
                if zone[j]:
                    continue
                for zb in rows[j]:
                    if zb != za and zone[zb]:
                        junctions.setdefault((za, zb), j)
        self.junctions = junctions


#: Geometry tables per grid shape ``(height, width)``, shared by every grid
#: of that shape in the process.  One resource sweep (13 operations at
#: d=3..11) builds 65 grids of 18 shapes.  ``MemoryExperiment.
#: clear_compile_cache()`` empties it.
GEOMETRY: BoundedMemo[_Geometry] = BoundedMemo(64)


class _Calendar:
    """Every busy interval committed at grid positions, in commit order.

    The round kernel's intervals stay the arrays it returned, one chunk per
    round; the Python scheduler's land one at a time, tagged with the
    number of chunks committed before them.  ``horizon[p]`` is the latest
    interval end at position ``p`` (0.0 for none), so a reservation from at
    or after it reads no interval at all.  A position's interval list is
    built only when the Python scheduler has to scan it.
    """

    def __init__(self, n_positions: int):
        self.horizon = np.zeros(n_positions)
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._single: dict[int, list[tuple[int, float, float]]] = {}

    def add(self, p: int, lo: float, hi: float) -> None:
        """Commit one interval at position ``p``."""
        self._single.setdefault(p, []).append((len(self._chunks), lo, hi))
        if hi > self.horizon[p]:
            self.horizon[p] = hi

    def add_chunk(self, pos: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Commit a block of intervals given as columns (kept, not copied)."""
        if len(pos):
            self._chunks.append((pos, lo, hi))
            np.maximum.at(self.horizon, pos, hi)

    def intervals(self, p: int) -> list[tuple[float, float]]:
        """Position ``p``'s intervals in commit order."""
        single = self._single.get(p, ())
        out: list[tuple[float, float]] = []
        k = 0
        for c, (pos, lo, hi) in enumerate(self._chunks):
            while k < len(single) and single[k][0] <= c:
                out.append(single[k][1:])
                k += 1
            hit = np.flatnonzero(pos == p)
            if len(hit):
                out += zip(lo[hit].tolist(), hi[hit].tolist())
        out += [event[1:] for event in single[k:]]
        return out

    def live(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every interval ending after ``t`` as ``(pos, lo, hi)`` columns, in no
        particular order."""
        parts = []
        for pos, lo, hi in self._chunks:
            keep = hi > t
            parts.append((pos[keep], lo[keep], hi[keep]))
        single = [(p, a, b) for p, events in self._single.items() for _, a, b in events if b > t]
        if single:
            pos, lo, hi = zip(*single)
            parts.append((np.array(pos, dtype=np.int64), np.array(lo), np.array(hi)))
        if not parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
        return tuple(np.concatenate([part[k] for part in parts]) for k in range(3))

    def by_position(self) -> dict[int, list[tuple[float, float]]]:
        """Every position's intervals in commit order, positions ascending."""
        positions = set(self._single)
        for pos, _, _ in self._chunks:
            positions.update(pos.tolist())
        return {p: self.intervals(p) for p in sorted(positions)}


def _earliest_slot(intervals: list[tuple[float, float]], t: float, dur: float) -> float:
    """Earliest start >= t such that [start, start+dur) avoids all intervals."""
    start = t
    moved = True
    while moved:
        moved = False
        for a, b in intervals:
            if start < b and a < start + dur:
                start = b
                moved = True
    return start


class GridManager:
    """Grid navigation, ion registry, and movement scheduling.

    Accepts either the legacy ``GridManager(unit_rows, unit_cols)`` call
    (default profile) or the profile-first ``GridManager(profile,
    unit_rows, unit_cols)`` / ``GridManager(unit_rows, unit_cols,
    profile=...)`` forms; transport durations come from ``self.profile``.
    """

    def __init__(self, *args, profile: HardwareProfile | str | None = None):
        if args and isinstance(args[0], HardwareProfile):
            if profile is not None:
                raise TypeError("profile passed both positionally and by keyword")
            profile, args = args[0], args[1:]
        if len(args) != 2:
            raise TypeError(
                "GridManager takes (unit_rows, unit_cols) or (profile, unit_rows, unit_cols)"
            )
        unit_rows, unit_cols = args
        self.profile = get_profile(profile)
        self.move_us = self.profile.move_us
        self.junction_hop_us = self.profile.junction_hop_us
        if unit_rows < 1 or unit_cols < 1:
            raise ValueError("grid must be at least 1x1 repeating units")
        self.unit_rows = unit_rows
        self.unit_cols = unit_cols
        self.height = 4 * unit_rows + 1
        self.width = 4 * unit_cols + 1
        self.n_positions = self.height * self.width

        # --- ion registry -------------------------------------------------
        self._next_ion = 0
        self._site_of: dict[int, int] = {}  # ion -> site
        self._occupant: dict[int, int] = {}  # site -> ion
        self._occupied_since: dict[int, float] = {}  # site -> time parked
        self._ion_ready: dict[int, float] = {}  # ion -> next free time
        self._ion_tag: dict[int, str] = {}

        # --- calendars ----------------------------------------------------
        self._sites = _Calendar(self.n_positions)
        self._junctions = _Calendar(self.n_positions)

        #: Count of junction conflicts resolved by serialization (§3.3).
        self.junction_conflicts = 0
        #: Count of moves delayed by transient site reservations.
        self.site_delays = 0
        #: Latest time any committed schedule state (ion clocks, site or
        #: junction calendar intervals) extends to.  A block of work starting
        #: at ``t >= t_horizon`` cannot be perturbed by history, which is the
        #: eligibility condition for QEC-round template replay.
        self.t_horizon = 0.0

        # --- geometry: shared with every grid of this shape ----------------
        self._geometry = GEOMETRY.get(
            (self.height, self.width), lambda: _Geometry(self.height, self.width)
        )

    # ------------------------------------------------------------- geometry
    def index(self, r: int, c: int) -> int:
        if not (0 <= r < self.height and 0 <= c < self.width):
            raise ValueError(f"({r}, {c}) outside the {self.height}x{self.width} grid")
        if not site_exists(r, c):
            raise ValueError(f"({r}, {c}) is a cell interior, not a site")
        return r * self.width + c

    def coords(self, site: int) -> tuple[int, int]:
        if not (0 <= site < self.n_positions):
            raise ValueError(f"qsite {site} out of range")
        return divmod(site, self.width)

    def site_type(self, site: int) -> SiteType:
        r, c = self.coords(site)
        return site_type_at(r, c)

    def site_kinds(self) -> np.ndarray:
        """``(n_positions,)`` int8 array, per position: :data:`NO_SITE` (a
        cell interior), :data:`JUNCTION_SITE` or :data:`ZONE_SITE`.

        Built once per grid shape and shared, so it is not writeable.  With
        ``width`` and ``height`` it is the whole geometry the native
        kernels read: adjacency and junction crossings follow from it.
        """
        return self._geometry.kinds

    def zone_mask(self) -> np.ndarray:
        """``(n_positions,)`` bool array: True where a site is a trapping zone.

        Built once per grid shape and shared (not writeable); used by the
        resource estimator.
        """
        return self._geometry.zone

    def is_zone(self, site: int) -> bool:
        if not (0 <= site < self.n_positions):
            raise ValueError(f"qsite {site} out of range")
        return self._geometry.is_zone[site]

    def neighbors(self, site: int) -> tuple[int, ...]:
        """Lattice-adjacent existing sites (including junctions)."""
        if not (0 <= site < self.n_positions):
            raise ValueError(f"qsite {site} out of range")
        return self._geometry.neighbors[site]

    def adjacent_zones(self, site: int) -> list[int]:
        mask = self.zone_mask()
        return [s for s in self.neighbors(site) if mask[s]]

    def junction_between(self, a: int, b: int) -> int | None:
        """The junction adjacent to both zones ``a`` and ``b``, if any.

        Ties (diagonal pairs reachable through two junctions) keep the
        first junction in ``a``'s neighbor order.
        """
        if not (self.is_zone(a) and self.is_zone(b)):
            return None
        return self._geometry.junctions.get((a, b))

    def gate_adjacent(self, a: int, b: int) -> bool:
        """Two-qubit gates act between lattice-adjacent trapping zones."""
        return self.is_zone(a) and self.is_zone(b) and b in self.neighbors(a)

    def all_sites(self) -> Iterable[int]:
        for r in range(self.height):
            for c in range(self.width):
                if site_exists(r, c):
                    yield r * self.width + c

    def zone_sites(self) -> list[int]:
        """Every trapping zone, in index order."""
        return list(self._geometry.zone_sites)

    def zones_in_bbox(self, r0: int, c0: int, r1: int, c1: int) -> int:
        """Number of trapping zones with r0<=r<=r1, c0<=c<=c1."""
        count = 0
        for r in range(max(0, r0), min(self.height, r1 + 1)):
            for c in range(max(0, c0), min(self.width, c1 + 1)):
                if site_exists(r, c) and site_type_at(r, c) is not SiteType.JUNCTION:
                    count += 1
        return count

    # ----------------------------------------------------------------- ions
    def add_ion(self, site: int, tag: str = "", t: float = 0.0) -> int:
        if not self.is_zone(site):
            raise ValueError(f"ions cannot rest on junction site {site}")
        if site in self._occupant:
            raise ValueError(f"site {site} already holds ion {self._occupant[site]}")
        ion = self._next_ion
        self._next_ion += 1
        self._site_of[ion] = site
        self._occupant[site] = ion
        self._occupied_since[site] = t
        self._ion_ready[ion] = t
        self._ion_tag[ion] = tag
        self.t_horizon = max(self.t_horizon, t)
        return ion

    def load_ion(
        self, circuit: HardwareCircuit, site: int, tag: str = "", t: float | None = None
    ) -> int:
        """Register a new ion mid-circuit, emitting a ``Load`` pseudo-instruction.

        Trapped-ion systems draw fresh ions from a reservoir; Table 5 has no
        explicit load operation, so loading is modelled as instantaneous.
        The instruction lets the simulator's replay know when and where the
        ion appears.
        """
        t = self.now if t is None else t
        ion = self.add_ion(site, tag, t)
        circuit.append("Load", (site,), t, 0.0)
        return ion

    def ensure_ion(
        self, circuit: HardwareCircuit, site: int, tag: str = "", t: float | None = None
    ) -> int:
        """Reuse the ion parked at ``site`` or load a fresh one."""
        existing = self.ion_at(site)
        if existing is not None:
            return existing
        return self.load_ion(circuit, site, tag, t)

    def remove_ion(self, ion: int, t: float | None = None) -> None:
        site = self._site_of.pop(ion)
        del self._occupant[site]
        since = self._occupied_since.pop(site)
        end = self._ion_ready[ion] if t is None else max(t, since)
        self._sites.add(site, since, end)
        self.t_horizon = max(self.t_horizon, end)
        del self._ion_ready[ion]
        del self._ion_tag[ion]

    def ion_at(self, site: int) -> int | None:
        return self._occupant.get(site)

    def site_of(self, ion: int) -> int:
        return self._site_of[ion]

    def ion_ready(self, ion: int) -> float:
        return self._ion_ready[ion]

    def ion_tag(self, ion: int) -> str:
        return self._ion_tag[ion]

    def ions(self) -> dict[int, int]:
        """ion -> site mapping (snapshot)."""
        return dict(self._site_of)

    def occupancy(self) -> dict[int, int]:
        """site -> ion mapping (snapshot)."""
        return dict(self._occupant)

    @property
    def now(self) -> float:
        """Latest per-ion clock — a lower bound on when new work can start."""
        return max(self._ion_ready.values(), default=0.0)

    # ------------------------------------------------------------- routing
    def route(
        self,
        src: int,
        dst: int,
        avoid: Sequence[int] = (),
        ignore_occupancy: bool = False,
    ) -> list[int]:
        """Shortest path of sites from src to dst (BFS), skirting parked ions.

        The returned path includes junction sites in transit positions; use
        :meth:`schedule_route` to realize it.  ``avoid`` adds extra blocked
        sites.  Occupied zones block the path unless ``ignore_occupancy``.
        """
        blocked = set(avoid)
        if not ignore_occupancy:
            blocked |= set(self._occupant) - {src, dst}
        if src == dst:
            return [src]
        prev: dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in self.neighbors(cur):
                if nxt in prev or nxt in blocked:
                    continue
                prev[nxt] = cur
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(nxt)
        raise ValueError(f"no free path from {src} to {dst}")

    # ---------------------------------------------------------- scheduling
    def _reserve_site(self, site: int, t: float, dur: float) -> float:
        if t >= self._sites.horizon[site]:
            return t  # every recorded interval ends at or before t
        return _earliest_slot(self._sites.intervals(site), t, dur)

    def schedule_move(
        self,
        circuit: HardwareCircuit,
        ion: int,
        dst: int,
        t_min: float = 0.0,
    ) -> tuple[float, float]:
        """Schedule one hop (zone-zone or across a junction) for ``ion``.

        Returns (start, end) in µs.  Raises :class:`SiteBlockedError` when the
        destination is parked-on, ``ValueError`` when dst is not reachable in
        one hop.
        """
        src = self._site_of[ion]
        if dst == src:
            return (self._ion_ready[ion], self._ion_ready[ion])
        if not self.is_zone(dst):
            raise ValueError(f"ion cannot stop on junction site {dst}")
        junction = None
        if dst in self.neighbors(src):
            dur = self.move_us
        else:
            junction = self.junction_between(src, dst)
            if junction is None:
                raise ValueError(f"sites {src} and {dst} are not one hop apart")
            dur = self.junction_hop_us

        occupant = self._occupant.get(dst)
        if occupant is not None:
            raise SiteBlockedError(dst, occupant)

        t = max(t_min, self._ion_ready[ion])
        t_site = self._reserve_site(dst, t, dur)
        if t_site > t:
            self.site_delays += 1
        t = t_site
        if junction is not None:
            if t >= self._junctions.horizon[junction]:
                t_junction = t  # no recorded crossing extends past t
            else:
                t_junction = _earliest_slot(self._junctions.intervals(junction), t, dur)
            if t_junction > t:
                self.junction_conflicts += 1
                # Re-check the destination slot at the pushed-back time.
                t_junction = self._reserve_site(dst, t_junction, dur)
            t = t_junction
            self._junctions.add(junction, t, t + dur)

        # Close out the origin occupancy (held through the transit) and park
        # the ion on the destination from the start of the transit.
        since = self._occupied_since.pop(src)
        self._sites.add(src, since, t + dur)
        del self._occupant[src]
        self._occupant[dst] = ion
        self._occupied_since[dst] = t
        self._site_of[ion] = dst
        self._ion_ready[ion] = t + dur
        self.t_horizon = max(self.t_horizon, t + dur)
        circuit.append("Move", (src, dst), t, dur)
        return (t, t + dur)

    def schedule_route(
        self,
        circuit: HardwareCircuit,
        ion: int,
        path: Sequence[int],
        t_min: float = 0.0,
    ) -> float:
        """Realize a path (as returned by :meth:`route`) as scheduled moves.

        Junction entries in the path are folded into single junction-crossing
        moves.  Returns the arrival time.
        """
        if not path:
            return self._ion_ready[ion]
        if path[0] != self._site_of[ion]:
            raise ValueError("path must start at the ion's current site")
        t_end = max(t_min, self._ion_ready[ion])
        i = 1
        while i < len(path):
            step = path[i]
            if self.site_type(step) is SiteType.JUNCTION:
                if i + 1 >= len(path):
                    raise ValueError("path may not end on a junction")
                _, t_end = self.schedule_move(circuit, ion, path[i + 1], t_min)
                i += 2
            else:
                _, t_end = self.schedule_move(circuit, ion, step, t_min)
                i += 1
        return t_end

    def schedule_gate1(
        self,
        circuit: HardwareCircuit,
        name: str,
        ion: int,
        duration: float,
        t_min: float = 0.0,
        label: str | None = None,
    ) -> tuple[float, float]:
        """Schedule a single-qubit native operation on ``ion`` at its site."""
        t = max(t_min, self._ion_ready[ion])
        site = self._site_of[ion]
        circuit.append(name, (site,), t, duration, label)
        self._ion_ready[ion] = t + duration
        self.t_horizon = max(self.t_horizon, t + duration)
        return (t, t + duration)

    def schedule_gate2(
        self,
        circuit: HardwareCircuit,
        name: str,
        ion_a: int,
        ion_b: int,
        duration: float,
        t_min: float = 0.0,
    ) -> tuple[float, float]:
        """Schedule a two-qubit native gate between adjacent-zone ions."""
        site_a = self._site_of[ion_a]
        site_b = self._site_of[ion_b]
        if not self.gate_adjacent(site_a, site_b):
            raise ValueError(
                f"two-qubit gate requires adjacent zones, got {site_a} and {site_b}"
            )
        t = max(t_min, self._ion_ready[ion_a], self._ion_ready[ion_b])
        circuit.append(name, (site_a, site_b), t, duration)
        self._ion_ready[ion_a] = t + duration
        self._ion_ready[ion_b] = t + duration
        self.t_horizon = max(self.t_horizon, t + duration)
        return (t, t + duration)

    def sync_ions(self, ions: Iterable[int], t_min: float = 0.0) -> float:
        """Barrier: raise every listed ion's clock to the common max."""
        ions = list(ions)
        t = max([t_min] + [self._ion_ready[i] for i in ions])
        for i in ions:
            self._ion_ready[i] = t
        self.t_horizon = max(self.t_horizon, t)
        return t

    def shift_ions(self, ions: Iterable[int], dt: float) -> None:
        """Advance clocks after a replayed block of scheduled work.

        Used by QEC-round template replay: the listed ions' ready times and
        parked-since stamps move forward by ``dt`` as if the replicated
        rounds had been scheduled move by move.  Calendar intervals inside
        the replayed span are *not* recorded — they lie entirely before the
        new horizon, where they can no longer influence scheduling.
        """
        if dt <= 0:
            return
        for ion in ions:
            self._ion_ready[ion] += dt
            self._occupied_since[self._site_of[ion]] += dt
            self.t_horizon = max(self.t_horizon, self._ion_ready[ion])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GridManager {self.unit_rows}x{self.unit_cols} units, "
            f"{len(self._site_of)} ions>"
        )


def grid_for_patch(
    profile: HardwareProfile | str | None,
    dx: int,
    dz: int,
    margin: tuple[int, int] = (2, 2),
) -> GridManager:
    """Grid sized for one standalone dx-by-dz patch plus working margin.

    The single home of the ``(dz + margin_rows, dx + margin_cols)`` unit
    convention previously duplicated across the CLI and the verification
    protocols: margin rows/cols give ancilla ions room to shuttle around
    the patch boundary.
    """
    return GridManager(get_profile(profile), dz + margin[0], dx + margin[1])
