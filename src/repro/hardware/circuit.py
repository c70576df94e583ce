"""Time-resolved hardware circuits, stored column-wise.

TISCC output circuits are lists of native instructions, each annotated with
the qsites it acts on and the nominal start time at which it should occur
(paper §3.4: "The circuits output by TISCC are time-resolved ... considering
operations that are done in parallel").  :class:`HardwareCircuit` is that
container plus serialization to/from the text format consumed by the
simulator's parser.

Internally the circuit is a structure-of-arrays: gate names are interned to
small integer codes, sites/times/durations live in parallel columns, and
measurement labels sit in a sparse side table (row -> label).  Single
instructions append onto plain-list column builders; bulk operations —
most importantly :meth:`replay_block`, which the syndrome scheduler uses to
replay a compiled QEC-round template as vectorized time-shifted copies,
and :meth:`append_rows`, which lands each round the native scheduler
compiles — land as prebuilt array chunks, so a circuit that is mostly
rounds materializes its columns with a handful of concatenations.  The legacy
object API (:meth:`append`, iteration, :meth:`sorted_instructions`,
:meth:`to_text`) is preserved as views that build :class:`Instruction`
objects on demand, while the validity checker, resource estimator, and
simulation engines consume the columns directly (:meth:`columns`,
:meth:`sorted_columns`) without any per-object iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Instruction", "HardwareCircuit", "CircuitColumns", "ReplayBlock", "gate_code"]

# --------------------------------------------------------------------- names
# Gate names are interned into one process-wide pool: circuits store int32
# codes, and every circuit shares the same code -> name mapping.  The pool
# only ever grows (a handful of native names plus whatever tests invent).
_CODE_OF: dict[str, int] = {}
_NAME_OF: list[str] = []


def _intern(name: str) -> int:
    code = _CODE_OF.get(name)
    if code is None:
        code = len(_NAME_OF)
        _CODE_OF[name] = code
        _NAME_OF.append(name)
    return code


_LOAD_CODE = _intern("Load")


def name_code(name: str) -> int | None:
    """The interned code for a gate name, or ``None`` if never seen.

    Lets columnar consumers (validity checker, estimators) build masks by
    integer comparison against :attr:`CircuitColumns.codes` instead of
    string comparisons row by row.
    """
    return _CODE_OF.get(name)


def gate_code(name: str) -> int:
    """The interned code for a gate name, interning it on first use.

    Producers that build a code column themselves (the native round
    scheduler, for :meth:`HardwareCircuit.append_rows`) take their codes
    from here.
    """
    return _intern(name)


def _name_rank() -> np.ndarray:
    """code -> rank of the name in lexicographic order (for sorting)."""
    rank = np.empty(len(_NAME_OF), dtype=np.int32)
    rank[np.argsort(np.array(_NAME_OF))] = np.arange(len(_NAME_OF), dtype=np.int32)
    return rank


@dataclass(frozen=True)
class Instruction:
    """One native hardware instruction.

    ``name`` is a native gate name from Table 5 (plus the signed-angle
    variants), ``sites`` the qsite indices it acts on (two for ``ZZ`` and
    ``Move``), ``t`` the nominal start time and ``duration`` its length, both
    in microseconds.  Measurements carry a ``label`` (``m0``, ``m1``, ...)
    used to refer to their outcome in post-processing.
    """

    name: str
    sites: tuple[int, ...]
    t: float
    duration: float
    label: str | None = None

    @property
    def t_end(self) -> float:
        return self.t + self.duration

    def to_text(self) -> str:
        parts = [self.name, *map(str, self.sites), f"@{self.t:.3f}"]
        if self.label is not None:
            parts += ["->", self.label]
        return " ".join(parts)


@dataclass
class CircuitColumns:
    """A read-only columnar snapshot of a circuit (one row per instruction).

    ``codes`` indexes the shared gate-name pool (decode via :attr:`names`);
    ``site0``/``site1`` hold the first/second qsite with ``-1`` meaning
    absent, ``nsites`` the true arity.  ``labels`` is the sparse
    measurement-label side table (row -> label).  :attr:`names` and
    :attr:`sites` are decoded lazily and cached — the replay engines index
    them in tight loops without building :class:`Instruction` objects.
    """

    codes: np.ndarray
    site0: np.ndarray
    site1: np.ndarray
    nsites: np.ndarray
    t: np.ndarray
    duration: np.ndarray
    labels: dict[int, str] = field(default_factory=dict)

    _names: list[str] | None = None
    _sites: list[tuple[int, ...]] | None = None

    @property
    def n(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def names(self) -> list[str]:
        """Per-row gate names (decoded once, then cached)."""
        if self._names is None:
            pool = _NAME_OF
            self._names = [pool[c] for c in self.codes.tolist()]
        return self._names

    @property
    def sites(self) -> list[tuple[int, ...]]:
        """Per-row site tuples (decoded once, then cached)."""
        if self._sites is None:
            s0 = self.site0.tolist()
            s1 = self.site1.tolist()
            ns = self.nsites.tolist()
            self._sites = [
                (a, b) if k == 2 else ((a,) if k == 1 else ())
                for a, b, k in zip(s0, s1, ns)
            ]
        return self._sites

    @property
    def t_end(self) -> np.ndarray:
        return self.t + self.duration

    def instruction(self, i: int) -> Instruction:
        """Materialize row ``i`` as an :class:`Instruction` (error paths)."""
        return Instruction(
            self.names[i], self.sites[i], float(self.t[i]), float(self.duration[i]),
            self.labels.get(i),
        )

    def instructions(self) -> list[Instruction]:
        names, sites, labels = self.names, self.sites, self.labels
        ts, durs = self.t.tolist(), self.duration.tolist()
        return [
            Instruction(names[i], sites[i], ts[i], durs[i], labels.get(i))
            for i in range(len(names))
        ]


#: One frozen block of rows: (codes, site0, site1, nsites, t, duration).
_Chunk = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ReplayBlock:
    """Provenance record of one :meth:`HardwareCircuit.replay_block` call.

    All row indices are append-order: the template block occupied rows
    ``[start, stop)`` and copy ``k`` (1-based) occupies rows
    ``[chunk_start + (k-1)*block, chunk_start + k*block)`` with
    ``block = stop - start``.  ``label_maps[k-1]`` maps each template
    measurement label to copy ``k``'s fresh label.  The record names rows
    and labels only, never times, so it stays valid on a
    :meth:`HardwareCircuit.retimed` copy.  The DEM extractor uses these
    records to locate the periodic bulk of a replayed circuit, measures the
    period from the circuit's own time columns, and tiles fault footprints
    instead of re-walking every round.
    """

    start: int
    stop: int
    chunk_start: int
    copies: int
    label_maps: tuple[dict[str, str], ...]

    @property
    def block(self) -> int:
        return self.stop - self.start

    def shifted(self, offset: int) -> "ReplayBlock":
        """The same record with every row index moved by ``offset``."""
        return ReplayBlock(
            self.start + offset,
            self.stop + offset,
            self.chunk_start + offset,
            self.copies,
            self.label_maps,
        )


class HardwareCircuit:
    """Append-only, time-annotated instruction stream (structure-of-arrays).

    Instructions may be appended out of time order (different ions progress
    independently during compilation); :meth:`sorted_instructions` and
    serialization return them ordered by start time, matching the
    "master hardware circuit" of §3.4.
    """

    def __init__(self) -> None:
        # Frozen array chunks (bulk appends) + live plain-list builders.
        self._frozen: list[_Chunk] = []
        self._frozen_len = 0
        self._codes: list[int] = []
        self._site0: list[int] = []
        self._site1: list[int] = []
        self._nsites: list[int] = []
        self._t: list[float] = []
        self._dur: list[float] = []
        #: Sparse label table: append-order row index -> label.
        self._label_of: dict[int, str] = {}
        self._measure_count = 0
        #: Provenance of every bulk template replay (see :class:`ReplayBlock`).
        self._replays: list[ReplayBlock] = []
        # Cached derived views, invalidated on mutation.
        self._cols: CircuitColumns | None = None
        self._sorted_cols: CircuitColumns | None = None
        self._sort_order: np.ndarray | None = None
        self._sorted_instr: list[Instruction] | None = None
        self._used_sites: set[int] | None = None

    def _invalidate(self) -> None:
        self._cols = None
        self._sorted_cols = None
        self._sort_order = None
        self._sorted_instr = None
        self._used_sites = None

    def _freeze_builder(self) -> None:
        """Move the live list builders into a frozen array chunk."""
        if not self._codes:
            return
        self._frozen.append(
            (
                np.array(self._codes, dtype=np.int32),
                np.array(self._site0, dtype=np.int64),
                np.array(self._site1, dtype=np.int64),
                np.array(self._nsites, dtype=np.int8),
                np.array(self._t, dtype=np.float64),
                np.array(self._dur, dtype=np.float64),
            )
        )
        self._frozen_len += len(self._codes)
        self._codes = []
        self._site0 = []
        self._site1 = []
        self._nsites = []
        self._t = []
        self._dur = []

    # ------------------------------------------------------------------ build
    def append(
        self,
        name: str,
        sites: Iterable[int],
        t: float,
        duration: float,
        label: str | None = None,
    ) -> None:
        """Append one instruction (hot path: a few column appends, no object)."""
        sites = tuple(sites)
        n = len(sites)
        if n > 2:
            raise ValueError(f"{name} acts on {n} sites; a circuit row takes at most two")
        if label is not None:
            self._label_of[self._frozen_len + len(self._codes)] = label
        code = _CODE_OF.get(name)
        self._codes.append(_intern(name) if code is None else code)
        self._site0.append(sites[0] if n >= 1 else -1)
        self._site1.append(sites[1] if n >= 2 else -1)
        self._nsites.append(n)
        self._t.append(t)
        self._dur.append(duration)
        if self._cols is not None:
            self._invalidate()

    def append_rows(
        self,
        codes: np.ndarray,
        site0: np.ndarray,
        site1: np.ndarray,
        nsites: np.ndarray,
        t: np.ndarray,
        duration: np.ndarray,
        labels: dict[int, str],
    ) -> None:
        """Append a block of rows given as columns, as one frozen chunk.

        The columns have :class:`CircuitColumns`' dtypes (int32 codes from
        :func:`gate_code`, int64 sites with ``-1`` for absent, int8 arity,
        float64 times) and are not copied, so callers must not write to
        them afterwards.  ``labels`` maps block-relative rows to their
        measurement labels.  The native round scheduler lands each round
        through here.
        """
        n = len(codes)
        if any(len(column) != n for column in (site0, site1, nsites, t, duration)):
            raise ValueError("append_rows needs columns of equal length")
        start = len(self)
        self._freeze_builder()
        self._frozen.append((codes, site0, site1, nsites, t, duration))
        self._frozen_len += n
        for row, label in labels.items():
            self._label_of[start + row] = label
        self._invalidate()

    def new_measure_label(self) -> str:
        label = f"m{self._measure_count}"
        self._measure_count += 1
        return label

    def new_measure_labels(self, n: int) -> list[str]:
        """The next ``n`` fresh measurement labels, in order."""
        first = self._measure_count
        self._measure_count += n
        return [f"m{k}" for k in range(first, self._measure_count)]

    def extend(self, other: "HardwareCircuit") -> None:
        """Absorb another circuit's instructions (labels are not re-numbered)."""
        offset = len(self)
        self._freeze_builder()
        other._freeze_builder()
        self._frozen.extend(other._frozen)
        self._frozen_len += other._frozen_len
        for row, label in other._label_of.items():
            self._label_of[offset + row] = label
        self._replays.extend(rec.shifted(offset) for rec in other._replays)
        self._measure_count = max(self._measure_count, other._measure_count)
        self._invalidate()

    def retimed(self, t: np.ndarray) -> "HardwareCircuit":
        """This circuit with new start times ``t``, given in append order.

        Everything else carries over: the same rows in the same append
        order, the same measurement labels, measure counter and
        :class:`ReplayBlock` records.  This is the SIMD beam-pass
        scheduler's output hook.  The replay records stay true because
        they name rows, not times; whether a retimed bulk is still
        periodic is for the DEM extractor to verify.
        """
        cols = self.columns()
        t = np.array(t, dtype=np.float64)
        if t.shape != (cols.n,):
            raise ValueError(f"t must have shape ({cols.n},), got {t.shape}")
        new = HardwareCircuit()
        # Column arrays are never written in place, so the copy shares them.
        new._frozen.append((cols.codes, cols.site0, cols.site1, cols.nsites, t, cols.duration))
        new._frozen_len = cols.n
        new._label_of = dict(self._label_of)
        new._measure_count = self._measure_count
        new._replays = list(self._replays)
        return new

    def replay_block(
        self,
        start: int,
        stop: int,
        copies: int,
        dt: float,
        override: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[dict[str, str]]:
        """Append ``copies`` time-shifted replicas of rows ``[start, stop)``.

        Copy ``k`` (1-based) is shifted by ``k * dt`` microseconds; labeled
        rows receive fresh measurement labels from :meth:`new_measure_labels`.
        ``override`` — ``(block_positions, base_times)`` — re-anchors the
        given block-relative rows instead: in copy ``k`` they start at
        ``base_times + (k - 1) * dt`` (the syndrome scheduler uses this for
        operations that anchor to an ion's own clock rather than the round
        start).  Returns one ``{template label -> replica label}`` map per
        copy.  The replicas are built as one tiled array chunk — this is
        the QEC-round template-replay primitive.
        """
        if not (0 <= start <= stop <= len(self)):
            raise ValueError(f"replay block [{start}, {stop}) out of range")
        if copies < 1 or start == stop:
            return [{} for _ in range(max(copies, 0))]
        codes, site0, site1, nsites, t, duration = self.block(start, stop)
        block = stop - start
        chunk_start = len(self)
        offsets = np.repeat(np.arange(1, copies + 1, dtype=np.float64) * dt, block)
        tiled_t = np.tile(t, copies) + offsets
        if override is not None:
            positions, times = override
            for c in range(copies):
                tiled_t[c * block + positions] = times + c * dt
        self._freeze_builder()
        self._frozen.append(
            (
                np.tile(codes, copies),
                np.tile(site0, copies),
                np.tile(site1, copies),
                np.tile(nsites, copies),
                tiled_t,
                np.tile(duration, copies),
            )
        )
        self._frozen_len += block * copies
        labeled = sorted(row for row in self._label_of if start <= row < stop)
        template = [self._label_of[row] for row in labeled]
        fresh = self.new_measure_labels(copies * len(labeled))
        maps: list[dict[str, str]] = []
        for k in range(copies):
            labels = fresh[k * len(labeled) : (k + 1) * len(labeled)]
            maps.append(dict(zip(template, labels)))
            offset = chunk_start + k * block - start
            self._label_of.update(zip([offset + row for row in labeled], labels))
        self._replays.append(ReplayBlock(start, stop, chunk_start, copies, tuple(maps)))
        self._invalidate()
        return maps

    # ------------------------------------------------------------------ query
    @property
    def replay_blocks(self) -> tuple[ReplayBlock, ...]:
        """Provenance of every :meth:`replay_block` call, in call order.

        Rows appended *after* a replay (the final measurement block, say)
        are not covered by any record; the DEM extractor treats them as the
        epilogue it walks explicitly.
        """
        return tuple(self._replays)

    def sort_order(self) -> np.ndarray:
        """Append-order row index per execution-order position (read-only).

        ``sort_order()[p]`` is the append-order row occupying position ``p``
        of :meth:`sorted_columns` — the bridge between :class:`ReplayBlock`
        row ranges and the sorted stream the DEM extractor walks.  Callers
        must not mutate the returned array.
        """
        return self._order()

    def __len__(self) -> int:
        return self._frozen_len + len(self._codes)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.sorted_instructions())

    def columns(self) -> CircuitColumns:
        """Columnar snapshot in append order (compile order, not time order)."""
        if self._cols is None:
            self._freeze_builder()
            chunks = self._frozen
            if len(chunks) == 1:
                parts = chunks[0]
            elif chunks:
                parts = tuple(
                    np.concatenate([c[k] for c in chunks]) for k in range(6)
                )
                self._frozen = [parts]  # keep future snapshots cheap
            else:
                parts = self._empty()
            # The snapshot owns its labels: later appends must not reach it.
            self._cols = CircuitColumns(*parts, labels=dict(self._label_of))
        return self._cols

    def block(self, start: int, stop: int) -> _Chunk:
        """Rows ``[start, stop)`` as six columns, read from the chunks holding them.

        Unlike :meth:`columns`, this concatenates nothing when the rows lie
        in one chunk (a round the native scheduler appended lands as one),
        so the template-round analysis and :meth:`replay_block` cost the
        block, not the whole circuit.  The columns may be views: read only.
        """
        if not (0 <= start <= stop <= len(self)):
            raise ValueError(f"rows [{start}, {stop}) out of range")
        if stop > self._frozen_len:
            self._freeze_builder()
        parts = []
        end = self._frozen_len
        for chunk in reversed(self._frozen):
            begin = end - len(chunk[0])
            if begin < stop and start < end:
                lo, hi = max(start, begin) - begin, min(stop, end) - begin
                parts.append(tuple(column[lo:hi] for column in chunk))
            if begin <= start:
                break
            end = begin
        if len(parts) == 1:
            return parts[0]
        if not parts:  # an empty circuit
            return self._empty()
        parts.reverse()
        return tuple(np.concatenate([part[k] for part in parts]) for k in range(6))

    @staticmethod
    def _empty() -> _Chunk:
        return (
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )

    def _order(self) -> np.ndarray:
        """Execution order: by ``(t, Load-first, sites, name)``, stable.

        ``Load`` pseudo-instructions sort before anything else at the same
        timestamp so a freshly loaded ion exists before it is operated on.
        The ``-1`` site sentinels sort below every real site index, which
        reproduces tuple prefix ordering (``(s,) < (s, s')``) exactly.
        """
        if self._sort_order is None:
            cols = self.columns()
            rank = _name_rank()[cols.codes].astype(np.int64)
            load = np.where(cols.codes == _LOAD_CODE, np.int64(0), np.int64(1))
            max_site = max(
                int(cols.site0.max(initial=-1)), int(cols.site1.max(initial=-1))
            )
            if max_site + 1 < (1 << 21) and len(_NAME_OF) < (1 << 10):
                # Fold the four tie-break keys into one int64 (load-
                # first, site0, site1, name rank — 1+21+21+10 bits) so
                # the sort is a two-key lexsort with time as primary.
                tiebreak = (
                    (load << np.int64(52))
                    | ((cols.site0 + 1) << np.int64(31))
                    | ((cols.site1 + 1) << np.int64(10))
                    | rank
                )
                self._sort_order = np.lexsort((tiebreak, cols.t))
            else:  # pragma: no cover - gigantic grids only
                self._sort_order = np.lexsort(
                    (rank, cols.site1, cols.site0, load, cols.t)
                )
        return self._sort_order

    def sorted_columns(self) -> CircuitColumns:
        """Columnar snapshot in execution order — the hot-path view."""
        if self._sorted_cols is None:
            cols = self.columns()
            order = self._order()
            labels: dict[int, str] = {}
            if cols.labels:
                inverse = np.empty(cols.n, dtype=np.int64)
                inverse[order] = np.arange(cols.n, dtype=np.int64)
                for row, label in cols.labels.items():
                    labels[int(inverse[row])] = label
            sorted_cols = CircuitColumns(
                codes=cols.codes[order],
                site0=cols.site0[order],
                site1=cols.site1[order],
                nsites=cols.nsites[order],
                t=cols.t[order],
                duration=cols.duration[order],
                labels=labels,
            )
            self._sorted_cols = sorted_cols
        return self._sorted_cols

    @property
    def instructions(self) -> list[Instruction]:
        """Instructions in append order (compile order, not time order)."""
        return self.columns().instructions()

    def sorted_instructions(self) -> list[Instruction]:
        """Instructions ordered by start time — the executable stream."""
        if self._sorted_instr is None:
            self._sorted_instr = self.sorted_columns().instructions()
        return list(self._sorted_instr)

    @property
    def makespan(self) -> float:
        """Total execution time in µs (latest instruction end)."""
        if not len(self):
            return 0.0
        cols = self.columns()
        return float((cols.t + cols.duration).max())

    @property
    def t_start(self) -> float:
        if not len(self):
            return 0.0
        return float(self.columns().t.min())

    def used_sites(self) -> set[int]:
        """Every non-negative site a row names: one boolean scatter, no sort."""
        if self._used_sites is None:
            cols = self.columns()
            top = max(int(cols.site0.max(initial=-1)), int(cols.site1.max(initial=-1)))
            used = np.zeros(top + 1, dtype=bool)
            for column in (cols.site0, cols.site1):
                used[column[column >= 0]] = True
            self._used_sites = set(np.flatnonzero(used).tolist())
        return set(self._used_sites)

    def count(self, name: str) -> int:
        code = _CODE_OF.get(name)
        if code is None or not len(self):
            return 0
        return int((self.columns().codes == code).sum())

    def gate_histogram(self) -> dict[str, int]:
        if not len(self):
            return {}
        counts = np.bincount(self.columns().codes, minlength=len(_NAME_OF))
        hist = {_NAME_OF[c]: int(n) for c, n in enumerate(counts) if n > 0}
        return dict(sorted(hist.items()))

    def measurements(self) -> list[Instruction]:
        cols = self.sorted_columns()
        return [cols.instruction(i) for i in sorted(cols.labels)]

    # -------------------------------------------------------------- serialize
    def to_text(self, header: str | None = None) -> str:
        lines = []
        if header:
            lines.append(f"# {header}")
        cols = self.sorted_columns()
        names, sites, labels = cols.names, cols.sites, cols.labels
        ts = cols.t.tolist()
        for i in range(cols.n):
            parts = [names[i], *map(str, sites[i]), f"@{ts[i]:.3f}"]
            label = labels.get(i)
            if label is not None:
                parts += ["->", label]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HardwareCircuit {len(self)} instructions, makespan {self.makespan:.1f} µs>"
