"""Matching graphs: the detector structure a decoder matches over.

A *detector* is the XOR of two syndrome measurements that is deterministic
(zero) in the absence of faults.  For a memory experiment with ``R`` rounds
of error correction over one stabilizer sector (the faces whose outcomes the
tracked logical depends on), the detectors form ``R + 1`` time slices of the
face lattice:

* slice ``0`` compares round 0 against the transversally prepared state
  (whose relevant stabilizer outcomes are deterministic),
* slice ``t`` (``1 <= t < R``) compares rounds ``t`` and ``t - 1``, and
* slice ``R`` compares the face parities recomputed from the final
  transversal data measurements against round ``R - 1``.

Every single Pauli fault flips at most two detectors, which is what makes
the structure a *matching* graph:

* a data error between rounds flips the slice-``t`` detectors of the (at
  most two) same-sector faces containing that qubit — a **space** edge, or a
  **boundary** edge when only one face checks the qubit;
* a syndrome-measurement error in round ``t`` flips slices ``t`` and
  ``t + 1`` of the same face — a **time** edge (readout errors of the final
  transversal measurement behave like space edges in slice ``R``);
* a data error in the *middle* of round ``t`` — after the early face's
  measure-ion visit but before the late face's (§3.3 Z/N pattern layers) —
  is caught by the late face this round and the early face only next round:
  a **diagonal** edge from the late face at slice ``t`` to the early face at
  slice ``t + 1``.

Each edge records whether its fault flips the tracked logical operator
(``frame = 1``): the decoder's correction flips the logical verdict once per
frame edge it uses.

:func:`build_dem_graph` builds the graph from an extracted
:class:`~repro.sim.dem.DetectorErrorModel`, so every edge is an actual error
*mechanism* of the noisy circuit carrying a log-likelihood weight
``log((1 - p) / p)`` — the graph weighted union-find growth consumes.  The
ideal model has no mechanism, so its graph is every detector and no edge.

A :class:`MatchingGraph` keeps its edges as columns (endpoints, frame bits,
weights), which is all the decoders read; the :class:`DetectorEdge` objects
of :attr:`MatchingGraph.edges` are built only when something asks for them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUNDARY",
    "DetectorEdge",
    "MatchingGraph",
    "build_dem_graph",
]

#: Virtual node index for the open boundary of the patch.
BOUNDARY = -1

#: Probability floor/ceiling when converting mechanism rates to weights
#: (keeps ``log((1-p)/p)`` finite and positive).
_MIN_PROBABILITY = 1e-12
_MAX_PROBABILITY = 0.5 - 1e-12


@dataclass(frozen=True)
class DetectorEdge:
    """One fault mechanism connecting two detectors (or one and the boundary).

    ``u``/``v`` are detector node ids (``v`` may be :data:`BOUNDARY`),
    ``frame`` is 1 when the fault flips the tracked logical operator,
    ``kind`` tags the mechanism (``"dem"`` for DEM-derived edges), and
    ``weight`` is the log-likelihood cost of traversing the edge (1.0 for
    unweighted graphs).
    """

    u: int
    v: int
    frame: int = 0
    kind: str = "space"
    weight: float = 1.0


class MatchingGraph:
    """A decoding graph over ``n_detectors`` nodes plus one open boundary.

    Edge ``k`` is column entry ``k`` of :attr:`u`/:attr:`v` (int64 detector
    ids, :data:`BOUNDARY` as -1), :attr:`frame` (uint8) and :attr:`weight`
    (float64); the columns are read-only.  ``MatchingGraph(n, edges)``
    takes :class:`DetectorEdge` objects and :meth:`from_columns` takes the
    columns themselves; both validate the same way.  :attr:`edges` lists
    the edges as :class:`DetectorEdge` objects, built on first access when
    the graph came from columns.
    """

    def __init__(self, n_detectors: int, edges: list[DetectorEdge]):
        edges = list(edges)
        count = len(edges)
        self._setup(
            n_detectors,
            np.fromiter((e.u for e in edges), dtype=np.int64, count=count),
            np.fromiter((e.v for e in edges), dtype=np.int64, count=count),
            np.fromiter((e.frame for e in edges), dtype=np.uint8, count=count),
            np.fromiter((e.weight for e in edges), dtype=np.float64, count=count),
            [e.kind for e in edges],
            edges,
        )

    @classmethod
    def from_columns(
        cls,
        n_detectors: int,
        u: np.ndarray,
        v: np.ndarray,
        frame: np.ndarray,
        weight: np.ndarray,
        kind: str | Sequence[str] = "dem",
    ) -> MatchingGraph:
        """The graph whose edge ``k`` is ``(u[k], v[k], frame[k], weight[k])``.

        ``kind`` tags every edge, or gives one tag per edge.
        """
        graph = cls.__new__(cls)
        graph._setup(
            n_detectors,
            np.array(u, dtype=np.int64),
            np.array(v, dtype=np.int64),
            np.array(frame, dtype=np.uint8),
            np.array(weight, dtype=np.float64),
            kind if isinstance(kind, str) else list(kind),
            None,
        )
        return graph

    def _setup(self, n_detectors, u, v, frame, weight, kind, edges) -> None:
        if n_detectors < 1:
            raise ValueError("need at least one detector")
        if not u.shape == v.shape == frame.shape == weight.shape == (u.size,):
            raise ValueError("edge columns must be one-dimensional and of one length")
        if not isinstance(kind, str) and len(kind) != u.size:
            raise ValueError(f"{len(kind)} edge kinds for {u.size} edges")
        for column in (u, v, frame, weight):
            column.setflags(write=False)
        self.n_detectors = n_detectors
        self.u, self.v, self.frame, self.weight = u, v, frame, weight
        self._kind = kind
        self._edges = edges
        self._validate()

    def _validate(self) -> None:
        """Reject the first edge, in edge order, that fails any check."""
        n, u, v = self.n_detectors, self.u, self.v

        def unknown(nodes: np.ndarray) -> np.ndarray:
            return (nodes != BOUNDARY) & ((nodes < 0) | (nodes >= n))

        bad = unknown(u) | unknown(v) | (u == v) | ~(self.weight > 0)
        if not bad.any():
            return
        e = self.edges[int(np.argmax(bad))]
        for node in (e.u, e.v):
            if node != BOUNDARY and not 0 <= node < n:
                raise ValueError(f"edge {e} references unknown detector {node}")
        if e.u == e.v:
            raise ValueError(f"self-loop edge {e}")
        raise ValueError(f"edge {e} has non-positive weight")

    @property
    def edges(self) -> list[DetectorEdge]:
        """The edges as :class:`DetectorEdge` objects, in column order."""
        if self._edges is None:
            kinds = itertools.repeat(self._kind) if isinstance(self._kind, str) else self._kind
            self._edges = [
                DetectorEdge(u, v, frame, kind, weight)
                for u, v, frame, kind, weight in zip(
                    self.u.tolist(),
                    self.v.tolist(),
                    self.frame.tolist(),
                    kinds,
                    self.weight.tolist(),
                )
            ]
        return self._edges

    @property
    def n_edges(self) -> int:
        return self.u.size

    @property
    def is_weighted(self) -> bool:
        """True when edge weights are not all identical."""
        w = self.weight
        return bool(w.size) and bool((np.abs(w - w[0]) > 1e-12).any())

    def subgraph(self, keep: np.ndarray, n_detectors: int, offset: int = 0) -> MatchingGraph:
        """The edges ``keep`` (indices, in that order) over ``n_detectors`` nodes.

        Every real endpoint moves down by ``offset``; boundary endpoints stay
        :data:`BOUNDARY`, and each edge keeps its frame, weight and kind.
        """
        u, v = self.u[keep], self.v[keep]
        kind = self._kind
        if not isinstance(kind, str):
            kind = [kind[k] for k in np.asarray(keep).tolist()]
        return MatchingGraph.from_columns(
            n_detectors,
            np.where(u == BOUNDARY, BOUNDARY, u - offset),
            np.where(v == BOUNDARY, BOUNDARY, v - offset),
            self.frame[keep],
            self.weight[keep],
            kind,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "weighted, " if self.is_weighted else ""
        return f"<MatchingGraph {tag}{self.n_detectors} detectors, {self.n_edges} edges>"


def build_dem_graph(dem, observable: int = 0) -> MatchingGraph:
    """Decoding graph built from a :class:`~repro.sim.dem.DetectorErrorModel`.

    Every DEM mechanism becomes (or merges into) one edge: one-detector
    mechanisms attach to the open boundary, two-detector mechanisms connect
    their detectors, and mechanisms firing more than two detectors are
    rejected (they would be hyperedges — the memory experiments this graph
    serves never produce them: a mid-round data fault fires one diagonal
    pair).  Mechanisms sharing a detector pair are
    XOR-combined (``p <- p_a(1-p_b) + p_b(1-p_a)``) and the frame bit of
    the most probable contributor wins; each edge's ``weight`` is the
    log-likelihood cost ``log((1 - p) / p)`` of its combined probability.

    Mechanisms that flip *no* detector are skipped: they are undetectable,
    so no graph decoder can act on them (their observable flips are an
    irreducible error floor).  ``observable`` selects which observable's
    flips define the frame bits (memory experiments have exactly one).

    Built in columns: the kept mechanisms (``p > 0``, non-empty footprint)
    are grouped by a stable sort on their ``(u, v)`` pair, so each edge's
    contributors stay in DEM order; the fold runs one NumPy step per rank
    within a group, and the frame is the first strictly most probable
    contributor's.  Edges come out in ``(u, v)`` order, with one
    ``math.log`` per distinct clipped probability — bit-identical to the
    per-mechanism dictionary loop it replaced (``build_dem_graph`` in
    ``tests/oracles.py``).
    """
    if not 0 <= observable < dem.n_observables:
        raise ValueError(
            f"observable {observable} out of range for {dem.n_observables} observables"
        )
    detectors = dem.detectors
    probs = np.asarray(dem.probs, dtype=np.float64)
    lengths = np.fromiter(map(len, detectors), dtype=np.int64, count=len(detectors))
    live = ~(probs <= 0.0) & (lengths > 0)
    hyper = np.flatnonzero(live & (lengths > 2))
    if hyper.size:
        dets = detectors[hyper[0]]
        raise ValueError(
            f"mechanism fires {len(dets)} detectors {tuple(dets)}; a "
            "matching graph needs at most two — decompose hyperedges first"
        )
    kept = np.flatnonzero(live)
    flat = np.fromiter(
        itertools.chain.from_iterable(detectors), dtype=np.int64, count=int(lengths.sum())
    )
    first, count = (np.cumsum(lengths) - lengths)[kept], lengths[kept]
    u = flat[first]
    v = np.where(count == 2, flat[first + count - 1], BOUNDARY)
    masks = np.asarray(dem.observables, dtype=np.uint64)[kept]
    frames = ((masks >> np.uint64(observable)) & np.uint64(1)).astype(np.uint8)

    # lexsort is stable: (u, v) order, DEM order within a pair.
    order = np.lexsort((v, u))
    u, v, site_p, site_frame = u[order], v[order], probs[kept][order], frames[order]
    new_pair = np.ones(u.size, dtype=bool)
    new_pair[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    head = np.flatnonzero(new_pair)
    sizes = np.diff(head, append=u.size)
    p = site_p[head]
    frame = site_frame[head]
    strongest = p.copy()
    for rank in range(1, int(sizes.max(initial=0))):
        group = np.flatnonzero(sizes > rank)
        a, b = p[group], site_p[head[group] + rank]
        p[group] = a * (1.0 - b) + b * (1.0 - a)
        stronger = group[b > strongest[group]]
        strongest[stronger] = site_p[head[stronger] + rank]
        frame[stronger] = site_frame[head[stronger] + rank]
    clipped = np.minimum(np.maximum(p, _MIN_PROBABILITY), _MAX_PROBABILITY)
    # Periodic DEMs repeat the same handful of probabilities across every
    # bulk round: one scalar log per distinct value, the loop's exact op.
    values, inverse = np.unique(clipped, return_inverse=True)
    logs = np.array([math.log((1.0 - q) / q) for q in values.tolist()], dtype=np.float64)
    return MatchingGraph.from_columns(
        dem.n_detectors, u[head], v[head], frame, logs[inverse].reshape(-1), "dem"
    )
