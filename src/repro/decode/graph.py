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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """A decoding graph over ``n_detectors`` nodes plus one open boundary."""

    def __init__(self, n_detectors: int, edges: list[DetectorEdge]):
        if n_detectors < 1:
            raise ValueError("need at least one detector")
        for e in edges:
            for node in (e.u, e.v):
                if node != BOUNDARY and not 0 <= node < n_detectors:
                    raise ValueError(f"edge {e} references unknown detector {node}")
            if e.u == e.v:
                raise ValueError(f"self-loop edge {e}")
            if not e.weight > 0:
                raise ValueError(f"edge {e} has non-positive weight")
        self.n_detectors = n_detectors
        self.edges = list(edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def is_weighted(self) -> bool:
        """True when edge weights are not all identical."""
        if not self.edges:
            return False
        w0 = self.edges[0].weight
        return any(abs(e.weight - w0) > 1e-12 for e in self.edges)

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
    """
    if not 0 <= observable < dem.n_observables:
        raise ValueError(
            f"observable {observable} out of range for {dem.n_observables} observables"
        )
    # pair -> [combined probability, frame of strongest source, strongest p]
    merged: dict[tuple[int, int], list] = {}
    for p, dets, mask in zip(dem.probs, dem.detectors, dem.observables):
        p = float(p)
        if p <= 0.0:
            continue
        frame = int(mask) >> observable & 1
        if len(dets) == 0:
            continue  # undetectable: invisible to every detector
        if len(dets) == 1:
            pair = (int(dets[0]), BOUNDARY)
        elif len(dets) == 2:
            pair = (int(dets[0]), int(dets[1]))
        else:
            raise ValueError(
                f"mechanism fires {len(dets)} detectors {tuple(dets)}; a "
                "matching graph needs at most two — decompose hyperedges first"
            )
        entry = merged.get(pair)
        if entry is None:
            merged[pair] = [p, frame, p]
        else:
            entry[0] = entry[0] * (1.0 - p) + p * (1.0 - entry[0])
            if p > entry[2]:
                entry[1], entry[2] = frame, p
    # Periodic DEMs repeat the same handful of probabilities across every
    # bulk round, so memoize the (expensive-ish) log per distinct float —
    # same scalar op, same bits, one call per unique value.
    weight_of: dict[float, float] = {}
    edges = []
    for (u, v), (p, frame, _) in sorted(merged.items()):
        p = min(max(p, _MIN_PROBABILITY), _MAX_PROBABILITY)
        weight = weight_of.get(p)
        if weight is None:
            weight = weight_of[p] = math.log((1.0 - p) / p)
        edges.append(DetectorEdge(u, v, frame, "dem", weight))
    return MatchingGraph(dem.n_detectors, edges)
