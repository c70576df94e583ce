"""Exact lookup-table decoder for small matching graphs (d=3 memories).

Enumerates the *entire* syndrome space once: a vectorized Dijkstra (Dial's
algorithm over integer edge weights) on the ``2**n_detectors`` syndrome
states finds, for every possible syndrome, the minimum-weight edge subset
producing it and records that subset's logical-frame parity.  Decoding a
batch is then a single table gather — and, because the table is exact
minimum-weight matching over the full graph (not a growth heuristic), the
decoder doubles as the equivalence oracle the test suite holds the
union-find implementations against.

The state space doubles per detector, so construction is only viable for
small graphs; :class:`LookupDecoder` refuses graphs beyond
:data:`MAX_LOOKUP_DETECTORS` detectors (a d=3 memory has 16, a d=5 memory's
72 are far out of reach — use ``"union_find"`` there).
"""

from __future__ import annotations

import numpy as np

from repro.decode.base import Decoder, integer_weights, register_decoder
from repro.decode.graph import BOUNDARY, MatchingGraph

__all__ = ["LookupDecoder", "MAX_LOOKUP_DETECTORS"]

#: Hard ceiling on table construction (2**20 states, a few MB).
MAX_LOOKUP_DETECTORS = 20


@register_decoder
class LookupDecoder(Decoder):
    """Exact minimum-weight decoding via a precomputed full-syndrome table."""

    name = "lookup"

    def __init__(self, graph: MatchingGraph, weighted: bool = True):
        super().__init__(graph)
        if self.n > MAX_LOOKUP_DETECTORS:
            raise ValueError(
                f"lookup decoding enumerates 2**n_detectors syndromes; "
                f"{self.n} detectors exceeds the {MAX_LOOKUP_DETECTORS}-detector "
                "limit — use 'union_find' for larger graphs"
            )
        self.weighted = bool(weighted) and graph.is_weighted
        # Each edge's detector footprint as a bitmask over the n detectors.
        toggles = np.zeros(graph.n_edges, dtype=np.int64)
        for nodes in (graph.u, graph.v):
            real = nodes != BOUNDARY
            toggles[real] ^= np.left_shift(1, nodes[real])
        if self.weighted:
            weights = integer_weights(graph.weight)
        else:
            weights = np.full(graph.n_edges, 2, dtype=np.int64)
        self._build_table(toggles, graph.frame, weights)

    def _build_table(
        self, toggles: np.ndarray, frames: np.ndarray, weights: np.ndarray
    ) -> None:
        """Dial's algorithm over syndrome states, vectorized per weight class.

        ``dist[s]`` is the minimum total weight of an edge subset whose
        detector footprint is the bit pattern ``s``; ``frame[s]`` that
        subset's logical parity.  States are relaxed bucket-by-bucket in
        increasing distance; within a bucket the first-discovered
        predecessor wins, which makes ties deterministic for a fixed edge
        order.
        """
        n_states = 1 << self.n
        dist = np.full(n_states, -1, dtype=np.int64)
        frame = np.zeros(n_states, dtype=np.uint8)
        dist[0] = 0
        # Group edges by integer weight so each bucket relaxes per class.
        classes: list[tuple[int, np.ndarray, np.ndarray]] = []
        for w in np.unique(weights):
            sel = weights == w
            classes.append((int(w), toggles[sel], frames[sel]))
        buckets: dict[int, list[np.ndarray]] = {0: [np.zeros(1, dtype=np.int64)]}
        d = 0
        while buckets:
            if d not in buckets:
                d += 1
                continue
            states = np.unique(np.concatenate(buckets.pop(d)))
            states = states[dist[states] == d]  # lazy deletion of superseded entries
            if states.size == 0:
                d += 1
                continue
            state_frames = frame[states]
            for w, tog, frm in classes:
                nd = d + w
                cand = (states[:, None] ^ tog[None, :]).ravel()
                cand_frame = (state_frames[:, None] ^ frm[None, :]).ravel()
                old = dist[cand]
                improve = (old < 0) | (nd < old)
                if not improve.any():
                    continue
                cand, cand_frame = cand[improve], cand_frame[improve]
                # First occurrence wins among duplicates in this relaxation.
                uniq, first = np.unique(cand, return_index=True)
                dist[uniq] = nd
                frame[uniq] = cand_frame[first]
                buckets.setdefault(nd, []).append(uniq)
            d += 1
        self._table = frame
        self._reachable = dist >= 0

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        syndromes = self._validate_batch(syndromes)
        if syndromes.shape[0] == 0:
            return np.zeros(0, dtype=np.uint8)
        powers = 1 << np.arange(self.n, dtype=np.int64)
        states = syndromes.astype(np.int64) @ powers
        if not self._reachable[states].all():
            raise RuntimeError(
                "syndrome is not producible by any edge subset of this graph"
            )
        return self._table[states]
