"""Unit tests for the matching graph and the union-find decoder."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import build_memory_graph, schedule_graph
from repro.decode import (
    BOUNDARY,
    DetectorEdge,
    MatchingGraph,
    MemoryExperiment,
    UnionFindDecoder,
)


def syndrome_of(graph: MatchingGraph, edge_indices) -> np.ndarray:
    """Detector pattern fired by a set of independent edge faults."""
    syn = np.zeros(graph.n_detectors, dtype=np.uint8)
    for k in edge_indices:
        e = graph.edges[k]
        for node in (e.u, e.v):
            if node != BOUNDARY:
                syn[node] ^= 1
    return syn


def frame_of(graph: MatchingGraph, edge_indices) -> int:
    frame = 0
    for k in edge_indices:
        frame ^= graph.edges[k].frame
    return frame


class TestMatchingGraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="unknown detector"):
            MatchingGraph(2, [DetectorEdge(0, 5)])
        with pytest.raises(ValueError, match="self-loop"):
            MatchingGraph(2, [DetectorEdge(1, 1)])

    def test_memory_graph_shape(self):
        # Two faces sharing one qubit, each with a private boundary qubit.
        graph = build_memory_graph([{0, 1}, {1, 2}], {0, 1, 2}, rounds=2)
        assert graph.n_detectors == 2 * 3
        kinds = [e.kind for e in graph.edges]
        # Per slice: 2 boundary + 1 interior space edge; 2 time edges per gap.
        assert kinds.count("space") == 3 * 3
        assert kinds.count("time") == 2 * 2

    def test_overchecked_site_rejected(self):
        with pytest.raises(ValueError, match="at most two"):
            build_memory_graph([{0}, {0}, {0}], set(), rounds=1)

    def test_visit_layers_add_diagonal_edges(self):
        plain = build_memory_graph([{0, 1}, {1, 2}], {1}, rounds=2)
        layered = build_memory_graph(
            [{0, 1}, {1, 2}],
            {1},
            rounds=2,
            visit_layers=[{0: 1, 1: 2}, {1: 3, 2: 4}],
        )
        diag = [e for e in layered.edges if e.kind == "diagonal"]
        assert len(layered.edges) == len(plain.edges) + len(diag)
        # Face 0 visits the shared qubit earlier, so the diagonal runs from
        # face 1 at slice t to face 0 at slice t+1, carrying the frame bit.
        assert {(e.u, e.v) for e in diag} == {(1, 2), (3, 4)}
        assert all(e.frame == 1 for e in diag)

    def test_same_layer_shared_visit_rejected(self):
        with pytest.raises(ValueError, match="same layer"):
            build_memory_graph(
                [{0, 1}, {1, 2}],
                set(),
                rounds=1,
                visit_layers=[{0: 1, 1: 2}, {1: 2, 2: 4}],
            )


class TestUnionFindDecoder:
    def test_trivial_syndrome(self):
        graph = MatchingGraph(2, [DetectorEdge(0, 1), DetectorEdge(0, BOUNDARY, 1)])
        dec = UnionFindDecoder(graph)
        assert dec.decode(np.zeros(2, dtype=np.uint8)) == 0

    def test_pair_matched_internally_not_through_boundary(self):
        graph = MatchingGraph(
            2,
            [
                DetectorEdge(0, 1, frame=0),
                DetectorEdge(0, BOUNDARY, frame=1),
                DetectorEdge(1, BOUNDARY, frame=0),
            ],
        )
        dec = UnionFindDecoder(graph)
        assert dec.decode(np.array([1, 1], dtype=np.uint8)) == 0

    def test_lone_defect_matched_to_boundary(self):
        graph = MatchingGraph(
            2,
            [
                DetectorEdge(0, 1, frame=0),
                DetectorEdge(0, BOUNDARY, frame=1),
                DetectorEdge(1, BOUNDARY, frame=0),
            ],
        )
        dec = UnionFindDecoder(graph)
        assert dec.decode(np.array([1, 0], dtype=np.uint8)) == 1
        assert dec.decode(np.array([0, 1], dtype=np.uint8)) == 0

    def test_shape_validation(self):
        graph = MatchingGraph(2, [DetectorEdge(0, 1)])
        dec = UnionFindDecoder(graph)
        with pytest.raises(ValueError, match="does not match"):
            dec.decode(np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="does not match"):
            dec.decode_batch(np.zeros((4, 3), dtype=np.uint8))

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_every_single_fault_is_corrected(self, basis):
        """Any single edge fault must be decoded with the right frame parity."""
        graph = schedule_graph(MemoryExperiment(distance=3, basis=basis))
        dec = UnionFindDecoder(graph)
        assert graph.n_edges
        for k in range(graph.n_edges):
            syn = syndrome_of(graph, [k])
            assert dec.decode(syn) == frame_of(graph, [k]), graph.edges[k]

    def test_batch_decode_matches_single_shot_decode(self):
        dec = UnionFindDecoder(schedule_graph(MemoryExperiment(distance=3, basis="Z")))
        rng = np.random.default_rng(9)
        syndromes = (rng.random((64, dec.graph.n_detectors)) < 0.06).astype(np.uint8)
        batch_verdicts = dec.decode_batch(syndromes)
        single_verdicts = np.array([dec.decode(s) for s in syndromes])
        assert np.array_equal(batch_verdicts, single_verdicts)

    def test_distant_pairs_decode_independently(self):
        graph = schedule_graph(MemoryExperiment(distance=3, basis="Z"))
        dec = UnionFindDecoder(graph)
        # Two single faults far apart in time slices decode to the XOR of
        # their frames (clusters grow and peel independently).
        time_edges = [k for k, e in enumerate(graph.edges) if e.kind == "time"]
        a, b = time_edges[0], time_edges[-1]
        ea, eb = graph.edges[a], graph.edges[b]
        assert {ea.u, ea.v}.isdisjoint({eb.u, eb.v})
        syn = syndrome_of(graph, [a, b])
        assert dec.decode(syn) == frame_of(graph, [a, b])

    def test_weighted_growth_prefers_cheap_paths(self):
        # An expensive direct edge (frame 1) against two cheap boundary
        # edges (frame 0): the weighted decoder routes the correction
        # through the boundary, the unweighted one takes the direct edge.
        graph = MatchingGraph(
            2,
            [
                DetectorEdge(0, 1, frame=1, weight=10.0),
                DetectorEdge(0, BOUNDARY, frame=0, weight=1.0),
                DetectorEdge(1, BOUNDARY, frame=0, weight=1.0),
            ],
        )
        syn = np.array([1, 1], dtype=np.uint8)
        assert UnionFindDecoder(graph).decode(syn) == 0
        assert UnionFindDecoder(graph, weighted=False).decode(syn) == 1
