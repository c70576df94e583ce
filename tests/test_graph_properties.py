"""Property suite for matching graphs: DEM-built, and the schedule-built oracle.

Three structural invariants every decodable memory graph must satisfy:

* **boundary reachability** — every detector has a path to the open
  boundary (otherwise a lone defect there could never be matched);
* **frame-potential consistency** — the frame bits of non-boundary edges
  admit a potential ``phi`` with ``phi[u] ^ phi[v] == frame(u, v)``, i.e.
  every interior cycle carries even frame parity.  This is exactly the
  statement that frame parity along *any* boundary-to-boundary path is
  consistent: the parity of a path entering at boundary edge ``e1`` and
  leaving at ``e2`` is ``frame(e1) ^ phi(u1) ^ phi(u2) ^ frame(e2)``
  regardless of the route taken in between;
* **DEM/schedule agreement** — the DEM-built graph has the same node count
  as the schedule-built one (``oracles.schedule_graph``) and agrees with it
  on the frame bit of every shared edge pair.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_memory_graph, schedule_graph
from repro.decode import BOUNDARY, MemoryExperiment
from repro.sim.noise import NoiseModel


def boundary_reachable(graph) -> set[int]:
    """Detector nodes with a path to the boundary node."""
    adj: dict[int, list[int]] = {}
    seeds = []
    for e in graph.edges:
        if e.u == BOUNDARY or e.v == BOUNDARY:
            seeds.append(e.v if e.u == BOUNDARY else e.u)
        else:
            adj.setdefault(e.u, []).append(e.v)
            adj.setdefault(e.v, []).append(e.u)
    seen = set(seeds)
    queue = list(seen)
    while queue:
        cur = queue.pop()
        for other in adj.get(cur, ()):
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen


def frame_potential(graph) -> dict[int, int] | None:
    """A potential consistent with all interior frame bits, or None.

    BFS a spanning forest over non-boundary edges assigning
    ``phi[v] = phi[u] ^ frame``; any non-tree edge whose frame disagrees
    with ``phi[u] ^ phi[v]`` (an odd-frame interior cycle) refutes
    consistency.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    interior = []
    for e in graph.edges:
        if e.u == BOUNDARY or e.v == BOUNDARY:
            continue
        interior.append(e)
        adj.setdefault(e.u, []).append((e.v, e.frame))
        adj.setdefault(e.v, []).append((e.u, e.frame))
    phi: dict[int, int] = {}
    for start in range(graph.n_detectors):
        if start in phi or start not in adj:
            continue
        phi[start] = 0
        queue = [start]
        while queue:
            cur = queue.pop()
            for other, frame in adj[cur]:
                if other not in phi:
                    phi[other] = phi[cur] ^ frame
                    queue.append(other)
    for e in interior:
        if phi[e.u] ^ phi[e.v] != e.frame:
            return None
    phi.update({n: 0 for n in range(graph.n_detectors) if n not in phi})
    return phi


def chain_supports(n_faces: int) -> list[set[int]]:
    """A chain of faces: face ``i`` checks sites ``{2i, 2i+1, 2i+2}``.

    Consecutive faces share exactly one site (``2i+2``), every site is
    checked by at most two faces — the generic surface-code sector shape
    without face-adjacency cycles.
    """
    return [{2 * i, 2 * i + 1, 2 * i + 2} for i in range(n_faces)]


@given(
    n_faces=st.integers(1, 5),
    rounds=st.integers(1, 3),
    logical_seed=st.integers(0, 2**16),
    with_layers=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_generated_graphs_satisfy_invariants(
    n_faces, rounds, logical_seed, with_layers
):
    supports = chain_supports(n_faces)
    sites = sorted(set().union(*supports))
    # An arbitrary logical support: any subset keeps the invariants because
    # frame bits are site-derived and chain graphs have no face cycles.
    logical = {s for s in sites if (logical_seed >> s) & 1}
    visit_layers = None
    if with_layers:
        # Shared site 2i+2 gets different layers in faces i and i+1.
        visit_layers = [
            {s: 1 + (s + i) % 4 for s in supports[i]} for i in range(n_faces)
        ]
    graph = build_memory_graph(supports, logical, rounds, visit_layers=visit_layers)
    assert boundary_reachable(graph) == set(range(graph.n_detectors))
    assert frame_potential(graph) is not None


@lru_cache(maxsize=None)
def _memory(basis: str, distance: int = 3) -> MemoryExperiment:
    return MemoryExperiment(distance=distance, basis=basis)


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_schedule_graph_invariants(basis):
    graph = schedule_graph(_memory(basis))
    assert boundary_reachable(graph) == set(range(graph.n_detectors))
    phi = frame_potential(graph)
    assert phi is not None
    # The logical crosses the patch: both boundary frame classes occur, so
    # boundary-to-boundary paths across the patch flip the logical exactly
    # when their endpoint classes differ.
    classes = {
        e.frame ^ phi[e.v if e.u == BOUNDARY else e.u]
        for e in graph.edges
        if BOUNDARY in (e.u, e.v)
    }
    assert classes == {0, 1}


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("noise_name", ["uniform", "near_term"])
def test_dem_graph_invariants_and_schedule_agreement(basis, noise_name):
    exp = _memory(basis)
    if noise_name == "uniform":
        noise = NoiseModel.uniform(1e-3)
    else:
        noise = NoiseModel.preset("near_term")
    dem_graph = exp.matching_graph(noise)
    assert dem_graph is not exp.graph
    assert boundary_reachable(dem_graph) == set(range(dem_graph.n_detectors))
    assert frame_potential(dem_graph) is not None
    # Agreement with the schedule-built cross-check.
    sched_graph = schedule_graph(exp)
    assert dem_graph.n_detectors == sched_graph.n_detectors
    dem_frames = {frozenset((e.u, e.v)): e.frame for e in dem_graph.edges}
    sched_frames = {frozenset((e.u, e.v)): e.frame for e in sched_graph.edges}
    shared = set(dem_frames) & set(sched_frames)
    assert shared, "graphs share no edges at all"
    for pair in shared:
        assert dem_frames[pair] == sched_frames[pair], pair
