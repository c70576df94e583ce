"""Decoder set-up in columns: the DEM graph and the union-find tables.

``build_dem_graph`` groups, folds and weighs mechanisms in NumPy, and
``UnionFindDecoder`` builds its endpoint, capacity and CSR tables with array
ops.  Both must equal the loops they replaced (``oracles.build_dem_graph``
and ``oracles.union_find_tables``) bit for bit: edge order, endpoints,
frames and weight bits; every table entry; every error message.

The literal pins at the end were recorded before the columnar rewrite, so a
later change to this layer cannot drift the counters or the graph silently.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.decode import BOUNDARY, DetectorEdge, MatchingGraph, MemoryExperiment
from repro.decode.graph import build_dem_graph
from repro.decode.union_find import UnionFindDecoder
from repro.estimator.sweep import logical_error_sweep
from repro.sim.dem import DetectorErrorModel, build_dem
from repro.sim.noise import NoiseModel

#: Probabilities drawn from a small pool, so repeated pairs tie on their
#: strongest contributor; zero and negative ones must be skipped.
PROBABILITIES = [-0.2, -0.0, 0.0, 1e-13, 1e-4, 1e-3, 1e-3, 0.01, 0.2, 0.49, 0.5, 0.7, 1.0]


def make_dem(n_detectors, n_observables, mechanisms) -> DetectorErrorModel:
    """A DEM from ``(probability, detectors, observable mask)`` triples, in order."""
    return DetectorErrorModel(
        n_detectors=n_detectors,
        n_observables=n_observables,
        probs=np.array([p for p, _, _ in mechanisms], dtype=np.float64),
        detectors=[dets for _, dets, _ in mechanisms],
        observables=np.array([mask for _, _, mask in mechanisms], dtype=np.uint64),
    )


@st.composite
def random_dems(draw):
    """Small DEMs in any mechanism order: repeated and reversed pairs, tied
    and non-positive probabilities, empty footprints, and hyperedges that
    carry no probability (so they are skipped)."""
    n = draw(st.integers(1, 6))
    n_observables = draw(st.integers(1, 3))
    probability = st.one_of(
        st.sampled_from(PROBABILITIES), st.floats(1e-6, 1.0, allow_subnormal=False)
    )
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
    shapes = ["boundary", "empty", "hyper"] + ["pair", "pair"] * (n > 1)
    mechanisms = []
    for _ in range(draw(st.integers(0, 30))):
        shape = draw(st.sampled_from(shapes))
        p = draw(probability)
        if shape == "boundary":
            dets = (draw(st.integers(0, n - 1)),)
        elif shape == "pair":
            dets = draw(pair)
        elif shape == "empty":
            dets = ()
        else:
            dets = tuple(sorted(draw(st.sets(st.integers(0, 9), min_size=3, max_size=4))))
            p = draw(st.sampled_from([0.0, -0.0, -0.1]))
        mask = draw(st.integers(0, 2**n_observables - 1))
        mechanisms.append((p, dets, mask))
    observable = draw(st.integers(0, n_observables - 1))
    return make_dem(n, n_observables, mechanisms), observable


def columns_of(graph: MatchingGraph) -> tuple:
    """Edge order, endpoints, frames and weight bits, from the edge objects."""
    edges = graph.edges
    return (
        graph.n_detectors,
        [e.u for e in edges],
        [e.v for e in edges],
        [e.frame for e in edges],
        [e.kind for e in edges],
        np.array([e.weight for e in edges], dtype=np.float64).tobytes(),
    )


def assert_same_graph(fast: MatchingGraph, slow: MatchingGraph) -> None:
    """The columns hold the oracle's edges, and the lazily built edges match too."""
    n_detectors, u, v, frame, _, weight = columns_of(slow)
    assert fast.n_detectors == n_detectors
    assert (fast.u.tolist(), fast.v.tolist(), fast.frame.tolist()) == (u, v, frame)
    assert fast.weight.tobytes() == weight
    assert columns_of(fast) == columns_of(slow)


def outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------- the DEM graph
@settings(max_examples=200, deadline=None)
@given(case=random_dems())
def test_random_dems_build_the_oracle_graph(case):
    dem, observable = case
    assert_same_graph(build_dem_graph(dem, observable), oracles.build_dem_graph(dem, observable))


@settings(max_examples=150, deadline=None)
@given(case=random_dems(), extra=st.data())
def test_random_dems_fail_like_the_oracle(case, extra):
    """Hyperedges that carry probability, self-loops and out-of-range
    detectors, inserted anywhere: the same error, or the same graph."""
    dem, observable = case
    n = dem.n_detectors
    bad = extra.draw(
        st.sampled_from([(0, 1, 2), (1, 3, 4, 5), (0, 0), (n,), (n - 1, n + 2), (-1,)])
    )
    p = extra.draw(st.sampled_from([1e-3, 0.0, 0.2]))
    at = extra.draw(st.integers(0, dem.n_mechanisms))
    probs = np.insert(dem.probs, at, p)
    detectors = dem.detectors[:at] + [bad] + dem.detectors[at:]
    masks = np.insert(dem.observables, at, np.uint64(1))
    broken = DetectorErrorModel(n, dem.n_observables, probs, detectors, masks)
    fast = outcome(lambda: columns_of(build_dem_graph(broken, observable)))
    slow = outcome(lambda: columns_of(oracles.build_dem_graph(broken, observable)))
    assert fast == slow


def test_hyperedge_error_names_the_first_live_mechanism():
    dem = make_dem(
        6,
        1,
        [
            (0.01, (0,), 0),
            (0.0, (1, 2, 3), 0),  # skipped: no probability
            (-0.5, (0, 1, 2, 3), 1),  # skipped
            (0.02, (2, 3, 4), 1),  # the first one that counts
            (0.03, (1, 4, 5), 0),
        ],
    )
    message = (
        "mechanism fires 3 detectors (2, 3, 4); a matching graph needs at most "
        "two — decompose hyperedges first"
    )
    for build in (build_dem_graph, oracles.build_dem_graph):
        with pytest.raises(ValueError) as err:
            build(dem)
        assert str(err.value) == message
    # Without the live hyperedges the same DEM builds, skipping the others.
    ok = make_dem(6, 1, [(0.01, (0,), 0), (0.0, (1, 2, 3), 0), (-0.5, (0, 1, 2, 3), 1)])
    graph = build_dem_graph(ok)
    assert (graph.u.tolist(), graph.v.tolist()) == ([0], [BOUNDARY])
    assert_same_graph(graph, oracles.build_dem_graph(ok))


def test_self_loop_and_observable_errors_keep_their_messages():
    loop = make_dem(3, 1, [(0.01, (0, 1), 0), (0.01, (2, 2), 1)])
    weight = float(build_dem_graph(make_dem(3, 1, [(0.01, (2,), 1)])).weight[0])
    expected = f"self-loop edge {DetectorEdge(2, 2, 1, 'dem', weight)}"
    for build in (build_dem_graph, oracles.build_dem_graph):
        with pytest.raises(ValueError) as err:
            build(loop)
        assert str(err.value) == expected
        with pytest.raises(ValueError) as err:
            build(loop, observable=1)
        assert str(err.value) == "observable 1 out of range for 1 observables"


def test_empty_and_undetectable_dems_give_edgeless_graphs():
    for mechanisms in ([], [(0.1, (), 1), (0.0, (0,), 0), (-1.0, (0, 1), 1)]):
        dem = make_dem(2, 1, mechanisms)
        graph = build_dem_graph(dem)
        assert graph.n_edges == 0 and graph.edges == []
        assert graph.u.dtype == np.int64 and graph.weight.dtype == np.float64
        assert_same_graph(graph, oracles.build_dem_graph(dem))
        assert UnionFindDecoder(graph).decode_batch(np.zeros((3, 2), np.uint8)).tolist() == [0] * 3


def test_edge_list_and_columns_validate_alike():
    """``MatchingGraph(n, edges)`` and ``from_columns`` reject the same first
    edge with the same message, naming it as a ``DetectorEdge``."""
    cases = [
        [DetectorEdge(0, 1), DetectorEdge(0, 5)],
        [DetectorEdge(0, 1, 1, "dem", 2.0), DetectorEdge(1, 1, 0, "dem", 2.0)],
        [DetectorEdge(0, BOUNDARY, 0, "dem", 0.0), DetectorEdge(1, 1)],
        [DetectorEdge(BOUNDARY, BOUNDARY, 0, "dem")],
        [DetectorEdge(-3, 1, 0, "dem", -1.0)],
        [DetectorEdge(0, 1, 1, "dem", float("nan"))],
    ]
    for edges in cases:
        with pytest.raises(ValueError) as from_edges:
            MatchingGraph(2, edges)
        with pytest.raises(ValueError) as from_columns:
            MatchingGraph.from_columns(
                2,
                [e.u for e in edges],
                [e.v for e in edges],
                [e.frame for e in edges],
                [e.weight for e in edges],
                [e.kind for e in edges],
            )
        assert str(from_edges.value) == str(from_columns.value)
    with pytest.raises(ValueError, match="need at least one detector"):
        MatchingGraph.from_columns(0, [], [], [], [])
    with pytest.raises(ValueError, match="unknown detector 5"):
        MatchingGraph(2, [DetectorEdge(0, 5)])


def test_columns_are_read_only_and_edges_built_once():
    graph = build_dem_graph(make_dem(3, 1, [(0.01, (0, 1), 1), (0.02, (2,), 0)]))
    for column in (graph.u, graph.v, graph.frame, graph.weight):
        with pytest.raises(ValueError):
            column[0] = column[0]
    assert graph.edges is graph.edges
    assert [e.kind for e in graph.edges] == ["dem", "dem"]


def test_subgraph_keeps_frames_weights_and_kinds():
    graph = MatchingGraph(
        6,
        [
            DetectorEdge(0, 1, 1, "space", 1.5),
            DetectorEdge(3, BOUNDARY, 0, "time", 2.0),
            DetectorEdge(4, 5, 1, "diagonal", 3.0),
        ],
    )
    local = graph.subgraph(np.array([1, 2]), 3, offset=3)
    assert local.edges == [
        DetectorEdge(0, BOUNDARY, 0, "time", 2.0),
        DetectorEdge(1, 2, 1, "diagonal", 3.0),
    ]


# ------------------------------------------------------------- DEM shapes
@functools.cache
def memory_dem(distance: int, rounds: int, simd: bool) -> DetectorErrorModel:
    exp = MemoryExperiment(distance=distance, rounds=rounds, simd=simd)
    return exp.detector_error_model(NoiseModel.preset("near_term"))


#: ``lfr_canonical`` (d=7, rounds=21) and ``lfr_long_simd`` (d=7, rounds=70,
#: SIMD) shaped cells, plus the small memories the kernel tests use.
DEM_SHAPES = [(3, 3, False), (5, 5, False), (7, 21, False), (7, 70, True)]


@pytest.mark.parametrize("shape", DEM_SHAPES, ids=lambda s: "d{}r{}{}".format(*s))
def test_memory_dems_build_the_oracle_graph_and_tables(shape):
    dem = memory_dem(*shape)
    graph = build_dem_graph(dem)
    assert graph.n_edges > 0 and graph.is_weighted
    assert_same_graph(graph, oracles.build_dem_graph(dem))
    for weighted in (True, False):
        assert_same_tables(UnionFindDecoder(graph, weighted=weighted), graph, weighted)


@pytest.mark.parametrize("shape", [(5, 5, False), (7, 21, False)], ids=["d5r5", "d7r21"])
def test_fold_sorts_wide_mechanism_ids_like_the_loop(shape):
    """Tables with more than 256 mechanism keys sort on 16-bit ids; the DEM
    still equals the per-site loop's, bit for bit."""
    distance, rounds, simd = shape
    noise = NoiseModel.preset("near_term")
    table = MemoryExperiment(distance=distance, rounds=rounds, simd=simd).fault_table(noise)
    assert 256 < len(table.key_detectors) <= 65536
    fast = build_dem(table, noise.params)
    slow = oracles.build_dem(table, noise.params)
    assert fast.probs.tobytes() == slow.probs.tobytes()
    assert fast.detectors == slow.detectors
    assert np.array_equal(fast.observables, slow.observables)


# --------------------------------------------------------- union-find tables
def assert_same_tables(decoder: UnionFindDecoder, graph: MatchingGraph, weighted: bool) -> None:
    expected = oracles.union_find_tables(graph, weighted=weighted)
    got = {
        "eu": decoder.eu,
        "ev": decoder.ev,
        "frame": decoder.frame,
        "cap": decoder.cap,
        "indptr": decoder.indptr,
        "adj_edge": decoder.adj_edge,
        "single_verdict": decoder._single_verdict,
        "single_reachable": decoder._single_reachable,
    }
    for name, table in expected.items():
        assert got[name].dtype == table.dtype, name
        assert np.array_equal(got[name], table), name


@st.composite
def random_graphs(draw):
    """Random graphs with boundary, parallel and reversed edges, tied or unit
    weights, and detectors no edge reaches."""
    n = draw(st.integers(1, 9))
    edges = []
    for _ in range(draw(st.integers(0, 3 * n))):
        u = draw(st.integers(-1, n - 1))
        v = draw(st.integers(-1, n - 1).filter(lambda x: x != u))
        weight = draw(st.sampled_from([1.0, 1.0, 2.0, 2.5, 6.0, 0.3]))
        edges.append(DetectorEdge(u, v, draw(st.integers(0, 1)), "dem", weight))
    return MatchingGraph(n, edges)


@settings(max_examples=200, deadline=None)
@given(graph=random_graphs(), weighted=st.booleans())
def test_random_graphs_build_the_oracle_tables(graph, weighted):
    assert_same_tables(UnionFindDecoder(graph, weighted=weighted), graph, weighted)


# ------------------------------------------------------------ literal pins
@pytest.mark.parametrize(
    "distance, rounds, simd, expected",
    [
        (5, 15, True, (36, 1355, "7.3756")),
        (7, 21, False, (10, 1996, "21.4652")),
    ],
    ids=["d5r15-simd", "d7r21"],
)
def test_pinned_counters(distance, rounds, simd, expected):
    """Same-seed near-term counters, recorded before the columnar rewrite."""
    (report,) = logical_error_sweep(
        [distance],
        noise_models=["near_term"],
        rounds=rounds,
        shots=5000,
        seed=1,
        engine="frame",
        simd=simd,
    )
    assert (report.failures, report.raw_failures, repr(report.mean_defects)) == expected


def test_pinned_graph_columns():
    """sha256 over the u, v, frame and weight column bytes, in that order, of
    the d=7, rounds=21 near-term graph, recorded before the columnar rewrite."""
    graph = MemoryExperiment(distance=7, rounds=21).matching_graph(NoiseModel.preset("near_term"))
    digest = hashlib.sha256()
    for column in (graph.u, graph.v, graph.frame, graph.weight):
        digest.update(column.tobytes())
    assert (graph.n_detectors, graph.n_edges) == (528, 2563)
    assert digest.hexdigest() == "27812cd002285b3d1e933383bbf2d926413b10cae99cb6d708f5c23c941b4fee"
