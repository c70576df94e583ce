"""Decoder registry, batch fast paths, guards, and cross-decoder equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import schedule_graph
from repro.decode import (
    BOUNDARY,
    Decoder,
    DetectorEdge,
    LookupDecoder,
    MatchingGraph,
    MemoryExperiment,
    UnionFindDecoder,
    UnweightedUnionFindDecoder,
    available_decoders,
    build_dem_graph,
    decoder_class,
    get_decoder,
)
from repro.decode import _uf_native
from repro.sim.noise import NoiseModel
from repro.util import native


def syndrome_of(graph: MatchingGraph, edge_indices) -> np.ndarray:
    syn = np.zeros(graph.n_detectors, dtype=np.uint8)
    for k in edge_indices:
        e = graph.edges[k]
        for node in (e.u, e.v):
            if node != BOUNDARY:
                syn[node] ^= 1
    return syn


def build_decoder(name: str, exp: MemoryExperiment) -> Decoder:
    """Instantiate any registry entry over an experiment's schedule graph,
    supplying the detector layout to decoders that want it."""
    graph = schedule_graph(exp)
    if decoder_class(name).wants_layout:
        return get_decoder(name, graph, n_faces=len(exp.faces), window=4, commit=2)
    return get_decoder(name, graph)


@pytest.fixture(scope="module")
def exp3() -> MemoryExperiment:
    return MemoryExperiment(distance=3, basis="Z")


class TestRegistry:
    def test_builtin_decoders_registered(self):
        names = available_decoders()
        assert {
            "union_find",
            "union_find_unweighted",
            "union_find_windowed",
            "lookup",
        } <= set(names)

    def test_get_decoder_returns_protocol_instances(self, exp3):
        for name, cls in [
            ("union_find", UnionFindDecoder),
            ("union_find_unweighted", UnweightedUnionFindDecoder),
            ("lookup", LookupDecoder),
        ]:
            dec = get_decoder(name, exp3.graph)
            assert isinstance(dec, cls) and isinstance(dec, Decoder)
            assert dec.name == name
            assert dec.graph is exp3.graph

    def test_unknown_decoder_rejected_with_choices(self, exp3):
        with pytest.raises(ValueError, match="unknown decoder.*union_find"):
            get_decoder("mwpm", exp3.graph)

    def test_lookup_refuses_large_graphs(self):
        exp5 = MemoryExperiment(distance=5, basis="Z")
        with pytest.raises(ValueError, match="lookup.*limit"):
            get_decoder("lookup", exp5.graph)

    def test_decode_and_decode_batch_agree(self, exp3):
        rng = np.random.default_rng(5)
        syndromes = (rng.random((32, exp3.n_detectors)) < 0.08).astype(np.uint8)
        for name in available_decoders():
            dec = build_decoder(name, exp3)
            batch = dec.decode_batch(syndromes)
            single = np.array([dec.decode(s) for s in syndromes])
            assert np.array_equal(batch, single), name


class TestBatchFastPaths:
    """Satellite regressions: empty batches and all-zero syndromes."""

    @pytest.mark.parametrize(
        "name", ["union_find", "union_find_unweighted", "union_find_windowed", "lookup"]
    )
    def test_empty_batch_returns_well_shaped_uint8(self, exp3, name):
        dec = build_decoder(name, exp3)
        out = dec.decode_batch(np.zeros((0, exp3.n_detectors), dtype=np.uint8))
        assert out.shape == (0,)
        assert out.dtype == np.uint8

    @pytest.mark.parametrize(
        "name", ["union_find", "union_find_unweighted", "union_find_windowed", "lookup"]
    )
    def test_all_zero_syndromes_decode_trivially(self, exp3, name):
        dec = build_decoder(name, exp3)
        out = dec.decode_batch(np.zeros((7, exp3.n_detectors), dtype=np.uint8))
        assert out.shape == (7,)
        assert out.dtype == np.uint8
        assert not out.any()
        assert dec.decode(np.zeros(exp3.n_detectors, dtype=np.uint8)) == 0

    def test_shape_validation(self, exp3):
        for name in available_decoders():
            dec = build_decoder(name, exp3)
            with pytest.raises(ValueError, match="does not match"):
                dec.decode(np.zeros(exp3.n_detectors + 1, dtype=np.uint8))
            with pytest.raises(ValueError, match="does not match"):
                dec.decode_batch(np.zeros((4, exp3.n_detectors + 1), dtype=np.uint8))

    @pytest.mark.parametrize(
        "name", ["union_find", "union_find_unweighted", "union_find_windowed", "lookup"]
    )
    def test_entries_outside_zero_one_rejected(self, exp3, name):
        """A 2 counted as two defects where rows are summed but one where
        nonzeros are found, and an int -1 silently became 255."""
        dec = build_decoder(name, exp3)
        for bad in (np.uint8(2), np.int64(2), np.int64(-1)):
            syndromes = np.zeros((3, exp3.n_detectors), dtype=bad.dtype)
            syndromes[1, 4] = bad
            with pytest.raises(ValueError, match="must be 0 or 1"):
                dec.decode_batch(syndromes)
            with pytest.raises(ValueError, match="must be 0 or 1"):
                dec.decode(syndromes[1])

    @pytest.mark.parametrize(
        "name", ["union_find", "union_find_unweighted", "union_find_windowed", "lookup"]
    )
    def test_bool_batches_accepted(self, exp3, name):
        dec = build_decoder(name, exp3)
        syndromes = np.random.default_rng(8).random((16, exp3.n_detectors)) < 0.08
        expected = dec.decode_batch(syndromes.astype(np.uint8))
        assert np.array_equal(dec.decode_batch(syndromes), expected)


class TestDetectorCountGuard:
    """Satellite: a decoder built for the wrong layout must be rejected loudly."""

    def test_mismatched_decoder_graph_raises(self, exp3):
        wrong = MatchingGraph(3, [DetectorEdge(0, 1), DetectorEdge(2, BOUNDARY)])
        exp3._decoders[("ideal", "union_find")] = get_decoder("union_find", wrong)
        try:
            with pytest.raises(ValueError, match="different detector layout"):
                exp3.decoder_for(None, "union_find")
        finally:
            exp3._decoders.pop(("ideal", "union_find"), None)

    def test_matching_decoder_graph_accepted(self, exp3):
        dec = exp3.decoder_for(None, "union_find")
        assert dec.graph.n_detectors == exp3.n_detectors

    def test_rejected_decoder_is_not_cached(self):
        """Satellite regression: the guard must run *before* the cache
        insert.  A mismatched DEM graph used to leave the rejected decoder
        in ``_decoders`` permanently — every later call with the same key
        then failed even after the bad graph was gone."""
        exp = MemoryExperiment(distance=3, basis="Z")
        model = NoiseModel.uniform(1e-3)
        key = exp._params_key(model)
        wrong = MatchingGraph(3, [DetectorEdge(0, 1), DetectorEdge(2, BOUNDARY)])
        exp._dem_graphs[key] = wrong
        try:
            with pytest.raises(ValueError, match="different detector layout"):
                exp.decoder_for(model, "union_find")
            # The rejected decoder must not have polluted the cache ...
            assert not any(k[0] == key for k in exp._decoders)
            # ... so fixing the graph heals the experiment in place.
            del exp._dem_graphs[key]
            dec = exp.decoder_for(model, "union_find")
            assert dec.graph.n_detectors == exp.n_detectors
        finally:
            exp._dem_graphs.pop(key, None)


class TestNoiselessPath:
    """Without noise, decoding runs over the ideal model's DEM graph."""

    @pytest.mark.parametrize("simd", [False, True])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_graph_is_the_ideal_dem_graph(self, basis, simd):
        exp = MemoryExperiment(distance=3, basis=basis, simd=simd)
        ideal = NoiseModel.preset("ideal")
        dem_graph = build_dem_graph(exp.detector_error_model(ideal))
        assert exp.graph.n_detectors == dem_graph.n_detectors == exp.n_detectors
        assert exp.graph.edges == dem_graph.edges == []
        assert exp.matching_graph(None) is exp.matching_graph(ideal) is exp.graph

    @pytest.mark.parametrize("engine", ["frame", "tableau"])
    @pytest.mark.parametrize("name", available_decoders())
    def test_noiseless_runs_never_fail(self, exp3, engine, name):
        report = exp3.run(40, noise=None, seed=4, engine=engine, decoder=name)
        assert report.failures == report.raw_failures == 0
        assert report.mean_defects == 0.0
        assert report.decoder == name

    @pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(
                "native",
                marks=pytest.mark.skipif(
                    native.find_compiler() is None, reason="no C compiler on PATH"
                ),
            ),
            "python",
        ],
    )
    @pytest.mark.parametrize("name", available_decoders())
    def test_edgeless_graph_decodes_zeros_and_rejects_defects(self, monkeypatch, kernel, name):
        if kernel == "python":
            monkeypatch.setitem(native._loaded, _uf_native.SOURCE, (None, "forced by the test"))
        exp = MemoryExperiment(distance=3)  # a fresh instance builds its own decoders
        dec = exp.decoder_for(None, name)
        if isinstance(dec, UnionFindDecoder):
            assert dec.kernel == kernel
        zeros = np.zeros((5, exp.n_detectors), dtype=np.uint8)
        assert not dec.decode_batch(zeros).any()
        assert dec.decode(zeros[0]) == 0
        syndromes = zeros.copy()
        syndromes[2, 7] = 1
        for call in (lambda: dec.decode_batch(syndromes), lambda: dec.decode(syndromes[2])):
            with pytest.raises(RuntimeError) as err:
                call()
            assert "\n" not in str(err.value)


class TestFrameSamplerCache:
    """Satellite regression: one FrameSampler per noise-parameter key."""

    def test_sample_frame_reuses_sampler(self):
        exp = MemoryExperiment(distance=3, basis="Z")
        model = NoiseModel.uniform(1.7e-3)  # unique rate: cold cache entry
        assert exp._params_key(model) not in exp._core.frame_samplers
        first = exp.frame_sampler(model)
        assert exp.frame_sampler(model) is first
        exp.sample_frame(8, noise=model, seed=0)
        assert exp._core.frame_samplers[exp._params_key(model)] is first
        # A second instance over the same core shares the cached sampler.
        assert MemoryExperiment(distance=3, basis="Z").frame_sampler(model) is first

    def test_sampler_cache_is_per_params(self):
        exp = MemoryExperiment(distance=3, basis="Z")
        a = exp.frame_sampler(NoiseModel.uniform(1.9e-3))
        b = exp.frame_sampler(NoiseModel.uniform(2.1e-3))
        assert a is not b

    def test_cached_sampler_results_unchanged(self):
        """Caching must not perturb the per-shot streams."""
        exp = MemoryExperiment(distance=3, basis="Z")
        model = NoiseModel.uniform(2.3e-3)
        x = exp.sample_frame(50, noise=model, seed=3)
        y = exp.sample_frame(50, noise=model, seed=3)
        assert np.array_equal(x.detectors, y.detectors)
        assert np.array_equal(x.observables, y.observables)


class TestSingleFaultEquivalence:
    """Every decoder corrects every single edge fault, on both graph builds."""

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("name", ["union_find", "union_find_unweighted", "lookup"])
    def test_schedule_graph_single_faults(self, basis, name):
        graph = schedule_graph(MemoryExperiment(distance=3, basis=basis))
        dec = get_decoder(name, graph)
        assert graph.n_edges
        for k in range(graph.n_edges):
            syn = syndrome_of(graph, [k])
            assert dec.decode(syn) == graph.edges[k].frame, graph.edges[k]

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("name", ["union_find", "union_find_unweighted", "lookup"])
    def test_dem_graph_single_faults(self, basis, name):
        exp = MemoryExperiment(distance=3, basis=basis)
        graph = exp.matching_graph(NoiseModel.uniform(1e-3))
        assert graph is not exp.graph and graph.is_weighted
        dec = get_decoder(name, graph)
        for k in range(graph.n_edges):
            syn = syndrome_of(graph, [k])
            assert dec.decode(syn) == graph.edges[k].frame, graph.edges[k]

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["union_find", "union_find_unweighted"])
    def test_dem_graph_single_faults_d5(self, name):
        exp = MemoryExperiment(distance=5, basis="Z")
        graph = exp.matching_graph(NoiseModel.uniform(1e-3))
        dec = get_decoder(name, graph)
        for k in range(graph.n_edges):
            syn = syndrome_of(graph, [k])
            assert dec.decode(syn) == graph.edges[k].frame, graph.edges[k]


class TestLookupOracle:
    """The exact table decoder anchors the union-find heuristics at d=3."""

    def test_lookup_ler_not_worse_than_union_find(self, exp3):
        noise = NoiseModel.uniform(1e-3)
        samples = exp3.sample_frame(20000, noise=noise, seed=11)
        raw = samples.observables[:, 0]
        graph = exp3.matching_graph(noise)
        fails = {}
        for name in ("lookup", "union_find"):
            pred = get_decoder(name, graph).decode_batch(samples.detectors)
            fails[name] = int((raw ^ pred).sum())
        # Exact minimum-weight decoding can only beat (or tie) the heuristic.
        assert fails["lookup"] <= fails["union_find"]

    def test_union_find_agrees_with_oracle_on_dense_syndromes(self, exp3):
        graph = exp3.matching_graph(NoiseModel.uniform(1e-3))
        oracle = get_decoder("lookup", graph)
        uf = get_decoder("union_find", graph)
        rng = np.random.default_rng(3)
        syn = (rng.random((2000, exp3.n_detectors)) < 0.08).astype(np.uint8)
        agreement = float((oracle.decode_batch(syn) == uf.decode_batch(syn)).mean())
        assert agreement > 0.97


class TestWeightedNotWorse:
    """Acceptance: weighted LER <= unweighted at every standard sweep point."""

    @pytest.mark.parametrize("distance", [3, 5])
    def test_weighted_ler_not_worse(self, distance):
        exp = MemoryExperiment(distance=distance, basis="Z")
        models = [
            NoiseModel.uniform(3e-4),
            NoiseModel.uniform(1e-3),
            NoiseModel.uniform(5e-3),
            NoiseModel.preset("near_term"),
        ]
        for noise in models:
            samples = exp.sample_frame(20000, noise=noise, seed=7)
            raw = samples.observables[:, 0]
            fails = {}
            for name in ("union_find", "union_find_unweighted"):
                pred = exp.decoder_for(noise, name).decode_batch(samples.detectors)
                fails[name] = int((raw ^ pred).sum())
            assert fails["union_find"] <= fails["union_find_unweighted"], (
                distance,
                noise.name,
                fails,
            )


class TestDemGraph:
    def test_rejects_hyperedges(self):
        from repro.sim.dem import DetectorErrorModel

        dem = DetectorErrorModel(
            n_detectors=4,
            n_observables=1,
            probs=np.array([1e-3]),
            detectors=[(0, 1, 2)],
            observables=np.array([0], dtype=np.uint64),
        )
        with pytest.raises(ValueError, match="at most two"):
            build_dem_graph(dem)

    def test_rejects_bad_observable_index(self, exp3):
        dem = exp3.detector_error_model(NoiseModel.uniform(1e-3))
        with pytest.raises(ValueError, match="out of range"):
            build_dem_graph(dem, observable=3)

    def test_parallel_mechanisms_merge(self):
        from repro.sim.dem import DetectorErrorModel

        dem = DetectorErrorModel(
            n_detectors=2,
            n_observables=1,
            probs=np.array([1e-3, 2e-3, 5e-4]),
            detectors=[(0, 1), (0, 1), (0,)],
            observables=np.array([0, 1, 0], dtype=np.uint64),
        )
        graph = build_dem_graph(dem)
        assert graph.n_edges == 2
        pair = next(e for e in graph.edges if e.v != BOUNDARY)
        # XOR-combined probability, frame bit of the strongest contributor.
        p = 1e-3 * (1 - 2e-3) + 2e-3 * (1 - 1e-3)
        assert pair.frame == 1
        assert pair.weight == pytest.approx(np.log((1 - p) / p))

    def test_run_uses_weighted_decoder_and_reports_it(self, exp3):
        noise = NoiseModel.uniform(1e-3)
        report = exp3.run(200, noise=noise, engine="frame")
        assert report.decoder == "union_find"
        assert "decoder" in report.to_dict()
        report_u = exp3.run(
            200, noise=noise, engine="frame", decoder="union_find_unweighted"
        )
        assert report_u.decoder == "union_find_unweighted"

    def test_dem_graph_cached_per_parameter_set(self, exp3):
        a = exp3.matching_graph(NoiseModel.uniform(1e-3))
        b = exp3.matching_graph(NoiseModel.uniform(1e-3))
        c = exp3.matching_graph(NoiseModel.uniform(2e-3))
        assert a is b
        assert c is not a
