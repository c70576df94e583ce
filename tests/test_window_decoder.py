"""Sliding-window decoder: exhaustive equivalence, streaming, and threading.

The windowed decoder's whole claim is that cutting the time axis into
overlapping commit windows changes *memory*, not *answers* (up to rare
boundary effects the Wilson-interval bench gate bounds).  This suite locks
the exact parts down:

* every single-fault syndrome at d=3 decodes to the injected fault's frame
  bit for every (window, commit) in a small grid — the windowed decoder
  keeps the full effective distance;
* ``decode_stream`` over any slice chunking is shot-for-shot identical to
  ``decode_batch`` on the materialized matrix (hypothesis property);
* the chunked frame path of ``MemoryExperiment.run`` is count-identical
  for any chunk size (hypothesis property, shrinking
  ``repro.decode.memory.CHUNK_BYTES``), since chunks are decoded as they
  are sampled;
* window/commit thread from the experiment constructor through
  ``decoder_for`` and the sweep cells.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import schedule_graph
from repro.decode import MemoryExperiment, get_decoder, memory
from repro.decode.graph import BOUNDARY, DetectorEdge, MatchingGraph
from repro.decode.window import WindowedUnionFindDecoder, window_spans
from repro.estimator.sweep import logical_error_sweep
from repro.sim.noise import NoiseModel

WINDOW_GRID = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 5)]


@pytest.fixture(scope="module")
def memory3():
    """One d=3, rounds=6 experiment shared by the whole module."""
    return MemoryExperiment(dx=3, dz=3, rounds=6)


def _single_fault_batch(graph: MatchingGraph):
    """One syndrome row per edge (its endpoint flips) plus the frame truth."""
    syndromes = np.zeros((graph.n_edges, graph.n_detectors), dtype=np.uint8)
    frames = np.zeros(graph.n_edges, dtype=np.uint8)
    for k, e in enumerate(graph.edges):
        for node in (e.u, e.v):
            if node != BOUNDARY:
                syndromes[k, node] ^= 1
        frames[k] = e.frame
    return syndromes, frames


# ------------------------------------------------------------ window spans
def test_window_spans_cover_every_slice_once():
    """Commit regions tile [0, n_slices) exactly: each span starts where
    the previous span's commit region ended, and the final span commits
    through the last slice."""
    for n_slices in range(2, 40):
        for window, commit in WINDOW_GRID:
            spans = window_spans(n_slices, window, commit)
            prev_commit_end = 0
            for s0, s1, commit_end in spans:
                assert s0 == prev_commit_end
                assert s0 < commit_end <= s1 <= n_slices
                prev_commit_end = commit_end
            assert prev_commit_end == n_slices
            assert spans[-1][1] == spans[-1][2] == n_slices


def test_window_spans_validation():
    with pytest.raises(ValueError, match="window"):
        window_spans(10, 1, 1)
    with pytest.raises(ValueError, match="commit"):
        window_spans(10, 4, 0)
    with pytest.raises(ValueError, match="smaller than window"):
        window_spans(10, 4, 4)


def test_degenerate_single_window_is_whole_block():
    spans = window_spans(3, 8, 2)
    assert spans == [(0, 3, 3)]


# ------------------------------------------- exhaustive single-fault grid
@pytest.mark.parametrize("window,commit", WINDOW_GRID)
def test_single_faults_exact_at_d3(memory3, window, commit):
    """Every single mechanism must decode to its own frame bit — the
    windowed decoder corrects weight-1 errors perfectly at every grid
    point, exactly like the whole-block decoder."""
    graph = schedule_graph(memory3)
    syndromes, frames = _single_fault_batch(graph)
    assert len(frames)
    win = WindowedUnionFindDecoder(
        graph, n_faces=len(memory3.faces), window=window, commit=commit
    )
    assert np.array_equal(win.decode_batch(syndromes), frames)


@pytest.mark.parametrize("window,commit", [(3, 1), (4, 2)])
def test_single_faults_exact_on_weighted_dem_graph(memory3, window, commit):
    """Same exhaustive check over the DEM-built weighted graph."""
    model = NoiseModel.uniform(1e-3)
    graph = memory3.matching_graph(model)
    syndromes, frames = _single_fault_batch(graph)
    win = WindowedUnionFindDecoder(
        graph, n_faces=len(memory3.faces), window=window, commit=commit
    )
    assert np.array_equal(win.decode_batch(syndromes), frames)


def test_windowed_matches_whole_block_on_random_batch(memory3):
    """Statistical sanity at moderate noise: the windowed verdicts agree
    with whole-block on the overwhelming majority of shots (they may
    differ on rare boundary-straddling configurations)."""
    model = NoiseModel.uniform(2e-3)
    samples = memory3.sample_frame(3000, noise=model, seed=11)
    whole = memory3.decoder_for(model).decode_batch(samples.detectors)
    win = memory3.decoder_for(model, "union_find_windowed")
    windowed = win.decode_batch(samples.detectors)
    assert (whole == windowed).mean() > 0.98


# ------------------------------------------------------- streaming contract
@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_stream_chunking_is_exact(memory3, data):
    """Feeding the slice stream in any per-slice order/grouping is
    shot-for-shot identical to one decode_batch call."""
    win = memory3.decoder_for(NoiseModel.uniform(1e-3), "union_find_windowed")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_shots = data.draw(st.integers(1, 40))
    syndromes = (rng.random((n_shots, win.n)) < 0.03).astype(np.uint8)
    F = win.n_faces
    slices = (syndromes[:, t * F : (t + 1) * F] for t in range(win.n_slices))
    batch = win.decode_batch(syndromes)
    streamed = win.decode_stream(slices)
    assert np.array_equal(batch, streamed)


def test_stream_rejects_short_and_long_streams(memory3):
    win = memory3.decoder_for(None, "union_find_windowed")
    F = win.n_faces
    short = [np.zeros((2, F), dtype=np.uint8)] * (win.n_slices - 1)
    with pytest.raises(ValueError, match="slice stream"):
        win.decode_stream(iter(short))
    long = [np.zeros((2, F), dtype=np.uint8)] * (win.n_slices + 1)
    with pytest.raises(ValueError, match="slice stream"):
        win.decode_stream(iter(long))


def test_stream_rejects_bad_slice_shapes(memory3):
    win = memory3.decoder_for(None, "union_find_windowed")
    with pytest.raises(ValueError, match="shape"):
        win.decode_stream(iter([np.zeros((2, win.n_faces + 1), dtype=np.uint8)]))


# ----------------------------------------------- chunked frame-path parity
@settings(deadline=None, max_examples=15, suppress_health_check=[HealthCheck.too_slow])
@given(chunk=st.one_of(st.none(), st.integers(1, 400)))
def test_run_frame_chunking_invariant(memory3, chunk):
    """The frame path decodes chunk by chunk: any chunk size must produce
    the unchunked counters exactly."""
    model = NoiseModel.uniform(3e-3)
    baseline = memory3.run(700, noise=model, seed=5, engine="frame")
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(memory, "CHUNK_BYTES", chunk * memory3.n_detectors)
        chunked = memory3.run(700, noise=model, seed=5, engine="frame")
    assert chunked.failures == baseline.failures
    assert chunked.raw_failures == baseline.raw_failures
    assert chunked.mean_defects == baseline.mean_defects


def test_run_frame_windowed_chunking_invariant(memory3, monkeypatch):
    """Same invariance with the windowed decoder doing the chunk decodes."""
    model = NoiseModel.uniform(3e-3)
    kwargs = dict(noise=model, seed=5, engine="frame", decoder="union_find_windowed")
    baseline = memory3.run(600, **kwargs)
    monkeypatch.setattr(memory, "CHUNK_BYTES", 97 * memory3.n_detectors)
    chunked = memory3.run(600, **kwargs)
    assert chunked.failures == baseline.failures
    assert chunked.mean_defects == baseline.mean_defects


# -------------------------------------------------------- layout threading
def test_decoder_for_threads_window_shape():
    exp = MemoryExperiment(
        dx=3, dz=3, rounds=9, decoder="union_find_windowed", window=4, commit=2
    )
    dec = exp.decoder_for(None)
    assert isinstance(dec, WindowedUnionFindDecoder)
    assert (dec.window, dec.commit) == (4, 2)
    # Distinct window shapes over the same core never share an instance.
    other = MemoryExperiment(
        dx=3, dz=3, rounds=9, decoder="union_find_windowed", window=5, commit=2
    )
    assert other.decoder_for(None) is not dec
    assert other.decoder_for(None).window == 5


def test_default_window_shape_is_2d_d():
    exp = MemoryExperiment(dx=3, dz=3, rounds=12, decoder="union_find_windowed")
    dec = exp.decoder_for(None)
    assert (dec.window, dec.commit) == (6, 3)


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(
            lambda: MemoryExperiment(dx=3, dz=3, commit=2),
            "commit without window",
            id="commit-without-window",
        ),
        pytest.param(
            lambda: MemoryExperiment(distance=3, rounds=2, window=4, commit=2),
            "not 'union_find'",
            id="window-with-union-find",
        ),
        pytest.param(
            lambda: MemoryExperiment(distance=3, window=4, decoder="lookup"),
            "not 'lookup'",
            id="window-with-lookup",
        ),
        pytest.param(
            lambda: MemoryExperiment(distance=3, window=3, decoder="union_find_windowed"),
            r"window \(3\) must be larger than the default commit",
            id="window-not-above-default-commit",
        ),
        pytest.param(
            lambda: logical_error_sweep([3], rates=[1e-3], shots=10, rounds=2, window=4),
            "not 'union_find'",
            id="sweep-window-with-default-decoder",
        ),
        pytest.param(
            lambda: MemoryExperiment(distance=3, dx=5),
            "either distance or both dx and dz",
            id="distance-with-dx",
        ),
        pytest.param(
            lambda: MemoryExperiment(distance=3, basis="Y"),
            "basis must be 'Z' or 'X'",
            id="basis-y",
        ),
    ],
)
def test_bad_experiment_axes_rejected(build, match):
    """Inconsistent axes fail with one line instead of being ignored."""
    with pytest.raises(ValueError, match=match) as err:
        build()
    assert "\n" not in str(err.value)


def test_windowed_decoder_validates_layout(memory3):
    with pytest.raises(ValueError, match="time slices"):
        WindowedUnionFindDecoder(
            memory3.graph, n_faces=len(memory3.faces) + 1, window=4, commit=2
        )


def test_interior_windows_share_one_kind():
    exp = MemoryExperiment(dx=3, dz=3, rounds=30)
    dec = exp.decoder_for(NoiseModel.uniform(1e-3), "union_find_windowed")
    # Dozens of spans, but only a handful of structurally distinct windows
    # (first / interior / trailing) — interior windows share one inner
    # decoder, which is what keeps construction O(window) too.
    assert len(dec._spans) > 8
    assert dec.n_window_kinds <= 3
    assert dec.peak_window_detectors < exp.n_detectors


def test_registry_exposes_windowed():
    from repro.decode import available_decoders

    assert "union_find_windowed" in available_decoders()
    graph = MatchingGraph(4, [DetectorEdge(0, 1), DetectorEdge(2, 3)])
    dec = get_decoder("union_find_windowed", graph, n_faces=2, window=2, commit=1)
    assert dec.n_slices == 2
