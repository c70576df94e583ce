"""Native union-find kernel: bit-identity with the Python kernel; both kernels' builds.

The C kernel (``repro/decode/_uf_kernel.c``) must reproduce the Python
grow-and-peel loop exactly (verdicts, correction edge lists and error
messages), because the windowed decoder and every recorded logical error
rate depend on its tie-breaking.  The Python kernel is forced by making the
loader report a failure, so each comparison runs the same decoder class over
the same graph under both kernels.

All six native kernels, the union-find decoder's, the frame sampler's
(``repro/sim/_frame_kernel.c``), the DEM walk's (``repro/sim/_dem_kernel.c``),
the SIMD scheduler's (``repro/hardware/_simd_kernel.c``), the validity
replay's (``repro/hardware/_validity_kernel.c``) and the round scheduler's
(``repro/code/_round_kernel.c``), build through :mod:`repro.util.native`;
the build-path tests at the end run once per kernel.
"""

from __future__ import annotations

import contextlib
import functools
import os
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.code import _round_native
from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.decode import (
    BOUNDARY,
    DetectorEdge,
    MatchingGraph,
    MemoryExperiment,
    UnionFindDecoder,
    WindowedUnionFindDecoder,
    _uf_native,
)
from repro.hardware import _simd_native, _validity_native
from repro.hardware.simd import simd_schedule
from repro.hardware.validity import ValidityReport, check_circuit
from repro.sim import _dem_native, frame
from repro.sim.dem import FaultTable, extract_fault_table
from repro.sim.frame import FrameSampler
from repro.sim.noise import NoiseModel
from repro.util import native

SRC = Path(_uf_native.__file__).resolve().parents[2]
STALLED = "union-find growth stalled: defects cannot reach each other or the boundary"
LONE = "lone defect on a detector with no path to the boundary"

needs_compiler = pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")


@contextlib.contextmanager
def python_kernel():
    """Decoders built inside this block run the Python kernel, the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, _uf_native.SOURCE, (None, "forced by the test"))
        yield


def python_decoder(graph: MatchingGraph, **kwargs) -> UnionFindDecoder:
    with python_kernel():
        decoder = UnionFindDecoder(graph, **kwargs)
    assert decoder.kernel == "python"
    return decoder


def native_decoder(graph: MatchingGraph, **kwargs) -> UnionFindDecoder:
    decoder = UnionFindDecoder(graph, **kwargs)
    assert decoder.kernel == "native", decoder.fallback_reason
    return decoder


def outcome(call):
    """A call's result, or its RuntimeError message: the kernels must agree on either."""
    try:
        return call()
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


def assert_same(fast, oracle, call) -> None:
    assert outcome(lambda: call(fast)) == outcome(lambda: call(oracle))


def fresh_interpreter(code: str) -> subprocess.Popen:
    """``code`` running in a new interpreter on this checkout."""
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.fixture(scope="module")
def native_kernel():
    """Skips a comparison where no native kernel can be built here."""
    lib, reason = native.load(_uf_native.SOURCE, _uf_native._declare)
    if lib is None:
        pytest.skip(reason)


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """A fresh cache directory, and no kernel loaded yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", {})
    return tmp_path


# ------------------------------------------------------------ bit identity
@st.composite
def graphs_with_syndromes(draw):
    """Small random graphs with boundary and parallel edges, tied or unit
    weights, and dense syndromes; some leave defects unmatchable."""
    n = draw(st.integers(1, 9))
    unit = draw(st.booleans())
    edges = []
    for _ in range(draw(st.integers(0, 3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(-1, n - 2))
        v = BOUNDARY if v < 0 else (v + 1 if v >= u else v)
        weight = 1.0 if unit else draw(st.sampled_from([1.0, 2.0, 2.5, 6.0]))
        edges.append(DetectorEdge(u, v, draw(st.integers(0, 1)), "dem", weight))
    density = draw(st.sampled_from([0.15, 0.4, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return MatchingGraph(n, edges), (rng.random((10, n)) < density).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(case=graphs_with_syndromes(), weighted=st.booleans())
def test_random_graphs_decode_identically(native_kernel, case, weighted):
    graph, syndromes = case
    fast = native_decoder(graph, weighted=weighted)
    oracle = python_decoder(graph, weighted=weighted)
    assert_same(fast, oracle, lambda d: d.decode_batch(syndromes).tolist())
    for row in syndromes:
        defects = np.nonzero(row)[0]
        assert_same(fast, oracle, lambda d: d.decode_batch(row[np.newaxis]).tolist())
        assert_same(fast, oracle, lambda d: d.decode_edges(defects))


@pytest.mark.parametrize("distance", [3, 5, 7])
def test_near_term_dem_graphs_decode_identically(native_kernel, distance):
    noise = NoiseModel.preset("near_term")
    exp = MemoryExperiment(distance=distance)
    graph = exp.matching_graph(noise)
    sampled = exp.sample_frame(1000, noise=noise, seed=distance).detectors
    # Dense rows make the orderings matter: at d=7 about 1 row in 200 tells
    # a flipped merge tie rule apart, by edge order alone.
    rng = np.random.default_rng(distance)
    dense = (rng.random((1000, graph.n_detectors)) < 0.1).astype(np.uint8)
    fast, oracle = native_decoder(graph), python_decoder(graph)
    for syndromes in (sampled, dense):
        assert np.array_equal(fast.decode_batch(syndromes), oracle.decode_batch(syndromes))
    for row in np.concatenate([sampled[:200], dense]):
        defects = np.nonzero(row)[0]
        assert fast.decode_edges(defects) == oracle.decode_edges(defects)


def test_windowed_verdicts_identical_under_both_kernels(native_kernel):
    noise = NoiseModel.uniform(3e-3)
    exp = MemoryExperiment(distance=3, rounds=12)
    graph = exp.matching_graph(noise)
    layout = dict(n_faces=len(exp.faces), window=6, commit=3)
    fast = WindowedUnionFindDecoder(graph, **layout)
    with python_kernel():
        oracle = WindowedUnionFindDecoder(graph, **layout)
    assert {kind.decoder.kernel for kind in fast._span_kinds} == {"native"}
    assert {kind.decoder.kernel for kind in oracle._span_kinds} == {"python"}
    syndromes = exp.sample_frame(2000, noise=noise, seed=4).detectors
    assert np.array_equal(fast.decode_batch(syndromes), oracle.decode_batch(syndromes))


def test_error_paths_raise_the_same_messages(native_kernel):
    lone = MatchingGraph(2, [DetectorEdge(0, 1)])  # no path to the boundary
    split = MatchingGraph(4, [DetectorEdge(0, 1), DetectorEdge(2, 3)])
    cases = [
        (lone, [[1, 0]], LONE),
        (split, [[1, 0, 1, 0]], STALLED),
        # Every lone defect is checked before any growth runs.
        (split, [[1, 0, 1, 0], [0, 0, 1, 0]], LONE),
    ]
    for graph, rows, message in cases:
        for decoder in (native_decoder(graph), python_decoder(graph)):
            with pytest.raises(RuntimeError) as batch_error:
                decoder.decode_batch(np.array(rows, dtype=np.uint8))
            assert str(batch_error.value) == message
            with pytest.raises(RuntimeError) as edges_error:
                decoder.decode_edges(np.nonzero(rows[0])[0])
            assert str(edges_error.value) == STALLED
            with pytest.raises(ValueError, match="must lie in"):
                decoder.decode_edges([graph.n_detectors])


def test_python_state_is_built_only_on_fallback(native_kernel):
    """A native decoder builds no Python-kernel state; a forced fallback
    builds it from the same tables and decodes identically."""
    noise = NoiseModel.preset("near_term")
    exp = MemoryExperiment(distance=5)
    graph = exp.matching_graph(noise)
    fast, oracle = native_decoder(graph), python_decoder(graph)
    state = ["_parent", "_parity", "_growth", "_rate", "_peel_adj", "_eu_list", "_adj_lists"]
    assert [name for name in state if hasattr(fast, name)] == []
    assert [name for name in state if not hasattr(oracle, name)] == []
    tables = ["eu", "ev", "frame", "cap", "indptr", "adj_edge"]
    for name in tables + ["_single_verdict", "_single_reachable"]:
        assert np.array_equal(getattr(fast, name), getattr(oracle, name)), name
    bounds = zip(oracle.indptr[:-1].tolist(), oracle.indptr[1:].tolist())
    assert oracle._adj_lists == [oracle.adj_edge[a:b].tolist() for a, b in bounds]
    syndromes = exp.sample_frame(2000, noise=noise, seed=3).detectors
    assert np.array_equal(fast.decode_batch(syndromes), oracle.decode_batch(syndromes))
    for row in syndromes[:300]:
        defects = np.nonzero(row)[0]
        assert fast.decode_edges(defects) == oracle.decode_edges(defects)


# ------------------------------------------------------- build and fallback
@functools.cache
def _d3_inputs():
    """A d=3 memory's DEM, its matching graph and 500 sparse syndromes."""
    noise = NoiseModel.uniform(3e-3)
    exp = MemoryExperiment(distance=3)
    graph = exp.matching_graph(noise)
    rng = np.random.default_rng(2)
    syndromes = (rng.random((500, graph.n_detectors)) < 0.02).astype(np.uint8)
    return exp.detector_error_model(noise), graph, syndromes


def _d3_table() -> FaultTable:
    """A fresh full-walk fault table of the d=3 memory."""
    exp = MemoryExperiment(distance=3)
    return extract_fault_table(
        exp.compiled.circuit,
        exp.compiled.initial_occupancy,
        NoiseModel.preset("near_term").params,
        exp.detector_labels,
        [exp.observable_labels],
    )


def _walked(table: FaultTable) -> list:
    columns = [table.rows, table.when, *table.site_columns(), table.paulis, table.mechanisms]
    return [c.tolist() for c in columns] + [table.key_detectors, table.key_observables.tolist()]


@functools.cache
def _d3_cnot():
    """A d=3 lattice-surgery CNOT's unscheduled circuit, its grid and initial occupancy."""
    compiler = TISCC(dx=3, dz=3, tile_rows=2, tile_cols=2)
    compiled = compiler.compile(lattice_surgery_cnot_program())
    return compiled.circuit, compiler.grid, compiled.initial_occupancy


def _d3_schedule() -> SimpleNamespace:
    """A fresh width-3 serial-beam SIMD schedule of the d=3 CNOT."""
    circuit, grid, _ = _d3_cnot()
    scheduled, report = simd_schedule(circuit, grid, width=3, mode="pass_serial", overhead_us=2.5)
    return SimpleNamespace(
        kernel=report.kernel,
        fallback_reason=report.fallback_reason,
        starts=scheduled.columns().t.tolist(),
        passes=report.beam_passes,
    )


@dataclass(frozen=True)
class Kernel:
    """One native kernel: the module binding it and a user that runs it."""

    #: Defines the kernel's ``SOURCE`` and its ``_declare`` signature table.
    module: ModuleType
    #: A fresh user, reporting ``.kernel`` and ``.fallback_reason``.
    make: Callable[[], object]
    #: The user's output on a fixed input.
    output: Callable[[object], list]


def _d3_validity() -> ValidityReport:
    """A validity replay of the d=3 CNOT."""
    circuit, grid, occupancy = _d3_cnot()
    return check_circuit(grid, circuit, occupancy)


def _d3_rounds() -> SimpleNamespace:
    """A fresh 3-round d=3 memory compile: its round kernel and its columns."""
    compiled = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1, rounds=3).compile(
        [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))]
    )
    cols = compiled.circuit.columns()
    return SimpleNamespace(
        kernel=compiled.round_kernel,
        fallback_reason=compiled.round_fallback_reason,
        columns=[c.tolist() for c in (cols.codes, cols.site0, cols.site1, cols.t, cols.duration)],
    )


def _sampled(sampler: FrameSampler) -> list:
    shots = sampler.sample(500, seed=2)
    return [shots.detectors.tolist(), shots.observables.tolist()]


KERNELS = {
    "union_find": Kernel(
        _uf_native,
        make=lambda: UnionFindDecoder(_d3_inputs()[1]),
        output=lambda decoder: decoder.decode_batch(_d3_inputs()[2]).tolist(),
    ),
    "frame": Kernel(
        frame,
        make=lambda: FrameSampler(_d3_inputs()[0]),
        output=_sampled,
    ),
    "dem": Kernel(_dem_native, make=_d3_table, output=_walked),
    "simd": Kernel(
        _simd_native,
        make=_d3_schedule,
        output=lambda schedule: [schedule.starts, schedule.passes],
    ),
    "validity": Kernel(_validity_native, make=_d3_validity, output=lambda report: [report]),
    "round": Kernel(_round_native, make=_d3_rounds, output=lambda compiled: compiled.columns),
}


@pytest.fixture(params=list(KERNELS))
def kernel(request) -> Kernel:
    return KERNELS[request.param]


def test_without_a_compiler_the_python_kernel_runs_identically(kernel, tmp_path, monkeypatch):
    expected = kernel.output(kernel.make())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # no cached build either
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    user = kernel.make()
    assert user.kernel == "python"
    assert "no C compiler" in user.fallback_reason
    assert kernel.output(user) == expected


@needs_compiler
def test_a_compiler_on_path_builds_the_native_kernel(kernel, empty_cache):
    """CI guard: with a compiler present a broken build fails here, instead
    of every run silently falling back to the much slower Python kernel."""
    user = kernel.make()
    assert user.kernel == "native", user.fallback_reason
    assert user.fallback_reason is None
    assert native.cache_path(kernel.module.SOURCE).is_file()


@needs_compiler
def test_a_corrupt_cached_object_is_rebuilt(kernel, empty_cache):
    path = native.cache_path(kernel.module.SOURCE)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a shared object")
    lib, reason = native.load(kernel.module.SOURCE, kernel.module._declare)
    assert lib is not None, reason
    assert path.read_bytes() != b"not a shared object"


@needs_compiler
def test_concurrent_first_builds_each_load_a_whole_object(kernel, empty_cache):
    """Workers racing to build into one empty cache never load a torn file."""
    code = (
        "from repro.util import native\n"
        f"from {kernel.module.__name__} import SOURCE, _declare\n"
        "lib, reason = native.load(SOURCE, _declare)\n"
        "print(lib is not None, reason)\n"
    )
    workers = [fresh_interpreter(code) for _ in range(3)]
    for worker in workers:
        out, err = worker.communicate(timeout=120)
        assert worker.returncode == 0, err
        assert out.startswith("True"), out
    cache = native.cache_path(kernel.module.SOURCE)
    assert [p.name for p in cache.parent.iterdir()] == [cache.name]


def test_importing_the_package_loads_no_kernel(kernel):
    """Kernels load with their first user, so CLI start-up never pays for them."""
    worker = fresh_interpreter(
        "import sys, repro.__main__\n"
        "native = sys.modules.get('repro.util.native')\n"
        "loaded = [p.name for p in getattr(native, '_loaded', {})]\n"
        f"print({kernel.module.SOURCE.name!r} in loaded)\n"
    )
    out, err = worker.communicate(timeout=120)
    assert out.strip() == "False", err


def test_the_cache_name_covers_the_compiler_flags(empty_cache, monkeypatch):
    """A flag change never loads an object built with the old flags."""
    before = native.cache_path(_dem_native.SOURCE)
    monkeypatch.setattr(native, "CFLAGS", (*native.CFLAGS, "-DFLAGS_CHANGED"))
    after = native.cache_path(_dem_native.SOURCE)
    assert after != before and after.parent == before.parent


def test_builds_keep_float_products_and_sums_unfused(empty_cache, monkeypatch):
    """The DEM fold repeats NumPy's arithmetic bit for bit only while the
    compiler contracts no multiply-add into an FMA, which some targets'
    default flags allow."""
    commands = []

    def no_build(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 1, "", "no build in this test")

    monkeypatch.setattr(native, "find_compiler", lambda: "cc")
    monkeypatch.setattr(native.subprocess, "run", no_build)
    lib, reason = native.load(_dem_native.SOURCE, _dem_native._declare)
    assert lib is None and "no build in this test" in reason
    [command] = commands
    assert "-ffp-contract=off" in command
    assert command[1 : 1 + len(native.CFLAGS)] == list(native.CFLAGS)
