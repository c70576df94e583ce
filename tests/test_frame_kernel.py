"""Native frame-sampling kernel: bit for bit against the numpy oracle and numpy's own stream.

The C kernel (``repro/sim/_frame_kernel.c``) rebuilds numpy's per-shot
``SeedSequence(seed, spawn_key=(shot,))`` -> PCG64 stream, so every
fixed-seed logical error rate, sweep cell payload and checkpoint cache stays
valid whichever kernel samples.  The numpy kernel is forced by making the
loader report a failure while a sampler is constructed.  The build, rebuild,
fallback and import-time checks shared with the union-find kernel live in
``tests/test_uf_kernel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decode.memory import MemoryExperiment
from repro.sim import frame
from repro.sim.dem import DetectorErrorModel
from repro.sim.frame import FrameSampler
from repro.sim.noise import NoiseModel
from repro.util import native


def python_sampler(dem: DetectorErrorModel) -> FrameSampler:
    """A sampler on the numpy kernel, the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(native._loaded, frame.SOURCE, (None, "forced by the test"))
        sampler = FrameSampler(dem)
    assert sampler.kernel == "python"
    return sampler


def native_sampler(dem: DetectorErrorModel) -> FrameSampler:
    sampler = FrameSampler(dem)
    assert sampler.kernel == "native", sampler.fallback_reason
    return sampler


@pytest.fixture(scope="module")
def native_kernel():
    """Skips a comparison where no native kernel can be built here."""
    lib, reason = native.load(frame.SOURCE, frame._declare)
    if lib is None:
        pytest.skip(reason)


@pytest.fixture(params=["native", "python"])
def make_sampler(request):
    """Each kernel's sampler constructor; the native one where it builds."""
    if request.param == "native":
        request.getfixturevalue("native_kernel")
        return native_sampler
    return python_sampler


def assert_same(a, b) -> None:
    assert np.array_equal(a.detectors, b.detectors)
    assert np.array_equal(a.observables, b.observables)


def dem_of(n_detectors, n_observables, probs, detectors, observables) -> DetectorErrorModel:
    return DetectorErrorModel(
        n_detectors=n_detectors,
        n_observables=n_observables,
        probs=np.asarray(probs, dtype=np.float64),
        detectors=list(detectors),
        observables=np.asarray(observables, dtype=np.uint64),
    )


# ------------------------------------------------------------ strategies
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**96, 2**97 - 1),
    st.integers(2**128 + 1, 2**200),
)
OFFSETS = st.one_of(
    st.integers(0, 1000),
    st.integers(2**32 - 40, 2**32 + 40),
    st.integers(2**40, 2**64 - 100),
)


@st.composite
def dems(draw):
    """Small DEMs, the empty and one-mechanism ones included, with
    probabilities of exactly 0 and 1 among the random ones."""
    n_det = draw(st.integers(0, 10))
    n_obs = draw(st.integers(0, 3))
    m = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    prob = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    dets = st.lists(st.integers(0, n_det - 1), max_size=4, unique=True) if n_det else st.just([])
    return dem_of(
        n_det,
        n_obs,
        [draw(prob) for _ in range(m)],
        [tuple(sorted(draw(dets))) for _ in range(m)],
        [draw(st.integers(0, 2**n_obs - 1)) for _ in range(m)],
    )


# ------------------------------------------------------------ bit identity
@settings(max_examples=150, deadline=None)
@given(
    dem=dems(),
    seed=SEEDS,
    offset=OFFSETS,
    n_shots=st.integers(1, 40),
    split=st.integers(0, 40),
)
def test_native_matches_the_numpy_kernel(native_kernel, dem, seed, offset, n_shots, split):
    fast, oracle = native_sampler(dem), python_sampler(dem)
    whole = fast.sample(n_shots, seed=seed, shot_offset=offset)
    assert_same(whole, oracle.sample(n_shots, seed=seed, shot_offset=offset))
    # Any (offset, n) split reproduces the whole run.
    cut = min(split, n_shots - 1)
    if cut:
        head = fast.sample(cut, seed=seed, shot_offset=offset)
        tail = fast.sample(n_shots - cut, seed=seed, shot_offset=offset + cut)
        assert np.array_equal(whole.detectors, np.concatenate([head.detectors, tail.detectors]))
        assert np.array_equal(
            whole.observables, np.concatenate([head.observables, tail.observables])
        )


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, offset=OFFSETS)
def test_every_draw_matches_numpys_own_generator(native_kernel, seed, offset):
    """At p=0.5 on its own detector, each mechanism shows its draw's
    comparison, which pins the C stream to numpy's SeedSequence and PCG64:
    if numpy changes either, this fails."""
    m, n_shots = 257, 5
    dem = dem_of(m, 1, np.full(m, 0.5), [(j,) for j in range(m)], np.arange(m) % 2)
    shots = native_sampler(dem).sample(n_shots, seed=seed, shot_offset=offset)
    for k in range(n_shots):
        ss = np.random.SeedSequence(seed, spawn_key=(offset + k,))
        fired = np.random.default_rng(ss).random(m) < 0.5
        assert np.array_equal(shots.detectors[k], fired)
        assert shots.observables[k, 0] == fired[1::2].sum() % 2


def test_canonical_dem_matches_the_numpy_kernel(native_kernel):
    """The canonical lfr workload's DEM: d=7, rounds=21, near_term noise."""
    exp = MemoryExperiment(distance=7, rounds=21)
    dem = exp.detector_error_model(NoiseModel.preset("near_term"))
    assert_same(native_sampler(dem).sample(2000, seed=7), python_sampler(dem).sample(2000, seed=7))


@pytest.mark.skipif(native.find_compiler() is None, reason="no C compiler on PATH")
def test_a_fresh_sampler_is_native_when_a_compiler_is_on_path():
    sampler = FrameSampler(dem_of(1, 1, [0.1], [(0,)], [1]))
    assert sampler.kernel == "native", sampler.fallback_reason
    assert sampler.fallback_reason is None


@pytest.mark.parametrize(
    "probs, detectors, observables, message",
    [
        ([0.1], [(2,)], [0], "detector ids must lie in"),
        ([0.1], [(-1,)], [0], "detector ids must lie in"),
        ([0.1, 0.2], [(0,)], [0], "one probability"),
        ([0.1], [(0,)], [0, 1], "one probability"),
    ],
    ids=["id-past-end", "negative-id", "extra-prob", "extra-mask"],
)
def test_malformed_dems_are_rejected(probs, detectors, observables, message):
    """The C kernel indexes output rows by these ids, so they are checked first."""
    with pytest.raises(ValueError, match=message):
        FrameSampler(dem_of(2, 1, probs, detectors, observables))


# ------------------------------------------------------------ seed checks
def test_bad_seeds_and_offsets_raise_on_both_kernels(make_sampler):
    sampler = make_sampler(dem_of(2, 1, [0.5, 0.5], [(0,), (0, 1)], [0, 1]))
    for kwargs in ({"seed": -1}, {"shot_offset": -1}):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            sampler.sample(3, **kwargs)
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        sampler.sample(3, shot_offset=2**64 - 2)
    last = sampler.sample(2, shot_offset=2**64 - 2)  # the last two indices are fine
    assert last.n_shots == 2


def test_unseeded_runs_draw_fresh_streams(make_sampler):
    sampler = make_sampler(dem_of(64, 0, np.full(64, 0.5), [(j,) for j in range(64)], np.zeros(64)))
    a, b = sampler.sample(4, seed=None), sampler.sample(4, seed=None)
    assert not np.array_equal(a.detectors, b.detectors)
