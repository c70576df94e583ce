"""Pauli-frame sampling over a detector error model.

The fast half of the Stim-style sampling path: once
:mod:`repro.sim.dem` has folded a compiled circuit + noise model into a
:class:`~repro.sim.dem.DetectorErrorModel`, sampling needs *no quantum
state at all* — each shot independently fires each mechanism with its
probability, and detection events / observable flips are XOR parities of
the fired mechanisms' footprints.

Two kernels draw the same bits.  The native one (``_frame_kernel.c``, built
on first use and cached by :mod:`repro.util.native`) walks each shot's
stream in C and XORs every fired mechanism's detector list straight into
the output rows.  The numpy one, kept as its bit-identity oracle and as the
fallback when no C compiler is available, bit-packs per-shot Bernoulli
vectors along the shot axis and folds each detector's column with one
``bitwise_xor.reduce``.  :attr:`FrameSampler.kernel` says which runs.

Seed plumbing (shared contract with :class:`~repro.sim.batch.BatchRunner`):
shot ``k`` of a run with ``seed`` consumes its own generator derived via
``np.random.SeedSequence(seed, spawn_key=(shot_offset + k,))`` — the
spawn-key form of ``SeedSequence(seed).spawn(n)[k]`` (see
:func:`repro.sim.batch.per_shot_seed`) — and fires mechanism ``j`` when its
``j``-th ``random()`` draw is below ``probs[j]``.  The native kernel
rebuilds numpy's ``SeedSequence`` and PCG64 stream exactly.  Because the
stream depends only on the *absolute* shot index, sampling 10 000 shots in
one call or in any chunking of calls with matching ``shot_offset`` yields
bit-identical results — the property ``tests/test_frame_sampler.py`` locks
down and :meth:`~repro.decode.memory.MemoryExperiment.run` relies on when
it samples a run in memory-bounded chunks.
"""

from __future__ import annotations

import ctypes
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.sim.batch import per_shot_seed
from repro.sim.dem import DetectorErrorModel

__all__ = ["FrameSampler", "FrameSamples"]

SOURCE = Path(__file__).with_name("_frame_kernel.c")

#: Shots per transient ``(CHUNK, n_mechanisms)`` Bernoulli matrix on the
#: numpy path.
CHUNK = 2048


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the entry point's signature; a missing one raises AttributeError."""
    ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    lib.frame_sample.argtypes = [ptr, i64, u64, i64, ptr, i64, ptr, ptr, ptr, i64, i64, ptr, ptr]
    lib.frame_sample.restype = None
    return lib


@dataclass
class FrameSamples:
    """One batch of frame-sampled outcomes.

    ``detectors`` is the ``(n_shots, n_detectors)`` 0/1 detection-event
    matrix (the layout :meth:`MemoryExperiment.syndromes` produces and the
    union-find decoder consumes); ``observables`` the ``(n_shots,
    n_observables)`` logical-flip matrix.
    """

    detectors: np.ndarray
    observables: np.ndarray

    @property
    def n_shots(self) -> int:
        return self.detectors.shape[0]


class FrameSampler:
    """Samples detection events and observable flips from a DEM.

    Construction loads the native kernel and lays the DEM out for it: one
    compressed sparse row (CSR) table of every mechanism's detectors.
    Without the kernel it precomputes, for every detector and observable,
    the index array of mechanisms touching it.  :attr:`kernel` names the
    kernel that samples (``"native"`` or ``"python"``) and
    :attr:`fallback_reason` why the numpy one does.
    """

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        n_mechs = dem.n_mechanisms
        lengths = np.fromiter(
            (len(dets) for dets in dem.detectors), dtype=np.int64, count=n_mechs
        )
        flat_det = np.fromiter(
            (d for dets in dem.detectors for d in dets),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        self._probs = np.ascontiguousarray(dem.probs, dtype=np.float64)
        masks = np.ascontiguousarray(dem.observables, dtype=np.uint64)
        if self._probs.shape != (n_mechs,) or masks.shape != (n_mechs,):
            raise ValueError("a DEM needs one probability and one observable mask per mechanism")
        if flat_det.size and not 0 <= flat_det.min() <= flat_det.max() < dem.n_detectors:
            raise ValueError(f"DEM detector ids must lie in [0, {dem.n_detectors})")
        # Imported here, not at module level: loading the native kernel (and
        # building it, the first time on a host) is sampler set-up, never
        # import-time work.
        from repro.util import native

        self._lib, self._fallback_reason = native.load(SOURCE, _declare)
        if self._lib is not None:
            self._indptr = np.concatenate(([0], np.cumsum(lengths)))
            self._det_ids = flat_det
            self._obs_masks = masks
            return
        # One flat (detector, mechanism) incidence pass + a stable argsort;
        # the stable kind keeps mechanism ids ascending within each detector.
        flat_mech = np.repeat(np.arange(n_mechs, dtype=np.intp), lengths)
        order = np.argsort(flat_det, kind="stable")
        sorted_mech = flat_mech[order]
        bounds = np.searchsorted(flat_det[order], np.arange(dem.n_detectors + 1))
        self._det_mechs = [
            sorted_mech[bounds[d] : bounds[d + 1]] for d in range(dem.n_detectors)
        ]
        self._obs_mechs = [
            np.nonzero((masks >> np.uint64(o)) & np.uint64(1))[0].astype(np.intp)
            for o in range(dem.n_observables)
        ]

    @property
    def kernel(self) -> str:
        """The kernel that samples: ``"native"`` or ``"python"``."""
        return "python" if self._lib is None else "native"

    @property
    def fallback_reason(self) -> str | None:
        """Why the numpy kernel runs (compiler stderr included); ``None`` when native."""
        return self._fallback_reason

    def sample(self, n_shots: int, seed: int | None = 0, shot_offset: int = 0) -> FrameSamples:
        """Draw ``n_shots`` shots of detection events and observable flips.

        Shot ``k`` uses the per-shot stream of absolute index
        ``shot_offset + k`` (see module docstring), so results are
        independent of how a run is split across calls.  ``seed=None``
        draws one fresh 128-bit seed from OS entropy (non-reproducible).
        A negative ``seed`` or ``shot_offset`` raises numpy's
        :class:`ValueError`, and so do shot indices at or above ``2**64``.
        """
        if n_shots < 1:
            raise ValueError("need at least one shot")
        if seed is None:
            seed = np.random.SeedSequence().entropy
        # numpy's own checks, so both kernels reject what numpy rejects.
        np.random.SeedSequence(seed, spawn_key=(shot_offset,))
        seed, shot_offset = operator.index(seed), operator.index(shot_offset)
        if shot_offset + n_shots > 2**64:
            raise ValueError(
                f"shot indices must stay below 2**64 (got up to {shot_offset + n_shots - 1})"
            )
        dem = self.dem
        dets = np.zeros((n_shots, dem.n_detectors), dtype=np.uint8)
        obs = np.zeros((n_shots, dem.n_observables), dtype=np.uint8)
        if dem.n_mechanisms:
            sample = self._sample_numpy if self._lib is None else self._sample_native
            sample(seed, shot_offset, dets, obs)
        return FrameSamples(detectors=dets, observables=obs)

    def _sample_native(
        self, seed: int, shot_offset: int, dets: np.ndarray, obs: np.ndarray
    ) -> None:
        n_words = max(1, -(-seed.bit_length() // 32))
        words = np.frombuffer(seed.to_bytes(4 * n_words, "little"), dtype="<u4").astype(np.uint32)
        self._lib.frame_sample(
            words.ctypes.data,
            words.size,
            shot_offset,
            dets.shape[0],
            self._probs.ctypes.data,
            self._probs.size,
            self._indptr.ctypes.data,
            self._det_ids.ctypes.data,
            self._obs_masks.ctypes.data,
            dets.shape[1],
            obs.shape[1],
            dets.ctypes.data,
            obs.ctypes.data,
        )

    def _sample_numpy(self, seed: int, shot_offset: int, dets: np.ndarray, obs: np.ndarray) -> None:
        n_shots, m = dets.shape[0], self._probs.size
        for base in range(0, n_shots, CHUNK):
            size = min(CHUNK, n_shots - base)
            fired = np.empty((size, m), dtype=bool)
            for k in range(size):
                rng = np.random.default_rng(per_shot_seed(seed, shot_offset + base + k))
                fired[k] = rng.random(m) < self._probs
            # Bit-pack the shot axis: mechanism columns become uint8 words,
            # and every detector is one XOR reduction over its mechanisms.
            packed = np.packbits(fired, axis=0, bitorder="little")
            for d, mechs in enumerate(self._det_mechs):
                if mechs.size:
                    col = np.bitwise_xor.reduce(packed[:, mechs], axis=1)
                    dets[base : base + size, d] = np.unpackbits(
                        col, count=size, bitorder="little"
                    )
            for o, mechs in enumerate(self._obs_mechs):
                if mechs.size:
                    col = np.bitwise_xor.reduce(packed[:, mechs], axis=1)
                    obs[base : base + size, o] = np.unpackbits(
                        col, count=size, bitorder="little"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FrameSampler over {self.dem!r}>"
