"""Reference implementations that the fast paths are tested against.

Each function is the plain loop a production routine replaced:

* the sweep loops compile and run one point at a time, in nesting order,
  with no cells, keys, cache or pool — ``repro.estimator.sweep`` must
  reproduce them bit for bit (timing fields aside) in every execution mode;
* the DEM marginal loops accumulate one mechanism at a time — the
  vectorized ``DetectorErrorModel.detection_rates``/``observable_rates``
  must equal them exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import TISCC
from repro.decode.memory import MemoryExperiment
from repro.estimator.sweep import OPERATION_PROGRAMS, _profiles, _resolve_noise
from repro.sim.noise import NoiseModel


def sweep_operation(name, distances, rounds=None, *, profile=None, simd=False):
    """Resource reports of ``name``, profile-major then distance-major."""
    build, shape = OPERATION_PROGRAMS[name]
    reports = []
    for prof in _profiles(profile):
        for d in distances:
            compiler = TISCC(
                dx=d, dz=d, tile_rows=shape[0], tile_cols=shape[1], rounds=rounds,
                profile=prof,
            )
            compiled = compiler.compile(build(), operation=name, simd=simd)
            reports.append(compiled.resources)
    return reports


def sweep_all(distances, rounds=None, *, profile=None, simd=False):
    """:func:`sweep_operation` for every registered operation."""
    return {
        name: sweep_operation(name, distances, rounds, profile=profile, simd=simd)
        for name in OPERATION_PROGRAMS
    }


def logical_error_sweep(
    distances,
    noise_models=None,
    rates=None,
    shots=1000,
    basis="Z",
    rounds=None,
    seed=0,
    engine="frame",
    max_batch=None,
    decoder=None,
    profile=None,
    window=None,
    commit=None,
    simd=False,
):
    """Logical-error reports, profile-major, then distance, then noise.

    One :class:`MemoryExperiment` per (profile, distance) runs every noise
    point — the loop the sweep's cells replaced.
    """
    if noise_models is None:
        noise_models = [NoiseModel.uniform(p) for p in rates]
    reports = []
    for prof in _profiles(profile):
        models = _resolve_noise(noise_models, prof)
        for d in distances:
            experiment = MemoryExperiment(
                distance=d,
                rounds=rounds,
                basis=basis,
                decoder=decoder if decoder is not None else "union_find",
                profile=prof,
                window=window,
                commit=commit,
                simd=simd,
            )
            for model in models:
                reports.append(
                    experiment.run(
                        shots,
                        noise=model,
                        seed=seed,
                        engine=engine,
                        max_batch=max_batch,
                    )
                )
    return reports


def detection_rates(dem) -> np.ndarray:
    """Per-detector marginal firing rates, one mechanism at a time."""
    prod = np.ones(dem.n_detectors)
    for p, dets in zip(dem.probs, dem.detectors):
        for d in dets:
            prod[d] *= 1.0 - 2.0 * p
    return 0.5 * (1.0 - prod)


def observable_rates(dem) -> np.ndarray:
    """Per-observable raw flip rates, one mechanism at a time."""
    prod = np.ones(dem.n_observables)
    for p, mask in zip(dem.probs, dem.observables):
        for o in range(dem.n_observables):
            if int(mask) >> o & 1:
                prod[o] *= 1.0 - 2.0 * p
    return 0.5 * (1.0 - prod)
