"""repro: a Python reproduction of TISCC (LeBlond et al., SC-W 2023).

The Trapped-Ion Surface Code Compiler generates hardware-level circuits and
resource estimates for surface-code patch operations on trapped-ion
processors, and verifies them with a quasi-Clifford simulator.  See
README.md for the package layout; the paper's tables and figures are
reproduced by ``benchmarks/bench_table*.py`` and ``bench_fig*.py``.

Quickstart::

    from repro import TISCC
    compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=2)
    compiled = compiler.compile([
        ("PrepareZ", (0, 0)),
        ("PrepareZ", (0, 1)),
        ("MeasureZZ", (0, 0), (0, 1)),
    ])
    print(compiled.resources.row())
    result = compiler.simulate(compiled, seed=1)
    print("ZZ outcome:", compiled.results[-1].value(result))

Noise & decoding::

    from repro import MemoryExperiment, NoiseModel
    experiment = MemoryExperiment(distance=3, basis="Z")
    report = experiment.run(1000, noise=NoiseModel.preset("near_term"), seed=1)
    print(f"logical error rate {report.logical_error_rate:.4f} "
          f"(raw {report.raw_error_rate:.4f})")

``NoiseModel`` presets (``ideal`` / ``near_term`` / ``projected``) derive
per-operation Pauli channel probabilities from a few physical parameters
and the :data:`~repro.hardware.model.GATE_TIMES_US` durations (longer
operations dephase more); ``MemoryExperiment`` decodes every shot with a
registered decoder (``get_decoder("union_find" | "union_find_unweighted"
| "lookup")``) — by default the weighted union-find over the DEM-built
matching graph, whose edges carry log-likelihood weights from the noise
model's mechanism rates.  The ``tiscc lfr --decoder`` CLI subcommand and
``examples/threshold_sweep.py`` sweep distances, physical rates, and
decoders through the same pipeline.

Fast sampling path::

    dem = experiment.detector_error_model(NoiseModel.uniform(1e-3))
    report = experiment.run(100_000, noise=NoiseModel.uniform(1e-3), engine="frame")

``experiment.detector_error_model`` folds the compiled Clifford schedule
and a noise model into a Stim-style :class:`DetectorErrorModel` (one
Pauli-frame walk, deduplicated mechanisms), and ``engine="frame"`` samples
detection events from it with no tableau at all — orders of magnitude
faster, cross-validated against the packed-tableau engine by the
equivalence test suite.  See ``tiscc dem`` and
``examples/fast_sampling.py``.

Hardware profiles::

    from repro import HardwareProfile, TISCC, logical_error_sweep
    profile = HardwareProfile.load("my_trap.toml")   # or get_profile("slow_junction")
    compiled = TISCC(dx=3, dz=3, profile=profile).compile([("PrepareZ", (0, 0))])
    reports = logical_error_sweep([3, 5], rates=[1e-3],
                                  profile=["baseline", "slow_junction"])

Every calibration constant (gate-time table, shuttling and junction
durations, zone pitch, noise presets) lives in a declarative
:class:`~repro.hardware.profile.HardwareProfile` — validated, frozen, and
fingerprinted so results from different hardware never share a cache
entry.  Ship-with profiles: ``baseline`` (the paper's Table 5
calibrations), ``slow_junction``, ``fast_projected``; ``tiscc profiles
list`` shows them and ``--profile NAME|PATH`` threads one (or several,
as a sweep axis) through every CLI subcommand.  Module-level constants
(:data:`~repro.hardware.model.GATE_TIMES_US`, ...) remain as read views
of the default profile; mutating them is deprecated in favour of
defining a profile.
"""

from repro.core.compiler import TISCC, CompiledOperation
from repro.core.tiles import TileGrid
from repro.code.logical_qubit import LogicalQubit
from repro.code.arrangements import Arrangement
from repro.decode import (
    Decoder,
    LookupDecoder,
    MemoryExperiment,
    UnionFindDecoder,
    UnweightedUnionFindDecoder,
    available_decoders,
    get_decoder,
)
from repro.estimator.sweep import logical_error_sweep, sweep_all, sweep_operation
from repro.hardware.grid import GridManager, grid_for_patch
from repro.hardware.model import HardwareModel, GATE_TIMES_US
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.profile import (
    DEFAULT_PROFILE,
    HardwareProfile,
    ProfileError,
    available_profiles,
    get_profile,
    register_profile,
)
from repro.sim.noise import NOISE_PRESETS, NoiseModel, NoiseParams
from repro.sim.dem import DetectorErrorModel, DemExtractionError
from repro.sim.frame import FrameSampler, FrameSamples

__version__ = "1.4.0"

__all__ = [
    "TISCC",
    "CompiledOperation",
    "TileGrid",
    "LogicalQubit",
    "Arrangement",
    "GridManager",
    "grid_for_patch",
    "HardwareModel",
    "HardwareCircuit",
    "GATE_TIMES_US",
    "HardwareProfile",
    "ProfileError",
    "DEFAULT_PROFILE",
    "get_profile",
    "register_profile",
    "available_profiles",
    "logical_error_sweep",
    "sweep_operation",
    "sweep_all",
    "MemoryExperiment",
    "Decoder",
    "get_decoder",
    "available_decoders",
    "UnionFindDecoder",
    "UnweightedUnionFindDecoder",
    "LookupDecoder",
    "NoiseModel",
    "NoiseParams",
    "NOISE_PRESETS",
    "DetectorErrorModel",
    "DemExtractionError",
    "FrameSampler",
    "FrameSamples",
    "__version__",
]
