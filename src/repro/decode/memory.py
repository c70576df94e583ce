"""Memory experiments: compile, noisily sample, and decode one patch.

The canonical benchmark behind every "logical error rate vs distance" plot:
prepare a logical |0> (or |+>), run ``R`` rounds of error correction, and
measure the logical operator transversally.  :class:`MemoryExperiment`
compiles that program once through the TISCC stack, extracts the detector
layout from the compiled stabilizer schedule (one label set per detector,
from the per-round face outcome labels of the patch's
:class:`~repro.code.stabilizer_circuits.RoundRecord` bookkeeping plus the
final transversal data labels), and decodes with any registered decoder
(weighted union-find by default) over the matching graph built from the
detector error model of the noise in play.

Only the stabilizer sector that checks the tracked logical is decoded: a
Z-basis memory tracks logical Z, which is flipped by X data errors, which
fire the Z faces (and symmetrically for X memories).  The complementary
sector's outcomes are simulated but carry no information about this
logical, so they never enter the matching graph.

Two sampling engines share that layout: the packed-tableau replay
(:meth:`MemoryExperiment.sample` + :meth:`MemoryExperiment.syndromes`, the
reference) and the detector-error-model fast path
(:meth:`MemoryExperiment.detector_error_model` +
:meth:`MemoryExperiment.sample_frame`, no tableau at all), which
:meth:`MemoryExperiment.run` decodes chunk by chunk in one loop — select
with ``run(engine="frame")``.  Decoding a noisy run needs the detector
error model on either engine, so a non-Clifford schedule raises
:class:`~repro.sim.dem.DemExtractionError`; non-Clifford circuits sample
through :meth:`~repro.core.compiler.TISCC.simulate_shots` instead.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from repro.code.patch_layout import PLAQUETTE_SETS
from repro.core.compiler import TISCC
from repro.decode.base import Decoder, decoder_class, get_decoder
from repro.hardware.grid import GEOMETRY
from repro.hardware.profile import HardwareProfile
from repro.decode.graph import MatchingGraph, build_dem_graph
from repro.estimator.report import LogicalErrorReport
from repro.estimator.spec import ExperimentSpec
from repro.sim.batch import BatchResult
from repro.sim.dem import (
    DetectorErrorModel,
    FaultTable,
    PeriodicTemplate,
    build_dem,
    dem_structure_key,
    extract_fault_table,
    make_periodic_template,
)
from repro.sim.frame import FrameSampler, FrameSamples
from repro.sim.noise import NoiseModel, NoiseParams

__all__ = ["MemoryExperiment"]


@dataclass
class _MemoryCore:
    """The shareable compile-time state of one memory experiment.

    Everything here is a pure function of the spec's compile axes
    (:attr:`~repro.estimator.spec.ExperimentSpec.compile_key`) — the
    compiled circuit, detector layout, and noiseless decoding graph — plus
    the mutable caches keyed by noise parameters.  Cached per key so repeated
    :class:`MemoryExperiment` constructions (rate sweeps, CLI invocations,
    benchmarks) compile each distance at most once per process.

    ``fault_tables`` entries may be lazily-tiled periodic tables (built
    from a ``_TEMPLATE_ROUNDS``-round core's ``templates`` rather than a
    walk of this core's own circuit); their contents are bit-identical to
    a full walk either way.  ``templates`` maps
    :func:`~repro.sim.dem.dem_structure_key` to the
    :class:`~repro.sim.dem.PeriodicTemplate` this core's circuit yields, or
    ``None`` when it cannot serve as one (cached so the failure is only
    diagnosed once).
    """

    compiler: TISCC
    compiled: object
    rounds: int
    faces: list
    logical_sites: set[int]
    observable_labels: list[str]
    detector_labels: list[list[str]]
    graph: MatchingGraph
    fault_tables: dict = field(default_factory=dict)
    dem_graphs: dict = field(default_factory=dict)
    frame_samplers: dict = field(default_factory=dict)
    templates: dict = field(default_factory=dict)


#: :attr:`ExperimentSpec.compile_key` -> compiled core, LRU-capped.
_CORE_CACHE: OrderedDict[tuple, _MemoryCore] = OrderedDict()
_CORE_CACHE_MAX = 32

#: Rounds of the periodic-extraction template compile: the smallest memory
#: whose replay block carries enough copies for the template's translation
#: self-check (>= 6; 9 rounds -> 8 copies) with a couple to spare.
_TEMPLATE_ROUNDS = 9

#: Byte budget of one frame-engine chunk's ``(shots, n_detectors)`` uint8
#: detector matrix: :meth:`MemoryExperiment.run` samples and decodes
#: ``max(1, CHUNK_BYTES // n_detectors)`` shots at a time, so a run's peak
#: memory does not grow with its shot count.
CHUNK_BYTES = 16 << 20


def _periodic_template(spec: ExperimentSpec, params: NoiseParams) -> PeriodicTemplate | None:
    """The shared extraction template for ``spec``'s patch/basis/profile/SIMD.

    Compiles a ``_TEMPLATE_ROUNDS``-round memory (through the ordinary
    ``_memory_core`` cache, SIMD-scheduled when ``spec.simd`` is, so its
    rounds are timed like the target's) and full-walks it once per noise
    structure; the resulting :class:`~repro.sim.dem.PeriodicTemplate`,
    kept on that compile's core, then serves every round count via
    :func:`~repro.sim.dem.extract_fault_table`'s tiling path.  Every
    experiment over the same patch/basis/profile/noise structure shares it
    whatever its ``rounds``, so changing ``rounds`` never re-walks a
    circuit.
    """
    core = _memory_core(
        ExperimentSpec(spec.dx, spec.dz, _TEMPLATE_ROUNDS, spec.basis, spec.profile, spec.simd)
    )
    key = dem_structure_key(params)
    if key not in core.templates:
        core.templates[key] = make_periodic_template(
            core.compiled.circuit,
            core.compiled.initial_occupancy,
            params,
            core.detector_labels,
            [core.observable_labels],
        )
    return core.templates[key]


def _memory_core(spec: ExperimentSpec) -> _MemoryCore:
    key = spec.compile_key
    core = _CORE_CACHE.get(key)
    if core is not None:
        _CORE_CACHE.move_to_end(key)
        return core

    basis = spec.basis
    compiler = TISCC(
        dx=spec.dx, dz=spec.dz, tile_rows=1, tile_cols=1, rounds=spec.rounds, profile=spec.profile
    )
    program = [(f"Prepare{basis}", (0, 0)), (f"Measure{basis}", (0, 0))]
    compiled = compiler.compile(program, operation=f"{basis}Memory", simd=spec.simd)

    patch = compiler.tiles[(0, 0)].patch
    assert patch is not None
    n_rounds = len(patch.round_records)
    faces = [p for p in patch.plaquettes if p.pauli == basis]
    logical = patch.logical_z if basis == "Z" else patch.logical_x
    logical_sites = set(logical.pauli.support)

    # Face outcome labels per round, in face order: ``[round][face]``.
    by_round = [[rec.outcome_labels[p.face] for p in faces] for rec in patch.round_records]
    site_label = {
        patch.layout.data_site(*ij): label
        for ij, label in compiled.results[-1].labels.items()
    }
    observable_labels = [site_label[s] for s in sorted(logical_sites)] + list(
        logical.corrections
    )
    # Slice 0 is round 0 alone, slice t XORs rounds t/t-1, and slice R XORs
    # the face parity recomputed from the final transversal data labels
    # against round R-1.
    detector_labels = [[label] for label in by_round[0]]
    for cur, prev in zip(by_round[1:], by_round):
        detector_labels += [[c, p] for c, p in zip(cur, prev)]
    detector_labels += [
        [site_label[s] for s in sorted(face.data_sites.values())] + [p]
        for face, p in zip(faces, by_round[-1])
    ]

    core = _MemoryCore(
        compiler=compiler,
        compiled=compiled,
        rounds=n_rounds,
        faces=faces,
        logical_sites=logical_sites,
        observable_labels=observable_labels,
        detector_labels=detector_labels,
        # The ideal model's DEM graph: no mechanism, so no edge.
        graph=MatchingGraph(len(detector_labels), []),
    )
    _CORE_CACHE[key] = core
    while len(_CORE_CACHE) > _CORE_CACHE_MAX:
        _CORE_CACHE.popitem(last=False)
    return core


class MemoryExperiment:
    """A distance-``d`` memory experiment, compiled once and decoded per noise model.

    ``basis`` selects the tracked logical: ``"Z"`` prepares |0>, idles for
    ``rounds`` rounds (default ``max(dx, dz)``), measures every data qubit
    in Z, and decodes the Z-face detectors; ``"X"`` is the transversal
    dual.  Compilation happens once in the constructor; :meth:`run` then
    samples and decodes arbitrarily many batches against the same compiled
    circuit.

    ``decoder`` names the registered decoder (see
    :func:`~repro.decode.base.get_decoder`) used by default; :meth:`run`
    and :meth:`decode_batch` accept a per-call override, and
    :meth:`decoder_for` builds and caches the instances.  Decoding runs over
    the matching graph of the noise model's detector error model
    (log-likelihood edge weights, cached per parameter set); without noise
    it runs over :attr:`graph`, every detector and no edge, since noiseless
    syndromes are all zero.

    The other keywords are :class:`~repro.estimator.spec.ExperimentSpec`
    axes, kept on :attr:`spec`; ``window``/``commit`` default as
    :attr:`~repro.estimator.spec.ExperimentSpec.window_shape` says.
    """

    def __init__(
        self,
        distance: int | None = None,
        dx: int | None = None,
        dz: int | None = None,
        rounds: int | None = None,
        basis: str = "Z",
        decoder: str = "union_find",
        profile: HardwareProfile | str | None = None,
        window: int | None = None,
        commit: int | None = None,
        simd: bool = False,
    ):
        if distance is not None:
            if dx is not None or dz is not None:
                raise ValueError("give either distance or both dx and dz, not both")
            dx = dz = distance
        if dx is None or dz is None:
            raise ValueError("give either distance or both dx and dz")
        #: The experiment's axes (basis, SIMD, decoder, window shape, ...).
        self.spec = ExperimentSpec(dx, dz, rounds, basis, profile, simd, decoder, window, commit)
        decoder_class(decoder)  # an unknown name fails here, in one line
        #: Hardware profile the experiment compiles and caches under.
        self.profile = self.spec.profile
        # Compilation and label extraction are shared per compile key
        # across every instance in the process: rate sweeps and repeated
        # constructions pay for the compile once.
        # The shared bundle is treated as immutable — code that mutates
        # :attr:`compiled` (e.g. splicing instructions into the circuit)
        # must call :meth:`clear_compile_cache` around the experiment to
        # avoid leaking the mutation into later constructions.
        core = _memory_core(self.spec)
        self._core = core
        self.compiler = core.compiler
        self.compiled = core.compiled
        self.rounds = core.rounds
        self.faces = core.faces
        self.logical_sites = core.logical_sites
        #: Labels whose XOR parity is the logical readout: the transversal
        #: labels on the tracked logical's data support, plus any correction
        #: labels the operator ledger accumulated (empty for plain memory).
        self.observable_labels: list[str] = core.observable_labels
        #: Per-detector label sets, id ``t * F + f`` matching :meth:`syndromes`:
        #: slice 0 is round 0 alone, slice t XORs rounds t/t-1, slice R XORs
        #: the recomputed final face parity against round R-1.
        self.detector_labels: list[list[str]] = core.detector_labels
        #: Fault tables cached per noise-structure key (footprints are
        #: rate-independent, so a rate sweep extracts at most once); shared
        #: with every other instance of the same core.
        self._fault_tables: dict[tuple, FaultTable] = core.fault_tables
        #: The noiseless decoding graph: every detector, no edge.
        self.graph: MatchingGraph = core.graph
        #: DEM-built matching graphs cached per noise-parameter key.
        self._dem_graphs: dict[tuple, MatchingGraph] = core.dem_graphs
        #: Built decoders cached per (name, graph key) — deliberately
        #: *per instance*, never on the shared core: decoders carry mutable
        #: scratch state, and the documented way to parallelize is one
        #: experiment (hence one decoder) per worker.
        self._decoders: dict[tuple, Decoder] = {}

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> MemoryExperiment:
        """The experiment ``spec`` names (built through the constructor)."""
        return cls(**{f.name: getattr(spec, f.name) for f in fields(spec)})

    @staticmethod
    def clear_compile_cache() -> None:
        """Drop every cached compiled memory experiment (mainly for tests).

        The periodic-extraction templates live on their compiles' cores, so
        they go too, and so do the process-wide compile memos: the grid
        geometry tables per grid shape and the plaquette sets per patch
        layout.  The next compile pays every first build again.
        """
        _CORE_CACHE.clear()
        GEOMETRY.clear()
        PLAQUETTE_SETS.clear()

    # ------------------------------------------------------------- plumbing
    @property
    def dx(self) -> int:
        return self.compiled.dx

    @property
    def dz(self) -> int:
        return self.compiled.dz

    @property
    def n_detectors(self) -> int:
        """Detector count of the syndrome layout: ``(rounds + 1) * faces``.

        Computed from the schedule itself (not from any graph), so the
        guard in :meth:`decoder_for` can catch a decoder built over a graph
        of the wrong shape before it silently decodes garbage.
        """
        return (self.rounds + 1) * len(self.faces)

    # ------------------------------------------------------------- sampling
    def sample(
        self,
        n_shots: int,
        noise: NoiseModel | None = None,
        seed: int | None = 0,
        noise_seed: int | None = None,
        independent_streams: bool = False,
    ) -> BatchResult:
        """Noisy batched replay of the compiled memory circuit.

        Defaults to the shared-stream (maximum-throughput) rng mode: memory
        experiments only ever consume batch statistics.
        """
        return self.compiler.simulate_shots(
            self.compiled,
            n_shots,
            seed=seed,
            independent_streams=independent_streams,
            noise=noise,
            noise_seed=noise_seed,
        )

    # ---------------------------------------------------------- fast path
    def fault_table(self, noise: NoiseModel) -> FaultTable:
        """Rate-independent fault footprints for a noise model's structure.

        Cached per :func:`~repro.sim.dem.dem_structure_key` (which channels
        are nonzero) — sweeping a rate knob rebuilds only the cheap
        probability layer.  For ``rounds >= _TEMPLATE_ROUNDS`` extraction
        goes through the periodic tiling path: one shared
        ``_TEMPLATE_ROUNDS``-round template per (patch, basis, profile,
        SIMD, noise structure) is full-walked once and tiled onto this
        experiment's round count, so the cost is O(prologue + one bulk
        round + epilogue) regardless of ``rounds``, and changing ``rounds``
        never re-walks a circuit.  The full walk runs instead — producing a
        bit-identical table — whenever the periodic preconditions fail: the
        compiler's template replay fell back to round-by-round scheduling
        (no replay metadata), the replica region is not an exact
        translation of the template's (as under a SIMD ``pass_serial``
        beam), or any translation check (labels, detectors, observables,
        idle-gap durations) misses.
        """
        key = dem_structure_key(noise.params)
        table = self._fault_tables.get(key)
        if table is None:
            template = (
                _periodic_template(self.spec, noise.params)
                if self.rounds >= _TEMPLATE_ROUNDS
                else None
            )
            table = extract_fault_table(
                self.compiled.circuit,
                self.compiled.initial_occupancy,
                noise.params,
                self.detector_labels,
                [self.observable_labels],
                template=template,
            )
            self._fault_tables[key] = table
        return table

    def detector_error_model(self, noise: NoiseModel) -> DetectorErrorModel:
        """Stim-style DEM of this memory experiment under ``noise``.

        The underlying :meth:`fault_table` is rounds-independent to build
        for long memories (periodic template tiling, see its docstring for
        the fallback conditions), and :func:`~repro.sim.dem.build_dem`
        folds in the noise rates over the table's columns — both paths
        bit-identical to the original per-instruction walk.
        """
        return build_dem(self.fault_table(noise), noise.params)

    # ------------------------------------------------------------- decoders
    @staticmethod
    def _params_key(noise: NoiseModel) -> tuple:
        p = noise.params
        return (p.p1, p.p2, p.p_prep, p.p_meas, p.t2_us)

    def matching_graph(self, noise: NoiseModel | None = None) -> MatchingGraph:
        """The decoding graph for ``noise``, built from its detector error model.

        Every edge is an actual mechanism of the noisy circuit, weighted
        ``log((1-p)/p)``, and the graph is cached per parameter set.  With no
        noise, or a trivial model, it is :attr:`graph`: the ideal model's DEM
        has no mechanism, so its graph is every detector and no edge.
        """
        if noise is None or noise.is_trivial:
            return self.graph
        key = self._params_key(noise)
        graph = self._dem_graphs.get(key)
        if graph is None:
            graph = self._dem_graphs[key] = build_dem_graph(self.detector_error_model(noise))
        return graph

    def decoder_for(
        self, noise: NoiseModel | None = None, decoder: str | None = None
    ) -> Decoder:
        """The decoder ``decoder`` (default: the experiment's) for ``noise``.

        Built over :meth:`matching_graph` on first use and cached per
        instance.  Layout-aware decoders also get the face count and window
        shape, and key on the experiment's ``(window, commit)``, so two
        experiments over the same core that differ only there never share
        an instance.  Raises :class:`ValueError` when the decoder's graph has
        a detector count other than :attr:`n_detectors` — a mismatch would
        otherwise decode garbage silently.  The guard runs before a decoder
        enters the cache, so a rejected one never wedges later calls, and on
        every cache hit, so externally injected instances are checked too.
        """
        name = decoder if decoder is not None else self.spec.decoder
        graph = self.matching_graph(noise)
        key: tuple = ("ideal" if graph is self.graph else self._params_key(noise), name)
        layout = {}
        if decoder_class(name).wants_layout:
            key += (self.spec.window, self.spec.commit)
            window, commit = self.spec.window_shape
            layout = dict(n_faces=len(self.faces), window=window, commit=commit)
        built = self._decoders.get(key)
        if built is None:
            built = get_decoder(name, graph, **layout)
        if built.graph.n_detectors != self.n_detectors:
            raise ValueError(
                f"decoder graph has {built.graph.n_detectors} detectors but "
                f"this experiment produces {self.n_detectors}; the decoder "
                "was built for a different detector layout"
            )
        self._decoders[key] = built
        return built

    def frame_sampler(self, noise: NoiseModel | None = None) -> FrameSampler:
        """The cached :class:`FrameSampler` for ``noise``.

        Samplers are pure functions of the detector error model, so they are
        cached per noise-parameter key on the shared core alongside
        ``_dem_graphs`` — repeated :meth:`sample_frame` / :meth:`run` calls
        (shot-sharded sweeps especially) stop rebuilding the sampler's index
        arrays on every call.
        """
        model = noise if noise is not None else NoiseModel.preset("ideal")
        key = self._params_key(model)
        sampler = self._core.frame_samplers.get(key)
        if sampler is None:
            sampler = FrameSampler(self.detector_error_model(model))
            self._core.frame_samplers[key] = sampler
        return sampler

    def sample_frame(
        self,
        n_shots: int,
        noise: NoiseModel | None = None,
        seed: int | None = 0,
        shot_offset: int = 0,
    ) -> FrameSamples:
        """Tableau-free sampling: detection events + logical flips via the DEM.

        Orders of magnitude faster than :meth:`sample` + :meth:`syndromes`
        (no quantum state is simulated); raises
        :class:`~repro.sim.dem.DemExtractionError` if the compiled schedule
        is not Clifford.  Results are chunk-invariant in ``shot_offset``.
        """
        return self.frame_sampler(noise).sample(
            n_shots, seed=seed, shot_offset=shot_offset
        )

    # ------------------------------------------------------------ detectors
    def syndromes(self, batch: BatchResult) -> np.ndarray:
        """Detector bit matrix ``(n_shots, n_detectors)`` for a batch.

        Column ``i`` XORs the outcomes named by ``detector_labels[i]``, the
        layout the detector error model, the frame sampler and every
        decoding graph share.
        """
        return np.stack([_parity(batch, labels) for labels in self.detector_labels], axis=1)

    def measured_flips(self, batch: BatchResult) -> np.ndarray:
        """Raw (undecoded) logical flips per shot: the XOR of :attr:`observable_labels`."""
        return _parity(batch, self.observable_labels)

    # -------------------------------------------------------------- decoding
    def decode_batch(
        self,
        batch: BatchResult,
        noise: NoiseModel | None = None,
        decoder: str | None = None,
    ) -> np.ndarray:
        """Decoded logical verdicts: raw flip XOR decoder-predicted flip.

        A nonzero entry is a *logical error* — the decoder failed to undo
        the flip (or introduced one).  ``noise`` selects the DEM-weighted
        decoding graph (see :meth:`decoder_for`); ``decoder`` overrides the
        experiment's default decoder for this call.
        """
        dec = self.decoder_for(noise, decoder)
        predicted = dec.decode_batch(self.syndromes(batch))
        return self.measured_flips(batch) ^ predicted

    def run(
        self,
        n_shots: int,
        noise: NoiseModel | None = None,
        seed: int | None = 0,
        noise_seed: int | None = None,
        engine: str = "tableau",
        decoder: str | None = None,
        shot_offset: int = 0,
    ) -> LogicalErrorReport:
        """Sample ``n_shots``, decode them, and summarize the logical fidelity.

        ``engine`` selects how each chunk of ``(detectors, observable
        flips)`` is drawn; one loop then decodes, counts and times every
        chunk the same way, over the noise model's DEM graph (so with noise
        a non-Clifford schedule raises
        :class:`~repro.sim.dem.DemExtractionError` on either engine).
        ``"frame"`` — what rate sweeps and the CLI run — samples the DEM
        directly, with no tableau, ``max(1, CHUNK_BYTES // n_detectors)``
        shots per chunk, so peak memory is one chunk's detector matrix
        however many shots are requested; per-shot streams make the counts
        identical for every chunk size.  ``"tableau"`` (the default, kept
        as the reference) replays the packed stabilizer engine over all
        ``n_shots`` as one chunk, because its shared noise stream must not
        split.

        On the frame path *all* randomness is noise randomness, so
        ``noise_seed`` (when given) selects the mechanism-sampling streams
        and ``seed`` is only the fallback when it is unset — mirroring the
        tableau path, where a fixed ``noise_seed`` pins the noise draws.

        ``decoder`` overrides the experiment's default decoder name for
        this run (recorded on the report's ``decoder`` column).

        ``shot_offset`` starts the frame path's chunk-invariant per-shot
        streams at a later global shot index, so disjoint shards
        ``(0, k), (k, 2k), ...`` of one logical run can be drawn by
        different workers and merged with no overlap — the shot-axis
        sharding :func:`repro.estimator.jobs.run_cells` uses.  The tableau
        engine has no such stream structure; a nonzero offset there is an
        error rather than a silent statistical lie.
        """
        if n_shots < 1:
            raise ValueError("need at least one shot")
        if engine == "frame":
            sampler = self.frame_sampler(noise)
            stream = seed if noise_seed is None else noise_seed
            step = max(1, CHUNK_BYTES // self.n_detectors)

            def draw(offset: int, n: int) -> tuple[np.ndarray, np.ndarray]:
                part = sampler.sample(n, seed=stream, shot_offset=shot_offset + offset)
                return part.detectors, part.observables[:, 0]

        elif engine == "tableau":
            if shot_offset:
                raise ValueError(
                    "shot_offset requires the frame engine's per-shot streams; "
                    "the tableau engine cannot shard the shot axis"
                )
            step = n_shots

            def draw(offset: int, n: int) -> tuple[np.ndarray, np.ndarray]:
                batch = self.sample(n, noise=noise, seed=seed, noise_seed=noise_seed)
                return self.syndromes(batch), self.measured_flips(batch)

        else:
            raise ValueError(f"engine must be 'frame' or 'tableau', got {engine!r}")

        dec = self.decoder_for(noise, decoder)
        failures = raw_failures = defects = 0
        sim_seconds = decode_seconds = 0.0
        for offset in range(0, n_shots, step):
            t0 = time.perf_counter()
            detectors, raw = draw(offset, min(step, n_shots - offset))
            t1 = time.perf_counter()
            fail = raw ^ dec.decode_batch(detectors)
            decode_seconds += time.perf_counter() - t1
            sim_seconds += t1 - t0
            failures += int(fail.sum())
            raw_failures += int(raw.sum())
            defects += int(detectors.sum())

        return LogicalErrorReport(
            operation=self.compiled.operation,
            dx=self.dx,
            dz=self.dz,
            rounds=self.rounds,
            n_shots=n_shots,
            noise_name=noise.name if noise is not None else "none",
            physical_rate=noise.params.p2 if noise is not None else None,
            profile=self.profile.name,
            failures=failures,
            raw_failures=raw_failures,
            mean_defects=defects / n_shots,
            sim_seconds=sim_seconds,
            decode_seconds=decode_seconds,
            engine=engine,
            decoder=dec.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MemoryExperiment {self.spec.basis} dx={self.dx} dz={self.dz} "
            f"rounds={self.rounds} detectors={self.n_detectors}>"
        )


def _parity(batch: BatchResult, labels: list[str]) -> np.ndarray:
    """Per-shot XOR of the outcome bits ``labels`` name."""
    bits = np.zeros(batch.n_shots, dtype=np.uint8)
    for label in labels:
        bits ^= batch.outcomes[label]
    return bits
