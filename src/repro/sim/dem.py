"""Detector-error-model (DEM) extraction from compiled hardware circuits.

Walks one compiled :class:`~repro.hardware.circuit.HardwareCircuit` *once*,
enumerating every Pauli fault a :class:`~repro.sim.noise.NoiseModel` could
inject (the exact channel structure of
:meth:`NoiseModel.apply_operation_noise`: depolarizing terms after gates,
mis-preparation flips, classical readout flips, and duration-derived
dephasing including idle gaps), and reads off the measurement labels each
fault flips.  Projected onto a set of *detectors* (label sets whose XOR is
deterministic in the noiseless circuit) and *observables* (deterministic
logical readout parities), this yields a Stim-style
:class:`DetectorErrorModel`: deduplicated error mechanisms with
probabilities, detector footprints, and observable masks.

Two walks produce the same :class:`FaultTable`.  The native one
(``_dem_kernel.c``, built on first use and cached by :mod:`repro.util.native`)
propagates detector *sensitivity* backward through the Clifford schedule —
one bit lane per detector or observable rather than one per fault site
(Gidney 2021, arXiv:2103.02202) — reads each site's footprint off the
sensitivity planes at its location, and deduplicates footprints into
mechanism ids.  It reads the stream as the same kernel resolves it, in one
pass over the sorted columns that reproduces
:func:`~repro.sim.interpreter.replay_stream` bit for bit.  The Python walk
(:func:`enumerate_fault_sites`, :func:`_propagate_frames`, :func:`_project`
over :func:`~repro.sim.interpreter.replay_stream`), kept as its
bit-identity oracle and as the fallback when no C compiler is available,
conjugates one bit-packed Pauli frame lane per site forward.
:attr:`FaultTable.kernel` says which ran.  A table is columnar: per-site
row, when, kind, duration and Pauli columns plus a mechanism id into one
sorted list of distinct ``(footprint, observable mask)`` keys;
:func:`build_dem` prices and folds those columns into a DEM without
building a per-site object, on the kernel's fold where it builds and in
NumPy otherwise (:attr:`DetectorErrorModel.kernel` says which).

The DEM is the input to the tableau-free
:class:`~repro.sim.frame.FrameSampler`, which samples detection events and
observable flips for whole batches as bit-packed XORs over sampled
mechanisms — orders of magnitude faster than driving the packed tableau
per shot.

Exactness: Pauli frames commute through Clifford gates up to phase, so a
mechanism's detector footprint and observable flip are *exact* — every
single-fault prediction is verified against explicit Pauli injection into
the packed-tableau engine in ``tests/test_dem_equivalence.py``.  Two
standard first-order approximations relate DEM *sampling* to the tableau
noise channels: the three (fifteen) mutually-exclusive outcomes of a
depolarizing channel become independent mechanisms, and mechanisms with
identical footprints are XOR-combined (``p = p1(1-p2) + p2(1-p1)``); both
differ from the exclusive channel only at O(p^2).

Fault-site enumeration depends only on the noise model's *structure* (which
rates are nonzero — see :func:`dem_structure_key`), never on the rate
values, so callers sweeping a rate knob can extract the
:class:`FaultTable` once and rebuild cheap DEMs per parameter set via
:func:`build_dem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.hardware.circuit import HardwareCircuit
from repro.hardware.model import SINGLE_QUBIT_GATES
from repro.sim.gates import NON_CLIFFORD_GATES
from repro.sim.interpreter import RELOCATIONS, ReplayStream, replay_stream
from repro.sim.noise import NoiseModel, NoiseParams
from repro.sim.packed import unpack_bits

__all__ = [
    "DemExtractionError",
    "FaultSite",
    "FaultTable",
    "DetectorErrorModel",
    "PeriodicTemplate",
    "dem_structure_key",
    "enumerate_fault_sites",
    "extract_fault_table",
    "make_periodic_template",
    "build_dem",
    "extract_dem",
]

SOURCE = Path(__file__).with_name("_dem_kernel.c")


class DemExtractionError(RuntimeError):
    """The circuit cannot be folded into a detector error model.

    Raised for non-Clifford schedules (quasi-probability T substitutes are
    per-shot random, so no fixed fault footprint exists) and unknown
    instructions.  No engine falls back from it: a noisy memory experiment
    needs the model to decode on either engine, and non-Clifford circuits
    sample through :meth:`~repro.core.compiler.TISCC.simulate_shots` (§4.1).
    """


def _unsupported(name: str) -> DemExtractionError:
    """The error for a row neither walk can fold into a DEM."""
    if name in NON_CLIFFORD_GATES:
        return DemExtractionError(
            f"{name} is non-Clifford: its per-shot quasi-Clifford substitutes "
            "have no fixed fault footprint, so no detector error model exists"
        )
    return DemExtractionError(f"unknown instruction {name!r} in DEM extraction")


def _unknown_label(label: str) -> ValueError:
    return ValueError(f"detector references unknown measurement label {label!r}")


#: The 15 non-identity two-qubit Pauli terms of a two-qubit depolarizing
#: channel, as (letter on a, letter on b) with "I" meaning no action —
#: the same k -> (k >> 2, k & 3) decoding as NoiseModel._depolarize_2q.
_TWO_QUBIT_PAULIS: tuple[tuple[str, str], ...] = tuple(
    ("IXYZ"[k >> 2], "IXYZ"[k & 3]) for k in range(1, 16)
)

# Pauli-frame conjugation rules for the native Clifford gate set (signs are
# irrelevant to detector footprints, so only the x/z bit flow matters).
_FRAME_PHASE = frozenset({"Z_pi/4", "Z_-pi/4"})  # X -> +/-Y: z ^= x
_FRAME_SQRT_X = frozenset({"X_pi/4", "X_-pi/4"})  # Z -> +/-Y: x ^= z
_FRAME_SWAP = frozenset({"Y_pi/4", "Y_-pi/4"})  # X <-> +/-Z: swap x, z
_FRAME_PAULI = frozenset({"X_pi/2", "Y_pi/2", "Z_pi/2"})  # commute up to phase

#: Site field codes of a columnar :class:`FaultTable`, shared with the kernel:
#: ``when`` and ``kind`` columns index these tuples, and a Pauli code is
#: ``4 * qubit + letter`` with the letter indexing :data:`LETTERS`.
WHENS = ("before", "after", "record")
KINDS = ("gate1", "gate2", "prep", "readout", "dephase", "idle")
LETTERS = "IXYZ"
_WHEN_CODE = {when: code for code, when in enumerate(WHENS)}
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_READOUT, _IDLE = _KIND_CODE["readout"], _KIND_CODE["idle"]

@dataclass(frozen=True)
class FaultSite:
    """One potential fault location in the compiled instruction stream.

    ``index`` addresses ``circuit.sorted_instructions()``; ``when`` is
    ``"before"`` (idle-gap dephasing), ``"after"`` (post-operation
    channels), or ``"record"`` (classical readout flip on ``label``).
    ``pauli`` lists the injected Pauli as ``(tableau qubit, letter)`` pairs.
    ``kind`` selects the channel's probability formula in :func:`build_dem`;
    ``duration_us`` drives the dephasing kinds.
    """

    index: int
    when: str
    kind: str  # "gate1" | "gate2" | "prep" | "dephase" | "idle" | "readout"
    pauli: tuple[tuple[int, str], ...] = ()
    label: str | None = None
    duration_us: float = 0.0


def dem_structure_key(params: NoiseParams) -> tuple[bool, bool, bool, bool, bool]:
    """Which channels of a parameter set can fire at all.

    Fault-site enumeration and frame propagation depend only on this key —
    two models with the same key share a :class:`FaultTable` and differ
    only in the per-site probabilities of :func:`build_dem`.
    """
    return (
        params.p1 > 0,
        params.p2 > 0,
        params.p_prep > 0,
        params.p_meas > 0,
        params.t2_us is not None,
    )


def enumerate_fault_sites(
    circuit: HardwareCircuit, stream: ReplayStream, params: NoiseParams
) -> list[FaultSite]:
    """Every fault location the noise model can populate, in walk order.

    Reads the tableau qubits and idle gaps of ``circuit``'s
    :func:`~repro.sim.interpreter.replay_stream` — the same stream
    :class:`~repro.sim.batch.BatchRunner` samples — without touching any
    quantum state, appending one :class:`FaultSite` per Pauli term of
    every channel whose rate is nonzero.
    """
    tracks_idle = params.t2_us is not None
    sites: list[FaultSite] = []

    cols = circuit.sorted_columns()
    names, labels = cols.names, cols.labels
    durations = cols.duration.tolist()
    qubits_of, idle_of = stream.qubits, stream.idle
    for idx in range(cols.n):
        name = names[idx]
        qubits = qubits_of[idx]
        if not qubits:
            continue

        if tracks_idle:
            for q, gap, _ in idle_of[idx]:
                sites.append(FaultSite(idx, "before", "idle", ((q, "Z"),), duration_us=gap))

        if name in SINGLE_QUBIT_GATES:
            if params.p1 > 0:
                for letter in "XYZ":
                    sites.append(FaultSite(idx, "after", "gate1", ((qubits[0], letter),)))
        elif name == "ZZ":
            if params.p2 > 0:
                a, b = qubits
                for la, lb in _TWO_QUBIT_PAULIS:
                    ops = tuple(
                        (q, letter) for q, letter in ((a, la), (b, lb)) if letter != "I"
                    )
                    sites.append(FaultSite(idx, "after", "gate2", ops))
        elif name == "Prepare_Z":
            if params.p_prep > 0:
                sites.append(FaultSite(idx, "after", "prep", ((qubits[0], "X"),)))
        elif name == "Measure_Z":
            if params.p_meas > 0:
                label = labels.get(idx) or f"m?{idx}"
                sites.append(FaultSite(idx, "record", "readout", (), label=label))

        # Duration-derived dephasing after every timed operation except
        # preparation (no coherence yet) and measurement (unobservable) —
        # the exact control flow of NoiseModel.apply_operation_noise.
        if tracks_idle and name not in ("Prepare_Z", "Measure_Z") and durations[idx] > 0:
            duration = durations[idx]
            for q in qubits:
                sites.append(
                    FaultSite(idx, "after", "dephase", ((q, "Z"),), duration_us=duration)
                )

    return sites


def _propagate_frames(
    circuit: HardwareCircuit, stream: ReplayStream, sites: list[FaultSite]
) -> dict[str, np.ndarray]:
    """Conjugate every fault site through the remaining Clifford schedule.

    One walk over the instruction stream with a bit-packed Pauli frame per
    site (``(n_qubits, ceil(n_sites/64))`` x/z planes, one bit lane per
    site): faults are injected at their location, gates transform all lanes
    at once via the x/z conjugation rules, preparations clear the target
    qubit's lanes, and measurements record the X plane of the measured
    qubit — the lanes whose faults flip that outcome label.

    Returns ``label -> (W,) uint64`` flip columns over the site axis.
    """
    n_sites = len(sites)
    words = max(1, -(-n_sites // 64))
    x = np.zeros((stream.n_qubits, words), dtype=np.uint64)
    z = np.zeros((stream.n_qubits, words), dtype=np.uint64)
    label_flips: dict[str, np.ndarray] = {}

    pending: dict[tuple[int, str], list[tuple[int, FaultSite]]] = {}
    for s, site in enumerate(sites):
        pending.setdefault((site.index, site.when), []).append((s, site))

    def inject(s: int, site: FaultSite) -> None:
        w, sh = divmod(s, 64)
        bit = np.uint64(1) << np.uint64(sh)
        for q, letter in site.pauli:
            if letter in ("X", "Y"):
                x[q, w] ^= bit
            if letter in ("Z", "Y"):
                z[q, w] ^= bit

    cols = circuit.sorted_columns()
    names, labels = cols.names, cols.labels
    qubits_of = stream.qubits
    for idx in range(cols.n):
        name = names[idx]
        qubits = qubits_of[idx]
        for s, site in pending.get((idx, "before"), ()):
            inject(s, site)

        if name in RELOCATIONS:
            pass
        elif name == "Prepare_Z":
            q = qubits[0]
            x[q] = 0
            z[q] = 0
        elif name == "Measure_Z":
            label_flips[labels.get(idx) or f"m?{idx}"] = x[qubits[0]].copy()
        elif name in _FRAME_PHASE:
            q = qubits[0]
            z[q] ^= x[q]
        elif name in _FRAME_SQRT_X:
            q = qubits[0]
            x[q] ^= z[q]
        elif name in _FRAME_SWAP:
            q = qubits[0]
            t = x[q].copy()
            x[q] = z[q]
            z[q] = t
        elif name in _FRAME_PAULI:
            pass
        elif name == "ZZ":
            a, b = qubits
            t = x[a] ^ x[b]
            z[a] ^= t
            z[b] ^= t
        else:
            raise _unsupported(name)

        for s, site in pending.get((idx, "after"), ()):
            inject(s, site)
        for s, site in pending.get((idx, "record"), ()):
            w, sh = divmod(s, 64)
            assert site.label is not None
            label_flips[site.label][w] ^= np.uint64(1) << np.uint64(sh)

    return label_flips


class FaultTable:
    """Noise-structure-level extraction result, one column per site field.

    Site ``s`` sits at sorted-stream row ``rows[s]`` (``when[s]`` indexes
    :data:`WHENS`), belongs to channel ``kinds[s]`` (indexes :data:`KINDS`),
    lasts ``durations[s]`` µs (the dephasing kinds; 0 otherwise) and
    injects ``paulis[s]``: up to two ``4 * qubit + letter`` codes, 0
    padding.  Readout sites flip ``readout_labels``, in site order.  Its
    detector footprint and observable mask are key ``mechanisms[s]`` of one
    list of distinct keys sorted by ``(footprint, observable mask)``:
    ``key_detectors`` (sorted detector-id tuples) and ``key_observables``
    (bitmasks over observables).  Probability-free: combine with any
    parameter set of the same :func:`dem_structure_key` via
    :func:`build_dem`.

    :attr:`sites`, :attr:`footprints` and :attr:`observables` are per-site
    views built on first access, for the equivalence tests and the CLI.
    :attr:`kernel` names the walk that extracted the table (``"native"``
    or ``"python"``) and :attr:`fallback_reason` why the Python one ran.

    Tables built by the periodic extractor carry period metadata —
    ``method`` (``"periodic"`` vs ``"full"``), ``sites_per_round`` (fault
    sites per bulk QEC round) and ``n_bulk_rounds`` (tiled bulk rounds) —
    and build each group of columns from the tiling recipe when it is
    first read, so a table costs O(1) until :func:`build_dem` asks for its
    kinds, durations and mechanism ids.
    """

    def __init__(
        self,
        n_detectors: int,
        n_observables: int,
        *,
        kernel: str,
        fallback_reason: str | None = None,
        locations: tuple | None = None,
        channels: tuple[np.ndarray, np.ndarray] | None = None,
        mechanisms: tuple | None = None,
        method: str = "full",
        sites_per_round: int | None = None,
        n_bulk_rounds: int | None = None,
        tiling: "_Tiling | None" = None,
    ):
        if tiling is None and (locations is None or channels is None or mechanisms is None):
            raise ValueError("an eager FaultTable needs locations, channels, and mechanisms")
        self.n_detectors = n_detectors
        self.n_observables = n_observables
        self.kernel = kernel
        self.fallback_reason = fallback_reason
        self.method = method
        self.sites_per_round = sites_per_round
        self.n_bulk_rounds = n_bulk_rounds
        self._tiling = tiling
        #: (rows, when, paulis, readout_labels)
        self._locations = locations
        #: (kinds, durations)
        self._channels = channels
        #: (mechanism ids, key_detectors, key_observables)
        self._mechanisms = mechanisms
        self._sites: list[FaultSite] | None = None
        self._footprints: list[tuple[int, ...]] | None = None

    def _located(self) -> tuple:
        if self._locations is None:
            self._locations = self._tiling.locations()
        return self._locations

    def _mechanism_columns(self) -> tuple:
        if self._mechanisms is None:
            self._mechanisms = self._tiling.mechanisms()
        return self._mechanisms

    @property
    def n_sites(self) -> int:
        if self._channels is None:
            return self._tiling.n_sites
        return len(self._channels[0])

    @property
    def rows(self) -> np.ndarray:
        return self._located()[0]

    @property
    def when(self) -> np.ndarray:
        return self._located()[1]

    @property
    def paulis(self) -> np.ndarray:
        return self._located()[2]

    @property
    def readout_labels(self) -> list[str]:
        return self._located()[3]

    @property
    def mechanisms(self) -> np.ndarray:
        return self._mechanism_columns()[0]

    @property
    def key_detectors(self) -> list[tuple[int, ...]]:
        return self._mechanism_columns()[1]

    @property
    def key_observables(self) -> np.ndarray:
        return self._mechanism_columns()[2]

    def site_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-site ``(kind codes, durations)``: what :func:`build_dem` prices."""
        if self._channels is None:
            self._channels = self._tiling.site_columns()
        return self._channels

    @property
    def sites(self) -> list[FaultSite]:
        if self._sites is None:
            rows, when, paulis, labels = self._located()
            kinds, durations = self.site_columns()
            read = iter(labels)
            self._sites = [
                FaultSite(
                    row,
                    WHENS[w],
                    KINDS[k],
                    tuple((p >> 2, LETTERS[p & 3]) for p in pair if p),
                    next(read) if k == _READOUT else None,
                    duration,
                )
                for row, w, k, duration, pair in zip(
                    rows.tolist(),
                    when.tolist(),
                    kinds.tolist(),
                    durations.tolist(),
                    paulis.tolist(),
                )
            ]
        return self._sites

    @property
    def footprints(self) -> list[tuple[int, ...]]:
        """Per-site sorted detector ids."""
        if self._footprints is None:
            keys = self.key_detectors
            self._footprints = [keys[m] for m in self.mechanisms.tolist()]
        return self._footprints

    @property
    def observables(self) -> np.ndarray:
        """Per-site observable bitmasks."""
        return self.key_observables[self.mechanisms]

    def kind_counts(self) -> dict[str, int]:
        """Site counts per channel kind, without materializing site objects."""
        codes, _ = self.site_columns()
        values, counts = np.unique(codes, return_counts=True)
        return {KINDS[int(v)]: int(c) for v, c in zip(values, counts)}


def _xor_columns(
    label_flips: dict[str, np.ndarray], labels: list[str], words: int
) -> np.ndarray:
    col = np.zeros(words, dtype=np.uint64)
    for lab in labels:
        try:
            col ^= label_flips[lab]
        except KeyError:
            raise _unknown_label(lab) from None
    return col


def _project(
    sites: list[FaultSite],
    label_flips: dict[str, np.ndarray],
    detectors: list[list[str]],
    observables: list[list[str]],
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Project per-site flip columns onto detector footprints + obs masks."""
    n_sites = len(sites)
    words = max(1, -(-n_sites // 64))

    footprints: list[list[int]] = [[] for _ in range(n_sites)]
    for d, labels in enumerate(detectors):
        col = _xor_columns(label_flips, labels, words)
        for s in np.nonzero(unpack_bits(col, n_sites))[0] if n_sites else ():
            footprints[s].append(d)
    obs_mask = np.zeros(n_sites, dtype=np.uint64)
    for o, labels in enumerate(observables):
        col = _xor_columns(label_flips, labels, words)
        if n_sites:
            obs_mask[np.nonzero(unpack_bits(col, n_sites))[0]] |= np.uint64(1 << o)
    return [tuple(fp) for fp in footprints], obs_mask


def _python_table(
    sites: list[FaultSite],
    footprints: list[tuple[int, ...]],
    obs_mask: np.ndarray,
    n_detectors: int,
    n_observables: int,
    fallback_reason: str | None,
) -> FaultTable:
    """The Python walk's sites and projections as a columnar table."""
    n = len(sites)
    pauli_codes = [
        [4 * q + LETTERS.index(letter) for q, letter in s.pauli] + [0] * (2 - len(s.pauli))
        for s in sites
    ]
    locations = (
        np.fromiter((s.index for s in sites), dtype=np.int64, count=n),
        np.fromiter((_WHEN_CODE[s.when] for s in sites), dtype=np.int8, count=n),
        np.array(pauli_codes, dtype=np.int32).reshape(n, 2),
        [s.label for s in sites if s.kind == "readout"],
    )
    channels = (
        np.fromiter((_KIND_CODE[s.kind] for s in sites), dtype=np.int8, count=n),
        np.fromiter((s.duration_us for s in sites), dtype=np.float64, count=n),
    )
    pairs = list(zip(footprints, obs_mask.tolist()))
    keys = sorted(set(pairs))
    index = {key: k for k, key in enumerate(keys)}
    mechanisms = (
        np.fromiter((index[p] for p in pairs), dtype=np.int64, count=n),
        [fp for fp, _ in keys],
        np.array([obs for _, obs in keys], dtype=np.uint64),
    )
    return FaultTable(
        n_detectors,
        n_observables,
        kernel="python",
        fallback_reason=fallback_reason,
        locations=locations,
        channels=channels,
        mechanisms=mechanisms,
    )


def _walk(
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
    params: NoiseParams,
    detectors: list[list[str]],
    observables: list[list[str]],
    skip_empty: bool = False,
) -> tuple[FaultTable | None, np.ndarray]:
    """The full walk's table and each idle gap's predecessor row.

    Resolves the stream and walks it on the native kernel where it builds.
    With ``skip_empty`` a stream without fault sites gives no table before
    any row is checked.  Both kernels raise the same errors in the same
    order: the stream's ``ValueError`` at the first row it cannot resolve,
    :class:`DemExtractionError` at the first row neither can fold, then
    ``ValueError`` at the first unknown label.
    """
    # Imported here, not at module level: loading the native kernel (and
    # building it, the first time on a host) is extraction work, never
    # import-time work.
    from repro.sim import _dem_native
    from repro.util import native

    lib, reason = native.load(SOURCE, _dem_native._declare)
    if lib is not None:
        resolved = _dem_native.resolve(lib, circuit, initial_occupancy)
        if isinstance(resolved, _dem_native.Stream):
            table = _dem_native.walk(
                lib, circuit, resolved, params, detectors, observables, skip_empty
            )
            return table, resolved.idle_pred
        # Nothing of a failed native pass is used: the Python walk runs
        # instead, and its replay_stream raises its own error (or resolves
        # a stream the kernel leaves to it, such as one on negative qsites).
        reason = (
            f"the native stream resolver stopped at sorted row {resolved}"
            if resolved >= 0
            else "the native stream resolver left the initial occupancy to replay_stream"
        )
    stream = replay_stream(circuit, initial_occupancy)
    idle_pred = np.array([pred for gaps in stream.idle for _, _, pred in gaps], dtype=np.int64)
    sites = enumerate_fault_sites(circuit, stream, params)
    if skip_empty and not sites:
        return None, idle_pred
    label_flips = _propagate_frames(circuit, stream, sites)
    footprints, obs_mask = _project(sites, label_flips, detectors, observables)
    table = _python_table(sites, footprints, obs_mask, len(detectors), len(observables), reason)
    return table, idle_pred


def _check_observables(observables: list[list[str]]) -> None:
    if len(observables) > 64:
        raise ValueError(
            f"at most 64 observables fit a fault table's uint64 masks, got {len(observables)}"
        )


def extract_fault_table(
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
    params: NoiseParams,
    detectors: list[list[str]],
    observables: list[list[str]],
    *,
    template: "PeriodicTemplate | None" = None,
) -> FaultTable:
    """Enumerate fault sites and project their flips onto detectors.

    ``detectors[d]`` / ``observables[o]`` are measurement-label sets whose
    XOR parity is deterministic in the noiseless circuit; detector ids in
    the resulting table index these lists.  At most 64 observables fit the
    table's masks.

    The circuit decides the path, and the table's ``method`` records it.
    Without a ``template`` this walks every instruction of the sorted
    stream (``"full"``).  With one (a :func:`make_periodic_template` bundle
    for the same patch/basis/profile/SIMD/noise structure) it tiles the
    template onto the circuit's periodic bulk when every structural
    precondition holds against the circuit's own columns (``"periodic"``),
    and otherwise walks: when the compiler's template replay fell back to
    round-by-round scheduling (no
    :class:`~repro.hardware.circuit.ReplayBlock` records), or when a
    schedule, such as a SIMD ``pass_serial`` beam's, leaves the bulk rounds
    non-periodic.  Both paths produce bit-identical tables
    (``tests/test_dem_periodic.py``).
    """
    _check_observables(observables)
    if template is not None:
        if (
            template.circuit is circuit
            and template.detectors == detectors
            and template.observables == observables
        ):
            return template.table  # the target *is* the template compile
        table = _extract_periodic(
            circuit, initial_occupancy, params, detectors, observables, template
        )
        if table is not None:
            return table

    return _walk(circuit, initial_occupancy, params, detectors, observables)[0]


# --------------------------------------------------------- periodic tiling
#
# A compiled memory circuit is (prologue + transient round) | C replicated
# rounds | (final measurement block): the syndrome scheduler compiles one
# template round and replays it ``C`` times as one tiled array chunk
# (:meth:`HardwareCircuit.replay_block`, PR 5).  In *execution order* the
# replica region is an exact +B translation: with ``B`` rows per round and
# ``h`` the first sorted position of a copy-2 row, position ``p + B`` holds
# row ``p``'s row plus ``B`` for every ``p`` in ``[h, tau - B)``,
# ``tau = h + (C - 2) * B``.  Fault sites, frame footprints, and observable
# masks inherit that translation: window ``W_j = [h + jB, h + (j+1)B)``
# repeats window ``W_1`` with site indices shifted by ``(j-1) * B``,
# measurement labels shifted one replay copy per window, and detector ids
# mapped through the +1-copy detector translation — because Pauli frames of
# data qubits reach a per-round fixed point within two rounds (measure-qubit
# lanes are cleared by the next round's preparation), so every bulk round
# sees the same frame picture up to relabeling.
#
# The periodic extractor therefore walks *nothing* of the target circuit:
# it takes a cached small-rounds template compile (full-walk oracle), keeps
# its prologue + W0 + W1 + epilogue sites, and tiles W1 across the target's
# bulk by pure index arithmetic.  Every structural assumption is *checked*
# against the target's columns (exact +B row translation, constant per-round
# time step, bitwise head/tail equality, bitwise idle-gap reproduction at
# every tiled offset, detector/label translation validity) and the template
# proves its own translation invariance window-over-window before use
# (:meth:`PeriodicTemplate._self_check`); any violation falls back to the
# full walk, so the fast path can only ever produce the oracle's answer.


def _replay_geometry(circuit: HardwareCircuit) -> dict | None:
    """The periodic structure of a replayed circuit, or ``None``.

    Validates that the circuit carries exactly one replay record whose
    replica region is an exact +B translation in execution order with a
    constant per-round time step; returns the geometry the tiling needs
    (sorted columns, ``h``, ``B``, ``C``, ``tau``).
    """
    metas = circuit.replay_blocks
    if len(metas) != 1:
        return None
    meta = metas[0]
    B, C = meta.block, meta.copies
    if B <= 0 or C < 4:
        return None
    cols = circuit.sorted_columns()
    n = cols.n
    order = circuit.sort_order()
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n, dtype=np.int64)
    h = int(inv[meta.chunk_start + B : meta.chunk_start + 2 * B].min())
    tau = h + (C - 2) * B
    if tau > n or tau < h + 2 * B:
        return None
    if not np.array_equal(order[h + B : tau], order[h : tau - B] + B):
        return None
    diffs = cols.t[h + B : tau] - cols.t[h : tau - B]
    if diffs.size and not (np.all(diffs == diffs[0]) and diffs[0] > 0):
        return None
    for arr in (cols.codes, cols.site0, cols.site1, cols.nsites, cols.duration):
        if not np.array_equal(arr[h + B : tau], arr[h : tau - B]):
            return None
    return {"meta": meta, "cols": cols, "h": h, "B": B, "C": C, "tau": tau, "n": n}


def _label_decomp(meta) -> dict[str, tuple[int, str]]:
    """Measurement label -> (replay copy, template base label).

    Copy 0 is the template round itself; copy ``k >= 1`` indexes
    ``meta.label_maps[k - 1]``.
    """
    decomp: dict[str, tuple[int, str]] = {}
    for base in meta.label_maps[0]:
        decomp[base] = (0, base)
    for k, relabel in enumerate(meta.label_maps, start=1):
        for base, lab in relabel.items():
            decomp[lab] = (k, base)
    return decomp


def _label_next(meta) -> dict[str, str]:
    """Replay label -> the same measurement's label one copy later."""
    nxt: dict[str, str] = {}
    if not meta.label_maps:
        return nxt
    for base in meta.label_maps[0]:
        prev = base
        for relabel in meta.label_maps:
            cur = relabel[base]
            nxt[prev] = cur
            prev = cur
    return nxt


def _detector_index(detectors: list[list[str]]) -> dict[frozenset, int] | None:
    index: dict[frozenset, int] = {}
    for d, labels in enumerate(detectors):
        fs = frozenset(labels)
        if fs in index:
            return None  # ambiguous detector identity
        index[fs] = d
    return index


def _detector_shift_map(
    detectors: list[list[str]],
    index: dict[frozenset, int],
    label_next: dict[str, str],
) -> np.ndarray:
    """Detector id -> id of its one-copy-later translate (-1 when none).

    A detector translates when every one of its labels has a one-copy-later
    counterpart (see :func:`_label_next`) and the translated label set is
    itself a detector.
    """
    dnext = np.full(len(detectors), -1, dtype=np.int64)
    nxt = label_next.get
    found = index.get
    for d, labels in enumerate(detectors):
        shifted = [nxt(lab) for lab in labels]
        if None not in shifted:
            j = found(frozenset(shifted))
            if j is not None:
                dnext[d] = j
    return dnext


class PeriodicTemplate:
    """Rounds-independent extraction template: one small compile, walked once.

    Bundles a template compile's circuit, detector/observable layout, and
    full-walk :class:`FaultTable` together with the precomputed partition
    of its sites into prologue+W0 (copied verbatim), the W1 generator
    window (tiled across the target's bulk), and the epilogue block
    (index/label-shifted) — everything :func:`extract_fault_table`'s
    periodic path needs, independent of the target's round count.  The
    windows are read as the table's columns: W1 and the epilogue keep their
    *distinct* mechanism keys plus each site's index into them, so a tiled
    window translates only those keys.  Build via
    :func:`make_periodic_template`.
    """

    def __init__(
        self,
        circuit: HardwareCircuit,
        initial_occupancy: dict[int, int],
        structure_key: tuple,
        detectors: list[list[str]],
        observables: list[list[str]],
        table: FaultTable,
        idle_pred: np.ndarray,
        geom: dict,
    ):
        self.circuit = circuit
        self.initial_occupancy = dict(initial_occupancy)
        self.structure_key = structure_key
        self.detectors = detectors
        self.observables = observables
        self.table = table
        self.geom = geom
        self.decomp = _label_decomp(geom["meta"])
        self.det_index = _detector_index(detectors)
        self.dnext = (
            _detector_shift_map(detectors, self.det_index, _label_next(geom["meta"]))
            if self.det_index is not None
            else None
        )
        # Fixed-size label views of the template's own columns, precomputed
        # so the per-target checks in _extract_periodic never iterate the
        # target's full (O(rounds)-sized) label dict in Python.
        labs = geom["cols"].labels
        head = geom["h"] + 2 * geom["B"]
        self.head_labels = {p: l for p, l in labs.items() if p < head}
        self.tail_label_offsets = {
            p - geom["tau"]: l for p, l in labs.items() if p >= geom["tau"]
        }

        self.site_pos = table.rows
        kinds, durs = table.site_columns()
        # Predecessor sorted-position per site (idle sites only, else -2):
        # the walk emits one idle site per stream gap, in stream order.
        self.pred_pos = np.full(table.n_sites, -2, dtype=np.int64)
        idle = kinds == _IDLE
        if idle.any():
            self.pred_pos[idle] = idle_pred
        # Readout sites, whose labels table.readout_labels lists in order.
        self.read_pos = np.flatnonzero(kinds == _READOUT)

        h, B, tau = geom["h"], geom["B"], geom["tau"]
        self.i_head, self.i_gen, self.i_tail = np.searchsorted(
            self.site_pos, (h + B, h + 2 * B, tau)
        ).tolist()
        labels = table.readout_labels
        r_head, r_gen, r_tail = np.searchsorted(
            self.read_pos, (self.i_head, self.i_gen, self.i_tail)
        ).tolist()
        self.n_head_reads = r_gen

        # Generator window (W1) views.
        g = slice(self.i_head, self.i_gen)
        self.g_keys, self.g_inv = np.unique(table.mechanisms[g], return_inverse=True)
        flat: list[int] = []
        bounds: list[tuple[int, int]] = []
        for k in self.g_keys.tolist():
            fp = table.key_detectors[k]
            bounds.append((len(flat), len(flat) + len(fp)))
            flat.extend(fp)
        self.g_flat_ids = np.array(flat, dtype=np.int64)
        self.g_fp_bounds = bounds
        # Positions (i, i+1) of g_flat_ids inside the *same* footprint —
        # the vectorized sortedness probe of the tiling's chain check.
        starts = {a for a, b in bounds}
        self.g_intra = np.array(
            [i for i in range(max(len(flat) - 1, 0)) if i + 1 not in starts],
            dtype=np.int64,
        )
        g_idle = np.flatnonzero(kinds[g] == _IDLE)
        self.g_idle_a = self.site_pos[g][g_idle]
        self.g_idle_b = self.pred_pos[g][g_idle]
        self.g_idle_durs = durs[g][g_idle]
        self.g_read_labels = labels[r_head:r_gen]
        self.g_read_kb: list[tuple[int, str] | None] = [
            self.decomp.get(label) for label in self.g_read_labels
        ]

        # Epilogue (tail) views.
        t = slice(self.i_tail, table.n_sites)
        self.t_keys, self.t_inv = np.unique(table.mechanisms[t], return_inverse=True)
        t_idle = np.flatnonzero(kinds[t] == _IDLE)
        self.t_idle_a = self.site_pos[t][t_idle]
        self.t_idle_b = self.pred_pos[t][t_idle]
        self.t_idle_durs = durs[t][t_idle]
        self.t_read_labels = labels[r_tail:]
        self.t_read_rows = self.site_pos[self.read_pos[r_tail:]].tolist()

        self.usable = (
            self.det_index is not None
            and self.dnext is not None
            and (self.g_idle_b >= h).all()
            and (self.t_idle_b >= h).all()
            and all(kb is not None and kb[0] >= 1 for kb in self.g_read_kb)
            and self._self_check()
        )

    # One window-translation comparison against the walk's own data: the
    # template certifies that its small bulk already repeats *exactly*
    # (sites, labels one copy apart, footprints through the detector
    # translation, observables, durations) before any tiling trusts it.
    def _windows_translate(self, j: int) -> bool:
        h, B = self.geom["h"], self.geom["B"]
        pos = self.site_pos
        lo1, hi1 = np.searchsorted(pos, (h + j * B, h + (j + 1) * B)).tolist()
        lo2, hi2 = np.searchsorted(pos, (h + (j + 1) * B, h + (j + 2) * B)).tolist()
        if hi1 - lo1 != hi2 - lo2 or hi1 == lo1:
            return False
        w1, w2 = slice(lo1, hi1), slice(lo2, hi2)
        table = self.table
        if not np.array_equal(pos[w2], pos[w1] + B):
            return False
        for col in (table.when, *table.site_columns(), table.paulis):
            if not np.array_equal(col[w1], col[w2]):
                return False
        labels = table.readout_labels
        r1, e1, r2 = np.searchsorted(self.read_pos, (lo1, hi1, lo2)).tolist()
        for l1, l2 in zip(labels[r1:e1], labels[r2 : r2 + e1 - r1]):
            kb1, kb2 = self.decomp.get(l1), self.decomp.get(l2)
            if kb1 is None or kb2 is None or kb2 != (kb1[0] + 1, kb1[1]):
                return False
        dets, obs, dn = table.key_detectors, table.key_observables, self.dnext
        mech = table.mechanisms
        for m1, m2 in set(zip(mech[w1].tolist(), mech[w2].tolist())):
            f1, f2 = dets[m1], dets[m2]
            if len(f1) != len(f2) or any(dn[a] != b for a, b in zip(f1, f2)):
                return False
            if obs[m1] != obs[m2]:
                return False
        return True

    def _self_check(self) -> bool:
        C = self.geom["C"]
        checked = {1, 2, C - 4}  # W1->W2, W2->W3, and the last window pair
        return all(self._windows_translate(j) for j in checked)


def make_periodic_template(
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
    params: NoiseParams,
    detectors: list[list[str]],
    observables: list[list[str]],
) -> PeriodicTemplate | None:
    """Extract a template compile once (full walk) and bundle it for tiling.

    Returns ``None`` when the circuit cannot serve as a periodic template:
    no single replay block, fewer than 6 replay copies (the self-check
    needs three interior window pairs), no fault sites, a non-periodic
    replica region, or a failed window-translation self-check.
    """
    _check_observables(observables)
    geom = _replay_geometry(circuit)
    if geom is None or geom["C"] < 6:
        return None
    table, idle_pred = _walk(
        circuit, initial_occupancy, params, detectors, observables, skip_empty=True
    )
    if table is None:
        return None  # nothing to tile; the full walk is free anyway
    template = PeriodicTemplate(
        circuit,
        initial_occupancy,
        dem_structure_key(params),
        detectors,
        observables,
        table,
        idle_pred,
        geom,
    )
    return template if template.usable else None


class _Tiling:
    """Lazy column recipe of a periodically extracted table.

    Holds everything :func:`_extract_periodic` verified — the template, the
    target's window count, index/label/detector translations — and builds
    each group of the table's columns only when a consumer asks
    (:func:`build_dem` reads :meth:`site_columns` and :meth:`mechanisms`).
    Window ``j`` repeats W1's columns with rows shifted ``(j - 1) * B``,
    labels ``j - 1`` replay copies on, and W1's distinct mechanism keys
    pushed ``j - 1`` copies forward through the detector translation.
    """

    def __init__(
        self,
        template: PeriodicTemplate,
        n_win: int,
        B: int,
        d_pos: int,
        label_maps,
        dnext_big: np.ndarray,
        tail_fps: list[tuple[int, ...]],
        tail_labels: list[str],
    ):
        self.template = template
        self.n_win = n_win
        self.B = B
        self.d_pos = d_pos
        self.label_maps = label_maps
        self.dnext_big = dnext_big
        self.tail_fps = tail_fps
        self.tail_labels = tail_labels

    @property
    def n_sites(self) -> int:
        tpl = self.template
        n_gen = tpl.i_gen - tpl.i_head
        return tpl.i_gen + (self.n_win - 1) * n_gen + tpl.table.n_sites - tpl.i_tail

    def _tiled(self, column: np.ndarray) -> np.ndarray:
        """A template column over the target: head, W1 per window, tail."""
        tpl = self.template
        reps = (self.n_win - 1,) + (1,) * (column.ndim - 1)
        return np.concatenate(
            [
                column[: tpl.i_gen],
                np.tile(column[tpl.i_head : tpl.i_gen], reps),
                column[tpl.i_tail :],
            ]
        )

    def site_columns(self) -> tuple[np.ndarray, np.ndarray]:
        kinds, durs = self.template.table.site_columns()
        return self._tiled(kinds), self._tiled(durs)

    def locations(self) -> tuple:
        tpl = self.template
        table = tpl.table
        offsets = np.arange(1, self.n_win, dtype=np.int64)[:, None] * self.B
        rows = np.concatenate(
            [
                table.rows[: tpl.i_gen],
                (table.rows[tpl.i_head : tpl.i_gen][None, :] + offsets).ravel(),
                table.rows[tpl.i_tail :] + self.d_pos,
            ]
        )
        labels = table.readout_labels[: tpl.n_head_reads]
        for j in range(2, self.n_win + 1):
            labels += [self.label_maps[k + j - 2][base] for k, base in tpl.g_read_kb]
        labels += self.tail_labels
        return rows, self._tiled(table.when), self._tiled(table.paulis), labels

    def mechanisms(self) -> tuple:
        """Mechanism ids over one sorted key list: the head's keys as walked,
        each window's translated W1 keys, and the translated tail keys."""
        tpl = self.template
        table = tpl.table
        dets, obs = table.key_detectors, table.key_observables.tolist()
        head_keys, head_inv = np.unique(table.mechanisms[: tpl.i_gen], return_inverse=True)
        keys = [(dets[k], obs[k]) for k in head_keys.tolist()]
        g_obs = [obs[k] for k in tpl.g_keys.tolist()]
        ids = tpl.g_flat_ids
        for _ in range(2, self.n_win + 1):
            ids = self.dnext_big[ids]
            flat = ids.tolist()
            keys += [(tuple(flat[a:b]), o) for (a, b), o in zip(tpl.g_fp_bounds, g_obs)]
        keys += zip(self.tail_fps, [obs[k] for k in tpl.t_keys.tolist()])
        distinct = sorted(set(keys))
        index = {key: m for m, key in enumerate(distinct)}
        remap = np.fromiter((index[key] for key in keys), dtype=np.int64, count=len(keys))
        n_head, n_gen = len(head_keys), len(tpl.g_keys)
        windows = n_head + n_gen * np.arange(self.n_win - 1, dtype=np.int64)[:, None]
        mech = np.concatenate(
            [
                remap[head_inv],
                remap[(windows + tpl.g_inv[None, :]).ravel()],
                remap[n_head + n_gen * (self.n_win - 1) + tpl.t_inv],
            ]
        )
        return (
            mech,
            [fp for fp, _ in distinct],
            np.array([o for _, o in distinct], dtype=np.uint64),
        )


class _TargetCheck:
    """One verified structural match of a target compile against a template.

    Everything :func:`_verify_periodic` proves depends only on the target's
    sorted columns, detector/observable layout, and the template — never on
    the noise *rates* — so the verdict is memoized on the sorted-columns
    object and later extractions for the same compile (e.g. other noise
    presets with the same structure key) skip straight to stamping out a
    table.
    The one structure-dependent piece, the bitwise idle-gap verification
    (only meaningful when dephasing is on), runs lazily once via
    :meth:`idle_gaps_ok`.
    """

    __slots__ = (
        "template",
        "detectors",
        "observables",
        "tiling",
        "n_win",
        "B",
        "h",
        "n_b",
        "d_pos",
        "n_bulk",
        "idle_ok",
    )

    def __init__(
        self,
        template: PeriodicTemplate,
        detectors: list[list[str]],
        observables: list[list[str]],
        tiling: "_Tiling",
        n_win: int,
        B: int,
        h: int,
        n_b: int,
        d_pos: int,
        n_bulk: int,
    ):
        self.template = template
        self.detectors = detectors
        self.observables = observables
        self.tiling = tiling
        self.n_win = n_win
        self.B = B
        self.h = h
        self.n_b = n_b
        self.d_pos = d_pos
        self.n_bulk = n_bulk
        self.idle_ok: bool | None = None

    def idle_gaps_ok(self, cols_b) -> bool:
        """Bitwise idle-gap reproduction at every tiled offset (memoized).

        Recomputes every tiled gap from the target's own time columns,
        exactly as the oracle would (start minus predecessor end), and
        requires bitwise equality with the template's durations.
        """
        if self.idle_ok is None:
            self.idle_ok = self._check_idle(cols_b)
        return self.idle_ok

    def _check_idle(self, cols_b) -> bool:
        tpl = self.template
        t_b, tend_b = cols_b.t, cols_b.t_end
        if tpl.g_idle_a.size:
            offs = (np.arange(self.n_win, dtype=np.int64) * self.B)[:, None]
            a = tpl.g_idle_a[None, :] + offs
            b = tpl.g_idle_b[None, :] + offs
            if a.max() >= self.n_b or b.min() < self.h:
                return False
            if not (t_b[a] - tend_b[b] == tpl.g_idle_durs[None, :]).all():
                return False
        if tpl.t_idle_a.size:
            a = tpl.t_idle_a + self.d_pos
            b = tpl.t_idle_b + self.d_pos
            if a.max() >= self.n_b or b.min() < self.h:
                return False
            if not (t_b[a] - tend_b[b] == tpl.t_idle_durs).all():
                return False
        return True

    def table(self) -> FaultTable:
        """A fresh lazy fault table over the shared tiling recipe."""
        tpl = self.template
        return FaultTable(
            len(self.detectors),
            len(self.observables),
            kernel=tpl.table.kernel,
            fallback_reason=tpl.table.fallback_reason,
            method="periodic",
            sites_per_round=tpl.i_gen - tpl.i_head,
            n_bulk_rounds=self.n_bulk,
            tiling=self.tiling,
        )


def _extract_periodic(
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
    params: NoiseParams,
    detectors: list[list[str]],
    observables: list[list[str]],
    template: PeriodicTemplate,
) -> FaultTable | None:
    """Tile a template's fault table onto ``circuit``, or ``None``.

    Every structural precondition is verified against the target's own
    columns before anything is trusted (see :func:`_verify_periodic`); any
    violation returns ``None`` and the caller falls back to the full walk.
    The verification verdict is rate-independent, so it is memoized per
    (sorted columns, template, detector layout) and repeat extractions cost
    O(one table construction).
    """
    if not template.usable:
        return None
    if dem_structure_key(params) != template.structure_key:
        return None
    if dict(initial_occupancy) != template.initial_occupancy:
        return None
    # The verification verdict is memoized *on* the sorted-columns object:
    # the circuit rebuilds that object on any mutation, so a stale entry is
    # unreachable by construction and the memo dies with its compile.
    cols_b = circuit.sorted_columns()
    entry = getattr(cols_b, "_periodic_check", None)
    if (
        entry is None
        or entry.template is not template
        or (entry.detectors is not detectors and entry.detectors != detectors)
        or entry.observables != observables
    ):
        entry = _verify_periodic(circuit, detectors, observables, template)
        if entry is None:
            return None
        cols_b._periodic_check = entry
    if params.t2_us is not None and not entry.idle_gaps_ok(cols_b):
        return None
    return entry.table()


def _verify_periodic(
    circuit: HardwareCircuit,
    detectors: list[list[str]],
    observables: list[list[str]],
    template: PeriodicTemplate,
) -> _TargetCheck | None:
    """Prove ``circuit`` is a tiling of ``template``, or ``None``.

    The checks (in order): a single periodic replay region with the
    template's ``B`` and ``h``; bitwise-identical prologue + first two
    windows (rows, times, labels); bitwise-identical epilogue rows with
    consistent label translation; observable definitions that translate
    exactly; early detector ids resolving identically in both compiles;
    footprint translation chains that never leave the detector set and stay
    sorted; and readout labels of the first window matching the template's.
    (Idle-gap durations are checked lazily — see
    :meth:`_TargetCheck.idle_gaps_ok`.)
    """
    geom_s = template.geom
    geom_b = _replay_geometry(circuit)
    if geom_b is None:
        return None
    B, h = geom_s["B"], geom_s["h"]
    if geom_b["B"] != B or geom_b["h"] != h:
        return None
    cols_s, cols_b = geom_s["cols"], geom_b["cols"]
    tau_s, tau_b = geom_s["tau"], geom_b["tau"]
    n_s, n_b = geom_s["n"], geom_b["n"]
    c_s, c_b = geom_s["C"], geom_b["C"]
    meta_b = geom_b["meta"]
    if n_b - tau_b != n_s - tau_s:
        return None
    head = h + 2 * B

    # Bitwise-identical prologue + W0 + W1 (rows, times, and labels).
    for a_b, a_s in (
        (cols_b.t, cols_s.t),
        (cols_b.codes, cols_s.codes),
        (cols_b.site0, cols_s.site0),
        (cols_b.site1, cols_s.site1),
        (cols_b.nsites, cols_s.nsites),
        (cols_b.duration, cols_s.duration),
    ):
        if not np.array_equal(a_b[:head], a_s[:head]):
            return None
    labs_b = cols_b.labels
    # Scan the target's labels once at C speed; Python-level work below is
    # bounded by the template's fixed-size head/tail label views.
    items_b = list(labs_b.items())
    pos_b = np.fromiter(labs_b.keys(), dtype=np.int64, count=len(labs_b))
    head_s = template.head_labels
    if int((pos_b < head).sum()) != len(head_s):
        return None
    for p, l in head_s.items():
        if labs_b.get(p) != l:
            return None

    # Bitwise-identical epilogue rows (up to the position shift d_pos).
    d_pos = tau_b - tau_s
    for a_b, a_s in (
        (cols_b.codes, cols_s.codes),
        (cols_b.site0, cols_s.site0),
        (cols_b.site1, cols_s.site1),
        (cols_b.nsites, cols_s.nsites),
        (cols_b.duration, cols_s.duration),
    ):
        if not np.array_equal(a_b[tau_b:], a_s[tau_s:]):
            return None
    tail_b = {
        items_b[i][0] - tau_b: items_b[i][1]
        for i in np.nonzero(pos_b >= tau_b)[0]
    }
    tail_s = template.tail_label_offsets
    if tail_b.keys() != tail_s.keys():
        return None
    tail_label = {tail_s[o]: tail_b[o] for o in tail_s}

    # Label translation: epilogue labels by position, replay labels by a
    # copy shift of d_copies; the two must agree where both apply.
    d_copies = c_b - c_s
    decomp_s = template.decomp

    def translate_label(lab: str) -> str | None:
        out = tail_label.get(lab)
        if out is not None:
            return out
        kb = decomp_s.get(lab)
        if kb is None:
            return None
        k2 = kb[0] + d_copies
        if k2 == 0:
            return kb[1]
        if 1 <= k2 <= c_b:
            return meta_b.label_maps[k2 - 1].get(kb[1])
        return None

    for small_lab, big_lab in tail_label.items():
        kb = decomp_s.get(small_lab)
        if kb is None:
            continue  # epilogue-born label (final data measurement)
        k2 = kb[0] + d_copies
        expect = (
            kb[1]
            if k2 == 0
            else (meta_b.label_maps[k2 - 1].get(kb[1]) if 1 <= k2 <= c_b else None)
        )
        if expect != big_lab:
            return None

    # Observables must be the template's observables, translated.
    if len(observables) != len(template.observables):
        return None
    for obs_s, obs_b in zip(template.observables, observables):
        translated = [translate_label(lab) for lab in obs_s]
        if None in translated or frozenset(translated) != frozenset(obs_b):
            return None

    # Detector machinery on the target side.
    index_b = _detector_index(detectors)
    if index_b is None:
        return None
    dnext_b = _detector_shift_map(detectors, index_b, _label_next(meta_b))

    # Early detector ids (everything prologue/W0/W1 footprints reference)
    # must mean the same detector in both compiles.
    det_s = template.detectors
    table_s = template.table
    early_ids = {
        d
        for k in np.unique(table_s.mechanisms[: template.i_gen]).tolist()
        for d in table_s.key_detectors[k]
    }
    for i in early_ids:
        if i >= len(detectors) or index_b.get(frozenset(det_s[i])) != i:
            return None

    # Footprint translation chains: W_j ids are W1 ids pushed j-1 copies
    # forward; every step must stay a real detector and stay ascending
    # within each footprint (the oracle emits sorted tuples).
    n_win = c_b - 3  # generated windows W_1 .. W_{C-3}; W_0 lives in the head
    if n_win < 1:
        return None
    ids = template.g_flat_ids
    intra = template.g_intra
    for _ in range(n_win - 1):
        ids = dnext_b[ids] if ids.size else ids
        if ids.size and ids.min() < 0:
            return None
        if intra.size and np.any(ids[intra + 1] <= ids[intra]):
            return None

    # W1 readout labels: tiling generates window j's labels from the
    # target's label maps; at j=1 that must reproduce the template's own
    # labels (which the head check proved are the target's W1 labels), and
    # the deepest window must stay within the target's copy range.
    for label, (k, base) in zip(template.g_read_labels, template.g_read_kb):
        if k + n_win - 2 >= c_b:
            return None
        if meta_b.label_maps[k - 1].get(base) != label:
            return None

    # Epilogue translation: readout labels and the distinct keys' footprints.
    det_big_of: dict[int, int] = {}

    def resolve_tail_det(i: int) -> int | None:
        j = det_big_of.get(i)
        if j is None:
            translated = [translate_label(lab) for lab in det_s[i]]
            j = -1 if None in translated else index_b.get(frozenset(translated), -1)
            det_big_of[i] = j
        return None if j < 0 else j

    tail_fps: list[tuple[int, ...]] = []
    for k in template.t_keys.tolist():
        mapped = [resolve_tail_det(i) for i in table_s.key_detectors[k]]
        if None in mapped:
            return None
        tail_fps.append(tuple(sorted(mapped)))
    tail_labels: list[str] = []
    for row, small_label in zip(template.t_read_rows, template.t_read_labels):
        label = tail_label.get(small_label)
        if label is None and small_label == f"m?{row}":
            label = f"m?{row + d_pos}"
        if label is None:
            return None
        tail_labels.append(label)

    tiling = _Tiling(
        template,
        n_win,
        B,
        d_pos,
        meta_b.label_maps,
        dnext_b,
        tail_fps,
        tail_labels,
    )
    return _TargetCheck(
        template,
        detectors,
        observables,
        tiling,
        n_win,
        B,
        h,
        n_b,
        d_pos,
        c_b - 2,
    )


@dataclass
class DetectorErrorModel:
    """Deduplicated error mechanisms of a noisy Clifford schedule.

    Mechanism ``m`` fires independently with probability ``probs[m]``,
    flipping the detectors in ``detectors[m]`` (sorted ids) and the
    observables set in bitmask ``observables[m]``.  ``kernel`` names the
    fold that built the model (``"native"`` or ``"python"``) and
    ``fallback_reason`` why the Python one ran; neither takes part in
    equality.
    """

    n_detectors: int
    n_observables: int
    probs: np.ndarray  # (M,) float64
    detectors: list[tuple[int, ...]]
    observables: np.ndarray  # (M,) uint64 bitmask
    kernel: str = field(default="python", compare=False)
    fallback_reason: str | None = field(default=None, compare=False)

    @property
    def n_mechanisms(self) -> int:
        return len(self.detectors)

    def detection_rates(self) -> np.ndarray:
        """Analytic per-detector marginal firing rates under independence.

        Detector ``d`` fires when an odd number of its mechanisms fire:
        ``0.5 * (1 - prod_m (1 - 2 p_m))`` over the mechanisms touching it.
        One unbuffered ``np.multiply.at`` accumulation in mechanism order —
        bit-identical to the per-mechanism loop it replaced
        (``detection_rates`` in ``tests/oracles.py``, the test oracle).
        """
        prod = np.ones(self.n_detectors)
        lengths = np.fromiter(
            (len(dets) for dets in self.detectors), dtype=np.int64, count=len(self.detectors)
        )
        flat = np.fromiter(
            (d for dets in self.detectors for d in dets),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        np.multiply.at(prod, flat, np.repeat(1.0 - 2.0 * self.probs, lengths))
        return 0.5 * (1.0 - prod)

    def observable_rates(self) -> np.ndarray:
        """Analytic marginal flip rate per observable (raw, undecoded).

        Same accumulation scheme as :meth:`detection_rates`; the loop
        oracle is ``observable_rates`` in ``tests/oracles.py``.
        """
        prod = np.ones(self.n_observables)
        factors = 1.0 - 2.0 * self.probs
        masks = np.asarray(self.observables, dtype=np.uint64)
        for o in range(self.n_observables):
            hit = (masks >> np.uint64(o)) & np.uint64(1) != 0
            np.multiply.at(prod, np.full(int(hit.sum()), o, dtype=np.int64), factors[hit])
        return 0.5 * (1.0 - prod)

    def to_dict(self) -> dict:
        """JSON-friendly dump (the ``tiscc dem --json`` artifact)."""
        return {
            "n_detectors": self.n_detectors,
            "n_observables": self.n_observables,
            "n_mechanisms": self.n_mechanisms,
            "mechanisms": [
                {
                    "probability": float(p),
                    "detectors": list(dets),
                    "observables": int(mask),
                }
                for p, dets, mask in zip(self.probs, self.detectors, self.observables)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DetectorErrorModel {self.n_mechanisms} mechanisms over "
            f"{self.n_detectors} detectors / {self.n_observables} observables>"
        )


def _bad_site(kinds: np.ndarray, mech: np.ndarray, n_keys: int, s: int) -> ValueError:
    """The error for fault site ``s``, whose kind or mechanism id is out of range."""
    if not 0 <= kinds[s] < len(KINDS):
        return ValueError(f"fault site {s} has kind code {kinds[s]}, outside 0..{len(KINDS) - 1}")
    return ValueError(f"fault site {s} has mechanism id {mech[s]}, outside the {n_keys} keys")


def _fold(
    kinds: np.ndarray,
    mech: np.ndarray,
    rates: np.ndarray,
    timed: np.ndarray | None,
    visible: np.ndarray,
) -> tuple:
    """:func:`build_dem`'s fold in NumPy, where no native kernel builds.

    Prices every site with one gather from the per-kind ``rates`` (the
    dephasing kinds from ``timed`` when given), groups the kept sites by a
    stable sort on mechanism id (in the narrowest unsigned dtype that holds
    the id count), and folds one step per rank within a group, every
    mechanism's ``r``-th site at once.  Returns ``(mechanism ids,
    probabilities)``, or raises :func:`_bad_site`'s error for the first
    site whose kind or mechanism id is out of range, as the native fold
    does.
    """
    bad = np.flatnonzero((kinds < 0) | (kinds >= len(KINDS)) | (mech < 0) | (mech >= len(visible)))
    if bad.size:
        raise _bad_site(kinds, mech, len(visible), int(bad[0]))
    probs = rates[kinds]
    if timed is not None:
        probs[kinds >= _KIND_CODE["dephase"]] = timed
    kept = np.flatnonzero(~(probs <= 0.0) & visible[mech])
    # NumPy radix-sorts 8- and 16-bit keys, and a stable sort's order is
    # the same for any key width.
    key = np.min_scalar_type(max(len(visible) - 1, 0))
    order = kept[np.argsort(mech[kept].astype(key), kind="stable")]
    ids = mech[order]
    site_p = probs[order]
    first = np.flatnonzero(np.diff(ids, prepend=-1))
    sizes = np.diff(first, append=ids.size)
    p = site_p[first]
    for rank in range(1, int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > rank)
        a, b = p[live], site_p[first[live] + rank]
        p[live] = a * (1.0 - b) + b * (1.0 - a)
    return ids[first], p


def build_dem(table: FaultTable, params: NoiseParams) -> DetectorErrorModel:
    """Fold a fault table and a parameter set into a deduplicated DEM.

    Sites with zero probability or no effect (empty footprint, no
    observable flip) are dropped; sites of one mechanism (identical
    footprint and observable mask) are XOR-combined
    (``p <- p_a (1 - p_b) + p_b (1 - p_a)``) in site order, which is exact
    for independent mechanisms.  Mechanisms come back in the table's sorted
    key order, so extraction is deterministic for a fixed circuit + noise
    pair.

    Prices sites as :class:`~repro.sim.noise.NoiseModel` does: each
    depolarizing term carries ``p/3`` (``p/15`` for two-qubit), and the
    dephasing kinds use the duration formula of
    :meth:`NoiseModel.dephasing_probability`, evaluated by NumPy over the
    timed sites.  The fold runs on the native kernel where it builds and in
    NumPy (:func:`_fold`) otherwise; both are bit-identical to the per-site
    dictionary loop (``build_dem`` in ``tests/oracles.py``), and the
    model's :attr:`~DetectorErrorModel.kernel` says which ran.  Either
    raises ``ValueError`` for the first site whose kind or mechanism id is
    out of range.  Reads only the table's kind, duration and mechanism-id
    columns, never a site object.
    """
    from repro.sim import _dem_native
    from repro.util import native

    kinds, durations = table.site_columns()
    rates = np.array([params.p1 / 3.0, params.p2 / 15.0, params.p_prep, params.p_meas, 0.0, 0.0])
    timed = None
    if params.t2_us is not None:
        dur = durations[kinds >= _KIND_CODE["dephase"]]
        timed = np.where(dur > 0, -0.5 * np.expm1(-dur / params.t2_us), 0.0)
    mech = table.mechanisms
    key_dets, key_obs = table.key_detectors, table.key_observables
    lengths = np.fromiter(map(len, key_dets), dtype=np.int64, count=len(key_dets))
    visible = (lengths > 0) | (key_obs != 0)
    lib, reason = native.load(SOURCE, _dem_native._declare)
    if lib is not None:
        mechs, probs = _dem_native.fold(lib, kinds, mech, rates, timed, visible)
    else:
        mechs, probs = _fold(kinds, mech, rates, timed, visible)
    return DetectorErrorModel(
        n_detectors=table.n_detectors,
        n_observables=table.n_observables,
        probs=probs,
        detectors=[key_dets[m] for m in mechs.tolist()],
        observables=key_obs[mechs],
        kernel="python" if lib is None else "native",
        fallback_reason=reason,
    )


def extract_dem(
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
    noise: NoiseModel,
    detectors: list[list[str]],
    observables: list[list[str]],
) -> DetectorErrorModel:
    """One-shot convenience: fault table + DEM for a single noise model.

    Callers sweeping rates should instead cache the
    :func:`extract_fault_table` result per :func:`dem_structure_key` and
    call :func:`build_dem` per parameter set (what
    :meth:`~repro.decode.memory.MemoryExperiment.detector_error_model`
    does).
    """
    table = extract_fault_table(
        circuit, initial_occupancy, noise.params, detectors, observables
    )
    return build_dem(table, noise.params)
