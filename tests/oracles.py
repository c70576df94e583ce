"""Reference implementations that the fast paths are tested against.

Each function is the plain loop a production routine replaced:

* the sweep loops compile and run one point at a time, in nesting order,
  with no cells, keys, cache or pool — ``repro.estimator.sweep`` must
  reproduce them bit for bit (timing fields aside) in every execution mode;
* the DEM marginal loops accumulate one mechanism at a time — the
  vectorized ``DetectorErrorModel.detection_rates``/``observable_rates``
  must equal them exactly;
* the DEM fold prices one fault site at a time and groups sites by
  ``(footprint, observable mask)`` in a dictionary — the columnar
  ``repro.sim.dem.build_dem`` must equal it exactly — and on request lists
  the sites each mechanism folds, which the cross-engine tests inject into
  the production DEM's mechanisms (``dem_sources``);
* the round loop compiles every QEC round with ``schedule_round``, one at
  a time — ``SyndromeScheduler.schedule_rounds``' template replay must
  emit the same stream, records and grid state (tests patch it in);
* the transient walk finds a template round's entry-anchored prefix chains
  one row at a time — ``SyndromeScheduler._transform_override``'s array
  analysis must return the same positions and times, bit for bit, or
  ``None`` where it does;
* the DEM graph loop merges one mechanism at a time into a dictionary
  keyed by detector pair — the columnar ``repro.decode.graph.build_dem_graph``
  must equal it exactly (edge order, endpoints, frames, weight bits);
* the union-find tables are built one edge at a time: endpoints, frame
  bits, capacities, a cursor-filled CSR adjacency and the lone-defect
  Dijkstra over per-node edge lists — ``UnionFindDecoder``'s array-built
  tables must equal them exactly;
* the schedule graph derives a memory experiment's decoding graph from its
  face supports and visit layers, with unit weights — every DEM-built
  graph must share its nodes and the frame bit of every shared edge, and
  the decoders are checked on its single faults;
* the memory syndrome loop rebuilds a tableau batch's detectors round by
  round from the patch's round records and reads the logical flip off the
  compiled readout's sign — ``MemoryExperiment.syndromes`` and
  ``measured_flips``, XORs over the DEM's detector and observable labels,
  must equal it exactly.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.compiler import TISCC
from repro.decode.base import integer_weights
from repro.decode.graph import BOUNDARY, DetectorEdge, MatchingGraph
from repro.decode.memory import MemoryExperiment
from repro.estimator.sweep import OPERATION_PROGRAMS, _profiles, _resolve_noise
from repro.sim.dem import DetectorErrorModel
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
                reports.append(experiment.run(shots, noise=model, seed=seed, engine=engine))
    return reports


def memory_syndromes(exp: MemoryExperiment, batch) -> tuple[np.ndarray, np.ndarray]:
    """A tableau batch's ``(detector matrix, raw logical flips)``, round by round.

    Slice 0 is the first round's face outcomes, slices ``1..R-1`` XOR
    consecutive rounds, and slice ``R`` XORs the last round against the face
    parities of the final transversal data measurements.  A flip is a
    negative logical readout sign.
    """
    patch = exp.compiler.tiles[(0, 0)].patch
    measure = exp.compiled.results[-1]
    site_label = {patch.layout.data_site(*ij): label for ij, label in measure.labels.items()}
    layers = [
        np.stack([batch.outcomes[rec.outcome_labels[face.face]] for face in exp.faces], axis=1)
        for rec in patch.round_records
    ]
    final = np.zeros_like(layers[0])
    for i, face in enumerate(exp.faces):
        for site in face.data_sites.values():
            final[:, i] ^= batch.outcomes[site_label[site]]
    layers.append(final)
    slices = [layers[0]] + [cur ^ prev for prev, cur in zip(layers, layers[1:])]
    flips = (np.asarray(measure.value(batch)) < 0).astype(np.uint8)
    return np.concatenate(slices, axis=1), flips


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


def site_probability(site, params) -> float:
    """One fault site's firing probability under a parameter set.

    Each depolarizing term carries ``p/3`` (``p/15`` for two-qubit), and the
    dephasing kinds use the duration formula of
    ``NoiseModel.dephasing_probability``.
    """
    if site.kind == "gate1":
        return params.p1 / 3.0
    if site.kind == "gate2":
        return params.p2 / 15.0
    if site.kind == "prep":
        return params.p_prep
    if site.kind == "readout":
        return params.p_meas
    if site.kind in ("dephase", "idle"):
        if params.t2_us is None or site.duration_us <= 0:
            return 0.0
        return -0.5 * float(np.expm1(-site.duration_us / params.t2_us))
    raise ValueError(f"unknown fault kind {site.kind!r}")


def schedule_rounds(self, circuit, plaquettes, measure_ions, data_ion_at, rounds, t_min=0.0):
    """``SyndromeScheduler.schedule_rounds`` without template replay."""
    records = []
    t = t_min
    for _ in range(rounds):
        rec = self.schedule_round(circuit, plaquettes, measure_ions, data_ion_at, t)
        records.append(rec)
        t = rec.t_end
    return records


#: Timing slack of the template-replay checks (``stabilizer_circuits._EPS``).
_EPS = 1e-9


def transform_override(self, circuit, block, data_ion_at, ready_before, delta, t_end, why=None):
    """``SyndromeScheduler._transform_override`` as one walk over the block.

    ``why``, when given, is a list that receives the reason for a ``None``:
    ``"no chain"``, ``"no phase-0 chain"``, ``"never absorbed"``, ``"past
    the phase-0 floor"``, ``"flips the absorbing max"`` or ``"past the
    shifted phase-0 floor"``.
    """

    def none(reason):
        if why is not None:
            why.append(reason)
        return None

    start, stop = block
    cols = circuit.columns()
    site0 = cols.site0[start:stop].tolist()
    site1 = cols.site1[start:stop].tolist()
    ts = cols.t[start:stop].tolist()
    durs = cols.duration[start:stop].tolist()
    two_site = (cols.nsites[start:stop] == 2).tolist()
    grid = self.grid
    t_start = t_end - delta

    entry_of = {}
    for site, ion in data_ion_at.items():
        ready = ready_before.get(ion)
        if ready is not None:
            entry_of[site] = (ion, ready)
    # One walk over the block: grow each data site's entry-anchored
    # prefix chain until a mismatching or two-site row absorbs it, and
    # in parallel measure every *non-data* site's round-start-anchored
    # opening chain (the measure ions' phase-0 preparations).
    chain: dict[int, list[int]] = {}  # data site -> chain positions
    clock: dict[int, float] = {}  # data site -> continued entry clock
    absorbed: dict[int, float] = {}  # data site -> absorbing row start
    phase0: dict[int, float] = {}  # non-data site -> t_min-anchored end
    phase0_done: set[int] = set()
    for p in range(len(ts)):
        sites = (site0[p], site1[p]) if two_site[p] else (site0[p],)
        for s in sites:
            info = entry_of.get(s)
            if info is None:
                if s in phase0_done:
                    continue
                expected = phase0.get(s, t_start)
                if not two_site[p] and ts[p] == expected:
                    phase0[s] = ts[p] + durs[p]
                else:
                    phase0_done.add(s)
                continue
            if s in absorbed:
                continue
            expected = clock.get(s, info[1])
            if not two_site[p] and ts[p] == expected:
                chain.setdefault(s, []).append(p)
                clock[s] = ts[p] + durs[p]
            else:
                absorbed[s] = ts[p]  # first non-chain row touching s
    if not chain:
        return none("no chain")
    if not phase0:
        return none("no phase-0 chain")
    phase0_floor = min(phase0.values())
    positions: list[int] = []
    times: list[float] = []
    for s, rows in chain.items():
        absorb = absorbed.get(s)
        if absorb is None:
            return none("never absorbed")
        ion = entry_of[s][0]
        new_clock = grid.ion_ready(ion)  # end-of-template clock
        if clock[s] > phase0_floor + _EPS:
            return none("past the phase-0 floor")
        for p in rows:
            positions.append(p)
            times.append(new_clock)
            new_clock += durs[p]
        if new_clock > absorb + delta + _EPS:
            return none("flips the absorbing max")
        if new_clock > phase0_floor + delta + _EPS:
            return none("past the shifted phase-0 floor")
    return (
        np.array(positions, dtype=np.int64),
        np.array(times, dtype=np.float64),
    )


def build_dem(table, params, keep_sources=False):
    """A fault table's DEM, grouping one site at a time in a dictionary.

    With ``keep_sources`` returns ``(dem, sources)``, where ``sources[m]``
    lists the fault sites folded into mechanism ``m`` in site order.
    """
    sites = table.sites
    groups: dict[tuple[tuple[int, ...], int], list] = {}
    obs_list = table.observables.tolist()
    for s, footprint in enumerate(table.footprints):
        p = site_probability(sites[s], params)
        if p <= 0.0:
            continue
        obs = obs_list[s]
        if not footprint and not obs:
            continue  # invisible fault: flips nothing deterministic
        entry = groups.get((footprint, obs))
        if entry is None:
            groups[(footprint, obs)] = [p, [s]]
        else:
            entry[0] = entry[0] * (1.0 - p) + p * (1.0 - entry[0])
            entry[1].append(s)

    keys = sorted(groups)
    dem = DetectorErrorModel(
        n_detectors=table.n_detectors,
        n_observables=table.n_observables,
        probs=np.array([groups[k][0] for k in keys], dtype=np.float64),
        detectors=[k[0] for k in keys],
        observables=np.array([k[1] for k in keys], dtype=np.uint64),
    )
    if not keep_sources:
        return dem
    return dem, [tuple(sites[s] for s in groups[k][1]) for k in keys]


def dem_sources(dem, table, params) -> list[tuple]:
    """The fault sites folded into each mechanism of ``dem``, a fold of ``table``.

    Asserts first that ``dem`` equals this module's fold of ``table``
    (probabilities bitwise, footprints, observable masks), so ``sources[m]``
    lists the sites of ``dem``'s own mechanism ``m``.
    """
    oracle, sources = build_dem(table, params, keep_sources=True)
    assert np.array_equal(dem.probs, oracle.probs)  # float64, bitwise
    assert dem.detectors == oracle.detectors
    assert np.array_equal(dem.observables, oracle.observables)
    return sources


def build_dem_graph(dem, observable: int = 0) -> MatchingGraph:
    """A DEM's decoding graph, merging one mechanism at a time in a dictionary."""
    if not 0 <= observable < dem.n_observables:
        raise ValueError(
            f"observable {observable} out of range for {dem.n_observables} observables"
        )
    # pair -> [combined probability, frame of strongest source, strongest p]
    merged: dict[tuple[int, int], list] = {}
    for p, dets, mask in zip(dem.probs, dem.detectors, dem.observables):
        p = float(p)
        if p <= 0.0:
            continue
        frame = int(mask) >> observable & 1
        if len(dets) == 0:
            continue  # undetectable: invisible to every detector
        if len(dets) == 1:
            pair = (int(dets[0]), BOUNDARY)
        elif len(dets) == 2:
            pair = (int(dets[0]), int(dets[1]))
        else:
            raise ValueError(
                f"mechanism fires {len(dets)} detectors {tuple(dets)}; a "
                "matching graph needs at most two — decompose hyperedges first"
            )
        entry = merged.get(pair)
        if entry is None:
            merged[pair] = [p, frame, p]
        else:
            entry[0] = entry[0] * (1.0 - p) + p * (1.0 - entry[0])
            if p > entry[2]:
                entry[1], entry[2] = frame, p
    weight_of: dict[float, float] = {}
    edges = []
    for (u, v), (p, frame, _) in sorted(merged.items()):
        p = min(max(p, 1e-12), 0.5 - 1e-12)
        weight = weight_of.get(p)
        if weight is None:
            weight = weight_of[p] = math.log((1.0 - p) / p)
        edges.append(DetectorEdge(u, v, frame, "dem", weight))
    return MatchingGraph(dem.n_detectors, edges)


def union_find_tables(graph: MatchingGraph, weighted: bool = True) -> dict[str, np.ndarray]:
    """A union-find decoder's tables, one edge at a time.

    Edge endpoints ``eu``/``ev`` (the boundary is node ``n``), ``frame``,
    integer capacities ``cap``, the CSR adjacency ``indptr``/``adj_edge``
    filled through per-node cursors in edge order, and the lone-defect
    table: a Dijkstra sweep from the boundary over per-node edge lists
    giving each detector's path parity (``single_verdict``) and whether a
    path exists (``single_reachable``).
    """
    n, n_edges = graph.n_detectors, graph.n_edges
    eu = np.empty(n_edges, dtype=np.int64)
    ev = np.empty(n_edges, dtype=np.int64)
    frame = np.empty(n_edges, dtype=np.uint8)
    for k, e in enumerate(graph.edges):
        eu[k] = n if e.u == BOUNDARY else e.u
        ev[k] = n if e.v == BOUNDARY else e.v
        frame[k] = e.frame
    if weighted and graph.is_weighted:
        weights = np.array([e.weight for e in graph.edges], dtype=np.float64)
    else:
        weights = np.ones(n_edges, dtype=np.float64)
    cap = integer_weights(weights)
    degree = np.zeros(n + 2, dtype=np.int64)
    for k in range(n_edges):
        degree[eu[k] + 1] += 1
        degree[ev[k] + 1] += 1
    indptr = np.cumsum(degree)
    adj_edge = np.empty(2 * n_edges, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for k in range(n_edges):
        for node in (eu[k], ev[k]):
            adj_edge[cursor[node]] = k
            cursor[node] += 1

    adj = [adj_edge[indptr[i] : indptr[i + 1]].tolist() for i in range(n + 1)]
    eu_l, ev_l, frame_l, cap_l = eu.tolist(), ev.tolist(), frame.tolist(), cap.tolist()
    dist = [math.inf] * (n + 1)
    par = [0] * (n + 1)
    dist[n] = 0.0
    heap: list[tuple[float, int]] = [(0.0, n)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for k in adj[u]:
            v = ev_l[k] if eu_l[k] == u else eu_l[k]
            nd = d + cap_l[k]
            if nd < dist[v]:
                dist[v] = nd
                par[v] = par[u] ^ frame_l[k]
                heapq.heappush(heap, (nd, v))
    return {
        "eu": eu,
        "ev": ev,
        "frame": frame,
        "cap": cap,
        "indptr": indptr,
        "adj_edge": adj_edge,
        "single_verdict": np.array(par[:n], dtype=np.uint8),
        "single_reachable": np.array([dist[i] < math.inf for i in range(n)], dtype=bool),
    }


def build_memory_graph(face_supports, logical_sites, rounds, visit_layers=None) -> MatchingGraph:
    """Decoding graph for ``rounds`` QEC rounds over one stabilizer sector.

    ``face_supports[f]`` is the set of data qsites checked by face ``f`` (all
    faces of the sector anticommuting with the error type that flips the
    tracked logical); ``logical_sites`` the tracked logical operator's data
    support.  Detector ``(f, t)`` gets node id ``t * F + f`` for time slices
    ``t = 0 .. rounds`` — the layout syndrome extraction must follow.

    ``visit_layers[f]`` maps each of face ``f``'s data qsites to the layer
    (1-4) in which its measure ion visits that qubit; when given, mid-round
    data errors on shared qubits get their exact diagonal edges (without
    them a single such fault needs two edges, which noticeably degrades the
    union-find decoder's effective distance).
    """
    if rounds < 1:
        raise ValueError("need at least one round of error correction")
    n_faces = len(face_supports)
    if n_faces < 1:
        raise ValueError("need at least one face in the decoded sector")

    site_faces: dict[int, list[int]] = {}
    for f, support in enumerate(face_supports):
        for site in support:
            site_faces.setdefault(site, []).append(f)

    edges: list[DetectorEdge] = []
    slices = rounds + 1
    for t in range(slices):
        base = t * n_faces
        for site, faces in sorted(site_faces.items()):
            frame = 1 if site in logical_sites else 0
            if len(faces) == 2:
                edges.append(DetectorEdge(base + faces[0], base + faces[1], frame, "space"))
            elif len(faces) == 1:
                edges.append(DetectorEdge(base + faces[0], BOUNDARY, frame, "space"))
            else:
                raise ValueError(
                    f"data site {site} is checked by {len(faces)} same-sector "
                    "faces; a surface-code sector allows at most two"
                )
    for t in range(slices - 1):
        for f in range(n_faces):
            edges.append(DetectorEdge(t * n_faces + f, (t + 1) * n_faces + f, 0, "time"))
    if visit_layers is not None:
        if len(visit_layers) != n_faces:
            raise ValueError("visit_layers must give one site->layer map per face")
        for site, faces in sorted(site_faces.items()):
            if len(faces) != 2:
                continue  # boundary qubits are covered at both adjacent slices
            frame = 1 if site in logical_sites else 0
            early, late = sorted(faces, key=lambda f: visit_layers[f][site])
            if visit_layers[early][site] == visit_layers[late][site]:
                raise ValueError(
                    f"faces {early} and {late} both visit site {site} in "
                    "the same layer; the Z/N pattern forbids this"
                )
            for t in range(slices - 1):
                edges.append(
                    DetectorEdge(t * n_faces + late, (t + 1) * n_faces + early, frame, "diagonal")
                )
    return MatchingGraph(slices * n_faces, edges)


def schedule_graph(exp: MemoryExperiment) -> MatchingGraph:
    """A memory experiment's schedule-built graph, visit-layer diagonals included."""
    return build_memory_graph(
        [set(p.data_sites.values()) for p in exp.faces],
        exp.logical_sites,
        exp.rounds,
        visit_layers=[
            {p.data_sites[corner]: layer for layer, corner in p.visits()} for p in exp.faces
        ],
    )
