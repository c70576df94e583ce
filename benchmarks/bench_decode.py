"""Decode-throughput benchmark: batched weighted union-find vs the PR 2 decoder.

Acceptance target for the pluggable decoder subsystem: at d=7 with 20 000
near-term shots the rewritten union-find hot path (CSR adjacency,
preallocated state, event-driven weighted growth, batch dedup + fast
paths) must decode at least **10x** faster than the pre-refactor decoder
(which re-scanned every graph edge per growth round, shot by shot), and a
``logical_error_sweep(engine="frame")`` at that scale must run at least
**5x** faster end-to-end, with decode no longer dominating the profile.
The weighted decoder's LER must also not exceed the unweighted one's on
the same syndromes.  The report names the union-find kernel that ran
(``native`` C or the ``python`` fallback, with the reason) and the JSON
records it, along with decoder set-up: the median seconds to build the
DEM matching graph and to construct the union-find decoder over it.

Run directly::

    python benchmarks/bench_decode.py            # full: d=7, 20000 shots, >=10x
    python benchmarks/bench_decode.py --quick    # CI smoke: d=5, 2000 shots, >=3x
    python benchmarks/bench_decode.py --json BENCH_decode.json
    python benchmarks/bench_decode.py --min-speedup 2   # nightly regression gate
    python benchmarks/bench_decode.py --window --quick  # sliding-window gates
    python benchmarks/bench_decode.py --window --json BENCH_decode.json

or via pytest (quick scale): ``pytest benchmarks/bench_decode.py -s``.

``--window`` switches to the sliding-window acceptance gates: at every
standard sweep point the windowed decoder's LER must lie inside the
whole-block decoder's Wilson 95% interval (and vice versa — same
syndromes, so any real divergence shows immediately); the windowed
decoder's per-window state must stay *constant* as rounds grow from
``10·d`` to ``20·d`` while whole-block state doubles (array-size
accounting — the O(window) memory claim); and windowed throughput must
clear a shots/s floor.  With ``--json`` pointing at an existing results
file the window section is merged in under a ``"window"`` key, extending
BENCH_decode.json rather than replacing it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.decode import MemoryExperiment, UnionFindDecoder
from repro.decode.graph import BOUNDARY, MatchingGraph, build_dem_graph
from repro.estimator.sweep import logical_error_sweep
from repro.sim.noise import NoiseModel

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table


class LegacyUnionFindDecoder:
    """The PR 2 union-find decoder, verbatim: the pre-refactor baseline.

    Kept here (not in the library) so the benchmark always measures the new
    hot path against the exact decoder it replaced: Python-list adjacency,
    unweighted half-step growth that re-scans every ungrown edge each
    round, and shot-by-shot decoding behind a syndrome dedup.
    """

    def __init__(self, graph: MatchingGraph):
        self.graph = graph
        self.n = graph.n_detectors
        self._eu = np.empty(graph.n_edges, dtype=np.int64)
        self._ev = np.empty(graph.n_edges, dtype=np.int64)
        self._frame = np.empty(graph.n_edges, dtype=np.uint8)
        for k, e in enumerate(graph.edges):
            self._eu[k] = self.n if e.u == BOUNDARY else e.u
            self._ev[k] = self.n if e.v == BOUNDARY else e.v
            self._frame[k] = e.frame
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for k in range(graph.n_edges):
            u, v = int(self._eu[k]), int(self._ev[k])
            self._adj[u].append((k, v))
            self._adj[v].append((k, u))

    @staticmethod
    def _find(parent: list, a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def decode(self, syndrome: np.ndarray) -> int:
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        defects = np.nonzero(syndrome)[0].tolist()
        if not defects:
            return 0
        support = self._grow(defects, syndrome)
        return self._peel(support, syndrome)

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        unique, inverse = np.unique(syndromes, axis=0, return_inverse=True)
        verdicts = np.array([self.decode(row) for row in unique], dtype=np.uint8)
        return verdicts[inverse.reshape(-1)]

    def _grow(self, defects: list, syndrome: np.ndarray) -> np.ndarray:
        n, b = self.n, self.n
        parent = list(range(n + 1))
        parity = syndrome.astype(np.int8).tolist() + [0]
        growth = np.zeros(self.graph.n_edges, dtype=np.int8)
        eu, ev = self._eu, self._ev
        find = self._find
        for _ in range(2 * (self.graph.n_edges + 1)):
            boundary_root = find(parent, b)
            active = {
                r
                for r in {find(parent, d) for d in defects}
                if parity[r] % 2 == 1 and r != boundary_root
            }
            if not active:
                return growth >= 2
            for k in np.nonzero(growth < 2)[0]:
                u, v = int(eu[k]), int(ev[k])
                ru, rv = find(parent, u), find(parent, v)
                step = (ru in active) + (rv in active)
                if step == 0:
                    continue
                growth[k] += step
                if growth[k] >= 2 and ru != rv:
                    parent[ru] = rv
                    parity[rv] += parity[ru]
        raise RuntimeError("union-find growth failed to converge")

    def _peel(self, support: np.ndarray, syndrome: np.ndarray) -> int:
        n, b = self.n, self.n
        visited = [False] * (n + 1)
        defect = syndrome.astype(np.int8).tolist() + [0]
        parent_edge = [-1] * (n + 1)
        parent_node = [-1] * (n + 1)
        flip = 0
        order: list[int] = []
        for root in [b] + list(range(n)):
            if visited[root]:
                continue
            if root != b and not any(support[k] for k, _ in self._adj[root]):
                continue
            visited[root] = True
            queue = [root]
            while queue:
                cur = queue.pop(0)
                order.append(cur)
                for k, other in self._adj[cur]:
                    if not support[k] or visited[other]:
                        continue
                    visited[other] = True
                    parent_edge[other] = k
                    parent_node[other] = cur
                    queue.append(other)
        for v in reversed(order):
            if parent_edge[v] < 0 or not defect[v]:
                continue
            flip ^= int(self._frame[parent_edge[v]])
            defect[v] = 0
            defect[parent_node[v]] ^= 1
        defect[b] = 0
        return flip


#: Repeats of the decoder set-up timing; the report keeps the median.
SETUP_REPEATS = 5


def time_setup(experiment: MemoryExperiment, model: NoiseModel) -> dict:
    """Median seconds to build the DEM graph, then the union-find decoder over it."""
    dem = experiment.detector_error_model(model)
    graph_s, decoder_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        graph = build_dem_graph(dem)
        t1 = time.perf_counter()
        UnionFindDecoder(graph)
        t2 = time.perf_counter()
        graph_s.append(t1 - t0)
        decoder_s.append(t2 - t1)
    return {
        "graph_seconds": statistics.median(graph_s),
        "decoder_seconds": statistics.median(decoder_s),
        "repeats": SETUP_REPEATS,
    }


def run_bench(d: int = 7, shots: int = 20000, seed: int = 0) -> dict:
    """Time legacy vs rewritten decoders on one near-term syndrome batch."""
    model = NoiseModel.preset("near_term")
    t0 = time.perf_counter()
    experiment = MemoryExperiment(distance=d, basis="Z")
    t_compile = time.perf_counter() - t0

    t0 = time.perf_counter()
    samples = experiment.sample_frame(shots, noise=model, seed=seed)
    t_sample = time.perf_counter() - t0
    dets, raw = samples.detectors, samples.observables[:, 0]

    rows = []

    def time_decoder(label, decoder):
        t0 = time.perf_counter()
        predicted = decoder.decode_batch(dets)
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "decoder": label,
                "seconds": elapsed,
                "shots_per_second": shots / elapsed,
                "ler": float((raw ^ predicted).mean()),
            }
        )
        return elapsed

    graph = experiment.matching_graph(model)
    t_legacy = time_decoder("legacy (PR 2)", LegacyUnionFindDecoder(graph))
    weighted = experiment.decoder_for(model)
    t_weighted = time_decoder("union_find", weighted)
    setup = time_setup(experiment, model)
    t_unweighted = time_decoder(
        "union_find_unweighted", experiment.decoder_for(model, "union_find_unweighted")
    )

    # End-to-end sweep profile on the frame engine (one distance, one rate).
    t0 = time.perf_counter()
    report = logical_error_sweep(
        [d], noise_models=[model], shots=shots, seed=seed, engine="frame"
    )[0]
    t_sweep = time.perf_counter() - t0
    legacy_sweep = report.sim_seconds + t_legacy  # same samples, legacy decode

    by = {r["decoder"]: r for r in rows}
    return {
        "d": d,
        "shots": shots,
        "noise": model.name,
        "kernel": weighted.kernel,
        "kernel_fallback_reason": weighted.fallback_reason,
        "detectors": experiment.n_detectors,
        "dem_edges": graph.n_edges,
        "compile_seconds": t_compile,
        "sample_seconds": t_sample,
        "setup": setup,
        "decoders": rows,
        "speedup": t_legacy / t_weighted,
        "speedup_unweighted": t_legacy / t_unweighted,
        "sweep_seconds": t_sweep,
        "sweep_sim_seconds": report.sim_seconds,
        "sweep_decode_seconds": report.decode_seconds,
        "sweep_decode_fraction": report.decode_seconds / t_sweep,
        "legacy_sweep_seconds": legacy_sweep,
        "sweep_speedup": legacy_sweep / t_sweep,
        "weighted_not_worse": by["union_find"]["ler"] <= by["union_find_unweighted"]["ler"],
    }


#: Standard sweep points of the windowed-vs-whole-block parity gate:
#: (distance, noise spec) with a shots budget per scale.  ``"near_term"``
#: is the calibrated preset; floats become single-knob uniform models.
WINDOW_SWEEP_POINTS = [
    (3, 3e-4),
    (3, 1e-3),
    (3, 5e-3),
    (3, "near_term"),
    (5, 1e-3),
    (5, 5e-3),
    (5, "near_term"),
]
WINDOW_SWEEP_POINTS_QUICK = [(3, 1e-3), (3, 5e-3), (3, "near_term"), (5, 5e-3)]


def _window_model(spec) -> NoiseModel:
    return NoiseModel.preset(spec) if isinstance(spec, str) else NoiseModel.uniform(spec)


def run_window_bench(quick: bool = False, seed: int = 0) -> dict:
    """Sliding-window acceptance run: LER parity, O(window) memory, throughput.

    Every point decodes the *same* syndrome batch whole-block and windowed
    (default window ``2d``/commit ``d``), so the Wilson-interval parity
    check compares decoders, not sampling noise.  Points run at
    ``rounds = 10·d`` — long enough that the window genuinely slides
    (at the default ``rounds = d`` a ``2d`` window would degenerate to a
    single whole-block window and the parity gate would test nothing).
    """
    from repro.util.stats import intervals_overlap, wilson_interval

    shots = 2000 if quick else 10000
    points = WINDOW_SWEEP_POINTS_QUICK if quick else WINDOW_SWEEP_POINTS
    rows = []
    parity_ok = True
    worst_throughput = float("inf")
    for d, spec in points:
        model = _window_model(spec)
        experiment = MemoryExperiment(distance=d, rounds=10 * d, basis="Z")
        samples = experiment.sample_frame(shots, noise=model, seed=seed)
        dets, raw = samples.detectors, samples.observables[:, 0]

        whole = experiment.decoder_for(model)
        t0 = time.perf_counter()
        fail_whole = int((raw ^ whole.decode_batch(dets)).sum())
        t_whole = time.perf_counter() - t0

        win = experiment.decoder_for(model, "union_find_windowed")
        t0 = time.perf_counter()
        fail_win = int((raw ^ win.decode_batch(dets)).sum())
        t_win = time.perf_counter() - t0

        iv_whole = wilson_interval(fail_whole, shots)
        iv_win = wilson_interval(fail_win, shots)
        overlap = intervals_overlap(iv_whole, iv_win)
        parity_ok = parity_ok and overlap
        worst_throughput = min(worst_throughput, shots / t_win)
        rows.append(
            {
                "d": d,
                "noise": model.name,
                "shots": shots,
                "window": win.window,
                "commit": win.commit,
                "ler_whole": fail_whole / shots,
                "ler_windowed": fail_win / shots,
                "wilson_whole": list(iv_whole),
                "wilson_windowed": list(iv_win),
                "wilson_overlap": overlap,
                "whole_shots_per_second": shots / t_whole,
                "windowed_shots_per_second": shots / t_win,
            }
        )

    # O(window) memory: stretching the experiment from rounds=10d to 20d
    # doubles the whole-block decoder's detector state but must leave the
    # windowed decoder's per-window state untouched (array-size accounting;
    # the streaming buffer is likewise window-bound by construction).
    memory_rows = []
    memory_ok = True
    d_mem = 3 if quick else 5
    model = _window_model(1e-3)
    peaks = {}
    for rounds in (10 * d_mem, 20 * d_mem):
        experiment = MemoryExperiment(distance=d_mem, rounds=rounds, basis="Z")
        win = experiment.decoder_for(model, "union_find_windowed")
        peaks[rounds] = win.peak_window_detectors
        memory_rows.append(
            {
                "d": d_mem,
                "rounds": rounds,
                "whole_block_detectors": experiment.n_detectors,
                "peak_window_detectors": win.peak_window_detectors,
                "window_kinds": win.n_window_kinds,
            }
        )
    memory_ok = (
        peaks[10 * d_mem] == peaks[20 * d_mem]
        and peaks[20 * d_mem] < memory_rows[-1]["whole_block_detectors"]
    )

    return {
        "mode": "window",
        "kernel": whole.kernel,
        "kernel_fallback_reason": whole.fallback_reason,
        "quick": quick,
        "shots": shots,
        "points": rows,
        "parity_ok": parity_ok,
        "memory": memory_rows,
        "memory_ok": memory_ok,
        "min_windowed_shots_per_second": worst_throughput,
    }


def kernel_line(res: dict) -> str:
    """Which union-find kernel decoded, and why when it is the fallback."""
    reason = res["kernel_fallback_reason"]
    return f"union-find kernel: {res['kernel']}" + (f" ({reason})" if reason else "")


def report_window(res: dict) -> None:
    print(kernel_line(res))
    print_table(
        f"sliding-window vs whole-block union-find ({res['shots']} shots/point)",
        ["d", "noise", "w/c", "LER whole", "LER windowed", "overlap", "win shots/s"],
        [
            [
                str(r["d"]),
                r["noise"],
                f"{r['window']}/{r['commit']}",
                f"{r['ler_whole']:.5f}",
                f"{r['ler_windowed']:.5f}",
                "yes" if r["wilson_overlap"] else "NO",
                f"{r['windowed_shots_per_second']:.0f}",
            ]
            for r in res["points"]
        ],
    )
    for m in res["memory"]:
        print(
            f"d={m['d']} rounds={m['rounds']}: whole-block state "
            f"{m['whole_block_detectors']} detectors vs windowed peak "
            f"{m['peak_window_detectors']} ({m['window_kinds']} window kinds)"
        )
    print(
        f"parity_ok={res['parity_ok']} memory_ok={res['memory_ok']} "
        f"worst windowed throughput {res['min_windowed_shots_per_second']:.0f} shots/s"
    )


def report(res: dict) -> None:
    print(kernel_line(res))
    print_table(
        f"batched decode throughput (d={res['d']}, {res['shots']} shots, "
        f"{res['noise']}, {res['detectors']} detectors, "
        f"{res['dem_edges']} DEM edges)",
        ["decoder", "decode [s]", "shots/s", "LER"],
        [
            [
                r["decoder"],
                f"{r['seconds']:.3f}",
                f"{r['shots_per_second']:.0f}",
                f"{r['ler']:.5f}",
            ]
            for r in res["decoders"]
        ],
    )
    setup = res["setup"]
    print_table(
        f"decoder set-up (median of {setup['repeats']})",
        ["step", "seconds"],
        [
            ["DEM graph build", f"{setup['graph_seconds']:.4f}"],
            ["union_find construction", f"{setup['decoder_seconds']:.4f}"],
        ],
    )
    print(
        f"decode speedup over the PR 2 decoder: {res['speedup']:.1f}x weighted, "
        f"{res['speedup_unweighted']:.1f}x unweighted"
    )
    print(
        f"end-to-end frame sweep: {res['sweep_seconds']:.2f} s "
        f"(decode {res['sweep_decode_seconds']:.2f} s = "
        f"{100 * res['sweep_decode_fraction']:.0f}% of wall time) vs "
        f"{res['legacy_sweep_seconds']:.2f} s with the legacy decoder "
        f"-> {res['sweep_speedup']:.1f}x"
    )


def test_decode_speedup():
    """Quick-scale pytest entry: the rewritten decoder must win clearly."""
    res = run_bench(d=5, shots=2000)
    report(res)
    assert res["speedup"] >= 3.0
    assert res["weighted_not_worse"]


def test_windowed_decode_gates():
    """Quick-scale pytest entry for the sliding-window acceptance gates."""
    res = run_window_bench(quick=True)
    report_window(res)
    assert res["parity_ok"]
    assert res["memory_ok"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (d=5, 2000 shots, >=3x)"
    )
    parser.add_argument("--d", type=int, default=None, help="code distance override")
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this decode speedup (default: 10 full, 3 quick; "
        "nightly passes 2 as a >5x-regression-from-10x gate)",
    )
    parser.add_argument(
        "--window",
        action="store_true",
        help="run the sliding-window gates (LER parity, O(window) memory, "
        "shots/s floor) instead of the legacy-vs-rewrite comparison",
    )
    parser.add_argument(
        "--min-window-shots",
        type=float,
        default=None,
        help="fail below this windowed decode throughput in shots/s at the "
        "slowest sweep point (default: 100 — an order of magnitude under "
        "the measured worst case, a pathological-slowdown smoke gate)",
    )
    parser.add_argument("--json", default=None, help="write results to a JSON file")
    args = parser.parse_args(argv)
    if args.window:
        floor = args.min_window_shots if args.min_window_shots is not None else 100.0
        res = run_window_bench(quick=args.quick, seed=args.seed)
        res["min_window_shots_per_second"] = floor
        report_window(res)
        if args.json:
            merged: dict = {}
            try:
                with open(args.json) as fh:
                    merged = json.load(fh)
            except (FileNotFoundError, json.JSONDecodeError):
                pass
            if not isinstance(merged, dict):
                merged = {}
            merged["window"] = res
            with open(args.json, "w") as fh:
                json.dump(merged, fh, indent=2)
            print(f"wrote {args.json} (window section)")
        throughput_ok = res["min_windowed_shots_per_second"] >= floor
        if not (res["parity_ok"] and res["memory_ok"] and throughput_ok):
            print(
                f"FAIL: need Wilson-interval parity at every point, constant "
                f"O(window) state, and >= {floor:.0f} shots/s windowed "
                f"(got parity_ok={res['parity_ok']}, memory_ok={res['memory_ok']}, "
                f"{res['min_windowed_shots_per_second']:.0f} shots/s)"
            )
            return 1
        print(
            f"OK: windowed LER inside Wilson interval at every point, "
            f"O(window) state constant under 2x rounds, "
            f">= {floor:.0f} shots/s"
        )
        return 0
    d = args.d if args.d is not None else (5 if args.quick else 7)
    shots = args.shots if args.shots is not None else (2000 if args.quick else 20000)
    target = args.min_speedup if args.min_speedup is not None else (3.0 if args.quick else 10.0)
    # End-to-end gate scales with the decode gate (10x decode pairs with the
    # 5x sweep acceptance criterion); at quick scale the short sweep is
    # dominated by one-time compilation, so only the full run enforces it.
    sweep_target = 0.0 if args.quick else target / 2.0
    res = run_bench(d=d, shots=shots, seed=args.seed)
    res["min_speedup"] = target
    res["min_sweep_speedup"] = sweep_target
    report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res, fh, indent=2)
        print(f"wrote {args.json}")
    ok = (
        res["speedup"] >= target
        and res["sweep_speedup"] >= sweep_target
        and res["weighted_not_worse"]
    )
    if not ok:
        print(
            f"FAIL: need >= {target:.1f}x decode and >= {sweep_target:.1f}x "
            f"end-to-end sweep speedup with weighted LER <= unweighted (got "
            f"{res['speedup']:.1f}x / {res['sweep_speedup']:.1f}x, "
            f"weighted_not_worse={res['weighted_not_worse']})"
        )
        return 1
    print(
        f"OK: >= {target:.1f}x decode, >= {sweep_target:.1f}x end-to-end, "
        "weighted LER not worse"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
