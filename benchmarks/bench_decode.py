"""Decode-throughput benchmark: batched weighted and unweighted union-find.

At d=7 with 20 000 near-term shots, times the weighted and unweighted
union-find decoders on one syndrome batch, and gates that the weighted
decoder's LER does not exceed the unweighted one's on the same syndromes.
The report names the union-find kernel that ran (``native`` C or the
``python`` fallback, with the reason) and the JSON records it, along with
decoder set-up: the median seconds to build the DEM matching graph and to
construct the union-find decoder over it.  This mode fails unless the
kernel is native, so a broken kernel build cannot pass on the Python
fallback.

Run directly::

    python benchmarks/bench_decode.py            # full: d=7, 20000 shots
    python benchmarks/bench_decode.py --quick    # CI smoke: d=5, 2000 shots
    python benchmarks/bench_decode.py --json BENCH_decode.json
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

from repro.decode import MemoryExperiment, UnionFindDecoder
from repro.decode.graph import build_dem_graph
from repro.sim.noise import NoiseModel

try:
    from benchmarks.conftest import print_table
except ImportError:  # pragma: no cover - direct script execution
    from conftest import print_table


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
    """Time the union-find decoders on one near-term syndrome batch."""
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

    graph = experiment.matching_graph(model)
    weighted = experiment.decoder_for(model)
    time_decoder("union_find", weighted)
    setup = time_setup(experiment, model)
    time_decoder("union_find_unweighted", experiment.decoder_for(model, "union_find_unweighted"))

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


def test_decode_gates():
    """Quick-scale pytest entry: native kernel, weighted LER not worse."""
    res = run_bench(d=5, shots=2000)
    report(res)
    assert res["kernel"] == "native", res["kernel_fallback_reason"]
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
        "--quick", action="store_true", help="CI smoke scale (d=5, 2000 shots)"
    )
    parser.add_argument("--d", type=int, default=None, help="code distance override")
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--window",
        action="store_true",
        help="run the sliding-window gates (LER parity, O(window) memory, "
        "shots/s floor) instead of the whole-block decode timing",
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
    res = run_bench(d=d, shots=shots, seed=args.seed)
    report(res)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res, fh, indent=2)
        print(f"wrote {args.json}")
    if res["kernel"] != "native":
        print(f"FAIL: {kernel_line(res)}")
        return 1
    if not res["weighted_not_worse"]:
        print("FAIL: the weighted decoder's LER exceeds the unweighted one's")
        return 1
    print("OK: native union-find kernel, weighted LER not worse")
    return 0


if __name__ == "__main__":
    sys.exit(main())
