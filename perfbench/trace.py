"""Span tracer and the layer hooks the pipeline benchmark installs.

Spans are recorded from the benchmark's own files: :func:`hooks` wraps the
repository's public layer functions in the namespaces their callers look
them up in (``repro.core.compiler.check_circuit``, not
``repro.hardware.validity.check_circuit``, because ``TISCC.compile`` calls
the name it imported), and restores every original on exit.  With no
tracer the hooks only record compiled operations for the output checks, so
an untraced run does exactly the traced run's work minus the span
bookkeeping.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import repro.core.compiler as compiler_mod
import repro.decode.memory as memory_mod
import repro.estimator.sweep as sweep_mod
from repro.sim.frame import FrameSampler

__all__ = ["Tracer", "hooks"]


class Tracer:
    """In-memory span tree plus counters for one traced workload run.

    A span records its name, start, end and parent; counts are plain
    name -> number accumulators.  Nothing is written until the caller asks
    for :meth:`to_dict` at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Per-span duration minus the part its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            out[s["name"]] += own
        return dict(out)

    def to_dict(self) -> dict:
        """The span tree (parent links, durations, self times) and counts."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return {
            "spans": [
                {
                    "id": s["id"],
                    "name": s["name"],
                    "parent": s["parent"],
                    "start_s": s["start"] - t0,
                    "duration_s": s["end"] - s["start"],
                    "self_s": own,
                }
                for s, own in zip(self.spans, self.self_times())
            ],
            "self_seconds": self.self_seconds(),
            "counts": dict(self.counts),
        }


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: run the call inside span ``name``, then ``after``."""

    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    return make


@contextlib.contextmanager
def hooks(compiled_ops: list, tracer: Tracer | None = None):
    """Install the layer hooks for one workload iteration.

    Every ``TISCC.compile`` result is appended to ``compiled_ops`` (the
    output checks read validity reports and logical time-steps from it).
    With a ``tracer``, each layer call also becomes a span and the path
    counters (DEM method, decoding graph, engine) are recorded from the
    calls' outputs, under a root span ``run`` whose self time is the
    residual no layer span covers.
    """
    patches = _Patches()
    try:
        _install(patches, compiled_ops, tracer)
        with tracer.span("run") if tracer is not None else contextlib.nullcontext():
            yield
    finally:
        patches.restore()


def _install(patches: _Patches, compiled_ops: list, tracer: Tracer | None) -> None:
    TISCC = compiler_mod.TISCC

    # ---- core: tile-grid set-up and instruction generation (compile's self
    # time excludes the hardware phases it runs after, which have spans).
    def recorded_compile(fn):
        def compile_(self, *args, **kwargs):
            if tracer is None:
                out = fn(self, *args, **kwargs)
                compiled_ops.append(out)
                return out
            conflicts0 = self.grid.junction_conflicts
            with tracer.span("core.compile"):
                out = fn(self, *args, **kwargs)
            compiled_ops.append(out)
            tracer.count("core.instructions", len(out.circuit))
            tracer.count(
                "hardware.junction_conflicts", self.grid.junction_conflicts - conflicts0
            )
            return out

        return compile_

    patches.wrap(TISCC, "compile", recorded_compile)
    if tracer is None:
        return
    count = tracer.count
    patches.wrap(TISCC, "__init__", _spanned(tracer, "core.setup"))

    # ---- hardware: validity replay, resource estimate, SIMD beam passes.
    def simd_counts(out, *args, **kwargs):
        _, report = out
        count("hardware.beam_passes", report.beam_passes)
        count("hardware.beam_passes_unscheduled", report.baseline_passes)

    patches.wrap(compiler_mod, "check_circuit", _spanned(tracer, "hardware.validate"))
    patches.wrap(compiler_mod, "estimate_resources", _spanned(tracer, "hardware.estimate"))
    patches.wrap(compiler_mod, "simd_schedule", _spanned(tracer, "hardware.simd", simd_counts))

    # ---- sim: fault table (periodic template or full walk), DEM, sampler.
    # A cell builds its DEM twice from one cached fault table; the table's
    # path and sizes are counted once.
    tables_seen: set[int] = set()

    def dem_counts(dem, table, *args, **kwargs):
        count("sim.build_dem.calls")
        if id(table) not in tables_seen:
            tables_seen.add(id(table))
            count("sim.fault_sites", table.n_sites)
            count("sim.dem_periodic" if table.method == "periodic" else "sim.dem_full")
            count("sim.mechanisms", dem.n_mechanisms)

    Experiment = memory_mod.MemoryExperiment
    patches.wrap(Experiment, "fault_table", _spanned(tracer, "sim.fault_table"))
    patches.wrap(memory_mod, "build_dem", _spanned(tracer, "sim.build_dem", dem_counts))
    patches.wrap(FrameSampler, "__init__", _spanned(tracer, "sim.sampler_init"))

    def sample_counts(samples, *args, **kwargs):
        count("sim.shots", samples.n_shots)

    patches.wrap(FrameSampler, "sample", _spanned(tracer, "sim.sample", sample_counts))

    # ---- decode: experiment set-up, graph, decoder construction, decoding.
    patches.wrap(Experiment, "__init__", _spanned(tracer, "decode.experiment_init"))

    def graph_counts(graph, *args, **kwargs):
        count("decode.graph_edges", graph.n_edges)

    patches.wrap(memory_mod, "build_dem_graph", _spanned(tracer, "decode.graph", graph_counts))

    def graph_path(fn):
        def matching_graph(self, *args, **kwargs):
            graph = fn(self, *args, **kwargs)
            count("decode.graph_schedule" if graph is self.graph else "decode.graph_dem")
            return graph

        return matching_graph

    patches.wrap(Experiment, "matching_graph", graph_path)

    def traced_decoder(decoder, *args, **kwargs):
        # Wrap the built instance's decode_batch: the span then covers
        # exactly the decoder the experiment runs, whatever its class.
        inner = decoder.decode_batch

        def decode_batch(syndromes):
            with tracer.span("decode.decode"):
                out = inner(syndromes)
            count("decode.shots", len(syndromes))
            return out

        decoder.decode_batch = decode_batch

    patches.wrap(memory_mod, "get_decoder", _spanned(tracer, "decode.decoder_init", traced_decoder))

    # ---- estimator: the sweep entry points the workloads call.
    def engine_counts(reports, *args, **kwargs):
        for r in reports:
            if hasattr(r, "engine"):
                count(f"estimator.engine_{r.engine}")

    for name in ("logical_error_sweep", "sweep_operation"):
        patches.wrap(sweep_mod, name, _spanned(tracer, "estimator.sweep", engine_counts))
