"""Sliding-window (overlapping-commit) decoding over the time axis.

The whole-block union-find decoder holds the full ``(rounds + 1) x faces``
detector volume in memory and only answers after the last round — the
opposite of what a real-time decoder needs when ``rounds >> d`` (algorithm-
scale memory experiments, streaming hardware decoders).
:class:`WindowedUnionFindDecoder` restores an O(window) profile: the time
axis is cut into overlapping windows of ``window`` slices advancing by
``commit`` slices, each window is decoded with the existing weighted
union-find engine over *its own* subgraph, and only the correction edges
whose earliest endpoint lies in the first ``commit`` slices are trusted:

* a **committed** edge contributes its logical-frame bit to the shot's
  verdict, and its endpoint defects are XORed away — an endpoint in the
  overlap region thereby *carries a boundary defect forward* into the next
  window (the committed half of a matched pair straddling the commit
  boundary leaves a residual defect the next window must re-match);
* an **uncommitted** edge (entirely inside the trailing buffer of
  ``window - commit`` slices) is discarded: its defects are still present
  when the next window re-decodes that region with real future context.

The final window extends to the last slice and commits everything.  With a
buffer of at least ``d`` slices the windowed verdicts are statistically
indistinguishable from whole-block decoding (the acceptance gate in
``benchmarks/bench_decode.py --window`` holds them inside each other's
Wilson intervals at every standard sweep point), while decoder state —
inner graphs, scratch arrays, per-shot buffers — scales with ``window``,
never with ``rounds``.

Two entry points share the engine: :meth:`~WindowedUnionFindDecoder.
decode_batch` (the registry contract, fed column slices of a materialized
syndrome matrix) and :meth:`~WindowedUnionFindDecoder.decode_stream`, which
consumes an *iterator* of per-slice ``(n_shots, faces)`` detector arrays
and buffers only the active window — the streaming shape a bounded-latency
hardware decoder has.  :meth:`MemoryExperiment.run` feeds ``decode_batch``
one memory-bounded chunk of shots at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.decode.base import Decoder, register_decoder
from repro.decode.graph import BOUNDARY, MatchingGraph
from repro.decode.union_find import UnionFindDecoder

__all__ = ["WindowedUnionFindDecoder", "window_spans"]


def window_spans(n_slices: int, window: int, commit: int) -> list[tuple[int, int, int]]:
    """The ``(start, stop, commit_end)`` slice spans covering ``n_slices``.

    Windows start every ``commit`` slices and are ``window`` slices wide;
    the last window is the first one whose natural end reaches the final
    slice — it is extended to ``n_slices`` and commits everything.  Every
    slice is committed by exactly one window, and every edge of a
    time-local matching graph (endpoints at most one slice apart) lies
    fully inside at least one window because ``commit < window``.
    """
    if window < 2:
        raise ValueError(f"window must span at least 2 time slices (got {window})")
    if commit < 1:
        raise ValueError(f"commit must be at least 1 slice (got {commit})")
    if commit >= window:
        raise ValueError(
            f"commit ({commit}) must be smaller than window ({window}); the "
            "buffer of window - commit slices is what absorbs boundary artifacts"
        )
    spans: list[tuple[int, int, int]] = []
    s0 = 0
    while True:
        if s0 + window >= n_slices:
            spans.append((s0, n_slices, n_slices))
            return spans
        spans.append((s0, s0 + window, s0 + commit))
        s0 += commit


@dataclass
class _WindowKind:
    """One distinct window subgraph shared by every span with its structure.

    Interior windows of a time-translation-invariant graph are identical up
    to a slice offset, so the (comparatively expensive) inner decoder is
    built once per *kind* and reused across spans; only the first and last
    windows usually differ.  ``min_slice[k]`` is the earliest real-endpoint
    slice of local edge ``k`` relative to the window start — the commit
    test — and ``endpoints[k]`` its real local detector ids (boundary
    endpoints dropped), the XOR footprint a committed edge applies.
    """

    decoder: UnionFindDecoder
    min_slice: list[int]
    frame: list[int]
    endpoints: list[tuple[int, ...]]

    @property
    def n_detectors(self) -> int:
        return self.decoder.graph.n_detectors


@register_decoder
class WindowedUnionFindDecoder(Decoder):
    """Sliding-window union-find over a time-sliced matching graph.

    ``n_faces`` is the number of detectors per time slice (the graph must
    hold ``n_slices * n_faces`` detectors laid out ``t * n_faces + f``,
    exactly the :meth:`MemoryExperiment.syndromes` layout); ``window`` and
    ``commit`` are counted in slices.  Each window subgraph is decoded by
    the weighted :class:`UnionFindDecoder`, whose ``decode_edges`` names the
    correction edges a window commits.

    Like the inner engine, one instance keeps mutable per-call scratch and
    must not run concurrent decodes; parallelize over instances.
    """

    name = "union_find_windowed"
    #: :meth:`MemoryExperiment.decoder_for` passes the detector layout
    #: (``n_faces``) plus its window/commit configuration to decoders that
    #: set this flag — plain decoders keep the bare ``(graph)`` signature.
    wants_layout = True

    def __init__(
        self,
        graph: MatchingGraph,
        n_faces: int,
        window: int,
        commit: int,
    ):
        super().__init__(graph)
        if n_faces < 1 or graph.n_detectors % n_faces != 0:
            raise ValueError(
                f"graph with {graph.n_detectors} detectors is not a whole "
                f"number of {n_faces}-detector time slices"
            )
        self.n_faces = n_faces
        self.n_slices = graph.n_detectors // n_faces
        self.window = int(window)
        self.commit = int(commit)
        self._spans = window_spans(self.n_slices, self.window, self.commit)

        # Each edge's earliest and latest real-endpoint slice, then each
        # span's subgraph carved out of the columns.  Edges are assigned to a
        # window when *all* real endpoints lie inside it; edges crossing a
        # window's trailing end always reappear whole in a later window
        # (their earliest endpoint sits in the buffer, never the commit
        # region, because commit < window).
        su, sv = graph.u // n_faces, graph.v // n_faces
        su = np.where(graph.u == BOUNDARY, sv, su)
        sv = np.where(graph.v == BOUNDARY, su, sv)
        lo, hi = np.minimum(su, sv), np.maximum(su, sv)

        kinds: dict[tuple, _WindowKind] = {}
        self._span_kinds: list[_WindowKind] = []
        for s0, s1, _ in self._spans:
            mask = np.flatnonzero((lo >= s0) & (hi < s1))
            local = graph.subgraph(mask, (s1 - s0) * n_faces, s0 * n_faces)
            signature = (s1 - s0,) + tuple(
                column.tobytes() for column in (local.u, local.v, local.frame, local.weight)
            )
            kind = kinds.get(signature)
            if kind is None:
                kind = _WindowKind(
                    decoder=UnionFindDecoder(local),
                    min_slice=(lo[mask] - s0).tolist(),
                    frame=local.frame.tolist(),
                    endpoints=[
                        tuple(node for node in (u, v) if node != BOUNDARY)
                        for u, v in zip(local.u.tolist(), local.v.tolist())
                    ],
                )
                kinds[signature] = kind
            self._span_kinds.append(kind)
        #: Distinct window subgraphs actually built (interior windows share).
        self.n_window_kinds = len(kinds)
        #: Largest inner decoding graph, in detectors — the O(window) state
        #: bound the memory benchmark asserts (compare
        #: :attr:`~repro.decode.base.Decoder.n`, the whole-block count).
        self.peak_window_detectors = max(k.n_detectors for k in kinds.values())

    # -------------------------------------------------------------- decoding
    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Window-decode a materialized ``(n_shots, n_detectors)`` batch.

        A thin wrapper over :meth:`decode_stream` feeding one column slice
        per round — byte-for-byte the verdicts the streaming path produces.
        """
        syndromes = self._validate_batch(syndromes)
        F = self.n_faces
        return self.decode_stream(
            (syndromes[:, t * F : (t + 1) * F] for t in range(self.n_slices)),
            n_shots=syndromes.shape[0],
        )

    def decode_stream(
        self, slices: Iterable[np.ndarray], n_shots: int | None = None
    ) -> np.ndarray:
        """Decode from an iterator of per-slice ``(n_shots, n_faces)`` arrays.

        Slices arrive in time order (one per detector round, ``n_slices``
        in total); only the active window is ever buffered, so peak memory
        is ``O(n_shots * window * n_faces)`` regardless of experiment
        length.  Returns the per-shot predicted logical flips, identical to
        :meth:`decode_batch` on the concatenated matrix.
        """
        it: Iterator[np.ndarray] = iter(slices)
        F = self.n_faces
        buf: np.ndarray | None = None  # active window, (n_shots, <= window*F)
        width = 0  # valid columns in buf
        filled = 0  # time slices consumed from the iterator
        out: np.ndarray | None = None
        if n_shots is not None:
            out = np.zeros(n_shots, dtype=np.uint8)
            buf = np.zeros((n_shots, self.window * F), dtype=np.uint8)
        # Per-(kind, local commit) verdict caches for this call: low-noise
        # batches repeat a handful of local syndromes thousands of times.
        caches: dict[tuple[int, int], dict[bytes, tuple[int, np.ndarray]]] = {}

        for (s0, s1, commit_end), kind in zip(self._spans, self._span_kinds):
            while filled < s1:
                try:
                    sl = next(it)
                except StopIteration:
                    raise ValueError(
                        f"slice stream ended after {filled} of "
                        f"{self.n_slices} time slices"
                    ) from None
                sl = self._as_bits(sl)
                if sl.ndim != 2 or sl.shape[1] != F:
                    raise ValueError(
                        f"slice {filled} has shape {sl.shape}, expected "
                        f"(n_shots, {F})"
                    )
                if buf is None:
                    n_shots = sl.shape[0]
                    out = np.zeros(n_shots, dtype=np.uint8)
                    buf = np.zeros((n_shots, self.window * F), dtype=np.uint8)
                if sl.shape[0] != n_shots:
                    raise ValueError(
                        f"slice {filled} holds {sl.shape[0]} shots, expected {n_shots}"
                    )
                buf[:, width : width + F] = sl
                width += F
                filled += 1
            assert buf is not None and out is not None
            local_commit = commit_end - s0
            cache = caches.setdefault((id(kind), local_commit), {})
            window_view = buf[:, :width]
            for shot in np.nonzero(window_view.any(axis=1))[0]:
                row = window_view[shot]
                key = row.tobytes()
                hit = cache.get(key)
                if hit is None:
                    hit = self._decode_window(kind, row, local_commit)
                    cache[key] = hit
                flip, pattern = hit
                out[shot] ^= flip
                row ^= pattern
            # Retire the committed slices; the residual overlap (original
            # defects minus committed corrections, i.e. carried boundary
            # defects included) slides to the front for the next window.
            drop = (commit_end - s0) * F
            if drop < width:
                window_view[:, : width - drop] = window_view[:, drop:width]
            width -= drop
        if filled < self.n_slices or next(it, None) is not None:
            raise ValueError(
                f"slice stream did not match the graph's {self.n_slices} time slices"
            )
        assert out is not None
        return out

    def _decode_window(
        self, kind: _WindowKind, row: np.ndarray, local_commit: int
    ) -> tuple[int, np.ndarray]:
        """Decode one window-local syndrome; split committed vs deferred.

        Returns ``(flip, pattern)``: the committed correction's logical
        parity and its endpoint XOR footprint over the window (applying the
        pattern clears committed defects and toggles the carried boundary
        defects in the overlap region).
        """
        edges = kind.decoder.decode_edges(np.nonzero(row)[0])
        flip = 0
        pattern = np.zeros(row.shape[0], dtype=np.uint8)
        min_slice, frames, endpoints = kind.min_slice, kind.frame, kind.endpoints
        for k in edges:
            if min_slice[k] >= local_commit:
                continue  # buffer-only: re-decoded with future context
            flip ^= frames[k]
            for node in endpoints[k]:
                pattern[node] ^= 1
        return flip, pattern

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WindowedUnionFindDecoder window={self.window} commit={self.commit} "
            f"({self.n_window_kinds} kinds, peak {self.peak_window_detectors} of "
            f"{self.n} detectors) over {self.graph!r}>"
        )
