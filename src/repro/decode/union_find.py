"""Weighted union-find decoder (cluster growth + peeling) over a matching graph.

The weighted-growth union-find decoder of Delfosse & Nickerson: odd
(defect-carrying) clusters grow their boundary edges in integer steps, where
each edge's capacity is its quantized log-likelihood weight (see
:func:`~repro.decode.base.integer_weights`) — cheap, high-probability edges
are traversed in few steps while improbable ones take proportionally longer,
so the grown support concentrates on likely error patterns.  On a
unit-weight graph every capacity is two half-steps and the algorithm reduces
exactly to the classic unweighted decoder.  Clusters merge when an edge is
fully grown and stop being active once their defect parity is even or they
touch the open boundary.  The grown support is then *peeled*: a spanning
forest of each cluster is traversed leaf-to-root, emitting a correction edge
for every leaf that carries a defect.  The decoder's verdict is the parity
of logical-frame edges in that correction — exactly what the
logical-operator readout must be XORed with.

The hot path is built for batches:

* construction reads the graph's columns into edge endpoint, frame and
  capacity arrays and a CSR adjacency (one stable sort of the edge
  incidences) with array ops; the Python kernel's preallocated flat
  ``parent``/``parity``/``growth`` lists, scrubbed (only the touched
  entries) after every shot so no per-shot allocation scales with the
  graph, are built only when that kernel runs;
* growth walks only the *frontier* edges of active clusters — never the
  whole edge list — so sparse sub-threshold syndromes cost time
  proportional to the error support, not the spacetime volume;
* :meth:`UnionFindDecoder.decode_batch` vectorizes at the batch level:
  all-zero shots short-circuit, single-defect shots resolve through a
  precomputed min-weight boundary-matching table, and the remaining rows
  are deduplicated so each distinct syndrome is decoded exactly once;
* the grow-and-peel loop runs in a small C kernel (``_uf_kernel.c``,
  compiled on first use and cached, see :mod:`repro.util.native`)
  that decodes a whole batch in one call.  The Python loop below stays
  unchanged as its bit-identity oracle and as the fallback when no C
  compiler is available; :attr:`UnionFindDecoder.kernel` says which runs.

Decoding is exact on single faults and linear-time on the grown support.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.decode.base import Decoder, integer_weights, register_decoder
from repro.decode.graph import BOUNDARY, MatchingGraph

__all__ = ["UnionFindDecoder", "UnweightedUnionFindDecoder"]


@register_decoder
class UnionFindDecoder(Decoder):
    """Decodes syndromes over a fixed :class:`MatchingGraph`.

    ``weighted=True`` (default) derives integer growth capacities from the
    graph's edge weights; ``weighted=False`` forces unit capacities (the
    ablation arm — also registered as ``"union_find_unweighted"``).

    Decoding reuses preallocated scratch arrays, so one instance must not
    run concurrent ``decode_batch`` calls; build one decoder per thread
    (see :class:`~repro.decode.base.Decoder`).

    :attr:`kernel` names the grow-and-peel kernel that runs (``"native"``
    or ``"python"``) and :attr:`fallback_reason` why the Python one does.

    Both kernels read the same tables: edge endpoints ``eu``/``ev`` over
    ``n + 1`` nodes (the open boundary is node ``n``), ``frame`` bits,
    integer growth capacities ``cap`` (quantized log-likelihood weights),
    and the CSR adjacency, node ``i``'s edge ids being
    ``adj_edge[indptr[i]:indptr[i + 1]]`` in edge order.
    """

    name = "union_find"

    def __init__(self, graph: MatchingGraph, weighted: bool = True):
        super().__init__(graph)
        self.weighted = bool(weighted) and graph.is_weighted
        n = self.n
        # The open boundary is materialized as one extra node with index n.
        self.eu = np.where(graph.u == BOUNDARY, n, graph.u)
        self.ev = np.where(graph.v == BOUNDARY, n, graph.v)
        self.frame = graph.frame
        self.cap = integer_weights(graph.weight if self.weighted else np.ones(graph.n_edges))
        # Flat CSR adjacency over the n + 1 nodes (boundary included): the
        # incidences eu[0], ev[0], eu[1], ev[1], ... stably sorted by node,
        # so each node lists its edges in edge order.
        ends = np.stack([self.eu, self.ev], axis=1).reshape(-1)
        self.indptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n + 1), out=self.indptr[1:])
        self.adj_edge = np.argsort(ends, kind="stable") // 2
        self._build_single_defect_table()

        # Imported here, not at module level: loading the native kernel (and
        # building it, the first time on a host) is decoder set-up, never
        # import-time work.
        from repro.decode import _uf_native
        from repro.util import native

        lib, self._fallback_reason = native.load(_uf_native.SOURCE, _uf_native._declare)
        self._native = None
        if lib is None:
            self._build_python_state()
        else:
            self._native = _uf_native.NativeKernel(
                lib,
                n,
                self.eu,
                self.ev,
                self.frame,
                self.cap,
                self.indptr,
                self.adj_edge,
                self._single_verdict,
                self._single_reachable,
            )

    def _build_python_state(self) -> None:
        """The Python kernel's scratch state and plain-int table mirrors.

        Preallocated per-shot state, scrubbed (touched entries only) after
        every decode so batches never reallocate.  Kept as flat Python
        lists: the growth loop is scalar-indexed, where list access is
        several times faster than numpy item access.
        """
        n, n_edges = self.n, self.graph.n_edges
        self._parent: list[int] = list(range(n + 1))
        self._parity: list[int] = [0] * (n + 1)
        self._growth: list[int] = [0] * n_edges
        self._rate: list[int] = [0] * n_edges
        self._peel_adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        self._peel_seen: list[bool] = [False] * (n + 1)
        self._peel_defect: list[int] = [0] * (n + 1)
        self._eu_list: list[int] = self.eu.tolist()
        self._ev_list: list[int] = self.ev.tolist()
        self._frame_list: list[int] = self.frame.tolist()
        self._cap_list: list[int] = self.cap.tolist()
        adj, indptr = self.adj_edge.tolist(), self.indptr.tolist()
        self._adj_lists: list[list[int]] = [adj[indptr[i] : indptr[i + 1]] for i in range(n + 1)]

    @property
    def kernel(self) -> str:
        """The grow-and-peel kernel that decodes: ``"native"`` or ``"python"``."""
        return "python" if self._native is None else "native"

    @property
    def fallback_reason(self) -> str | None:
        """Why the Python kernel runs (compiler stderr included); ``None`` when native."""
        return self._fallback_reason

    # ---------------------------------------------------------- fast tables
    def _build_single_defect_table(self) -> None:
        """Min-weight boundary matching for every lone defect, via Dijkstra.

        A weight-1 syndrome fires exactly one detector; the maximum-
        likelihood correction is the cheapest path from that detector to the
        open boundary, and the verdict is that path's frame parity.  One
        Dijkstra sweep from the boundary node over the integer capacities
        precomputes all of them.
        """
        n, b = self.n, self.n
        indptr = self.indptr.tolist()
        # Per adjacency slot: the edge's other endpoint, capacity and frame.
        slot_node = np.repeat(np.arange(n + 1), np.diff(self.indptr))
        edge = self.adj_edge
        other = (self.eu[edge] + self.ev[edge] - slot_node).tolist()
        cost = self.cap[edge].tolist()
        flip = self.frame[edge].tolist()
        dist = [math.inf] * (n + 1)
        par = [0] * (n + 1)
        dist[b] = 0.0
        heap: list[tuple[float, int]] = [(0.0, b)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for j in range(indptr[u], indptr[u + 1]):
                v = other[j]
                nd = d + cost[j]
                if nd < dist[v]:
                    dist[v] = nd
                    par[v] = par[u] ^ flip[j]
                    heapq.heappush(heap, (nd, v))
        self._single_verdict = np.array(par[:n], dtype=np.uint8)
        self._single_reachable = np.array(dist[:n]) < math.inf

    # -------------------------------------------------------------- decoding
    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Per-shot predicted logical flips for a ``(n_shots, n_detectors)`` batch.

        The native kernel decodes the whole batch in one call.  The Python
        kernel returns empty batches and all-zero rows immediately, resolves
        single-defect rows through the precomputed boundary-matching table,
        and decodes each distinct remaining syndrome once.  Both give the
        same verdicts and raise the same errors.
        """
        syndromes = self._validate_batch(syndromes)
        if self._native is not None:
            return self._native.decode_batch(syndromes)
        n_shots = syndromes.shape[0]
        out = np.zeros(n_shots, dtype=np.uint8)
        if n_shots == 0:
            return out
        counts = syndromes.sum(axis=1, dtype=np.int64)
        ones = np.nonzero(counts == 1)[0]
        if ones.size:
            det = syndromes[ones].argmax(axis=1)
            if not self._single_reachable[det].all():
                raise RuntimeError(
                    "lone defect on a detector with no path to the boundary"
                )
            out[ones] = self._single_verdict[det]
        multi = np.nonzero(counts >= 2)[0]
        if multi.size:
            # Hash-based dedup (cheaper than a lexicographic row sort): each
            # distinct syndrome is decoded exactly once.
            rows = np.ascontiguousarray(syndromes[multi])
            cache: dict[bytes, int] = {}
            for i, shot in enumerate(multi):
                key = rows[i].tobytes()
                verdict = cache.get(key)
                if verdict is None:
                    verdict = self._decode_defects(np.nonzero(rows[i])[0])
                    cache[key] = verdict
                out[shot] = verdict
        return out

    def decode_edges(self, defect_ids) -> list[int]:
        """Correction *edge ids* for one syndrome's fired detector indices.

        The same grow-and-peel pass as :meth:`decode`, but instead of
        collapsing the correction to its logical-frame parity it returns
        the edges the peeling emitted — the explicit correction set a
        sliding-window decoder needs to decide which edges fall inside its
        commit region and which residual defects to carry forward.  An
        empty ``defect_ids`` returns an empty list; ids outside
        ``[0, n_detectors)`` are rejected.
        """
        defect_ids = np.asarray(defect_ids, dtype=np.int64)
        if defect_ids.size == 0:
            return []
        if defect_ids.min() < 0 or defect_ids.max() >= self.n:
            raise ValueError(f"defect ids must lie in [0, {self.n})")
        if self._native is not None:
            return self._native.decode_edges(defect_ids)
        collect: list[int] = []
        self._decode_defects(defect_ids, collect=collect)
        return collect

    # ------------------------------------------------------------ union-find
    @staticmethod
    def _find(parent: list[int], a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    def _decode_defects(
        self, defect_ids: np.ndarray, collect: list[int] | None = None
    ) -> int:
        """Grow + peel one syndrome given its fired detector indices.

        ``collect`` (when given) receives the correction's edge ids as the
        peeling emits them — see :meth:`decode_edges`.
        """
        b = self.n
        parent, parity, growth = self._parent, self._parity, self._growth
        adj, eu, ev, cap = self._adj_lists, self._eu_list, self._ev_list, self._cap_list
        find = self._find

        defects = [int(d) for d in defect_ids]
        touched_nodes = list(defects) + [b]
        touched_edges: list[int] = []
        #: Cluster root -> frontier edge ids (lazily filtered).
        frontier: dict[int, list[int]] = {}
        for d in defects:
            parity[d] = 1
            frontier[d] = list(adj[d])
        active = list(defects)

        try:
            for _ in range(len(self._eu_list) + 2):
                if not active:
                    break
                # Half-step growth, event-driven: every frontier edge of an
                # active cluster grows at rate 1 per incident active cluster;
                # advance all of them by the largest time step that still
                # completes at least one edge (fast-forwarding the uniform
                # growth — identical cluster history, far fewer rounds, and
                # it makes finely quantized weights free).
                rate = self._rate
                scanned: list[int] = []
                delta = 1 << 30  # min rounds until some frontier edge completes
                for root in active:
                    lst = frontier[root]
                    stale = False
                    for k in lst:
                        slack = cap[k] - growth[k]
                        if slack <= 0:
                            stale = True  # fully grown: no longer frontier
                            continue
                        # Edges that became internal (both endpoints in one
                        # cluster via another path) are NOT filtered here —
                        # root lookups per edge per round would dominate the
                        # decode; they harmlessly grow to capacity and the
                        # merge step discards them on the root comparison.
                        r = rate[k]
                        if r == 0:
                            scanned.append(k)
                        rate[k] = r = r + 1
                        steps = (slack + r - 1) // r
                        if steps < delta:
                            delta = steps
                    if stale:  # rebuild only when something completed
                        frontier[root] = [k for k in lst if growth[k] < cap[k]]
                if not scanned:
                    raise RuntimeError(
                        "union-find growth stalled: defects cannot reach "
                        "each other or the boundary"
                    )
                merges: list[int] = []
                for k in scanned:
                    g = growth[k]
                    if g == 0:
                        touched_edges.append(k)
                    g += rate[k] * delta
                    growth[k] = g
                    rate[k] = 0
                    if g >= cap[k]:
                        merges.append(k)
                for k in merges:
                    ru, rv = find(parent, eu[k]), find(parent, ev[k])
                    if ru == rv:
                        continue
                    fu = frontier.get(ru)
                    if fu is None:  # fresh node (or the boundary) joins
                        fu = list(adj[ru]) if ru != b else []
                        touched_nodes.append(ru)
                    fv = frontier.get(rv)
                    if fv is None:
                        fv = list(adj[rv]) if rv != b else []
                        touched_nodes.append(rv)
                    if len(fu) < len(fv):  # keep the larger frontier list
                        ru, rv, fu, fv = rv, ru, fv, fu
                    parent[rv] = ru
                    parity[ru] += parity[rv]
                    fu.extend(fv)
                    frontier[ru] = fu
                    frontier.pop(rv, None)
                broot = find(parent, b)
                seen: set[int] = set()
                active = []
                for d in defects:
                    r = find(parent, d)
                    if r not in seen:
                        seen.add(r)
                        if r != broot and parity[r] & 1:
                            active.append(r)
            if active:
                raise RuntimeError(
                    "union-find growth failed to converge"
                )  # pragma: no cover
            support = [k for k in touched_edges if growth[k] >= cap[k]]
            return self._peel(support, defects, collect=collect)
        finally:
            for node in touched_nodes:
                parent[node] = node
                parity[node] = 0
            for k in touched_edges:
                growth[k] = 0

    # --------------------------------------------------------------- peeling
    def _peel(
        self,
        support: list[int],
        defects: list[int],
        collect: list[int] | None = None,
    ) -> int:
        """Peel the grown support's spanning forest into a correction parity."""
        b = self.n
        eu, ev, frame = self._eu_list, self._ev_list, self._frame_list
        adj, seen, defect = self._peel_adj, self._peel_seen, self._peel_defect
        nodes: list[int] = []
        try:
            for k in support:
                u, v = eu[k], ev[k]
                if not adj[u]:
                    nodes.append(u)
                adj[u].append((k, v))
                if not adj[v]:
                    nodes.append(v)
                adj[v].append((k, u))
            for d in defects:
                if not adj[d]:
                    raise RuntimeError(
                        "peeling left unmatched defects; grown support disconnected"
                    )  # pragma: no cover
                defect[d] = 1

            order: list[int] = []
            parent_edge: dict[int, int] = {}
            parent_node: dict[int, int] = {}
            # Roots: the boundary first (absorbs any defect), then any node
            # still unvisited — covers clusters without boundary contact.
            for root in [b, *nodes]:
                if seen[root] or not adj[root]:
                    continue
                seen[root] = True
                queue = [root]
                head = 0
                while head < len(queue):
                    cur = queue[head]
                    head += 1
                    order.append(cur)
                    for k, other in adj[cur]:
                        if seen[other]:
                            continue
                        seen[other] = True
                        parent_edge[other] = k
                        parent_node[other] = cur
                        queue.append(other)

            flip = 0
            for v in reversed(order):
                if not defect[v] or v not in parent_edge:
                    continue
                flip ^= frame[parent_edge[v]]
                if collect is not None:
                    collect.append(parent_edge[v])
                defect[v] = 0
                defect[parent_node[v]] ^= 1
            defect[b] = 0
            if any(defect[nd] for nd in nodes):
                raise RuntimeError(
                    "peeling left unmatched defects; grown support disconnected"
                )  # pragma: no cover
            return flip
        finally:
            for nd in nodes:
                adj[nd].clear()
                seen[nd] = False
                defect[nd] = 0
            seen[b] = False


@register_decoder
class UnweightedUnionFindDecoder(UnionFindDecoder):
    """The same growth/peeling engine forced onto unit edge weights."""

    name = "union_find_unweighted"

    def __init__(self, graph: MatchingGraph):
        super().__init__(graph, weighted=False)
