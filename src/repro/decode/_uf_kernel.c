/*
 * Native grow-and-peel kernel of the weighted union-find decoder.
 *
 * A line-for-line port of UnionFindDecoder._decode_defects and _peel
 * (union_find.py), which stay in Python as the bit-identity oracle and the
 * fallback when no C compiler is available.  Every ordering the Python code
 * relies on is kept, so verdicts and correction edge lists are identical:
 *
 *   - frontier lists extend in the same order: a fresh node contributes its
 *     adjacency in CSR order, and a merge appends the absorbed cluster's
 *     list behind the surviving one;
 *   - a merge keeps the root whose frontier list is longer (stale entries
 *     included, exactly like len() of the Python list), the first root on
 *     ties;
 *   - touched edges are recorded in first-growth order, which is the order
 *     the grown support is peeled in;
 *   - peeling is breadth-first from the boundary, then from every other
 *     support node in first-appearance order.
 *
 * uf_new copies the graph (CSR adjacency over n + 1 nodes, node n being the
 * open boundary) and the single-defect boundary table once.  After that
 * uf_decode_batch decodes a whole (n_shots, n) matrix of 0/1 bytes and
 * uf_decode_edges one defect list, with no allocation per syndrome: all
 * scratch state is preallocated and scrubbed (touched entries only) after
 * every syndrome.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Failure codes; union_find.py raises the Python kernel's message for each. */
enum {
    UF_OK = 0,
    UF_STALLED = 1,
    UF_NO_CONVERGENCE = 2,
    UF_PEEL_DISCONNECTED = 3,
    UF_LONE_DEFECT = 4,
};

typedef struct {
    int64_t n, n_edges;
    /* Read-only graph. */
    int64_t *eu, *ev, *cap, *indptr, *adj;
    uint8_t *frame, *single_verdict, *single_reachable;
    /* Growth state. */
    int64_t *parent, *parity, *growth, *rate;
    /* Frontier lists: one singly linked list of edge cells per cluster root,
     * drawn from a pool that is reset per syndrome (every node's adjacency
     * enters at most once, so 2 * n_edges cells always suffice).
     * has_frontier mirrors key membership of the Python frontier dict. */
    int64_t *fr_head, *fr_tail, *fr_len;
    uint8_t *has_frontier;
    int64_t *cell_edge, *cell_next;
    int64_t n_cells;
    /* Per-syndrome work lists. */
    int64_t *defects, *active, *touched_nodes, *touched_edges, *scanned, *merges;
    int64_t *mark, stamp;
    /* Peeling: the support's adjacency as CSR over first-appearance nodes. */
    int64_t *peel_deg, *peel_start, *peel_fill, *peel_edge, *peel_other;
    int64_t *peel_nodes, *order, *parent_edge, *parent_node;
    uint8_t *seen, *defect;
} uf_t;

void uf_free(void *handle)
{
    uf_t *g = handle;
    if (!g)
        return;
    void *fields[] = {
        g->eu, g->ev, g->cap, g->indptr, g->adj, g->frame, g->single_verdict,
        g->single_reachable, g->parent, g->parity, g->growth, g->rate,
        g->fr_head, g->fr_tail, g->fr_len, g->has_frontier, g->cell_edge,
        g->cell_next, g->defects, g->active, g->touched_nodes,
        g->touched_edges, g->scanned, g->merges, g->mark, g->peel_deg,
        g->peel_start, g->peel_fill, g->peel_edge, g->peel_other,
        g->peel_nodes, g->order, g->parent_edge, g->parent_node, g->seen,
        g->defect,
    };
    for (size_t i = 0; i < sizeof fields / sizeof fields[0]; i++)
        free(fields[i]);
    free(g);
}

/* Zeroed array of count elements (at least one, so an empty graph is fine). */
#define ALLOC(field, count)                                                  \
    do {                                                                     \
        size_t count_ = (size_t)(count);                                     \
        g->field = calloc(count_ ? count_ : 1, sizeof *g->field);            \
        if (!g->field)                                                       \
            goto fail;                                                       \
    } while (0)

void *uf_new(int64_t n, int64_t n_edges, const int64_t *eu, const int64_t *ev,
             const uint8_t *frame, const int64_t *cap, const int64_t *indptr,
             const int64_t *adj, const uint8_t *single_verdict,
             const uint8_t *single_reachable)
{
    uf_t *g = calloc(1, sizeof *g);
    if (!g)
        return NULL;
    const int64_t nodes = n + 1, cells = 2 * n_edges;
    g->n = n;
    g->n_edges = n_edges;
    ALLOC(eu, n_edges);
    ALLOC(ev, n_edges);
    ALLOC(cap, n_edges);
    ALLOC(frame, n_edges);
    ALLOC(indptr, nodes + 1);
    ALLOC(adj, cells);
    ALLOC(single_verdict, n);
    ALLOC(single_reachable, n);
    memcpy(g->eu, eu, n_edges * sizeof *eu);
    memcpy(g->ev, ev, n_edges * sizeof *ev);
    memcpy(g->cap, cap, n_edges * sizeof *cap);
    memcpy(g->frame, frame, n_edges * sizeof *frame);
    memcpy(g->indptr, indptr, (nodes + 1) * sizeof *indptr);
    memcpy(g->adj, adj, cells * sizeof *adj);
    memcpy(g->single_verdict, single_verdict, n * sizeof *single_verdict);
    memcpy(g->single_reachable, single_reachable, n * sizeof *single_reachable);

    ALLOC(parent, nodes);
    ALLOC(parity, nodes);
    ALLOC(growth, n_edges);
    ALLOC(rate, n_edges);
    ALLOC(fr_head, nodes);
    ALLOC(fr_tail, nodes);
    ALLOC(fr_len, nodes);
    ALLOC(has_frontier, nodes);
    ALLOC(cell_edge, cells);
    ALLOC(cell_next, cells);
    ALLOC(defects, n);
    ALLOC(active, nodes);
    /* Every node at most once, plus the boundary pushed up front. */
    ALLOC(touched_nodes, nodes + 1);
    ALLOC(touched_edges, n_edges);
    ALLOC(scanned, n_edges);
    ALLOC(merges, n_edges);
    ALLOC(mark, nodes);
    ALLOC(peel_deg, nodes);
    ALLOC(peel_start, nodes);
    ALLOC(peel_fill, nodes);
    ALLOC(peel_edge, cells);
    ALLOC(peel_other, cells);
    ALLOC(peel_nodes, nodes);
    ALLOC(order, nodes);
    ALLOC(parent_edge, nodes);
    ALLOC(parent_node, nodes);
    ALLOC(seen, nodes);
    ALLOC(defect, nodes);
    for (int64_t i = 0; i < nodes; i++) {
        g->parent[i] = i;
        g->parent_edge[i] = -1;
    }
    return g;
fail:
    uf_free(g);
    return NULL;
}

static int64_t find(int64_t *parent, int64_t a)
{
    int64_t root = a;
    while (parent[root] != root)
        root = parent[root];
    while (parent[a] != root) { /* path compression */
        int64_t next = parent[a];
        parent[a] = root;
        a = next;
    }
    return root;
}

/* frontier[node] = list(adj[node]), or [] for the boundary. */
static void frontier_init(uf_t *g, int64_t node)
{
    int64_t lo = node == g->n ? 0 : g->indptr[node];
    int64_t hi = node == g->n ? 0 : g->indptr[node + 1];
    g->has_frontier[node] = 1;
    g->fr_len[node] = hi - lo;
    if (lo == hi) {
        g->fr_head[node] = g->fr_tail[node] = -1;
        return;
    }
    g->fr_head[node] = g->n_cells;
    for (int64_t i = lo; i < hi; i++) {
        int64_t c = g->n_cells++;
        g->cell_edge[c] = g->adj[i];
        g->cell_next[c] = c + 1;
    }
    g->fr_tail[node] = g->n_cells - 1;
    g->cell_next[g->n_cells - 1] = -1;
}

/* frontier[root] = [k for k in frontier[root] if growth[k] < cap[k]] */
static void frontier_prune(uf_t *g, int64_t root)
{
    int64_t prev = -1, len = 0;
    for (int64_t c = g->fr_head[root]; c >= 0; c = g->cell_next[c]) {
        int64_t k = g->cell_edge[c];
        if (g->growth[k] >= g->cap[k])
            continue;
        if (prev < 0)
            g->fr_head[root] = c;
        else
            g->cell_next[prev] = c;
        prev = c;
        len++;
    }
    if (prev < 0)
        g->fr_head[root] = -1;
    else
        g->cell_next[prev] = -1;
    g->fr_tail[root] = prev;
    g->fr_len[root] = len;
}

/* frontier[ru].extend(frontier.pop(rv)) */
static void frontier_absorb(uf_t *g, int64_t ru, int64_t rv)
{
    if (g->fr_head[rv] >= 0) {
        if (g->fr_tail[ru] < 0)
            g->fr_head[ru] = g->fr_head[rv];
        else
            g->cell_next[g->fr_tail[ru]] = g->fr_head[rv];
        g->fr_tail[ru] = g->fr_tail[rv];
    }
    g->fr_len[ru] += g->fr_len[rv];
    g->has_frontier[rv] = 0;
}

/* UnionFindDecoder._peel over support[0:n_support]. */
static int peel(uf_t *g, const int64_t *support, int64_t n_support,
                const int64_t *defects, int64_t n_defects, int64_t *collect,
                int64_t *n_collect, int *flip_out)
{
    const int64_t b = g->n;
    int64_t *deg = g->peel_deg, *nodes = g->peel_nodes, *order = g->order;
    int64_t n_nodes = 0, n_order = 0, offset = 0;
    int rc = UF_OK, flip = 0;

    for (int64_t i = 0; i < n_support; i++) {
        int64_t u = g->eu[support[i]], v = g->ev[support[i]];
        if (deg[u]++ == 0)
            nodes[n_nodes++] = u;
        if (deg[v]++ == 0)
            nodes[n_nodes++] = v;
    }
    for (int64_t i = 0; i < n_nodes; i++) {
        g->peel_start[nodes[i]] = g->peel_fill[nodes[i]] = offset;
        offset += deg[nodes[i]];
    }
    for (int64_t i = 0; i < n_support; i++) {
        int64_t k = support[i], u = g->eu[k], v = g->ev[k];
        g->peel_edge[g->peel_fill[u]] = k;
        g->peel_other[g->peel_fill[u]++] = v;
        g->peel_edge[g->peel_fill[v]] = k;
        g->peel_other[g->peel_fill[v]++] = u;
    }
    for (int64_t i = 0; i < n_defects; i++) {
        if (deg[defects[i]] == 0) {
            rc = UF_PEEL_DISCONNECTED;
            goto scrub;
        }
        g->defect[defects[i]] = 1;
    }

    /* Roots: the boundary first, then every node still unvisited.  The
     * order array doubles as the BFS queue: nodes are appended on discovery
     * and dequeued in the same order. */
    for (int64_t r = -1; r < n_nodes; r++) {
        int64_t root = r < 0 ? b : nodes[r];
        if (g->seen[root] || deg[root] == 0)
            continue;
        g->seen[root] = 1;
        int64_t head = n_order;
        order[n_order++] = root;
        while (head < n_order) {
            int64_t cur = order[head++];
            int64_t lo = g->peel_start[cur], hi = lo + deg[cur];
            for (int64_t j = lo; j < hi; j++) {
                int64_t other = g->peel_other[j];
                if (g->seen[other])
                    continue;
                g->seen[other] = 1;
                g->parent_edge[other] = g->peel_edge[j];
                g->parent_node[other] = cur;
                order[n_order++] = other;
            }
        }
    }

    for (int64_t i = n_order - 1; i >= 0; i--) {
        int64_t v = order[i], k = g->parent_edge[v];
        if (!g->defect[v] || k < 0)
            continue;
        flip ^= g->frame[k];
        if (collect)
            collect[(*n_collect)++] = k;
        g->defect[v] = 0;
        g->defect[g->parent_node[v]] ^= 1;
    }
    g->defect[b] = 0;
    for (int64_t i = 0; i < n_nodes; i++) {
        if (g->defect[nodes[i]]) {
            rc = UF_PEEL_DISCONNECTED;
            goto scrub;
        }
    }
    *flip_out = flip;

scrub:
    for (int64_t i = 0; i < n_nodes; i++) {
        int64_t nd = nodes[i];
        deg[nd] = 0;
        g->seen[nd] = 0;
        g->defect[nd] = 0;
        g->parent_edge[nd] = -1;
    }
    g->seen[b] = 0;
    return rc;
}

/* UnionFindDecoder._decode_defects: grow + peel one syndrome. */
static int decode_defects(uf_t *g, const int64_t *defects, int64_t n_defects,
                          int64_t *collect, int64_t *n_collect, int *flip)
{
    const int64_t b = g->n;
    int64_t *parent = g->parent, *parity = g->parity;
    int64_t *growth = g->growth, *rate = g->rate, *cap = g->cap;
    int64_t n_touched_nodes = 0, n_touched_edges = 0, n_support = 0;
    int rc = UF_OK;

    g->n_cells = 0;
    g->touched_nodes[n_touched_nodes++] = b;
    for (int64_t i = 0; i < n_defects; i++) {
        int64_t d = defects[i];
        parity[d] = 1;
        if (!g->has_frontier[d]) { /* a repeated id would rebuild the same list */
            frontier_init(g, d);
            g->touched_nodes[n_touched_nodes++] = d;
        }
    }
    /* The first round's active list is the defect list itself, repeats
     * included; later rounds rebuild it as distinct odd cluster roots. */
    const int64_t *active = defects;
    int64_t n_active = n_defects;

    for (int64_t it = 0; it < g->n_edges + 2 && n_active > 0; it++) {
        /* Event-driven half-step growth: each frontier edge of an active
         * cluster grows at rate 1 per incident active cluster, advanced by
         * the largest step that still completes at least one edge. */
        int64_t n_scanned = 0, n_merges = 0, delta = (int64_t)1 << 30;
        for (int64_t a = 0; a < n_active; a++) {
            int64_t root = active[a];
            int stale = 0;
            for (int64_t c = g->fr_head[root]; c >= 0; c = g->cell_next[c]) {
                int64_t k = g->cell_edge[c], slack = cap[k] - growth[k];
                if (slack <= 0) {
                    stale = 1; /* fully grown: no longer frontier */
                    continue;
                }
                int64_t r = rate[k];
                if (r == 0)
                    g->scanned[n_scanned++] = k;
                rate[k] = ++r;
                int64_t steps = (slack + r - 1) / r;
                if (steps < delta)
                    delta = steps;
            }
            if (stale)
                frontier_prune(g, root);
        }
        if (n_scanned == 0) {
            rc = UF_STALLED;
            goto scrub;
        }
        for (int64_t i = 0; i < n_scanned; i++) {
            int64_t k = g->scanned[i], grown = growth[k];
            if (grown == 0)
                g->touched_edges[n_touched_edges++] = k;
            grown += rate[k] * delta;
            growth[k] = grown;
            rate[k] = 0;
            if (grown >= cap[k])
                g->merges[n_merges++] = k;
        }
        for (int64_t i = 0; i < n_merges; i++) {
            int64_t k = g->merges[i];
            int64_t ru = find(parent, g->eu[k]), rv = find(parent, g->ev[k]);
            if (ru == rv)
                continue;
            if (!g->has_frontier[ru]) { /* fresh node (or the boundary) joins */
                frontier_init(g, ru);
                g->touched_nodes[n_touched_nodes++] = ru;
            }
            if (!g->has_frontier[rv]) {
                frontier_init(g, rv);
                g->touched_nodes[n_touched_nodes++] = rv;
            }
            if (g->fr_len[ru] < g->fr_len[rv]) { /* keep the larger frontier */
                int64_t t = ru;
                ru = rv;
                rv = t;
            }
            parent[rv] = ru;
            parity[ru] += parity[rv];
            frontier_absorb(g, ru, rv);
        }
        int64_t broot = find(parent, b);
        g->stamp++;
        n_active = 0;
        for (int64_t i = 0; i < n_defects; i++) {
            int64_t r = find(parent, defects[i]);
            if (g->mark[r] == g->stamp)
                continue;
            g->mark[r] = g->stamp;
            if (r != broot && (parity[r] & 1))
                g->active[n_active++] = r;
        }
        active = g->active;
    }
    if (n_active > 0) {
        rc = UF_NO_CONVERGENCE;
        goto scrub;
    }
    /* The grown support in touched-edge order (scanned is free to reuse). */
    for (int64_t i = 0; i < n_touched_edges; i++) {
        int64_t k = g->touched_edges[i];
        if (growth[k] >= cap[k])
            g->scanned[n_support++] = k;
    }
    rc = peel(g, g->scanned, n_support, defects, n_defects, collect, n_collect,
              flip);

scrub:
    for (int64_t i = 0; i < n_touched_nodes; i++) {
        int64_t node = g->touched_nodes[i];
        parent[node] = node;
        parity[node] = 0;
        g->has_frontier[node] = 0;
    }
    for (int64_t i = 0; i < n_touched_edges; i++)
        growth[g->touched_edges[i]] = 0;
    return rc;
}

/*
 * Decode a C-contiguous (n_shots, n) matrix of 0/1 bytes into out[n_shots].
 *
 * Mirrors UnionFindDecoder.decode_batch: empty rows decode to 0, one-defect
 * rows read the boundary table, and an unreachable lone defect anywhere in
 * the batch wins over a growth failure (the Python path checks every
 * single-defect row before it decodes any multi-defect row).
 */
int uf_decode_batch(void *handle, const uint8_t *syndromes, int64_t n_shots,
                    uint8_t *out)
{
    uf_t *g = handle;
    const int64_t n = g->n;
    int err = UF_OK;
    for (int64_t s = 0; s < n_shots; s++) {
        const uint8_t *row = syndromes + s * n;
        int64_t count = 0, j = 0;
        for (; j + 8 <= n; j += 8) { /* skip all-zero words: rows are sparse */
            uint64_t word;
            memcpy(&word, row + j, sizeof word);
            if (!word)
                continue;
            for (int64_t t = j; t < j + 8; t++)
                if (row[t])
                    g->defects[count++] = t;
        }
        for (; j < n; j++)
            if (row[j])
                g->defects[count++] = j;

        if (count == 0) {
            out[s] = 0;
        } else if (count == 1) {
            if (!g->single_reachable[g->defects[0]])
                return UF_LONE_DEFECT;
            out[s] = g->single_verdict[g->defects[0]];
        } else if (err == UF_OK) {
            int flip = 0;
            err = decode_defects(g, g->defects, count, NULL, NULL, &flip);
            out[s] = (uint8_t)flip;
        }
    }
    return err;
}

/*
 * Correction edge ids of one syndrome, in the order the peeling emits them
 * (UnionFindDecoder.decode_edges).  Defect ids must lie in [0, n); edges
 * needs room for n ids.  Returns the edge count, or minus a failure code.
 */
int64_t uf_decode_edges(void *handle, const int64_t *defects, int64_t n_defects,
                        int64_t *edges)
{
    int64_t n_edges = 0;
    int flip = 0;
    int rc = decode_defects(handle, defects, n_defects, edges, &n_edges, &flip);
    return rc ? -rc : n_edges;
}
