/*
 * Native detector-error-model extraction: one backward sensitivity pass.
 *
 * The Python walk in dem.py (enumerate_fault_sites, _propagate_frames,
 * _project), which stays as the bit-identity oracle and the fallback when
 * no C compiler is available, pushes one bit lane per fault site forward
 * through the Clifford schedule.  This kernel propagates one bit lane per
 * detector and observable backward instead (Gidney 2021, arXiv:2103.02202):
 * walking the sorted stream from its last row to its first, sx[q] and sz[q]
 * hold the lanes that an X part and a Z part of a Pauli on tableau qubit q
 * at the current point would flip.  A fault's footprint is read off those
 * planes at its location: X -> sx[q], Z -> sz[q], Y -> sx[q] ^ sz[q].
 *
 * Each backward rule is the transpose of the forward frame rule:
 *
 *     row            forward frame              backward planes
 *     Z_pi/4         z ^= x                     sx ^= sz
 *     X_pi/4         x ^= z                     sz ^= sx
 *     Y_pi/4         swap(x, z)                 swap(sx, sz)
 *     ZZ a b         z_a, z_b ^= x_a ^ x_b      sx_a, sx_b ^= sz_a ^ sz_b
 *     Prepare_Z      x = z = 0                  sx = sz = 0
 *     Measure_Z      label <- x                 sx ^= the label's lanes
 *
 * Pauli gates, Load and Move change neither.  A label's lanes (detectors
 * and observables listing it, a repeat cancelling) belong to its last
 * measurement only, as the forward walk overwrites an earlier one.
 *
 * Sites come out in the forward walk's order: per row, one idle site per
 * idle gap, then the gate's sites (three gate1 Paulis, fifteen gate2
 * Paulis, one prep flip or one readout flip), then one dephase site per
 * qubit.  dem_count_sites sizes the columns; dem_walk fills them backward
 * from each row's end offset.  Footprints are deduplicated into mechanism
 * ids through a hash table over lane words, and the distinct keys are
 * sorted as Python sorts (footprint tuple, observable mask) pairs, so a
 * site's mechanism id is its key's rank.  The walk does only integer and
 * bit work; durations are copied, never computed.
 *
 * Two passes around the walk do float work, each op for op as the Python
 * code it replaces.  dem_resolve resolves the stream the walk reads, as
 * interpreter.replay_stream does; dem_fold folds a table's priced sites
 * into mechanisms, as dem.py's NumPy fold does.  Both stay bit for bit only
 * while every product and sum rounds on its own, so the kernels are built
 * with -ffp-contract=off (repro.util.native), which keeps a compiler from
 * fusing a multiply and an add into one FMA instruction.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Row opcodes (dem.py _OPCODES).  dem.py raises at the first OP_OTHER_1Q or
 * OP_OTHER row before dem_walk runs; dem_count_sites counts their sites. */
enum {
    OP_RELOCATE, OP_PAULI, OP_PHASE, OP_SQRT_X, OP_SWAP, OP_ZZ, OP_PREP, OP_MEAS,
    OP_OTHER_1Q, OP_OTHER
};
/* Site kinds, whens and Pauli letters (dem.py KINDS, WHENS, LETTERS). */
enum { K_GATE1, K_GATE2, K_PREP, K_READOUT, K_DEPHASE, K_IDLE };
enum { W_BEFORE, W_AFTER, W_RECORD };
enum { L_I, L_X, L_Y, L_Z };
/* Structure flags: which channels can fire (dem.py dem_structure_key). */
enum { F_P1 = 1, F_P2 = 2, F_PREP = 4, F_MEAS = 8, F_IDLE = 16 };

static int is_1q(int op) { return (op >= OP_PAULI && op <= OP_SWAP) || op == OP_OTHER_1Q; }

static int64_t row_sites(int op, int64_t nq, int64_t n_idle, double duration, int flags)
{
    if (nq == 0)
        return 0;
    int64_t n = (flags & F_IDLE) ? n_idle : 0;
    if (is_1q(op) && (flags & F_P1))
        n += 3;
    else if (op == OP_ZZ && (flags & F_P2) && nq >= 2)
        n += 15;
    else if (op == OP_PREP && (flags & F_PREP))
        n += 1;
    else if (op == OP_MEAS && (flags & F_MEAS))
        n += 1;
    if ((flags & F_IDLE) && op != OP_PREP && op != OP_MEAS && duration > 0)
        n += nq;
    return n;
}

int64_t dem_count_sites(int64_t n_rows, const int8_t *op, const int64_t *qptr,
                        const int64_t *iptr, const double *duration, int64_t flags)
{
    int64_t n = 0;
    for (int64_t r = 0; r < n_rows; r++)
        n += row_sites(op[r], qptr[r + 1] - qptr[r], iptr[r + 1] - iptr[r], duration[r],
                       (int)flags);
    return n;
}

/* ------------------------------------------------------------ key interning */
typedef struct {
    int64_t words;   /* lane words per key */
    uint64_t *keys;  /* n * words */
    int64_t n, cap;  /* keys stored, key capacity */
    int64_t *slots;  /* open addressing: key id, or -1 when empty */
    int64_t n_slots; /* a power of two, at least twice n */
} interner_t;

static uint64_t hash_key(const uint64_t *key, int64_t words)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int64_t i = 0; i < words; i++) {
        h ^= key[i];
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 32;
    }
    return h;
}

static int64_t *find_slot(const interner_t *t, const uint64_t *key)
{
    uint64_t mask = (uint64_t)t->n_slots - 1;
    uint64_t i = hash_key(key, t->words) & mask;
    for (;; i = (i + 1) & mask) {
        int64_t id = t->slots[i];
        if (id < 0 || memcmp(t->keys + id * t->words, key, t->words * 8) == 0)
            return t->slots + i;
    }
}

static int grow_slots(interner_t *t)
{
    int64_t *old = t->slots;
    int64_t n_old = t->n_slots;
    t->n_slots = n_old ? 2 * n_old : 1024;
    t->slots = malloc(t->n_slots * sizeof *t->slots);
    if (!t->slots) {
        t->slots = old;
        t->n_slots = n_old;
        return -1;
    }
    memset(t->slots, 0xff, t->n_slots * sizeof *t->slots);
    for (int64_t id = 0; id < t->n; id++)
        *find_slot(t, t->keys + id * t->words) = id;
    free(old);
    return 0;
}

/* The key's id, adding it when new; -1 when out of memory. */
static int64_t intern(interner_t *t, const uint64_t *key)
{
    if (2 * (t->n + 1) > t->n_slots && grow_slots(t) < 0)
        return -1;
    int64_t *slot = find_slot(t, key);
    if (*slot >= 0)
        return *slot;
    if (t->n == t->cap) {
        int64_t cap = t->cap ? 2 * t->cap : 256;
        uint64_t *keys = realloc(t->keys, cap * t->words * sizeof *keys);
        if (!keys)
            return -1;
        t->keys = keys;
        t->cap = cap;
    }
    memcpy(t->keys + t->n * t->words, key, t->words * sizeof *key);
    *slot = t->n;
    return t->n++;
}

/* ---------------------------------------------------------- sorted key list */
/* The distinct keys as Python sees them: ascending detector ids (CSR) and an
 * observable mask, sorted by (ids, mask) with a proper prefix first. */
typedef struct {
    int64_t n_keys, n_ids;
    int64_t *ptr;
    int32_t *ids;
    uint64_t *obs;
} keys_t;

static void free_keys(keys_t *k)
{
    if (k) {
        free(k->ptr);
        free(k->ids);
        free(k->obs);
        free(k);
    }
}

static int key_less(const keys_t *k, int64_t a, int64_t b)
{
    int64_t i = k->ptr[a], ie = k->ptr[a + 1], j = k->ptr[b], je = k->ptr[b + 1];
    for (; i < ie && j < je; i++, j++)
        if (k->ids[i] != k->ids[j])
            return k->ids[i] < k->ids[j];
    if (i < ie || j < je)
        return i == ie;
    return k->obs[a] < k->obs[b];
}

/* Stable bottom-up merge sort of perm[0..n) by key_less. */
static int sort_keys(const keys_t *k, int64_t *perm, int64_t n)
{
    int64_t *tmp = malloc((n ? n : 1) * sizeof *tmp);
    if (!tmp)
        return -1;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                tmp[o++] = key_less(k, perm[j], perm[i]) ? perm[j++] : perm[i++];
            while (i < mid)
                tmp[o++] = perm[i++];
            while (j < hi)
                tmp[o++] = perm[j++];
        }
        memcpy(perm, tmp, n * sizeof *perm);
    }
    free(tmp);
    return 0;
}

/* Decode the interned lane keys and sort them; rank[id] is key id's place. */
static keys_t *sorted_keys(const interner_t *t, int64_t n_det, int64_t n_obs, int64_t *rank)
{
    int64_t n = t->n, n_ids = 0;
    keys_t *raw = calloc(1, sizeof *raw), *out = calloc(1, sizeof *out);
    int64_t *perm = malloc((n ? n : 1) * sizeof *perm);
    if (!raw || !out || !perm)
        goto fail;
    for (int64_t i = 0; i < n * t->words; i++)
        n_ids += __builtin_popcountll(t->keys[i]);
    raw->ptr = malloc((n + 1) * sizeof *raw->ptr);
    raw->ids = malloc((n_ids ? n_ids : 1) * sizeof *raw->ids);
    raw->obs = calloc(n ? n : 1, sizeof *raw->obs);
    out->ptr = malloc((n + 1) * sizeof *out->ptr);
    out->ids = malloc((n_ids ? n_ids : 1) * sizeof *out->ids);
    out->obs = malloc((n ? n : 1) * sizeof *out->obs);
    if (!raw->ptr || !raw->ids || !raw->obs || !out->ptr || !out->ids || !out->obs)
        goto fail;
    int64_t m = 0;
    for (int64_t id = 0; id < n; id++) {
        raw->ptr[id] = m;
        const uint64_t *key = t->keys + id * t->words;
        for (int64_t w = 0; w < t->words; w++) {
            for (uint64_t bits = key[w]; bits; bits &= bits - 1) {
                int64_t lane = 64 * w + __builtin_ctzll(bits);
                if (lane < n_det)
                    raw->ids[m++] = (int32_t)lane;
                else if (lane - n_det < n_obs)
                    raw->obs[id] |= (uint64_t)1 << (lane - n_det);
            }
        }
    }
    raw->ptr[n] = m;
    raw->n_keys = n;
    for (int64_t i = 0; i < n; i++)
        perm[i] = i;
    if (sort_keys(raw, perm, n) < 0)
        goto fail;
    m = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t id = perm[i];
        rank[id] = i;
        out->ptr[i] = m;
        for (int64_t j = raw->ptr[id]; j < raw->ptr[id + 1]; j++)
            out->ids[m++] = raw->ids[j];
        out->obs[i] = raw->obs[id];
    }
    out->ptr[n] = m;
    out->n_keys = n;
    out->n_ids = m;
    free(perm);
    free_keys(raw);
    return out;
fail:
    free(perm);
    free_keys(raw);
    free_keys(out);
    return NULL;
}

/* --------------------------------------------------------------- the walk */
typedef struct {
    int64_t words;
    const uint64_t *sx, *sz;
    uint64_t *key;
    interner_t keys;
    int64_t *rows, *mech;
    int8_t *when, *kind;
    double *dur;
    int32_t *pauli; /* two per site: 4 * qubit + letter, 0 when absent */
} walk_t;

/* XOR into the scratch key the lanes a Pauli letter on qubit q flips. */
static void add_pauli(walk_t *w, int32_t q, int letter)
{
    const uint64_t *x = w->sx + (int64_t)q * w->words, *z = w->sz + (int64_t)q * w->words;
    if (letter == L_X || letter == L_Y)
        for (int64_t i = 0; i < w->words; i++)
            w->key[i] ^= x[i];
    if (letter == L_Y || letter == L_Z)
        for (int64_t i = 0; i < w->words; i++)
            w->key[i] ^= z[i];
}

/* Site s: its columns, and its footprint (the scratch key) interned. */
static int emit(walk_t *w, int64_t s, int64_t row, int when, int kind, double dur,
                int32_t p0, int32_t p1)
{
    w->rows[s] = row;
    w->when[s] = (int8_t)when;
    w->kind[s] = (int8_t)kind;
    w->dur[s] = dur;
    w->pauli[2 * s] = p0;
    w->pauli[2 * s + 1] = p1;
    int64_t id = intern(&w->keys, w->key);
    w->mech[s] = id;
    memset(w->key, 0, w->words * sizeof *w->key);
    return id < 0 ? -1 : 0;
}

/* One-qubit site: the Pauli `letter` on q. */
static int emit_1q(walk_t *w, int64_t s, int64_t row, int when, int kind, double dur,
                   int32_t q, int letter)
{
    add_pauli(w, q, letter);
    return emit(w, s, row, when, kind, dur, 4 * q + letter, 0);
}

static void xor_words(uint64_t *dst, const uint64_t *src, int64_t words)
{
    for (int64_t i = 0; i < words; i++)
        dst[i] ^= src[i];
}

/*
 * Fill the n_sites site columns and mechanism ids of a stream whose rows
 * carry opcodes, tableau qubits (CSR qptr/qs), durations and idle gaps
 * (CSR iptr/iq/igap).  label[r] is the lane row in `lanes` of row r's
 * measurement when it is its label's last, else -1.  Returns the sorted key
 * list for dem_fetch, or NULL when out of memory.
 */
void *dem_walk(int64_t n_rows, const int8_t *op, const int64_t *qptr, const int32_t *qs,
               const double *duration, const int64_t *iptr, const int32_t *iq,
               const double *igap, const int64_t *label, const uint64_t *lanes,
               int64_t n_qubits, int64_t n_det, int64_t n_obs, int64_t words, int64_t flags,
               int64_t n_sites, int64_t *rows, int8_t *when, int8_t *kind, double *dur,
               int32_t *pauli, int64_t *mech, int64_t *n_keys, int64_t *n_ids)
{
    keys_t *result = NULL;
    uint64_t *sx = calloc(n_qubits * words, sizeof *sx);
    uint64_t *sz = calloc(n_qubits * words, sizeof *sz);
    uint64_t *tmp = malloc(words * sizeof *tmp);
    int64_t *rank = NULL;
    walk_t w = {words, sx, sz, calloc(words, sizeof(uint64_t)), {words, NULL, 0, 0, NULL, 0},
                rows, mech, when, kind, dur, pauli};
    if (!sx || !sz || !tmp || !w.key)
        goto done;
    int f = (int)flags;
    int64_t end = n_sites;
    for (int64_t r = n_rows - 1; r >= 0; r--) {
        int o = op[r];
        int64_t nq = qptr[r + 1] - qptr[r];
        const int32_t *q = qs + qptr[r];
        int64_t n_idle = (f & F_IDLE) ? iptr[r + 1] - iptr[r] : 0;
        int64_t base = end - row_sites(o, nq, iptr[r + 1] - iptr[r], duration[r], f);
        end = base;
        if (nq == 0)
            continue; /* a Load: no sites, no action */

        /* Sites after the row's action read the planes as they stand. */
        int64_t s = base + n_idle;
        if (is_1q(o) && (f & F_P1)) {
            for (int letter = L_X; letter <= L_Z; letter++)
                if (emit_1q(&w, s++, r, W_AFTER, K_GATE1, 0.0, q[0], letter) < 0)
                    goto done;
        } else if (o == OP_ZZ && (f & F_P2) && nq >= 2) {
            for (int k = 1; k < 16; k++) {
                int la = k >> 2, lb = k & 3;
                int32_t p[2] = {0, 0}, *next = p;
                if (la) {
                    add_pauli(&w, q[0], la);
                    *next++ = 4 * q[0] + la;
                }
                if (lb) {
                    add_pauli(&w, q[1], lb);
                    *next = 4 * q[1] + lb;
                }
                if (emit(&w, s++, r, W_AFTER, K_GATE2, 0.0, p[0], p[1]) < 0)
                    goto done;
            }
        } else if (o == OP_PREP && (f & F_PREP)) {
            if (emit_1q(&w, s++, r, W_AFTER, K_PREP, 0.0, q[0], L_X) < 0)
                goto done;
        } else if (o == OP_MEAS && (f & F_MEAS)) {
            if (label[r] >= 0)
                xor_words(w.key, lanes + label[r] * words, words);
            if (emit(&w, s++, r, W_RECORD, K_READOUT, 0.0, 0, 0) < 0)
                goto done;
        }
        if ((f & F_IDLE) && o != OP_PREP && o != OP_MEAS && duration[r] > 0)
            for (int64_t i = 0; i < nq; i++)
                if (emit_1q(&w, s++, r, W_AFTER, K_DEPHASE, duration[r], q[i], L_Z) < 0)
                    goto done;

        /* The row's backward action. */
        uint64_t *x = sx + (int64_t)q[0] * words, *z = sz + (int64_t)q[0] * words;
        switch (o) {
        case OP_PHASE:
            xor_words(x, z, words);
            break;
        case OP_SQRT_X:
            xor_words(z, x, words);
            break;
        case OP_SWAP:
            memcpy(tmp, x, words * sizeof *tmp);
            memcpy(x, z, words * sizeof *x);
            memcpy(z, tmp, words * sizeof *z);
            break;
        case OP_ZZ:
            if (nq >= 2) {
                uint64_t *xb = sx + (int64_t)q[1] * words, *zb = sz + (int64_t)q[1] * words;
                for (int64_t i = 0; i < words; i++) {
                    uint64_t t = z[i] ^ zb[i];
                    x[i] ^= t;
                    xb[i] ^= t;
                }
            }
            break;
        case OP_PREP:
            memset(x, 0, words * sizeof *x);
            memset(z, 0, words * sizeof *z);
            break;
        case OP_MEAS:
            if (label[r] >= 0)
                xor_words(x, lanes + label[r] * words, words);
            break;
        default: /* Pauli gates, Move */
            break;
        }

        /* Idle gaps close before the row's action. */
        for (int64_t i = 0, g = iptr[r]; i < n_idle; i++, g++)
            if (emit_1q(&w, base + i, r, W_BEFORE, K_IDLE, igap[g], iq[g], L_Z) < 0)
                goto done;
    }

    rank = malloc((w.keys.n ? w.keys.n : 1) * sizeof *rank);
    if (!rank)
        goto done;
    result = sorted_keys(&w.keys, n_det, n_obs, rank);
    if (result) {
        for (int64_t s = 0; s < n_sites; s++)
            mech[s] = rank[mech[s]];
        *n_keys = result->n_keys;
        *n_ids = result->n_ids;
    }
done:
    free(rank);
    free(w.keys.keys);
    free(w.keys.slots);
    free(w.key);
    free(tmp);
    free(sx);
    free(sz);
    return result;
}

/* Copy a dem_walk key list out (outputs may be NULL) and free it. */
void dem_fetch(void *handle, int64_t *ptr, int32_t *ids, uint64_t *obs)
{
    keys_t *k = handle;
    if (ptr)
        memcpy(ptr, k->ptr, (k->n_keys + 1) * sizeof *ptr);
    if (ids)
        memcpy(ids, k->ids, k->n_ids * sizeof *ids);
    if (obs)
        memcpy(obs, k->obs, k->n_keys * sizeof *obs);
    free_keys(k);
}

/* ------------------------------------------------------ stream resolution */
/*
 * interpreter.replay_stream's pass over the sorted stream, for its default
 * tableau layout.  occ[site] is the tableau qubit of the ion at a qsite, -1
 * when empty, and a Load gives its new ion the next qubit.  Per row it
 * writes the tableau qubits (CSR qptr/qs: none for a Load, the moving ion's
 * for a Move) and the idle gaps the row closes (CSR iptr/iq/igap/ipred):
 * start - busy_end in double arithmetic, recorded when positive, with the
 * row that last made the qubit busy, -1 before any.
 *
 * Returns -1 and the tableau size, or the first row it cannot resolve: a
 * Load without a site or onto an occupied qsite, a gate on an empty qsite,
 * a Move without two sites or into an occupied qsite, or a site outside
 * occ; n_rows when out of memory.  The caller then uses none of the
 * outputs and runs the Python walk, whose replay_stream raises its own
 * error or resolves what is left to it (rows on negative qsites).
 */
int64_t dem_resolve(int64_t n_rows, const int32_t *code, const int64_t *site0,
                    const int64_t *site1, const int8_t *nsites, const double *t,
                    const double *duration, int64_t load_code, int64_t move_code,
                    int64_t n_slots, int32_t *occ, int64_t n_ions, int64_t *qptr, int32_t *qs,
                    int64_t *iptr, int32_t *iq, double *igap, int64_t *ipred,
                    int64_t *n_qubits)
{
    int64_t n_loads = 0;
    for (int64_t r = 0; r < n_rows; r++)
        n_loads += code[r] == load_code;
    int64_t cap = n_ions + n_loads > 1 ? n_ions + n_loads : 1;
    double *busy_end = malloc(cap * sizeof *busy_end);
    int64_t *busy_row = malloc(cap * sizeof *busy_row);
    int64_t fail = -1, m = 0, g = 0;
    if (!busy_end || !busy_row) {
        fail = n_rows;
        goto done;
    }
    for (int64_t q = 0; q < cap; q++) {
        busy_end[q] = 0.0;
        busy_row[q] = -1;
    }
    qptr[0] = iptr[0] = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int k = nsites[r];
        int64_t s0 = site0[r], s1 = site1[r];
        fail = r; /* until the row resolves */
        if (k < 0 || k > 2)
            goto done;
        if (code[r] == load_code) {
            if (k < 1 || s0 < 0 || s0 >= n_slots || occ[s0] >= 0)
                goto done;
            occ[s0] = (int32_t)n_ions++;
        } else {
            int move = code[r] == move_code;
            int nq = move ? 1 : k;
            int32_t q[2];
            if (move && k != 2)
                goto done;
            for (int i = 0; i < nq; i++) {
                int64_t s = i ? s1 : s0;
                if (s < 0 || s >= n_slots || occ[s] < 0)
                    goto done;
                q[i] = occ[s];
            }
            if (move) {
                if (s1 < 0 || s1 >= n_slots || occ[s1] >= 0)
                    goto done;
                occ[s1] = occ[s0];
                occ[s0] = -1;
            }
            double start = t[r], end = t[r] + duration[r];
            for (int i = 0; i < nq; i++) {
                double gap = start - busy_end[q[i]];
                if (gap > 0) {
                    iq[g] = q[i];
                    igap[g] = gap;
                    ipred[g++] = busy_row[q[i]];
                }
            }
            for (int i = 0; i < nq; i++) {
                busy_end[q[i]] = end;
                busy_row[q[i]] = r;
                qs[m++] = q[i];
            }
        }
        qptr[r + 1] = m;
        iptr[r + 1] = g;
    }
    fail = -1;
    *n_qubits = cap;
done:
    free(busy_end);
    free(busy_row);
    return fail;
}

/* ------------------------------------------------------------------ fold */
/*
 * Fold priced sites into mechanisms, in site order.  Site s of kind k fires
 * with rate[k]; with `timed` given, the dephasing kinds instead read the
 * next of its n_timed entries (NumPy prices those, so no libm call is made
 * here).  A site is kept when !(p <= 0.0) and its key is visible; a key's
 * first kept site sets p[key] and each later one XOR-combines into it as
 * p <- a * (1 - b) + b * (1 - a), the NumPy fold's rank-by-rank operations.
 * count[key] is the key's kept sites.
 *
 * Returns -1; the first site whose kind or key is out of range; or -2 when
 * `timed` does not hold one entry per dephasing site.  On any failure the
 * caller uses none of the outputs.
 */
int64_t dem_fold(int64_t n_sites, const int8_t *kind, const int64_t *mech, const double *rate,
                 const double *timed, int64_t n_timed, const uint8_t *visible, int64_t n_keys,
                 double *p, int64_t *count)
{
    memset(count, 0, n_keys * sizeof *count);
    int64_t j = 0;
    for (int64_t s = 0; s < n_sites; s++) {
        int k = kind[s];
        int64_t m = mech[s];
        int is_timed = timed && k >= K_DEPHASE;
        if (k < K_GATE1 || k > K_IDLE || m < 0 || m >= n_keys)
            return s;
        if (is_timed && j == n_timed)
            return -2;
        double b = is_timed ? timed[j++] : rate[k];
        if (b <= 0.0 || !visible[m])
            continue;
        if (count[m]++) {
            double a = p[m];
            p[m] = a * (1.0 - b) + b * (1.0 - a);
        } else {
            p[m] = b;
        }
    }
    if (timed && j != n_timed)
        return -2;
    return -1;
}
