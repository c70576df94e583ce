/*
 * Native SIMD beam-pass scheduling: simd.py's list scheduler, line for line.
 *
 * simd.py lays a circuit's sorted stream out once as columns, and both this
 * kernel and the Python loop (_schedule_python, which stays as the
 * bit-identity oracle and the fallback when no C compiler is available)
 * read them.  Per row:
 *
 *     cls[r]        beam-class id, ranked by (mnemonic, duration); -1 for
 *                   transport (Move, Load), which no beam limits
 *     duration[r]   the row's duration
 *     res[3r..3r+2] its resources, -1 padded: its sites, then
 *                   n_positions + junction for a junction-crossing Move
 *
 * The dependency DAG comes from per-resource last-user chains over the
 * sorted stream, so rows sharing a resource keep their order.  Each step
 * drains every ready transport row at its earliest start (each batch in
 * stream order), then fires the ready class whose earliest member can start
 * first, the lowest class id winning a tie, as passes of at most `width`
 * members (0 = unlimited).  A row's earliest start is fixed when it becomes
 * ready: the latest end over its resources.  site_parallel passes occupy
 * their member sites for duration + overhead; under pass_serial one global
 * beam serialises passes and is held for duration + overhead.  Only the
 * Python loop's float operations are done, in its order, so start times
 * are bit-identical.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_RES 3

typedef struct {
    const int32_t *cls;
    const int64_t *res;
    double *avail; /* per resource: when its last scheduled user ends */
    double *est;   /* per row: earliest start, fixed when it becomes ready */
    int64_t *ready;      /* per class: its ready rows, at class_ptr[c] */
    const int64_t *class_ptr;
    int64_t *class_len;
    double *class_min;   /* per class: the least earliest start ready */
    int64_t *transport;  /* ready transport rows */
    int64_t n_transport;
} sched_t;

static int cmp_row(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static void release(sched_t *s, int64_t i)
{
    double earliest = 0.0;
    for (int k = 0; k < MAX_RES; k++) {
        int64_t r = s->res[MAX_RES * i + k];
        if (r < 0)
            break;
        if (s->avail[r] > earliest)
            earliest = s->avail[r];
    }
    s->est[i] = earliest;
    int32_t c = s->cls[i];
    if (c >= 0) {
        s->ready[s->class_ptr[c] + s->class_len[c]++] = i;
        if (earliest < s->class_min[c])
            s->class_min[c] = earliest;
    } else {
        s->transport[s->n_transport++] = i;
    }
}

static void occupy(sched_t *s, int64_t i, double end)
{
    for (int k = 0; k < MAX_RES; k++) {
        int64_t r = s->res[MAX_RES * i + k];
        if (r < 0)
            break;
        s->avail[r] = end;
    }
}

static void release_successors(sched_t *s, int64_t i, const int64_t *succ_ptr,
                               const int64_t *succ, int64_t *indeg)
{
    for (int64_t e = succ_ptr[i]; e < succ_ptr[i + 1]; e++)
        if (--indeg[succ[e]] == 0)
            release(s, succ[e]);
}

/*
 * Schedules n_rows rows; writes each row's start to new_t and the widest
 * pass to *max_group.  Returns the pass count, -1 when out of memory and
 * -2 when rows are left that can never become ready.
 */
int64_t simd_schedule(int64_t n_rows, const int32_t *cls, const double *duration,
                      const int64_t *res, int64_t n_res, int64_t n_classes, int64_t width,
                      int64_t serial, double overhead, double *new_t, int64_t *max_group)
{
    int64_t n = n_rows, n_passes = 0, status = -1;
    int64_t *last = malloc((n_res ? n_res : 1) * sizeof *last);
    int64_t *indeg = calloc(n ? n : 1, sizeof *indeg);
    int64_t *preds = malloc((n ? MAX_RES * n : 1) * sizeof *preds);
    int64_t *succ_ptr = calloc(n + 1, sizeof *succ_ptr);
    int64_t *succ = malloc((n ? MAX_RES * n : 1) * sizeof *succ);
    int64_t *fill = malloc((n ? n : 1) * sizeof *fill);
    int64_t *class_ptr = calloc(n_classes + 1, sizeof *class_ptr);
    int64_t *class_len = calloc(n_classes ? n_classes : 1, sizeof *class_len);
    double *class_min = malloc((n_classes ? n_classes : 1) * sizeof *class_min);
    int64_t *ready = malloc((n ? n : 1) * sizeof *ready);
    int64_t *members = malloc((n ? n : 1) * sizeof *members);
    int64_t *transport = malloc((n ? n : 1) * sizeof *transport);
    int64_t *batch = malloc((n ? n : 1) * sizeof *batch);
    double *avail = calloc(n_res ? n_res : 1, sizeof *avail);
    double *est = calloc(n ? n : 1, sizeof *est);
    if (!last || !indeg || !preds || !succ_ptr || !succ || !fill || !class_ptr || !class_len ||
        !class_min || !ready || !members || !transport || !batch || !avail || !est)
        goto done;

    /* The DAG: row i depends on the previous user of each of its resources. */
    for (int64_t r = 0; r < n_res; r++)
        last[r] = -1;
    for (int64_t i = 0; i < n; i++) {
        for (int k = 0; k < MAX_RES; k++) {
            int64_t r = res[MAX_RES * i + k];
            if (r < 0)
                break;
            int64_t prev = last[r];
            last[r] = i;
            int seen = prev < 0;
            for (int j = 0; j < indeg[i] && !seen; j++)
                seen = preds[MAX_RES * i + j] == prev;
            if (!seen) {
                preds[MAX_RES * i + indeg[i]++] = prev;
                succ_ptr[prev + 1]++;
            }
        }
    }
    /* Successor lists (CSR) in stream order; `fill` is each list's end. */
    for (int64_t i = 0; i < n; i++)
        succ_ptr[i + 1] += succ_ptr[i];
    memcpy(fill, succ_ptr, n * sizeof *fill);
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < indeg[i]; j++)
            succ[fill[preds[MAX_RES * i + j]]++] = i;

    /* Each class's ready rows fit in a slice sized by its row count. */
    for (int64_t i = 0; i < n; i++)
        if (cls[i] >= 0)
            class_ptr[cls[i] + 1]++;
    for (int64_t c = 0; c < n_classes; c++) {
        class_ptr[c + 1] += class_ptr[c];
        class_min[c] = INFINITY;
    }

    sched_t s = {cls, res, avail, est, ready, class_ptr, class_len, class_min, transport, 0};
    for (int64_t i = 0; i < n; i++)
        if (indeg[i] == 0)
            release(&s, i);

    double beam_free = 0.0;
    int64_t scheduled = 0;
    *max_group = 0;
    while (scheduled < n) {
        /* Transport is not beam-limited: drain every ready row at its
         * earliest start, in stream order, before the next pass. */
        while (s.n_transport) {
            int64_t n_batch = s.n_transport;
            memcpy(batch, transport, n_batch * sizeof *batch);
            s.n_transport = 0;
            qsort(batch, n_batch, sizeof *batch, cmp_row);
            for (int64_t b = 0; b < n_batch; b++) {
                int64_t i = batch[b];
                double start = est[i];
                new_t[i] = start;
                occupy(&s, i, start + duration[i]);
                scheduled++;
                release_successors(&s, i, succ_ptr, succ, indeg);
            }
        }
        if (scheduled >= n)
            break;
        /* Fire the class whose earliest ready member can start first. */
        int64_t best = -1;
        for (int64_t c = 0; c < n_classes; c++)
            if (class_len[c] && (best < 0 || class_min[c] < class_min[best]))
                best = c;
        if (best < 0) {
            status = -2;
            goto done;
        }
        int64_t m = class_len[best];
        memcpy(members, ready + class_ptr[best], m * sizeof *members);
        class_len[best] = 0;
        class_min[best] = INFINITY;
        qsort(members, m, sizeof *members, cmp_row);
        double dur = duration[members[0]];
        int64_t cap = width ? width : m;
        for (int64_t c0 = 0; c0 < m; c0 += cap) {
            int64_t c1 = c0 + cap < m ? c0 + cap : m;
            double start = est[members[c0]];
            for (int64_t j = c0 + 1; j < c1; j++)
                if (est[members[j]] > start)
                    start = est[members[j]];
            double busy_end;
            if (serial) {
                if (beam_free > start)
                    start = beam_free;
                beam_free = start + dur + overhead;
                busy_end = start + dur;
            } else {
                busy_end = start + dur + overhead;
            }
            for (int64_t j = c0; j < c1; j++) {
                new_t[members[j]] = start;
                occupy(&s, members[j], busy_end);
                scheduled++;
            }
            n_passes++;
            if (c1 - c0 > *max_group)
                *max_group = c1 - c0;
            for (int64_t j = c0; j < c1; j++)
                release_successors(&s, members[j], succ_ptr, succ, indeg);
        }
    }
    status = n_passes;
done:
    free(last);
    free(indeg);
    free(preds);
    free(succ_ptr);
    free(succ);
    free(fill);
    free(class_ptr);
    free(class_len);
    free(class_min);
    free(ready);
    free(members);
    free(transport);
    free(batch);
    free(avail);
    free(est);
    return status;
}
