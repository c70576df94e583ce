/*
 * Native syndrome-round scheduler: stabilizer_circuits.py's Python round
 * loop (SyndromeScheduler._schedule_round_python) in one call.
 *
 * One call runs one whole round exactly as the Python loop does: phase-0
 * |+> preparations, the four Z/N layers with the deferral worklist, the
 * sidestep that breaks an occupancy cycle (with its deadlock limit), the
 * homeward drain and the X measurements.  The grid's move scheduling
 * (GridManager.schedule_route / schedule_move with its site and junction
 * calendars), gate scheduling (schedule_gate1 / schedule_gate2) and the face
 * graphs' breadth-first paths (Plaquette.path) are ported line for line:
 * every max() keeps Python's first maximum, every sum is the same double
 * operation, and paths and sidestep candidates follow the face graph's
 * adjacency-list order, so the rows, clocks and calendars come out bit for
 * bit.
 *
 * Nothing is committed here: the kernel works on copies of the ion state
 * and returns the round's rows and the grid deltas for the binding
 * (_round_native.py) to apply.  Whenever the Python loop would raise (a
 * misparked measure ion, no route, a non-adjacent gate, a path ending on a
 * junction, a deadlock, a sidestep route that blocks) the kernel returns
 * ROUND_ERROR and the binding reruns the Python loop from the untouched
 * state, which raises the error with its message.
 *
 * Ions are dense local indices (the round's ions in ascending id order).
 * Per grid position, occupant[] holds a local index, -1 for an empty site
 * and -2 for an ion outside the round.  Per site, the grid is one byte,
 * kind[s] (GridManager.site_kinds): no site, a junction or a trapping zone;
 * neighbours are scanned up, down, left, right, GridManager's order.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* grid.py's NO_SITE, JUNCTION_SITE and ZONE_SITE. */
enum { NO_SITE = 0, JUNCTION = 1, ZONE = 2 };

/* Gate slots of codes[] and durations[] (_round_native.GATES, then Move). */
enum { PREP_Z, Y_PI4, ZZ, Z_MPI4, Z_PI2, Z_PI4, Y_MPI4, MEAS_Z, MOVE };

/* Calendar events, in commit order. */
enum { EV_SITE = 0, EV_JUNCTION = 1 };

/* Return codes; BLOCKED never leaves the kernel. */
#define ROUND_OK 0
#define BLOCKED 1
#define ROUND_ERROR 2
#define ROUND_FULL (-1)
#define ROUND_NOMEM (-2)

typedef struct {
    int64_t ion, target, plaq, data; /* data: the visit's data ion, -1 for none */
} job_t;

typedef struct {
    job_t *buf;
    int64_t cap, head, len;
} ring_t;

typedef struct {
    const int8_t *kind;
    int64_t width, height, n_positions;
    double move_us, hop_us;
    const int32_t *codes;
    const double *dur;
    /* ions */
    int64_t n_ions;
    int64_t *site, *seq;
    double *ready, *since;
    int64_t *occupant;
    int64_t n_moves;
    /* calendars: one interval pool, a linked list per site and per junction */
    int64_t *site_head, *junction_head, *next;
    double *lo, *hi;
    int64_t pool_n;
    double *site_horizon, *junction_horizon;
    /* face graphs: per plaquette its keys, per key its adjacency list */
    const int64_t *key_ptr, *key_site, *adj_ptr, *adj;
    int64_t *seen, *prev, *path, *candidates;
    /* plaquettes */
    const int64_t *plaq_m, *plaq_home, *visit_pocket, *visit_data, *pocket_ptr, *pocket;
    const int8_t *plaq_x, *plaq_last;
    int64_t n_plaq;
    /* output */
    int64_t cap, n_rows, n_events;
    int32_t *o_code;
    int64_t *o_s0, *o_s1;
    int8_t *o_ns;
    double *o_t, *o_d;
    int8_t *e_kind;
    int64_t *e_pos;
    double *e_lo, *e_hi;
    int64_t conflicts, delays;
    double t_horizon;
} round_t;

/* Python's max(a, b): the first argument unless the second is greater. */
static double pymax(double a, double b)
{
    return b > a ? b : a;
}

static int in_grid(const round_t *s, int64_t p)
{
    return p >= 0 && p < s->n_positions;
}

/* Grid positions a and b are lattice neighbours. */
static int adjacent(const round_t *s, int64_t a, int64_t b)
{
    return llabs(a / s->width - b / s->width) + llabs(a % s->width - b % s->width) == 1;
}

/* The first junction among zone a's neighbours (up, down, left, right)
 * that zone b also neighbours, or -1: GridManager.junction_between. */
static int64_t junction_between(const round_t *s, int64_t a, int64_t b)
{
    static const int dr[4] = {-1, 1, 0, 0}, dc[4] = {0, 0, -1, 1};
    int64_t r = a / s->width, c = a % s->width;
    if (a == b)
        return -1;
    for (int k = 0; k < 4; k++) {
        int64_t rr = r + dr[k], cc = c + dc[k];
        if (rr < 0 || rr >= s->height || cc < 0 || cc >= s->width)
            continue;
        int64_t j = rr * s->width + cc;
        if (s->kind[j] == JUNCTION && adjacent(s, j, b))
            return j;
    }
    return -1;
}

static int emit(round_t *s, int gate, int64_t a, int64_t b, int8_t nsites, double t, double d)
{
    if (s->n_rows >= s->cap)
        return ROUND_FULL;
    int64_t r = s->n_rows++;
    s->o_code[r] = s->codes[gate];
    s->o_s0[r] = a;
    s->o_s1[r] = b;
    s->o_ns[r] = nsites;
    s->o_t[r] = t;
    s->o_d[r] = d;
    return ROUND_OK;
}

static int event(round_t *s, int8_t kind, int64_t pos, double lo, double hi)
{
    if (s->n_events >= 2 * s->cap)
        return ROUND_FULL;
    int64_t e = s->n_events++;
    s->e_kind[e] = kind;
    s->e_pos[e] = pos;
    s->e_lo[e] = lo;
    s->e_hi[e] = hi;
    return ROUND_OK;
}

static void push_interval(round_t *s, int64_t *head, double lo, double hi)
{
    int64_t k = s->pool_n++;
    s->lo[k] = lo;
    s->hi[k] = hi;
    s->next[k] = *head;
    *head = k;
}

/* grid.py's _earliest_slot: the earliest start >= t whose [start,
 * start + dur) avoids every interval.  The result does not depend on the
 * list's order. */
static double earliest_slot(const round_t *s, int64_t head, double t, double dur)
{
    double start = t;
    int moved = 1;
    while (moved) {
        moved = 0;
        for (int64_t k = head; k >= 0; k = s->next[k]) {
            if (start < s->hi[k] && s->lo[k] < start + dur) {
                start = s->hi[k];
                moved = 1;
            }
        }
    }
    return start;
}

/* GridManager._reserve_site. */
static double reserve_site(const round_t *s, int64_t site, double t, double dur)
{
    return t >= s->site_horizon[site] ? t : earliest_slot(s, s->site_head[site], t, dur);
}

/* GridManager.schedule_move: one hop of local ion `ion` to zone `dst`. */
static int schedule_move(round_t *s, int64_t ion, int64_t dst, double t_min)
{
    int64_t src = s->site[ion], junction = -1;
    double dur, t, t_site;
    int rc;

    if (dst == src)
        return ROUND_OK;
    if (!in_grid(s, dst) || s->kind[dst] != ZONE)
        return ROUND_ERROR;
    if (adjacent(s, src, dst)) {
        dur = s->move_us;
    } else {
        junction = junction_between(s, src, dst);
        if (junction < 0)
            return ROUND_ERROR;
        dur = s->hop_us;
    }
    if (s->occupant[dst] != -1)
        return BLOCKED;

    t = pymax(t_min, s->ready[ion]);
    t_site = reserve_site(s, dst, t, dur);
    if (t_site > t)
        s->delays++;
    t = t_site;
    if (junction >= 0) {
        double t_junction = t >= s->junction_horizon[junction]
                                ? t
                                : earliest_slot(s, s->junction_head[junction], t, dur);
        if (t_junction > t) {
            s->conflicts++;
            t_junction = reserve_site(s, dst, t_junction, dur);
        }
        t = t_junction;
        if ((rc = event(s, EV_JUNCTION, junction, t, t + dur)))
            return rc;
        push_interval(s, &s->junction_head[junction], t, t + dur);
        if (t + dur > s->junction_horizon[junction])
            s->junction_horizon[junction] = t + dur;
    }

    /* Close out the origin's occupancy, park the ion on the destination. */
    if ((rc = event(s, EV_SITE, src, s->since[ion], t + dur)))
        return rc;
    push_interval(s, &s->site_head[src], s->since[ion], t + dur);
    if (t + dur > s->site_horizon[src])
        s->site_horizon[src] = t + dur;
    s->occupant[src] = -1;
    s->occupant[dst] = ion;
    s->since[ion] = t;
    s->site[ion] = dst;
    s->ready[ion] = t + dur;
    s->seq[ion] = s->n_moves++;
    s->t_horizon = pymax(s->t_horizon, t + dur);
    return emit(s, MOVE, src, dst, 2, t, dur);
}

/* GridManager.schedule_route: junction entries fold into one crossing. */
static int schedule_route(round_t *s, int64_t ion, const int64_t *path, int64_t len, double t_min)
{
    int rc;
    if (len == 0)
        return ROUND_OK;
    if (path[0] != s->site[ion])
        return ROUND_ERROR;
    for (int64_t i = 1; i < len;) {
        int64_t step = path[i];
        if (!in_grid(s, step) || s->kind[step] == NO_SITE)
            return ROUND_ERROR;
        if (s->kind[step] == JUNCTION) {
            if (i + 1 >= len)
                return ROUND_ERROR;
            rc = schedule_move(s, ion, path[i + 1], t_min);
            i += 2;
        } else {
            rc = schedule_move(s, ion, step, t_min);
            i += 1;
        }
        if (rc)
            return rc;
    }
    return ROUND_OK;
}

/* GridManager.schedule_gate1. */
static int gate1(round_t *s, int gate, int64_t ion, double t_min)
{
    double t = pymax(t_min, s->ready[ion]), d = s->dur[gate];
    s->ready[ion] = t + d;
    s->t_horizon = pymax(s->t_horizon, t + d);
    return emit(s, gate, s->site[ion], -1, 1, t, d);
}

/* HardwareModel.zz through GridManager.schedule_gate2, from t_min 0.0. */
static int zz(round_t *s, int64_t a_ion, int64_t b_ion)
{
    int64_t a = s->site[a_ion], b = s->site[b_ion];
    double d = s->dur[ZZ], t;
    if (!in_grid(s, a) || !in_grid(s, b) || s->kind[a] != ZONE || s->kind[b] != ZONE
        || !adjacent(s, a, b))
        return ROUND_ERROR;
    t = pymax(pymax(0.0, s->ready[a_ion]), s->ready[b_ion]);
    s->ready[a_ion] = t + d;
    s->ready[b_ion] = t + d;
    s->t_horizon = pymax(s->t_horizon, t + d);
    return emit(s, ZZ, a, b, 2, t, d);
}

/* SyndromeScheduler._interaction. */
static int interaction(round_t *s, int64_t k, int64_t m, int64_t d)
{
    int rc;
    if (!s->plaq_x[k]) {
        if ((rc = zz(s, m, d)) || (rc = gate1(s, Z_MPI4, m, 0.0))
            || (rc = gate1(s, Z_MPI4, d, 0.0)))
            return rc;
        return ROUND_OK;
    }
    if ((rc = gate1(s, Z_PI2, d, 0.0)) || (rc = gate1(s, Y_PI4, d, 0.0)) || (rc = zz(s, m, d))
        || (rc = gate1(s, Z_MPI4, m, 0.0)) || (rc = gate1(s, Z_PI4, d, 0.0))
        || (rc = gate1(s, Y_PI4, d, 0.0)))
        return rc;
    return ROUND_OK;
}

/* The adjacency list of `site` in face k's graph: its key's position, or
 * -1 when the site is not a key (no neighbours). */
static int64_t face_key(const round_t *s, int64_t k, int64_t site)
{
    for (int64_t v = s->key_ptr[k]; v < s->key_ptr[k + 1]; v++)
        if (s->key_site[v] == site)
            return v;
    return -1;
}

/* Plaquette.path: the breadth-first path from src to dst through face k's
 * graph, into s->path.  Returns its length, or -1 when there is none.  The
 * sites seen so far, in discovery order, are also the search's queue. */
static int64_t face_path(round_t *s, int64_t k, int64_t src, int64_t dst)
{
    int64_t n = 0;
    if (src == dst) {
        s->path[0] = src;
        return 1;
    }
    s->seen[n] = src;
    s->prev[n++] = -1;
    for (int64_t head = 0; head < n; head++) {
        int64_t key = face_key(s, k, s->seen[head]);
        if (key < 0)
            continue;
        for (int64_t e = s->adj_ptr[key]; e < s->adj_ptr[key + 1]; e++) {
            int64_t nxt = s->adj[e], known = 0;
            for (int64_t i = 0; i < n && !known; i++)
                known = s->seen[i] == nxt;
            if (known)
                continue;
            s->seen[n] = nxt;
            s->prev[n++] = head;
            if (nxt == dst) {
                int64_t len = 0;
                for (int64_t v = n - 1; v >= 0; v = s->prev[v])
                    s->path[len++] = s->seen[v];
                for (int64_t i = 0, j = len - 1; i < j; i++, j--) {
                    int64_t tmp = s->path[i];
                    s->path[i] = s->path[j];
                    s->path[j] = tmp;
                }
                return len;
            }
        }
    }
    return -1;
}

static int is_pocket(const round_t *s, int64_t k, int64_t site)
{
    for (int64_t i = s->pocket_ptr[k]; i < s->pocket_ptr[k + 1]; i++)
        if (s->pocket[i] == site)
            return 1;
    return 0;
}

static job_t *ring_at(ring_t *q, int64_t i)
{
    return &q->buf[(q->head + i) % q->cap];
}

static void ring_push(ring_t *q, job_t job)
{
    *ring_at(q, q->len++) = job;
}

static job_t ring_pop(ring_t *q)
{
    job_t job = q->buf[q->head];
    q->head = (q->head + 1) % q->cap;
    q->len--;
    return job;
}

/* SyndromeScheduler._sidestep: park one blocked ion one hop aside, on a
 * free zone of its face graph, corridor sites before pockets, each in
 * ascending order.  Sets *stepped when a sidestep was scheduled. */
static int sidestep(round_t *s, ring_t *jobs, double t_floor, int *stepped)
{
    *stepped = 0;
    for (int64_t i = 0; i < jobs->len; i++) {
        job_t job = *ring_at(jobs, i);
        int64_t cur = s->site[job.ion];
        int64_t lo = s->key_ptr[job.plaq], n = s->key_ptr[job.plaq + 1] - lo;
        int64_t *candidates = s->candidates;
        for (int64_t a = 0; a < n; a++) { /* insertion sort by (pocket, site) */
            int64_t site = s->key_site[lo + a], rank = is_pocket(s, job.plaq, site), b = a;
            for (; b > 0; b--) {
                int64_t other = candidates[b - 1], other_rank = is_pocket(s, job.plaq, other);
                if (other_rank < rank || (other_rank == rank && other <= site))
                    break;
                candidates[b] = other;
            }
            candidates[b] = site;
        }
        for (int64_t a = 0; a < n; a++) {
            int64_t site = candidates[a];
            if (site == cur || site == job.target)
                continue;
            if (!in_grid(s, site))
                return ROUND_ERROR; /* GridManager.is_zone raises */
            if (s->kind[site] != ZONE || s->occupant[site] != -1)
                continue;
            int64_t len = face_path(s, job.plaq, cur, site);
            if (len < 0 || len > 3)
                continue;
            int rc = schedule_route(s, job.ion, s->path, len, t_floor);
            if (rc == BLOCKED)
                return ROUND_ERROR; /* the sidestep's SiteBlockedError escapes */
            *stepped = rc == ROUND_OK;
            return rc;
        }
    }
    return ROUND_OK;
}

/* SyndromeScheduler._drain: run the jobs with deferral. */
static int drain(round_t *s, ring_t *jobs, double t_floor)
{
    int64_t stalls = 0, sidesteps = 0;
    while (jobs->len > 0) {
        job_t job = ring_pop(jobs);
        int64_t len = face_path(s, job.plaq, s->site[job.ion], job.target);
        if (len < 0)
            return ROUND_ERROR;
        int rc = schedule_route(s, job.ion, s->path, len, t_floor);
        if (rc == BLOCKED) {
            ring_push(jobs, job);
            stalls++;
            if (stalls > jobs->len) {
                int stepped;
                if ((rc = sidestep(s, jobs, t_floor, &stepped)))
                    return rc;
                if (stepped) {
                    sidesteps++;
                    stalls = 0;
                    if (sidesteps <= 4 * jobs->len + 8)
                        continue;
                }
                return ROUND_ERROR; /* deadlock */
            }
            continue;
        }
        if (rc)
            return rc;
        stalls = 0;
        if (job.data >= 0 && (rc = interaction(s, job.plaq, job.ion, job.data)))
            return rc;
    }
    return ROUND_OK;
}

/* max(ready) over the round's ions in ascending id order. */
static double latest_ready(const round_t *s)
{
    double t = s->ready[0];
    for (int64_t i = 1; i < s->n_ions; i++)
        if (s->ready[i] > t)
            t = s->ready[i];
    return t;
}

static int run(round_t *s, double t_min)
{
    ring_t jobs = {NULL, 2 * s->n_plaq + 1, 0, 0};
    job_t *home = NULL;
    int64_t n_home = 0;
    double t_floor = t_min;
    int rc = ROUND_OK;

    if (s->n_ions == 0)
        return ROUND_ERROR; /* max() of no clocks raises */
    jobs.buf = malloc((size_t)jobs.cap * sizeof(job_t));
    home = malloc((size_t)(s->n_plaq + 1) * sizeof(job_t));
    if (jobs.buf == NULL || home == NULL) {
        rc = ROUND_NOMEM;
        goto done;
    }

    /* Phase 0: prepare every measure ion in |+> at its parking site. */
    for (int64_t k = 0; k < s->n_plaq; k++) {
        int64_t m = s->plaq_m[k];
        if (s->site[m] != s->plaq_home[k]) {
            rc = ROUND_ERROR;
            goto done;
        }
        if ((rc = gate1(s, PREP_Z, m, t_min)) || (rc = gate1(s, Y_PI4, m, t_min)))
            goto done;
    }

    /* Phases 1-4: the pattern layers, after last layer's homeward moves. */
    for (int layer = 1; layer <= 4; layer++) {
        jobs.head = 0;
        jobs.len = 0;
        for (int64_t i = 0; i < n_home; i++)
            ring_push(&jobs, home[i]);
        n_home = 0;
        for (int64_t k = 0; k < s->n_plaq; k++) {
            int64_t data = s->visit_data[4 * k + layer - 1];
            if (data >= 0) {
                job_t job = {s->plaq_m[k], s->visit_pocket[4 * k + layer - 1], k, data};
                ring_push(&jobs, job);
            }
        }
        if ((rc = drain(s, &jobs, t_floor)))
            goto done;
        for (int64_t k = 0; k < s->n_plaq; k++) {
            if (s->plaq_last[k] == layer) {
                job_t job = {s->plaq_m[k], s->plaq_home[k], k, -1};
                home[n_home++] = job;
            }
        }
        t_floor = latest_ready(s);
    }

    /* Phase 5: the remaining homeward moves, then measure X. */
    jobs.head = 0;
    jobs.len = 0;
    for (int64_t i = 0; i < n_home; i++)
        ring_push(&jobs, home[i]);
    if ((rc = drain(s, &jobs, t_floor)))
        goto done;
    for (int64_t k = 0; k < s->n_plaq; k++) {
        int64_t m = s->plaq_m[k];
        if ((rc = gate1(s, Y_MPI4, m, 0.0)) || (rc = gate1(s, MEAS_Z, m, 0.0)))
            goto done;
    }

done:
    free(jobs.buf);
    free(home);
    return rc;
}

/*
 * Schedules one round.  Inputs: the grid (kind[], width, height, the move
 * and junction-hop durations), the gate codes and durations (slots above),
 * the round's ions (site, ready clock, parked-since stamp), the occupant of
 * every position, every site's and junction's calendar horizon, the
 * calendar intervals that can still matter (n_intervals of them: position,
 * start, end, 1 for a junction), and per plaquette its measure ion, home,
 * X flag, last visited layer, per layer its pocket and data ion (-1 for no
 * visit), its pockets (pocket_ptr/pocket) and its face graph: the keys of
 * Plaquette.graph in dict order (key_ptr/key_site) with each key's
 * adjacency list (adj_ptr/adj).
 *
 * Outputs, into buffers of `cap` rows (2 * cap events): the rows in the
 * Python loop's append order, the ions' new site, clock, parked-since stamp
 * and last-move sequence number (-1 when it did not move), the calendar
 * events in commit order, and stats[] = {rows, events, junction conflicts,
 * site delays}, times[] = {t_horizon, t_end}.  Returns ROUND_OK,
 * ROUND_ERROR (the Python loop raises here), ROUND_FULL (retry with larger
 * buffers) or ROUND_NOMEM.
 */
int64_t round_schedule(
    const int8_t *kind, int64_t width, int64_t height, double move_us, double hop_us,
    const int32_t *codes, const double *durations,
    int64_t n_ions, const int64_t *ion_site, const double *ion_ready, const double *ion_since,
    const int64_t *occupant, const double *site_horizon, const double *junction_horizon,
    int64_t n_intervals, const int64_t *interval_pos, const double *interval_lo,
    const double *interval_hi, const int8_t *interval_junction,
    int64_t n_plaq, const int64_t *plaq_m, const int64_t *plaq_home, const int8_t *plaq_x,
    const int8_t *plaq_last, const int64_t *visit_pocket, const int64_t *visit_data,
    const int64_t *pocket_ptr, const int64_t *pocket,
    const int64_t *key_ptr, const int64_t *key_site, const int64_t *adj_ptr, const int64_t *adj,
    double t_min, double t_horizon, int64_t cap,
    int32_t *o_code, int64_t *o_s0, int64_t *o_s1, int8_t *o_ns, double *o_t, double *o_d,
    int64_t *o_site, double *o_ready, double *o_since, int64_t *o_seq,
    int8_t *e_kind, int64_t *e_pos, double *e_lo, double *e_hi,
    int64_t *stats, double *times)
{
    int64_t n_positions = width * height, pool_cap = n_intervals + 2 * cap, max_graph = 0;
    for (int64_t k = 0; k < n_plaq; k++) { /* a search sees at most keys + entries */
        int64_t sites = key_ptr[k + 1] - key_ptr[k] + adj_ptr[key_ptr[k + 1]] - adj_ptr[key_ptr[k]];
        if (sites > max_graph)
            max_graph = sites;
    }
    size_t scratch = (size_t)(max_graph + 1) * sizeof(int64_t);
    round_t s = {
        .kind = kind,
        .width = width,
        .height = height,
        .n_positions = n_positions,
        .move_us = move_us,
        .hop_us = hop_us,
        .codes = codes,
        .dur = durations,
        .n_ions = n_ions,
        .site = o_site,
        .seq = o_seq,
        .ready = o_ready,
        .since = o_since,
        .occupant = malloc((size_t)n_positions * sizeof(int64_t)),
        .site_head = malloc((size_t)n_positions * sizeof(int64_t)),
        .junction_head = malloc((size_t)n_positions * sizeof(int64_t)),
        .next = malloc((size_t)pool_cap * sizeof(int64_t)),
        .lo = malloc((size_t)pool_cap * sizeof(double)),
        .hi = malloc((size_t)pool_cap * sizeof(double)),
        .site_horizon = malloc((size_t)n_positions * sizeof(double)),
        .junction_horizon = malloc((size_t)n_positions * sizeof(double)),
        .key_ptr = key_ptr,
        .key_site = key_site,
        .adj_ptr = adj_ptr,
        .adj = adj,
        .seen = malloc(scratch),
        .prev = malloc(scratch),
        .path = malloc(scratch),
        .candidates = malloc(scratch),
        .plaq_m = plaq_m,
        .plaq_home = plaq_home,
        .visit_pocket = visit_pocket,
        .visit_data = visit_data,
        .pocket_ptr = pocket_ptr,
        .pocket = pocket,
        .plaq_x = plaq_x,
        .plaq_last = plaq_last,
        .n_plaq = n_plaq,
        .cap = cap,
        .o_code = o_code,
        .o_s0 = o_s0,
        .o_s1 = o_s1,
        .o_ns = o_ns,
        .o_t = o_t,
        .o_d = o_d,
        .e_kind = e_kind,
        .e_pos = e_pos,
        .e_lo = e_lo,
        .e_hi = e_hi,
        .t_horizon = t_horizon,
    };
    int rc;

    if (s.occupant == NULL || s.site_head == NULL || s.junction_head == NULL || s.next == NULL
        || s.lo == NULL || s.hi == NULL || s.site_horizon == NULL || s.junction_horizon == NULL
        || s.seen == NULL || s.prev == NULL || s.path == NULL || s.candidates == NULL) {
        rc = ROUND_NOMEM;
    } else {
        memcpy(s.occupant, occupant, (size_t)n_positions * sizeof(int64_t));
        memcpy(s.site_horizon, site_horizon, (size_t)n_positions * sizeof(double));
        memcpy(s.junction_horizon, junction_horizon, (size_t)n_positions * sizeof(double));
        memcpy(o_site, ion_site, (size_t)n_ions * sizeof(int64_t));
        memcpy(o_ready, ion_ready, (size_t)n_ions * sizeof(double));
        memcpy(o_since, ion_since, (size_t)n_ions * sizeof(double));
        for (int64_t i = 0; i < n_ions; i++)
            o_seq[i] = -1;
        for (int64_t p = 0; p < n_positions; p++)
            s.site_head[p] = s.junction_head[p] = -1;
        for (int64_t k = 0; k < n_intervals; k++)
            push_interval(&s, interval_junction[k] ? &s.junction_head[interval_pos[k]]
                                                   : &s.site_head[interval_pos[k]],
                          interval_lo[k], interval_hi[k]);
        rc = run(&s, t_min);
    }
    stats[0] = s.n_rows;
    stats[1] = s.n_events;
    stats[2] = s.conflicts;
    stats[3] = s.delays;
    times[0] = s.t_horizon;
    times[1] = rc == ROUND_OK ? latest_ready(&s) : 0.0;
    free(s.occupant);
    free(s.site_head);
    free(s.junction_head);
    free(s.next);
    free(s.lo);
    free(s.hi);
    free(s.site_horizon);
    free(s.junction_horizon);
    free(s.seen);
    free(s.prev);
    free(s.path);
    free(s.candidates);
    return rc;
}
