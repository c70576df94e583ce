/*
 * Native §3.3 validity replay: validity.py's check_circuit_reference in one
 * time-ordered pass.
 *
 * The pass reads a circuit's append-order columns through its execution
 * order (order[p] is the row at sorted position p), so no sorted copy of
 * the columns is built.  It runs the reference's state machine over the
 * rows: which ion sits on each site, when each ion is next free, when each
 * site was last vacated and when each junction is next free.  Every
 * comparison and sum is the reference's own float operation, so the pass
 * accepts exactly the circuits the reference accepts and stops at the row
 * the reference raises on; validity.py then re-runs the reference for the
 * message.  Per site the grid is one byte, kind[s] (GridManager.site_kinds):
 * no site (a cell interior), a junction, or a trapping zone.  Neighbours are
 * scanned up, down, left, right, GridManager._neighbors_of's order, so a
 * zone pair flanking two junctions would cross the reference's junction.
 *
 * Ions are dense indices: the caller seeds occupant[] with the initial ions
 * 0..n_init-1 (each free at 0.0); the k-th Load adds index n_init + k, whose
 * ion id is one above every id before it, as in the reference.  Sites,
 * site releases and junctions start free at 0.0.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define EPS 1e-9

/* grid.py's NO_SITE, JUNCTION_SITE and ZONE_SITE. */
enum { NO_SITE = 0, JUNCTION = 1, ZONE = 2 };

typedef struct {
    const int8_t *kind;
    int64_t width, height, n_positions;
    double move_us, junction_hop_us;
    int32_t load_code, move_code, zz_code;
    int64_t *occupant;       /* per site: its ion, or -1 */
    uint8_t *junction_used;  /* per site: 1 on each junction crossed */
    double *ion_free;        /* per ion: when its last operation ends */
    double *site_release;    /* per site: when the last transit leaving it ends */
    double *junction_free;   /* per site: when the last crossing of that junction ends */
    int64_t n_ions, n_moves, n_crossings;
} replay_t;

/* Grid positions a and b are lattice neighbours. */
static int adjacent(int64_t a, int64_t b, int64_t width)
{
    return llabs(a / width - b / width) + llabs(a % width - b % width) == 1;
}

/* The first junction among zone a's neighbours (up, down, left, right)
 * that zone b also neighbours, or -1. */
static int64_t junction_between(const replay_t *s, int64_t a, int64_t b)
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
        if (s->kind[j] == JUNCTION && adjacent(j, b, s->width))
            return j;
    }
    return -1;
}

/* Applies one row of arity k on sites a, b; returns 0 where the reference
 * raises on it, leaving the state as it was before the row. */
static int step(replay_t *s, int32_t code, int k, int64_t a, int64_t b, double start,
                double duration)
{
    double end = start + duration;

    if ((k >= 1 && (a < 0 || a >= s->n_positions)) || (k >= 2 && (b < 0 || b >= s->n_positions)))
        return 0;
    if (code == s->load_code) {
        if (k != 1 || s->occupant[a] >= 0 || s->kind[a] != ZONE
            || start + EPS < s->site_release[a])
            return 0;
        s->occupant[a] = s->n_ions;
        s->ion_free[s->n_ions++] = start;
    } else if (code == s->move_code) {
        if (k != 2)
            return 0;
        int64_t ion = s->occupant[a];
        if (ion < 0 || s->ion_free[ion] > start + EPS || s->occupant[b] >= 0
            || start + EPS < s->site_release[b] || s->kind[a] != ZONE || s->kind[b] != ZONE)
            return 0;
        if (adjacent(a, b, s->width)) {
            if (fabs(duration - s->move_us) > EPS)
                return 0;
        } else {
            int64_t j = junction_between(s, a, b);
            if (j < 0 || fabs(duration - s->junction_hop_us) > EPS
                || start + EPS < s->junction_free[j])
                return 0;
            s->junction_free[j] = end;
            s->junction_used[j] = 1;
            s->n_crossings++;
        }
        s->occupant[a] = -1;
        s->occupant[b] = ion;
        s->site_release[a] = end;
        s->ion_free[ion] = end;
        s->n_moves++;
    } else if (code == s->zz_code) {
        if (k != 2 || s->kind[a] != ZONE || s->kind[b] != ZONE || !adjacent(a, b, s->width))
            return 0;
        int64_t ion_a = s->occupant[a], ion_b = s->occupant[b];
        if (ion_a < 0 || s->ion_free[ion_a] > start + EPS || ion_b < 0
            || s->ion_free[ion_b] > start + EPS)
            return 0;
        s->ion_free[ion_a] = end;
        s->ion_free[ion_b] = end;
    } else {
        if (k != 1)
            return 0;
        int64_t ion = s->occupant[a];
        if (ion < 0 || s->ion_free[ion] > start + EPS)
            return 0;
        s->ion_free[ion] = end;
    }
    return 1;
}

/*
 * Replays rows order[0..n) from occupant[] (per site: a dense ion index or
 * -1), leaving the final occupancy there.  Returns -1 when every row is
 * valid, the first invalid row's sorted position otherwise, and -2 when
 * memory runs out.  On acceptance stats[] holds the moves, the junction
 * crossings and the ions (initial plus loaded), junction_used[j] is 1 for
 * each junction crossed and *makespan is the latest row end, from 0.0.
 */
int64_t validity_replay(int64_t n, const int64_t *order, const int32_t *codes,
                        const int64_t *site0, const int64_t *site1, const int8_t *nsites,
                        const double *t, const double *duration, int32_t load_code,
                        int32_t move_code, int32_t zz_code, int64_t width, int64_t height,
                        const int8_t *kind, double move_us, double junction_hop_us,
                        int64_t n_init, int64_t *occupant, uint8_t *junction_used,
                        int64_t *stats, double *makespan)
{
    replay_t s = {
        .kind = kind,
        .width = width,
        .height = height,
        .n_positions = width * height,
        .move_us = move_us,
        .junction_hop_us = junction_hop_us,
        .load_code = load_code,
        .move_code = move_code,
        .zz_code = zz_code,
        .occupant = occupant,
        .junction_used = junction_used,
        .ion_free = calloc((size_t)(n_init + n) + 1, sizeof(double)),
        .site_release = calloc((size_t)(width * height) + 1, sizeof(double)),
        .junction_free = calloc((size_t)(width * height) + 1, sizeof(double)),
        .n_ions = n_init,
    };
    int64_t failed = -1;
    double latest = 0.0;

    if (s.ion_free == NULL || s.site_release == NULL || s.junction_free == NULL) {
        failed = -2;
    } else {
        for (int64_t p = 0; p < n; p++) {
            int64_t row = order[p];
            if (!step(&s, codes[row], nsites[row], site0[row], site1[row], t[row], duration[row])) {
                failed = p;
                break;
            }
            double end = t[row] + duration[row];
            if (end > latest)
                latest = end;
        }
    }
    stats[0] = s.n_moves;
    stats[1] = s.n_crossings;
    stats[2] = s.n_ions;
    *makespan = latest;
    free(s.ion_free);
    free(s.site_release);
    free(s.junction_free);
    return failed;
}
