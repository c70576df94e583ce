/*
 * Native Pauli-frame sampler over a detector error model.
 *
 * FrameSampler._sample_numpy (frame.py), which stays in Python as the
 * bit-identity oracle and the fallback when no C compiler is available,
 * draws shot k of a run from
 *
 *     numpy.random.default_rng(SeedSequence(seed, spawn_key=(first_shot + k,)))
 *
 * and fires mechanism j when rng.random(m)[j] < probs[j].  This kernel
 * rebuilds that exact stream, following numpy's bit_generator.pyx and
 * pcg64.h:
 *
 *   - SeedSequence: the seed's little-endian 32-bit words, zero-padded to
 *     the 4-word pool, then the spawn key's words, are hashmix/mix-folded
 *     into the pool; generate_state(4, uint64) hashes the pool back out;
 *   - PCG64: pcg_setseq_128_srandom with state words[0] << 64 | words[1]
 *     and sequence words[2] << 64 | words[3]; each draw steps the 128-bit
 *     LCG and applies the XSL-RR output function;
 *   - Generator.random: next_double = (x >> 11) * 2^-53.
 *
 * The spawn key only enters after the seed's own words, so the pool is
 * folded over the seed once and each shot folds in just its own index.
 * A fired mechanism XORs its detector list (CSR: indptr, det_ids) and its
 * observable bitmask into the shot's rows of the caller's zeroed outputs.
 */
#include <stdint.h>

#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define XSHIFT 16

typedef unsigned __int128 u128;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

typedef struct {
    uint32_t pool[POOL];
    uint32_t hash_const;
} seedseq_t;

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    value ^= value >> XSHIFT;
    return value;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    result ^= result >> XSHIFT;
    return result;
}

/* Fold one entropy word beyond the first POOL into every pool word. */
static void fold_word(seedseq_t *s, uint32_t word)
{
    for (int dst = 0; dst < POOL; dst++)
        s->pool[dst] = mix(s->pool[dst], hashmix(word, &s->hash_const));
}

/* SeedSequence.mix_entropy over the seed's words, zero-padded to POOL. */
static void seed_pool(seedseq_t *s, const uint32_t *words, int64_t n_words)
{
    s->hash_const = INIT_A;
    for (int i = 0; i < POOL; i++)
        s->pool[i] = hashmix(i < n_words ? words[i] : 0, &s->hash_const);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                s->pool[dst] = mix(s->pool[dst], hashmix(s->pool[src], &s->hash_const));
    for (int64_t i = POOL; i < n_words; i++)
        fold_word(s, words[i]);
}

/* The PCG64 state of spawn key (shot,) under the seed folded into base. */
static void shot_stream(const seedseq_t *base, uint64_t shot, u128 *state, u128 *inc)
{
    seedseq_t s = *base;
    fold_word(&s, (uint32_t)shot); /* shot 0 is the single word 0 */
    if (shot >> 32)
        fold_word(&s, (uint32_t)(shot >> 32));

    /* generate_state(4, uint64): 8 words, read as little-endian pairs. */
    uint32_t hash_const = INIT_B;
    uint64_t out[4];
    for (int i = 0; i < 8; i++) {
        uint32_t v = s.pool[i % POOL];
        v ^= hash_const;
        hash_const *= MULT_B;
        v *= hash_const;
        v ^= v >> XSHIFT;
        if (i % 2)
            out[i / 2] |= (uint64_t)v << 32;
        else
            out[i / 2] = v;
    }

    /* pcg_setseq_128_srandom_r */
    *inc = ((((u128)out[2] << 64) | out[3]) << 1) | 1u;
    *state = *inc;
    *state += ((u128)out[0] << 64) | out[1];
    *state = *state * PCG_MULT + *inc;
}

static double next_double(u128 *state, u128 inc)
{
    *state = *state * PCG_MULT + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    x = (x >> rot) | (x << ((-rot) & 63));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* XOR one fired mechanism's detector list into a shot's row.  Out of line,
 * so the hot loop below keeps the stream state in registers. */
static __attribute__((noinline)) void fire(const int64_t *id, const int64_t *end, uint8_t *row)
{
    for (; id < end; id++)
        row[*id] ^= 1;
}

/*
 * Sample n_shots shots with absolute indices first_shot, first_shot + 1, ...
 * (the caller keeps them below 2^64).  detectors is (n_shots, n_detectors)
 * and observables (n_shots, n_observables), both zeroed uint8 row-major.
 */
void frame_sample(const uint32_t *seed_words, int64_t n_seed_words, uint64_t first_shot,
                  int64_t n_shots, const double *probs, int64_t m, const int64_t *indptr,
                  const int64_t *det_ids, const uint64_t *obs_masks, int64_t n_detectors,
                  int64_t n_observables, uint8_t *detectors, uint8_t *observables)
{
    seedseq_t base;
    seed_pool(&base, seed_words, n_seed_words);
    int64_t n_obs = n_observables < 64 ? n_observables : 64;
    for (int64_t k = 0; k < n_shots; k++) {
        u128 state, inc;
        shot_stream(&base, first_shot + (uint64_t)k, &state, &inc);
        uint8_t *row = detectors + k * n_detectors;
        uint64_t flips = 0;
        for (int64_t j = 0; j < m; j++) {
            if (next_double(&state, inc) < probs[j]) {
                fire(det_ids + indptr[j], det_ids + indptr[j + 1], row);
                flips ^= obs_masks[j];
            }
        }
        for (int64_t o = 0; o < n_obs; o++)
            observables[k * n_observables + o] = (uint8_t)((flips >> o) & 1);
    }
}
