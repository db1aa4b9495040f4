/* The three inner loops of omegashift: one sieve pass over a segment, the
 * (k, v, u) histogram fold and the prime sums of one block of integers.
 * Built with -O3 and -ffp-contract=off and loaded by kernel.py; every
 * pointer and range is checked there before a call.
 *
 * A segment pass has two phases.  Phase 1 walks the segment in chunks of
 * CHUNK words that stay in L1: each chunk gets its pre-sieve pattern,
 * every power below CHUNK of the base primes below SMALL_BOUND, and
 * the copy-outs of the splits that fall among those primes.  Phase 2 adds
 * the other powers strided over the whole segment, then makes the other
 * splits' copy-outs and the octave cofactor test.
 *
 * The fold also works in L1-sized blocks: it packs FOLD_BLOCK positions'
 * keys at a time, checking their bytes, then counts them in a uint32
 * table on the stack that it adds into the caller's int64 counts every
 * FOLD_FLUSH positions and at the end. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Words per phase-1 chunk: 2^13 words, 16 KB, fit the L1d of any x86
 * core.  On a 2-core Xeon with a 48 KB L1d, at x = 1e8, w = 4858 and
 * 2^18-word segments (medians of 15 rounds of 64 segments), chunks of
 * 2^12, 2^13, 2^14 and 2^15 words took 2.15, 1.85, 1.78 and 2.11 ns per n,
 * and one pass over the whole segment 2.65.  2^14 fills a 32 KB L1d. */
#define CHUNK 8192

/* Primes below this are sieved chunk by chunk, the rest over the whole
 * segment.  In the same measurement 1024 and 4096 took 1.92 and 1.95 ns
 * per n. */
#define SMALL_BOUND 2048

/* A prime's first power is the only one whose add reaches the low byte
 * (the others add a step, whose low byte is 0), so with every prime of
 * phase 1 below CHUNK, phase 1's copy-outs see every add they count. */
#if SMALL_BOUND > CHUNK
#error "a phase-1 prime must be below CHUNK"
#endif

/* The stream table's size: the 309 primes below 2048 have 358 powers below
 * 2^13 (12 of 2, 8 of 3, ..., 1 of 2039), a pre-sieved prime fewer; 8.6 KB
 * of stack.  Should a caller pass repeated primes, the table stops at the
 * first prime that does not fit, and that prime and every later one are
 * sieved in phase 2. */
#define MAX_STREAMS 358

/* The fold's bins, 16^3 (kernel.py's FOLD_BINS), and the positions whose
 * keys it packs at a time: 8192 uint16 keys and the 4096 uint32 counts take
 * 16 KB of stack each, 32 KB together. */
#define FOLD_BINS 4096
#define FOLD_BLOCK 8192

/* Positions the fold counts into its uint32 table between flushes: a count
 * grows by at most 1 per position, so none can pass 2^32 - 1. */
#define FOLD_FLUSH (INT64_C(1) << 30)
#if FOLD_FLUSH > UINT32_MAX
#error "a fold count could wrap its uint32 between flushes"
#endif

/* One power q of a phase-1 prime: add goes to each n = lo + j that q
 * divides, and next is the offset j of the first one not yet added. */
struct stream {
    int64_t q, next;
    uint16_t add;
    int32_t prime; /* index of p in primes */
};

/* Add add at each multiple of q among n = lo + j, j < len. */
static void add_strided(uint16_t *cell, int64_t len, int64_t lo, int64_t q, uint16_t add)
{
    for (int64_t j = (q - lo % q) % q; j < len; j += q)
        cell[j] += add;
}

/* Add a stream up to offset stop, and keep where it stopped. */
static void add_stream(uint16_t *cell, int64_t stop, struct stream *st)
{
    const int64_t q = st->q;
    const uint16_t add = st->add;
    int64_t j = st->next;
    for (; j < stop; j += q)
        cell[j] += add;
    st->next = j;
}

/* The first power of base prime p that the pass adds, with its add in *add:
 * p itself with step + 1 (the low byte counts p, the high byte gains L(p)),
 * or for a pre-sieved prime its first power not dividing period, with step
 * (the pattern holds the rest).  Every later power p^j < hi adds step. */
static int64_t first_power(int64_t p, int presieved, int64_t period, uint16_t step, uint16_t *add)
{
    int64_t q = p;
    *add = (uint16_t)(step + 1);
    if (presieved) {
        while (period % q == 0)
            q *= p;
        *add = step;
    }
    return q;
}

/* Add the powers q, q p, q p^2, ... < lo + len of p: add at the first,
 * step at the rest.  kernel.py keeps every base prime at most 2^20 and
 * q < hi <= 2^40 + 1, so q * p < 2^61 never overflows. */
static void sieve_prime(uint16_t *cell, int64_t len, int64_t lo, int64_t p, int64_t q,
                        uint16_t add, uint16_t step)
{
    for (; q < lo + len; q *= p, add = step)
        add_strided(cell, len, lo, q, add);
}

/* cell[j] = pattern[(lo + j) % period] for start <= j < stop. */
static void copy_pattern(uint16_t *cell, int64_t start, int64_t stop, int64_t lo,
                         const uint16_t *pattern, int64_t period)
{
    for (int64_t j = start, r = (lo + start) % period; j < stop; j += period - r, r = 0)
        memcpy(cell + j, pattern + r,
               (size_t)(stop - j < period - r ? stop - j : period - r) * sizeof *cell);
}

static void copy_low(uint8_t *dst, const uint16_t *cell, int64_t len)
{
    for (int64_t j = 0; j < len; j++)
        dst[j] = (uint8_t)cell[j];
}

/* om[j] = low byte of cell[j], plus 1 where cell[j] < bound, for start <= j < stop.
 * The range comes in by value: om may alias any memory the caller reads. */
static void add_cofactor(uint8_t *om, const uint16_t *cell, int64_t start, int64_t stop,
                         uint16_t bound)
{
    for (int64_t j = start; j < stop; j++)
        om[j] = (uint8_t)((uint8_t)cell[j] + (cell[j] < bound));
}

/* The bytes at the address osms[s]. */
static uint8_t *osm_at(const int64_t *osms, int64_t s)
{
    return (uint8_t *)(uintptr_t)osms[s];
}

/* One segment n = lo + j, j < len, into the words cell[0..len).
 *
 * The cell starts as the pre-sieve pattern[(lo + j) % period], which
 * kernel.py's SegmentPass builds: the words of the lead leading base
 * primes and of their powers that divide period, so those primes add only
 * their higher powers here (2^5, 3^3, ... for period 2^4 3^2 5 7 11);
 * every later prime is sieved in full.  lead = 0 takes a period-1 pattern
 * of one zero word.  After the primes
 * primes[0..splits[s]) the low byte is copied into the bytes at the
 * address osms[s], for each s < nsplits in turn (kernel.py packs the osm
 * addresses, the splits and the octaves into one int64 array).  Last,
 * om[j] gets the low byte, plus 1 where the word is below the octave's
 * bound, for each octave
 * (start, stop, bound) = octaves[3 o .. 3 o + 3) of the noct given; with
 * noct == 0, om gets the low byte alone.
 *
 * The powers below CHUNK of the primes below SMALL_BOUND become streams,
 * each offset found with one modulo, and phase 1 runs them chunk by chunk,
 * starting each chunk from its pattern and making the copy-outs
 * of the splits at or below those primes.  Phase 2 adds the other powers
 * strided over the whole segment and makes the rest of the copy-outs and
 * the cofactor test.  The words are sums, so the order of the adds does
 * not change them. */
void fill_segment(uint16_t *cell, int64_t len, int64_t lo,
                  const int64_t *primes, const int64_t *steps, int64_t count,
                  const uint16_t *pattern, int64_t period, int64_t lead,
                  const int64_t *osms, const int64_t *splits, int64_t nsplits,
                  uint8_t *om, const int64_t *octaves, int64_t noct)
{
    struct stream streams[MAX_STREAMS];
    const int64_t hi = lo + len;
    int64_t i = 0, n = 0, s = 0;
    uint16_t add;
    for (; i < count && primes[i] < SMALL_BOUND; i++) {
        const int64_t p = primes[i], first = n;
        int64_t q = first_power(p, i < lead, period, (uint16_t)steps[i], &add);
        for (; q < CHUNK && q < hi && n < MAX_STREAMS; q *= p, add = (uint16_t)steps[i])
            streams[n++] = (struct stream){q, (q - lo % q) % q, add, (int32_t)i};
        if (q < CHUNK && q < hi) { /* the table is full */
            n = first;
            break;
        }
    }
    const int64_t nsmall = i;

    for (int64_t c0 = 0; c0 < len; c0 += CHUNK) {
        const int64_t c1 = len - c0 < CHUNK ? len : c0 + CHUNK;
        copy_pattern(cell, c0, c1, lo, pattern, period);
        int64_t t = 0;
        for (s = 0; s < nsplits && splits[s] <= nsmall; s++) {
            for (; t < n && streams[t].prime < splits[s]; t++)
                add_stream(cell, c1, &streams[t]);
            copy_low(osm_at(osms, s) + c0, cell + c0, c1 - c0);
        }
        for (; t < n; t++)
            add_stream(cell, c1, &streams[t]);
    }

    /* A power from CHUNK up hits a chunk at most once: it costs one modulo
     * here instead of a visit per chunk. */
    for (int64_t k = 0; k < nsmall; k++) {
        const int64_t step = steps[k];
        int64_t q = first_power(primes[k], k < lead, period, (uint16_t)step, &add);
        while (q < CHUNK)
            q *= primes[k];
        sieve_prime(cell, len, lo, primes[k], q, (uint16_t)step, (uint16_t)step);
    }
    for (; i < count; i++) {
        for (; s < nsplits && splits[s] <= i; s++)
            copy_low(osm_at(osms, s), cell, len);
        int64_t q = first_power(primes[i], i < lead, period, (uint16_t)steps[i], &add);
        sieve_prime(cell, len, lo, primes[i], q, add, (uint16_t)steps[i]);
    }
    for (; s < nsplits; s++)
        copy_low(osm_at(osms, s), cell, len);
    if (noct == 0)
        copy_low(om, cell, len);
    for (int64_t o = 0; o < noct; o++)
        add_cofactor(om, cell, octaves[3 * o], octaves[3 * o + 1], (uint16_t)octaves[3 * o + 2]);
}

/* Add the packed triple k << 8 | v << 4 | u of each position start <= i < stop
 * to the 16^3 counts in flat, where k = om[i], v = om[i - 1] and
 * u = osm[i - 1].  A byte >= 16 would index outside flat: the fold returns
 * -1 before it counts the block holding it, leaving flat untouched or
 * partly counted; otherwise it returns 0.
 *
 * Each block of FOLD_BLOCK positions is two loops.  The first packs the
 * keys into key[] and ORs the bytes into a mask; it has no branch, so
 * GCC vectorizes it at -O3.  The second counts the keys in the uint32
 * table t, which stays in L1 beside key[], and only it carries the
 * increments' store-to-load chain.  t is added into flat every FOLD_FLUSH
 * positions and at the end.  On one 2^18-position segment at x = 1e8,
 * w = 4858 (2-core Xeon, 48 KB L1d), this took about half the time of one
 * loop that checks, packs and adds each position into flat in turn. */
int fold(int64_t *flat, const uint8_t *om, const uint8_t *osm,
         int64_t start, int64_t stop)
{
    uint16_t key[FOLD_BLOCK];
    uint32_t t[FOLD_BINS];
    for (int64_t w0 = start; w0 < stop; w0 += FOLD_FLUSH) {
        const int64_t w1 = stop - w0 < FOLD_FLUSH ? stop : w0 + FOLD_FLUSH;
        memset(t, 0, sizeof t);
        for (int64_t b = w0; b < w1; b += FOLD_BLOCK) {
            const int64_t len = w1 - b < FOLD_BLOCK ? w1 - b : FOLD_BLOCK;
            const uint8_t *k = om + b, *v = om + b - 1, *u = osm + b - 1;
            uint8_t mask = 0;
            for (int64_t j = 0; j < len; j++) {
                key[j] = (uint16_t)(k[j] << 8 | v[j] << 4 | u[j]);
                mask |= k[j] | v[j] | u[j];
            }
            if (mask >= 16)
                return -1;
            for (int64_t j = 0; j < len; j++)
                t[key[j]]++;
        }
        for (int j = 0; j < FOLD_BINS; j++)
            flat[j] += t[j];
    }
    return 0;
}

/* The most power sums prime_sums takes at once (kernel.py's MAX_POWERS). */
#define MAX_POWERS 16

/* Terms per block of pairwise_powers' accumulators: numpy's PW_BLOCKSIZE. */
#define PW_BLOCK 128

/* The primes of one block, read once in ascending order: 2 first if the
 * block holds it, then each odd n = first + 2 j whose bit j is set. */
struct prime_stream {
    const uint64_t *bits;
    int64_t first, word;
    uint64_t left; /* the bits of bits[word] not yet read */
    int two;
};

static struct prime_stream prime_stream(const uint64_t *bits, int64_t first, int two)
{
    return (struct prime_stream){bits, first, 0, bits[0], two};
}

/* The next prime; the caller reads no more primes than the block holds. */
static int64_t next_prime(struct prime_stream *s)
{
    if (s->two) {
        s->two = 0;
        return 2;
    }
    while (!s->left)
        s->left = s->bits[++s->word];
    const int b = __builtin_ctzll(s->left);
    s->left &= s->left - 1;
    return s->first + 2 * (64 * s->word + b);
}

/* t[j] = inv^(j + 2), j < npow, each the product of the one before and inv. */
static void power_term(double inv, int64_t npow, double *t)
{
    t[0] = inv * inv;
    for (int64_t j = 1; j < npow; j++)
        t[j] = t[j - 1] * inv;
}

/* out[j] = the sum of 1/p^(j + 2), j < npow, over the next n primes of s,
 * in numpy's pairwise order for ndarray.sum: below 8 terms, in order from
 * +0.0; up to PW_BLOCK terms, 8 accumulators striding by 8, combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the n % 8 last
 * terms in order; above, the sums of the two halves split at n / 2 rounded
 * down to a multiple of 8.  The halves read the primes in order, so only
 * PW_BLOCK inverses are ever held.  The terms are power_term's of
 * 1.0 / p, as numpy's inv = 1.0 / p, term = inv * inv and term *= inv
 * take them, so each sum has the bits numpy's would, as long as no
 * multiply and add are contracted. */
static void pairwise_powers(struct prime_stream *s, int64_t n, int64_t npow, double *out)
{
    double inv[PW_BLOCK], t[MAX_POWERS];
    if (n > PW_BLOCK) {
        const int64_t half = n / 2 - n / 2 % 8;
        pairwise_powers(s, half, npow, out);
        pairwise_powers(s, n - half, npow, t);
        for (int64_t j = 0; j < npow; j++)
            out[j] += t[j];
        return;
    }
    for (int64_t i = 0; i < n; i++)
        inv[i] = 1.0 / (double)next_prime(s);
    if (n < 8) {
        for (int64_t j = 0; j < npow; j++)
            out[j] = 0.0;
        for (int64_t i = 0; i < n; i++) {
            power_term(inv[i], npow, t);
            for (int64_t j = 0; j < npow; j++)
                out[j] += t[j];
        }
        return;
    }
    double r[8][MAX_POWERS];
    int64_t i;
    for (int k = 0; k < 8; k++)
        power_term(inv[k], npow, r[k]);
    for (i = 8; i < n - n % 8; i += 8)
        for (int k = 0; k < 8; k++) {
            power_term(inv[i + k], npow, t);
            for (int64_t j = 0; j < npow; j++)
                r[k][j] += t[j];
        }
    for (int64_t j = 0; j < npow; j++)
        out[j] = ((r[0][j] + r[1][j]) + (r[2][j] + r[3][j])) +
                 ((r[4][j] + r[5][j]) + (r[6][j] + r[7][j]));
    for (; i < n; i++) {
        power_term(inv[i], npow, t);
        for (int64_t j = 0; j < npow; j++)
            out[j] += t[j];
    }
}

/* The primes p of [lo, hi), lo >= 2: returns their count, sets out[0] to
 * the sum of p^-2 over all of them and out[1 + j], j < npow, to the sum of
 * p^-(j + 2) over those above `above`; -1 if memory runs out.  The block
 * sieves its odd numbers, one bit each, with odd_base[0..nbase), which
 * must hold every odd prime up to sqrt(hi - 1), each from p * p or its
 * first odd multiple at or above lo; lo = 2 adds the prime 2.  The sums
 * are pairwise_powers' over the primes in ascending order. */
int64_t prime_sums(int64_t lo, int64_t hi, const int64_t *odd_base, int64_t nbase,
                   int64_t above, int64_t npow, double *out)
{
    const int64_t first = lo | 1; /* bit j stands for the odd n = first + 2 j < hi */
    const int64_t nodd = hi > first ? (hi - first + 1) / 2 : 0;
    const int64_t nwords = nodd / 64 + 1;
    uint64_t *bits = malloc((size_t)nwords * sizeof *bits);
    if (!bits)
        return -1;
    memset(bits, 0xFF, (size_t)nwords * sizeof *bits);
    bits[nodd / 64] &= (UINT64_C(1) << nodd % 64) - 1; /* no bit past the block */
    for (int64_t b = 0; b < nbase; b++) {
        const int64_t p = odd_base[b];
        int64_t m = ((lo + p - 1) / p) | 1;
        if (m < p)
            m = p;
        for (int64_t j = (p * m - first) / 2; j < nodd; j += p)
            bits[j / 64] &= ~(UINT64_C(1) << j % 64);
    }
    int64_t count = lo == 2, head = 0; /* head: how many primes are at most above */
    for (int64_t w = 0; w < nwords; w++)
        count += __builtin_popcountll(bits[w]);
    struct prime_stream s = prime_stream(bits, first, lo == 2);
    while (head < count && next_prime(&s) <= above)
        head++;
    s = prime_stream(bits, first, lo == 2);
    pairwise_powers(&s, count, 1, out);
    s = prime_stream(bits, first, lo == 2);
    for (int64_t i = 0; i < head; i++)
        next_prime(&s);
    pairwise_powers(&s, count - head, npow, out + 1);
    free(bits);
    return count;
}
