/* omegashift's inner loop, its one entry: walk, the sieve's walk over a
 * run of segments, which may fold them into (k, v, u) histograms.  Built
 * with kernel.FLAGS and loaded by kernel.py, which checks every pointer
 * and range before a call.
 *
 * A walk sieves a worker's whole run of consecutive segments in one call.
 * Each power q of a base prime below the walk's end is one struct power,
 * which carries the offset of q's next multiple from one segment to the
 * next (Bays and Hudson, BIT 17, 1977): a segment costs one visit per
 * power, with no division, and so a short segment costs little more per n
 * than a long one.  Each segment has two phases.  Phase 1 walks it in
 * chunks of CHUNK words that stay in L1: each chunk gets its pre-sieve
 * pattern, every power below CHUNK of the base primes below SMALL_BOUND,
 * and the copy-outs of the splits that fall among those primes.  Phase 2
 * adds the other powers over the whole segment, then makes the other
 * splits' copy-outs and the octave cofactor test.  Last, the walk may fold
 * the segment's bytes into counts for each of its ranges.
 *
 * The pattern is one period of the words that the segment's leading
 * primes add, from those primes' own powers that divide the period (the
 * off powers, which then add nothing more), so it holds exactly the adds
 * that the walk skips.  Along a walk a segment's lead never falls (its
 * first live split only moves right), so the walk grows the pattern one
 * leading prime at a time: it tiles the period it has up to the new one
 * and adds only the new prime's off powers.  The tiles hold the old off
 * powers exactly: the new prime is coprime to the old ones, so an old
 * power divides the new period just when it divided the old one.  From
 * lead 0 to 5 at the usual primes that is about 6 000 adds, where
 * building the 55 440-word period afresh takes about 100 000.
 *
 * The fold works in L1-sized blocks: it packs FOLD_BLOCK positions' keys
 * at a time, checking their bytes, then counts them in a uint32 table that
 * it adds into the caller's int64 counts every FOLD_FLUSH positions and at
 * the end. */
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

/* The most words a pre-sieve pattern's period may take, 128 KB. */
#define MAX_PERIOD 65536

/* A prime's first power is the only one whose add reaches the low byte
 * (the others add a step, whose low byte is 0), so with every prime of
 * phase 1 below CHUNK, phase 1's copy-outs see every add they count. */
#if SMALL_BOUND > CHUNK
#error "a phase-1 prime must be below CHUNK"
#endif

/* The fold's bins, 16^3 (kernel.py's FOLD_BINS), and the positions whose
 * keys it packs at a time: 8192 uint16 keys and the 4096 uint32 counts take
 * 16 KB each, 32 KB together. */
#define FOLD_BINS 4096
#define FOLD_BLOCK 8192

/* Positions the fold counts into a uint32 table between flushes: a count
 * grows by at most 1 per position, so none can pass 2^32 - 1. */
#define FOLD_FLUSH (INT64_C(1) << 30)
#if FOLD_FLUSH > UINT32_MAX
#error "a fold count could wrap its uint32 between flushes"
#endif

/* One power q of the base prime primes[prime]: it adds add at each n that
 * q divides (step + 1 for the prime itself, whose low byte counts it, and
 * step for a higher power), and next is the offset, from the segment's
 * first n, of the first such n not yet passed.  off marks a power whose
 * adds the segment's pre-sieve pattern holds. */
struct power {
    int64_t q, next;
    int32_t prime;
    uint16_t add;
    uint8_t off;
};

/* Add a power up to offset stop, and keep where it stopped. */
static void add_power(uint16_t *cell, int64_t stop, struct power *pw)
{
    const int64_t q = pw->q;
    const uint16_t add = pw->add;
    int64_t j = pw->next;
    for (; j < stop; j += q)
        cell[j] += add;
    pw->next = j;
}

/* Carry a power from a segment of len words to the next: past the
 * multiples it has not added (an off power's), then by len. */
static void carry_power(struct power *pw, int64_t len)
{
    if (pw->next < len)
        pw->next += (len - pw->next + pw->q - 1) / pw->q * pw->q;
    pw->next -= len;
}

/* How many powers of p lie below hi.  kernel.py keeps every base prime at
 * most 2^20 and hi <= 2^40 + 1, so q * p < 2^61 never overflows. */
static int64_t count_powers(int64_t p, int64_t hi)
{
    int64_t n = 0;
    for (int64_t q = p; q < hi; q *= p)
        n++;
    return n;
}

/* Write the powers from <= q < below of primes[i] = p at pw, each with its
 * add and its next from lo; return the end of what was written. */
static struct power *put_powers(struct power *pw, int64_t i, int64_t p, int64_t step,
                                int64_t from, int64_t below, int64_t lo)
{
    for (int64_t q = p; q < below; q *= p)
        if (q >= from)
            *pw++ = (struct power){q, (q - lo % q) % q, (int32_t)i,
                                   (uint16_t)(q == p ? step + 1 : step), 0};
    return pw;
}

/* The period of a pattern of period `period` once it also holds p: the
 * lcm of period and p's largest power <= 16, or p itself above 16. */
static int64_t lead_period(int64_t period, int64_t p)
{
    int64_t top = p, a = period, b;
    while (top * p <= 16)
        top *= p;
    for (b = top; b;) { /* a = gcd(period, top) */
        const int64_t r = a % b;
        a = b;
        b = r;
    }
    return period / a * top;
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

/* A uint32 count of each fold key, and how many positions it has counted
 * since it was last added into the caller's int64 counts. */
struct tally {
    int64_t since;
    uint32_t t[FOLD_BINS];
};

static void flush(int64_t *flat, struct tally *ta)
{
    for (int j = 0; j < FOLD_BINS; j++)
        flat[j] += ta->t[j];
    memset(ta->t, 0, sizeof ta->t);
    ta->since = 0;
}

/* Count the packed triple k << 8 | v << 4 | u of each position
 * start <= i < stop in t, where k = om[i], v = om[i - 1] and
 * u = osm[i - 1]; return -1 before counting a block that holds a
 * byte >= 16, which would index outside t, else 0.
 *
 * Each block of FOLD_BLOCK positions is two loops.  The first packs the
 * keys into key[] and ORs the bytes into a mask; it has no branch, so
 * GCC vectorizes it.  The second counts the keys in t, which stays
 * in L1 beside key[], and only it carries the increments' store-to-load
 * chain.  On one 2^18-position segment at x = 1e8, w = 4858 (2-core Xeon,
 * 48 KB L1d), this took about half the time of one loop that checks,
 * packs and adds each position into int64 counts in turn. */
static int count_keys(uint32_t *t, const uint8_t *om, const uint8_t *osm,
                      int64_t start, int64_t stop)
{
    uint16_t key[FOLD_BLOCK];
    for (int64_t b = start; b < stop; b += FOLD_BLOCK) {
        const int64_t len = stop - b < FOLD_BLOCK ? stop - b : FOLD_BLOCK;
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
    return 0;
}

/* count_keys over start <= i < stop into ta, adding ta into flat each
 * time it has counted FOLD_FLUSH positions. */
static int tally_range(struct tally *ta, int64_t *flat, const uint8_t *om,
                       const uint8_t *osm, int64_t start, int64_t stop)
{
    while (start < stop) {
        const int64_t room = FOLD_FLUSH - ta->since;
        const int64_t end = stop - start < room ? stop : start + room;
        if (count_keys(ta->t, om, osm, start, end))
            return -1;
        ta->since += end - start;
        start = end;
        if (ta->since == FOLD_FLUSH)
            flush(flat, ta);
    }
    return 0;
}

/* Sieve n = lo + j, j < hi - lo, in segments of seglen words, each in
 * turn in the words cell[0..seglen); return 0, -1 if a fold meets a
 * byte >= 16, or -2 if memory runs out.
 *
 * Each prime p = primes[i] adds steps[i] + 1 at each multiple of p and
 * steps[i] at each multiple of each power p^j < hi.  A segment's cell
 * starts as the pre-sieve pattern of its lead l, the words of n in
 * [0, period) sieved by the l leading primes at those of their powers
 * below hi that divide period, the lead_period of the l primes; those
 * powers add nothing more.  The leads are the l whose period is at most
 * MAX_PERIOD, and a segment's lead is the largest one <= its first live
 * split.  After the primes primes[0..splits[s]) the low byte is copied
 * into the bytes at the address osms[s], for each s < nsplits in turn; a
 * split is live in a segment that starts below untils[s].  Last, om gets
 * the low byte, plus 1 where the word is below bounds[b], the cofactor
 * test's bound for the octave [2^b, 2^(b + 1)) that holds n; with
 * nbounds == 0, om gets the low byte alone.
 *
 * With carry == 0, om and each osm hold the byte of n at n - lo.  With
 * carry == 1 they hold seglen + 1 bytes: the byte of a segment's n at
 * 1 + n - its first n, and at 0 its n - 1's, carried from the segment
 * before.  Each range r, (u, start, stop) = ranges[3 r .. 3 r + 3),
 * adds the count of each (k, v, u) of its n in [max(start, lo + 1),
 * min(stop, hi)) into the 16^3 counts at counts + FOLD_BINS r, at
 * k << 8 | v << 4 | u: k is the byte of n in om, v that of n - 1 in om,
 * and u that of n - 1 in om for u = -1 and in osms[u] otherwise.  Each
 * range counts into a uint32 tally of its own, flushed every FOLD_FLUSH
 * positions and once at the end.  The words are sums, so the order of the
 * adds (the two phases of this file's header) does not change them. */
int64_t walk(uint16_t *cell, int64_t seglen, int64_t lo, int64_t hi,
             const int64_t *primes, const int64_t *steps, int64_t count,
             const int64_t *bounds, int64_t nbounds,
             const int64_t *osms, const int64_t *splits, const int64_t *untils, int64_t nsplits,
             uint8_t *om, int64_t carry, const int64_t *ranges, int64_t nranges,
             int64_t *counts)
{
    int64_t npow = 0, nsmall = 0, nearly = 0, nlead = 0, widest = 1;
    for (int64_t i = 0; i < count; i++)
        npow += count_powers(primes[i], hi);
    while (nsmall < count && primes[nsmall] < SMALL_BOUND)
        nsmall++;
    while (nearly < nsplits && splits[nearly] <= nsmall)
        nearly++; /* the splits that phase 1 copies out */
    for (int64_t next; nlead < count && (next = lead_period(widest, primes[nlead])) <= MAX_PERIOD;
         nlead++)
        widest = next; /* the largest lead, and its period */
    struct power *pw = malloc((size_t)npow * sizeof *pw + 1);
    struct tally *tallies = calloc((size_t)nranges + 1, sizeof *tallies);
    uint16_t *pattern = malloc((size_t)widest * sizeof *pattern);
    if (!pw || !tallies || !pattern) {
        free(pw);
        free(tallies);
        free(pattern);
        return -2;
    }
    struct power *end = pw;
    for (int64_t i = 0; i < nsmall; i++)
        end = put_powers(end, i, primes[i], steps[i], 0, hi < CHUNK ? hi : CHUNK, lo);
    const int64_t nstream = end - pw; /* phase 1's powers */
    for (int64_t i = 0; i < nsmall; i++)
        end = put_powers(end, i, primes[i], steps[i], CHUNK, hi, lo);
    for (int64_t i = nsmall; i < count; i++)
        end = put_powers(end, i, primes[i], steps[i], 0, hi, lo);

    int64_t lead = 0, period = 1, err = 0;
    pattern[0] = 0; /* lead 0's pattern: one word, no adds */
    for (int64_t first = lo; first < hi && !err; first += seglen) {
        const int64_t len = hi - first < seglen ? hi - first : seglen;
        const int64_t at = carry ? 1 : first - lo; /* where the segment's bytes start */
        uint8_t *const seg = om + at;
        int64_t l = nlead, s = 0, t = 0;
        while (s < nsplits && untils[s] <= first)
            s++;
        if (s < nsplits && splits[s] < l)
            l = splits[s];
        for (; lead < l; lead++) { /* the pattern grows by primes[lead] */
            const int64_t grown = lead_period(period, primes[lead]);
            for (int64_t j = period; j < grown; j += period)
                memcpy(pattern + j, pattern, (size_t)period * sizeof *pattern);
            period = grown;
            for (int64_t k = 0; k < npow; k++)
                if (pw[k].prime == lead && period % pw[k].q == 0) {
                    pw[k].off = 1;
                    for (int64_t j = 0; j < period; j += pw[k].q)
                        pattern[j] += pw[k].add;
                }
        }

        for (int64_t c0 = 0; c0 < len; c0 += CHUNK) {
            const int64_t c1 = len - c0 < CHUNK ? len : c0 + CHUNK;
            copy_pattern(cell, c0, c1, first, pattern, period);
            for (s = 0, t = 0; s < nearly; s++) {
                for (; t < nstream && pw[t].prime < splits[s]; t++)
                    if (!pw[t].off)
                        add_power(cell, c1, &pw[t]);
                if (untils[s] > first)
                    copy_low(osm_at(osms, s) + at + c0, cell + c0, c1 - c0);
            }
            for (; t < nstream; t++)
                if (!pw[t].off)
                    add_power(cell, c1, &pw[t]);
        }
        for (t = 0; t < nstream; t++)
            carry_power(&pw[t], len);

        for (s = nearly; t < npow; t++) {
            for (; s < nsplits && splits[s] <= pw[t].prime; s++)
                if (untils[s] > first)
                    copy_low(osm_at(osms, s) + at, cell, len);
            if (!pw[t].off)
                add_power(cell, len, &pw[t]);
            carry_power(&pw[t], len);
        }
        for (; s < nsplits; s++)
            if (untils[s] > first)
                copy_low(osm_at(osms, s) + at, cell, len);
        if (nbounds == 0)
            copy_low(seg, cell, len);
        else /* each octave [a, 2a), a = 2^b, that meets the segment */
            for (int b = 63 - __builtin_clzll((uint64_t)first); INT64_C(1) << b < first + len; b++) {
                const int64_t a = INT64_C(1) << b;
                add_cofactor(seg, cell, (a > first ? a : first) - first,
                             (2 * a < first + len ? 2 * a : first + len) - first,
                             (uint16_t)bounds[b]);
            }

        for (int64_t r = 0; r < nranges && !err; r++) {
            const int64_t *range = ranges + 3 * r;
            int64_t n0 = range[1] > first ? range[1] : first;
            const int64_t n1 = range[2] < first + len ? range[2] : first + len;
            if (n0 <= lo)
                n0 = lo + 1;
            if (n0 < n1)
                err = tally_range(&tallies[r], counts + FOLD_BINS * r, seg,
                                  range[0] < 0 ? seg : osm_at(osms, range[0]) + at,
                                  n0 - first, n1 - first);
        }
        if (carry) {
            om[0] = om[len];
            for (s = 0; s < nsplits; s++)
                if (untils[s] > first)
                    osm_at(osms, s)[0] = osm_at(osms, s)[len];
        }
    }
    for (int64_t r = 0; r < nranges && !err; r++)
        flush(counts + FOLD_BINS * r, &tallies[r]);
    free(pw);
    free(tallies);
    free(pattern);
    return err;
}
