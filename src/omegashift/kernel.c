/* The two inner loops of omegashift: one sieve pass over a segment and the
 * (k, v, u) histogram fold.  Built with -O3 and loaded by kernel.py; every
 * pointer and range is checked there before a call. */

#include <stdint.h>
#include <string.h>

/* Add add at each multiple of q among n = lo + j, j < len. */
static void add_strided(uint16_t *cell, int64_t len, int64_t lo, int64_t q, uint16_t add)
{
    for (int64_t j = (q - lo % q) % q; j < len; j += q)
        cell[j] += add;
}

/* Sieve base prime p with step L(p) << 8: step + 1 at each multiple of p
 * (the low byte counts p, the high byte gains L(p)) and step at each
 * multiple of every power p^j < hi, j >= 2.  Base primes are at most
 * sqrt(x_max) <= 2^20 and q < hi <= 2^40 + 1, so q * p < 2^61 never
 * overflows. */
static void sieve_prime(uint16_t *cell, int64_t len, int64_t lo, int64_t p, uint16_t step)
{
    add_strided(cell, len, lo, p, (uint16_t)(step + 1));
    for (int64_t q = p * p; q < lo + len; q *= p)
        add_strided(cell, len, lo, q, step);
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

/* One segment n = lo + j, j < len, into the words cell[0..len).
 *
 * The cell starts as the pre-sieve pattern[(lo + j) % period] when pattern
 * is given, else as zeros.  The pattern holds the words of the leading base
 * primes that divide period and of their powers that divide period, so
 * those primes add only their higher powers here (2^5, 3^3, ... for
 * period 2^4 3^2 5 7 11); every later prime is sieved in full.  After the
 * primes primes[0..splits[s]) the low byte is copied into osms[s], for
 * each s < nsplits in turn.  Last, om[j] gets the low byte, plus 1 where
 * the word is below the octave's bound, for each octave
 * (start, stop, bound) = octaves[3 o .. 3 o + 3) of the noct given; with
 * noct == 0, om gets the low byte alone. */
void fill_segment(uint16_t *cell, int64_t len, int64_t lo,
                  const int64_t *primes, const int64_t *steps, int64_t count,
                  const uint16_t *pattern, int64_t period,
                  uint8_t *const *osms, const int64_t *splits, int64_t nsplits,
                  uint8_t *om, const int64_t *octaves, int64_t noct)
{
    int64_t i = 0;
    if (pattern) {
        for (int64_t j = 0, r = lo % period; j < len; j += period - r, r = 0)
            memcpy(cell + j, pattern + r,
                   (size_t)(len - j < period - r ? len - j : period - r) * sizeof *cell);
        for (; i < count && period % primes[i] == 0; i++) {
            int64_t q = primes[i];
            while (period % q == 0)
                q *= primes[i];
            for (; q < lo + len; q *= primes[i])
                add_strided(cell, len, lo, q, (uint16_t)steps[i]);
        }
    } else {
        memset(cell, 0, (size_t)len * sizeof *cell);
    }
    for (int64_t s = 0; s < nsplits; s++) {
        for (; i < splits[s]; i++)
            sieve_prime(cell, len, lo, primes[i], (uint16_t)steps[i]);
        copy_low(osms[s], cell, len);
    }
    for (; i < count; i++)
        sieve_prime(cell, len, lo, primes[i], (uint16_t)steps[i]);
    if (noct == 0)
        copy_low(om, cell, len);
    for (int64_t o = 0; o < noct; o++)
        add_cofactor(om, cell, octaves[3 * o], octaves[3 * o + 1], (uint16_t)octaves[3 * o + 2]);
}

/* Add the packed triple k << 8 | v << 4 | u of each position start <= i < stop
 * to the 16^3 counts in flat, where k = om[i], v = om[i - 1] and
 * u = osm[i - 1].  A byte >= 16 would index outside flat: the fold stops
 * there and returns -1, leaving flat partly counted; otherwise it returns 0. */
int fold(int64_t *flat, const uint8_t *om, const uint8_t *osm,
         int64_t start, int64_t stop)
{
    for (int64_t i = start; i < stop; i++) {
        const unsigned k = om[i], v = om[i - 1], u = osm[i - 1];
        if ((k | v | u) >= 16)
            return -1;
        flat[k << 8 | v << 4 | u] += 1;
    }
    return 0;
}
