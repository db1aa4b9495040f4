/* The two inner loops of omegashift: the sieve's strided adds and the
 * (k, v, u) histogram fold.  Built and loaded by kernel.py; every pointer
 * and range is checked there before a call. */

#include <stdint.h>

/* Sieve the base primes primes[0..count) into the words cell[0..len) of
 * n = lo + i: add steps[i] + 1 at each multiple of p = primes[i] (the low
 * byte counts p, the high byte gains L(p) = steps[i] >> 8), and steps[i]
 * at each multiple of every power p^j < hi, j >= 2. */
void sieve_words(uint16_t *cell, int64_t len, int64_t lo,
                 const int64_t *primes, const int64_t *steps, int64_t count)
{
    const int64_t hi = lo + len;
    for (int64_t i = 0; i < count; i++) {
        const int64_t p = primes[i];
        const uint16_t step = (uint16_t)steps[i];
        const uint16_t first = (uint16_t)(step + 1);
        for (int64_t j = (p - lo % p) % p; j < len; j += p)
            cell[j] += first;
        /* Base primes are at most sqrt(x_max) <= 2^20 and q < hi <= 2^40 + 1,
         * so q * p < 2^61 never overflows. */
        for (int64_t q = p * p; q < hi; q *= p)
            for (int64_t j = (q - lo % q) % q; j < len; j += q)
                cell[j] += step;
    }
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
