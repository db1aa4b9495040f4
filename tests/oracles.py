"""Independent oracle implementations used to freeze expected test values.

Nothing here imports the package under test.  The arithmetic oracles use
plain trial division and Python integers; the kernel oracles compute g
and phi f in ints and z alone, so an int or Fraction z keeps them exact,
and the convolution oracle sums g(q) tau(n/q) over the divisors q of one
trial-divided n, for a kernel g that a test may pass in; the factor-table
oracle is the library's former numpy trial division of a whole range; the segment oracle sieves one
segment with a numpy strided add per prime power over the whole segment,
in no chunks and from no pattern; the histogram oracle counts a table's (k, v, u) triples with
numpy bincount; the generating-function oracle gathers a table's level set
element by element and inverts F_k from its values at the roots of unity by
a discrete Fourier transform; the Euler-product oracle uses mpmath with a
prime-zeta tail so its error is far below the tolerances it is used to
check, and the truncated-product oracle sums the exact logs of every factor
up to the truncation prime, carrying the sign of negative factors
separately.  The prime-sums oracle takes math.fsum, correctly rounded, of
each sum's double terms over the primes of a sieve of Eratosthenes.  Frozen
constants in the test files, and the prime sums frozen in
omegashift.constants, were produced by running this module directly
(python3 tests/oracles.py).
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from functools import lru_cache

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------- arithmetic


def factorize(n: int) -> list[tuple[int, int]]:
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def factor_table(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p, a, m, omega) of each 0 <= q <= n_max as int64 arrays: the smallest
    prime p of q, its exponent a, m = q / p^a and the number omega of
    distinct primes of q; 0, 0, 1 and 0 at q = 0 and 1.  The library's numpy
    trial division before primes.factor_table went to plain Python: each
    d <= sqrt(n_max) in turn is divided out of what is left of every q at
    once, wherever it divides."""
    rest = np.arange(n_max + 1, dtype=np.int64)
    p, a, m, omega = np.zeros((4, n_max + 1), dtype=np.int64)
    m += 1
    for d in range(2, math.isqrt(n_max) + 1):
        n = np.arange(d, n_max + 1, d)
        n = n[rest[n] % d == 0]
        omega[n] += 1
        first = n[p[n] == 0]  # d is the smallest prime of these q
        p[first] = d
        while n.size:
            rest[n] //= d
            a[n[p[n] == d]] += 1
            n = n[rest[n] % d == 0]
        m[first] = rest[first]
    big = rest > 1
    omega += big
    lone = big & (p == 0)  # q is a prime above sqrt(n_max)
    p[lone], a[lone] = rest[lone], 1
    return p, a, m, omega


def omega_pair(n: int, w: int) -> tuple[int, int]:
    """(distinct prime factors, distinct prime factors <= w) of n; (0,0) for n=1."""
    if n == 1:
        return 0, 0
    fac = factorize(n)
    return len(fac), sum(1 for p, _ in fac if p <= w)


def level_triples(x: int, w: int) -> list[tuple[int, int, int]]:
    """For n = 2..x: (omega(n), omega(n-1), omega(n-1, w)), index n-2; each
    n is factorized once, and its pair read again as the next n's n - 1."""
    out, prev = [], omega_pair(1, w)
    for n in range(2, x + 1):
        cur = omega_pair(n, w)
        out.append((cur[0], *prev))
        prev = cur
    return out


def weighted_mass(triples, k: int) -> int:
    return sum(1 << v for kk, v, _ in triples if kk == k)


def weighted_mass_below(triples, k: int, threshold: float) -> int:
    return sum(1 << v for kk, v, _ in triples if kk == k and v <= threshold)


def weighted_mass_at(triples, k: int, ell: int) -> int:
    return sum(1 << v for kk, v, u in triples if kk == k and u == ell)


def weighted_moment(triples, k: int, x: int, m: int) -> float:
    center = 2.0 * math.log(math.log(x))
    scale = math.sqrt(center)
    total = weighted_mass(triples, k)
    acc = 0.0
    for kk, v, _ in triples:
        if kk == k:
            acc += (1 << v) * ((v - center) / scale) ** m
    return acc / total


def weighted_ks(triples, k: int, x: int) -> float:
    """sup_y |F(y) - Phi(y)|, F the weighted law of (omega(n-1) - 2 loglog x)
    / sqrt(2 loglog x) over the k-level set; the sup sits at an atom, on one
    side or the other of its jump."""
    center = 2.0 * math.log(math.log(x))
    scale = math.sqrt(center)
    masses: dict[int, int] = {}
    for kk, v, _ in triples:
        if kk == k:
            masses[v] = masses.get(v, 0) + (1 << v)
    total = sum(masses.values())
    below, worst = 0, 0.0
    for v in sorted(masses):
        phi = 0.5 * (1.0 + math.erf((v - center) / (scale * math.sqrt(2.0))))
        above = below + masses[v]
        worst = max(worst, abs(below / total - phi), abs(above / total - phi))
        below = above
    return worst


def large_factor_ratio(triples, k: int, x: int, c_mult: float) -> float:
    thr = c_mult * math.log(math.log(math.log(x)))
    excess = sum(1 << v for kk, v, u in triples if kk == k and v - u > thr)
    return excess / weighted_mass(triples, k)


def segment_pass(lo: int, size: int, primes, steps, splits, bounds=()):
    """(cell, om, osms) of the sieve's segment pass over n = lo + j, j < size,
    from its definition, one numpy strided add per prime power over the
    whole segment: the uint16 word of n gains steps[i] + 1 where primes[i]
    divides n and steps[i] where each higher power does, for each power
    below lo + size (only n = 0 has a multiple of a larger one);
    osms[s] is the low byte after the primes primes[:splits[s]]; om is the
    low byte after every prime, plus 1, if bounds is not empty, where the
    word is below bounds[b] for the b with 2^b <= n < 2^(b+1), found for
    each n by itself.  Words wrap modulo 2^16."""
    cell = np.zeros(size, dtype=np.uint16)
    osms = [None] * len(splits)
    for i in range(len(primes) + 1):
        for s, cut in enumerate(splits):
            if cut == i:
                osms[s] = cell.astype(np.uint8)
        if i == len(primes):
            break
        p, add = int(primes[i]), int(steps[i]) + 1
        q = p
        while q < lo + size:
            cell[(-lo) % q :: q] += np.uint16(add)
            q, add = q * p, int(steps[i])
    om = cell.astype(np.uint8)
    if bounds:
        below = [bounds[n.bit_length() - 1] for n in range(lo, lo + size)]
        om += cell < np.array(below, dtype=np.int64)
    return cell, om, osms


def histogram(omega, omega_small, x: int, chunk: int = 1 << 20) -> np.ndarray:
    """H[k, v, u] = #{2 <= n <= x : omega[n] = k, omega[n-1] = v,
    omega_small[n-1] = u} from two byte tables indexed by n, shape (16, 16, 16),
    by a numpy bincount over each chunk of n; a count >= 16 raises ValueError.
    The tables are any byte buffers, read through np.asarray."""
    omega, omega_small = np.asarray(omega), np.asarray(omega_small)
    counts = np.zeros(16**3, dtype=np.int64)
    for lo in range(2, x + 1, chunk):
        hi = min(lo + chunk, x + 1)
        k = omega[lo:hi].astype(np.int64)
        v = omega[lo - 1 : hi - 1].astype(np.int64)
        u = omega_small[lo - 1 : hi - 1].astype(np.int64)
        if max(k.max(), v.max(), u.max()) >= 16:
            raise ValueError(f"a factor count >= 16 in [{lo}, {hi})")
        counts += np.bincount((k * 16 + v) * 16 + u, minlength=16**3)
    return counts.reshape(16, 16, 16)


def joint_counts(triples, k: int) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for kk, v, u in triples:
        if kk == k:
            out[(v, u)] = out.get((v, u), 0) + 1
    return out


def dft_coefficients(table, k: int, x: int) -> list[float]:
    """Coefficients of F_k(z) = sum 2^omega(n-1) z^omega(n-1, w) over the
    k-level set of table, by an inverse DFT of F_k at the m-th roots of unity,
    m = 1 + the largest omega(n-1, w) on the level set; [0.0] when empty."""
    omega, omega_small = np.asarray(table.omega), np.asarray(table.omega_small)
    members = np.flatnonzero(omega[2 : x + 1] == k) + 1  # the n - 1
    if members.size == 0:
        return [0.0]
    weights = np.ldexp(1.0, omega[members].astype(np.int32))
    small = omega_small[members].astype(np.int64)
    m = int(small.max()) + 1
    roots = [cmath.exp(2j * cmath.pi * j / m) for j in range(m)]
    values = [complex(np.sum(weights * np.power(z, small))) for z in roots]
    return [
        sum(values[j] * cmath.exp(-2j * cmath.pi * j * l / m) for j in range(m)).real / m
        for l in range(m)
    ]


# ------------------------------------------------------------ Euler products
# All products have per-prime shape (1 + a/(p-1+s)) * (1-1/p)^a.  The log of
# the factor, as a series in u = 1/p, starts at u^2, so the sum over p > P0
# is a short combination of prime zeta values.


def _primes_up_to(limit: int) -> tuple[int, ...]:
    """The primes up to limit, from a bytearray sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return tuple(itertools.compress(range(limit + 1), flags))


_small_primes = lru_cache(maxsize=None)(_primes_up_to)


def span_prime_sums(primes, above: int, powers: int) -> tuple[int, float, tuple[float, ...]]:
    """(count, sum p^-2, (S_2, ..., S_{powers+1})) of ascending primes, S_j
    over those above `above`, each the math.fsum of its double terms: 1.0 / p
    squared, times 1.0 / p per further power."""
    invs = [1.0 / p for p in primes]
    terms = [inv * inv for inv in invs]
    inv_sq = math.fsum(terms)
    head = bisect.bisect_right(primes, above)
    invs, terms = invs[head:], terms[head:]
    sums = []
    for _ in range(powers):
        sums.append(math.fsum(terms))
        terms = [t * inv for t, inv in zip(terms, invs)]
    return len(primes), inv_sq, tuple(sums)


@lru_cache(maxsize=None)
def prime_sums(P: int, above: int, terms: int) -> tuple[int, float, tuple[float, ...]]:
    """(pi(P), sum_{p<=P} p^-2, (S_2, ..., S_terms) over P >= p > above), the
    span_prime_sums of the primes up to P from a sieve of Eratosthenes."""
    return span_prime_sums(_primes_up_to(P), above, terms - 1)


def prime_sums_literal(sums) -> str:
    """sums as the source of omegashift.constants._PRIME_SUMS spells them:
    the count, then each float as float.fromhex of its hex, three power
    sums a line."""
    count, inv_sq, powers = sums
    hexes = [f'"{value.hex()}"' for value in powers]
    rows = ["    " + ", ".join(hexes[i : i + 3]) + ",\n" for i in range(0, len(hexes), 3)]
    return (f'_PRIME_SUMS = ({count}, float.fromhex("{inv_sq.hex()}"), '
            f"tuple(map(float.fromhex, (\n{''.join(rows)}))))\n")


def sums_bits(sums) -> tuple:
    """(count, sum p^-2, power sums) with every float as its hex: equal bits, signed zeros too."""
    count, inv_sq, powers = sums
    return count, inv_sq.hex(), tuple(value.hex() for value in powers)


def euler_product_mp(a, s, P0: int = 10_000, terms: int = 16, dps: int = 60):
    """log of prod_p (1+a/(p-1+s))(1-1/p)^a as an mpmath number (mpc if complex)."""
    with mp.workdps(dps):
        a = mp.mpmathify(a)
        s = mp.mpmathify(s)

        def logf(u):
            return mp.log(1 + a * u / (1 - u + s * u)) + a * mp.log(1 - u)

        coeffs = mp.taylor(logf, 0, terms)
        primes = _small_primes(P0)
        head = mp.fsum(logf(mp.mpf(1) / p) for p in primes)
        tail = mp.mpf(0)
        for j in range(2, terms + 1):
            partial = mp.fsum(mp.mpf(p) ** (-j) for p in primes)
            tail += coeffs[j] * (mp.primezeta(j) - partial)
        return head + tail


def truncated_log_product_mp(a, s, P: int, dps: int = 30):
    """(L, sign) with prod (1+a/(p-1+s))(1-1/p)^a over every prime p <= P
    equal to sign * exp(L), straight from the definition with no series.

    For real a, L sums log|factor| and sign is -1 when an odd number of
    factors are negative, else 1; for complex a, L sums principal logs and
    sign is 1.  A factor that vanishes is left out of L and makes sign 0."""
    with mp.workdps(dps):
        a = mp.mpmathify(a)
        s = mp.mpmathify(s)
        logs = []
        sign = 1
        for p in _small_primes(P):
            factor = 1 + a / (p - 1 + s)
            if factor == 0:
                sign = 0
                continue
            if not isinstance(factor, mp.mpc) and factor < 0:
                sign, factor = -sign, -factor
            logs.append(mp.log(factor) + a * mp.log(1 - mp.mpf(1) / p))
        return mp.fsum(logs), sign


def level_density_mp(r, **kw):
    with mp.workdps(kw.get("dps", 60)):
        return mp.exp(euler_product_mp(r, 0, **kw)) / mp.gamma(r + 1)


def tilted_level_mp(r, **kw):
    with mp.workdps(kw.get("dps", 60)):
        return mp.exp(euler_product_mp(r + 1, 0, **kw)) / mp.gamma(r + 1)


def tilt_product_mp(r, z, **kw):
    with mp.workdps(kw.get("dps", 60)):
        z = mp.mpmathify(z)
        return mp.exp(mp.euler * (2 * z - 2) + euler_product_mp(2 * z - 1, r, **kw))


def tilt_profile_mp(r, z, **kw):
    with mp.workdps(kw.get("dps", 60)):
        z = mp.mpmathify(z)
        return mp.exp(mp.euler * (2 * z - 2) + euler_product_mp(2 * z - 2, r + 1, **kw))


def coprimality_density_mp(ell: int, y, **kw):
    with mp.workdps(kw.get("dps", 60)):
        y = mp.mpmathify(y)
        val = mp.exp(euler_product_mp(y, 0, **kw)) / mp.gamma(y + 1)
        for p, _ in factorize(ell):
            val /= 1 + y / (p - 1)
        return val


# --------------------------------------------------------- kernel enumeration


def kernel_g(p: int, alpha: int, w: int, z):
    """g(p^alpha) at z, in ints and z alone: exact at an int or Fraction z."""
    if alpha == 1:
        return 2 * (z - 1) if p <= w else 0
    if alpha == 2:
        return 1 - 2 * z if p <= w else -1
    return 0


def convolution_sides(n: int, w: int, z, g=kernel_g):
    """(sum over q | n of g(q) tau(n/q), 2^omega(n) z^omega(n, w)) for one n,
    with g(p, alpha, w, z) the kernel on prime powers, extended multiplicatively."""
    fac = factorize(n)
    lhs = 0
    for exps in itertools.product(*(range(e + 1) for _, e in fac)):
        term = 1
        for (p, e), a in zip(fac, exps):
            if a:
                term *= g(p, a, w, z)
            term *= e - a + 1  # tau(n/q) is multiplicative too
        lhs += term
    om, om_small = omega_pair(n, w)
    return lhs, 2**om * z**om_small


def kernel_g_general(q: int, w: int, z):
    out = 1
    for p, e in factorize(q):
        out *= kernel_g(p, e, w, z)
    return out


def totient(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def phi_via_enumeration(ell: int, w: int, z):
    """phi(ell) f(ell) = sum over d^2 * q = ell of g(q) phi(ell) / phi(d*q),
    straight from the definition, in ascending d; the d with d^2 | ell are
    built from ell's factorization, and phi(d*q) divides phi(ell) as d*q
    divides ell."""
    ds = [1]
    for p, e in factorize(ell):
        ds = [d * p**f for d in ds for f in range(e // 2 + 1)]
    total = 0
    for d in sorted(ds):
        q = ell // (d * d)
        total += kernel_g_general(q, w, z) * (totient(ell) // totient(d * q))
    return total


def polynomial_at(coeffs, z):
    """sum_u coeffs[u] z^u: a library polynomial, constant term first, at z."""
    return sum(c * z**u for u, c in enumerate(coeffs))


if __name__ == "__main__":
    mp.mp.dps = 40
    print("# frozen Euler-product oracle values (30 digits)")
    for r in (0.25, 0.5, 1.0, 2.0):
        print(f'    ("level_density", {r}): "{mp.nstr(level_density_mp(mp.mpf(r)), 30)}",')
    for r in (0.25, 0.5, 1.0, 2.0):
        print(f'    ("tilted_level", {r}): "{mp.nstr(tilted_level_mp(mp.mpf(r)), 30)}",')
    print(f'    ("tilt_product", 1.0, 2.0): "{mp.nstr(tilt_product_mp(mp.mpf(1), mp.mpf(2)), 30)}",')
    zc = mp.mpc("0.8", "0.3")
    print(f'    ("tilt_product", 0.5, 0.8+0.3j): "{mp.nstr(tilt_product_mp(mp.mpf(0.5), zc, dps=60), 32)}",')
    print(f'    ("tilt_profile", 0.25, 2.338): "{mp.nstr(tilt_profile_mp(mp.mpf(0.25), mp.mpf(2.338)), 30)}",')
    print(f'    ("tilt_profile", 0.5, 0.8+0.3j): "{mp.nstr(tilt_profile_mp(mp.mpf(0.5), zc, dps=60), 32)}",')
    for ell, y in ((1, 1.0), (6, 1.0), (12, 1.5)):
        print(f'    ("coprimality", {ell}, {y}): "{mp.nstr(coprimality_density_mp(ell, mp.mpf(y)), 30)}",')
    # identity sanity for the oracle itself
    print("# h(1/2) - e^-gamma =", mp.nstr(tilt_product_mp(mp.mpf(0.5), mp.mpf(0.5)) - mp.exp(-mp.euler), 8))
    print("# H(0.7,1) - 1     =", mp.nstr(tilt_profile_mp(mp.mpf(0.7), mp.mpf(1)) - 1, 8))
    print("# omegashift.constants._PRIME_SUMS: (pi(P), sum p^-2, S_2..S_12) at P = 10^7,")
    print("# S_j over 1000 < p <= P, each the math.fsum of its terms")
    print(prime_sums_literal(prime_sums(10_000_000, 1000, 12)), end="")
