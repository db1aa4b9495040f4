"""Trial division for the Euler products, the generating-function layer and
the verify battery, in plain Python.  The one trial division of a whole
range, factor_table, calls no sieve, so it can check one; the one prime
sieve is base.primes_up_to.
"""

from __future__ import annotations

import math

FACTOR_LIMIT = 1 << 50


def factor_table(n_max: int) -> tuple[tuple[int, ...], ...]:
    """(p, a, m, omega), each a tuple indexed by 0 <= q <= n_max: the
    smallest prime p of q, its exponent a, m = q / p^a and the number omega
    of distinct primes of q; 0, 0, 1 and 0 at q = 0 and 1.  One trial
    division of every q: each d <= sqrt(n_max) in turn is divided out of
    what is left of each multiple of d wherever it divides, so only primes
    ever divide, and what is left at the end is 1 or one prime above
    sqrt(n_max).  No sieve is called.
    """
    rest = list(range(n_max + 1))
    p, a, omega = [0] * (n_max + 1), [0] * (n_max + 1), [0] * (n_max + 1)
    m = [1] * (n_max + 1)
    for d in range(2, math.isqrt(n_max) + 1):
        for q in range(d, n_max + 1, d):
            r = rest[q]
            if r % d:
                continue
            e = 0
            while r % d == 0:
                r //= d
                e += 1
            rest[q] = r
            omega[q] += 1
            if not p[q]:  # d is the smallest prime of q
                p[q], a[q], m[q] = d, e, r
    for q, r in enumerate(rest):
        if r > 1:  # one prime above sqrt(n_max) is left
            omega[q] += 1
            if not p[q]:
                p[q], a[q] = r, 1
    return tuple(p), tuple(a), tuple(m), tuple(omega)


def factorize(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with n = prod p^e, p ascending, by trial division; [] for n = 1."""
    if not 1 <= n <= FACTOR_LIMIT:
        raise ValueError(f"n={n} outside factorization range [1, 2^50]")
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
