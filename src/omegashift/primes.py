"""Trial division for the Euler products, the generating-function layer and
the verify battery.  The one trial division of a whole range, factor_table,
calls no sieve, so it can check one; the one prime sieve is
base.primes_up_to.
"""

from __future__ import annotations

import math

import numpy as np

FACTOR_LIMIT = 1 << 50


def factor_table(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p, a, m, omega) of each 0 <= q <= n_max as read-only int64 arrays: the
    smallest prime p of q, its exponent a, m = q / p^a and the number omega of
    distinct primes of q; 0, 0, 1 and 0 at q = 0 and 1.  One trial division of
    every q at once: each d <= sqrt(n_max) in turn is divided out of what is
    left of q wherever it divides, so only primes ever divide, and what is
    left at the end is 1 or one prime above sqrt(n_max).  No sieve is called.
    """
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
    for arr in (p, a, m, omega):
        arr.flags.writeable = False
    return p, a, m, omega


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
