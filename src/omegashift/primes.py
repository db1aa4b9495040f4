"""Prime generation and trial division shared by the sieve, the Euler
products, the generating-function layer and the verify battery.  The one
prime sieve is iter_prime_blocks; primes_up_to joins its blocks.  The one
trial division of a whole range, factor_table, calls no sieve, so it can check one.
"""

from __future__ import annotations

import math

import numpy as np

FACTOR_LIMIT = 1 << 50


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *iter_prime_blocks(limit)])


def iter_prime_blocks(limit: int, block_len: int = 1 << 22):
    """Yield ascending int64 arrays of primes covering [2, limit].

    Segmented so working memory stays O(block_len + pi(sqrt(limit))); block
    boundaries are fixed by block_len alone, which keeps downstream
    block-ordered reductions deterministic.  The base primes come from
    primes_up_to(isqrt(limit)); a limit below 4 has none, which ends the recursion.
    Block i holds the primes of [lo, lo + block_len), lo = 2 + i * block_len,
    and may be empty.  Each block is built by _prime_block, so between yields
    the generator holds neither the block's sieve mask nor the block itself:
    a caller that drops a block frees it before the next one is sieved.
    """
    if limit < 2:
        return
    odd_base = primes_up_to(math.isqrt(limit))[1:].tolist()
    for lo in range(2, limit + 1, block_len):
        yield _prime_block(lo, min(lo + block_len, limit + 1), odd_base)


def _prime_block(lo: int, hi: int, odd_base: list[int]) -> np.ndarray:
    """The primes of [lo, hi) as an ascending int64 array, sieving only the
    odd numbers by the odd base primes; lo = 2 adds 2."""
    first = lo | 1  # mask[j] stands for the odd n = first + 2 j < hi
    mask = np.ones((hi - first + 1) // 2, dtype=bool)
    for p in odd_base:  # from p * p or the first odd multiple at or above lo
        start = p * max(p, (lo + p - 1) // p | 1)
        mask[(start - first) // 2 :: p] = False
    odd = np.flatnonzero(mask).astype(np.int64, copy=False)
    del mask
    # In place: a new array per step raised a run's peak RSS by 0.8 MB.
    odd *= 2
    odd += first
    return np.concatenate(([2], odd)) if lo == 2 else odd


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
