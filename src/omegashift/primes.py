"""Prime generation and trial division shared by the sieve, the Euler
products, the generating-function layer and the verify battery."""

from __future__ import annotations

import numpy as np

FACTOR_LIMIT = 1 << 50


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def iter_prime_blocks(limit: int, block_len: int = 1 << 22):
    """Yield ascending int64 arrays of primes covering [2, limit].

    Segmented so working memory stays O(block_len + pi(sqrt(limit))); block
    boundaries are fixed by block_len alone, which keeps downstream
    block-ordered reductions deterministic.
    """
    if limit < 2:
        return
    base = primes_up_to(int(limit**0.5))
    for lo in range(2, limit + 1, block_len):
        hi = min(lo + block_len, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        if lo <= 1:
            mask[: 2 - lo] = False
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        yield (np.nonzero(mask)[0] + lo).astype(np.int64)


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
