"""What the layers share: the level histogram's shape and layout, the package's
SHA-256, the one prime sieve in plain Python, the sieve's parameter checks,
verify's scales and the _make of a record that checks its fields.

Every record of the package is a collections.namedtuple subclass with
__slots__ = (): immutable, equal and hashed by value, and built without
the dataclasses module, which would load inspect, ast and dis into every
process, about 1 MB of peak RSS on CPython 3.11.

A warm run reads each H from its cache and computes every report row from
it; this module holds what that path needs of the sieve, the kernel and
verify, so that it loads none of them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

# The one SHA-256 of the package (the kernel library's name, the cache files,
# the report's digests and name): CPython's built-in module, _sha256 up to
# 3.11, _sha2 from 3.12, which gives hashlib's digests without loading
# OpenSSL's libcrypto, 3.6 MB of a run's peak RSS; hashlib only where
# neither is built.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

OMEGA_CAP = 16  # bins per axis of H: kernel.c's fold packs (k, v, u) as base-16 digits
FOLD_BINS = OMEGA_CAP**3

X_MAX_CEILING = 1 << 40
DEFAULT_SEGMENT = 1 << 16  # the shortest default segment, in words (see default_segment)
W_CEILING = 1_048_583  # smallest prime above kernel.SegmentPass's 2^20 base-prime ceiling
# Each worker thread holds one segment's buffers, 0.2 MB for a table and
# 0.45 MB for a grid with four w in 2^16-word segments, a 24-byte record
# per base-prime power and, in a grid, 48 KB of counts per pair.
MAX_THREADS = 256

FULL_SCALES = (100_000, 1_000_000, 10_000_000, 100_000_000)  # verify's full battery's x


def nested_histogram(flat) -> list[list[list[int]]]:
    """H[k][v][u] as nested lists of ints from its FOLD_BINS counts in C
    order, at (k * OMEGA_CAP + v) * OMEGA_CAP + u, as kernel.c's fold and
    the cache files lay it out."""
    n = OMEGA_CAP
    return [[list(flat[i : i + n]) for i in range(j, j + n * n, n)]
            for j in range(0, FOLD_BINS, n * n)]


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending: a sieve of Eratosthenes on a bytearray.
    The base primes of the sieve's passes and of the prime sums, and the
    Euler products' head primes, all come from here."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), sieve))


def default_segment(x_max: int) -> int:
    """The segment length of a pass over [2, x_max] not given one: 2^k for
    the k bits of 4 sqrt(x_max), within [DEFAULT_SEGMENT, 2^18]; 2^16 up to
    x_max = 2^28 - 1, 2^18 from 2^30.

    The length trades a worker's memory against its visits to the base
    primes.  A worker holds one segment's buffers, which grow with it (see
    MAX_THREADS).  Each segment visits every base-prime power, about
    2 pi(sqrt(x_max)) of them, at a fixed cost per visit (kernel.c's
    header), so a segment growing with sqrt(x_max) keeps those visits a
    small share of its work: on one 2-core Xeon thread a grid walk near
    1e10 took 2.83 ns per n in 2^16-word segments and 2.47 in 2^18, and
    near 1e8 1.96 and 2.26."""
    return 1 << min(max((4 * math.isqrt(x_max)).bit_length(), 16), 18)


def checked_make(cls, iterable):
    """_make of a record that checks its fields in __new__: namedtuple's
    _replace builds through _make, which would skip them."""
    return cls(*iterable)


class SieveConfig(namedtuple("SieveConfig", "x_max w segment_length threads",
                             defaults=(None, 1))):
    """Parameters of one table build.

    x_max : largest argument tabulated (inclusive), 2 <= x_max <= 2**40
    w     : small-prime threshold for omega_small, 2 <= w <= x_max, and
        below W_CEILING unless w = x_max (the base primes reach w < x_max)
    segment_length : numbers processed per segment, default_segment(x_max)
        if None; any value >= 1024 produces the identical table
    threads : worker threads mapped over segments, 1 <= threads <= MAX_THREADS
        (disjoint output slices, so the result is independent of the count)
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (2 <= self.x_max <= X_MAX_CEILING):
            raise ValueError(f"x_max={self.x_max} outside [2, 2^40]")
        if not (2 <= self.w <= self.x_max):
            raise ValueError(f"w={self.w} outside [2, x_max]")
        if W_CEILING <= self.w < self.x_max:
            raise ValueError(f"w={self.w} < x={self.x_max} needs base primes above 2^20 "
                             f"(w >= W_CEILING = {W_CEILING}, the first prime above 2^20)")
        if self.segment_length is not None and self.segment_length < 1024:
            raise ValueError("segment_length < 1024")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads={self.threads} outside [1, {MAX_THREADS}]")
        return self

    _make = classmethod(checked_make)
