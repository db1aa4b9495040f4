"""Segmented sieve for distinct-prime-factor counts.

One segment kernel, _fill_segment, counts for every n of a segment

    omega(n)    = number of distinct primes dividing n
    omega(n, w) = number of distinct primes p <= w dividing n

for one or several thresholds w.  Two producers run it over [2, x_max]:
build_omega_table with one w, keeping the result as two byte tables, omega
and omega_small, indexed by n (omegashift sieve, tests, small verify
tables); and grid_histograms over a grid's whole range with every w of the
grid, folding each segment into the level histograms H (see stats) and
keeping no table.  Both hand their segments to worker threads through one
helper, _map_segments; at most MAX_THREADS of them.

Each segment sieves every prime up to sqrt(x_max) and up to each w below
its x (base_primes).  What they leave of n, its cofactor c, is 1 or one
prime above them all (two would multiply past x_max), so it never counts
toward omega(n, w), and a byte of scaled logarithms decides "c > 1"
exactly, with no division (the argument is in _fill_segment).  A pair
with w = x takes omega(n, w) = omega(n), n <= x, and adds no base prime.
Base primes stop at 2^20, so SieveConfig rejects a w in [W_CEILING, x).

A segment is one compiled pass (kernel.SegmentPass.fill, built on the
first call) in two phases.  Phase 1 walks the segment in chunks of 8192 words
(16 KB, inside any L1 data cache).  Each chunk starts from a pre-sieve
pattern that holds the leading base primes up to the smallest w and their
powers dividing its period: 2..11 and the period 55 440 = 2^4 3^2 5 7 11
when every w >= 11, fewer below (the pass builds one start per count of
primes).  It gains every other power below 8192 of the base primes below
2048, and each omega(n, w) with w below 2048 is copied out of it.  Phase 2
adds the remaining prime powers strided over the whole segment, copies the
other omega(n, w) out and applies the log test.  The order of the adds
does not change the words.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .primes import factorize, primes_up_to

X_MAX_CEILING = 1 << 40
DEFAULT_SEGMENT = 1 << 18  # 512 KB of words: 2^17..2^21 time alike, and larger ones cost memory
LOG_SCALE = 8  # prime p adds floor(LOG_SCALE * ln p) to the log accumulator
LOG_TEST_MIN_X = 13  # smallest x_max whose log test separates by a unit; below, sieve all p
W_CEILING = 1_048_583  # smallest prime above kernel.SegmentPass's 2^20 base-prime ceiling
MAX_THREADS = 256  # each worker thread holds a segment's buffers


def _max_omega(limit: int) -> int:
    """Largest omega(n) over n <= limit: how many leading primes multiply to <= limit."""
    count, product = 0, 1
    for p in primes_up_to(100).tolist():
        if product * p > limit:
            break
        count, product = count + 1, product * p
    return count


def _log_gap(x_max: int) -> float:
    """Lower edge of the c = 1 band minus upper edge of the c > 1 band (see _fill_segment)."""
    return LOG_SCALE / 2 * math.log(x_max) - math.log2(x_max) - LOG_SCALE * math.log(2)


MAX_OMEGA = _max_omega(X_MAX_CEILING)  # 11: 2*3*...*31 <= 2^40 < 2*3*...*37

# Fixed-width guards for the segment's uint16 words: the low byte counts
# distinct primes and the high byte accumulates scaled logs; neither may carry.
# Every omega(n) and omega(n, w) must also be an index of H and a fold digit.
if MAX_OMEGA >= min(kernel.OMEGA_CAP, 256):
    raise RuntimeError(f"omega can reach {MAX_OMEGA}: outside H's bins or the count byte")
if LOG_SCALE * math.log(X_MAX_CEILING) >= 256:
    raise RuntimeError("scaled log of X_MAX_CEILING does not fit the accumulator byte")
if _log_gap(LOG_TEST_MIN_X) <= 1:
    raise RuntimeError("log test does not separate its bands at LOG_TEST_MIN_X")


@dataclass(frozen=True)
class SieveConfig:
    """Parameters of one table build.

    x_max : largest argument tabulated (inclusive), 2 <= x_max <= 2**40
    w     : small-prime threshold for omega_small, 2 <= w <= x_max, and
        below W_CEILING unless w = x_max (the base primes reach w < x_max)
    segment_length : numbers processed per segment; any value >= 1024
        produces the identical table, it only trades memory for call overhead
    threads : worker threads mapped over segments, 1 <= threads <= MAX_THREADS
        (disjoint output slices, so the result is independent of the count)
    """

    x_max: int
    w: int
    segment_length: int = DEFAULT_SEGMENT
    threads: int = 1

    def __post_init__(self):
        if not (2 <= self.x_max <= X_MAX_CEILING):
            raise ValueError(f"x_max={self.x_max} outside [2, 2^40]")
        if not (2 <= self.w <= self.x_max):
            raise ValueError(f"w={self.w} outside [2, x_max]")
        if W_CEILING <= self.w < self.x_max:
            raise ValueError(f"w={self.w} < x={self.x_max} needs base primes above 2^20 "
                             f"(w >= W_CEILING = {W_CEILING}, the first prime above 2^20)")
        if self.segment_length < 1024:
            raise ValueError("segment_length < 1024")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads={self.threads} outside [1, {MAX_THREADS}]")


@dataclass
class OmegaTable:
    """Byte tables of factor counts, indexed directly by n (entries 0,1 unused)."""

    x_max: int
    w: int
    omega: np.ndarray = field(repr=False)
    omega_small: np.ndarray = field(repr=False)

    def __eq__(self, other):
        return (
            isinstance(other, OmegaTable)
            and self.x_max == other.x_max
            and self.w == other.w
            and np.array_equal(self.omega, other.omega)
            and np.array_equal(self.omega_small, other.omega_small)
        )


def _octave_bounds(lo, hi, x_max):
    """(start, stop, T << 8) for each octave [a, 2a) meeting [lo, hi), offsets from lo.

    A word is below T << 8 iff its high byte is below T, whatever its low
    byte; T < 0 is raised to 0, which no word is below either.
    """
    a = 1 << (lo.bit_length() - 1)
    while a < hi:
        upper = LOG_SCALE * math.log(2 * a) - LOG_SCALE / 2 * math.log(x_max)  # B
        lower = LOG_SCALE * math.log(a) - math.log2(x_max)  # A
        yield max(a, lo) - lo, min(2 * a, hi) - lo, max(round((lower + upper) / 2), 0) << 8
        a *= 2


def _fill_segment(om, osms, cell, segment_pass, lo, ws, x_max):
    """Count prime divisors for n in [lo, lo + len(om)) into om and, for
    each w of the ascending tuple ws, omega(n, w) into the matching osms array.

    One uint16 word per n, in one compiled pass, segment_pass =
    kernel.SegmentPass(*base_primes(x_max, ws)): the primes up to
    max(sqrt(x_max), max ws), ascending, with their steps L(p) << 8.  Each p
    adds 1 to the low byte at its multiples, and L(p) = floor(8 ln p) to the
    high byte at the multiples of every power p^j < hi.  The primes ascend,
    so after the primes p <= w the low byte is omega(n, w); it is copied out
    for each w in turn, and the primes above the last w are then added on
    top to give omega without the cofactor.  Neither byte carries:
    the low byte is at most MAX_OMEGA = 11, and the high byte at most
    8 ln n <= 8 ln 2^40 < 222.

    Pre-sieve.  The words start from the pass's pre-sieved pattern of the
    leading base primes p <= ws[0], at most 2, 3, 5, 7, 11 (period 55 440),
    down to one zero word.  It holds their powers dividing its period (4, 8,
    16, 9 with all five), so only their higher powers and the later primes
    are added: the powers below 8192 of the primes below 2048 chunk by
    chunk, the rest strided over the whole segment (phases 1 and 2 of the
    module docstring).

    Write n = s * c with s made of base primes: the cofactor c is 1 or one
    prime above them, so c > sqrt(x_max) and c > w for every w.  When the
    base primes reach every prime <= x_max, c = 1 and om is the low byte.
    Otherwise x_max >= 13 and the high byte holds
    acc = sum over p^e || s of e*L(p), and 8 ln p - 1 < L(p) <= 8 ln p gives
    8 ln s - Omega(s) < acc <= 8 ln s.  For n in the octave [a, 2a):
      c = 1:  s = n >= a and Omega(n) <= log2 x_max, so
              acc > 8 ln a - log2 x_max = A;
      c > 1:  s = n / c < 2a / sqrt(x_max), so
              acc < 8 ln(2a) - 4 ln x_max = B.
    A - B = 4 ln x_max - log2 x_max - 8 ln 2 exceeds 1 for every
    x_max >= 13, so the integer T nearest (A + B) / 2 has B < T < A, and
    c > 1 exactly when acc < T.  The margin (A - B - 1) / 2 >= 0.007 dwarfs
    the float rounding in L(p) and T.  The kernel adds that test to om,
    octave by octave, with the thresholds of _octave_bounds.  A pass short
    of a prime of base_primes(x_max, ws) <= x_max is refused before any C call.

    cell is uint16 scratch of at least len(om) words; its first len(om)
    are overwritten whatever they hold.
    """
    primes = segment_pass.primes
    unsieved = _prime_after(int(primes[-1]) if primes.size else 1)  # the least c > 1
    if unsieved <= min(_sieve_bound(x_max, ws), x_max):
        raise ValueError(f"the base primes stop short of {unsieved}, which x_max = {x_max} "
                         f"and ws = {ws} need sieved (see base_primes)")
    splits = np.searchsorted(primes, ws, side="right").tolist()
    octaves = list(_octave_bounds(lo, lo + om.size, x_max)) if unsieved <= x_max else ()
    segment_pass.fill(cell[: om.size], om, osms, lo, splits, octaves)


@functools.lru_cache(maxsize=None)
def _prime_after(p: int) -> int:
    """The smallest prime above p, by trial division (cached: once per pass)."""
    return next(q for q in itertools.count(p + 1) if factorize(q) == [(q, 1)])


def _sieve_bound(x_max: int, ws) -> int:
    return x_max if x_max < LOG_TEST_MIN_X else max([math.isqrt(x_max), *ws])


def base_primes(x_max: int, ws=()) -> tuple[np.ndarray, np.ndarray]:
    """The sieving primes of [2, x_max] for the thresholds ws, each below its
    x, and their word steps L(p) << 8 (see _fill_segment), both int64: every
    prime up to max(sqrt(x_max), max ws), or up to x_max below LOG_TEST_MIN_X."""
    primes = primes_up_to(_sieve_bound(x_max, ws))
    steps = [int(LOG_SCALE * math.log(p)) << 8 for p in primes.tolist()]
    return primes, np.array(steps, dtype=np.int64)


def build_omega_table(config: SieveConfig) -> OmegaTable:
    """Build the omega/omega_small tables for config.

    Segments are independent and write disjoint slices, so the table is
    bit-identical for every segment_length and thread count.
    """
    x_max, w = config.x_max, config.w
    ws = (w,) if w < x_max else ()  # w = x_max: omega_small is omega
    omega = np.zeros(x_max + 1, dtype=np.uint8)
    omega_small = np.zeros(x_max + 1, dtype=np.uint8)
    segment_pass = kernel.SegmentPass(*base_primes(x_max, ws))

    def fill(spans):
        cell = np.empty(min(config.segment_length, x_max), dtype=np.uint16)
        for lo, hi in spans:
            osms = [omega_small[lo:hi]] * len(ws)
            _fill_segment(omega[lo:hi], osms, cell, segment_pass, lo, ws, x_max)

    _map_segments(fill, x_max, config.segment_length, config.threads)
    if not ws:
        omega_small[:] = omega
    return OmegaTable(x_max=x_max, w=w, omega=omega, omega_small=omega_small)


def grid_histograms(
    pairs, threads: int = 1, segment_length: int = DEFAULT_SEGMENT
) -> dict[tuple[int, int], np.ndarray]:
    """{(x, w): H} for each distinct pair, from one sieve pass over [2, max x].

    No table is built.  Each segment [lo, hi) sieves [lo - 1, hi), so it
    holds omega(n - 1) of its first n (omega(1) = 0), copies omega(n, w) out
    once per distinct w < x that some x >= lo still needs (a pair with
    w = x reads omega itself), and folds the n in [lo, min(hi, x + 1)) into
    the partial H of every pair with kernel.fold.  Pairs that share a u
    share one running fold.  Segments are independent and partial
    histograms add as exact integers, so H is identical for every
    segment_length and thread count; working memory is O(segment) per worker.
    """
    pairs = sorted(set(pairs))
    if not pairs:
        raise ValueError("no (x, w) pairs")
    for x, w in pairs:
        SieveConfig(x_max=x, w=w, segment_length=segment_length, threads=threads)
    x_top = pairs[-1][0]
    xs_by_u = {}  # the ascending xs folding each u: omega(n - 1, w) for w < x, None for w = x
    for x, w in pairs:
        xs_by_u.setdefault(w if w < x else None, []).append(x)
    ws = sorted(w for w in xs_by_u if w is not None)
    segment_pass = kernel.SegmentPass(*base_primes(x_top, ws))

    def sieve_spans(spans):
        """Summed partial histograms of spans, in buffers reused across them."""
        size = min(segment_length, x_top) + 1
        om_buf = np.empty(size, dtype=np.uint8)  # position i holds n = lo - 1 + i
        osm_bufs = {w: np.empty(size, dtype=np.uint8) for w in ws}
        cell = np.empty(size, dtype=np.uint16)
        totals = {pair: np.zeros((kernel.OMEGA_CAP,) * 3, dtype=np.int64) for pair in pairs}
        for lo, hi in spans:
            live = tuple(w for w in ws if xs_by_u[w][-1] >= lo)
            om = om_buf[: hi - lo + 1]
            us = {w: osm_bufs[w][: hi - lo + 1] for w in live}
            _fill_segment(om, list(us.values()), cell, segment_pass, lo - 1, live, x_top)
            us[None] = om
            for w, u in us.items():
                running, start = 0, 1
                for x in xs_by_u.get(w, ()):
                    if x >= lo:
                        stop = min(x + 1, hi) - (lo - 1)
                        running = running + kernel.fold(om, u, start, stop)
                        totals[x, x if w is None else w] += running
                        start = stop
        return totals

    parts = _map_segments(sieve_spans, x_top, segment_length, threads)
    return {pair: sum(part[pair] for part in parts) for pair in pairs}


def _map_segments(work, x_max, segment_length, threads):
    """Cut [2, x_max] into [lo, hi) segments of segment_length and give each of
    min(threads, segments) workers every workers-th of them: [work(spans), ...]
    in worker order.  Each worker runs its spans in ascending order; the first
    runs in the calling thread, the others in threads of their own.  A worker's
    exception is raised here once every worker has ended, the first worker's first.

    Plain threads: concurrent.futures would load logging with it, 0.65 MB of
    a process's peak RSS.
    """
    los = range(2, x_max + 1, segment_length)
    workers = min(threads, len(los))
    parts = [  # lazy: near 2^40 a list of every span would take about 0.5 GB
        ((lo, min(lo + segment_length, x_max + 1)) for lo in los[i::workers])
        for i in range(workers)
    ]
    outcomes = [None] * workers  # (result, exception) of each worker

    def run(i):
        try:
            outcomes[i] = (work(parts[i]), None)
        except BaseException as exc:  # raised again in the calling thread
            outcomes[i] = (None, exc)

    others = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for thread in others:
        thread.start()
    run(0)
    for thread in others:
        thread.join()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]
