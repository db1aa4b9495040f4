"""Segmented sieve for distinct-prime-factor counts.

One segment pass, planned once per table or grid by segment_pass, counts
for every n of a segment

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
its x.  What they leave of n, its cofactor c, is 1 or one prime above them
all (two would multiply past x_max), so it never counts toward omega(n, w),
and a byte of scaled logarithms decides "c > 1" exactly, with no division
(the argument is in segment_pass).  A pair with w = x takes
omega(n, w) = omega(n), n <= x, and adds no base prime.  Base primes stop
at 2^20, so SieveConfig rejects a w in [W_CEILING, x).

A segment is one call of the compiled pass (kernel.SegmentPass.fill, built
when the first pass is planned) in two phases.  Phase 1 walks the segment
in chunks of 8192 words (16 KB, inside any L1 data cache).  Each chunk
starts from a pre-sieve pattern that holds the leading base primes up to
the smallest w and their powers dividing its period: 2..11 and the period
55 440 = 2^4 3^2 5 7 11 when every w >= 11, fewer below (the pass builds
one start per count of primes).  It gains every other power below 8192 of the base primes below
2048, and each omega(n, w) with w below 2048 is copied out of it.  Phase 2
adds the remaining prime powers strided over the whole segment, copies the
other omega(n, w) out and applies the log test.  The order of the adds
does not change the words.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .primes import primes_up_to

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
    """Lower edge of the c = 1 band minus upper edge of the c > 1 band (see segment_pass)."""
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


def segment_pass(x_max: int, ws=()) -> kernel.SegmentPass:
    """The kernel.SegmentPass of [2, x_max] for the ascending thresholds ws,
    each below x_max, built once per table or grid, with the compiled kernel
    loaded: its base primes, their word steps L(p) << 8 with
    L(p) = floor(8 ln p), and the cofactor test's word bound for each
    octave.  The base primes are every prime up to max(sqrt(x_max), max ws),
    or up to x_max below LOG_TEST_MIN_X, where there are no bounds.

    Write n = s * c with s made of base primes: the cofactor c is 1 or one
    prime above them, so c > sqrt(x_max) and c > w for every w.  The high
    byte of n's word holds acc = sum over p^e || s of e*L(p), and
    8 ln p - 1 < L(p) <= 8 ln p gives 8 ln s - Omega(s) < acc <= 8 ln s.
    For n in the octave [a, 2a):
      c = 1:  s = n >= a and Omega(n) <= log2 x_max, so
              acc > 8 ln a - log2 x_max = A;
      c > 1:  s = n / c < 2a / sqrt(x_max), so
              acc < 8 ln(2a) - 4 ln x_max = B.
    A - B = 4 ln x_max - log2 x_max - 8 ln 2 exceeds 1 for every
    x_max >= 13, so the integer T nearest (A + B) / 2 has B < T < A, and
    c > 1 exactly when acc < T, that is when the word is below T << 8,
    whatever its low byte (T < 0 is raised to 0, which no word is below).
    The margin (A - B - 1) / 2 >= 0.007 dwarfs the float rounding in L(p)
    and T.  bounds[b] = T << 8 for a = 2^b, b < x_max.bit_length().  Where
    the base primes reach every prime <= x_max, every c is 1 and the test
    adds 0; below 13 they always do.
    """
    bounds = []
    if x_max < LOG_TEST_MIN_X:
        primes = primes_up_to(x_max)
    else:
        primes = primes_up_to(max([math.isqrt(x_max), *ws]))
        for b in range(x_max.bit_length()):
            a = 1 << b
            upper = LOG_SCALE * math.log(2 * a) - LOG_SCALE / 2 * math.log(x_max)  # B
            lower = LOG_SCALE * math.log(a) - math.log2(x_max)  # A
            bounds.append(max(round((lower + upper) / 2), 0) << 8)
    steps = [int(LOG_SCALE * math.log(p)) << 8 for p in primes.tolist()]
    plan = kernel.SegmentPass(primes, np.array(steps, dtype=np.int64), bounds)
    # Load the kernel now, in the calling thread and before any segment
    # buffer exists.  Loaded by whichever worker reaches it first, or with a
    # pass's buffers live, it raised peak RSS: by 0.1 MB for a 2-thread 1e8
    # table and by 1.1 MB for the reference run (2-core Xeon).
    kernel.library()
    return plan


def build_omega_table(config: SieveConfig) -> OmegaTable:
    """Build the omega/omega_small tables for config.

    Segments are independent and write disjoint slices, so the table is
    bit-identical for every segment_length and thread count.
    """
    x_max, w = config.x_max, config.w
    ws = (w,) if w < x_max else ()  # w = x_max: omega_small is omega
    omega = np.zeros(x_max + 1, dtype=np.uint8)
    omega_small = np.zeros(x_max + 1, dtype=np.uint8)
    plan = segment_pass(x_max, ws)
    splits = np.searchsorted(plan.primes, ws, side="right").tolist()

    def fill(spans):
        cell = np.empty(min(config.segment_length, x_max), dtype=np.uint16)
        for lo, hi in spans:
            plan.fill(cell[: hi - lo], omega[lo:hi], [omega_small[lo:hi]] * len(ws), lo, splits)

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
    plan = segment_pass(x_top, ws)
    split_of = dict(zip(ws, np.searchsorted(plan.primes, ws, side="right").tolist()))

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
            plan.fill(cell[: hi - lo + 1], om, list(us.values()), lo - 1,
                      [split_of[w] for w in live])
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
