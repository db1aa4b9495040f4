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
keeping no table.  Both cut [2, x_max] into segments through one helper,
_map_segments, which gives each worker thread, at most MAX_THREADS of
them, one contiguous run of segments.

Each segment sieves every prime up to sqrt(x_max) and up to each w below
its x.  What they leave of n, its cofactor c, is 1 or one prime above them
all (two would multiply past x_max), so it never counts toward omega(n, w),
and a byte of scaled logarithms decides "c > 1" exactly, with no division
(the argument is in segment_pass).  A pair with w = x takes
omega(n, w) = omega(n), n <= x, and adds no base prime.  Base primes stop
at 2^20, so SieveConfig rejects a w in [W_CEILING, x).

A worker's run is one call of kernel.c's walk, whose header describes it
(kernel.SegmentPass.fill for a table, SegmentPass.tally for a grid; the
kernel is built when the first pass is planned), in segments of
base.default_segment(x_max) numbers unless the caller gives a length.

The base primes come from base.primes_up_to, build_omega_table's tables are
plain buffers from kernel.zeroed, and grid_histograms keeps its segments in
such buffers and returns nested ints.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_right
from collections import namedtuple

from . import kernel
from .base import (
    FOLD_BINS,
    MAX_THREADS,
    OMEGA_CAP,
    W_CEILING,
    X_MAX_CEILING,
    SieveConfig,
    default_segment,
    primes_up_to,
)

LOG_SCALE = 8  # prime p adds floor(LOG_SCALE * ln p) to the log accumulator
LOG_TEST_MIN_X = 13  # smallest x_max whose log test separates by a unit; below, sieve all p


def _max_omega(limit: int) -> int:
    """Largest omega(n) over n <= limit: how many leading primes multiply to <= limit."""
    count, product = 0, 1
    for p in primes_up_to(100):
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


class OmegaTable(namedtuple("OmegaTable", "x_max w omega omega_small")):
    """Byte tables of factor counts, indexed directly by n (entries 0,1 unused),
    as writable memoryviews of format "B" of x_max + 1 bytes from
    kernel.zeroed.  At w = x_max, omega_small is omega, one buffer.
    Tables are equal when x_max, w and both tables' bytes are (memoryviews
    compare by content); the repr leaves the tables out."""

    __slots__ = ()

    def __repr__(self):
        return f"OmegaTable(x_max={self.x_max!r}, w={self.w!r})"


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
    steps = [int(LOG_SCALE * math.log(p)) << 8 for p in primes]
    plan = kernel.SegmentPass(kernel.int64_buffer(primes), kernel.int64_buffer(steps), bounds)
    # Load the kernel now, in the calling thread and before any segment
    # buffer exists.  Loaded by whichever worker reaches it first, or with a
    # pass's buffers live, it raised peak RSS: by 0.1 MB for a 2-thread 1e8
    # table and by 1.1 MB for the reference run (2-core Xeon).
    kernel.library()
    return plan


def build_omega_table(config: SieveConfig) -> OmegaTable:
    """Build the omega/omega_small tables for config.

    Each worker walks its run of segments straight into its slices of the
    tables, so the table is bit-identical for every segment_length and
    thread count.
    """
    x_max, w = config.x_max, config.w
    ws = (w,) if w < x_max else ()  # w = x_max: omega_small is omega
    omega = kernel.zeroed(x_max + 1, "B")
    omega_small = kernel.zeroed(x_max + 1, "B") if ws else omega
    plan = segment_pass(x_max, ws)
    splits = [bisect_right(plan.primes, w) for w in ws]

    segment = config.segment_length or default_segment(x_max)

    def fill(lo, hi):
        cell = kernel.zeroed(min(segment, hi - lo), "H")
        plan.fill(cell, omega[lo:hi], [omega_small[lo:hi]] * len(ws), lo, splits)

    _map_segments(fill, x_max, segment, config.threads)
    return OmegaTable(x_max=x_max, w=w, omega=omega, omega_small=omega_small)


def grid_histograms(
    pairs, threads: int = 1, segment_length: int | None = None
) -> dict[tuple[int, int], list[list[list[int]]]]:
    """{(x, w): H} for each distinct pair, from one sieve pass over [2, max x];
    each H is nested lists of ints, H[k][v][u], as experiment.load_histogram
    returns it.

    No table is built.  Each worker's walk (kernel.SegmentPass.tally)
    sieves [lo - 1, hi) for its n in [lo, hi), carrying omega(n - 1) of a
    segment's first n from the segment before; it copies omega(n, w) out
    once per distinct w < x that some x >= lo still needs (a pair with
    w = x reads omega itself), and folds each pair's range into counts of
    its own.  Pairs that share a u fold disjoint ranges: each x its n above
    the x before it, and their counts are summed in order of x once, at
    the end.  Counts add as exact integers, so H is identical for every
    segment_length (base.default_segment(max x) if None) and thread count;
    working memory is O(segment) per worker, in plain buffers.
    """
    pairs = sorted(set(pairs))
    if not pairs:
        raise ValueError("no (x, w) pairs")
    for x, w in pairs:
        SieveConfig(x_max=x, w=w, segment_length=segment_length, threads=threads)
    x_top = pairs[-1][0]
    segment_length = segment_length or default_segment(x_top)
    xs_by_u = {}  # the ascending xs folding each u: omega(n - 1, w) for w < x, None for w = x
    for x, w in pairs:
        xs_by_u.setdefault(w if w < x else None, []).append(x)
    ws = sorted(w for w in xs_by_u if w is not None)
    plan = segment_pass(x_top, ws)
    splits = [bisect_right(plan.primes, w) for w in ws]
    untils = [xs_by_u[w][-1] for w in ws]  # omega(n - 1, w) is needed for n - 1 < max x
    ranges = []  # (u, start, stop) of each pair, in the order of xs_by_u
    for u, xs in xs_by_u.items():
        for x, start in zip(xs, [2, *(x + 1 for x in xs)]):
            ranges.append((-1 if u is None else ws.index(u), start, x + 1))

    parts = _map_segments(
        lambda lo, hi: plan.tally(lo, hi, segment_length, splits, untils, ranges),
        x_top, segment_length, threads,
    )
    hists, r = {}, 0
    for u, xs in xs_by_u.items():
        flat = [0] * FOLD_BINS
        for x in xs:  # each x adds its own range to the counts of the xs below it
            for part in parts:
                flat = list(map(operator.add, flat, part[r * FOLD_BINS : (r + 1) * FOLD_BINS]))
            hists[x, x if u is None else u] = [
                [flat[i : i + OMEGA_CAP] for i in range(j, j + OMEGA_CAP**2, OMEGA_CAP)]
                for j in range(0, FOLD_BINS, OMEGA_CAP**2)]
            r += 1
    return {pair: hists[pair] for pair in pairs}


def _map_segments(work, x_max, segment_length, threads):
    """Cut [2, x_max] into segments of segment_length and give each of
    min(threads, segments) workers one contiguous run of them, the first
    workers one segment more where they do not divide evenly:
    [work(lo, hi), ...] for each worker's run [lo, hi), in worker order.
    The first runs in the calling thread, the others in threads of their
    own.  A worker's exception is raised here once every worker has ended,
    the first worker's first.

    Plain threads: concurrent.futures would load logging with it, 0.65 MB of
    a process's peak RSS.
    """
    count = -(-(x_max - 1) // segment_length)  # segments of [2, x_max]
    workers = min(threads, count)
    share, extra = divmod(count, workers)
    cuts = [min(2 + segment_length * (i * share + min(i, extra)), x_max + 1)
            for i in range(workers + 1)]
    outcomes = [None] * workers  # (result, exception) of each worker

    def run(i):
        try:
            outcomes[i] = (work(cuts[i], cuts[i + 1]), None)
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
