"""The sieve's walk over a run of segments and the prime sums of a block,
the two functions kernel.c exports.  SegmentPass.fill and SegmentPass.tally
(one walk each) and prime_sums are their one way in, and check every
argument.  A walk is one C call for a worker's whole run of segments;
kernel.c's header describes it.

They take plain buffers and load no numpy: any writable 1-d C-contiguous
buffer of the right item size, checked through memoryview, as bytes ("B"),
uint16 words ("H") and int64 ("q" or "l"), say an array.array, a bytearray
or a numpy array.

The library is built on the first call, not at import: the C compiler of
sysconfig (CC, else cc) compiles kernel.c with FLAGS into the package's
__pycache__, which must then be writable, under a name made from the
SHA-256 of the source, the flags and the interpreter build, so an edit or
a new interpreter gets a new file.  It is written to a temporary file and
moved into place with os.replace, and a cached file that fails to load,
or is removed before it loads, is rebuilt once.  A build removes the
other builds in that directory; a process that has one loaded keeps it
mapped.  ctypes releases the interpreter lock during each call, so
threads run the walks in parallel.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
import sys
import threading

from .base import FOLD_BINS, OMEGA_CAP, sha256

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
# At -O2, GCC 12 leaves the byte copy-outs scalar.  -falign-loops=32 keeps
# the fold's 20-byte counting loop inside one 64-byte line whatever code
# comes before it: crossing one, it took 1.7 instead of 1.15 ns per n
# (2-core Xeon).
# -ffp-contract=off keeps each prime-sum term the rounded product that the
# tests' math.fsum oracle takes, and keeps a fused multiply-add from merging
# a term's product into its compensated add.
FLAGS = ("-O3", "-falign-loops=32", "-ffp-contract=off", "-shared", "-fPIC")
MAX_POWERS = 16  # the most power sums prime_sums takes at once
PAGED_BYTES = 1 << 20  # zeroed maps buffers of this size and above as fresh pages

_LOCK = threading.Lock()


class KernelBuildError(OSError):
    """The C kernel could not be compiled or loaded."""


def _compiler() -> list[str]:
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def library_path() -> str:
    """Where the library built by the current source and flags for this
    interpreter build lives.  The interpreter's version string and binary
    fix the sysconfig CC that _compiler reads, so a new compiler comes with
    a new name without loading sysconfig and shlex, 0.25-0.41 MB of peak
    RSS, in every process that loads a cached library.  The binary is named
    by its real path: python and python3 are links to one binary, and two
    names would rebuild the library in turn, each build removing the other."""
    with open(SOURCE, "rb") as fh:
        key = sha256(fh.read())
    key.update(repr((FLAGS, sys.version, os.path.realpath(sys.executable))).encode())
    return os.path.join(CACHE_DIR, f"omegashift_kernel_{key.hexdigest()[:16]}.so")


def _build(path: str) -> None:
    import glob
    import subprocess
    import tempfile

    os.makedirs(CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, suffix=".so.tmp")
    os.close(fd)
    try:
        argv = [*_compiler(), *FLAGS, "-o", tmp, SOURCE]
        try:
            done = subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(f"cannot run the C compiler {argv[0]!r}: {exc}") from exc
        if done.returncode != 0:
            raise KernelBuildError(
                f"compiling {SOURCE} failed ({' '.join(argv)}): {done.stderr.strip()}"
            )
        os.chmod(tmp, 0o755)  # mkstemp made it private to its creator
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for stale in glob.glob(os.path.join(CACHE_DIR, "omegashift_kernel_*.so")):
        if stale != path:
            try:
                os.remove(stale)
            except OSError:  # removed already, or not ours to remove: leave it
                pass


@functools.cache
def _library():
    path = library_path()
    if not os.path.exists(path):
        _build(path)
    try:
        lib = ctypes.CDLL(path)
    except OSError:  # a truncated or foreign file: rebuild it once
        _build(path)
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            raise KernelBuildError(f"cannot load the rebuilt {path}: {exc}") from exc
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.walk.argtypes = [
        ptr, i64, i64, i64, ptr, ptr, i64, ptr, i64, ptr, i64, ptr, ptr, ptr, i64, ptr, i64,
        ptr, i64, ptr
    ]
    lib.walk.restype = i64
    lib.prime_sums.argtypes = [i64, i64, ptr, i64, i64, i64, ptr]
    lib.prime_sums.restype = i64
    return lib


def library():
    """The loaded kernel, built first if needed; KernelBuildError if it cannot be."""
    with _LOCK:
        return _library()


def int64_buffer(values) -> memoryview:
    """values as a new writable int64 buffer."""
    return memoryview(bytearray(struct.pack(f"{len(values)}q", *values))).cast("q")


def zeroed(count: int, fmt: str) -> memoryview:
    """count zeroed items of the struct format fmt as a writable buffer.

    Below PAGED_BYTES they come from bytearray and struct, which every
    process that runs the kernel has loaded: the array module would add
    72 KB to its peak RSS.  From PAGED_BYTES on they are an anonymous mmap,
    whose pages the system zeroes as each is first written, in the thread
    that writes it: a bytearray zeroes every byte at once, in the calling
    thread, which cost a 2-thread table build of 10^8 bytes 0.04 s of wall
    time (2-core Xeon).
    """
    nbytes = count * struct.calcsize(fmt)
    if nbytes >= PAGED_BYTES:
        import mmap  # here, not in every process that runs the kernel

        return memoryview(mmap.mmap(-1, nbytes)).cast(fmt)
    return memoryview(bytearray(nbytes)).cast(fmt)


_BYTES, _WORDS, _INT64 = ("B",), ("H",), ("q", "l")  # memoryview formats, per item size
_SIZES = {"B": 1, "H": 2, "q": 8, "l": 8}


def _view(buf, formats, name: str) -> memoryview:
    """A memoryview of buf, checked to be 1-d, C-contiguous, of one of the
    formats at its item size, and writable: the kernel takes no read-only
    buffer, not even one it only reads."""
    view = memoryview(buf)
    if (view.format not in formats or view.itemsize != _SIZES[view.format]
            or view.ndim != 1 or not view.c_contiguous):
        raise TypeError(f"{name}: want a contiguous 1-d buffer of format {' or '.join(formats)}")
    if view.readonly:
        raise ValueError(f"{name}: read-only; the kernel takes writable buffers only")
    return view


_NO_BYTES = ctypes.c_char * 0  # a view of it fits in any buffer, even an empty one


def _address(view: memoryview) -> int:
    """The address of a checked buffer's first byte, by a ctypes view of it
    (about 1 us)."""
    return ctypes.addressof(_NO_BYTES.from_buffer(view))


def _top_power(p: int) -> int:
    """The largest power of p <= 16, or p itself above 16: the power up to
    which a start pre-sieves p."""
    top = p
    while top * p <= 16:
        top *= p
    return top


@functools.lru_cache(maxsize=8)
def _presieve_starts(leads: tuple[tuple[int, int], ...]):
    """(SegmentPass.starts, their addresses) of the leading (prime, step)
    pairs: each start a read-only uint16 view of a bytearray that the cache
    owns, and an int64 buffer of each start's address and length, as
    kernel.c reads them.  Built once per process for each lead set and
    shared by every pass that leads with it: 2, 3, 5, 7, 11 and their steps
    lead every pass with x_max >= 121, and building their starts takes
    about 6000 adds, 0.9 ms a pass (2-core Xeon)."""
    start = zeroed(1, "H")
    starts = [start]
    for p, step in leads:
        top = _top_power(p)
        period = math.lcm(len(start), top)
        start = memoryview(bytearray(start) * (period // len(start))).cast("H")
        q, add = p, step + 1
        while q <= top:
            for j in range(0, period, q):
                start[j] = (start[j] + add) & 0xFFFF  # a word wraps, as in kernel.c
            q, add = q * p, step
        starts.append(start)
    addresses = int64_buffer([v for start in starts for v in (_address(start), len(start))])
    return tuple(start.toreadonly() for start in starts), addresses


class SegmentPass:
    """kernel.c's walk over runs of segments, its pass-wide arguments
    checked, its pre-sieved starts built and their C pointers taken once,
    and kept alive by the pass.

    primes and steps are int64 buffers of the same length, every prime in
    [2, 2^20] and every step a multiple of 256 below 2^16 (it leaves the low
    byte alone).  starts[lead] holds the words of n = 0..period - 1 sieved
    by the lead leading primes, each p at its powers up to p^e, its largest
    power <= 16 (p itself above 16), as a read-only uint16 memoryview;
    period is the lcm of those p^e, and starts holds every lead whose
    period stays <= 2^16 words: 0..5, periods 1, 16, 144, 720, 5040 and
    55 440, 122 KB together, when the primes start 2, 3, 5, 7, 11.  Each
    start repeats the one before it and adds only the new prime's
    multiples; passes that lead with the same primes and steps share one
    tuple of starts.

    A walk sieves n in [lo, hi) in segments, each in one pass over the
    same uint16 scratch words.  A segment's words start as
    starts[lead][n % period], the largest start its first live split
    allows: lead = min(L, that split), or L without one, for
    L = len(starts) - 1, so a w below 11 leads with the primes up to w.
    Each prime p = primes[i] adds steps[i] + 1 at each multiple of p and
    steps[i] at each multiple of every power p^j < hi, but the lead primes
    only at their powers not dividing the period.  After primes[:splits[s]]
    the low byte is copied into osms[s].  Last, om gets the low byte, plus
    1 where the word is below bounds[b], the cofactor test's threshold for
    the octave [2^b, 2^(b+1)) that holds n (see sieve.segment_pass); each
    bound is in [0, 2^16), and 0 adds nothing.  With bounds the walk must
    lie in [1, 2^len(bounds)); with none, om is the low byte alone and lo
    may be 0.  hi <= 2^40 + 1 keeps the powers in int64.  The order of
    kernel.c's adds does not change the words, and the segment length
    changes no byte.
    """

    def __init__(self, primes, steps, bounds=()):
        prime_view, step_view = _view(primes, _INT64, "primes"), _view(steps, _INT64, "steps")
        if len(prime_view) != len(step_view):
            raise ValueError("primes and steps differ in length")
        if len(prime_view) and not 2 <= prime_view[0] <= prime_view[-1] <= 1 << 20:
            raise ValueError("a base prime outside [2, 2^20]")
        # kernel.c adds large powers after copy-outs that count p.
        if any(step & ~0xFF00 for step in step_view.tolist()):
            raise ValueError("a step outside the high byte of a word")
        if not all(0 <= bound < 1 << 16 for bound in bounds):
            raise ValueError("an octave bound outside a word")
        self.primes, self.steps, self.bounds = primes, steps, tuple(bounds)
        leads, period = [], 1
        for p, step in zip(prime_view, step_view):
            period = math.lcm(period, _top_power(p))
            if period > 1 << 16:
                break
            leads.append((p, step))
        self.starts, starts = _presieve_starts(tuple(leads))
        bounds = int64_buffer(self.bounds)
        # While held, no buffer can resize under kernel.c.
        self._views = (prime_view, step_view, starts, bounds)
        self._args = (_address(prime_view), _address(step_view), len(prime_view),
                      _address(starts), len(self.starts), _address(bounds), len(self.bounds))

    def fill(self, cell, om, osms, lo, splits) -> None:
        """Sieve n = lo + j, j < len(om), into om and osms, each osm after
        its split, in one walk of segments of len(cell) words."""
        cell = _view(cell, _WORDS, "cell")
        om = _view(om, _BYTES, "om")
        osms = [_view(osm, _BYTES, "osm") for osm in osms]
        if any(len(osm) != len(om) for osm in osms):
            raise ValueError("om and the osms differ in length")
        if len(om) and not len(cell):
            raise ValueError("cell: no words to sieve a segment in")
        hi = lo + len(om)
        self._walk(cell, lo, hi, om, osms, splits, [hi] * len(splits), carry=0)

    def tally(self, lo, hi, segment, splits, untils, ranges):
        """Fold each range's n of [lo, hi), 2 <= lo, into counts: one walk of
        segments of up to segment words over [lo - 1, hi) with an osm for
        each split, live in a segment that starts below its until.  Range
        r, (u, start, stop), counts the (k, v, u) of each n in
        [start, stop) of the walk, with k and v from om, the bytes of n
        and n - 1, and u from the osm of split u, or from om for u = -1,
        at counts[r * FOLD_BINS:(r + 1) * FOLD_BINS], in
        (k * OMEGA_CAP + v) * OMEGA_CAP + u: H[k, v, u] in C order.  A
        segment's bytes of n - 1 carry over from the segment before.
        Returns counts, an int64 buffer."""
        if lo < 2 or segment < 1:
            raise ValueError(f"a fold from {lo} in segments of {segment}: want 2 and 1 at least")
        if len(untils) != len(splits):
            raise ValueError(f"{len(untils)} untils for {len(splits)} splits")
        if not all(-1 <= u < len(splits) for u, _, _ in ranges):
            raise ValueError("a range folds the osm of no split")
        size = max(min(segment, hi - lo + 1), 0)
        cell = zeroed(size, "H")
        om, osms = zeroed(size + 1, "B"), [zeroed(size + 1, "B") for _ in splits]
        counts = zeroed(FOLD_BINS * len(ranges), "q")
        self._walk(cell, lo - 1, hi, om, osms, splits, untils, carry=1,
                   ranges=[v for range_ in ranges for v in range_], counts=counts)
        return counts

    def _walk(self, cell, lo, hi, om, osms, splits, untils, carry, ranges=(), counts=None):
        """Check the span and the splits, and run kernel.c's walk."""
        if not 0 <= lo <= hi <= (1 << 40) + 1:
            raise ValueError(f"segments over [{lo}, {hi}) outside [0, 2^40]")
        if len(osms) != len(splits):
            raise ValueError(f"{len(osms)} osm arrays for {len(splits)} splits")
        count = len(self._views[0])
        if list(splits) != sorted(splits) or not all(0 <= s <= count for s in splits):
            raise ValueError(f"splits {list(splits)} not ascending within [0, {count}]")
        if self.bounds and lo < hi:
            if lo < 1:
                raise ValueError(f"segment start {lo} below 1, the start of the octaves "
                                 f"its bounds tile")
            if (hi - 1).bit_length() > len(self.bounds):
                raise ValueError(f"segment end {hi} past 2^{len(self.bounds)}, the end of "
                                 f"the octaves its bounds tile")
        # The osm pointers, the splits, their untils and the ranges in one
        # array held in a local, so that it outlives the call that reads it.
        nosm = len(osms)
        packed = int64_buffer([*map(_address, osms), *splits, *untils, *ranges])
        at = _address(packed)
        err = library().walk(
            _address(cell), len(cell), lo, hi, *self._args, at, at + 8 * nosm,
            at + 16 * nosm, nosm, _address(om), carry, at + 24 * nosm, len(ranges) // 3,
            _address(counts) if counts is not None else None,
        )
        if err == -1:
            raise ValueError(f"a factor count >= {OMEGA_CAP} in [{lo}, {hi}): the sieve is corrupt")
        if err:
            raise MemoryError(f"no memory to walk [{lo}, {hi})")


def prime_sums(lo: int, hi: int, odd_base, above: int, powers: int):
    """(count, p^-2 pair, (S_2 pair, ..., S_{powers+1} pair)) over the primes
    p of [lo, hi): their count, and (sum, compensation) pairs, one of p^-2
    over all of them and one of each S_j = sum of p^-j over those above
    `above`, from one C sieve of the block.  A pair's two floats add up to
    the sum; math.fsum of the pairs of adjacent blocks joins them.  odd_base
    is an int64 buffer that must hold every odd prime up to sqrt(hi - 1),
    and may hold more.  An empty sum is (0.0, 0.0).
    """
    base = _view(odd_base, _INT64, "odd_base")
    if not 2 <= lo <= hi <= 1 << 53:
        raise ValueError(f"block [{lo}, {hi}) outside [2, 2^53]")
    if len(base) and not 3 <= min(base) <= max(base) <= 1 << 26:
        raise ValueError("an odd base prime outside [3, 2^26]")
    if not 0 <= powers <= MAX_POWERS:
        raise ValueError(f"powers={powers} outside [0, {MAX_POWERS}]")
    out = zeroed(2 + 2 * powers, "d")
    count = library().prime_sums(lo, hi, _address(base), len(base), above, powers,
                                 _address(out))
    if count < 0:
        raise MemoryError(f"no memory to sieve the block [{lo}, {hi})")
    pairs = [tuple(out[i : i + 2]) for i in range(0, len(out), 2)]
    return count, pairs[0], tuple(pairs[1:])
