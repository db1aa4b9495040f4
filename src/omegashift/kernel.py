"""The sieve's segment pass and the histogram fold, compiled from kernel.c:
SegmentPass.fill and fold are their one way in, and check every argument.

The library is built on the first call, not at import: the C compiler of
sysconfig (CC, else cc) compiles kernel.c with FLAGS into the package's
__pycache__, under a name made from the SHA-256 of the source, the flags
and the compiler, so an edit or a new compiler gets a new file.  It is
written to a temporary file and moved into place with os.replace, and a
cached file that fails to load, or is removed before it loads, is rebuilt
once.  A build removes the other builds in that directory; a process that
has one loaded keeps it mapped.  ctypes releases the interpreter lock
during each call, so threads run the loops in parallel.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading

import numpy as np

# The one SHA-256 of the package (this library's name, the cache files, the
# report's digests and name): CPython's built-in module, _sha256 up to 3.11,
# _sha2 from 3.12, which gives hashlib's digests without loading OpenSSL's
# libcrypto, 3.6 MB of a run's peak RSS; hashlib only where neither is built.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
# -O2 leaves the byte copy-outs scalar.  -falign-loops=32 keeps fold's
# 20-byte counting loop inside one 64-byte line whatever code comes before
# it: crossing one, it took 1.7 instead of 1.15 ns per n (2-core Xeon).
FLAGS = ("-O3", "-falign-loops=32", "-shared", "-fPIC")
OMEGA_CAP = 16  # bins per axis of H: kernel.c's fold packs (k, v, u) as base-16 digits
FOLD_BINS = OMEGA_CAP**3

_LOCK = threading.Lock()


class KernelBuildError(OSError):
    """The C kernel could not be compiled or loaded."""


def _compiler() -> list[str]:
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def library_path() -> str:
    """Where the library built by the current source, flags and compiler lives."""
    with open(SOURCE, "rb") as fh:
        key = sha256(fh.read())
    key.update(repr((FLAGS, _compiler())).encode())
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
    lib.fill_segment.argtypes = [
        ptr, i64, i64, ptr, ptr, i64, ptr, i64, i64, ptr, ptr, i64, ptr, ptr, i64
    ]
    lib.fill_segment.restype = None
    lib.fold.argtypes = [ptr, ptr, ptr, i64, i64]
    lib.fold.restype = ctypes.c_int
    return lib


def library():
    """The loaded kernel, built first if needed; KernelBuildError if it cannot be."""
    with _LOCK:
        return _library()


def _check(arr: np.ndarray, dtype, name: str, written: bool = False) -> None:
    if arr.dtype != dtype or arr.ndim != 1 or not arr.flags.c_contiguous:
        raise TypeError(f"{name}: want a contiguous 1-d {np.dtype(dtype)} array")
    if written and not arr.flags.writeable:
        raise ValueError(f"{name}: the pass writes into it, but it is read-only")


_NO_BYTES = ctypes.c_char * 0  # a view of it fits in any buffer, even an empty one


def _address(arr: np.ndarray) -> int:
    """The address of a checked array's first byte.  A ctypes view of its
    buffer costs about 1 us; arr.ctypes.data, which only fold's read-only
    inputs take (fill refuses a read-only output), about 2.5 us."""
    try:
        return ctypes.addressof(_NO_BYTES.from_buffer(arr))
    except TypeError:  # a read-only buffer
        return arr.ctypes.data


class SegmentPass:
    """kernel.c's fill_segment over many segments, its pass-wide arguments
    checked, its pre-sieved starts built and their C pointers taken once,
    and kept alive by the pass.

    primes and steps are int64 arrays of the same length, every prime in
    [2, 2^20] and every step a multiple of 256 below 2^16 (it leaves the low
    byte alone).  starts[lead] holds the words of n = 0..period - 1 sieved
    by the lead leading primes, each p at its powers up to p^e, its largest
    power <= 16 (p itself above 16); period is the lcm of those p^e, and
    starts holds every lead whose period stays <= 2^16 words: 0..5, periods
    1, 16, 144, 720, 5040 and 55 440, when the primes start 2, 3, 5, 7, 11.

    fill sieves n = lo + j, j < len(om), in one pass over cell (uint16
    scratch).  cell starts as starts[lead][(lo + j) % period], the largest
    start the first split allows: lead = min(L, splits[0]), or L without
    splits, for L = len(starts) - 1.  Each prime p = primes[i] adds
    steps[i] + 1 at each multiple of p and steps[i] at each multiple of
    every power p^j < lo + len(om), but the lead primes only at their
    powers not dividing the period.  After primes[:splits[s]] the low byte
    is copied into osms[s].  Last, om gets the low byte, plus 1 where the
    word is below bounds[b], the cofactor test's threshold for the octave
    [2^b, 2^(b+1)) that holds n (see sieve.segment_pass); each bound is in
    [0, 2^16), and 0 adds nothing.  With bounds the segment must lie in
    [1, 2^len(bounds)); with none, om is the low byte alone and lo may be
    0.  lo + len(om) <= 2^40 + 1 keeps the powers in int64.  The order of
    kernel.c's adds does not change the words.
    """

    def __init__(self, primes, steps, bounds=()):
        _check(primes, np.int64, "primes")
        _check(steps, np.int64, "steps")
        if primes.size != steps.size:
            raise ValueError("primes and steps differ in length")
        if primes.size and not 2 <= primes[0] <= primes[-1] <= 1 << 20:
            raise ValueError("a base prime outside [2, 2^20]")
        # kernel.c adds large powers after copy-outs that count p.  A numpy
        # bitwise op here would page in ufunc code: 0.13 MB of a run's peak RSS.
        if any(step & ~0xFF00 for step in steps.tolist()):
            raise ValueError("a step outside the high byte of a word")
        if not all(0 <= bound < 1 << 16 for bound in bounds):
            raise ValueError("an octave bound outside a word")
        self.primes, self.steps, self.bounds = primes, steps, tuple(bounds)
        start = np.zeros(1, dtype=np.uint16)
        self.starts = [start]
        for p, step in zip(primes.tolist(), steps.tolist()):
            top = p
            while top * p <= 16:
                top *= p
            period = math.lcm(start.size, top)
            if period > 1 << 16:
                break
            start = np.tile(start, period // start.size)
            q, add = p, step + 1
            while q <= top:
                start[::q] += add
                q, add = q * p, step
            self.starts.append(start)
        for start in self.starts:
            start.flags.writeable = False
        self._args = (primes.ctypes.data, steps.ctypes.data, primes.size)
        self._start_args = [(start.ctypes.data, start.size, lead)
                            for lead, start in enumerate(self.starts)]

    def fill(self, cell, om, osms, lo, splits) -> None:
        """Sieve one segment with this pass's primes, steps, starts and bounds."""
        size = om.size
        hi = lo + size
        _check(cell, np.uint16, "cell", written=True)
        _check(om, np.uint8, "om", written=True)
        for osm in osms:
            _check(osm, np.uint8, "osm", written=True)
        if cell.size != size or any(osm.size != size for osm in osms):
            raise ValueError("cell, om and the osms differ in length")
        if not 0 <= lo <= hi <= (1 << 40) + 1:
            raise ValueError(f"segment [{lo}, {hi}) outside [0, 2^40]")
        if len(osms) != len(splits):
            raise ValueError(f"{len(osms)} osm arrays for {len(splits)} splits")
        count = self.primes.size
        if list(splits) != sorted(splits) or not all(0 <= s <= count for s in splits):
            raise ValueError(f"splits {list(splits)} not ascending within [0, {count}]")
        bits = ()
        if self.bounds:
            if lo < 1:
                raise ValueError(f"segment start {lo} below 1, the start of the octaves "
                                 f"its bounds tile")
            if (hi - 1).bit_length() > len(self.bounds):
                raise ValueError(f"segment end {hi} past 2^{len(self.bounds)}, the end of "
                                 f"the octaves its bounds tile")
            bits = range(lo.bit_length() - 1, (hi - 1).bit_length())
        # The osm pointers, the splits and (start, stop, bound) of each octave
        # meeting the segment, as offsets from lo, in one array held in a
        # local so it outlives the call that reads it.
        nosm = len(osms)
        octaves = [v for b in bits
                   for v in (max(1 << b, lo) - lo, min(2 << b, hi) - lo, self.bounds[b])]
        packed = np.array([*map(_address, osms), *splits, *octaves], dtype=np.int64)
        at = _address(packed)
        lead = min(len(self.starts) - 1, splits[0]) if splits else len(self.starts) - 1
        library().fill_segment(
            _address(cell), size, lo, *self._args, *self._start_args[lead],
            at, at + 8 * nosm, nosm, _address(om), at + 16 * nosm, len(octaves) // 3,
        )


def fold(om: np.ndarray, osm: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The counts H[k, v, u] of (om[i], om[i-1], osm[i-1]), start <= i < stop.

    Returns a new int64 array of shape (OMEGA_CAP,) * 3; a byte >= OMEGA_CAP
    raises ValueError.
    """
    _check(om, np.uint8, "om")
    _check(osm, np.uint8, "osm")
    if not (1 <= start <= stop <= om.size and stop - 1 <= osm.size):
        raise ValueError(f"fold range [{start}, {stop}) outside the arrays")
    H = np.zeros((OMEGA_CAP,) * 3, dtype=np.int64)
    if library().fold(_address(H), _address(om), _address(osm), start, stop):
        raise ValueError(f"a factor count >= {OMEGA_CAP}: the table is corrupt")
    return H
