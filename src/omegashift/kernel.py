"""The sieve's strided adds and the histogram fold, compiled from kernel.c.

The library is built on the first call, not at import: the C compiler of
sysconfig (CC, else cc) compiles kernel.c with FLAGS into the package's
__pycache__, under a name made from the SHA-256 of the source, the flags
and the compiler, so an edit or a new compiler gets a new file.  It is
written to a temporary file and moved into place with os.replace, and a
cached file that fails to load is rebuilt once.  ctypes releases the
interpreter lock during each call, so threads run the loops in parallel.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
FLAGS = ("-O2", "-shared", "-fPIC")
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
        key = hashlib.sha256(fh.read())
    key.update(repr((FLAGS, _compiler())).encode())
    return os.path.join(CACHE_DIR, f"omegashift_kernel_{key.hexdigest()[:16]}.so")


def _build(path: str) -> None:
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


@functools.cache
def _library():
    import ctypes

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
    lib.sieve_words.argtypes = [ptr, i64, i64, ptr, ptr, i64]
    lib.sieve_words.restype = None
    lib.fold.argtypes = [ptr, ptr, ptr, i64, i64]
    lib.fold.restype = ctypes.c_int
    return lib


def library():
    """The loaded kernel, built first if needed; KernelBuildError if it cannot be."""
    with _LOCK:
        return _library()


def _check(arr: np.ndarray, dtype, name: str) -> None:
    if arr.dtype != dtype or arr.ndim != 1 or not arr.flags.c_contiguous:
        raise TypeError(f"{name}: want a contiguous 1-d {np.dtype(dtype)} array")


def sieve_words(cell: np.ndarray, lo: int, primes: np.ndarray, steps: np.ndarray) -> None:
    """Add steps[i] + 1 at each multiple of p = primes[i] among n = lo + j,
    j < len(cell), and steps[i] at each multiple of every p^j < lo + len(cell).

    cell is uint16 and written in place.  Every prime must be at most 2^20
    and lo + len(cell) at most 2^40 + 1, which keeps the powers in int64.
    """
    _check(cell, np.uint16, "cell")
    _check(primes, np.int64, "primes")
    _check(steps, np.int64, "steps")
    if primes.size != steps.size:
        raise ValueError("primes and steps differ in length")
    if not 0 <= lo <= lo + cell.size <= (1 << 40) + 1:
        raise ValueError(f"segment [{lo}, {lo + cell.size}) outside [0, 2^40]")
    if primes.size and not 2 <= primes[0] <= primes[-1] <= 1 << 20:
        raise ValueError("a base prime outside [2, 2^20]")
    library().sieve_words(
        cell.ctypes.data, cell.size, lo, primes.ctypes.data, steps.ctypes.data, primes.size
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
    flat = np.zeros(FOLD_BINS, dtype=np.int64)
    if library().fold(flat.ctypes.data, om.ctypes.data, osm.ctypes.data, start, stop):
        raise ValueError(f"a factor count >= {OMEGA_CAP}: the table is corrupt")
    return flat.reshape((OMEGA_CAP,) * 3)
