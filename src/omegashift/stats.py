"""Weighted level-set statistics and their analytic predictions.

Every statistic is a function of the level histogram

    H[k, v, u] = #{ 2 <= n <= x : omega(n) = k, omega(n-1) = v, omega(n-1, w) = u },

a small table of exact integers, shape (OMEGA_CAP,) * 3 = (16, 16, 16):
no omega reaches 16 below 2^40.  Its one producer is sieve.grid_histograms;
this module holds no sieve code, only statistics of H and its cache:
save_histogram and load_histogram keep H in a 32 KB cache file per
(x, w) whose header carries a SHA-256 of the payload, and the Euler
products' prime sums in one such file per truncation P.
The k-level statistics take the plane J = H[k] (the joint histogram of the
level set), plus x where a threshold or normalization needs it; the
classical baseline takes H itself.  A plane of all n regardless of
omega(n) is H.sum(axis=0).  Weighted masses, thresholded and slice masses
and baseline counts are exact integers, and every float statistic is
computed from them in a fixed order, so all of them are bit-reproducible
for every sieve segmentation and thread count.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .constants import (
    _BLOCK,
    DEFAULT_TRUNCATION,
    MIN_TRUNCATION,
    SERIES_TERMS,
    PrimeSums,
    level_ratio,
    normal_cdf,
    tilt_profile,
    tilted_level_constant,
)
from .kernel import FOLD_BINS, OMEGA_CAP

MAX_MOMENT = 12

HIST_MAGIC = b"OMGH"
HIST_VERSION = 2  # bump when the format or the numbers H holds change
_HEADER = struct.Struct("<4sIQQ32s")  # magic, version, x, w, SHA-256 of the payload
_HIST_BYTES = FOLD_BINS * 8
SUMS_MAGIC = b"OMGS"
SUMS_VERSION = 1  # bump when the format or the way _prime_sums sums changes
_SUMS_HEADER = struct.Struct("<4sIQIII32s")  # the fields of _sums_key, SHA-256 of the payload
_SUMS_PAYLOAD = struct.Struct(f"<q{SERIES_TERMS}d")  # pi(P), sum p^-2, S_2..S_J


class CacheMismatchError(ValueError):
    """A cache file's header or payload disagrees with what was asked for."""


def loglog(x: float) -> float:
    if x <= math.e:
        raise ValueError(f"x={x} <= e: loglog undefined or nonpositive")
    return math.log(math.log(x))


def logloglog(x: float) -> float:
    if x <= math.exp(math.e):
        raise ValueError(f"x={x} <= e^e: logloglog undefined or nonpositive")
    return math.log(math.log(math.log(x)))


@dataclass(frozen=True)
class ThresholdSpec:
    """Affine threshold center + y * scale for a counting statistic."""

    center: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.scale)):
            raise ValueError("non-finite threshold")
        if self.scale <= 0:
            raise ValueError("scale <= 0")


def gaussian_spec(x: int) -> ThresholdSpec:
    """Weighted-count normalization: center 2 loglog x, scale sqrt(2 loglog x)."""
    if x < 16:
        raise ValueError("x < 16")
    t = 2.0 * loglog(x)
    return ThresholdSpec(center=t, scale=math.sqrt(t))


def unweighted_spec(x: int) -> ThresholdSpec:
    """Classical normalization: center loglog x, scale sqrt(loglog x)."""
    if x < 16:
        raise ValueError("x < 16")
    t = loglog(x)
    return ThresholdSpec(center=t, scale=math.sqrt(t))


@dataclass(frozen=True)
class PredictionReport:
    """One empirical-vs-theoretical comparison row."""

    statistic: str
    x: int
    k: int | None
    w: int | None
    param: float | None
    empirical: float
    theoretical: float
    rel_dev: float
    error_scale: float
    runtime_ms: float


def make_report(
    statistic, x, k, w, param, empirical, theoretical, error_scale, runtime_ms
) -> PredictionReport:
    rel = abs(empirical - theoretical) / max(abs(theoretical), 1e-30)
    return PredictionReport(
        statistic=statistic, x=x, k=k, w=w, param=param,
        empirical=float(empirical), theoretical=float(theoretical),
        rel_dev=float(rel), error_scale=float(error_scale),
        runtime_ms=float(runtime_ms),
    )


def histogram_path(cache_dir: str, x: int, w: int) -> str:
    return os.path.join(cache_dir, f"hist_x{x}_w{w}.bin")


def _payload(H: np.ndarray) -> bytes:
    if H.shape != (OMEGA_CAP,) * 3:
        raise ValueError(f"histogram shape {H.shape}, want {(OMEGA_CAP,) * 3}")
    return np.ascontiguousarray(H, dtype="<i8").tobytes()


def histogram_digest(H: np.ndarray) -> str:
    """SHA-256 of H as little-endian int64 in C order, as the cache stores it."""
    return hashlib.sha256(_payload(H)).hexdigest()


def write_atomic(path: str, data: bytes) -> None:
    """Write data to a fresh temporary file beside path, creating the
    directories, and os.replace it over path: readers see the old file or
    the whole new one, and writers that share a path never share a
    temporary file."""
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)  # mkstemp made it private to its creator
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_cache(path: str, header: struct.Struct, key: tuple, payload: bytes) -> None:
    write_atomic(path, header.pack(*key, hashlib.sha256(payload).digest()) + payload)


def _read_cache(path: str, header: struct.Struct, key: dict, size: int) -> bytes:
    """The payload of a cache file whose header holds the values of key (magic
    and version first) and whose payload is size bytes matching its SHA-256;
    anything else raises CacheMismatchError naming path and the field."""
    with open(path, "rb") as fh:
        raw = fh.read(header.size + size + 1)  # a byte too many shows a long file
    if len(raw) < header.size:
        raise CacheMismatchError(f"{path}: truncated header")
    magic, version, *found, digest = header.unpack_from(raw)
    names, want = list(key), list(key.values())
    if [magic, version] != want[:2]:
        raise CacheMismatchError(f"{path}: bad magic/version {magic!r} v{version}")
    for name, got, wanted in zip(names[2:], found, want[2:]):
        if got != wanted:
            raise CacheMismatchError(f"{path}: has {name}={got}, wanted {name}={wanted}")
    payload = raw[header.size :]
    if len(payload) != size:
        raise CacheMismatchError(f"{path}: payload is not {size} bytes")
    if hashlib.sha256(payload).digest() != digest:
        raise CacheMismatchError(f"{path}: payload does not match its SHA-256")
    return payload


def save_histogram(H: np.ndarray, path: str, x: int, w: int) -> None:
    """Write H as a cache file: the header (magic, version, x, w, SHA-256
    of the payload), then the payload, H as little-endian int64 in C order."""
    _write_cache(path, _HEADER, (HIST_MAGIC, HIST_VERSION, x, w), _payload(H))


def load_histogram(path: str, x: int, w: int) -> np.ndarray:
    """Read a cached H for (x, w) as a writable int64 array; a short or long
    file, another magic, version, x or w, or a payload that does not match
    its digest raises CacheMismatchError."""
    key = {"magic": HIST_MAGIC, "version": HIST_VERSION, "x": x, "w": w}
    payload = _read_cache(path, _HEADER, key, _HIST_BYTES)
    return np.frombuffer(payload, dtype="<i8").astype(np.int64).reshape((OMEGA_CAP,) * 3)


def prime_sums_path(cache_dir: str, P: int) -> str:
    return os.path.join(cache_dir, f"prime_sums_P{P}.bin")


def _sums_key(P: int) -> dict:
    """The header fields, with the constants that fix the sums' bits."""
    return {"magic": SUMS_MAGIC, "version": SUMS_VERSION, "P": P,
            "MIN_TRUNCATION": MIN_TRUNCATION, "SERIES_TERMS": SERIES_TERMS, "_BLOCK": _BLOCK}


def save_prime_sums(sums: PrimeSums, path: str, P: int) -> None:
    """Write constants.prime_sums(P) as a cache file: the header (_sums_key,
    SHA-256 of the payload), then pi(P) as int64 and the sums as float64."""
    count, inv_sq, powers = sums
    payload = _SUMS_PAYLOAD.pack(count, inv_sq, *powers)
    _write_cache(path, _SUMS_HEADER, tuple(_sums_key(P).values()), payload)


def load_prime_sums(path: str, P: int) -> PrimeSums:
    """Read the prime sums save_prime_sums wrote for P, bit for bit; a short
    or long file, another header field or a payload that does not match its
    digest raises CacheMismatchError."""
    payload = _read_cache(path, _SUMS_HEADER, _sums_key(P), _SUMS_PAYLOAD.size)
    count, inv_sq, *powers = _SUMS_PAYLOAD.unpack(payload)
    return count, inv_sq, tuple(powers)


def _row_masses(J: np.ndarray) -> list[int]:
    """[2^v * (row v count)] for v < OMEGA_CAP; exact integers."""
    return [int(c) << v for v, c in enumerate(J.sum(axis=1))]


def weighted_mass(J: np.ndarray) -> int:
    """S = sum of 2^omega(n-1) over the plane J; exact integer."""
    return sum(_row_masses(J))


def weighted_mass_theoretical(k: int, x: int, P: int = DEFAULT_TRUNCATION) -> float:
    """Leading-order prediction x (loglog x)^(k-1) / (k-1)! times the tilted
    level constant at r = (k-1)/loglog x."""
    if x < 16:
        raise ValueError("x < 16")
    r = level_ratio(k, x)
    const = tilted_level_constant(r, P).value
    return x * loglog(x) ** (k - 1) / math.factorial(k - 1) * const


def weighted_mass_below(J: np.ndarray, x: int, y: float) -> int:
    """Weighted mass of the plane J over the rows below the Gaussian threshold:

        sum 2^omega(n-1) over n with  omega(n-1) <= 2 loglog x + y sqrt(2 loglog x).

    Exact integer; the comparison is an exact integer against a floating
    threshold.  y = -inf gives 0 and +inf the full mass; a nan y is a ValueError.
    """
    _check_y(y)
    spec = gaussian_spec(x)
    keep = np.arange(OMEGA_CAP) <= spec.center + y * spec.scale
    return weighted_mass(J * keep[:, None])


def weighted_mass_at(J: np.ndarray, ell: int) -> int:
    """Weighted mass of the slice omega(n-1, w) = ell (the column u = ell)."""
    if ell < 0:
        raise ValueError("ell < 0")
    return weighted_mass(J * (np.arange(OMEGA_CAP) == ell))


def small_factor_prediction(
    k: int,
    x: int,
    ell: int,
    w: int,
    P: int = DEFAULT_TRUNCATION,
    mass: float | None = None,
) -> float:
    """Poisson-type prediction for the omega(n-1, w) = ell slice:

        mass * (2 loglog w)^ell / (ell! (log w)^2) * profile(r, ell / loglog w),

    with mass the weighted level-set total (pass the empirical value; the
    theoretical one works too) and r = (k-1)/loglog x.
    """
    if ell < 0:
        raise ValueError("ell < 0")
    t = loglog(w)
    if t <= 0:
        raise ValueError(f"w={w}: loglog(w) must be positive")
    if mass is None:
        mass = weighted_mass_theoretical(k, x, P)
    r = level_ratio(k, x)
    prof = tilt_profile(r, ell / t, P).value
    return float(
        mass * (2.0 * t) ** ell / (math.factorial(ell) * math.log(w) ** 2) * prof
    )


def weighted_moment(J: np.ndarray, x: int, m: int) -> float:
    """m-th normalized weighted moment of (omega(n-1) - 2 loglog x)/sqrt(2 loglog x).

    Gaussian limit: (m-1)!! for even m, 0 for odd m.
    """
    if not 0 <= m <= MAX_MOMENT:
        raise ValueError(f"m={m} outside [0, {MAX_MOMENT}]")
    spec = gaussian_spec(x)
    total = 0.0
    mass = 0.0
    for v, c in enumerate(_row_masses(J)):
        if c:
            mass += c
            total += c * ((v - spec.center) / spec.scale) ** m
    if mass == 0.0:
        raise ValueError(f"empty level set at x={x}")
    return total / mass


def gaussian_moment(m: int) -> float:
    """Moments of the standard normal: (m-1)!! for even m, 0 for odd."""
    if m < 0:
        raise ValueError("m < 0")
    if m % 2:
        return 0.0
    h = m // 2
    return float(math.factorial(m) // (2**h * math.factorial(h)))


def ks_weighted_histogram(weights, center: float, scale: float) -> float:
    """Kolmogorov distance between a weighted step CDF and the normal CDF.

    weights[v] is the mass at counter value v; jumps sit at (v - center)/scale
    and both one-sided gaps are taken at every jump.
    """
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("no mass")
    dist = 0.0
    cum = 0.0
    for v, c in enumerate(weights):
        if not c:
            continue
        yv = (v - center) / scale
        phi = normal_cdf(yv)
        dist = max(dist, abs(cum / total - phi))
        cum += float(c)
        dist = max(dist, abs(cum / total - phi))
    return dist


def ks_distance(J: np.ndarray, x: int) -> float:
    """sup_y |S(x, y)/S(x) - Phi(y)| for the weighted shifted counter."""
    spec = gaussian_spec(x)
    return ks_weighted_histogram(_row_masses(J), spec.center, spec.scale)


def _check_y(y: float) -> None:
    if math.isnan(y):
        raise ValueError("threshold y is nan")


def _count_below(A: np.ndarray, x: int, y: float) -> int:
    """Total count of A over first indices <= loglog x + y sqrt(loglog x);
    a nan y is a ValueError."""
    _check_y(y)
    spec = unweighted_spec(x)
    return int(A[np.arange(OMEGA_CAP) <= spec.center + y * spec.scale].sum())


def unweighted_baseline(J: np.ndarray, x: int, y: float) -> int:
    """Plain count of the plane J with omega(n-1) <= loglog x + y sqrt(loglog x);
    its limit is the plane's size times Phi(y)."""
    return _count_below(J, x, y)


def classical_baseline(H: np.ndarray, x: int, y: float) -> int:
    """Count of 2 <= n <= x with omega(n) <= loglog x + y sqrt(loglog x), read
    from the level histogram H; its limit is (x - 1) Phi(y)."""
    return _count_below(H, x, y)


def large_factor_ratio(J: np.ndarray, x: int, c_mult: float = 4.0) -> float:
    """Share of the weighted mass carried by n whose shifted argument has more
    than c_mult * logloglog x distinct prime factors above w:

        sum 2^omega(n-1) over { omega(n-1) - omega(n-1, w) > c_mult * log3 x }
        divided by the full weighted mass.
    """
    if not c_mult >= 0:  # a nan c_mult fails too
        raise ValueError(f"c_mult={c_mult} not >= 0")
    thr = c_mult * logloglog(x)
    total = weighted_mass(J)
    if total == 0:
        raise ValueError(f"empty level set at x={x}")
    v = np.arange(OMEGA_CAP)
    return weighted_mass(J * (v[:, None] - v > thr)) / total
