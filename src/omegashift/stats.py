"""Weighted level-set statistics and their analytic predictions.

Every statistic is a functional of the level histogram

    H[k, v, u] = #{ 2 <= n <= x : omega(n) = k, omega(n-1) = v, omega(n-1, w) = u },

a small table of exact integers (k, v, u < 32 for any x below 2^40) built by
one pass over the table.  The k-level statistics read its plane
J = H[k] (the joint histogram); the classical baseline reads its k marginal.
Building H once per (table, x) and deriving weighted masses, thresholded
masses, moments and distribution distances from it keeps all integer
statistics exact and bit-reproducible for every chunking and thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .accumulate import chunk_spans, map_ordered
from .constants import (
    DEFAULT_TRUNCATION,
    level_ratio,
    normal_cdf,
    tilt_profile,
    tilted_level_constant,
)
from .sieve import MAX_OMEGA, OmegaTable, _check_range

OMEGA_CAP = 32
MAX_MOMENT = 12

# Every omega(n) and omega(n, w) of a table is a valid H index.
if MAX_OMEGA >= OMEGA_CAP:
    raise RuntimeError(f"omega can reach {MAX_OMEGA}, outside H's {OMEGA_CAP} bins")


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


def small_counter_spec(w: int) -> ThresholdSpec:
    """Small-factor normalization: center loglog w, scale sqrt(loglog w)."""
    t = loglog(w)
    if t <= 0:
        raise ValueError(f"w={w}: loglog(w) must be positive")
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


def level_histogram(table: OmegaTable, x: int, threads: int = 1) -> np.ndarray:
    """H[k, v, u] over 2 <= n <= x; exact int64 counts, shape (32, 32, 32).

    One pass over fixed chunks: each chunk packs (k, v, u) into one uint16
    index per n and adds its bincount, so working memory stays O(chunk).
    omega <= sieve.MAX_OMEGA = 11 below the 2^40 table ceiling, which is less
    than OMEGA_CAP (checked at import), so every index is in range.
    """
    _check_range(table, x)

    def one(lo, hi):
        idx = table.omega[lo:hi].astype(np.uint16)
        idx *= OMEGA_CAP
        idx += table.omega[lo - 1 : hi - 1]
        idx *= OMEGA_CAP
        idx += table.omega_small[lo - 1 : hi - 1]
        return np.bincount(idx, minlength=OMEGA_CAP**3)

    flat = np.zeros(OMEGA_CAP**3, dtype=np.int64)
    for part in map_ordered(one, chunk_spans(2, x + 1), threads):
        flat += part
    return flat.reshape(OMEGA_CAP, OMEGA_CAP, OMEGA_CAP)


def joint_histogram(table: OmegaTable, k: int, x: int, threads: int = 1) -> np.ndarray:
    """J[v, u] over the k-level set, the plane H[k]; exact int64 counts."""
    if k < 0:
        raise ValueError("k < 0")
    hist = level_histogram(table, x, threads)
    return hist[k] if k < OMEGA_CAP else np.zeros_like(hist[0])


def omega_histogram(table: OmegaTable, x: int, threads: int = 1) -> np.ndarray:
    """Counts of omega(n) over 2 <= n <= x (the classical, unshifted counter)."""
    return level_histogram(table, x, threads).sum(axis=(1, 2))


def _hist(table, k, x, hist):
    return joint_histogram(table, k, x) if hist is None else hist


def weighted_mass(table: OmegaTable, k: int, x: int, hist=None) -> int:
    """S = sum of 2^omega(n-1) over the k-level set; exact integer."""
    j = _hist(table, k, x, hist)
    return sum(int(c) << v for v, c in enumerate(j.sum(axis=1)) if c)


def total_weighted_mass(table: OmegaTable, x: int, threads: int = 1) -> int:
    """sum of 2^omega(n-1) over all 2 <= n <= x (no level restriction)."""
    counts = level_histogram(table, x, threads).sum(axis=(0, 2))
    return sum(int(c) << v for v, c in enumerate(counts) if c)


def weighted_mass_theoretical(k: int, x: int, P: int = DEFAULT_TRUNCATION) -> float:
    """Leading-order prediction x (loglog x)^(k-1) / (k-1)! times the tilted
    level constant at r = (k-1)/loglog x."""
    if x < 16:
        raise ValueError("x < 16")
    r = level_ratio(k, x)
    const = tilted_level_constant(r, P).value
    return x * loglog(x) ** (k - 1) / math.factorial(k - 1) * const


def weighted_mass_below(
    table: OmegaTable,
    k: int,
    x: int,
    y: float,
    spec: ThresholdSpec | None = None,
    counter: str = "full",
    hist=None,
) -> int:
    """Weighted mass of the level set with the chosen counter thresholded:

        sum 2^omega(n-1) over n with  counter(n-1) <= center + y * scale,

    counter "full" = omega(n-1), "small" = omega(n-1, w).  Defaults to the
    Gaussian spec (center 2 loglog x).  Exact integer; the comparison is an
    exact integer against a floating threshold.
    """
    if counter not in ("full", "small"):
        raise ValueError(f"counter={counter!r}")
    if spec is None:
        spec = gaussian_spec(x)
    j = _hist(table, k, x, hist)
    thr = spec.center + y * spec.scale
    marg = j.sum(axis=1) if counter == "full" else None
    total = 0
    if counter == "full":
        for v, c in enumerate(marg):
            if c and v <= thr:
                total += int(c) << v
    else:
        for v in range(OMEGA_CAP):
            row = j[v]
            for u in range(OMEGA_CAP):
                if row[u] and u <= thr:
                    total += int(row[u]) << v
    return total


def weighted_mass_at(
    table: OmegaTable, k: int, x: int, ell: int, w: int | None = None, hist=None
) -> int:
    """Weighted mass of the slice omega(n-1, w) = ell; exact integer."""
    if ell < 0:
        raise ValueError("ell < 0")
    if w is not None and w != table.w:
        raise ValueError(f"w={w} does not match table.w={table.w}")
    j = _hist(table, k, x, hist)
    if ell >= OMEGA_CAP:
        return 0
    return sum(int(j[v, ell]) << v for v in range(OMEGA_CAP) if j[v, ell])


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


def weighted_moment(table: OmegaTable, k: int, x: int, m: int, hist=None) -> float:
    """m-th normalized weighted moment of (omega(n-1) - 2 loglog x)/sqrt(2 loglog x).

    Gaussian limit: (m-1)!! for even m, 0 for odd m.
    """
    if not 0 <= m <= MAX_MOMENT:
        raise ValueError(f"m={m} outside [0, {MAX_MOMENT}]")
    spec = gaussian_spec(x)
    j = _hist(table, k, x, hist)
    marg = j.sum(axis=1)
    total = 0.0
    mass = 0.0
    for v, c in enumerate(marg):
        if c:
            wv = float(int(c) << v)
            mass += wv
            total += wv * ((v - spec.center) / spec.scale) ** m
    if mass == 0.0:
        raise ValueError(f"empty level set k={k}, x={x}")
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


def ks_distance(table: OmegaTable, k: int, x: int, hist=None) -> float:
    """sup_y |S(x, y)/S(x) - Phi(y)| for the weighted shifted counter."""
    spec = gaussian_spec(x)
    j = _hist(table, k, x, hist)
    marg = j.sum(axis=1)
    weights = [int(c) << v if c else 0 for v, c in enumerate(marg)]
    return ks_weighted_histogram(weights, spec.center, spec.scale)


def unweighted_baseline(
    table: OmegaTable, k: int, x: int, y: float, hist=None
) -> PredictionReport:
    """Plain count of the level set with omega(n-1) <= loglog x + y sqrt(loglog x),
    against (level-set size) * Phi(y)."""
    t0 = time.perf_counter()
    spec = unweighted_spec(x)
    j = _hist(table, k, x, hist)
    marg = j.sum(axis=1)
    thr = spec.center + y * spec.scale
    emp = sum(int(c) for v, c in enumerate(marg) if v <= thr)
    size = int(marg.sum())
    theo = size * normal_cdf(y)
    ms = (time.perf_counter() - t0) * 1e3
    return make_report(
        "unweighted_cdf", x, k, table.w, y, emp, theo,
        1.0 / math.sqrt(loglog(x)), ms,
    )


def classical_baseline(
    table: OmegaTable, x: int, y: float, hist=None
) -> PredictionReport:
    """All-n count of omega(n) <= loglog x + y sqrt(loglog x) vs (x-1) Phi(y).

    hist, when given, is the level histogram H of (table, x).
    """
    t0 = time.perf_counter()
    spec = unweighted_spec(x)
    counts = omega_histogram(table, x) if hist is None else hist.sum(axis=(1, 2))
    thr = spec.center + y * spec.scale
    emp = sum(int(c) for v, c in enumerate(counts) if v <= thr)
    theo = (x - 1) * normal_cdf(y)
    ms = (time.perf_counter() - t0) * 1e3
    return make_report(
        "classical_cdf", x, None, None, y, emp, theo,
        1.0 / math.sqrt(loglog(x)), ms,
    )


def large_factor_ratio(
    table: OmegaTable, k: int, x: int, c_mult: float = 4.0, hist=None
) -> float:
    """Share of the weighted mass carried by n whose shifted argument has more
    than c_mult * logloglog x distinct prime factors above w:

        sum 2^omega(n-1) over { omega(n-1) - omega(n-1, w) > c_mult * log3 x }
        divided by the full weighted mass.
    """
    if c_mult < 0:
        raise ValueError("c_mult < 0")
    thr = c_mult * logloglog(x)
    j = _hist(table, k, x, hist)
    excess = 0
    total = 0
    for v in range(OMEGA_CAP):
        row = j[v]
        for u in range(OMEGA_CAP):
            c = int(row[u])
            if not c:
                continue
            mass = c << v
            total += mass
            if v - u > thr:
                excess += mass
    if total == 0:
        raise ValueError(f"empty level set k={k}, x={x}")
    return excess / total
