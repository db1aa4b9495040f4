"""Weighted level-set statistics and their analytic predictions.

Every statistic is a function of the level histogram

    H[k, v, u] = #{ 2 <= n <= x : omega(n) = k, omega(n-1) = v, omega(n-1, w) = u },

a small table of exact integers, shape (OMEGA_CAP,) * 3 = (16, 16, 16):
no omega reaches 16 below 2^40.  Its one producer is sieve.grid_histograms,
and experiment caches it; this module holds no sieve or file code, only
the statistics of H and their predictions.
The k-level statistics take the plane J = H[k] (the joint histogram of the
level set), a 16 x 16 nested sequence of ints, plus x where a threshold or
normalization needs it; the classical baseline takes H itself, 16 x 16 x 16.
Nested lists, as the grid pass returns them and a run reads them from its
cache, and numpy arrays give the same values.  Weighted masses,
thresholded and slice masses and baseline counts are exact Python
integers, and every float statistic is computed from them in a fixed
order, so all of them are bit-reproducible for every sieve segmentation
and thread count.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .base import OMEGA_CAP, checked_make
from .constants import level_ratio, normal_cdf, tilt_profile, tilted_level_constant

Plane = Sequence[Sequence[int]]  # J[v][u]

MAX_MOMENT = 12


def loglog(x: float) -> float:
    if x <= math.e:
        raise ValueError(f"x={x} <= e: loglog undefined or nonpositive")
    return math.log(math.log(x))


def logloglog(x: float) -> float:
    if x <= math.exp(math.e):
        raise ValueError(f"x={x} <= e^e: logloglog undefined or nonpositive")
    return math.log(math.log(math.log(x)))


class ThresholdSpec(namedtuple("ThresholdSpec", "center scale")):
    """Affine threshold center + y * scale for a counting statistic."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.center) and math.isfinite(self.scale)):
            raise ValueError("non-finite threshold")
        if self.scale <= 0:
            raise ValueError("scale <= 0")
        return self

    _make = classmethod(checked_make)


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


def _row_counts(J: Plane) -> list[int]:
    """[row v count] for v < OMEGA_CAP; exact integers."""
    return [int(sum(row)) for row in J]


def _row_masses(J: Plane) -> list[int]:
    """[2^v * (row v count)] for v < OMEGA_CAP; exact integers."""
    return [c << v for v, c in enumerate(_row_counts(J))]


def weighted_mass(J: Plane) -> int:
    """S = sum of 2^omega(n-1) over the plane J; exact integer."""
    return sum(_row_masses(J))


def weighted_mass_theoretical(k: int, x: int) -> float:
    """Leading-order prediction x (loglog x)^(k-1) / (k-1)! times the tilted
    level constant at r = (k-1)/loglog x."""
    if x < 16:
        raise ValueError("x < 16")
    r = level_ratio(k, x)
    const = tilted_level_constant(r).value
    return x * loglog(x) ** (k - 1) / math.factorial(k - 1) * const


def weighted_mass_below(J: Plane, x: int, y: float) -> int:
    """Weighted mass of the plane J over the rows below the Gaussian threshold:

        sum 2^omega(n-1) over n with  omega(n-1) <= 2 loglog x + y sqrt(2 loglog x).

    Exact integer; the comparison is an exact integer against a floating
    threshold.  y = -inf gives 0 and +inf the full mass; a nan y is a ValueError.
    """
    _check_y(y)
    spec = gaussian_spec(x)
    top = spec.center + y * spec.scale
    return sum(m for v, m in enumerate(_row_masses(J)) if v <= top)


def weighted_mass_at(J: Plane, ell: int) -> int:
    """Weighted mass of the slice omega(n-1, w) = ell (the column u = ell)."""
    if ell < 0:
        raise ValueError("ell < 0")
    if ell >= OMEGA_CAP:
        return 0
    return sum(int(row[ell]) << v for v, row in enumerate(J))


def small_factor_prediction(k: int, x: int, ell: int, w: int,
                            mass: float | None = None) -> float:
    """Poisson-type prediction for the omega(n-1, w) = ell slice:

        mass * (2 loglog w)^ell / (ell! (log w)^2) * profile(r, ell / loglog w),

    with mass the weighted level-set total (pass the empirical value; the
    theoretical one works too) and r = (k-1)/loglog x.
    """
    if ell < 0:
        raise ValueError("ell < 0")
    t = loglog(w)
    if mass is None:
        mass = weighted_mass_theoretical(k, x)
    r = level_ratio(k, x)
    prof = tilt_profile(r, ell / t).value
    return float(
        mass * (2.0 * t) ** ell / (math.factorial(ell) * math.log(w) ** 2) * prof
    )


def weighted_moment(J: Plane, x: int, m: int) -> float:
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


def ks_distance(J: Plane, x: int) -> float:
    """sup_y |S(x, y)/S(x) - Phi(y)| for the weighted shifted counter."""
    spec = gaussian_spec(x)
    return ks_weighted_histogram(_row_masses(J), spec.center, spec.scale)


def _check_y(y: float) -> None:
    if math.isnan(y):
        raise ValueError("threshold y is nan")


def _count_below(counts: list[int], x: int, y: float) -> int:
    """Sum of counts[i] over i <= loglog x + y sqrt(loglog x); a nan y is a
    ValueError."""
    _check_y(y)
    spec = unweighted_spec(x)
    top = spec.center + y * spec.scale
    return sum(c for i, c in enumerate(counts) if i <= top)


def unweighted_baseline(J: Plane, x: int, y: float) -> int:
    """Plain count of the plane J with omega(n-1) <= loglog x + y sqrt(loglog x);
    its limit is the plane's size times Phi(y)."""
    return _count_below(_row_counts(J), x, y)


def classical_baseline(H: Sequence[Plane], x: int, y: float) -> int:
    """Count of 2 <= n <= x with omega(n) <= loglog x + y sqrt(loglog x), read
    from the level histogram H; its limit is (x - 1) Phi(y)."""
    return _count_below([sum(_row_counts(J)) for J in H], x, y)


def large_factor_ratio(J: Plane, x: int, c_mult: float = 4.0) -> float:
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
    above = sum(int(c) << v for v, row in enumerate(J) for u, c in enumerate(row) if v - u > thr)
    return above / total
