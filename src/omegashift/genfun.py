"""Multiplicative kernel and weighted generating function.

The level-set statistics rest on one identity: the multiplicative kernel g
defined on prime powers by

    g(p)   = 2(z - 1)  if p <= w else 0
    g(p^2) = 1 - 2z    if p <= w else -1
    g(p^a) = 0         for a > 2

satisfies (g * tau)(n) = 2^omega(n) * z^omega(n, w), where tau is the divisor
count and * is Dirichlet convolution.  This module exposes the kernel, the
identity check, the totient-averaged transform f(l) = sum_{d^2 q = l}
g(q)/phi(dq), and the weighted generating function

    F_k(z) = sum over n in the k-level set of 2^omega(n-1) * z^omega(n-1, w),

a polynomial in z whose coefficients are the small-factor masses.  Those
coefficients are exact integers read from the plane J = H[k] of the level
histogram (sieve.grid_histograms), so evaluation, coefficient extraction and
the characteristic profile are small functions of J alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import _check_z
from .kernel import OMEGA_CAP
from .primes import factor_table, factorize
from .sieve import SieveConfig, build_omega_table
from .stats import weighted_mass_at


@dataclass(frozen=True)
class WeightKernel:
    """Kernel parameters: small-prime threshold w >= 2 and tilt point |z| <= 4."""

    w: int
    z: complex

    def __post_init__(self):
        if self.w < 2:
            raise ValueError("w < 2")
        _check_z(self.z)


@functools.lru_cache(maxsize=2048)
def _check_prime(p: int) -> None:
    if p < 2 or factorize(p) != [(p, 1)]:
        raise ValueError(f"p={p} is not prime")


def kernel_value(p: int, alpha: int, kernel: WeightKernel) -> complex:
    """g(p^alpha); p must be prime, alpha >= 1."""
    _check_prime(p)
    if alpha < 1:
        raise ValueError("alpha < 1")
    if alpha > 2:
        return 0.0 + 0.0j
    z = complex(kernel.z)
    if p <= kernel.w:
        return 2.0 * (z - 1.0) if alpha == 1 else 1.0 - 2.0 * z
    return complex(0.0) if alpha == 1 else complex(-1.0)


@functools.lru_cache(maxsize=1)
def _divisor_structure(n_max: int):
    """What convolution_max_deviation needs of 1..n_max that no kernel changes,
    as read-only arrays indexed by q: tau(q), primes.factor_table's p, a and
    m = q / p^a, and the q >= 2 grouped by omega(q), so the m of a group lie
    in the groups before it and tau(q) = (a + 1) tau(m) is built group by group."""
    spf, alpha, cofactor, omega = factor_table(n_max)
    levels = [np.flatnonzero(omega == k) for k in range(1, int(omega.max()) + 1)]
    tau = np.ones(n_max + 1, dtype=np.int64)
    for qs in levels:
        tau[qs] = (alpha[qs] + 1) * tau[cofactor[qs]]
    for arr in (tau, *levels):
        arr.flags.writeable = False
    return tau, spf, alpha, cofactor, levels


@functools.lru_cache(maxsize=1)
def _target(n_max: int, w: int):
    """omega(n) and omega(n, w), 1 <= n <= n_max, of a sieve table, read-only int64."""
    table = build_omega_table(SieveConfig(x_max=n_max, w=w))
    out = table.omega[1:].astype(np.int64), table.omega_small[1:].astype(np.int64)
    for arr in out:
        arr.flags.writeable = False
    return out


def convolution_max_deviation(n_max: int, kernel: WeightKernel) -> float:
    """max |g * tau - 2^omega z^omega_small| over 1 <= n <= n_max.

    The convolution side sums g(q) tau(n/q) over the divisors q of n with
    numpy, from primes.factor_table; the target side reads a sieve table of
    n <= n_max, so the two routes share no arithmetic.  The last n_max's tau
    and factorizations q = p^a m, and the last (n_max, min(w, n_max))'s
    target, are cached, read-only.  A call asks kernel_value for g(p^a) once
    per prime power and builds g(q) = g(m) g(p^a) one omega(q) at a time, as
    separate float operations in the order of a scalar complex product:
    numpy's vectorized complex product rounds some of them differently, and
    the deviation reported is of the order of those roundings.  Each nonzero
    g(q), q >= 2, is added in ascending q as lhs[q::q] += g(q) tau(1..n_max // q).
    """
    if n_max < 2:
        raise ValueError("n_max < 2")
    tau, spf, alpha, cofactor, levels = _divisor_structure(n_max)
    kval = np.zeros(n_max + 1, dtype=np.complex128)  # g(p^a) at q = p^a
    for q in levels[0].tolist():
        kval[q] = kernel_value(int(spf[q]), int(alpha[q]), kernel)
    g = np.zeros(n_max + 1, dtype=np.complex128)
    g[1] = 1.0
    gr, gi, kr, ki = g.real, g.imag, kval.real, kval.imag
    for qs in levels:
        ms = cofactor[qs]
        pa = qs // ms
        ar, ai, br, bi = gr[ms], gi[ms], kr[pa], ki[pa]
        gr[qs] = ar * br - ai * bi
        gi[qs] = ar * bi + ai * br
    lhs = tau.astype(np.complex128)  # the q = 1 term
    for q in (np.flatnonzero(g[2:]) + 2).tolist():
        lhs[q::q] += g[q] * tau[1 : n_max // q + 1]
    om, osm = _target(n_max, min(kernel.w, n_max))  # primes above n_max divide nothing below it
    zpow = _powers(complex(kernel.z), int(osm.max()) + 1)
    rhs = np.ldexp(1.0, om.astype(np.int32)) * zpow[osm]
    return float(np.max(np.abs(lhs[1:] - rhs)))


def _powers(z: complex, count: int) -> np.ndarray:
    out = np.empty(count, dtype=np.complex128)
    out[0] = 1.0  # z^0 := 1 including z = 0
    for j in range(1, count):
        out[j] = out[j - 1] * z
    return out


def phi_prime_power(p: int, e: int, kernel: WeightKernel) -> complex:
    """Closed form of the totient-averaged kernel on l = p^e.

    Odd e = 2a+1:  (2z-2)/(p^a (p-1)) below w, 0 above.
    Even e = 2a+2: 1/(p^a (p-1)) + (1-2z)/(p^(a+1) (p-1)) below w,
                   1/(p^a (p-1)) - 1/(p^(a+1) (p-1)) above.
    """
    _check_prime(p)
    if e < 1:
        raise ValueError("e < 1")
    z = complex(kernel.z)
    if e % 2 == 1:
        a = (e - 1) // 2
        if p > kernel.w:
            return 0.0 + 0.0j
        return (2.0 * z - 2.0) / (p**a * (p - 1))
    a = (e - 2) // 2
    base = 1.0 / (p**a * (p - 1))
    if p > kernel.w:
        return base - 1.0 / (p ** (a + 1) * (p - 1))
    return base + (1.0 - 2.0 * z) / (p ** (a + 1) * (p - 1))


def phi_weighted_kernel(ell: int, kernel: WeightKernel) -> complex:
    """f(l) = sum_{d^2 q = l} g(q)/phi(dq), multiplicative in l; f(1) = 1."""
    if ell < 1:
        raise ValueError("ell < 1")
    value = 1.0 + 0.0j
    for p, e in factorize(ell):
        value *= phi_prime_power(p, e, kernel)
        if value == 0:
            break
    return value


@dataclass(frozen=True)
class GenFunValue:
    """One evaluation of the weighted generating function."""

    z: complex
    value: complex
    weight_total: int  # unweighted-by-z mass, bounds |value| at |z| <= 1
    terms: int


def _coefficients(J: np.ndarray) -> list[int]:
    """c_0..c_deg with c_u = sum_v J[v, u] 2^v exact integers and deg the
    largest omega(n-1, w) attained (0 for an empty level set)."""
    coeffs = [weighted_mass_at(J, u) for u in range(OMEGA_CAP)]
    degree = max((u for u, c in enumerate(coeffs) if c), default=0)
    return coeffs[: degree + 1]


def _polynomial(coeffs, z: complex) -> complex:
    return complex(sum(c * z**u for u, c in enumerate(coeffs)))


def eval_genfun(J: np.ndarray, z: complex | float) -> GenFunValue:
    """F_k(z) = sum_{omega(n)=k, 2<=n<=x} 2^omega(n-1) z^omega(n-1, w), J = H[k].

    Evaluates sum_u c_u z^u over the exact integer coefficients, so every
    table that gives the same J gives the identical value.
    """
    _check_z(z)
    coeffs = _coefficients(J)
    return GenFunValue(
        z=complex(z), value=_polynomial(coeffs, complex(z)),
        weight_total=sum(coeffs), terms=int(J.sum()),
    )


def extract_coefficients(J: np.ndarray) -> np.ndarray:
    """Coefficients c_0..c_deg of F_k as exact int64 slice masses, where deg
    is the largest omega(n-1, w) attained on the level set (at most 9 at desk
    scale, and always below 32); [0] for an empty level set.  Entries are
    >= 0 and sum to the weighted mass of J."""
    return np.array(_coefficients(J), dtype=np.int64)


@dataclass(frozen=True)
class ProfilePoint:
    t: float
    psi: complex
    gaussian_gap: float  # |psi - exp(-t^2/2)|


def characteristic_profile(J: np.ndarray, w: int, t_grid) -> list[ProfilePoint]:
    """Normalized characteristic function of the small-factor count.

        psi(t) = exp(-i t sqrt(T)) F_k(exp(i t / sqrt(T))) / F_k(1),
        T = 2 loglog w,

    over the plane J = H[k] of a table with small-prime threshold w,
    reported against the Gaussian target exp(-t^2/2).  |psi| <= 1 always.
    """
    T = 2.0 * math.log(math.log(w)) if w > 2 else 0.0
    if T <= 0.0:
        raise ValueError(f"w={w} too small: 2*loglog(w) must be positive")
    coeffs = _coefficients(J)
    total = float(sum(coeffs))
    if total == 0.0:
        raise ValueError("empty level set")
    sqrt_t = math.sqrt(T)
    out = []
    for t in t_grid:
        t = float(t)
        val = _polynomial(coeffs, cmath.exp(1j * t / sqrt_t))
        psi = cmath.exp(-1j * t * sqrt_t) * val / total
        out.append(ProfilePoint(t=t, psi=psi, gaussian_gap=abs(psi - math.exp(-0.5 * t * t))))
    return out
