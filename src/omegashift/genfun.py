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
the characteristic profile are small functions of J alone.  J is a 16 x 16
nested sequence of ints, nested lists or a numpy array, as stats takes it.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import namedtuple

from .base import OMEGA_CAP, checked_make
from .constants import _check_z
from .primes import factor_table, factorize
from .sieve import SieveConfig, build_omega_table
from .stats import Plane, weighted_mass_at


class WeightKernel(namedtuple("WeightKernel", "w z")):
    """Kernel parameters: small-prime threshold w >= 2 and tilt point |z| <= 4."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.w < 2:
            raise ValueError("w < 2")
        _check_z(self.z)
        return self

    _make = classmethod(checked_make)


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
    as tuples indexed by q: tau(q), and primes.factor_table's p, a and
    m = q / p^a.  m < q, so tau(q) = (a + 1) tau(m) is built in ascending q."""
    spf, alpha, cofactor, _ = factor_table(n_max)
    tau = [1] * (n_max + 1)
    for q in range(2, n_max + 1):
        tau[q] = (alpha[q] + 1) * tau[cofactor[q]]
    return tuple(tau), spf, alpha, cofactor


@functools.lru_cache(maxsize=1)
def _target(n_max: int, w: int):
    """omega(n) and omega(n, w), 1 <= n <= n_max, of a sieve table, as tuples."""
    table = build_omega_table(SieveConfig(x_max=n_max, w=w))
    return tuple(table.omega[1:].tolist()), tuple(table.omega_small[1:].tolist())


def convolution_max_deviation(n_max: int, kernel: WeightKernel) -> float:
    """max |g * tau - 2^omega z^omega_small| over 1 <= n <= n_max.

    The convolution side sums g(q) tau(n/q) over the divisors q of n, from
    primes.factor_table; the target side reads a sieve table of n <= n_max,
    so the two routes share no arithmetic.  The last n_max's tau and
    factorizations q = p^a m, and the last (n_max, min(w, n_max))'s target,
    are cached.  A call asks kernel_value for g(p^a) once per prime power
    and builds every other g(q) = g(m) g(p^a) in ascending q, each one
    Python complex product.  Each nonzero g(q), q >= 2, is added in
    ascending q as lhs[q::q] += g(q) tau(1..n_max // q).  Python's complex
    arithmetic rounds as numpy's scalar loops do (tests/oracles.py's
    convolution_deviation_loops), and the deviation reported is of the
    order of those roundings.
    """
    if n_max < 2:
        raise ValueError("n_max < 2")
    tau, spf, alpha, cofactor = _divisor_structure(n_max)
    g = [0j] * (n_max + 1)
    g[1] = 1 + 0j
    for q in range(2, n_max + 1):
        m = cofactor[q]
        if m == 1:  # q = p^a
            g[q] = kernel_value(spf[q], alpha[q], kernel)
        elif g[m]:
            g[q] = g[m] * g[q // m]
    lhs = list(map(complex, tau))  # the q = 1 term
    for q in range(2, n_max + 1):
        if g[q]:
            lhs[q::q] = map(operator.add, lhs[q::q], map(g[q].__mul__, tau[1 : n_max // q + 1]))
    om, osm = _target(n_max, min(kernel.w, n_max))  # primes above n_max divide nothing below it
    zpow = _powers(complex(kernel.z), max(osm) + 1)
    rhs = [math.ldexp(1.0, o) * zpow[u] for o, u in zip(om, osm)]
    return max(abs(a - b) for a, b in zip(lhs[1:], rhs))


def _powers(z: complex, count: int) -> list[complex]:
    out = [1 + 0j]  # z^0 := 1 including z = 0
    for _ in range(1, count):
        out.append(out[-1] * z)
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


class GenFunValue(namedtuple("GenFunValue", "z value weight_total terms")):
    """One evaluation of the weighted generating function at z: value is
    F_k(z), weight_total its unweighted-by-z mass, which bounds |value| at
    |z| <= 1, and terms the number of n in the level set."""

    __slots__ = ()


def extract_coefficients(J: Plane) -> list[int]:
    """Coefficients c_0..c_deg of F_k as exact integer slice masses,
    c_u = sum_v J[v][u] 2^v, where deg is the largest omega(n-1, w) attained
    on the level set (at most 9 at desk scale, and always below 16); [0]
    for an empty level set.  Entries are >= 0 and sum to the weighted mass
    of J."""
    coeffs = [weighted_mass_at(J, u) for u in range(OMEGA_CAP)]
    degree = max((u for u, c in enumerate(coeffs) if c), default=0)
    return coeffs[: degree + 1]


def _polynomial(coeffs, z: complex) -> complex:
    return complex(sum(c * z**u for u, c in enumerate(coeffs)))


def eval_genfun(J: Plane, z: complex | float) -> GenFunValue:
    """F_k(z) = sum_{omega(n)=k, 2<=n<=x} 2^omega(n-1) z^omega(n-1, w), J = H[k].

    Evaluates sum_u c_u z^u over the exact integer coefficients, so every
    table that gives the same J gives the identical value.
    """
    _check_z(z)
    coeffs = extract_coefficients(J)
    return GenFunValue(
        z=complex(z), value=_polynomial(coeffs, complex(z)),
        weight_total=sum(coeffs), terms=int(sum(map(sum, J))),
    )


class ProfilePoint(namedtuple("ProfilePoint", "t psi gaussian_gap")):
    """psi(t) of characteristic_profile, and gaussian_gap = |psi - exp(-t^2/2)|."""

    __slots__ = ()


def characteristic_profile(J: Plane, w: int, t_grid) -> list[ProfilePoint]:
    """Normalized characteristic function of the small-factor count.

        psi(t) = exp(-i t sqrt(T)) F_k(exp(i t / sqrt(T))) / F_k(1),
        T = 2 loglog w,

    over the plane J = H[k] of a table with small-prime threshold w,
    reported against the Gaussian target exp(-t^2/2).  |psi| <= 1 always.
    """
    T = 2.0 * math.log(math.log(w)) if w > 2 else 0.0
    if T <= 0.0:
        raise ValueError(f"w={w} too small: 2*loglog(w) must be positive")
    coeffs = extract_coefficients(J)
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
