"""Multiplicative kernel and weighted generating function.

The level-set statistics rest on one identity: the multiplicative kernel g
defined on prime powers by

    g(p)   = 2(z - 1)  if p <= w else 0
    g(p^2) = 1 - 2z    if p <= w else -1
    g(p^a) = 0         for a > 2

satisfies (g * tau)(n) = 2^omega(n) * z^omega(n, w), where tau is the divisor
count and * is Dirichlet convolution.  This module exposes the kernel, the
identity check, the totient-weighted transform phi(l) f(l), with
f(l) = sum_{d^2 q = l} g(q)/phi(dq), and the weighted generating function

    F_k(z) = sum over n in the k-level set of 2^omega(n-1) * z^omega(n-1, w).

g and phi f are polynomials in Z[z], held as tuples of their int
coefficients, constant term first, so the identity check and verify's
kernel checks are exact and hold for every z at once.  z enters only where
F_k is evaluated.  Its coefficients are the small-factor masses, exact
integers read from the plane J = H[k] of the level histogram
(sieve.grid_histograms), so evaluation, coefficient extraction and the
characteristic profile are small functions of J alone.  J is a 16 x 16
nested sequence of ints, nested lists or a numpy array, as stats takes it.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import namedtuple

from .base import OMEGA_CAP
from .constants import _check_z
from .primes import factor_table, factorize
from .sieve import SieveConfig, build_omega_table
from .stats import Plane, weighted_mass_at


def _check_w(w: int) -> None:
    if w < 2:
        raise ValueError("w < 2")


@functools.lru_cache(maxsize=2048)
def _check_prime(p: int) -> None:
    if p < 2 or factorize(p) != [(p, 1)]:
        raise ValueError(f"p={p} is not prime")


def kernel_value(p: int, alpha: int, w: int) -> tuple[int, ...]:
    """g(p^alpha) as its coefficients in z, constant term first, with no
    trailing zero: (-2, 2) and (1, -2) below w, () and (-1,) above, () for
    alpha > 2.  p must be prime, alpha >= 1 and w >= 2."""
    _check_prime(p)
    _check_w(w)
    if alpha < 1:
        raise ValueError("alpha < 1")
    if alpha > 2:
        return ()
    if p <= w:
        return (-2, 2) if alpha == 1 else (1, -2)
    return () if alpha == 1 else (-1,)


def _polynomial(coeffs, z):
    return sum(c * z**u for u, c in enumerate(coeffs))


def convolution_mismatch(n_max: int, w: int) -> int:
    """The first 1 <= n <= n_max where (g * tau)(n) != 2^omega(n) z^omega(n, w)
    as polynomials in z, or 0 if the identity holds for every such n.

    The convolution side sums g(q) tau(n/q) over the divisors q of n, from
    primes.factor_table; the target side reads a sieve table of n <= n_max,
    so the two routes share no arithmetic.  Every g is evaluated at the one
    integer Z = 2^B, B = 3 bitlen(n_max) + 2: kernel_value once per prime
    power, every other g(q) = g(m) g(p^a) in ascending q, and each nonzero
    g(q), q >= 2, added as lhs[q::q] += g(q) tau(1..n_max // q).

    Equal integers at Z are equal polynomials, so the check holds for every
    z at once.  A coefficient of g(q) is at most ||g(q)||_1 <= 4^omega(q)
    <= q^2 in size, tau(n/q) <= n/q, and n has at most n divisors, so each
    coefficient of lhs - rhs is at most n^3 + n < Z/2 in absolute value.  A
    nonzero such difference D, with lowest nonzero coefficient d_j, has
    D(Z) = Z^j (d_j + Z R) for an integer R, and 0 < |d_j| < Z keeps that
    from 0.
    """
    if n_max < 2:
        raise ValueError("n_max < 2")
    _check_w(w)
    B = 3 * n_max.bit_length() + 2
    Z = 1 << B
    spf, alpha, cofactor, _ = factor_table(n_max)
    tau = [1] * (n_max + 1)
    g = [0] * (n_max + 1)
    g[1] = 1
    for q in range(2, n_max + 1):
        m = cofactor[q]
        tau[q] = (alpha[q] + 1) * tau[m]
        if m == 1:  # q = p^a
            g[q] = _polynomial(kernel_value(spf[q], alpha[q], w), Z)
        elif g[m]:
            g[q] = g[m] * g[q // m]
    lhs = tau[:]  # the q = 1 term
    for q in range(2, n_max + 1):
        if g[q]:
            lhs[q::q] = map(operator.add, lhs[q::q], map(g[q].__mul__, tau[1 : n_max // q + 1]))
    # primes above n_max divide nothing below it
    table = build_omega_table(SieveConfig(x_max=n_max, w=min(w, n_max)))
    rhs = [1 << (o + B * u) for o, u in zip(table.omega.tolist(), table.omega_small.tolist())]
    return next((n for n in range(1, n_max + 1) if lhs[n] != rhs[n]), 0)


def _poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def phi_prime_power(p: int, e: int, w: int) -> tuple[int, int]:
    """phi(p^e) f(p^e), the totient-weighted kernel on l = p^e, as the pair
    of its coefficients in z, constant term first.

    Odd e = 2a+1:  p^a (2z - 2) below w, 0 above.
    Even e = 2a+2: p^(a+1) + p^a (1 - 2z) below w, p^(a+1) - p^a above.
    """
    _check_prime(p)
    _check_w(w)
    if e < 1:
        raise ValueError("e < 1")
    a = (e - 1) // 2
    if e % 2:  # e = 2a+1
        return (-2 * p**a, 2 * p**a) if p <= w else (0, 0)
    if p <= w:  # e = 2a+2
        return (p ** (a + 1) + p**a, -2 * p**a)
    return (p ** (a + 1) - p**a, 0)


def phi_weighted_kernel(ell: int, w: int) -> tuple[int, ...]:
    """phi(l) f(l), f(l) = sum_{d^2 q = l} g(q)/phi(dq), as the product of the
    pairs phi_prime_power over the prime powers p^e || l: omega(l) + 1
    coefficients in z, constant term first; (1,) at l = 1."""
    if ell < 1:
        raise ValueError("ell < 1")
    _check_w(w)
    pairs = [phi_prime_power(p, e, w) for p, e in factorize(ell)]
    if (0, 0) in pairs:
        return (0,) * (len(pairs) + 1)
    return functools.reduce(_poly_mul, pairs) if pairs else (1,)


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
