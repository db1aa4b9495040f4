"""High-precision constants from Euler products truncated at one prime.

Every product evaluated here has per-prime factors of the shape

    F_p = (1 + a/(p - 1 + s)) * (1 - 1/p)**a

for a coefficient a (possibly complex) and a shift s >= 0, so a single
log-evaluation core serves all of them.

Head and series.  With b = 1 - s the factor is
F_p = (1 - (b-a)/p) / (1 - b/p) * (1 - 1/p)**a, so

    log F_p = sum_{j>=2} c_j / p^j,    c_j = (b^j - (b-a)^j - a) / j,

the j = 1 term being exactly zero.  The primes p <= Q = MIN_TRUNCATION (the
head) are summed term by term as exact logs: math.log1p(u) for real a,
cmath.log(1 + u) for complex a, with u = a/(p-1+s).  These logs and the
product's exponential come from libm, one call per value, not from an
array library's SIMD loops, which may round differently from one CPU to
another: so a report's bits do not depend on the CPU.  For real a a head
factor can be negative (possible only for p <= 7): it enters as log|F_p|
and flips the product's sign.  A factor that vanishes (1 + a/(p-1+s) == 0,
possible only for p <= 11) marks the product exactly zero.  The primes
Q < p <= P = TRUNCATION_PRIME (the series) contribute sum_{j=2..J} c_j *
S_j(P), where S_j(P) = sum_{Q<p<=P} p^(-j).  Those sums, with pi(P) and
sum_{p<=P} p^(-2), are frozen in _PRIME_SUMS, each the math.fsum of its
double terms (1.0/p squared, times 1.0/p per further power) over the
primes up to P: nothing computes them at run time.  A call therefore
costs pi(Q) = 168 log terms and J products.

Series remainder, J = SERIES_TERMS.  For j > J, |c_j| <= (|b|^j + |b-a|^j +
|a|)/(J+1).  For t < Q and p > Q, sum_{j>J} (t/p)^j <= t^(J+1) p^-(J+1) /
(1 - t/Q), and sum_{p>Q} p^-(J+1) <= integral_Q^inf x^-(J+1) dx = Q^-J / J.
Hence the dropped terms add up to at most

    E_J(a, s) = (T(|b|) + T(|b-a|) + |a| T(1)) / (J (J+1) Q^J),
    T(t) = t^(J+1) / (1 - t/Q).

Inside the validated range (|a| <= 10, 0 <= s <= 5: |b| <= 4, |b-a| <= 14)
E_12 <= 5.2e-24.

Truncation tail.  Dropping p > P costs an explicit constant c(a, s) times
the exact remainder sum_{p > P} p^(-2), the latter obtained from the prime
zeta value at 2 minus the frozen partial sum over every p <= P.
Derivation of c(a, s), valid for p >= 1000, |a| <= 10, 0 <= s <= 5: with
u = a/(p-1+s),

    log F_p = a*(1-s)/(p*(p-1+s)) - u^2/2 - a/(2 p^2) + R,

where |R| <= |u|^3/(3(1-|u|)) + |a|/(2 p^3 (1-1/p)) from the Taylor
remainders of log(1+u) and a*log(1-1/p).  Using p-1+s >= 0.999 p and
1/p <= 1e-3 gives

    |log F_p| <= (1.01*|a|*|1-s| + 0.51*|a|^2 + 0.51*|a| + 0.001*|a|^3) / p^2.

The reported tail_bound is this truncation tail plus E_J(a, s).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .base import primes_up_to

EULER_GAMMA = 0.577215664901532860606512090082
PRIME_ZETA_2 = 0.452247420041065498506543364832

R_CEILING = 4.0
TRUNCATION_PRIME = 10_000_000
MIN_TRUNCATION = 1000
SERIES_TERMS = 12

# (pi(P), sum_{p<=P} p^-2, (S_2, ..., S_J)) at P = TRUNCATION_PRIME, S_j over
# MIN_TRUNCATION < p <= P (module docstring), as python3 tests/oracles.py
# prints them.
_PRIME_SUMS = (664579, float.fromhex("0x1.cf19f2366e97bp-2"), tuple(map(float.fromhex, (
    "0x1.0a4dfaae6483dp-13", "0x1.2118858438862p-24", "0x1.94872d78727f1p-35",
    "0x1.3b72bf9b422c7p-45", "0x1.0557689be0d02p-55", "0x1.c21a7be3c2738p-66",
    "0x1.8e20a337e5468p-76", "0x1.6720dd9b286f4p-86", "0x1.48d327bacfebcp-96",
    "0x1.30a0fd63a00c3p-106", "0x1.1ce291a4f5dabp-116",
))))


class PoleError(ValueError):
    """Evaluation point within 1e-6 of a pole of the product."""


class EulerProductResult(namedtuple("EulerProductResult",
                                    "value truncation_prime tail_bound primes_used")):
    """Truncated product value (complex or float) plus a rigorous bound on
    |log full - log truncated|; the truncation is TRUNCATION_PRIME, and
    primes_used is pi of it."""

    __slots__ = ()


def level_ratio(k: int, x: float) -> float:
    """Relative level r = (k - 1)/loglog(x) of a k-factor level set at scale x."""
    if k < 1:
        raise ValueError("k < 1")
    if x <= math.e:
        raise ValueError("x <= e: loglog(x) undefined or nonpositive")
    r = (k - 1) / math.log(math.log(x))
    if not 0.0 <= r <= R_CEILING:
        raise ValueError(f"r={r:.4f} outside [0, {R_CEILING}] for k={k}, x={x:g}")
    return r


def normal_cdf(y: float) -> float:
    """Standard normal distribution function, |error| <= 1e-12 over the reals."""
    return 0.5 * math.erfc(-y / math.sqrt(2.0))


def _tail_constant(a: complex, s: float) -> float:
    m = abs(a)
    return 1.01 * m * abs(1.0 - s) + 0.51 * m * m + 0.51 * m + 0.001 * m**3


def _series_remainder(a: complex | float, s: float) -> float:
    """E_J(a, s): bound on the series terms j > SERIES_TERMS over p > Q (module docstring)."""
    Q, J = MIN_TRUNCATION, SERIES_TERMS
    b = 1.0 - s
    weighted = ((1.0, abs(b)), (1.0, abs(b - a)), (abs(a), 1.0))
    total = sum(w * t ** (J + 1) / (1.0 - t / Q) for w, t in weighted)
    return total / (J * (J + 1) * float(Q) ** J)


@lru_cache(maxsize=1)
def _head_shifts_and_logs() -> tuple[tuple[float, float], ...]:
    """(p - 1, log1p(-1/p)) for each head prime p <= MIN_TRUNCATION, ascending:
    the parts of a head term that do not depend on a or s, taken once from
    the plain Python sieve, so the constants load no kernel."""
    return tuple((p - 1.0, math.log1p(-1.0 / p)) for p in primes_up_to(MIN_TRUNCATION))


def _log_core(a: complex | float, s: float):
    """(log |product|, tail_bound, primes_used, sign) for the shared factor shape.

    Exact log terms over the head primes p <= MIN_TRUNCATION plus the power
    series over the sums of _PRIME_SUMS (module docstring).  For real a a
    head factor may be negative (1 + a/(p-1+s) < 0, possible only for
    p <= 7): its log|factor| enters the sum and it flips sign.  A factor
    that vanishes exactly marks the whole product as exactly zero (sign 0)
    and is left out of the log sum.  Complex a takes principal logs,
    cmath.log(1 + u), in the same loop, sign 1.
    """
    m = abs(a)
    if m > 2.0 * R_CEILING + 2.0 + 1e-9:
        raise ValueError(f"|a|={m:.3f} outside tail-bound derivation range")
    if not 0.0 <= s <= R_CEILING + 1.0 + 1e-9:
        raise ValueError(f"shift s={s} outside [0, {R_CEILING + 1}]")
    is_complex = isinstance(a, complex) and a.imag != 0.0
    a_val = complex(a) if is_complex else float(a.real)
    count, inv_sq, power_sums = _PRIME_SUMS
    sign = 1
    terms = []
    for shift, log_q in _head_shifts_and_logs():
        u = a_val / (shift + s)
        if 1.0 + u == 0:
            sign = 0
            continue
        if is_complex:
            head = cmath.log(1.0 + u)
        elif u < -1.0:
            sign = -sign
            head = math.log1p(-2.0 - u)  # log|1 + u|
        else:
            head = math.log1p(u)
        terms.append(head + a_val * log_q)
    b = 1.0 - s
    terms += [
        (b**j - (b - a_val) ** j - a_val) / j * S_j
        for j, S_j in enumerate(power_sums, start=2)
    ]
    if is_complex:
        log_value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    else:
        log_value = math.fsum(terms)
    remainder = max(PRIME_ZETA_2 - inv_sq, 0.0) + 1e-12
    tail = _tail_constant(a_val, s) * remainder + _series_remainder(a_val, s)
    return log_value, tail, count, sign


def _exp(v: complex | float) -> complex | float:
    """exp by cmath for a complex argument, by math otherwise."""
    return cmath.exp(v) if isinstance(v, complex) else math.exp(v)


def _assemble(prefactor, core) -> EulerProductResult:
    log_value, tail, count, sign = core
    value = complex(0.0 if sign == 0 else sign * prefactor * _exp(log_value))
    if value.imag == 0.0:
        value = value.real
    return EulerProductResult(
        value=value, truncation_prime=TRUNCATION_PRIME, tail_bound=tail, primes_used=count
    )


def _check_z(z: complex | float):
    if not abs(z) <= R_CEILING + 1e-9:  # a nan z fails too
        raise ValueError(f"|z|={abs(z):.3f} exceeds ceiling {R_CEILING}")


def _check_r(r: float):
    if not 0.0 <= r <= R_CEILING:
        raise ValueError(f"r={r} outside [0, {R_CEILING}]")


def level_density_constant(r: float) -> EulerProductResult:
    """prod_p (1 + r/(p-1)) (1 - 1/p)^r / Gamma(r+1).

    Mean-value density constant of the k-factor level set; equals 1 at r = 0.
    """
    _check_r(r)
    return _assemble(1.0 / math.gamma(r + 1.0), _log_core(float(r), 0.0))


def tilted_level_constant(r: float) -> EulerProductResult:
    """prod_p (1 + (r+1)/(p-1)) (1 - 1/p)^(r+1) / Gamma(r+1).

    Leading constant of the weighted level-set mass; equals 1 at r = 0, and
    factors exactly as level_density_constant(r) * tilt_product(r, 1).
    """
    _check_r(r)
    return _assemble(1.0 / math.gamma(r + 1.0), _log_core(float(r) + 1.0, 0.0))


def tilt_product(r: float, z: complex | float) -> EulerProductResult:
    """exp(gamma (2z-2)) prod_p (1 + (2z-1)/(p-1+r)) (1 - 1/p)^(2z-1).

    Euler factor of the weighted generating function; equals exp(-gamma)
    exactly at z = 1/2 (every p-factor is 1).
    """
    _check_r(r)
    _check_z(z)
    a = 2.0 * z - 1.0
    pre = _exp(EULER_GAMMA * (2.0 * z - 2.0))
    return _assemble(pre, _log_core(a, float(r)))


def tilt_profile(r: float, z: complex | float) -> EulerProductResult:
    """exp(gamma (2z-2)) prod_p (1 + (2z-2)/(p+r)) (1 - 1/p)^(2z-2).

    Normalized profile tilt_product(r, z)/tilt_product(r, 1): identically 1 at
    z = 1, and exactly 0 at (r, z) = (0, 0) where the p = 2 factor vanishes.
    """
    _check_r(r)
    _check_z(z)
    a = 2.0 * z - 2.0
    pre = _exp(EULER_GAMMA * a)
    return _assemble(pre, _log_core(a, float(r) + 1.0))


def coprimality_density(ell: int, y: float) -> EulerProductResult:
    """Density constant of the level set restricted to n coprime to ell:

        prod_p (1 + y/(p-1)) (1 - 1/p)^y / Gamma(y+1)
            * prod_{p | ell} (1 + y/(p-1))^(-1).

    y is real: a complex y with a nonzero imaginary part is a ValueError.
    Equals 1 at y = 0 for every ell.  Points within 1e-6 of a pole
    y = 1 - p for p | ell are rejected.
    """
    if ell < 1:
        raise ValueError("ell < 1")
    if isinstance(y, complex) and y.imag != 0.0:
        raise ValueError(f"y={y} is complex; coprimality_density takes a real y")
    y = float(y.real)
    _check_z(y)
    from .primes import factorize

    pdiv = [p for p, _ in factorize(ell)]
    for p in pdiv:
        if abs(y - (1 - p)) < 1e-6:
            raise PoleError(f"y={y} within 1e-6 of pole at {1 - p} (p={p} | ell)")
    correction = 1.0
    for p in pdiv:
        correction /= 1.0 + y / (p - 1.0)
    if y + 1.0 <= 0.0 and y == int(y):
        pre = 0.0  # 1/Gamma vanishes at its poles
    else:
        pre = correction / math.gamma(y + 1.0)
    return _assemble(pre, _log_core(y, 0.0))
