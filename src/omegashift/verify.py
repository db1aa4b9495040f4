"""Built-in verification battery.

verify_suite runs every check in one loop and prints one [PASS]/[FAIL]/[WARN]
line each; a check that raises is a FAIL at either level.  The fast level
finishes in seconds on small ranges.  Its counts are checked against
_trial_division, read from primes.factor_table, which calls no sieve.
tests/test_acceptance.py runs its convolution and Euler-product checks at a
larger scale as criteria 1 and 3.  The full level adds one check per group of
TREND_GATES, the one definition of the acceptance trend criteria, which
tests/test_acceptance.py asserts too; the first makes the one table-free
sieve pass (sieve.grid_histograms) for the k = 2 planes at 1e5..x_top.  Each
trend check ANDs its gates; a miss is a warning when x_top is below 1e7.
The battery computes in plain Python on tables, histograms and oracles of
ints.  Its three kernel checks compare g and phi f (genfun) as polynomials
in Z[z], tuples of ints, so each holds for every z at once, with no
tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from collections import namedtuple
from collections.abc import Callable

from . import constants, genfun
from .base import FULL_SCALES, OMEGA_CAP, primes_up_to
from .constants import (
    EULER_GAMMA,
    MIN_TRUNCATION,
    PRIME_ZETA_2,
    coprimality_density,
    level_density_constant,
    normal_cdf,
    tilt_product,
    tilt_profile,
    tilted_level_constant,
)
from .experiment import resolve_w
from .primes import factor_table
from .sieve import SieveConfig, build_omega_table, grid_histograms
from .stats import (
    gaussian_moment,
    gaussian_spec,
    ks_distance,
    ks_weighted_histogram,
    loglog,
    small_factor_prediction,
    weighted_mass,
    weighted_mass_at,
    weighted_mass_below,
    weighted_moment,
)

W_GRID = (2, 10, 97)
TREND_K = 2  # the level whose plane the trend gates read


class CheckResult(namedtuple("CheckResult", "name status detail seconds")):
    """One check's outcome: status is PASS, FAIL or WARN, and seconds the
    check's own wall time; the first full-level check's includes the shared
    grid pass."""

    __slots__ = ()


class VerifySummary(namedtuple("VerifySummary", "level results")):
    """The level run and the list of its CheckResults, in battery order."""

    __slots__ = ()

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if r.status == "FAIL")

    @property
    def warnings(self) -> int:
        return sum(1 for r in self.results if r.status == "WARN")

    def as_dict(self) -> dict:
        """One object per check plus the summary counts, for verify --json."""
        return {
            "level": self.level,
            "checks": [r._asdict() for r in self.results],
            "summary": {
                "checks": len(self.results),
                "failures": self.failures,
                "warnings": self.warnings,
            },
        }


def _histogram(x: int, w: int, **opts) -> list[list[list[int]]]:
    """H of the one pair (x, w), from grid_histograms, as nested lists of ints."""
    return grid_histograms([(x, w)], **opts)[x, w]


def _check_sieve_known_values():
    t12 = build_omega_table(SieveConfig(x_max=12, w=12))
    t30 = build_omega_table(SieveConfig(x_max=30, w=3))
    t10 = build_omega_table(SieveConfig(x_max=10, w=10)).omega.tolist()
    ok = (
        t12.omega[12] == 2
        and t12.omega_small[12] == 2
        and t30.omega[30] == 3
        and t30.omega_small[30] == 2
        and t30.omega[2:31].tolist().count(2) == 12
        and [n for n, k in enumerate(t10) if k == 1] == [2, 3, 4, 5, 7, 8, 9]
        and [n for n, k in enumerate(t10) if k == 2] == [6, 10]
        and 0 not in t10[2:11]
    )
    return ok, "12=2^2*3, 30=2*3*5, level sets at x=10"


def _trial_division(x: int, ws) -> tuple[tuple[int, ...], dict[int, list[int]]]:
    """omega(n) and {w: omega(n, w)} for 0 <= n <= x (0 at n = 0, 1), indexed
    by n, from primes.factor_table: omega(n, w) counts the smallest primes
    p(n), p(m(n)), p(m(m(n))), ... <= w along the chain of cofactors m, so
    omega(n, w) = [p(n) <= w] + omega(m(n), w), built in ascending n as
    m(n) < n."""
    p, _, m, omega = factor_table(x)
    small = {}
    for w in ws:
        counts = small[w] = [0] * (x + 1)
        for n in range(2, x + 1):
            counts[n] = (p[n] <= w) + counts[m[n]]
    return omega, small


def _triple_counts(omega, small, x: int) -> list[list[list[int]]]:
    """H[k][v][u]: how many 2 <= n <= x have omega(n) = k, omega(n - 1) = v
    and small(n - 1) = u."""
    H = [[[0] * OMEGA_CAP for _ in range(OMEGA_CAP)] for _ in range(OMEGA_CAP)]
    for n in range(2, x + 1):
        H[omega[n]][omega[n - 1]][small[n - 1]] += 1
    return H


def _check_sieve_vs_trial_division():
    """build_omega_table at one w, and one grid pass with w <= sqrt x, w > sqrt x
    and w = x on 1 and 3 threads, against _trial_division."""
    x, w = 3000, 13
    table = build_omega_table(SieveConfig(x_max=x, w=w))
    pairs = ((x, w), (x, 1009), (x, x), (2047, 2047), (1500, 60))
    omega, small = _trial_division(x, {pw for _, pw in pairs})
    got = list(zip(table.omega.tolist(), table.omega_small.tolist()))
    want = list(zip(omega, small[w]))
    if got[2:] != want[2:]:
        return False, f"mismatch at n={next(n for n in range(2, x + 1) if got[n] != want[n])}"
    wants = {(px, pw): _triple_counts(omega, small[pw], px) for px, pw in pairs}
    for threads in (1, 3):
        hists = grid_histograms(pairs, threads=threads, segment_length=1024)
        for px, pw in pairs:
            if hists[px, pw] != wants[px, pw]:
                return False, f"grid H of (x, w) = ({px}, {pw}) differs on {threads} threads"
    grid = ", ".join(f"({px}, {pw})" for px, pw in pairs)
    return True, (f"all n <= {x} match trial division (w={w}); "
                  f"grid H of {grid} match on 1 and 3 threads")


def _check_sieve_determinism():
    x, w = 50_000, 50
    ref = build_omega_table(SieveConfig(x_max=x, w=w, segment_length=1 << 14))
    for seg in (1024, 4096, 1 << 20):
        for th in (1, 3):
            t = build_omega_table(
                SieveConfig(x_max=x, w=w, segment_length=seg, threads=th)
            )
            if t != ref:
                return False, f"segment={seg} threads={th} differs"
    return True, "identical across segment lengths and thread counts"


def _check_partition_identity():
    x = 10_000
    table = build_omega_table(SieveConfig(x_max=x, w=10))
    levels = table.omega[2 : x + 1].tolist()
    pi = [levels.count(k) for k in range(16)]
    n_total = sum(pi[1:])
    if n_total != x - 1:
        return False, f"sum pi_k = {n_total} != {x - 1}"
    H = _histogram(x, 10)
    for k in range(16):
        if pi[k] != (level := sum(map(sum, H[k]))):
            return False, f"pi_{k} = {pi[k]} in the table, {level} in H"
    mass = sum(weighted_mass(H[k]) for k in range(1, 16))
    want = sum(1 << k for k in table.omega[1:x].tolist())
    if mass != want:
        return False, f"sum of level masses {mass} != {want}"
    return True, f"sum_k pi_k = x-1 and masses partition ({want})"


def _check_convolution_identity(n_max: int = 2000):
    for w in W_GRID:
        if n := genfun.convolution_mismatch(n_max, w):
            return False, f"g*tau != 2^om z^om_w at n={n}, w={w}"
    return True, f"g*tau = 2^om z^om_w in Z[z] for all n <= {n_max}, w in {W_GRID}"


def _check_phi_kernel_closed_forms():
    """Each phi(p^e) f(p^e) against its divisor sum sum_{b <= e/2} p^b g(p^(e-2b)):
    d = p^b, q = p^(e-2b) and phi(p^e) / phi(dq) = p^b."""
    for w in W_GRID:
        for p in (2, 3, 5, 7, 11, 13, 29):
            for e in range(1, 7):
                want = [0, 0]
                for b in range(e // 2 + 1):
                    g = genfun.kernel_value(p, e - 2 * b, w) if e > 2 * b else (1,)
                    for u, c in enumerate(g):
                        want[u] += p**b * c
                if genfun.phi_prime_power(p, e, w) != tuple(want):
                    return False, f"closed form differs at p={p}, e={e}, w={w}"
    return True, (f"phi(p^e) f(p^e) = sum_b p^b g(p^(e-2b)) in Z[z], p <= 29, e <= 6, "
                  f"w in {W_GRID}")


def _check_phi_kernel_multiplicative():
    """phi_weighted_kernel, a product over l's prime powers, against phi(l) f(l)
    from its definition, sum_{d^2 q = l} g(q) phi(l) / phi(dq), for l < 6400
    at w = 10; phi(dq) divides phi(l) as dq divides l.  g, phi and the
    factorizations come from primes.factor_table, g(q) = g(m) g(p^a) in
    ascending q."""
    ell_max, w = 6400, 10
    spf, alpha, cofactor, omega = factor_table(ell_max - 1)
    g, phi = [(), (1,)], [0, 1]
    for q in range(2, ell_max):
        m = cofactor[q]
        pa = q // m
        phi.append(phi[m] * (pa - pa // spf[q]))
        if m == 1:  # q = p^a
            g.append(genfun.kernel_value(spf[q], alpha[q], w))
        else:
            g.append(genfun._poly_mul(g[m], g[pa]) if g[m] else ())
    want = [[0] * (omega[ell] + 1) for ell in range(ell_max)]
    for d in range(1, math.isqrt(ell_max - 1) + 1):
        for q in range(1, (ell_max - 1) // (d * d) + 1):
            if g[q]:
                ell = d * d * q
                ratio = phi[ell] // phi[d * q]
                for u, c in enumerate(g[q]):
                    want[ell][u] += ratio * c
    for ell in range(1, ell_max):
        if genfun.phi_weighted_kernel(ell, w) != tuple(want[ell]):
            return False, f"product form differs from the definition at l={ell}"
    return True, (f"phi(l) f(l) as a product over p^e || l = its definition in Z[z] "
                  f"for l < {ell_max} (w={w})")


def _frozen_sums_off() -> list[str]:
    """Which of the frozen prime sums the Euler products read
    (constants._PRIME_SUMS, at the truncation 10^7) fail a cheap check:
    pi(10^7) = 664579; sum p^-2 below its limit PRIME_ZETA_2; and each S_j
    at least its partial sum over MIN_TRUNCATION < p <= n, and above it by at
    most the integral bound n^(1-j) / (j-1) on the sum over p > n."""
    n = 10_000
    count, inv_sq, powers = constants._PRIME_SUMS
    off = [] if count == 664_579 else ["pi"]
    if not inv_sq < PRIME_ZETA_2:
        off.append("p^-2")
    primes = [p for p in primes_up_to(n) if p > MIN_TRUNCATION]
    for j, got in enumerate(powers, 2):
        if not 0.0 <= got - math.fsum(1.0 / p**j for p in primes) <= n ** (1 - j) / (j - 1):
            off.append(f"S_{j}")
    return off


def _check_euler_identities():
    msgs = []
    ok = True
    dev0 = abs(tilted_level_constant(0.0).value - 1.0)
    ok &= dev0 < 1e-9
    msgs.append(f"|A(0)-1|={dev0:.1e}")
    for r in (0.0, 0.25, 0.5, 1.0, 2.0):
        a = tilted_level_constant(r).value
        c = level_density_constant(r).value
        h1 = tilt_product(r, 1.0).value
        dev = abs(a - c * h1)
        ok &= dev < 1e-9
        devh = abs(tilt_profile(r, 1.0).value - 1.0)
        ok &= devh < 1e-12
    msgs.append("A=C*h(1), H(r,1)=1")
    devg = abs(tilt_product(0.5, 0.5).value - math.exp(-EULER_GAMMA))
    ok &= devg < 1e-12
    msgs.append(f"|h(1/2)-e^-gamma|={devg:.1e}")
    l1 = coprimality_density(1, 1.0).value
    l6 = coprimality_density(6, 1.0).value
    ok &= abs(l6 - l1 / 3.0) < 1e-12
    msgs.append("lambda_6(1)=lambda_1(1)/3")
    ok &= tilt_profile(0.0, 0.0).value == 0.0
    msgs.append("H(0,0)=0")
    off = _frozen_sums_off()
    ok &= not off
    msgs.append(f"prime sums to 1e7 off at {', '.join(off)}" if off
                else "prime sums to 1e7 within their tail past 1e4")
    return bool(ok), "; ".join(msgs)


def _check_normal_cdf():
    ok = (
        abs(normal_cdf(0.0) - 0.5) < 1e-15
        and abs(normal_cdf(1.0) - 0.841344746068543) < 1e-9
        and normal_cdf(-8.0) < 1e-14
        and 1.0 - normal_cdf(8.0) < 1e-14
    )
    # strict monotonicity holds in float64 until the tails saturate near +-8.3
    grid = [normal_cdf(b / 4.0) for b in range(-32, 33)]
    ok &= all(a < b for a, b in zip(grid, grid[1:]))
    return bool(ok), "values and monotonicity"


def _check_coefficients_vs_direct():
    x = 10_000
    ws = (10, resolve_w("auto", x))
    omega, small = _trial_division(x, ws)
    for w in ws:
        # direct[k][u] sums 2^omega(n-1) over the n with omega(n) = k, omega(n-1, w) = u
        direct = [[0] * (max(small[w]) + 1) for _ in range(max(omega) + 1)]
        for n in range(2, x + 1):
            direct[omega[n]][small[w][n - 1]] += 1 << omega[n - 1]
        H = _histogram(x, w)
        for k in (1, 2, 3):
            coeffs = genfun.extract_coefficients(H[k])
            want = direct[k][: max(u for u, c in enumerate(direct[k]) if c) + 1]
            if coeffs != want:
                return False, f"w={w} k={k}: {coeffs} != {want}"
    return True, f"F_k coefficients equal trial-division slice masses (x={x}, k<=3)"


def _check_genfun_examples():
    J = _histogram(10, 2)[1]
    val = genfun.eval_genfun(J, 1.0)
    ok = (
        abs(val.value - 15.0) < 1e-12
        and val.weight_total == 15
        and genfun.extract_coefficients(J) == [5, 10]
    )
    ok &= weighted_mass(_histogram(10, 10)[2]) == 4
    return bool(ok), "F(x=10,k=1,w=2): F(1)=15, coeffs [5,10]; S_2(10)=4"


def _check_threshold_monotone():
    x = 10_000
    J = _histogram(x, 10)[2]
    total = weighted_mass(J)
    prev = -1
    for y in (0.5 * i - 4 for i in range(25)):  # -4, -3.5, ..., 8
        cur = weighted_mass_below(J, x, y)
        if cur < prev or cur > total:
            return False, f"not monotone at y={y}"
        prev = cur
    if prev != total:
        return False, "S(y=8) != S"
    return True, "nondecreasing in y, saturates at the full mass"


def _check_profile_modulus():
    x = 10_000
    J = _histogram(x, 10)[2]
    pts = genfun.characteristic_profile(J, 10, [0.5 * i - 3 for i in range(13)])  # -3..3
    worst = max(abs(p.psi) for p in pts)
    return worst <= 1.0 + 1e-12, f"max |psi| = {worst:.6f}"


def _check_stat_determinism():
    x, z = 10_000, 0.83 + 0.41j
    hists = [_histogram(x, 10, **opts) for opts in ({}, {"threads": 3, "segment_length": 1024})]
    if hists[0] != hists[1]:
        return False, "level histogram differs across sieve threads"
    values = [genfun.eval_genfun(H[2], z).value for H in hists]
    if values[0] != values[1]:
        return False, "eval_genfun differs across sieve threads"
    return True, "bit-identical statistics for sieve threads in {1, 3}"


def _check_ks_synthetic():
    center, scale = 20.0, 4.0
    vs = list(range(4, 37))
    cdf = [normal_cdf((v - center) / scale) for v in vs]
    weights = [0.0] * 64
    prev = 0.0
    for v, c in zip(vs, cdf):
        weights[v] = (c - prev) * 1e9
        prev = c
    weights[vs[-1]] += (1.0 - prev) * 1e9
    dist = ks_weighted_histogram(weights, center, scale)
    resolution = max(b - a for a, b in zip(cdf, cdf[1:]))
    return dist <= resolution + 1e-12, f"distance {dist:.4f} <= grid gap {resolution:.4f}"


_FAST_CHECKS = [
    ("sieve_known_values", _check_sieve_known_values),
    ("sieve_vs_trial_division", _check_sieve_vs_trial_division),
    ("sieve_determinism", _check_sieve_determinism),
    ("partition_identity", _check_partition_identity),
    ("convolution_identity", _check_convolution_identity),
    ("phi_kernel_closed_forms", _check_phi_kernel_closed_forms),
    ("phi_kernel_multiplicative", _check_phi_kernel_multiplicative),
    ("euler_identities", _check_euler_identities),
    ("normal_cdf", _check_normal_cdf),
    ("coefficients_vs_direct", _check_coefficients_vs_direct),
    ("genfun_examples", _check_genfun_examples),
    ("threshold_monotone", _check_threshold_monotone),
    ("profile_modulus", _check_profile_modulus),
    ("stat_determinism", _check_stat_determinism),
    ("ks_synthetic", _check_ks_synthetic),
]


def trend_pairs(x_top: int = FULL_SCALES[-1]) -> list[tuple[int, int]]:
    """The trend gates' (x, w) grid: each FULL_SCALES x <= x_top, loglog_sq w."""
    return [(x, resolve_w("loglog_sq", x)) for x in FULL_SCALES if x <= x_top]


def trend_planes(hists: dict) -> dict[int, tuple[int, list[list[int]]]]:
    """{x: (w, J = H[TREND_K])} from grid_histograms(trend_pairs(...)), ascending in x."""
    return {x: (w, hists[x, w][TREND_K]) for x, w in sorted(hists)}


def _top(planes):
    x = max(planes)
    return (x, *planes[x])


def _ks_trend(planes):
    ks = [ks_distance(J, x) for x, (_, J) in planes.items()]
    slack = 1.1  # each step may rise by at most 10%
    ok = all(0.0 <= d <= 1.0 for d in ks) and all(b <= slack * a for a, b in zip(ks, ks[1:]))
    return ok, f"ks(k={TREND_K}): " + ", ".join(f"{d:.4f}" for d in ks)


def _mean_location(planes):
    x, _, J = _top(planes)
    gap = abs(weighted_moment(J, x, 1)) * gaussian_spec(x).scale
    bound = 3.0
    return gap <= bound, f"|weighted mean - 2loglog x| = {gap:.3f} <= {bound} at x={x:.0e}"


def _moment_box(m, lo, hi):
    def gate(planes):
        x, _, J = _top(planes)
        value = weighted_moment(J, x, m)
        return lo <= value <= hi, f"m{m} = {value:.4f} in [{lo}, {hi}] at x={x:.0e}"
    return gate


def _moment_movement(planes):
    x0 = 1_000_000  # the moments at the top scale must be nearer their limits than here
    x, _, J = _top(planes)
    if x0 not in planes:
        return False, f"movement needs the scale x={x0:.0e}"
    ok, parts = True, []
    for m in (2, 4):
        a, b = weighted_moment(planes[x0][1], x0, m), weighted_moment(J, x, m)
        target = gaussian_moment(m)
        ok &= abs(b - target) <= abs(a - target)
        parts.append(f"m{m} {a:.4f}->{b:.4f} (target {target:g})")
    return ok, ", ".join(parts) + f" over x={x0:.0e}->{x:.0e}"


def _slice_profiles(planes):
    """Empirical and predicted omega(n-1, w) = ell slice masses at the top scale."""
    x, w, J = _top(planes)
    ell_top = int(3 * loglog(w))
    mass = weighted_mass(J)
    emp = [weighted_mass_at(J, l) for l in range(ell_top + 1)]
    theo = [small_factor_prediction(TREND_K, x, l, w, mass=mass)
            for l in range(ell_top + 1)]
    return emp, theo, f"ell <= {ell_top}, w={w}, x={x:.0e}"


def _profile_peak(planes):
    emp, theo, where = _slice_profiles(planes)
    a, b = emp.index(max(emp)), theo.index(max(theo))  # the first peak of each
    bound = 2
    return abs(a - b) <= bound, f"slice peaks {a} vs predicted {b}, gap <= {bound} ({where})"


def _pearson(a, b) -> float:
    """Pearson's correlation of two equal-length sequences, in floats, in the
    order of np.corrcoef: the covariances scaled by 1 / (n - 1), then divided
    by each standard deviation in turn (on the 1e8 slice profiles it gives
    np.corrcoef's bits)."""
    a, b = list(map(float, a)), list(map(float, b))
    scale = 1.0 / (len(a) - 1)
    mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
    da, db = [v - mean_a for v in a], [v - mean_b for v in b]
    cov = sum(map(operator.mul, da, db)) * scale
    sd_a, sd_b = (math.sqrt(sum(v * v for v in d) * scale) for d in (da, db))
    return cov / sd_a / sd_b


def _profile_pearson(planes):
    emp, theo, where = _slice_profiles(planes)
    corr = _pearson(emp, theo)
    bound = 0.9
    return corr > bound, f"slice pearson {corr:.5f} > {bound} ({where})"


def _psi_trend(planes):
    gaps = {t: [] for t in (0.5, 1.0, 2.0)}
    for w, J in planes.values():
        for p in genfun.characteristic_profile(J, w, list(gaps)):
            gaps[p.t].append(p.gaussian_gap)
    slack = 1.1  # the top scale's gap may exceed the first by at most 10%
    ok = all(g[-1] <= slack * g[0] for g in gaps.values())
    return ok, "psi gap " + "; ".join(f"t={t}: {g[0]:.4f}->{g[-1]:.4f}" for t, g in gaps.items())


class TrendGate(namedtuple("TrendGate", "label check predicate")):
    """An acceptance criterion's label, the full-level check it belongs to, and
    predicate(planes) -> (ok, detail), which holds the gate's bounds and inputs."""

    __slots__ = ()


# The only definition of the trend gates.  verify --level full ANDs each
# check's gates; tests/test_acceptance.py asserts every gate at 1e8.
TREND_GATES = (
    TrendGate("6a", "ks_trend", _ks_trend),
    TrendGate("6b", "mean_location", _mean_location),
    TrendGate("7a", "moment_trend", _moment_box(2, 0.5, 1.5)),
    TrendGate("7b", "moment_trend", _moment_box(4, 1.5, 4.5)),
    TrendGate("7c", "moment_trend", _moment_movement),
    TrendGate("8a", "profile_correlation", _profile_peak),
    TrendGate("8b", "profile_correlation", _profile_pearson),
    TrendGate("psi", "psi_trend", _psi_trend),
)


def _trend_checks(x_top: int) -> list[tuple[str, Callable[[], tuple[bool, str]], str]]:
    """(name, check, status if it does not hold) per group of TREND_GATES; each
    check ANDs its gates.  The first to run makes the one grid pass; if that
    raises, each check raises its exception.  Below 1e7 a miss is a WARN."""
    miss = "WARN" if x_top < FULL_SCALES[-2] else "FAIL"

    @functools.cache
    def planes():
        try:
            return trend_planes(grid_histograms(trend_pairs(x_top)))
        except Exception as exc:
            return exc

    def check(gates):
        def run():
            if isinstance(got := planes(), Exception):
                raise got
            outcomes = [gate.predicate(got) for gate in gates]
            return all(ok for ok, _ in outcomes), "; ".join(d for _, d in outcomes)
        return run

    groups = itertools.groupby(TREND_GATES, key=lambda g: g.check)
    return [(name, check(tuple(gates)), miss) for name, gates in groups]


def verify_suite(
    level: str = "fast", x_top: int = FULL_SCALES[-1], quiet: bool = False
) -> VerifySummary:
    """Run the named battery; returns a summary with failure/warning counts.

    The full level needs FULL_SCALES[0] <= x_top <= FULL_SCALES[-1]; any
    other x_top is rejected before any check runs.
    """
    if level not in ("fast", "full"):
        raise ValueError(f"level={level!r} (expected fast|full)")
    if level == "full" and x_top < FULL_SCALES[0]:
        raise ValueError(
            f"--x-top {x_top} is below {FULL_SCALES[0]}, the full battery's smallest scale"
        )
    if level == "full" and x_top > FULL_SCALES[-1]:
        raise ValueError(
            f"--x-top {x_top} is above {FULL_SCALES[-1]}, the full battery's largest scale"
        )
    checks = [(name, fn, "FAIL") for name, fn in _FAST_CHECKS]
    if level == "full":
        checks += _trend_checks(x_top)
    results: list[CheckResult] = []
    for name, fn, miss in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn()
            status = "PASS" if ok else miss
        except Exception as exc:  # a crash is a failure, not an abort
            status, detail = "FAIL", f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, status, detail, time.perf_counter() - start))
        if not quiet:
            print(f"[{status}] {name}: {detail}")
    summary = VerifySummary(level=level, results=results)
    if not quiet:
        print(
            f"{summary.level}: {len(results)} checks, "
            f"{summary.failures} failed, {summary.warnings} warnings"
        )
    return summary
