"""Generating-function layer: kernel, convolution identity, coefficients.

The kernel g and phi f are polynomials in Z[z], tuples of ints; each is
compared with the oracles' values at deg + 1 rational points, exactly,
which fixes a polynomial of that degree.
"""

import cmath
import math
from fractions import Fraction

import pytest

import oracles
from omegashift import genfun
from omegashift.constants import tilt_product
from omegashift.genfun import (
    characteristic_profile,
    convolution_mismatch,
    eval_genfun,
    extract_coefficients,
    kernel_value,
    phi_prime_power,
    phi_weighted_kernel,
)
from omegashift.sieve import grid_histograms


def _points(count: int) -> list[Fraction]:
    """count distinct rational z, as many as fix a polynomial of degree count - 1."""
    return [Fraction(3 * j - 4, 7) for j in range(count)]


def test_kernel_values_match_oracle():
    for w in (2, 10, 97):
        for p in (2, 3, 5, 11, 97, 101):
            for alpha in (1, 2, 3, 4):
                got = kernel_value(p, alpha, w)
                assert all(type(c) is int for c in got) and got[-1:] != (0,)
                for z in _points(2):
                    assert oracles.polynomial_at(got, z) == oracles.kernel_g(p, alpha, w, z), (
                        p, alpha, w, z)
    assert [kernel_value(3, alpha, 3) for alpha in (1, 2, 3)] == [(-2, 2), (1, -2), ()]
    assert [kernel_value(5, alpha, 3) for alpha in (1, 2, 3)] == [(), (-1,), ()]


def _planes(x, w):
    return grid_histograms([(x, w)])[x, w]


def test_kernel_input_validation():
    for not_prime in (4, 1, 0, -3, 91, 3 * 2**40):
        with pytest.raises(ValueError, match="not prime"):
            kernel_value(not_prime, 1, 10)
    with pytest.raises(ValueError):
        kernel_value(2, 0, 10)
    calls = (lambda w: kernel_value(2, 1, w), lambda w: convolution_mismatch(10, w),
             lambda w: phi_prime_power(2, 1, w), lambda w: phi_weighted_kernel(1, w))
    for call in calls:
        with pytest.raises(ValueError, match="w < 2"):
            call(1)
    with pytest.raises(ValueError, match="n_max < 2"):
        convolution_mismatch(1, 10)


def test_one_disc_check_for_kernel_genfun_and_tilt_product():
    J = grid_histograms([(1000, 10)])[1000, 10][2]
    calls = [lambda z: eval_genfun(J, z), lambda z: tilt_product(0.5, z)]
    for call in calls:
        for z, shown in ((4 + 1e-6, "4.000"), (complex(0, -4 - 1e-6), "4.000"),
                         (math.nan, "nan"), (complex(math.nan, 0), "nan")):
            with pytest.raises(ValueError) as info:
                call(z)
            assert str(info.value) == f"|z|={shown} exceeds ceiling 4.0"
        for z in (4.0, -4.0, 4j, complex(2.4, -3.2)):  # on the circle |z| = 4
            call(z)


def test_convolution_identity_single_values():
    # the oracle's divisor sum over the library's kernel values, at
    # omega(n, w) + 1 rational points
    def g(p, alpha, w, z):
        return oracles.polynomial_at(kernel_value(p, alpha, w), z)

    for n in (1, 2, 12, 36, 97, 1024, 30030):
        for z in _points(oracles.omega_pair(n, 10)[1] + 1):
            lhs, rhs = oracles.convolution_sides(n, 10, z, g=g)
            assert lhs == rhs, (n, z)


def test_convolution_identity_bulk():
    for w in (2, 10, 97, 3000):
        assert convolution_mismatch(3000, w) == 0, w


def test_convolution_identity_at_the_smallest_n_max(monkeypatch):
    for n_max in (2, 3):
        for w in (2, 3):
            assert convolution_mismatch(n_max, w) == 0
    real = genfun.kernel_value
    monkeypatch.setattr(genfun, "kernel_value",
                        lambda p, a, w: tuple(-c for c in real(p, a, w)))
    assert convolution_mismatch(2, 2) == 2


def test_convolution_mismatch_is_the_first_failing_n(monkeypatch):
    real = genfun.kernel_value

    def wrong_square(p, alpha, w):  # g(p^2) = +1 above w
        return (1,) if p > w and alpha == 2 else real(p, alpha, w)

    monkeypatch.setattr(genfun, "kernel_value", wrong_square)
    assert [convolution_mismatch(1000, w) for w in (2, 3, 10)] == [9, 25, 121]

    def tilted(p, alpha, w):  # the z coefficient of g(p) one too large
        return (-2, 3) if alpha == 1 and p <= w else real(p, alpha, w)

    monkeypatch.setattr(genfun, "kernel_value", tilted)
    assert convolution_mismatch(1000, 10) == 2


def test_phi_prime_power_closed_forms():
    for w in (2, 10, 97):
        for p in (2, 3, 5, 7, 11, 53, 97):
            for e in range(1, 7):
                got = phi_prime_power(p, e, w)
                assert len(got) == 2 and all(type(c) is int for c in got)
                for z in _points(2):
                    want = oracles.phi_via_enumeration(p**e, w, z)
                    assert oracles.polynomial_at(got, z) == want, (p, e, w, z)


def test_phi_multiplicative_and_at_one():
    # the product over prime powers against the oracle's divisor sum, at
    # omega(l) + 1 rational points
    assert phi_weighted_kernel(1, 10) == (1,)
    ells = [*range(1, 400), *(a * b for a, b in ((4, 9), (8, 15), (25, 77), (16, 81), (5, 5042)))]
    for ell in ells:
        got = phi_weighted_kernel(ell, 10)
        assert len(got) == len(oracles.factorize(ell)) + 1
        for z in _points(len(got)):
            want = oracles.phi_via_enumeration(ell, 10, z)
            assert oracles.polynomial_at(got, z) == want, (ell, z)


def test_phi_rejects_bad_input():
    with pytest.raises(ValueError):
        phi_weighted_kernel(0, 10)
    with pytest.raises(ValueError):
        phi_prime_power(2, 0, 10)
    for not_prime in (6, 1, 0, 49):
        with pytest.raises(ValueError, match="not prime"):
            phi_prime_power(not_prime, 2, 10)


def _direct_genfun(triples, k, z, w_is_table=True):
    return sum((1 << v) * z**u for kk, v, u in triples if kk == k)


def test_eval_genfun_matches_direct_sum():
    x, w = 2000, 10
    H = _planes(x, w)
    triples = oracles.level_triples(x, w)
    for k in (1, 2, 3):
        for z in (1.0, -0.5, 0.3 + 0.7j):
            got = eval_genfun(H[k], z)
            want = _direct_genfun(triples, k, complex(z))
            assert abs(got.value - want) < 1e-9 * max(1.0, abs(want))
            assert got.terms == sum(1 for kk, _, _ in triples if kk == k)
    # z = 1 collapses to the plain weighted mass
    v1 = eval_genfun(H[2], 1.0)
    assert v1.weight_total == int(round(v1.value.real))


def test_eval_genfun_z_zero_counts_no_small_factor_mass():
    x, w = 2000, 10
    triples = oracles.level_triples(x, w)
    got = eval_genfun(_planes(x, w)[2], 0.0)
    want = sum(1 << v for kk, v, u in triples if kk == 2 and u == 0)
    assert abs(got.value - want) < 1e-9


def test_eval_genfun_validation():
    with pytest.raises(ValueError):
        eval_genfun(_planes(100, 10)[2], 4.5)  # |z| above the radius
    with pytest.raises(ValueError):
        eval_genfun(_planes(100, 10)[2], float("nan"))


def test_extract_coefficients_match_slices():
    x, w = 5000, 10
    H = _planes(x, w)
    triples = oracles.level_triples(x, w)
    for k in (1, 2, 3, 4):
        coeffs = extract_coefficients(H[k])
        direct = {}
        for kk, v, u in triples:
            if kk == k:
                direct[u] = direct.get(u, 0) + (1 << v)
        assert all(type(c) is int for c in coeffs)
        assert coeffs == [direct.get(u, 0) for u in range(max(direct) + 1)]
        assert sum(coeffs) == sum(direct.values())


def test_extract_coefficients_degenerate_level():
    # x = 10, k = 3 has no members; k = 2 at w = 2 spans u in {0, 1}
    H = _planes(10, 2)
    assert extract_coefficients(H[3]) == [0]
    # members 6 = 2*3 (n-1 = 5: v=1,u=0) and 10 = 2*5 (n-1 = 9: v=1,u=0)
    assert extract_coefficients(H[2]) == [4]


def test_characteristic_profile_normalization():
    x, w = 20_000, 97
    pts = characteristic_profile(_planes(x, w)[2], w, [0.0, 0.5, -0.5, 2.0])
    by_t = {p.t: p for p in pts}
    assert abs(by_t[0.0].psi - 1.0) < 1e-12
    assert abs(by_t[0.0].gaussian_gap) < 1e-12
    for p in pts:
        assert abs(p.psi) <= 1.0 + 1e-12
        assert abs(p.gaussian_gap - abs(p.psi - cmath.exp(-p.t * p.t / 2))) < 1e-12
    # conjugate symmetry of the profile
    assert abs(by_t[0.5].psi - by_t[-0.5].psi.conjugate()) < 1e-12


def test_characteristic_profile_against_direct_sum():
    x, w = 2000, 10
    H = _planes(x, w)
    triples = oracles.level_triples(x, w)
    T = 2.0 * math.log(math.log(w))
    t = 0.7
    z = cmath.exp(1j * t / math.sqrt(T))
    num = sum((1 << v) * z**u for kk, v, u in triples if kk == 2)
    den = sum((1 << v) for kk, v, u in triples if kk == 2)
    want = cmath.exp(-1j * t * math.sqrt(T)) * num / den
    (pt,) = characteristic_profile(H[2], w, [t])
    assert abs(pt.psi - want) < 1e-12
    with pytest.raises(ValueError):
        characteristic_profile(H[9], w, [t])  # empty level set
    with pytest.raises(ValueError):
        characteristic_profile(H[2], 2, [t])  # 2 loglog w <= 0
