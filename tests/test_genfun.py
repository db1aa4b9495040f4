"""Generating-function layer: kernel, convolution identity, coefficients."""

import cmath
import math

import pytest

import oracles
from omegashift import genfun, verify
from omegashift.constants import tilt_product
from omegashift.genfun import (
    WeightKernel,
    characteristic_profile,
    convolution_max_deviation,
    eval_genfun,
    extract_coefficients,
    kernel_value,
    phi_prime_power,
    phi_weighted_kernel,
)
from omegashift.sieve import grid_histograms

Z_SET = (0.0, 1.0, -1.0, 1.0j, 1.7 + 0.3j)


def test_kernel_values_match_oracle():
    for w in (2, 10, 97):
        for z in Z_SET:
            kern = WeightKernel(w=w, z=z)
            for p in (2, 3, 5, 11, 97, 101):
                for alpha in (1, 2, 3, 4):
                    got = kernel_value(p, alpha, kern)
                    want = oracles.kernel_g(p, alpha, w, z)
                    assert got == want, (p, alpha, w, z)


def _planes(x, w):
    return grid_histograms([(x, w)])[x, w]


def test_kernel_input_validation():
    kern = WeightKernel(w=10, z=1.0)
    for not_prime in (4, 1, 0, -3, 91, 3 * 2**40):
        with pytest.raises(ValueError, match="not prime"):
            kernel_value(not_prime, 1, kern)
    with pytest.raises(ValueError):
        kernel_value(2, 0, kern)
    with pytest.raises(ValueError):
        WeightKernel(w=1, z=1.0)
    with pytest.raises(ValueError):
        WeightKernel(w=10, z=5.0)  # outside the configured disc
    with pytest.raises(ValueError):
        WeightKernel(w=10, z=complex("nan"))


def test_one_disc_check_for_kernel_genfun_and_tilt_product():
    J = grid_histograms([(1000, 10)])[1000, 10][2]
    calls = [lambda z: WeightKernel(w=10, z=z), lambda z: eval_genfun(J, z),
             lambda z: tilt_product(0.5, z)]
    for call in calls:
        for z, shown in ((4 + 1e-6, "4.000"), (complex(0, -4 - 1e-6), "4.000"),
                         (math.nan, "nan"), (complex(math.nan, 0), "nan")):
            with pytest.raises(ValueError) as info:
                call(z)
            assert str(info.value) == f"|z|={shown} exceeds ceiling 4.0"
        for z in (4.0, -4.0, 4j, complex(2.4, -3.2)):  # on the circle |z| = 4
            call(z)


def test_convolution_identity_single_values():
    # the oracle's divisor sum over the library's kernel values
    def g(p, alpha, w, z):
        return kernel_value(p, alpha, WeightKernel(w=w, z=z))

    for n in (1, 2, 12, 36, 97, 1024, 30030):
        lhs, rhs = oracles.convolution_sides(n, 10, 1.7 + 0.3j, g=g)
        assert abs(lhs - rhs) < 1e-10, n


def test_convolution_identity_bulk():
    for w in (2, 10):
        for z in Z_SET:
            dev = convolution_max_deviation(3000, WeightKernel(w=w, z=z))
            assert dev < 1e-10, (w, z)


def test_convolution_max_deviation_equals_the_scalar_loops():
    for n_max in (2, 17, 2000):
        for w in (2, 10, 97, 3000):
            for z in (*Z_SET, 0.83 + 0.41j):
                kern = WeightKernel(w=w, z=z)
                got = convolution_max_deviation(n_max, kern)
                assert got == oracles.convolution_deviation_loops(n_max, kern, kernel_value)


def _clear_convolution_caches():
    genfun._divisor_structure.cache_clear()
    genfun._target.cache_clear()


def test_convolution_calls_on_a_shared_structure_match_cold_calls():
    kernels = [WeightKernel(w=w, z=z) for w in (2, 97) for z in (1.7 + 0.3j, -1.0, 1.0j)]
    sizes = (2000, 3000, 2000, 17)
    cold = []
    for n_max in sizes:
        for kern in kernels:
            _clear_convolution_caches()
            cold.append(convolution_max_deviation(n_max, kern))
    _clear_convolution_caches()
    warm = [convolution_max_deviation(n_max, kern) for n_max in sizes for kern in kernels]
    assert warm == cold


def test_the_battery_builds_each_target_table_once(monkeypatch):
    # The battery's 15 calls at n_max = 2000 loop over z inside w, so the
    # one cached table serves each w's five calls.
    built = []
    real = genfun.build_omega_table

    def counted(config):
        built.append((config.x_max, config.w))
        return real(config)

    monkeypatch.setattr(genfun, "build_omega_table", counted)
    _clear_convolution_caches()
    ok, _ = verify._check_convolution_identity()
    assert ok
    assert built == [(2000, w) for w in verify.W_GRID]


def test_a_call_after_another_target_matches_a_cold_call():
    kern = WeightKernel(w=10, z=1.7 + 0.3j)
    _clear_convolution_caches()
    cold = convolution_max_deviation(500, kern)
    for n_max, w in ((500, 97), (600, 10), (500, 10)):
        convolution_max_deviation(n_max, WeightKernel(w=w, z=-1.0))
        assert convolution_max_deviation(500, kern) == cold, (n_max, w)


def test_divisor_structure_is_read_only():
    # The cached tau, p, a and m are tuples, which no caller can change.
    for seq in genfun._divisor_structure(100):
        assert type(seq) is tuple and len(seq) == 101
        with pytest.raises(TypeError, match="does not support item assignment"):
            seq[-1] = 0


def test_cached_target_is_read_only():
    for seq in genfun._target(100, 10):
        assert type(seq) is tuple and len(seq) == 100
        with pytest.raises(TypeError, match="does not support item assignment"):
            seq[-1] = 0


def test_convolution_identity_at_the_smallest_n_max(monkeypatch):
    for n_max in (2, 3):
        for w in (2, 3):
            for z in Z_SET:
                assert convolution_max_deviation(n_max, WeightKernel(w=w, z=z)) < 1e-12
    real = genfun.kernel_value
    monkeypatch.setattr(genfun, "kernel_value", lambda p, a, kern: -real(p, a, kern))
    assert convolution_max_deviation(2, WeightKernel(w=2, z=1.7 + 0.3j)) > 1.0  # n = 2


def test_phi_prime_power_closed_forms():
    for w in (2, 10, 97):
        for z in Z_SET:
            kern = WeightKernel(w=w, z=z)
            for p in (2, 3, 5, 7, 11, 53, 97):
                for e in range(1, 7):
                    got = phi_prime_power(p, e, kern)
                    want = oracles.phi_via_enumeration(p**e, w, z)
                    assert abs(got - want) < 1e-12, (p, e, w, z)


def test_phi_multiplicative_and_at_one():
    kern = WeightKernel(w=10, z=1.7 + 0.3j)
    assert phi_weighted_kernel(1, kern) == 1.0
    for a, b in ((4, 9), (8, 15), (25, 77), (16, 81), (5, 5042)):
        assert math.gcd(a, b) == 1
        fab = phi_weighted_kernel(a * b, kern)
        fa = phi_weighted_kernel(a, kern)
        fb = phi_weighted_kernel(b, kern)
        assert abs(fab - fa * fb) < 1e-12


def test_phi_rejects_bad_input():
    kern = WeightKernel(w=10, z=1.0)
    with pytest.raises(ValueError):
        phi_weighted_kernel(0, kern)
    for not_prime in (6, 1, 0, 49):
        with pytest.raises(ValueError, match="not prime"):
            phi_prime_power(not_prime, 2, kern)


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
