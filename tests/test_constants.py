"""Euler-product constants against frozen high-precision oracle values.

The frozen strings were produced by tests/oracles.py (mpmath, 40 digits,
prime-zeta tail; see that module).  Each package value must match the
oracle within the package's own reported truncation tail bound, which
makes the bound itself part of what is being tested.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import pytest

import oracles
from omegashift.constants import (
    EULER_GAMMA,
    MIN_TRUNCATION,
    PRIME_ZETA_2,
    EulerProductResult,
    PoleError,
    coprimality_density,
    level_density_constant,
    level_ratio,
    normal_cdf,
    tilt_product,
    tilt_profile,
    tilted_level_constant,
)
from omegashift.constants import _log_core, _prime_sums, _series_remainder

P_TEST = 1_000_000

# 30-digit values from the independent mpmath oracle (python3 tests/oracles.py)
FROZEN = {
    ("level_density", 0.25): "1.1909633268725938880868242086",
    ("level_density", 0.5): "1.2378128982640957809286607568",
    ("level_density", 1.0): "1.0",
    ("level_density", 2.0): "0.303963550927013314331638389629",
    ("tilted_level", 0.25): "1.00606922261242075052864803883",
    ("tilted_level", 0.5): "0.91636316595575308762700762925",
    ("tilted_level", 1.0): "0.607927101854026628663276779258",
    ("tilted_level", 2.0): "0.143373714217239367053946356395",
    ("tilt_product", 1.0, 2.0): "0.364437342617421700541689197099",
    ("tilt_profile", 0.25, 2.338): "0.634539642185173764978123264103",
    ("coprimality", 1, 1.0): "1.0",
    ("coprimality", 6, 1.0): "0.333333333333333333333333333333",
    ("coprimality", 12, 1.5): "0.1396362919551623752574487816",
}
FROZEN_COMPLEX = {
    ("tilt_product", 0.5): complex(
        0.7475594117818108732402161777531, 0.090233763966213991087165679019854
    ),
    ("tilt_profile", 0.5): complex(
        1.0097947151303615859365021236554, 0.12188673775402576860162964256189
    ),
}
Z_COMPLEX = 0.8 + 0.3j


def _want(key) -> float:
    return float(mp.mpf(FROZEN[key]))


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0])
def test_level_density_frozen(r):
    got = level_density_constant(r, P_TEST)
    assert abs(got.value - _want(("level_density", r))) <= got.tail_bound


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0])
def test_tilted_level_frozen(r):
    got = tilted_level_constant(r, P_TEST)
    assert abs(got.value - _want(("tilted_level", r))) <= got.tail_bound


def test_tilt_product_frozen():
    got = tilt_product(1.0, 2.0, P_TEST)
    assert abs(got.value - _want(("tilt_product", 1.0, 2.0))) <= got.tail_bound
    gc = tilt_product(0.5, Z_COMPLEX, P_TEST)
    assert abs(gc.value - FROZEN_COMPLEX[("tilt_product", 0.5)]) <= gc.tail_bound


def test_tilt_profile_frozen():
    got = tilt_profile(0.25, 2.338, P_TEST)
    assert abs(got.value - _want(("tilt_profile", 0.25, 2.338))) <= got.tail_bound
    gc = tilt_profile(0.5, Z_COMPLEX, P_TEST)
    assert abs(gc.value - FROZEN_COMPLEX[("tilt_profile", 0.5)]) <= gc.tail_bound


@pytest.mark.parametrize("ell,y", [(1, 1.0), (6, 1.0), (12, 1.5)])
def test_coprimality_frozen(ell, y):
    got = coprimality_density(ell, y, P_TEST)
    assert abs(got.value - _want(("coprimality", ell, y))) <= got.tail_bound


def test_oracle_machinery_reproduces_a_frozen_value():
    # cheap re-derivation so the frozen table stays tied to live oracle code
    fresh = oracles.tilted_level_mp(mp.mpf(0.5), P0=2000, terms=12, dps=30)
    assert abs(float(fresh) - _want(("tilted_level", 0.5))) < 1e-12


def test_exact_identities():
    assert tilted_level_constant(0.0, P_TEST).value == 1.0
    assert level_density_constant(0.0, P_TEST).value == 1.0
    # h(1/2) = e^-gamma holds per prime, so truncation does not matter
    got = tilt_product(0.5, 0.5, P_TEST)
    assert abs(got.value - math.exp(-EULER_GAMMA)) < 1e-12
    for r in (0.0, 0.25, 1.0, 2.0):
        assert abs(tilt_profile(r, 1.0, P_TEST).value - 1.0) < 1e-12
    # the p=2 factor of the profile vanishes at r=0, z=0; its prime still
    # counts toward the truncation tail
    zero = tilt_profile(0.0, 0.0, P_TEST)
    assert zero.value == 0.0
    assert zero.tail_bound < 1e-6


def test_tilted_equals_density_times_product():
    for r in (0.0, 0.25, 0.5, 1.0, 2.0):
        a = tilted_level_constant(r, P_TEST).value
        c = level_density_constant(r, P_TEST).value
        h = tilt_product(r, 1.0, P_TEST).value
        assert abs(a - c * h) < 1e-9


def test_profile_is_product_ratio():
    for r in (0.25, 1.0):
        for z in (0.5, 1.5, Z_COMPLEX):
            h_z = tilt_product(r, z, P_TEST).value
            h_1 = tilt_product(r, 1.0, P_TEST).value
            prof = tilt_profile(r, z, P_TEST).value
            assert abs(prof - h_z / h_1) < 5e-7


def test_coprimality_strips_prime_factors():
    base = coprimality_density(1, 1.5, P_TEST).value
    l10 = coprimality_density(10, 1.5, P_TEST).value
    expect = base / ((1 + 1.5 / 1) * (1 + 1.5 / 4))
    assert abs(l10 - expect) < 1e-12
    # ell = 20 has the same prime support as 10
    assert coprimality_density(20, 1.5, P_TEST).value == l10


@pytest.mark.parametrize("ell,y", [(1, 0.5 + 0.3j), (6, -0.4 + 0.7j)])
def test_coprimality_rejects_complex_y(ell, y):
    with pytest.raises(ValueError, match="complex"):
        coprimality_density(ell, y, P_TEST)
    # a complex y on the real axis is the real y
    assert coprimality_density(ell, complex(y.real), P_TEST) == coprimality_density(
        ell, y.real, P_TEST
    )


def test_coprimality_vanishes_at_the_poles_of_gamma():
    # 1/Gamma(y + 1) = 0 at y = -1, -2, -3 when no p | ell puts a pole there
    for ell, y in ((1, -1.0), (1, -3.0), (5, -2.0)):
        assert coprimality_density(ell, y, P_TEST).value == 0.0


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import omegashift.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_coprimality_pole_rejected():
    with pytest.raises(PoleError):
        coprimality_density(2, -1.0, P_TEST)
    with pytest.raises(PoleError):
        coprimality_density(6, -2.0, P_TEST)
    # fine when the offending prime does not divide ell
    assert coprimality_density(3, -1.0 + 1e-3, P_TEST).value != 0


# (a, s): |a| = 10 at both ends of the shift range, tilt_profile's and
# tilt_product's a at z = 0.8+0.3i, and a point whose p = 2 factor vanishes.
# Real a = -10 has a negative factor at every s in range: (-10, 5), which
# tilt_profile(4, -4) reaches, has three (a negative product), and (-8, 0)
# has four.  -10 + 1e-6i takes the complex branch there instead.
TRUNCATED_POINTS = [
    (10.0, 0.0),
    (10.0, 5.0),
    (-10.0 + 1e-6j, 0.0),
    (-10.0 + 1e-6j, 5.0),
    (2 * Z_COMPLEX - 2, 1.5),
    (2 * Z_COMPLEX - 1, 0.5),
    (-2.0, 1.0),
    (-10.0, 5.0),
    (-8.0, 0.0),
]


@pytest.mark.parametrize("a,s", TRUNCATED_POINTS)
def test_log_core_matches_truncated_product(a, s):
    # the exact log sum over every p <= P, independent of the head/series split
    for P in (MIN_TRUNCATION, 1009, 10**4, 10**5):
        want, want_sign = oracles.truncated_log_product_mp(a, s, P)
        log_value, _, count, sign = _log_core(a, s, P)
        assert abs(complex(log_value) - complex(want)) <= 1e-13
        assert sign == want_sign
        assert count == len(oracles._small_primes(P))
        assert isinstance(log_value, complex) == isinstance(a, complex)


def test_negative_head_factors_give_a_finite_signed_product():
    # tilt_profile(4, -4) is the product at a = -10, s = 5, negative there
    log_abs, sign = oracles.truncated_log_product_mp(-10.0, 5.0, 10**4)
    want = sign * math.exp(-10.0 * EULER_GAMMA + float(log_abs))
    assert want < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-4.0, complex(-4.0, 0.0)):
            got = tilt_profile(4.0, z, 10**4).value
            assert got == pytest.approx(want, rel=1e-12, abs=0), z


def test_series_remainder_at_the_ceiling():
    worst = max(
        _series_remainder(a, s)
        for a in (10.0, -10.0, 10j, -10j, 10 * complex(math.cos(0.5), math.sin(0.5)))
        for s in (0.0, 2.5, 5.0)
    )
    assert 0.0 < worst <= 1e-18


def test_tail_bound_shrinks_with_truncation():
    bounds = [tilted_level_constant(1.0, P).tail_bound for P in (10**4, 10**5, 10**6)]
    assert bounds[0] > bounds[1] > bounds[2] > 0
    values = [tilted_level_constant(1.0, P).value for P in (10**4, 10**5, 10**6)]
    # successive truncations must stay within the coarser bound of each other
    assert abs(values[0] - values[2]) <= bounds[0]
    assert abs(values[1] - values[2]) <= bounds[1]


def test_result_metadata():
    res = level_density_constant(0.5, P_TEST)
    assert isinstance(res, EulerProductResult)
    assert res.truncation_prime == P_TEST
    assert res.primes_used == 78498
    assert isinstance(res.value, float)
    cres = tilt_product(0.5, Z_COMPLEX, P_TEST)
    assert isinstance(cres.value, complex)


def test_argument_validation():
    with pytest.raises(ValueError):
        level_density_constant(-0.1, P_TEST)
    with pytest.raises(ValueError):
        level_density_constant(4.5, P_TEST)
    with pytest.raises(ValueError):
        level_density_constant(0.5, 100)  # truncation below the supported floor
    with pytest.raises(ValueError):
        tilt_product(0.5, 4.0 + 1.5j, P_TEST)  # |z| beyond the validated disc
    with pytest.raises(ValueError):
        coprimality_density(0, 1.0, P_TEST)


def test_level_ratio():
    assert abs(level_ratio(3, 10**8) - 2.0 / math.log(math.log(10**8))) < 1e-15
    assert level_ratio(1, 100) == 0.0
    with pytest.raises(ValueError):
        level_ratio(0, 100)
    with pytest.raises(ValueError):
        level_ratio(1, 2)
    with pytest.raises(ValueError, match=r"outside \[0, 4.0\]"):
        level_ratio(50, 100)  # r would exceed the ceiling


def test_normal_cdf_against_reference():
    # reference values from mpmath ncdf
    for y, want in [
        (0.0, 0.5),
        (1.0, 0.841344746068542948585232545632),
        (-1.0, 0.158655253931457051414767454368),
        (2.5, 0.993790334674224074222656462584),
    ]:
        assert abs(normal_cdf(y) - want) < 1e-15
    assert normal_cdf(-40.0) == 0.0
    assert normal_cdf(40.0) == 1.0


def test_module_constants_match_references():
    assert abs(EULER_GAMMA - 0.5772156649015328606) < 1e-18
    assert abs(PRIME_ZETA_2 - 0.4522474200410654985) < 1e-15


# (pi(P), sum_{p<=P} p^-2, S_2..S_12) with the sums as float.hex: the bits a
# prime-sums cache file of SUMS_VERSION 1 holds.  The cache round-trip tests
# compare _prime_sums only with itself, so a change to how it sums that moves
# one bit must bump SUMS_VERSION and refreeze these.
PRIME_SUMS_BITS = {
    1_000: (168, "0x1.cef8a87718cb2p-2", ("0x0.0p+0",) * 11),
    10_000: (1229, "0x1.cf175fe2a5598p-2", (
        "0x1.eb76b8c8e698dp-14", "0x1.1ee5d97458ad6p-24", "0x1.943944ad00be6p-35",
        "0x1.3b6cb9a4dc7dbp-45", "0x1.0556e9d225e44p-55", "0x1.c21a6633426d4p-66",
        "0x1.8e20a14fbb9a2p-76", "0x1.6720dd6f5c799p-86", "0x1.48d327b6d23a7p-96",
        "0x1.30a0fd6341ca2p-106", "0x1.1ce291a4ed122p-116",
    )),
    1_048_577: (82025, "0x1.cf19ee488abacp-2", (
        "0x1.0a2e8b8f7d802p-13", "0x1.21187cae541eap-24", "0x1.94872d75718f5p-35",
        "0x1.3b72bf9b419b5p-45", "0x1.0557689be0d00p-55", "0x1.c21a7be3c2739p-66",
        "0x1.8e20a337e5467p-76", "0x1.6720dd9b286f5p-86", "0x1.48d327bacfebcp-96",
        "0x1.30a0fd63a00c3p-106", "0x1.1ce291a4f5dabp-116",
    )),
    2_000_003: (148934, "0x1.cf19f06f5512dp-2", (
        "0x1.0a3fc1e23ddb7p-13", "0x1.211883416880ap-24", "0x1.94872d7809334p-35",
        "0x1.3b72bf9b42220p-45", "0x1.0557689be0d02p-55", "0x1.c21a7be3c2739p-66",
        "0x1.8e20a337e5467p-76", "0x1.6720dd9b286f5p-86", "0x1.48d327bacfebcp-96",
        "0x1.30a0fd63a00c3p-106", "0x1.1ce291a4f5dabp-116",
    )),
    10_000_000: (664579, "0x1.cf19f2366e97ap-2", (
        "0x1.0a4dfaae6483ep-13", "0x1.2118858438862p-24", "0x1.94872d78727f0p-35",
        "0x1.3b72bf9b422c7p-45", "0x1.0557689be0d02p-55", "0x1.c21a7be3c2739p-66",
        "0x1.8e20a337e5467p-76", "0x1.6720dd9b286f5p-86", "0x1.48d327bacfebcp-96",
        "0x1.30a0fd63a00c3p-106", "0x1.1ce291a4f5dabp-116",
    )),
}


@pytest.mark.parametrize("P", sorted(PRIME_SUMS_BITS))
def test_prime_sums_bits_are_pinned(P):
    count, inv_sq, powers = _prime_sums(P)
    assert (count, inv_sq.hex(), tuple(v.hex() for v in powers)) == PRIME_SUMS_BITS[P]
