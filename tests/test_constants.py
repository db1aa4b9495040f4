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
from omegashift import constants
from omegashift.constants import (
    EULER_GAMMA,
    MIN_TRUNCATION,
    PRIME_ZETA_2,
    SERIES_TERMS,
    TRUNCATION_PRIME,
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
from omegashift.constants import _log_core, _series_remainder

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
    got = level_density_constant(r)
    assert abs(got.value - _want(("level_density", r))) <= got.tail_bound


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0])
def test_tilted_level_frozen(r):
    got = tilted_level_constant(r)
    assert abs(got.value - _want(("tilted_level", r))) <= got.tail_bound


def test_tilt_product_frozen():
    got = tilt_product(1.0, 2.0)
    assert abs(got.value - _want(("tilt_product", 1.0, 2.0))) <= got.tail_bound
    gc = tilt_product(0.5, Z_COMPLEX)
    assert abs(gc.value - FROZEN_COMPLEX[("tilt_product", 0.5)]) <= gc.tail_bound


def test_tilt_profile_frozen():
    got = tilt_profile(0.25, 2.338)
    assert abs(got.value - _want(("tilt_profile", 0.25, 2.338))) <= got.tail_bound
    gc = tilt_profile(0.5, Z_COMPLEX)
    assert abs(gc.value - FROZEN_COMPLEX[("tilt_profile", 0.5)]) <= gc.tail_bound


@pytest.mark.parametrize("ell,y", [(1, 1.0), (6, 1.0), (12, 1.5)])
def test_coprimality_frozen(ell, y):
    got = coprimality_density(ell, y)
    assert abs(got.value - _want(("coprimality", ell, y))) <= got.tail_bound


def test_oracle_machinery_reproduces_a_frozen_value():
    # cheap re-derivation so the frozen table stays tied to live oracle code
    fresh = oracles.tilted_level_mp(mp.mpf(0.5), P0=2000, terms=12, dps=30)
    assert abs(float(fresh) - _want(("tilted_level", 0.5))) < 1e-12


def test_exact_identities():
    assert tilted_level_constant(0.0).value == 1.0
    assert level_density_constant(0.0).value == 1.0
    # h(1/2) = e^-gamma holds per prime, so truncation does not matter
    got = tilt_product(0.5, 0.5)
    assert abs(got.value - math.exp(-EULER_GAMMA)) < 1e-12
    for r in (0.0, 0.25, 1.0, 2.0):
        assert abs(tilt_profile(r, 1.0).value - 1.0) < 1e-12
    # the p=2 factor of the profile vanishes at r=0, z=0; its prime still
    # counts toward the truncation tail
    zero = tilt_profile(0.0, 0.0)
    assert zero.value == 0.0
    assert zero.tail_bound < 1e-6


def test_tilted_equals_density_times_product():
    for r in (0.0, 0.25, 0.5, 1.0, 2.0):
        a = tilted_level_constant(r).value
        c = level_density_constant(r).value
        h = tilt_product(r, 1.0).value
        assert abs(a - c * h) < 1e-9


def test_profile_is_product_ratio():
    for r in (0.25, 1.0):
        for z in (0.5, 1.5, Z_COMPLEX):
            h_z = tilt_product(r, z).value
            h_1 = tilt_product(r, 1.0).value
            prof = tilt_profile(r, z).value
            assert abs(prof - h_z / h_1) < 5e-7


def test_coprimality_strips_prime_factors():
    base = coprimality_density(1, 1.5).value
    l10 = coprimality_density(10, 1.5).value
    expect = base / ((1 + 1.5 / 1) * (1 + 1.5 / 4))
    assert abs(l10 - expect) < 1e-12
    # ell = 20 has the same prime support as 10
    assert coprimality_density(20, 1.5).value == l10


@pytest.mark.parametrize("ell,y", [(1, 0.5 + 0.3j), (6, -0.4 + 0.7j)])
def test_coprimality_rejects_complex_y(ell, y):
    with pytest.raises(ValueError, match="complex"):
        coprimality_density(ell, y)
    # a complex y on the real axis is the real y
    assert coprimality_density(ell, complex(y.real)) == coprimality_density(ell, y.real)


def test_coprimality_vanishes_at_the_poles_of_gamma():
    # 1/Gamma(y + 1) = 0 at y = -1, -2, -3 when no p | ell puts a pole there
    for ell, y in ((1, -1.0), (1, -3.0), (5, -2.0)):
        assert coprimality_density(ell, y).value == 0.0


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import omegashift.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_coprimality_pole_rejected():
    with pytest.raises(PoleError):
        coprimality_density(2, -1.0)
    with pytest.raises(PoleError):
        coprimality_density(6, -2.0)
    # fine when the offending prime does not divide ell
    assert coprimality_density(3, -1.0 + 1e-3).value != 0


# (a, s): |a| = 10 at both ends of the shift range, tilt_profile's and
# tilt_product's a at z = 0.8+0.3i, and a point whose p = 2 factor vanishes.
# Real a = -10 has a negative factor at every s in range: (-10, 5), which
# tilt_profile(4, -4) reaches, has three (a negative product), and (-8, 0)
# has four.  -10 + 1e-6i takes principal complex logs there instead.
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


def _truncate_at(monkeypatch, P):
    """Make the Euler products read the prime sums of the truncation P, from
    the oracle, in place of the frozen ones of TRUNCATION_PRIME."""
    monkeypatch.setattr(constants, "_PRIME_SUMS",
                        oracles.prime_sums(P, MIN_TRUNCATION, SERIES_TERMS))


@pytest.mark.parametrize("a,s", TRUNCATED_POINTS)
def test_log_core_matches_truncated_product(monkeypatch, a, s):
    # the exact log sum over every p <= P, independent of the head/series split
    for P in (MIN_TRUNCATION, 1009, 10**4, 10**5):
        want, want_sign = oracles.truncated_log_product_mp(a, s, P)
        _truncate_at(monkeypatch, P)
        log_value, _, count, sign = _log_core(a, s)
        assert abs(complex(log_value) - complex(want)) <= 1e-13
        assert sign == want_sign
        assert count == len(oracles._small_primes(P))
        assert isinstance(log_value, complex) == isinstance(a, complex)


def test_negative_head_factors_give_a_finite_signed_product(monkeypatch):
    # tilt_profile(4, -4) is the product at a = -10, s = 5, negative there
    log_abs, sign = oracles.truncated_log_product_mp(-10.0, 5.0, 10**4)
    want = sign * math.exp(-10.0 * EULER_GAMMA + float(log_abs))
    assert want < 0
    _truncate_at(monkeypatch, 10**4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-4.0, complex(-4.0, 0.0)):
            got = tilt_profile(4.0, z).value
            assert got == pytest.approx(want, rel=1e-12, abs=0), z


def test_series_remainder_at_the_ceiling():
    worst = max(
        _series_remainder(a, s)
        for a in (10.0, -10.0, 10j, -10j, 10 * complex(math.cos(0.5), math.sin(0.5)))
        for s in (0.0, 2.5, 5.0)
    )
    assert 0.0 < worst <= 1e-18


def test_tail_bound_shrinks_with_truncation(monkeypatch):
    frozen = tilted_level_constant(1.0)
    coarser = []
    for P in (10**4, 10**5, 10**6):
        _truncate_at(monkeypatch, P)
        coarser.append(tilted_level_constant(1.0))
    bounds = [res.tail_bound for res in (*coarser, frozen)]
    assert bounds[0] > bounds[1] > bounds[2] > bounds[3] > 0
    # each coarser truncation stays within its own bound of the frozen one
    for res in coarser:
        assert abs(res.value - frozen.value) <= res.tail_bound


def test_result_metadata():
    res = level_density_constant(0.5)
    assert isinstance(res, EulerProductResult)
    assert res.truncation_prime == TRUNCATION_PRIME == 10**7
    assert res.primes_used == 664_579
    assert isinstance(res.value, float)
    cres = tilt_product(0.5, Z_COMPLEX)
    assert isinstance(cres.value, complex)


def test_argument_validation():
    with pytest.raises(ValueError):
        level_density_constant(-0.1)
    with pytest.raises(ValueError):
        level_density_constant(4.5)
    with pytest.raises(ValueError):
        tilt_product(0.5, 4.0 + 1.5j)  # |z| beyond the validated disc
    with pytest.raises(ValueError):
        coprimality_density(0, 1.0)


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


# The frozen prime sums are the oracle's, bit for bit, and python3
# tests/oracles.py prints them as constants.py spells them, so that a
# re-freeze goes through the oracle.
@pytest.mark.parametrize("P", [TRUNCATION_PRIME])
def test_prime_sums_equal_math_fsum(P):
    got = constants._PRIME_SUMS
    want = oracles.prime_sums(P, MIN_TRUNCATION, SERIES_TERMS)
    assert oracles.sums_bits(got) == oracles.sums_bits(want)
    assert type(got[0]) is int and all(type(v) is float for v in (got[1], *got[2]))


@pytest.mark.parametrize("P", [TRUNCATION_PRIME])
def test_prime_sums_bits_are_pinned(P):
    source = Path(constants.__file__).read_text(encoding="utf-8")
    assert oracles.prime_sums_literal(oracles.prime_sums(P, MIN_TRUNCATION, SERIES_TERMS)) in source


def _has_avx512() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(not _has_avx512(), reason="numpy dispatches no AVX-512 loops on this CPU")
def test_report_bits_do_not_depend_on_numpys_simd_dispatch(tmp_path):
    """The same run in two child processes, the second with numpy's AVX-512
    loops switched off, writes the same report in columns 1-9: the Euler
    products take their real logs and exponentials from libm, not numpy."""
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    variants = {"simd": {}, "plain": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}}
    reports = {}
    for name, extra in variants.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            "x_list = 100000 1000000\nk_list = 1 2 3 4\nw_rule = loglog_sq\n"
            f"ell_max = 6\ny_grid = 0\noutput_dir = {tmp_path / name}\n"
        )
        env = dict(base, PYTHONPATH=str(src), **extra)
        done = subprocess.run(
            [sys.executable, "-m", "omegashift.cli", "run", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        (csv_path,) = (tmp_path / name).glob("*.csv")
        reports[name] = [line.split(",")[:9] for line in csv_path.read_text().splitlines()]
    assert len(reports["simd"]) > 1
    assert reports["simd"] == reports["plain"]
