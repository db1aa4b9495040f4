"""Acceptance criteria, one test per criterion (7 and 8 split into parts).

Each test records a summary line via record_property("acceptance", ...);
conftest prints the block at the end of the run.  Criteria 1 and 3 run
verify's own convolution_identity and euler_identities checks at a larger
scale (n <= 1e4 and P = 1e7).  The trend criteria are verify.TREND_GATES,
the gates verify --level full evaluates, asserted on one grid pass up to
1e8; the 1e8 table is built once, as a module fixture.
"""

import resource
import time

import numpy as np
import pytest

import oracles
from omegashift import verify
from omegashift.experiment import resolve_w
from omegashift.genfun import WeightKernel, eval_genfun, extract_coefficients, phi_prime_power
from omegashift.sieve import DEFAULT_SEGMENT, SieveConfig, build_omega_table, grid_histograms
from omegashift.stats import (
    gaussian_spec,
    weighted_mass,
    weighted_mass_at,
    weighted_mass_below,
    weighted_moment,
)
from omegashift.verify import TREND_GATES, W_GRID, Z_GRID, trend_pairs, trend_planes, verify_suite

GB = 1 << 30


@pytest.fixture(scope="module")
def trend_hists():
    """{(x, w): H} for the trend grid up to 1e8, from one grid pass."""
    return grid_histograms(trend_pairs())


@pytest.fixture(scope="module")
def big():
    """The 1e8 table (the trend grid's top pair) and its single-thread build time."""
    x, w = trend_pairs()[-1]
    t0 = time.perf_counter()
    table = build_omega_table(SieveConfig(x_max=x, w=w))
    return {"table": table, "build_seconds": time.perf_counter() - t0}


def test_criterion_1_convolution_identity(record_property):
    t0 = time.perf_counter()
    ok, detail = verify._check_convolution_identity(10_000)
    elapsed = time.perf_counter() - t0
    record_property(
        "acceptance",
        f"criterion 1 convolution identity: {detail}, "
        f"{len(W_GRID) * len(Z_GRID)} (z,w) pairs, {elapsed:.1f}s",
    )
    assert ok, detail
    assert elapsed < 10.0


def test_criterion_2_prime_power_closed_forms(record_property):
    worst = 0.0
    primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
    for w in W_GRID:
        for z in Z_GRID:
            kern = WeightKernel(w=w, z=z)
            for p in primes:
                for e in (1, 2, 3, 4, 5, 6):  # alpha <= 2 in both parities
                    dev = abs(
                        phi_prime_power(p, e, kern)
                        - oracles.phi_via_enumeration(p**e, w, z)
                    )
                    worst = max(worst, dev)
    record_property(
        "acceptance",
        f"criterion 2 closed forms: max dev {worst:.2e}, p<=100, both branches",
    )
    assert worst < 1e-12


def test_criterion_3_euler_product_identities(record_property):
    t0 = time.perf_counter()
    ok, detail = verify._check_euler_identities(10_000_000)
    elapsed = time.perf_counter() - t0
    record_property(
        "acceptance", f"criterion 3 euler identities at P=1e7: {detail}, {elapsed:.1f}s"
    )
    assert ok, detail
    assert elapsed < 60.0


def test_criterion_4_coefficients_equal_direct_counting(record_property):
    t0 = time.perf_counter()
    worst = 0.0
    pairs = [(x, w) for x in (10**4, 10**5, 10**6) for w in (10, 100, resolve_w("auto", x))]
    hists = grid_histograms(pairs)
    for x, w in pairs:
        table = build_omega_table(SieveConfig(x_max=x, w=w))
        for k in (1, 2, 3, 4):
            dft = oracles.dft_coefficients(table, k, x)
            counted = extract_coefficients(hists[x, w][k])
            assert len(dft) == len(counted), (x, w, k)
            for coeff, direct in zip(dft, counted):
                worst = max(worst, abs(coeff - direct) / max(direct, 1))
    elapsed = time.perf_counter() - t0
    record_property(
        "acceptance",
        f"criterion 4 coefficient extraction == direct: max rel dev {worst:.2e} "
        f"over x in 1e4..1e6, k<=4, 3 w rules, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 120.0


def test_criterion_5_brute_force_oracle_equality(
    record_property, oracle_w, oracle_triples
):
    x = 100_000
    spec = gaussian_spec(x)
    H = grid_histograms([(x, oracle_w)])[x, oracle_w]
    checked = 0
    for k in range(1, 7):
        J = H[k]
        assert weighted_mass(J) == oracles.weighted_mass(
            oracle_triples, k
        )
        checked += 1
        for y in (-2.0, -1.0, 0.0, 1.0, 2.0):
            want = oracles.weighted_mass_below(
                oracle_triples, k, spec.center + y * spec.scale
            )
            assert weighted_mass_below(J, x, y) == want
            checked += 1
        for ell in range(0, 11):
            want = oracles.weighted_mass_at(oracle_triples, k, ell)
            assert weighted_mass_at(J, ell) == want
            checked += 1
        if weighted_mass(J):
            for m in range(0, 5):
                got = weighted_moment(J, x, m)
                want = oracles.weighted_moment(oracle_triples, k, x, m)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                checked += 1
    record_property(
        "acceptance",
        f"criterion 5 oracle equality at x=1e5: {checked} exact comparisons "
        "(masses, thresholds, slices as integers; moments to 1e-12)",
    )


@pytest.mark.parametrize("gate", TREND_GATES, ids=[g.label for g in TREND_GATES])
def test_trend_gate(record_property, trend_hists, gate):
    ok, detail = gate.predicate(trend_planes(trend_hists))
    record_property("acceptance", f"criterion {gate.label} ({gate.check}): {detail}")
    assert ok, detail


def test_verify_full_ands_the_trend_gates(trend_hists, monkeypatch):
    """verify --level full reports, per check, the AND of the same gates."""
    monkeypatch.setattr("omegashift.verify.grid_histograms", lambda pairs: trend_hists)
    planes, want = trend_planes(trend_hists), {}
    for gate in TREND_GATES:
        want[gate.check] = want.get(gate.check, True) and gate.predicate(planes)[0]
    got = [(r.name, r.status) for r in verify_suite("full", quiet=True).results[-len(want):]]
    assert got == [(name, "PASS" if ok else "FAIL") for name, ok in want.items()]


def test_table_1e8_matches_trial_division_at_sampled_n(big):
    """The 1e8 table against trial division, independent of the sieve's code:
    the top 1000 n, n near each 2^j and each segment edge, and a fixed sample."""
    table = big["table"]
    x = table.x_max
    edges = [1 << j for j in range(1, x.bit_length())]
    edges += range(2 + DEFAULT_SEGMENT, x + 1, DEFAULT_SEGMENT)
    ns = {e + d for e in edges for d in range(-2, 3)}
    ns |= set(range(x - 999, x + 1))
    ns |= set(np.random.default_rng(20_240_101).integers(2, x + 1, size=3000).tolist())
    ns = sorted(n for n in ns if 2 <= n <= x)
    assert len(ns) > 4000
    bad = [
        n for n in ns
        if (table.omega[n], table.omega_small[n]) != oracles.omega_pair(n, table.w)
    ]
    assert bad == []


def test_criterion_9_performance_and_determinism(record_property, big, trend_hists):
    ref = big["table"]
    x = ref.x_max
    seconds = big["build_seconds"]
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / GB
    variant = build_omega_table(
        SieveConfig(x_max=x, w=ref.w, segment_length=1 << 21, threads=3)
    )
    tables_equal = variant == ref
    h1 = oracles.histogram(ref.omega, ref.omega_small, x)
    h3 = oracles.histogram(variant.omega, variant.omega_small, x)
    del variant
    hists_equal = bool(np.array_equal(h1, h3))
    grid_equal = bool(np.array_equal(h1, trend_hists[x, ref.w]))
    z = 0.83 + 0.41j
    g1 = eval_genfun(h1[2], z).value
    g3 = eval_genfun(h3[2], z).value
    record_property(
        "acceptance",
        f"criterion 9 performance: 1e8 build {seconds:.1f}s (single thread), "
        f"peak rss {peak_gb:.2f} GB, table/hist/genfun bit-identical across "
        f"sieve threads 1/3: {tables_equal}/{hists_equal}/{g1 == g3}; "
        f"grid-pass H == oracle H of the table: {grid_equal}",
    )
    assert seconds < 60.0
    assert peak_gb < 1.0
    assert tables_equal
    assert hists_equal
    assert grid_equal
    assert g1 == g3
