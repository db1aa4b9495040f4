"""Statistics engine against the independent trial-division oracle."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omegashift.constants import normal_cdf
from omegashift.sieve import SieveConfig, build_omega_table
from omegashift.stats import (
    OMEGA_CAP,
    PredictionReport,
    ThresholdSpec,
    classical_baseline,
    gaussian_moment,
    gaussian_spec,
    joint_histogram,
    ks_distance,
    ks_weighted_histogram,
    large_factor_ratio,
    level_histogram,
    loglog,
    logloglog,
    omega_histogram,
    small_counter_spec,
    small_factor_prediction,
    total_weighted_mass,
    unweighted_baseline,
    unweighted_spec,
    weighted_mass,
    weighted_mass_at,
    weighted_mass_below,
    weighted_mass_theoretical,
    weighted_moment,
)

X, W = 10_000, 50


@pytest.fixture(scope="module")
def table():
    return build_omega_table(SieveConfig(x_max=X, w=W))


@pytest.fixture(scope="module")
def triples():
    return oracles.level_triples(X, W)


def test_iterated_logs():
    assert abs(loglog(math.e**math.e) - 1.0) < 1e-12
    assert abs(logloglog(math.exp(math.e**math.e)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        loglog(math.e)
    with pytest.raises(ValueError):
        logloglog(math.e**0.99)


def test_threshold_specs():
    g = gaussian_spec(X)
    assert abs(g.center - 2 * loglog(X)) < 1e-12
    assert abs(g.scale - math.sqrt(2 * loglog(X))) < 1e-12
    s = small_counter_spec(W)
    assert abs(s.center - loglog(W)) < 1e-12
    assert abs(s.scale - math.sqrt(loglog(W))) < 1e-12
    u = unweighted_spec(X)
    assert abs(u.center - loglog(X)) < 1e-12
    with pytest.raises(ValueError):
        ThresholdSpec(center=1.0, scale=0.0)
    with pytest.raises(ValueError):
        gaussian_spec(10)


def _nonzero_cells(hist) -> dict:
    return {tuple(map(int, idx)): int(hist[tuple(idx)]) for idx in np.argwhere(hist)}


def test_level_histogram_matches_oracle(table, triples):
    hist = level_histogram(table, X)
    assert hist.shape == (OMEGA_CAP, OMEGA_CAP, OMEGA_CAP)
    for k in range(OMEGA_CAP):
        assert _nonzero_cells(hist[k]) == oracles.joint_counts(triples, k), k
    assert int(hist.sum()) == X - 1
    omega_counts = Counter(k for k, _, _ in triples)
    assert hist.sum(axis=(1, 2)).tolist() == [omega_counts[k] for k in range(OMEGA_CAP)]
    assert np.array_equal(level_histogram(table, X, threads=3), hist)


@st.composite
def _sieve_inputs(draw):
    x = draw(st.integers(2, 3000))
    w = draw(st.integers(2, x))
    return x, w, draw(st.integers(1024, 4096)), draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=50, deadline=None, database=None)
@given(_sieve_inputs())
def test_table_and_level_histogram_match_trial_division(inputs):
    x, w, segment, threads = inputs
    table = build_omega_table(
        SieveConfig(x_max=x, w=w, segment_length=segment, threads=threads)
    )
    for n in range(2, x + 1):
        assert (table.omega[n], table.omega_small[n]) == oracles.omega_pair(n, w), n
    hist = level_histogram(table, x, threads=threads)
    assert _nonzero_cells(hist) == Counter(oracles.level_triples(x, w))


def test_joint_histogram_matches_oracle(table, triples):
    for k in (1, 2, 3, 4, 40):
        hist = joint_histogram(table, k, X)
        want = oracles.joint_counts(triples, k)
        for v in range(hist.shape[0]):
            for u in range(hist.shape[1]):
                assert int(hist[v, u]) == want.get((v, u), 0), (k, v, u)


def test_weighted_mass_matches_oracle(table, triples):
    for k in (*range(1, 7), 40):
        assert weighted_mass(table, k, X) == oracles.weighted_mass(triples, k)


def test_total_weighted_mass(table, triples):
    want = sum(1 << v for _, v, _ in triples)
    assert total_weighted_mass(table, X) == want
    ks = range(1, 10)
    assert sum(weighted_mass(table, k, X) for k in ks) == want


def test_weighted_mass_below_full_counter(table, triples):
    spec = gaussian_spec(X)
    for k in (2, 3):
        for y in (-2.0, -0.5, 0.0, 0.7, 2.0, 8.0):
            got = weighted_mass_below(table, k, X, y)
            want = oracles.weighted_mass_below(triples, k, spec.center + y * spec.scale)
            assert got == want, (k, y)


def test_weighted_mass_below_small_counter(table, triples):
    # same gaussian threshold, but applied to the small-prime counter
    spec = gaussian_spec(X)
    for y in (-1.0, 0.0, 1.0):
        got = weighted_mass_below(table, 2, X, y, counter="small")
        want = oracles.weighted_mass_below(
            triples, 2, spec.center + y * spec.scale, on_small=True
        )
        assert got == want


def test_weighted_mass_below_custom_spec(table, triples):
    # the truncated variant centers on loglog w instead
    spec = small_counter_spec(W)
    got = weighted_mass_below(table, 2, X, 0.5, spec=spec, counter="small")
    want = oracles.weighted_mass_below(
        triples, 2, spec.center + 0.5 * spec.scale, on_small=True
    )
    assert got == want


def test_weighted_mass_at_slices(table, triples):
    for k in (1, 2, 3):
        total = 0
        for ell in range(12):
            got = weighted_mass_at(table, k, X, ell)
            assert got == oracles.weighted_mass_at(triples, k, ell), (k, ell)
            total += got
        assert total == weighted_mass(table, k, X)
    with pytest.raises(ValueError):
        weighted_mass_at(table, 2, X, -1)
    with pytest.raises(ValueError):
        weighted_mass_at(table, 2, X, 3, w=W + 1)


def test_weighted_moment_matches_oracle(table, triples):
    for k in (2, 3):
        for m in range(0, 5):
            got = weighted_moment(table, k, X, m)
            want = oracles.weighted_moment(triples, k, X, m)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (k, m)
    assert weighted_moment(table, 2, X, 0) == 1.0
    with pytest.raises(ValueError):
        weighted_moment(table, 2, X, 13)
    with pytest.raises(ValueError):
        weighted_moment(table, 2, X, -1)


def test_gaussian_moments():
    assert [gaussian_moment(m) for m in range(7)] == [1, 0, 1, 0, 3, 0, 15]
    assert gaussian_moment(8) == 105
    with pytest.raises(ValueError):
        gaussian_moment(-1)


def test_ks_weighted_histogram_hand_case():
    # two atoms of mass 1/2 at v = 0 and v = 2, center 1, scale 1:
    # F jumps 0 -> .5 at 0 and .5 -> 1 at 2; Phi(-1) = .159, Phi(1) = .841
    weights = [1.0, 0.0, 1.0]
    got = ks_weighted_histogram(weights, 1.0, 1.0)
    want = max(
        abs(normal_cdf(-1.0) - 0.0),
        abs(0.5 - normal_cdf(-1.0)),
        abs(normal_cdf(1.0) - 0.5),
        abs(1.0 - normal_cdf(1.0)),
    )
    assert abs(got - want) < 1e-15


def test_ks_distance_bounds_and_hist_reuse(table):
    hist = joint_histogram(table, 2, X)
    d1 = ks_distance(table, 2, X)
    d2 = ks_distance(table, 2, X, hist=hist)
    assert d1 == d2
    assert 0.0 <= d1 <= 1.0


def test_weighted_mass_theoretical_positive_and_trending():
    # pure prediction: positive, and the empirical/theoretical ratio is O(1)
    for k in (2, 3):
        pred = weighted_mass_theoretical(k, X, P=100_000)
        assert pred > 0
    t = build_omega_table(SieveConfig(x_max=X, w=W))
    emp = weighted_mass(t, 2, X)
    assert 0.1 < emp / weighted_mass_theoretical(2, X, P=100_000) < 10.0


def test_small_factor_prediction_positive(table):
    mass = weighted_mass(table, 2, X)
    vals = [
        small_factor_prediction(2, X, ell, W, P=100_000, mass=mass) for ell in range(5)
    ]
    assert all(v > 0 for v in vals)
    # rises from ell=0 toward the bulk near 2 loglog w
    assert vals[1] > vals[0]


def test_unweighted_baseline_matches_oracle(table, triples):
    spec = unweighted_spec(X)
    for y in (-1.0, 0.0, 1.5):
        rep = unweighted_baseline(table, 2, X, y)
        thr = spec.center + y * spec.scale
        want = sum(1 for kk, v, _ in triples if kk == 2 and v <= thr)
        assert rep.empirical == want
        assert rep.statistic == "unweighted_cdf"
        size = sum(1 for kk, _, _ in triples if kk == 2)
        assert abs(rep.theoretical - size * normal_cdf(y)) < 1e-9


def test_classical_baseline_matches_oracle(table, triples):
    spec = unweighted_spec(X)
    rep = classical_baseline(table, X, 0.5)
    thr = spec.center + 0.5 * spec.scale
    want = sum(1 for kk, _, _ in triples if kk <= thr)
    assert rep.empirical == want
    assert abs(rep.theoretical - (X - 1) * normal_cdf(0.5)) < 1e-9
    assert rep.k is None


def test_omega_histogram_totals(table):
    hist = omega_histogram(table, X)
    assert int(hist.sum()) == X - 1


def test_large_factor_ratio_definition(table, triples):
    thr = 4.0 * logloglog(X)
    excess = sum(1 << v for kk, v, u in triples if kk == 2 and v - u > thr)
    total = sum(1 << v for kk, v, u in triples if kk == 2)
    assert large_factor_ratio(table, 2, X) == pytest.approx(excess / total, abs=0)
    # with c = 0 every n whose shift has any large prime counts
    excess0 = sum(1 << v for kk, v, u in triples if kk == 2 and v > u)
    assert large_factor_ratio(table, 2, X, c_mult=0.0) == pytest.approx(
        excess0 / total, abs=0
    )
    with pytest.raises(ValueError):
        large_factor_ratio(table, 2, X, c_mult=-1.0)
    with pytest.raises(ValueError):
        large_factor_ratio(table, 9, X)  # empty level set


def test_report_relative_deviation():
    rep = PredictionReport(
        statistic="s", x=10, k=1, w=2, param=None,
        empirical=11.0, theoretical=10.0, rel_dev=0.1, error_scale=0.5, runtime_ms=0.1,
    )
    assert rep.rel_dev == pytest.approx(0.1)


def test_session_oracle_agreement(table_1e5, oracle_triples):
    # the session-scoped 1e5 fixtures use the experiment w rule; spot-check
    k = 2
    assert weighted_mass(table_1e5, k, 100_000) == oracles.weighted_mass(
        oracle_triples, k
    )
