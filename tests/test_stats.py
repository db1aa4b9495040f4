"""Statistics engine against the independent trial-division oracle."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omegashift.constants import normal_cdf
from omegashift.experiment import histogram_digest, load_histogram, resolve_w, save_histogram
from omegashift.kernel import OMEGA_CAP
from omegashift.sieve import (
    MAX_OMEGA,
    MAX_THREADS,
    SieveConfig,
    build_omega_table,
    grid_histograms,
)
from omegashift.stats import (
    ThresholdSpec,
    classical_baseline,
    gaussian_moment,
    gaussian_spec,
    ks_distance,
    ks_weighted_histogram,
    large_factor_ratio,
    loglog,
    logloglog,
    small_factor_prediction,
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
def H():
    return np.array(grid_histograms([(X, W)])[X, W])


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
    u = unweighted_spec(X)
    assert abs(u.center - loglog(X)) < 1e-12
    with pytest.raises(ValueError):
        ThresholdSpec(center=1.0, scale=0.0)
    with pytest.raises(ValueError):
        gaussian_spec(10)


def _nonzero_cells(hist) -> dict:
    hist = np.asarray(hist)
    return {tuple(map(int, idx)): int(hist[tuple(idx)]) for idx in np.argwhere(hist)}


def test_level_histogram_matches_oracle(H, triples):
    assert H.shape == (16, 16, 16) and H.dtype == np.int64
    for k in range(OMEGA_CAP):
        assert _nonzero_cells(H[k]) == oracles.joint_counts(triples, k), k
    assert int(H.sum()) == X - 1
    omega_counts = Counter(k for k, _, _ in triples)
    assert H.sum(axis=(1, 2)).tolist() == [omega_counts[k] for k in range(OMEGA_CAP)]


@st.composite
def _sieve_inputs(draw):
    x = draw(st.integers(2, 3000))
    w = draw(st.integers(2, x))
    segment = draw(st.one_of(st.integers(1024, 4096), st.just(1 << 16)))
    return x, w, segment, draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=50, deadline=None, database=None)
@given(_sieve_inputs())
def test_table_and_level_histogram_match_trial_division(inputs):
    x, w, segment, threads = inputs
    table = build_omega_table(
        SieveConfig(x_max=x, w=w, segment_length=segment, threads=threads)
    )
    for n in range(2, x + 1):
        assert (table.omega[n], table.omega_small[n]) == oracles.omega_pair(n, w), n
    H = grid_histograms([(x, w)], threads=threads, segment_length=segment)[x, w]
    assert _nonzero_cells(H) == Counter(oracles.level_triples(x, w))


GRID_SEGMENTS = (1024, 4096, 1 << 22, 1 << 16)
# x at the edges 2 + m * L of the 1024 and 4096 segments, and one either side
SEGMENT_EDGES = sorted(
    {e + d for L in GRID_SEGMENTS[:2] for e in range(2 + L, 5001, L) for d in (-1, 0, 1)}
)


@st.composite
def _grid_inputs(draw):
    """1-4 pairs (x, w), x <= 5000, duplicates and segment edges included;
    each w up to isqrt(max x) or above it, where the base primes run up to w."""
    x_any = st.one_of(st.integers(2, 5000), st.sampled_from(SEGMENT_EDGES))
    xs = draw(st.lists(x_any, min_size=1, max_size=4))
    if draw(st.booleans()):
        xs.append(xs[0])
    r = math.isqrt(max(xs))
    pairs = []
    for x in xs:
        if draw(st.booleans()):
            w = draw(st.integers(2, max(2, min(x, r))))
        else:
            w = draw(st.integers(min(x, r + 1), x))
        pairs.append((x, w))
    segment = draw(st.sampled_from(GRID_SEGMENTS))
    return pairs, segment, draw(st.sampled_from((1, 3)))


@settings(max_examples=50, deadline=None, database=None)
@given(_grid_inputs())
def test_grid_histograms_match_table_histograms(inputs):
    pairs, segment, threads = inputs
    got = grid_histograms(pairs, threads=threads, segment_length=segment)
    assert set(got) == set(pairs)
    for x, w in pairs:
        table = build_omega_table(SieveConfig(x_max=x, w=w))
        want = oracles.histogram(table.omega, table.omega_small, x)
        assert np.array_equal(got[x, w], want), (x, w)
    x, w = max(pairs)
    assert _nonzero_cells(got[x, w]) == Counter(oracles.level_triples(x, w))


def test_grid_histograms_at_the_reference_grid():
    # the 1e8 pair is checked end to end against the benchmark's frozen report
    pairs = [(x, resolve_w("loglog_sq", x)) for x in (10**6, 10**7, 10**8)]
    got = grid_histograms(pairs)
    for x, w in pairs[:2]:
        table = build_omega_table(SieveConfig(x_max=x, w=w))
        assert np.array_equal(got[x, w], oracles.histogram(table.omega, table.omega_small, x)), x
    x, w = pairs[2]
    assert int(np.sum(got[x, w])) == x - 1


def test_grid_histograms_validation():
    with pytest.raises(ValueError):
        grid_histograms([])
    with pytest.raises(ValueError):
        grid_histograms([(100, 101)])  # w > x
    with pytest.raises(ValueError):
        grid_histograms([(100, 10)], threads=0)
    with pytest.raises(ValueError, match="threads=257 outside"):
        grid_histograms([(100, 10)], threads=MAX_THREADS + 1)
    with pytest.raises(ValueError):
        grid_histograms([(100, 10)], segment_length=100)


@settings(max_examples=50, deadline=None, database=None)
@given(_sieve_inputs(), st.integers(0, 6))
def test_plane_statistics_match_oracle(inputs, k):
    x, w, segment, threads = inputs
    H = grid_histograms([(x, w)], threads=threads, segment_length=segment)[x, w]
    J = H[k]
    triples = oracles.level_triples(x, w)
    for ell in range(MAX_OMEGA + 2):
        assert weighted_mass_at(J, ell) == oracles.weighted_mass_at(triples, k, ell)
    normalized = [
        lambda: weighted_mass_below(J, x, 0.0),
        lambda: unweighted_baseline(J, x, 0.0),
        lambda: classical_baseline(H, x, 0.0),
        lambda: weighted_moment(J, x, 2),
        lambda: ks_distance(J, x),
        lambda: large_factor_ratio(J, x),
    ]
    if x < 16:  # loglog x <= 1: no Gaussian or classical normalization
        for stat in normalized:
            with pytest.raises(ValueError):
                stat()
        return
    g, c = gaussian_spec(x), unweighted_spec(x)
    for y in (-1.5, -0.5, 0.0, 0.7, 1.5, 2.5):
        thr, plain_thr = g.center + y * g.scale, c.center + y * c.scale
        assert weighted_mass_below(J, x, y) == oracles.weighted_mass_below(
            triples, k, thr
        )
        assert unweighted_baseline(J, x, y) == sum(
            1 for kk, v, _ in triples if kk == k and v <= plain_thr
        )
        assert classical_baseline(H, x, y) == sum(
            1 for kk, _, _ in triples if kk <= plain_thr
        )
    if oracles.weighted_mass(triples, k) == 0:
        for stat in normalized[3:]:
            with pytest.raises(ValueError):
                stat()
        return
    for m in range(5):
        want = oracles.weighted_moment(triples, k, x, m)
        assert abs(weighted_moment(J, x, m) - want) <= 1e-12 * max(1.0, abs(want)), m
    assert abs(ks_distance(J, x) - oracles.weighted_ks(triples, k, x)) < 1e-12
    for c_mult in (0.0, 1.0, 4.0):
        want = oracles.large_factor_ratio(triples, k, x, c_mult)
        assert large_factor_ratio(J, x, c_mult) == want, c_mult


def test_joint_histogram_matches_oracle(H, triples):
    # the plane H[k] is the joint histogram J[v, u] of the k-level set
    for k in (1, 2, 3, 4):
        J = H[k]
        want = oracles.joint_counts(triples, k)
        for v in range(J.shape[0]):
            for u in range(J.shape[1]):
                assert int(J[v, u]) == want.get((v, u), 0), (k, v, u)


def test_weighted_mass_matches_oracle(H, triples):
    for k in range(1, 7):
        assert weighted_mass(H[k]) == oracles.weighted_mass(triples, k)


def test_total_weighted_mass(H, triples):
    # the plane of all n, whatever omega(n), is H.sum(axis=0)
    want = sum(1 << v for _, v, _ in triples)
    assert weighted_mass(H.sum(axis=0)) == want
    ks = range(1, 10)
    assert sum(weighted_mass(H[k]) for k in ks) == want


def test_weighted_mass_below_full_counter(H, triples):
    spec = gaussian_spec(X)
    for k in (2, 3):
        for y in (-2.0, -0.5, 0.0, 0.7, 2.0, 8.0):
            got = weighted_mass_below(H[k], X, y)
            want = oracles.weighted_mass_below(triples, k, spec.center + y * spec.scale)
            assert got == want, (k, y)


def test_weighted_mass_at_slices(H, triples):
    for k in (1, 2, 3):
        total = 0
        for ell in range(12):
            got = weighted_mass_at(H[k], ell)
            assert got == oracles.weighted_mass_at(triples, k, ell), (k, ell)
            total += got
        assert total == weighted_mass(H[k])
    assert weighted_mass_at(H[2], OMEGA_CAP) == 0
    with pytest.raises(ValueError):
        weighted_mass_at(H[2], -1)


def test_weighted_moment_matches_oracle(H, triples):
    for k in (2, 3):
        for m in range(0, 5):
            got = weighted_moment(H[k], X, m)
            want = oracles.weighted_moment(triples, k, X, m)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (k, m)
    assert weighted_moment(H[2], X, 0) == 1.0
    with pytest.raises(ValueError):
        weighted_moment(H[2], X, 13)
    with pytest.raises(ValueError):
        weighted_moment(H[2], X, -1)


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


def test_ks_distance_matches_oracle(H, triples):
    for k in (1, 2, 3):
        d = ks_distance(H[k], X)
        assert 0.0 <= d <= 1.0
        assert abs(d - oracles.weighted_ks(triples, k, X)) < 1e-12, k
    with pytest.raises(ValueError):
        ks_distance(H[9], X)  # empty level set


def test_weighted_mass_theoretical_positive_and_trending(H):
    # pure prediction: positive, and the empirical/theoretical ratio is O(1)
    for k in (2, 3):
        pred = weighted_mass_theoretical(k, X)
        assert pred > 0
    emp = weighted_mass(H[2])
    assert 0.1 < emp / weighted_mass_theoretical(2, X) < 10.0


def test_small_factor_prediction_positive(H):
    mass = weighted_mass(H[2])
    vals = [small_factor_prediction(2, X, ell, W, mass=mass) for ell in range(5)]
    assert all(v > 0 for v in vals)
    # rises from ell=0 toward the bulk near 2 loglog w
    assert vals[1] > vals[0]


def test_unweighted_baseline_matches_oracle(H, triples):
    spec = unweighted_spec(X)
    for y in (-1.0, 0.0, 1.5):
        got = unweighted_baseline(H[2], X, y)
        thr = spec.center + y * spec.scale
        want = sum(1 for kk, v, _ in triples if kk == 2 and v <= thr)
        assert type(got) is int and got == want


def test_classical_baseline_matches_oracle(H, triples):
    spec = unweighted_spec(X)
    got = classical_baseline(H, X, 0.5)
    thr = spec.center + 0.5 * spec.scale
    want = sum(1 for kk, _, _ in triples if kk <= thr)
    assert type(got) is int and got == want


def test_omega_histogram_totals(H):
    # the classical omega(n) histogram is the k marginal of H
    counts = H.sum(axis=(1, 2))
    assert int(counts.sum()) == X - 1
    assert classical_baseline(H, X, 100.0) == X - 1


def test_large_factor_ratio_definition(H, triples):
    thr = 4.0 * logloglog(X)
    excess = sum(1 << v for kk, v, u in triples if kk == 2 and v - u > thr)
    total = sum(1 << v for kk, v, u in triples if kk == 2)
    assert large_factor_ratio(H[2], X) == pytest.approx(excess / total, abs=0)
    # with c = 0 every n whose shift has any large prime counts
    excess0 = sum(1 << v for kk, v, u in triples if kk == 2 and v > u)
    assert large_factor_ratio(H[2], X, c_mult=0.0) == pytest.approx(
        excess0 / total, abs=0
    )
    with pytest.raises(ValueError):
        large_factor_ratio(H[2], X, c_mult=-1.0)
    with pytest.raises(ValueError):
        large_factor_ratio(H[9], X)  # empty level set


X5 = 100_000  # the x = 1e5, w = 50 grid, whose k = 2 plane has weighted mass 304 124


@pytest.fixture(scope="module")
def H5():
    H = np.array(grid_histograms([(X5, W)])[X5, W])
    assert weighted_mass(H[2]) == 304_124
    return H


def test_weighted_mass_below_rejects_a_nan_threshold(H5):
    with pytest.raises(ValueError, match="nan"):
        weighted_mass_below(H5[2], X5, math.nan)
    assert weighted_mass_below(H5[2], X5, -math.inf) == 0
    assert weighted_mass_below(H5[2], X5, math.inf) == 304_124


def test_unweighted_baseline_rejects_a_nan_threshold(H5):
    with pytest.raises(ValueError, match="nan"):
        unweighted_baseline(H5[2], X5, math.nan)
    assert unweighted_baseline(H5[2], X5, -math.inf) == 0
    assert unweighted_baseline(H5[2], X5, math.inf) == int(H5[2].sum())


def test_classical_baseline_rejects_a_nan_threshold(H5):
    with pytest.raises(ValueError, match="nan"):
        classical_baseline(H5, X5, math.nan)
    assert classical_baseline(H5, X5, -math.inf) == 0
    assert classical_baseline(H5, X5, math.inf) == X5 - 1


def test_large_factor_ratio_rejects_a_nan_c_mult(H5):
    for c_mult in (math.nan, -math.inf, -1e-300):
        with pytest.raises(ValueError, match="c_mult"):
            large_factor_ratio(H5[2], X5, c_mult)
    assert large_factor_ratio(H5[2], X5, math.inf) == 0.0


def test_session_oracle_agreement(table_1e5, oracle_triples, oracle_w):
    # the session-scoped 1e5 fixtures use the experiment w rule; spot-check
    k = 2
    H = oracles.histogram(table_1e5.omega, table_1e5.omega_small, 100_000)
    assert np.array_equal(grid_histograms([(100_000, oracle_w)])[100_000, oracle_w], H)
    J = H[k]
    assert weighted_mass(J) == oracles.weighted_mass(oracle_triples, k)


def _outcome(fn, *args):
    """(type, value) of fn(*args), a float as its hex, or ("raised", message)
    of the ValueError it raised."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return "raised", str(exc)
    return type(value), value.hex() if isinstance(value, float) else value


def _random_histogram(seed: int, empty: float) -> np.ndarray:
    """A 16 x 16 x 16 int64 histogram of counts up to 2^40, about a share
    empty of them 0 and a tenth of the rest below 16."""
    rng = np.random.default_rng(seed)
    shape = (OMEGA_CAP,) * 3
    H = rng.integers(0, 1 << 40, size=shape, dtype=np.int64, endpoint=True)
    H[rng.random(shape) < 0.1] %= 16
    H[rng.random(shape) < empty] = 0
    return H


_HISTOGRAMS = st.builds(_random_histogram, st.integers(0, 2**32 - 1),
                        st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]))


@settings(max_examples=60, deadline=None, database=None)
@given(
    H=_HISTOGRAMS,
    x=st.sampled_from([16, 10_000, 10**8, 1 << 40]),
    y=st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-math.inf, math.inf])),
    ell=st.integers(0, OMEGA_CAP + 1),
    m=st.integers(0, 12),
    c_mult=st.floats(0.0, 8.0),
)
def test_statistics_agree_on_numpy_planes_and_nested_ints(H, x, y, ell, m, c_mult):
    """Every statistic gives the same value, of the same type, bit for bit,
    on an int64 plane J and on J.tolist(), and the classical baseline on H
    and H.tolist(): a run reads H from its cache as nested ints, and the
    grid pass builds it with numpy."""
    J = H[2]
    calls = [
        (weighted_mass, ()),
        (weighted_mass_below, (x, y)),
        (weighted_mass_at, (ell,)),
        (weighted_moment, (x, m)),
        (ks_distance, (x,)),
        (unweighted_baseline, (x, y)),
        (large_factor_ratio, (x, c_mult)),
    ]
    for fn, args in calls:
        assert _outcome(fn, J, *args) == _outcome(fn, J.tolist(), *args), fn.__name__
    assert _outcome(classical_baseline, H, x, y) == _outcome(classical_baseline, H.tolist(), x, y)
    assert _outcome(weighted_mass, J)[0] is int


@settings(max_examples=20, deadline=None, database=None)
@given(H=_HISTOGRAMS)
def test_a_saved_histogram_loads_as_nested_ints(tmp_path_factory, H):
    path = str(tmp_path_factory.mktemp("hist") / "hist.bin")
    save_histogram(H, path, 10**6, 987)
    assert load_histogram(path, 10**6, 987) == H.tolist()
    assert histogram_digest(H) == histogram_digest(H.tolist())
