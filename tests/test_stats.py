"""Statistics engine against the independent trial-division oracle."""

import hashlib
import math
import os
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omegashift.constants import _BLOCK, MIN_TRUNCATION, SERIES_TERMS, _prime_sums, normal_cdf
from omegashift.experiment import resolve_w
from omegashift.kernel import OMEGA_CAP
from omegashift.sieve import (
    MAX_OMEGA,
    MAX_THREADS,
    SieveConfig,
    build_omega_table,
    grid_histograms,
)
from omegashift.stats import (
    HIST_VERSION,
    SUMS_VERSION,
    CacheMismatchError,
    ThresholdSpec,
    classical_baseline,
    gaussian_moment,
    gaussian_spec,
    histogram_digest,
    histogram_path,
    ks_distance,
    ks_weighted_histogram,
    large_factor_ratio,
    load_histogram,
    load_prime_sums,
    loglog,
    logloglog,
    make_report,
    prime_sums_path,
    save_histogram,
    save_prime_sums,
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
    return grid_histograms([(X, W)])[X, W]


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
    H = grid_histograms([(x, w)], threads=threads, segment_length=segment)[x, w]
    assert _nonzero_cells(H) == Counter(oracles.level_triples(x, w))


GRID_SEGMENTS = (1024, 4096, 1 << 22)
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
    assert int(got[x, w].sum()) == x - 1


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


def test_histogram_cache_roundtrip(tmp_path, H):
    cache_dir = tmp_path / "deep" / "cache"
    path = histogram_path(str(cache_dir), X, W)
    assert path.endswith(f"hist_x{X}_w{W}.bin")
    save_histogram(H, path, X, W)  # parent directories are created on demand
    got = load_histogram(path, X, W)
    assert got.dtype == np.int64 and got.shape == (16, 16, 16) and np.array_equal(got, H)
    got[2, 1, 1] += 1  # the loaded histogram is a writable copy
    assert not np.array_equal(got, load_histogram(path, X, W))
    raw = open(path, "rb").read()
    payload = H.astype("<i8").tobytes()  # the format, spelled out: header, then H
    digest = hashlib.sha256(payload)
    assert HIST_VERSION == 2 and len(raw) == 56 + 16**3 * 8 == 32_824
    assert raw == struct.pack("<4sIQQ32s", b"OMGH", HIST_VERSION, X, W, digest.digest()) + payload
    assert histogram_digest(H) == digest.hexdigest()
    assert os.listdir(cache_dir) == [os.path.basename(path)]  # no temporary file left


def test_concurrent_histogram_saves_do_not_collide(tmp_path, H, monkeypatch):
    """A second save of the same path that runs while the first one is
    between writing and renaming its temporary file: both must finish."""
    path = histogram_path(str(tmp_path), X, W)
    real_replace = os.replace
    nested = []

    def replace_with_a_second_save(src, dst):
        if not nested:
            nested.append(src)
            save_histogram(2 * H, path, X, W)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_with_a_second_save)
    save_histogram(H, path, X, W)
    monkeypatch.undo()
    assert nested
    assert np.array_equal(load_histogram(path, X, W), H)  # the first save renamed last
    assert os.listdir(tmp_path) == [os.path.basename(path)]


def test_histogram_cache_rejects_mismatch_and_corruption(tmp_path, H):
    path = histogram_path(str(tmp_path), X, W)
    save_histogram(H, path, X, W)
    raw = open(path, "rb").read()
    with pytest.raises(CacheMismatchError):
        load_histogram(path, X + 1, W)
    with pytest.raises(CacheMismatchError):
        load_histogram(path, X, W + 1)
    flipped = bytearray(raw)
    flipped[56 + 8 * (2 * OMEGA_CAP**2 + OMEGA_CAP + 1)] ^= 1  # a payload byte
    newer = bytearray(raw)
    newer[4:8] = (HIST_VERSION + 1).to_bytes(4, "little")
    magic = bytearray(raw)
    magic[:4] = b"XXXX"
    # a bad payload byte, version or magic; a file cut inside the payload or
    # the header, one byte too long, and empty
    for bad in (flipped, newer, magic, raw[:-1], raw[:20], raw + b"\0", b""):
        bad_path = tmp_path / "bad.bin"
        bad_path.write_bytes(bytes(bad))
        with pytest.raises(CacheMismatchError):
            load_histogram(str(bad_path), X, W)


def _sums_file(P, sums, magic=b"OMGS", version=SUMS_VERSION, file_P=None,
               min_truncation=MIN_TRUNCATION, series_terms=SERIES_TERMS, block=_BLOCK):
    """A prime-sums cache file, spelled out: the header (magic, version, P,
    MIN_TRUNCATION, SERIES_TERMS, _BLOCK, SHA-256 of the payload), then
    pi(P) as int64 and sum p^-2, S_2..S_J as float64, little-endian."""
    count, inv_sq, powers = sums
    payload = struct.pack(f"<q{1 + len(powers)}d", count, inv_sq, *powers)
    header = struct.pack("<4sIQIII", magic, version, P if file_P is None else file_P,
                         min_truncation, series_terms, block)
    return header + hashlib.sha256(payload).digest() + payload


@pytest.mark.parametrize("P", [1000, 10_000, 2_000_003])
def test_prime_sums_cache_roundtrip_is_bit_exact(tmp_path, P):
    path = prime_sums_path(str(tmp_path / "cache"), P)
    assert path.endswith(f"prime_sums_P{P}.bin")
    fresh = _prime_sums(P)
    save_prime_sums(fresh, path, P)  # parent directories are created on demand
    raw = open(path, "rb").read()
    assert len(raw) == 60 + 8 * (1 + SERIES_TERMS) == 164 and raw == _sums_file(P, fresh)
    count, inv_sq, powers = load_prime_sums(path, P)
    assert count == fresh[0] and type(count) is int
    assert inv_sq == fresh[1]
    assert len(powers) == SERIES_TERMS - 1
    assert all(got == want for got, want in zip(powers, fresh[2], strict=True))
    assert os.listdir(tmp_path / "cache") == [os.path.basename(path)]  # no temporary file


def test_prime_sums_cache_rejects_mismatch_and_corruption(tmp_path):
    P = 10_000
    sums = _prime_sums(P)
    good = _sums_file(P, sums)
    flipped = bytearray(good)
    flipped[60 + 8 * 3 + 2] ^= 1  # a byte of S_3
    # each bad file, and a word its error must hold besides the path
    cases = [
        (_sums_file(P, sums, magic=b"OMGH"), "magic/version"),
        (_sums_file(P, sums, version=SUMS_VERSION + 1), "magic/version"),
        (_sums_file(P, sums, file_P=P + 1), "has P=10001, wanted P=10000"),
        (_sums_file(P, sums, min_truncation=MIN_TRUNCATION + 1), "MIN_TRUNCATION"),
        (_sums_file(P, sums, series_terms=SERIES_TERMS + 1), "SERIES_TERMS"),
        (_sums_file(P, sums, block=_BLOCK // 2), "_BLOCK"),
        (good[:-1], "payload is not 104 bytes"),
        (good[:40], "truncated header"),
        (good + b"\0", "payload is not 104 bytes"),
        (bytes(flipped), "SHA-256"),
    ]
    path = tmp_path / "prime_sums_P10000.bin"
    for bad, word in cases:
        path.write_bytes(bad)
        with pytest.raises(CacheMismatchError) as err:
            load_prime_sums(str(path), P)
        assert str(err.value).startswith(f"{path}: ") and word in str(err.value)
    path.write_bytes(good)
    assert load_prime_sums(str(path), P) == sums
    with pytest.raises(CacheMismatchError, match="has P=10000, wanted P=20000"):
        load_prime_sums(str(path), 20_000)


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
        pred = weighted_mass_theoretical(k, X, P=100_000)
        assert pred > 0
    emp = weighted_mass(H[2])
    assert 0.1 < emp / weighted_mass_theoretical(2, X, P=100_000) < 10.0


def test_small_factor_prediction_positive(H):
    mass = weighted_mass(H[2])
    vals = [
        small_factor_prediction(2, X, ell, W, P=100_000, mass=mass) for ell in range(5)
    ]
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
    H = grid_histograms([(X5, W)])[X5, W]
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


def test_report_relative_deviation():
    # |empirical - theoretical| / max(|theoretical|, 1e-30); large_factor_ratio's
    # rows predict 0.0, so the guard gives them a finite rel_dev
    cases = [(9, 10.0, 0.1), (np.int64(-11), -10, 0.1), (0.25, 0.0, 0.25e30), (0.0, 0.0, 0.0)]
    for empirical, theoretical, rel_dev in cases:
        rep = make_report("s", 10, 1, None, 2.5, empirical, theoretical, 1, np.float64(0.5))
        assert rep.rel_dev == pytest.approx(rel_dev, rel=1e-12), (empirical, theoretical)
        assert (rep.statistic, rep.x, rep.k, rep.w, rep.param) == ("s", 10, 1, None, 2.5)
        for name in ("empirical", "theoretical", "rel_dev", "error_scale", "runtime_ms"):
            assert type(getattr(rep, name)) is float, name


def test_session_oracle_agreement(table_1e5, oracle_triples, oracle_w):
    # the session-scoped 1e5 fixtures use the experiment w rule; spot-check
    k = 2
    H = oracles.histogram(table_1e5.omega, table_1e5.omega_small, 100_000)
    assert np.array_equal(grid_histograms([(100_000, oracle_w)])[100_000, oracle_w], H)
    J = H[k]
    assert weighted_mass(J) == oracles.weighted_mass(oracle_triples, k)
