"""Sieve correctness and determinism, and the compiled kernel."""

import ctypes
import itertools
import math
import os
import re
import shutil
import subprocess
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omegashift import kernel, verify
from omegashift.cli import main
from omegashift.primes import factor_table, iter_prime_blocks, primes_up_to
from omegashift.sieve import (
    LOG_TEST_MIN_X,
    LOG_SCALE,
    MAX_OMEGA,
    MAX_THREADS,
    W_CEILING,
    X_MAX_CEILING,
    OmegaTable,
    SieveConfig,
    _log_gap,
    _map_segments,
    build_omega_table,
    grid_histograms,
    segment_pass,
)


def small_table(x=1000, w=10, **kw):
    return build_omega_table(SieveConfig(x_max=x, w=w, **kw))


def test_known_factor_counts():
    t = small_table(100, 100)
    # 12 = 2^2*3, 30 = 2*3*5, 64 = 2^6, 97 prime, 1 has no factors
    assert t.omega[12] == 2
    assert t.omega[30] == 3
    assert t.omega[64] == 1
    assert t.omega[97] == 1
    assert t.omega[1] == 0
    assert t.omega_small[30] == 3


def test_small_counter_respects_w():
    t = small_table(1000, 7)
    # 170 = 2*5*17: only 2 and 5 are <= 7
    assert t.omega[170] == 3
    assert t.omega_small[170] == 2
    # 143 = 11*13: no small factors at all
    assert t.omega[143] == 2
    assert t.omega_small[143] == 0


def test_matches_trial_division_everywhere():
    x, w = 5000, 13
    t = small_table(x, w)
    for n in range(1, x + 1):
        om, osm = oracles.omega_pair(n, w)
        assert t.omega[n] == om, n
        assert t.omega_small[n] == osm, n


def test_large_leftover_prime_counts_once():
    # 2*4999 = 9998: the cofactor 4999 is prime and above sqrt(9998)
    t = small_table(9998, 5000)
    assert t.omega[9998] == 2
    assert t.omega_small[9998] == 2  # 4999 <= w
    t2 = small_table(9998, 4998)
    assert t2.omega_small[9998] == 1  # now the big prime is excluded


def test_deterministic_across_segments_and_threads():
    for w in (300, 200):  # base primes up to w = 300, then up to sqrt(60000) = 244.9
        ref = small_table(60_000, w, segment_length=1 << 15)
        for seg in (1024, 4096, 1 << 22):
            for th in (1, 2, 5):
                assert small_table(60_000, w, segment_length=seg, threads=th) == ref


def test_map_segments_raises_a_worker_error_once_every_worker_has_ended():
    ended = []

    def work(spans):
        spans = list(spans)
        ended.append(spans[0][0])
        if spans[0][0] > 2:  # workers 1 and 2 fail
            raise ValueError(f"worker at {spans[0][0]}")
        return len(spans)

    with pytest.raises(ValueError, match="worker at 1026"):  # worker 1's, in worker order
        _map_segments(work, 10_000, 1024, 3)
    assert sorted(ended) == [2, 1026, 2050]
    assert _map_segments(lambda spans: len(list(spans)), 10_000, 1024, 3) == [4, 3, 3]


@lru_cache(maxsize=None)
def _prime_divisors(n):
    return tuple(p for p, _ in oracles.factorize(n))


@lru_cache(maxsize=None)
def _trial_division_tables(x, w):
    """(omega, omega_small) for n <= x from oracles.factorize, entries 0, 1
    zero; cached per (x, w) and read-only."""
    omega = np.zeros(x + 1, dtype=np.uint8)
    omega_small = np.zeros(x + 1, dtype=np.uint8)
    for n in range(2, x + 1):
        primes = _prime_divisors(n)
        omega[n] = len(primes)
        omega_small[n] = sum(1 for p in primes if p <= w)
    omega.flags.writeable = omega_small.flags.writeable = False
    return omega, omega_small


SEGMENTS_AND_THREADS = [(seg, th) for seg in (1024, 4096, 1 << 22) for th in (1, 3)]


def _assert_matches_trial_division(x, w, segment_length, threads):
    t = small_table(x, w, segment_length=segment_length, threads=threads)
    omega, omega_small = _trial_division_tables(x, w)
    bad = np.flatnonzero((t.omega != omega) | (t.omega_small != omega_small))
    assert bad.size == 0, (x, w, segment_length, threads, bad[:5].tolist())


@st.composite
def _w_either_side_of_sqrt_x(draw):
    """w drawn up to sqrt(x), where the base primes stop at sqrt(x), or
    above it, where they run up to w."""
    if draw(st.sampled_from(("up to sqrt x", "above sqrt x"))) == "up to sqrt x":
        x = draw(st.integers(4, 5000))
        w = draw(st.integers(2, math.isqrt(x)))
    else:
        x = draw(st.integers(2, 5000))
        w = draw(st.integers(math.isqrt(x) + 1, x))
    return x, w, *draw(st.sampled_from(SEGMENTS_AND_THREADS))


@settings(max_examples=60, deadline=None, database=None)
@given(_w_either_side_of_sqrt_x())
def test_w_up_to_and_above_sqrt_x_match_trial_division(inputs):
    _assert_matches_trial_division(*inputs)


# x = p^2 - 1, p^2, p^2 + 1 for p = 11, 251; 2^16 and 2^16 + 1; the smallest
# x of the log test and the largest below it, where every prime <= x is sieved.
BOUNDARY_X = (12, 13, 120, 121, 122, 63_000, 63_001, 63_002, 1 << 16, (1 << 16) + 1)


@pytest.mark.parametrize("x", BOUNDARY_X)
def test_w_either_side_of_sqrt_x_at_boundary_x(x):
    r = math.isqrt(x)
    p = next(q for q in itertools.count(r + 1) if _prime_divisors(q) == (q,))
    for w in (r, r + 1):  # base primes up to sqrt(x), then up to w = r + 1
        for seg, th in SEGMENTS_AND_THREADS:
            _assert_matches_trial_division(x, w, seg, th)
        if 2 * p <= x:  # s = 2 and the cofactor is the first prime above sqrt(x)
            t = small_table(x, w)
            assert (t.omega[2 * p], t.omega_small[2 * p]) == (2, 1 + (p <= w))


def test_max_omega_is_derived_from_the_ceiling():
    primorial_11 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert primorial_11 <= X_MAX_CEILING < primorial_11 * 37
    assert MAX_OMEGA == 11
    assert MAX_OMEGA < kernel.OMEGA_CAP  # every omega is an index of the level histogram
    assert MAX_OMEGA < 256  # the sieve's count byte never carries into its log byte


def test_log_accumulator_fits_a_byte():
    assert LOG_SCALE * math.log(X_MAX_CEILING) < 256
    # the log test separates by more than one unit from x = 13 on, not at 12
    assert _log_gap(LOG_TEST_MIN_X) > 1 >= _log_gap(LOG_TEST_MIN_X - 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SieveConfig(x_max=1, w=2)
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, w=1)
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, w=101)
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, w=10, segment_length=100)
    with pytest.raises(ValueError):
        SieveConfig(x_max=100, w=10, threads=0)
    with pytest.raises(ValueError, match=rf"threads={MAX_THREADS + 1} outside \[1, 256\]"):
        SieveConfig(x_max=100, w=10, threads=MAX_THREADS + 1)
    assert SieveConfig(x_max=100, w=10, threads=MAX_THREADS).threads == 256
    with pytest.raises(ValueError):
        SieveConfig(x_max=(1 << 40) + 1, w=10)


def test_config_rejects_a_w_past_the_base_prime_ceiling():
    # A w < x needs every prime up to w as a base prime, and base primes
    # stop at 2^20; W_CEILING is the first prime above it.
    assert _is_prime(W_CEILING)
    assert not any(_is_prime(n) for n in range((1 << 20) + 1, W_CEILING))
    for x, w in ((W_CEILING + 1, W_CEILING), (X_MAX_CEILING, 1 << 30)):
        with pytest.raises(ValueError, match=rf"w={w} < x={x} needs base primes above 2\^20 "
                                             rf"\(w >= W_CEILING = {W_CEILING}"):
            SieveConfig(x_max=x, w=w)
    SieveConfig(x_max=X_MAX_CEILING, w=W_CEILING - 1)  # adds no prime above 2^20
    SieveConfig(x_max=W_CEILING, w=W_CEILING)  # w = x: omega_small is omega


def test_w_equal_to_x_counts_every_prime():
    # A pair with w = x adds no base prime above sqrt(x): omega(n, x) = omega(n).
    t = small_table(1 << 21, 1 << 21)
    assert np.array_equal(t.omega_small, t.omega)
    top = range((1 << 21) - 2000, (1 << 21) + 1)
    assert t.omega[top.start :].tolist() == [len(_prime_divisors(n)) for n in top]
    # Decided per pair: the grid's w = 2^21 at x = 2^21 is no base prime of x = 2^22.
    pairs = [(1 << 21, 1 << 21), (1 << 22, 10)]
    got = grid_histograms(pairs, threads=3)
    for x, w in pairs:
        t = small_table(x, w)
        assert np.array_equal(got[x, w], oracles.histogram(t.omega, t.omega_small, x)), (x, w)


def _is_prime(n):
    return oracles.factorize(n) == [(n, 1)]


def test_primes_up_to_every_small_limit():
    want = [n for n in range(2, 301) if _is_prime(n)]
    for limit in range(301):
        got = primes_up_to(limit)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in want if p <= limit], limit


def test_primes_up_to_around_prime_squares():
    # The limit p^2 is the first whose base primes hold p, and p^2 the first
    # number that only p strikes: the window below it is checked by trial
    # division, and each list must be the head of one longer list.
    longest = primes_up_to(997**2 + 1)
    for p in primes_up_to(1000).tolist():
        start = max(2, p * p - 40)
        window = [n for n in range(start, p * p + 2) if _is_prime(n)]
        for limit in (p * p - 1, p * p, p * p + 1):
            got = primes_up_to(limit)
            assert got[got >= start].tolist() == [n for n in window if n <= limit], limit
            assert np.array_equal(got, longest[longest <= limit]), limit


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 97, 10_007])
def test_prime_blocks_concatenate_to_primes_up_to(limit):
    want = primes_up_to(limit)
    for block_len in (1, 2, 7, 64, 1 << 22):
        blocks = list(iter_prime_blocks(limit, block_len))
        assert all(block.dtype == np.int64 for block in blocks)
        assert np.array_equal(np.concatenate([want[:0], *blocks]), want), block_len


@pytest.mark.parametrize("limit", [*range(41), 10_007])
def test_each_prime_block_holds_the_primes_of_its_span(limit):
    # Block i is [2 + i * block_len, ...) whatever it holds, empty blocks
    # too: the Euler products' block-ordered sums depend on it.
    primes = {n for n in range(2, limit + 1) if _is_prime(n)}
    for block_len in (1, 2, 7, 64, 1000):
        blocks = list(iter_prime_blocks(limit, block_len))
        los = range(2, limit + 1, block_len)
        assert len(blocks) == len(los), block_len
        for lo, block in zip(los, blocks):
            assert block.dtype == np.int64
            span = range(lo, min(lo + block_len, limit + 1))
            assert block.tolist() == [n for n in span if n in primes], (block_len, lo)


def _oracle_factor_rows(n_max):
    """(p, a, m, omega) of each q <= n_max from oracles.factorize."""
    rows = [(0, 0, 1, 0)] * min(n_max + 1, 2)
    for q in range(2, n_max + 1):
        (p, a), *rest = oracles.factorize(q)
        rows.append((p, a, q // p**a, 1 + len(rest)))
    return rows


@pytest.mark.parametrize("n_max", [2, 3, 4, 8, 9, 97, 10_000, 10_007])
def test_factor_table_matches_the_oracle(n_max):
    table = factor_table(n_max)
    for arr in table:
        assert arr.dtype == np.int64 and arr.shape == (n_max + 1,)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert list(zip(*(arr.tolist() for arr in table))) == _oracle_factor_rows(n_max)


def test_factor_table_and_verify_trial_division_call_no_sieve(monkeypatch):
    # They are the oracles of the sieve and of its base primes.
    def refuse(*args, **kwargs):
        raise AssertionError("a sieve was called")

    for name in ("primes.iter_prime_blocks", "primes.primes_up_to", "kernel.SegmentPass",
                 "sieve.build_omega_table", "verify.build_omega_table"):
        monkeypatch.setattr(f"omegashift.{name}", refuse)
    x, ws = 3000, (13, 3000)
    rows = _oracle_factor_rows(x)
    assert list(zip(*(arr.tolist() for arr in factor_table(x)))) == rows
    omega, small = verify._trial_division(x, ws)
    assert omega.tolist() == [row[3] for row in rows]
    for w in ws:
        assert small[w].tolist() == [0, 0] + [
            sum(p <= w for p in _prime_divisors(n)) for n in range(2, x + 1)], w


def test_level_set_iteration():
    t = small_table(30, 30)
    assert np.flatnonzero(t.omega == 1).tolist() == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
    ]
    assert np.flatnonzero(t.omega == 3).tolist() == [30]
    assert np.count_nonzero(t.omega[2:31] == 2) == 12
    assert np.count_nonzero(t.omega[2:31] == 0) == 0
    assert np.count_nonzero(t.omega[2:31] == 9) == 0


def test_partition_of_range():
    x = 20_000
    t = small_table(x, 10)
    assert np.bincount(t.omega[2 : x + 1])[1:].sum() == x - 1


def test_table_equality_semantics():
    a = small_table(500, 7)
    b = small_table(500, 7)
    c = small_table(500, 11)
    assert a == b
    assert a != c
    assert a != "not a table"
    mutated = OmegaTable(
        x_max=a.x_max, w=a.w, omega=a.omega.copy(), omega_small=a.omega_small.copy()
    )
    mutated.omega[250] += 1
    assert a != mutated


def test_agrees_with_session_oracle(table_1e5, oracle_triples, oracle_w):
    idx = np.arange(2, 100_001)
    kk = np.array([k for k, _, _ in oracle_triples], dtype=np.int64)
    vv = np.array([v for _, v, _ in oracle_triples], dtype=np.int64)
    uu = np.array([u for _, _, u in oracle_triples], dtype=np.int64)
    assert np.array_equal(table_1e5.omega[idx], kk)
    assert np.array_equal(table_1e5.omega[idx - 1], vv)
    assert np.array_equal(table_1e5.omega_small[idx - 1], uu)


@pytest.fixture
def kernel_dir(monkeypatch, tmp_path):
    """The kernel's library cache emptied and moved to tmp_path for one test."""
    monkeypatch.setattr(kernel, "CACHE_DIR", str(tmp_path))
    kernel._library.cache_clear()
    yield tmp_path
    kernel._library.cache_clear()  # later calls load the package's library again


def test_kernel_without_a_compiler_is_an_os_error(kernel_dir, monkeypatch, capsys):
    monkeypatch.setattr(kernel, "_compiler", lambda: [str(kernel_dir / "no-such-cc")])
    with pytest.raises(kernel.KernelBuildError, match="C compiler") as info:
        small_table(1000, 10)
    assert isinstance(info.value, OSError)
    assert main(["sieve", "--x", "1000", "--w", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    monkeypatch.setattr(kernel, "_compiler", lambda: ["false"])  # runs, exits 1
    with pytest.raises(kernel.KernelBuildError, match="failed"):
        small_table(1000, 10)
    assert list(kernel_dir.iterdir()) == []  # no temporary file is left behind


def test_truncated_kernel_library_is_rebuilt(kernel_dir):
    path = kernel.library_path()
    open(path, "wb").close()  # a cached library cut to 0 bytes
    t = small_table(5000, 13, segment_length=1024)
    assert os.path.getsize(path) > 0
    omega, omega_small = _trial_division_tables(5000, 13)
    assert np.array_equal(t.omega, omega) and np.array_equal(t.omega_small, omega_small)
    assert kernel.fold(t.omega, t.omega_small, 2, 5001).sum() == 4999
    assert [f.name for f in kernel_dir.iterdir()] == [os.path.basename(path)]


def test_a_build_removes_the_stale_kernel_libraries(kernel_dir):
    stale = [kernel_dir / f"omegashift_kernel_{'0' * 15}{i}.so" for i in (1, 2)]
    for path in stale:
        path.write_bytes(b"an older build")
    (kernel_dir / "unrelated.so").write_bytes(b"not a kernel build")
    small_table(1000, 10)
    assert sorted(f.name for f in kernel_dir.iterdir()) == sorted(
        [os.path.basename(kernel.library_path()), "unrelated.so"]
    )


def test_fold_refuses_a_corrupt_table():
    t = small_table(1000, 10)
    fold = lambda: kernel.fold(t.omega, t.omega_small, 2, 1001)
    good = fold()
    assert good.shape == (16, 16, 16) and good.dtype == np.int64
    assert np.array_equal(good, oracles.histogram(t.omega, t.omega_small, 1000))
    for array, n in ((t.omega, 500), (t.omega, 1), (t.omega_small, 999)):
        saved = array[n]
        array[n] = 200  # its packed index would fall far outside the fold's bins
        with pytest.raises(ValueError, match="corrupt"):
            fold()
        array[n] = 16  # the first byte outside a base-16 digit
        with pytest.raises(ValueError, match="corrupt"):
            fold()
        array[n] = saved
    assert np.array_equal(fold(), good)


def test_kernel_rejects_bad_arguments():
    om = np.zeros(100, dtype=np.uint8)
    for start, stop in ((0, 10), (5, 101), (10, 5)):
        with pytest.raises(ValueError, match="fold range"):
            kernel.fold(om, om, start, stop)
    with pytest.raises(TypeError):
        kernel.fold(om.astype(np.int64), om, 1, 10)
    with pytest.raises(TypeError):
        kernel.fold(om[::2], om, 1, 10)


def _segment(size=64, nosm=1):
    """Zeroed (cell, om, osms) for a segment of size words."""
    return (
        np.zeros(size, dtype=np.uint16),
        np.zeros(size, dtype=np.uint8),
        [np.zeros(size, dtype=np.uint8) for _ in range(nosm)],
    )


PRIMES_23 = np.array([2, 3]), np.array([5 << 8, 8 << 8])


@pytest.mark.parametrize(
    "change, error, match",
    [
        (dict(splits=[2, 1], nosm=2), ValueError, "not ascending"),
        (dict(splits=[3]), ValueError, "not ascending"),
        (dict(splits=[-1]), ValueError, "not ascending"),
        (dict(splits=[1, 2]), ValueError, "osm arrays"),
        (dict(nosm=0), ValueError, "osm arrays"),
        (dict(osm_size=63), ValueError, "differ in length"),
        (dict(cell_size=65), ValueError, "differ in length"),
        (dict(steps=PRIMES_23[1][:1]), ValueError, "differ in length"),
        (dict(bounds=[0] * 7, lo=0), ValueError, "tile"),
        (dict(bounds=[0] * 6), ValueError, "tile"),  # [10, 74) ends past 2^6
        (dict(bounds=[0] * 40, lo=(1 << 40) + 1 - 64), ValueError, "tile"),  # 2^40 needs 41
        (dict(bounds=[0] * 6, lo=1), ValueError, "segment end"),  # n = 64 needs 7
        (dict(bounds=[0] * 6 + [1 << 16]), ValueError, "outside a word"),
        (dict(lo=1 << 40), ValueError, "segment"),
        (dict(primes=np.array([2, (1 << 20) + 7])), ValueError, "base prime"),
        (dict(frozen=("cell",)), ValueError, "read-only"),
        (dict(frozen=("om",)), ValueError, "read-only"),
        (dict(frozen=("osm0",)), ValueError, "read-only"),
        (dict(cell_dtype=np.int32), TypeError, "cell"),
        (dict(frozen=("osm1",), splits=[1, 2], nosm=2), ValueError, "read-only"),
        (dict(om_stride=2), TypeError, "om"),
        (dict(steps=np.array([5 << 8, (8 << 8) + 1])), ValueError, "high byte"),
        (dict(steps=np.array([5 << 8, 1 << 16])), ValueError, "high byte"),
        (dict(steps=np.array([5 << 8, -(8 << 8)])), ValueError, "high byte"),
        (dict(bounds=[0, -1, 0, 0, 0, 0, 0]), ValueError, "outside a word"),
    ],
)
def test_fill_segment_rejects_bad_arguments_before_any_c_call(monkeypatch, change, error, match):
    arg = dict(splits=[1], nosm=1, osm_size=64, cell_size=64, lo=10, bounds=(),
               primes=PRIMES_23[0], steps=PRIMES_23[1], frozen=(),
               cell_dtype=np.uint16, om_stride=1)
    arg.update(change)
    cell = np.zeros(arg["cell_size"], dtype=arg["cell_dtype"])
    om = np.zeros(64 * arg["om_stride"], dtype=np.uint8)[:: arg["om_stride"]]
    osms = [np.zeros(arg["osm_size"], dtype=np.uint8) for _ in range(arg["nosm"])]
    outputs = {"cell": cell, "om": om, **{f"osm{s}": osm for s, osm in enumerate(osms)}}
    for name in arg["frozen"]:  # the pass would write into it
        outputs[name].flags.writeable = False
    monkeypatch.setattr(kernel, "library", lambda: pytest.fail("the C kernel was called"))
    with pytest.raises(error, match=match):
        kernel.SegmentPass(arg["primes"], arg["steps"], arg["bounds"]).fill(
            cell, om, osms, arg["lo"], arg["splits"])


def test_fill_segment_words_copy_outs_and_cofactor_test():
    cell, om, (osm,) = _segment()
    primes, steps = PRIMES_23
    kernel.SegmentPass(primes, steps).fill(cell, om, [osm], 10, [1])  # n = 10..73
    assert cell[0] == (5 << 8) + 1  # 10 = 2 * 5
    assert cell[2] == 2 * (5 << 8) + 1 + (8 << 8) + 1  # 12: 2, 4 and 3
    assert cell[54] == 6 * (5 << 8) + 1  # 64 = 2^6
    assert np.array_equal(om, cell.astype(np.uint8))  # no bounds: the low byte
    assert (osm[2], om[2]) == (1, 2)  # 12 after the prime 2, and after 3
    cell[:] = 12345  # the pass overwrites whatever the scratch holds
    bounds = (0, 0, 0, 6 << 8, 9 << 8, 0, 31 << 8)  # [8, 16), [16, 32), [32, 64), [64, 128)
    kernel.SegmentPass(primes, steps, bounds).fill(cell, om, [osm], 10, [1])
    low = cell.astype(np.uint8)
    for start, stop, bound in ((0, 6, 6 << 8), (6, 22, 9 << 8), (22, 54, 0), (54, 64, 31 << 8)):
        assert np.array_equal(om[start:stop], low[start:stop] + (cell[start:stop] < bound))
    assert np.array_equal(om[22:54], low[22:54])  # bound 0: no word is below it
    assert om[0] == 2  # 10: one counted prime, and its word is below the bound
    assert om[54] == 2  # 64 = 2^6: its word 6 * (5 << 8) + 1 is below 31 << 8


@pytest.mark.parametrize("lo", [1, 10, 127, 1000, (1 << 40) - 63])
def test_fill_segment_pattern_matches_the_zero_start(lo):
    # The primes 2, 3, 5, 7 get starts of periods 1 (one zero word), 16,
    # 144, 720 and 5040: the pass must add only the powers a start lacks and
    # the primes after it, and wrap the start at each period.  5200 words
    # from lo < 5040 cross every period; the last segment ends at 2^40.
    primes, steps = np.array([2, 3, 5, 7]), np.array([5 << 8, 8 << 8, 12 << 8, 15 << 8])
    assert [s.size for s in kernel.SegmentPass(primes, steps).starts] == [1, 16, 144, 720, 5040]
    size = min(5200, X_MAX_CEILING + 1 - lo)
    _assert_segment_matches_oracle(lo, size, primes, steps, [4], ALTERNATING_BOUNDS, range(5))


def _kernel_define(name):
    with open(kernel.SOURCE) as fh:
        return int(re.search(rf"^#define {name} (\d+)$", fh.read(), re.M).group(1))


CHUNK, SMALL_BOUND, FOLD_BLOCK = map(_kernel_define, ("CHUNK", "SMALL_BOUND", "FOLD_BLOCK"))


# A bound for every octave up to 2^40, 9 << 8 and 3 << 8 in turn.
ALTERNATING_BOUNDS = tuple((3 + 6 * (b % 2)) << 8 for b in range(41))


def _assert_segment_matches_oracle(lo, size, primes, steps, splits, bounds, leads):
    """One fill from each start in leads, each forced by a first split at
    its lead, against one oracle run with every split."""
    want = oracles.segment_pass(lo, size, primes, steps, [*leads, *splits], bounds)
    plan = kernel.SegmentPass(primes, steps, bounds)
    for i, lead in enumerate(leads):
        cell, om, osms = _segment(size, 1 + len(splits))
        plan.fill(cell, om, osms, lo, [lead, *splits])
        assert np.array_equal(cell, want[0]), lead
        assert np.array_equal(om, want[1]), lead
        for s, (got, osm) in enumerate(zip(osms, [want[2][i], *want[2][len(leads):]])):
            assert np.array_equal(got, osm), (lead, s)


def _small_split(primes):
    """How many primes kernel.c sieves chunk by chunk, when it has room."""
    small = int(np.searchsorted(primes, SMALL_BOUND))
    assert 0 < small < primes.size
    return small


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
@settings(max_examples=12, deadline=None, database=None)
@given(lo=st.integers(0, X_MAX_CEILING + 1 - (3 * CHUNK + 17)), cut=st.integers(5, 300))
def test_fill_segment_chunks_match_the_whole_segment_oracle(size, lo, cut):
    # The primes up to 10^4, split before, at and after SMALL_BOUND and at
    # the end, from each start, with ALTERNATING_BOUNDS (none from lo = 0).
    plan = segment_pass(10**8)
    small = _small_split(plan.primes)
    splits = [cut, small, small + cut, plan.primes.size]
    bounds = ALTERNATING_BOUNDS if lo else ()
    _assert_segment_matches_oracle(lo, size, plan.primes, plan.steps, splits, bounds, range(6))


@pytest.mark.parametrize("hi", [X_MAX_CEILING, X_MAX_CEILING + 1])
def test_fill_segment_at_the_ceiling_with_every_base_prime(hi):
    # Every prime up to 2^20 and every power up to 2^40, where the phase-1
    # primes have the most powers past CHUNK, with the ceiling's bounds.
    plan = segment_pass(X_MAX_CEILING)
    small = _small_split(plan.primes)
    splits = [5, small - 1, small, plan.primes.size // 2, plan.primes.size]
    _assert_segment_matches_oracle(hi - 1024, 1024, plan.primes, plan.steps, splits,
                                   plan.bounds, range(6))


@pytest.mark.parametrize("hi", [X_MAX_CEILING, X_MAX_CEILING + 1])
def test_w_above_sqrt_x_at_the_ceiling_matches_trial_division(hi):
    # w = 2^20 + 1 = 17 * 61 681 is above sqrt(2^40) but adds no base prime:
    # the primes up to 2^20 leave each n a cofactor above every w.
    size, ws = 64, (13, 1 << 20, (1 << 20) + 1)
    plan = segment_pass(X_MAX_CEILING, ws)
    cell, om, osms = _segment(size, len(ws))
    plan.fill(cell, om, osms, hi - size, _splits(plan, ws))
    for j, n in enumerate(range(hi - size, hi)):
        divisors = _prime_divisors(n)
        assert om[j] == len(divisors), n
        for w, osm in zip(ws, osms):
            assert osm[j] == sum(p <= w for p in divisors), (n, w)


def _splits(plan, ws):
    """How many of the pass's primes are <= each w of ws."""
    return [int(np.count_nonzero(plan.primes <= w)) for w in ws]


def test_segment_pass_sieves_every_prime_its_thresholds_need():
    # Every prime up to max(sqrt(x), max ws), or up to x below 13, where
    # the log test cannot find a cofactor and there are no bounds.
    for x, ws in ((10_000, (13, 101)), (10_000, (100, 10_000)), (10_000, (5000,)),
                  (12, ()), (12, (5,)), (13, ()), (121, ()), (121, (2,))):
        plan = segment_pass(x, ws)
        top = max([math.isqrt(x), *ws]) if x >= LOG_TEST_MIN_X else x
        assert plan.primes.tolist() == [n for n in range(2, top + 1) if _is_prime(n)], (x, ws)
        steps = [int(LOG_SCALE * math.log(p)) << 8 for p in plan.primes.tolist()]
        assert plan.steps.tolist() == steps, (x, ws)
        assert len(plan.bounds) == (x.bit_length() if x >= LOG_TEST_MIN_X else 0), (x, ws)
    # The pass of x = 10 000 sieves the primes up to 97; w = 100 adds none
    # and is exact.
    ws = (13, 100)
    plan = segment_pass(10_000, ws)
    assert plan.primes[-1] == 97
    cell, om, osms = _segment(64, 2)
    plan.fill(cell, om, osms, 10, _splits(plan, ws))
    for j, n in enumerate(range(10, 74)):
        assert (om[j], osms[0][j], osms[1][j]) == (
            *oracles.omega_pair(n, 13), oracles.omega_pair(n, 100)[1]), n


# The bounds of x = 10^8 and 2^40 (T, the word bound >> 8, per octave b),
# pinned so that any change to their float formula shows.
FROZEN_BOUNDS = {
    10**8: [0] * 9 + [3, 8, 14, 19, 25, 30, 36, 41, 47, 52, 58, 64, 69, 75, 80, 86, 91, 97],
    X_MAX_CEILING: [0] * 14 + [5, 10, 16, 22, 27, 33, 38, 44, 49, 55, 60, 66, 71, 77, 83, 88,
                               94, 99, 105, 110, 116, 121, 127, 132, 138, 144, 149],
}


@pytest.mark.parametrize("x", sorted(FROZEN_BOUNDS))
def test_segment_pass_bounds_are_pinned(x):
    assert list(segment_pass(x).bounds) == [t << 8 for t in FROZEN_BOUNDS[x]]


# Passes whose base primes reach every prime <= x, x >= 13: the log test
# runs and must add nothing.
EVERY_PRIME_PAIRS = [(3000, 2999), (10_000, 9973), (20, 19)]


@pytest.mark.parametrize("x, w", EVERY_PRIME_PAIRS)
def test_a_pass_through_every_prime_up_to_x_matches_trial_division(x, w):
    assert primes_up_to(x)[-1] == w
    omega, omega_small = _trial_division_tables(x, w)
    want = oracles.histogram(omega, omega_small, x)
    for threads in (1, 3):
        _assert_matches_trial_division(x, w, 1024, threads)
        got = grid_histograms([(x, w)], threads=threads, segment_length=1024)
        assert np.array_equal(got[x, w], want), threads


def test_fill_segment_past_a_full_stream_table():
    # A base prime list never repeats a prime, but the kernel must not overrun
    # its stream table on one that does: 100 copies of 2 have 12 powers each
    # below CHUNK, and the copies that do not fit are sieved in phase 2.
    # Every copy shares the period 16, so each start holds lead copies.
    primes = np.full(100, 2, dtype=np.int64)
    steps = (np.arange(100, dtype=np.int64) % 7) << 8
    size = 3 * CHUNK + 17
    splits = [10, 60, 100]
    _assert_segment_matches_oracle(X_MAX_CEILING + 1 - size, size, primes, steps, splits,
                                   (1 << 15,) * 41, range(11))


@lru_cache(maxsize=1)
def _fold_table():
    """A sieved table long enough for four fold blocks; read-only."""
    t = small_table(4 * FOLD_BLOCK + 100, 100)
    t.omega.flags.writeable = t.omega_small.flags.writeable = False
    return t


def _oracle_fold(t, start, stop):
    """oracles.histogram over the positions start <= i < stop, start >= 2:
    shifted by start - 2, its n = 2..stop - start + 1 are those positions."""
    shift = start - 2
    return oracles.histogram(t.omega[shift:], t.omega_small[shift:], stop - shift - 1)


@pytest.mark.parametrize("size", [1, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1,
                                  3 * FOLD_BLOCK + 17])
@pytest.mark.parametrize("start", [2, FOLD_BLOCK - 1])
def test_fold_matches_the_oracle_at_its_block_edges(start, size):
    assert _kernel_define("FOLD_BINS") == kernel.FOLD_BINS
    t = _fold_table()
    got = kernel.fold(t.omega, t.omega_small, start, start + size)
    assert np.array_equal(got, _oracle_fold(t, start, start + size))


@pytest.mark.parametrize("bad", [16, 200])
def test_fold_refuses_a_corrupt_byte_in_any_block(bad):
    # Four blocks: a byte is caught in the last one, after three were
    # counted, and at the first position, before any; bytes just outside
    # the range are never read.
    t = small_table(4 * FOLD_BLOCK, 100)
    start, stop = 3, 3 + 3 * FOLD_BLOCK + 17
    fold = lambda: kernel.fold(t.omega, t.omega_small, start, stop)
    good = fold()
    assert np.array_equal(good, _oracle_fold(t, start, stop))
    inside = ((t.omega, stop - 1), (t.omega_small, stop - 2), (t.omega, start),
              (t.omega, start - 1), (t.omega_small, start - 1))
    outside = ((t.omega, stop), (t.omega_small, stop - 1), (t.omega, start - 2),
               (t.omega_small, start - 2))
    for cells, raises in ((inside, True), (outside, False)):
        for array, i in cells:
            saved = array[i]
            array[i] = bad
            if raises:
                with pytest.raises(ValueError, match="corrupt"):
                    fold()
            else:
                assert np.array_equal(fold(), good)
            array[i] = saved
    assert np.array_equal(fold(), good)
    zeros = np.zeros(100, dtype=np.uint8)  # the bad byte alone sets the mask
    for i in (0, 50, 99):
        om = zeros.copy()
        om[i] = bad
        with pytest.raises(ValueError, match="corrupt"):
            kernel.fold(om, zeros, 1, 100)


@pytest.mark.parametrize("flush", [1000, FOLD_BLOCK + FOLD_BLOCK // 2 + 1])
def test_fold_flushes_its_table_between_windows(tmp_path, flush):
    # FOLD_FLUSH is 2^30 positions, past any test table: a copy of kernel.c
    # flushing every few thousand positions, some windows ending inside a
    # block, must fold the same H.
    cc = kernel._compiler()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    with open(kernel.SOURCE) as fh:
        source, count = re.subn(r"^#define FOLD_FLUSH .*$", f"#define FOLD_FLUSH INT64_C({flush})",
                                fh.read(), flags=re.M)
    assert count == 1
    (tmp_path / "k.c").write_text(source)
    argv = [*cc, *kernel.FLAGS, "-o", str(tmp_path / "k.so"), str(tmp_path / "k.c")]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    fold = ctypes.CDLL(str(tmp_path / "k.so")).fold
    fold.argtypes = kernel.library().fold.argtypes
    t = _fold_table()
    start, stop = 3, 3 + 3 * FOLD_BLOCK + 17
    H = np.zeros((16, 16, 16), dtype=np.int64)
    assert fold(H.ctypes.data, t.omega.ctypes.data, t.omega_small.ctypes.data, start, stop) == 0
    assert np.array_equal(H, _oracle_fold(t, start, stop))


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc = kernel._compiler()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    argv = [*cc, *kernel.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"),
            kernel.SOURCE]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_kernel_parameters_match_their_ctypes_argtypes():
    # ctypes trusts argtypes: a count or a kind that disagrees with kernel.c
    # shifts every later argument and corrupts memory without an error.
    cc = kernel._compiler()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    with open(kernel.SOURCE) as fh:
        source = fh.read()
    lib = kernel.library()
    for name in ("fill_segment", "fold"):
        params = re.search(rf"^\w+ {name}\(([^)]*)\)", source, re.M).group(1).split(",")
        want = [ctypes.c_void_p if "*" in param else ctypes.c_int64 for param in params]
        assert list(getattr(lib, name).argtypes) == want, name


def test_presieve_pattern_against_its_definition():
    # Each start holds its leading primes at their powers up to 16, and
    # 13 would take the period past 2^16 words.
    plan = segment_pass(10**8)
    primes, starts = plan.primes, plan.starts
    assert [s.size for s in starts] == [1, 16, 144, 720, 5040, 55_440]
    assert starts[-1].nbytes == 110_880  # at most 128 KB
    words, powers = [], []  # each prime's word and largest power, for n < 55 440
    for p in primes[:5].tolist():
        step = int(LOG_SCALE * math.log(p)) << 8
        cap = max(e for e in range(1, 5) if p**e <= 16)
        mults = [cap if n == 0 else min(_multiplicity(n, p), cap) for n in range(55_440)]
        words.append(np.array([e and e * step + 1 for e in mults], dtype=np.int64))
        powers.append(p**cap)
    for lead, start in enumerate(starts):
        assert not start.flags.writeable
        assert start.size == math.prod(powers[:lead])
        assert np.array_equal(start, sum(words[:lead], np.zeros(55_440))[: start.size])


def _multiplicity(n, p):
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return e


@pytest.mark.parametrize("w", [2, 3, 5, 6, 7, 10, 11, 12, 13, 300])
def test_presieve_cut_matches_trial_division(w):
    # Each w starts every segment from the primes up to it, at most 2..11:
    # w = 2 from {2}, 3 from {2, 3}, 5 and 6 from {2, 3, 5}, 7..10 from
    # {2, 3, 5, 7}; 60 000 covers one full period and 300 > sqrt(60 000)
    # takes the base primes up to 300.
    for seg, th in ((1024, 2), (1 << 22, 1)):
        _assert_matches_trial_division(60_000, w, seg, th)


@pytest.mark.parametrize("x", [8, 9, 24, 25, 48, 49, 120, 121, 168, 169])
def test_presieve_bound_on_x_matches_trial_division(x):
    # 3, 5, 7 and 11 join the base primes, and their starts, at x = 9, 25,
    # 49 and 121; 13 joins at 169 with no start of its own.
    for w in (2, 3, 5, 7, 10, 11, 12, 13, x):
        if w <= x:
            _assert_matches_trial_division(x, w, 1024, 1)


def test_segments_across_pattern_periods():
    # 1024-word segments start at 2 + 1024 i, so each multiple of 55 440
    # falls inside one, and the pattern wraps there.
    x, seg = 200_000, 1024
    for w in (13, 447, 448):  # base primes up to isqrt(x) = 447; 448 adds none
        t = small_table(x, w, segment_length=seg, threads=2)
        for m in range(1, x // 55_440 + 1):  # the period of 2..11
            for n in range(55_440 * m - seg, 55_440 * m + seg):
                assert (t.omega[n], t.omega_small[n]) == oracles.omega_pair(n, w), (w, n)


def test_grid_pass_switches_the_pattern_on_between_segments():
    # The 1024-word segments start at 2 + 1024 i, and each starts from the
    # primes up to its smallest live w: {2} (two segments), then {2, 3, 5}
    # up to 2500, {2, 3, 5, 7} up to 3500, then 2..11 as only w = 13 and
    # 400 stay live.
    # The grid pass shifts each segment by one (lo - 1), and
    # 400 > sqrt(120 000) takes the base primes up to 400.
    pairs = [(1500, 2), (2500, 5), (3500, 10), (120_000, 13), (120_000, 400)]
    got = grid_histograms(pairs, threads=2, segment_length=1024)
    for x, w in pairs:
        t = small_table(x, w)
        assert np.array_equal(got[x, w], oracles.histogram(t.omega, t.omega_small, x)), (x, w)
