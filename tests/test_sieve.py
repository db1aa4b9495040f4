"""Sieve correctness and determinism, and the compiled kernel."""

import ctypes
import errno
import hashlib
import itertools
import math
import mmap
import os
import re
import shutil
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omegashift import kernel, verify
from omegashift.cli import main
from omegashift.base import (
    DEFAULT_SEGMENT,
    OMEGA_CAP,
    default_segment,
    primes_up_to,
)
from omegashift.primes import factor_table
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
        for seg in (1024, 4096, 1 << 16, 1 << 22):
            for th in (1, 2, 5):
                assert small_table(60_000, w, segment_length=seg, threads=th) == ref


def test_map_segments_raises_a_worker_error_once_every_worker_has_ended():
    ended = []

    def work(lo, hi):
        ended.append(lo)
        if lo > 2:  # workers 1 and 2 fail
            raise ValueError(f"worker at {lo}")
        return hi

    with pytest.raises(ValueError, match="worker at 4098"):  # worker 1's, in worker order
        _map_segments(work, 10_000, 1024, 3)
    assert sorted(ended) == [2, 4098, 7170]
    # 10 segments: one contiguous run of 4, 3 and 3 for each worker
    assert _map_segments(lambda lo, hi: (lo, hi), 10_000, 1024, 3) == [
        (2, 4098), (4098, 7170), (7170, 10_001)]
    assert _map_segments(lambda lo, hi: (lo, hi), 10_000, 1024, 20) == [
        (lo, min(lo + 1024, 10_001)) for lo in range(2, 10_001, 1024)]
    assert _map_segments(lambda lo, hi: (lo, hi), 3, 1024, 2) == [(2, 4)]


def test_default_segment_grows_with_sqrt_x():
    # 2^k for the k bits of 4 sqrt(x), from 2^16 to 2^18.
    assert [default_segment(x) for x in (2, 10**8, (1 << 28) - 1, 1 << 28, 10**9,
                                          (1 << 30) - 1, 1 << 30, 10**10, X_MAX_CEILING)] == [
        1 << 16, 1 << 16, 1 << 16, 1 << 17, 1 << 17, 1 << 17, 1 << 18, 1 << 18, 1 << 18]
    assert default_segment(10**8) == DEFAULT_SEGMENT == 1 << 16
    assert SieveConfig(x_max=10**8, w=10).segment_length is None


class _CountingLibrary:
    """The loaded kernel, counting the calls of each function it is asked for."""

    def __init__(self, lib):
        self.lib, self.calls = lib, Counter()

    def __getattr__(self, name):
        function = getattr(self.lib, name)

        def counted(*args):
            self.calls[name] += 1
            return function(*args)

        return counted


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_each_worker_makes_one_kernel_walk(monkeypatch, threads):
    # 12 segments of 1024: each producer walks each worker's run in one
    # call, and the grid pass folds in that call too.
    counting = _CountingLibrary(kernel.library())
    monkeypatch.setattr(kernel, "library", lambda: counting)
    x = 12 * 1024 + 1
    table = small_table(x, 13, segment_length=1024, threads=threads)
    assert +counting.calls == {"walk": threads}
    got = grid_histograms([(x // 2, 13), (x, 13), (x, 200)], threads=threads,
                          segment_length=1024)
    assert +counting.calls == {"walk": 2 * threads}
    assert np.array_equal(got[x, 13], oracles.histogram(table.omega, table.omega_small, x))


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
    got, got_small = np.asarray(t.omega), np.asarray(t.omega_small)
    bad = np.flatnonzero((got != omega) | (got_small != omega_small))
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


# SHA-256 of the omega table at w = x_max, written when omega_small was a
# second buffer filled as a copy of it.
W_IS_X_DIGESTS = {
    5000: "5cca1b7e9028d0325080b4eb09bba6574e217c8cb32c071388dcd53134d184b9",
    10**6: "a3673d761df05c954a88f6040cc904fb4e26f67ed04b4255b5ca2a525de8a11d",
}


@pytest.mark.parametrize("x", sorted(W_IS_X_DIGESTS))
def test_w_equal_to_x_keeps_one_buffer(x):
    # Either side of kernel.PAGED_BYTES: a bytearray, then an mmap.
    for threads in (1, 2):
        t = small_table(x, x, threads=threads)
        assert t.omega_small is t.omega
        assert hashlib.sha256(t.omega).hexdigest() == W_IS_X_DIGESTS[x], threads
    below = small_table(x, x - 1)
    assert below.omega_small.obj is not below.omega.obj


def _is_prime(n):
    return oracles.factorize(n) == [(n, 1)]


def test_primes_up_to_every_small_limit():
    want = [n for n in range(2, 301) if _is_prime(n)]
    for limit in range(301):
        got = primes_up_to(limit)
        assert all(type(p) is int for p in got)
        assert got == [p for p in want if p <= limit], limit


def test_primes_up_to_around_prime_squares():
    # The limit p^2 is the first whose sieve strikes with p, and p^2 the
    # first number that only p strikes: the window below it is checked by
    # trial division, and each list must be the head of one longer list.
    longest = primes_up_to(997**2 + 1)
    for p in primes_up_to(1000):
        start = max(2, p * p - 40)
        window = [n for n in range(start, p * p + 2) if _is_prime(n)]
        for limit in (p * p - 1, p * p, p * p + 1):
            got = primes_up_to(limit)
            assert [q for q in got if q >= start] == [n for n in window if n <= limit], limit
            assert got == [q for q in longest if q <= limit], limit


def _double_term(p, j):
    """p^-j as the frozen prime sums take it: 1.0 / p squared, times 1.0 / p
    per further power (constants' module docstring)."""
    inv = 1.0 / p
    term = inv * inv
    for _ in range(j - 2):
        term *= inv
    return term


@pytest.mark.parametrize("limit", [*range(41), 10_007])
def test_each_prime_block_holds_the_primes_of_its_span(limit):
    # The frozen prime sums come from the oracle's sieve and sums (python3
    # tests/oracles.py), and verify checks them over primes_up_to's primes:
    # both sieves give the primes up to limit by trial division.  Cut into
    # blocks [2 + i * block_len, ...) of [2, limit], empty blocks too, the
    # oracle's sums of each block's primes are the math.fsum of their double
    # terms (the S_j over the primes above 10, so that small blocks have some).
    primes = [n for n in range(2, limit + 1) if _is_prime(n)]
    assert primes_up_to(limit) == primes
    assert list(oracles._primes_up_to(limit)) == primes
    for block_len in (1, 2, 7, 64, 1000):
        for lo in range(2, limit + 1, block_len):
            span = primes[bisect_left(primes, lo) : bisect_left(primes, lo + block_len)]
            above = [p for p in span if p > 10]
            want = (len(span), math.fsum(_double_term(p, 2) for p in span),
                    tuple(math.fsum(_double_term(p, j) for p in above) for j in (2, 3, 4)))
            got = oracles.span_prime_sums(span, 10, 3)
            assert oracles.sums_bits(got) == oracles.sums_bits(want), (block_len, lo)


def _oracle_factor_rows(n_max):
    """(p, a, m, omega) of each q <= n_max from oracles.factorize."""
    rows = [(0, 0, 1, 0)] * min(n_max + 1, 2)
    for q in range(2, n_max + 1):
        (p, a), *rest = oracles.factorize(q)
        rows.append((p, a, q // p**a, 1 + len(rest)))
    return rows


@pytest.mark.parametrize("n_max", [2, 3, 4, 8, 9, 97, 2000, 10_000, 10_007])
def test_factor_table_matches_the_oracle(n_max):
    table = factor_table(n_max)
    for seq in table:
        assert type(seq) is tuple and len(seq) == n_max + 1
        assert all(type(v) is int for v in seq)
    assert list(zip(*table)) == _oracle_factor_rows(n_max)
    assert table == tuple(tuple(arr.tolist()) for arr in oracles.factor_table(n_max))


def test_factor_table_and_verify_trial_division_call_no_sieve(monkeypatch):
    # They are the oracles of the sieve and of its base primes.
    def refuse(*args, **kwargs):
        raise AssertionError("a sieve was called")

    for name in ("base.primes_up_to", "sieve.primes_up_to", "constants.primes_up_to",
                 "kernel.SegmentPass", "sieve.build_omega_table",
                 "verify.build_omega_table"):
        monkeypatch.setattr(f"omegashift.{name}", refuse)
    x, ws = 3000, (13, 3000)
    rows = _oracle_factor_rows(x)
    assert list(zip(*factor_table(x))) == rows
    omega, small = verify._trial_division(x, ws)
    assert list(omega) == [row[3] for row in rows]
    for w in ws:
        assert small[w] == [0, 0] + [
            sum(p <= w for p in _prime_divisors(n)) for n in range(2, x + 1)], w


def test_level_set_iteration():
    omega = np.asarray(small_table(30, 30).omega)
    assert np.flatnonzero(omega == 1).tolist() == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
    ]
    assert np.flatnonzero(omega == 3).tolist() == [30]
    assert np.count_nonzero(omega[2:31] == 2) == 12
    assert np.count_nonzero(omega[2:31] == 0) == 0
    assert np.count_nonzero(omega[2:31] == 9) == 0


def test_partition_of_range():
    x = 20_000
    t = small_table(x, 10)
    assert np.bincount(np.asarray(t.omega)[2 : x + 1])[1:].sum() == x - 1


def test_table_equality_semantics():
    a = small_table(500, 7)
    b = small_table(500, 7)
    c = small_table(500, 11)
    assert a == b
    assert a != c
    assert a != "not a table"
    mutated = OmegaTable(x_max=a.x_max, w=a.w, omega=memoryview(bytearray(a.omega)),
                         omega_small=memoryview(bytearray(a.omega_small)))
    assert a == mutated
    mutated.omega[250] += 1
    assert a != mutated


@pytest.mark.parametrize("x", [10**6, 3 * 10**6])
def test_table_equality_compares_every_byte_and_w(x):
    # Equality compares every byte of both tables, and sees a change in the
    # last byte alone; tables below kernel.PAGED_BYTES are bytearrays, and
    # mmaps from there on.
    a, b = small_table(x, 50), small_table(x, 50)
    assert a.omega.format == "B" and not a.omega.readonly and a.omega.nbytes == x + 1
    assert isinstance(a.omega.obj, bytearray) == (x + 1 < kernel.PAGED_BYTES)
    assert a == b and not a != b
    for table in (b.omega, b.omega_small):
        table[-1] ^= 1
        assert a != b
        table[-1] ^= 1
        assert a == b
    same_bytes_other_w = OmegaTable(x_max=a.x_max, w=51, omega=a.omega,
                                    omega_small=a.omega_small)
    assert a != same_bytes_other_w
    shorter = OmegaTable(x_max=a.x_max, w=a.w, omega=a.omega[:-1], omega_small=a.omega_small)
    assert a != shorter


class _RefusedAdvice(mmap.mmap):
    """An mmap whose madvise answers as a kernel built without THP does."""

    advised = []

    def madvise(self, *args):
        self.advised.append(args)
        raise OSError(errno.EINVAL, "Invalid argument")


@pytest.mark.parametrize("constant", ["kept", "removed"])
def test_a_paged_buffer_without_huge_page_advice_is_still_zeroed(monkeypatch, constant):
    # Refused advice, or none to give, leaves a plain private mapping.
    monkeypatch.setattr(_RefusedAdvice, "advised", [])
    monkeypatch.setattr(mmap, "mmap", _RefusedAdvice)
    if constant == "removed":
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    buf = kernel.zeroed(kernel.PAGED_BYTES, "B")
    assert isinstance(buf.obj, _RefusedAdvice)
    assert _RefusedAdvice.advised == (
        [(mmap.MADV_HUGEPAGE,)] if hasattr(mmap, "MADV_HUGEPAGE") else [])
    assert buf.format == "B" and not buf.readonly and len(buf) == kernel.PAGED_BYTES
    assert buf.tobytes() == bytes(kernel.PAGED_BYTES)
    buf[0] = buf[-1] = 1
    assert buf[0] == buf[-1] == 1


def _mapping_of(address):
    """The permissions and VmFlags of the mapping in /proc/self/smaps that
    holds address."""
    perms = None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split()
            if not fields[0].endswith(":"):  # a mapping's header: start-end perms ...
                start, end = (int(v, 16) for v in fields[0].split("-"))
                perms = fields[1] if start <= address < end else None
            elif perms and fields[0] == "VmFlags:":
                return perms, fields[1:]
    raise AssertionError(f"no mapping holds {address:#x}")


def test_a_paged_buffer_is_private_and_advised_for_huge_pages():
    # A shared anonymous mapping would read rw-s, /dev/zero (deleted): shmem.
    if not os.path.exists("/proc/self/smaps"):
        pytest.skip("no /proc/self/smaps")
    buf = kernel.zeroed(kernel.PAGED_BYTES, "B")
    perms, flags = _mapping_of(ctypes.addressof(ctypes.c_char.from_buffer(buf)))
    assert perms == "rw-p"
    if hasattr(mmap, "MADV_HUGEPAGE") and os.path.exists("/sys/kernel/mm/transparent_hugepage"):
        assert "hg" in flags


def test_agrees_with_session_oracle(table_1e5, oracle_triples, oracle_w):
    idx = np.arange(2, 100_001)
    kk = np.array([k for k, _, _ in oracle_triples], dtype=np.int64)
    vv = np.array([v for _, v, _ in oracle_triples], dtype=np.int64)
    uu = np.array([u for _, _, u in oracle_triples], dtype=np.int64)
    omega, omega_small = np.asarray(table_1e5.omega), np.asarray(table_1e5.omega_small)
    assert np.array_equal(omega[idx], kk)
    assert np.array_equal(omega[idx - 1], vv)
    assert np.array_equal(omega_small[idx - 1], uu)


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


def test_a_cached_library_loads_without_sysconfig_or_shlex():
    """The library's name comes from the source, FLAGS and the interpreter
    build, so loading a cached build needs no compiler name: sysconfig and
    shlex stay unloaded until a build runs."""
    kernel.library()  # the cached build the child loads
    probe = ("import sys, omegashift.kernel as k; k.library(); "
             "print(sorted(m for m in ('sysconfig', 'shlex') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kernel.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_a_link_to_the_interpreter_names_the_same_library(tmp_path, monkeypatch):
    # python and python3 are links to one binary: one name, so neither
    # rebuilds the library and removes the other's build
    link = tmp_path / "python-link"
    link.symlink_to(os.path.realpath(sys.executable))
    path = kernel.library_path()
    monkeypatch.setattr(sys, "executable", str(link))
    assert kernel.library_path() == path


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
        (dict(osm_size=65), ValueError, "differ in length"),
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
        (dict(primes=np.array([2, 2**40, 3]), steps=np.array([5 << 8, 8 << 8, 8 << 8])),
         ValueError, "base prime"),
        (dict(primes=np.array([2.0, 3.0])), TypeError, "primes"),
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
    buffers = {"cell": cell, "om": om, **{f"osm{s}": osm for s, osm in enumerate(osms)}}
    for name in arg["frozen"]:  # the kernel writes these
        buffers[name].flags.writeable = False
    monkeypatch.setattr(kernel, "library", lambda: pytest.fail("the C kernel was called"))
    with pytest.raises(error, match=match):
        kernel.SegmentPass(arg["primes"], arg["steps"], arg["bounds"]).fill(
            cell, om, osms, arg["lo"], arg["splits"])


@pytest.mark.parametrize("args, match", [
    ((1, 100, 64, [1], [100], [(0, 2, 100)]), "fold from 1"),
    ((2, 100, 0, [1], [100], [(0, 2, 100)]), "segments of 0"),
    ((2, 100, 64, [1], [], [(0, 2, 100)]), "untils"),
    ((2, 100, 64, [1], [100], [(1, 2, 100)]), "no split"),
    ((2, 100, 64, [2, 1], [100, 100], [(0, 2, 100)]), "not ascending"),
    ((2, 1 << 41, 64, [1], [100], [(0, 2, 100)]), "outside"),
])
def test_tally_rejects_bad_arguments_before_any_c_call(monkeypatch, args, match):
    plan = kernel.SegmentPass(*PRIMES_23)
    monkeypatch.setattr(kernel, "library", lambda: pytest.fail("the C kernel was called"))
    with pytest.raises(ValueError, match=match):
        plan.tally(*args)


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


@pytest.mark.parametrize("lo, size", [
    *(pytest.param(lo, min(5200, X_MAX_CEILING + 1 - lo), id=str(lo))
      for lo in (1, 10, 127, 1000, (1 << 40) - 63, (1 << 20) - 4000)),
    (0, 10), (0, 16),
])
def test_fill_segment_pattern_matches_the_zero_start(lo, size):
    # The primes 2, 3, 5, 7 lead with patterns of periods 1 (one zero word),
    # 16, 144, 720 and 5040: the pass must add only the powers a pattern
    # lacks and the primes after it, and wrap the pattern at each period.
    # 5200 words from lo < 5040 cross every period; one walk ends at 2^40,
    # and in the walk from 2^20 - 4000 the power 2^20 falls in the last of
    # its three segments, whose words the test compares.  The walks from 0,
    # in one segment, end at and below 16, a power of 2 that they must not
    # add at n = 0.
    primes, steps = np.array([2, 3, 5, 7]), np.array([5 << 8, 8 << 8, 12 << 8, 15 << 8])
    _assert_segment_matches_oracle(lo, size, primes, steps, [4], ALTERNATING_BOUNDS if lo else (),
                                   range(5), segment=None if lo else size)


def _kernel_define(name):
    with open(kernel.SOURCE) as fh:
        return int(re.search(rf"^#define {name} (\d+)$", fh.read(), re.M).group(1))


CHUNK, SMALL_BOUND, FOLD_BLOCK = map(_kernel_define, ("CHUNK", "SMALL_BOUND", "FOLD_BLOCK"))


# A bound for every octave up to 2^40, 9 << 8 and 3 << 8 in turn.
ALTERNATING_BOUNDS = tuple((3 + 6 * (b % 2)) << 8 for b in range(41))


def _assert_segment_matches_oracle(lo, size, primes, steps, splits, bounds, leads,
                                   segment=None):
    """One walk over n = lo + j, j < size, in segments of segment words (by
    default three, the last the shortest; or one, of size words) from each
    lead in leads, each forced by a first split at it, against one oracle
    run over the whole span with every split.  The cell holds the last
    segment's words."""
    segment = segment or -(-size // 3)
    assert size > 2 * segment or segment == size
    want = oracles.segment_pass(lo, size, primes, steps, [*leads, *splits], bounds)
    plan = kernel.SegmentPass(primes, steps, bounds)
    last = (size - 1) // segment * segment  # the last segment's offset
    for i, lead in enumerate(leads):
        cell, (_, om, osms) = _segment(segment)[0], _segment(size, 1 + len(splits))
        plan.fill(cell, om, osms, lo, [lead, *splits])
        assert np.array_equal(cell[: size - last], want[0][last:]), lead
        assert np.array_equal(om, want[1]), lead
        for s, (got, osm) in enumerate(zip(osms, [want[2][i], *want[2][len(leads):]])):
            assert np.array_equal(got, osm), (lead, s)


def _small_split(primes):
    """How many primes kernel.c sieves chunk by chunk, when it has room."""
    small = int(np.searchsorted(primes, SMALL_BOUND))
    assert 0 < small < len(primes)
    return small


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17, 1024, 3000])
@settings(max_examples=12, deadline=None, database=None)
@given(lo=st.integers(0, X_MAX_CEILING + 1 - 4 * (3 * CHUNK + 17)), cut=st.integers(5, 300))
def test_fill_segment_chunks_match_the_whole_segment_oracle(size, lo, cut):
    # A walk of three segments of size words and 17 more, chunked in phase
    # 1 and whole in phase 2, against the oracle over the whole span: the
    # primes up to 10^4, split before, at and after SMALL_BOUND and at the
    # end, from each lead, with ALTERNATING_BOUNDS (none from lo = 0).
    plan = segment_pass(10**8)
    small = _small_split(plan.primes)
    splits = [cut, small, small + cut, len(plan.primes)]
    bounds = ALTERNATING_BOUNDS if lo else ()
    _assert_segment_matches_oracle(lo, 3 * size + 17, plan.primes, plan.steps, splits, bounds,
                                   range(6), segment=size)


# The square of 1 048 573, the largest prime below 2^20, is the largest
# power of a base prime below 2^40.
TOP_SQUARE = 1_048_573**2


@pytest.mark.parametrize("hi", [X_MAX_CEILING, X_MAX_CEILING + 1, TOP_SQUARE + 512])
def test_fill_segment_at_the_ceiling_with_every_base_prime(hi):
    # Every prime up to 2^20 and every power up to 2^40, where the phase-1
    # primes have the most powers past CHUNK, with the ceiling's bounds,
    # walked in three segments of 1024 words; in the walk to TOP_SQUARE +
    # 512 that power falls in the last segment, whose words the test
    # compares.
    plan = segment_pass(X_MAX_CEILING)
    small = _small_split(plan.primes)
    splits = [5, small - 1, small, len(plan.primes) // 2, len(plan.primes)]
    _assert_segment_matches_oracle(hi - 3072, 3072, plan.primes, plan.steps, splits,
                                   plan.bounds, range(6))


@pytest.mark.parametrize("hi", [X_MAX_CEILING, X_MAX_CEILING + 1])
def test_w_above_sqrt_x_at_the_ceiling_matches_trial_division(hi):
    # w = 2^20 + 1 = 17 * 61 681 is above sqrt(2^40) but adds no base prime:
    # the primes up to 2^20 leave each n a cofactor above every w.  One
    # walk of three segments of 22, 22 and 20 words.
    size, ws = 64, (13, 1 << 20, (1 << 20) + 1)
    plan = segment_pass(X_MAX_CEILING, ws)
    _, om, osms = _segment(size, len(ws))
    plan.fill(_segment(22)[0], om, osms, hi - size, _splits(plan, ws))
    for j, n in enumerate(range(hi - size, hi)):
        divisors = _prime_divisors(n)
        assert om[j] == len(divisors), n
        for w, osm in zip(ws, osms):
            assert osm[j] == sum(p <= w for p in divisors), (n, w)


def _splits(plan, ws):
    """How many of the pass's primes are <= each w of ws."""
    return [sum(p <= w for p in plan.primes) for w in ws]


def test_segment_pass_sieves_every_prime_its_thresholds_need():
    # Every prime up to max(sqrt(x), max ws), or up to x below 13, where
    # the log test cannot find a cofactor and there are no bounds.
    for x, ws in ((10_000, (13, 101)), (10_000, (100, 10_000)), (10_000, (5000,)),
                  (12, ()), (12, (5,)), (13, ()), (121, ()), (121, (2,))):
        plan = segment_pass(x, ws)
        top = max([math.isqrt(x), *ws]) if x >= LOG_TEST_MIN_X else x
        assert plan.primes == tuple(n for n in range(2, top + 1) if _is_prime(n)), (x, ws)
        steps = tuple(int(LOG_SCALE * math.log(p)) << 8 for p in plan.primes)
        assert plan.steps == steps, (x, ws)
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
    # A base prime list never repeats a prime, but the kernel takes one that
    # does: 100 copies of 2 have 12 powers each below CHUNK, 1200 phase-1
    # powers against the 358 of the base primes up to 2^20.  Every copy
    # shares the period 16, so each lead's pattern holds lead copies.
    primes = np.full(100, 2, dtype=np.int64)
    steps = (np.arange(100, dtype=np.int64) % 7) << 8
    size = 3 * CHUNK + 17
    splits = [10, 60, 100]
    _assert_segment_matches_oracle(X_MAX_CEILING + 1 - size, size, primes, steps, splits,
                                   (1 << 15,) * 41, range(11))


@lru_cache(maxsize=1)
def _fold_table():
    """A sieved table long enough for four fold blocks."""
    return small_table(4 * FOLD_BLOCK + 100, 100)


def _oracle_fold(omega, omega_small, start, stop):
    """oracles.histogram over n in [start, stop), start >= 2: shifted by
    start - 2, its n = 2..stop - start + 1 are those n."""
    shift = start - 2
    return oracles.histogram(omega[shift:], omega_small[shift:], stop - shift - 1)


def _tally(plan, hi, segment, splits, ranges):
    """plan.tally of [2, hi) with each split live to hi, shaped (range, k, v, u)."""
    counts = plan.tally(2, hi, segment, splits, [hi] * len(splits), ranges)
    return np.asarray(counts).reshape(len(ranges), *(OMEGA_CAP,) * 3)


@pytest.mark.parametrize("size", [1, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1,
                                  3 * FOLD_BLOCK + 17])
@pytest.mark.parametrize("start", [2, FOLD_BLOCK - 1])
def test_fold_matches_the_oracle_at_its_block_edges(start, size):
    # The walk folds a range in blocks of FOLD_BLOCK positions from its
    # start: ranges of u = omega(n - 1, 100) and u = omega(n - 1) that stop
    # at and beside a block's edge, in one segment and across segments.
    assert _kernel_define("FOLD_BINS") == kernel.FOLD_BINS
    t = _fold_table()
    stop, ws = start + size, (t.w,)
    plan = segment_pass(t.x_max, ws)
    want = (_oracle_fold(t.omega, t.omega_small, start, stop),
            _oracle_fold(t.omega, t.omega, start, stop))
    for segment in (t.x_max, FOLD_BLOCK + 1):
        got = _tally(plan, t.x_max + 1, segment, _splits(plan, ws),
                     [(0, start, stop), (-1, start, stop)])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), segment


@pytest.mark.parametrize("bad", [16, 200])
def test_fold_refuses_a_corrupt_byte_in_any_block(bad):
    # bad copies of one prime p give each multiple of p the byte bad, a
    # factor count past every fold digit: a range of four blocks must refuse
    # it in its first block, before counting any, and in its fourth, after
    # three; at n = stop, just past the range, the walk sieves it but the
    # fold never reads it.  With 15 copies, the largest digit, it folds.
    start = 3
    stop = next(p for p in primes_up_to(4 * FOLD_BLOCK) if p > start + 3 * FOLD_BLOCK + 16)
    fourth = next(p for p in primes_up_to(stop) if p >= start + 3 * FOLD_BLOCK)
    for p, raises in ((5, True), (fourth, True), (stop, False)):
        plan = kernel.SegmentPass(np.full(bad, p), np.zeros(bad, dtype=np.int64))
        fold = lambda: _tally(plan, stop + 1, stop + 1, [], [(-1, start, stop)])[0]
        if raises:
            with pytest.raises(ValueError, match="corrupt"):
                fold()
        else:
            assert fold()[0, 0, 0] == stop - start, p
    om = np.zeros(stop + 1, dtype=np.uint8)
    om[fourth::fourth] = 15
    plan = kernel.SegmentPass(np.full(15, fourth), np.zeros(15, dtype=np.int64))
    assert np.array_equal(_tally(plan, stop + 1, stop + 1, [], [(-1, start, stop)])[0],
                          _oracle_fold(om, om, start, stop))


@pytest.mark.parametrize("flush", [1000, FOLD_BLOCK + FOLD_BLOCK // 2 + 1])
def test_fold_flushes_its_table_between_windows(kernel_copy, flush):
    # FOLD_FLUSH is 2^30 positions, past any test table: a grid pass through
    # a copy of kernel.c flushing every few thousand positions, some windows
    # ending inside a block, must flush each range's tally inside and
    # across its segments and fold the same H.
    kernel_copy(r"^#define FOLD_FLUSH .*$", f"#define FOLD_FLUSH INT64_C({flush})")
    t = _fold_table()
    x = t.x_max
    got = grid_histograms([(x // 2, 100), (x, 100), (x, x)], threads=2, segment_length=1024)
    assert np.array_equal(got[x, 100], oracles.histogram(t.omega, t.omega_small, x))
    assert np.array_equal(got[x, x], oracles.histogram(t.omega, t.omega, x))


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
    # Each definition that starts a line and is not static: kernel.c's exports.
    exported = dict(re.findall(r"^(?!static\b)\w+ (\w+)\(([^)]*)\)\s*\{", source, re.M))
    assert sorted(exported) == ["walk"]
    lib = kernel.library()
    for name, params in exported.items():
        want = [ctypes.c_void_p if "*" in param else ctypes.c_int64 for param in params.split(",")]
        assert list(getattr(lib, name).argtypes) == want, name


# Run in a child by test_kernel_has_no_undefined_behaviour: kernel.c built
# with UBSan (argv[1]) in place of kernel.library(), through verify's fast
# battery and a table walk of two splits that ends at 2^40 + 1.  Exit 77: the sanitized build does not load.
_UBSAN_CHILD = """
import ctypes, sys
from bisect import bisect_right
from omegashift import kernel, sieve, verify

try:
    lib = ctypes.CDLL(sys.argv[1])
except OSError as exc:
    print(exc)
    sys.exit(77)
built = kernel.library().walk
lib.walk.argtypes, lib.walk.restype = built.argtypes, built.restype
kernel.library = lambda: lib
failed = [r.name for r in verify.verify_suite("fast", quiet=True).results if r.status == "FAIL"]
assert not failed, failed
ws, size = (13, 1 << 20), 3072
plan = sieve.segment_pass(sieve.X_MAX_CEILING, ws)
om, osms = kernel.zeroed(size, "B"), [kernel.zeroed(size, "B") for _ in ws]
plan.fill(kernel.zeroed(1024, "H"), om, osms, sieve.X_MAX_CEILING + 1 - size,
          [bisect_right(plan.primes, w) for w in ws])
"""


def test_kernel_has_no_undefined_behaviour(tmp_path):
    # Signed overflow, a shift past the width, a misaligned or out-of-range
    # access: UBSan stops the child at the first one.
    cc = kernel._compiler()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    sanitize = ("-fsanitize=undefined", "-fno-sanitize-recover=undefined")
    (tmp_path / "probe.c").write_text("int probe;\n")
    probe = [*cc, *kernel.FLAGS, *sanitize, "-o", str(tmp_path / "probe.so"),
             str(tmp_path / "probe.c")]
    if subprocess.run(probe, capture_output=True).returncode != 0:
        pytest.skip("no UBSan runtime")
    lib = str(tmp_path / "k.so")
    done = subprocess.run([*cc, *kernel.FLAGS, *sanitize, "-o", lib, kernel.SOURCE],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kernel.__file__)))
    done = subprocess.run([sys.executable, "-c", _UBSAN_CHILD, lib], capture_output=True,
                          text=True, env=env)
    if done.returncode == 77:
        pytest.skip(f"the UBSan build does not load: {done.stdout.strip()}")
    assert done.returncode == 0 and "runtime error" not in done.stderr, done.stderr


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
    # 3, 5, 7 and 11 join the base primes, and the leads, at x = 9, 25, 49
    # and 121; 13 joins at 169 and leads no pattern.
    for w in (2, 3, 5, 7, 10, 11, 12, 13, x):
        if w <= x:
            _assert_matches_trial_division(x, w, 1024, 1)


def test_segments_across_pattern_periods():
    # 1024- and 2^16-word segments start at 2 + 1024 i and 2 + 2^16 i, so
    # each multiple of 55 440 falls inside one, and the pattern wraps there.
    x = 200_000
    for seg in (1024, 1 << 16):
        for w in (13, 447, 448):  # base primes up to isqrt(x) = 447; 448 adds none
            t = small_table(x, w, segment_length=seg, threads=2)
            for m in range(1, x // 55_440 + 1):  # the period of 2..11
                for n in range(55_440 * m - 1024, 55_440 * m + 1024):
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
