"""Experiment runner, config parsing, report determinism, CLI, verify battery."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import omegashift.constants as constants
import omegashift.genfun as genfun
import omegashift.kernel as kernel
import omegashift.primes as primes
import omegashift.verify as verify
from omegashift.cli import main
from omegashift.constants import _BLOCK, MIN_TRUNCATION, SERIES_TERMS, _prime_sums
from omegashift.experiment import (
    CSV_HEADER,
    HIST_VERSION,
    SUMS_VERSION,
    CacheMismatchError,
    ExperimentConfig,
    _write_csv,
    _write_json,
    config_hash,
    histogram_digest,
    histogram_path,
    load_histogram,
    load_prime_sums,
    make_report,
    parse_config,
    prime_sums_path,
    resolve_w,
    run_experiment,
    save_histogram,
    save_prime_sums,
)
from omegashift.kernel import OMEGA_CAP
from omegashift.sieve import grid_histograms
from omegashift.stats import small_factor_prediction
from omegashift.verify import verify_suite

REFERENCE_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

GOOD_CONFIG = """
# comment line
x_list = 10000        # inline comment
k_list = 2, 3
w_rule = fixed:50
y_grid = -1 0 1
ell_max = 4
moments = 2 4
truncation_prime = 100000
baseline = true
large_factor_c = 4.0
"""


def test_parse_config_happy_path():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.x_list == (10000,)
    assert cfg.k_list == (2, 3)
    assert cfg.w_rule == "fixed:50"
    assert cfg.y_grid == (-1.0, 0.0, 1.0)
    assert cfg.ell_max == 4
    assert cfg.moments == (2, 4)
    assert cfg.baseline is True
    assert cfg.large_factor_c == 4.0


def test_parse_config_defaults_are_the_dataclass_defaults():
    cfg = parse_config("x_list = 10000 100000\nk_list = 2 3")
    assert cfg == ExperimentConfig(x_list=(10000, 100000), k_list=(2, 3))


def test_parse_config_reads_every_field():
    # One line per ExperimentConfig field, each off its default; the repr
    # tells 4 from 4.0, so each value must also come out as its field's type.
    text = (
        "x_list = 10000, 100000\nk_list = 2 3\nw_rule = fixed:50\ny_grid = -1.5 0 2\n"
        "ell_max = 4\nmoments = 2 4\ntruncation_prime = 100000\noutput_dir = out\n"
        "cache_dir = cache\nthreads = 3\nbaseline = 1\nlarge_factor_c = 4.5\n"
    )
    names = [line.partition(" =")[0] for line in text.splitlines()]
    assert names == [f.name for f in dataclasses.fields(ExperimentConfig)]
    want = ExperimentConfig(
        x_list=(10000, 100000), k_list=(2, 3), w_rule="fixed:50", y_grid=(-1.5, 0.0, 2.0),
        ell_max=4, moments=(2, 4), truncation_prime=100000, output_dir="out",
        cache_dir="cache", threads=3, baseline=True, large_factor_c=4.5,
    )
    assert repr(parse_config(text)) == repr(want)
    default = ExperimentConfig(x_list=(10000,), k_list=(2,))
    assert all(getattr(want, name) != getattr(default, name) for name in names[2:])


def test_parse_config_rejects_unknown_and_malformed():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("x_list = 100\nk_list = 1\nbogus = 3")
    with pytest.raises(ValueError, match="expected key"):
        parse_config("x_list 100")
    with pytest.raises(ValueError, match="missing required"):
        parse_config("k_list = 2")
    with pytest.raises(ValueError, match="bad boolean"):
        parse_config("x_list = 100\nk_list = 1\nbaseline = maybe")
    # each row would be written once per repeat of its x and of its k
    with pytest.raises(ValueError, match=r"x_list \(10000, 10000\) repeats a value"):
        parse_config("x_list = 10000 10000\nk_list = 2 2")
    with pytest.raises(ValueError, match=r"k_list \(2, 3, 2\) repeats a value"):
        parse_config("x_list = 10000\nk_list = 2, 3, 2")


def test_config_validation_bounds():
    with pytest.raises(ValueError):
        ExperimentConfig(x_list=(10,), k_list=(2,))  # x too small
    with pytest.raises(ValueError):
        ExperimentConfig(x_list=(10**4,), k_list=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(x_list=(10**4,), k_list=(30,))  # level ratio too deep
    with pytest.raises(ValueError):
        ExperimentConfig(x_list=(10**4,), k_list=(2,), w_rule="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(x_list=(10**4,), k_list=(2,), moments=(13,))
    with pytest.raises(ValueError):
        ExperimentConfig(x_list=(10**4,), k_list=(2,), truncation_prime=10)
    with pytest.raises(ValueError, match="non-finite"):
        ExperimentConfig(x_list=(10**4,), k_list=(2,), y_grid=(0.0, -math.inf))
    with pytest.raises(ValueError, match="not finite"):
        ExperimentConfig(x_list=(10**4,), k_list=(2,), large_factor_c=math.inf)
    for threads in (0, 257):
        with pytest.raises(ValueError, match=rf"threads={threads} outside \[1, 256\]"):
            ExperimentConfig(x_list=(10**4,), k_list=(2,), threads=threads)
    with pytest.raises(ValueError, match=r"x_list \(10000, 100000, 10000\) repeats a value"):
        ExperimentConfig(x_list=(10**4, 10**5, 10**4), k_list=(2,))
    with pytest.raises(ValueError, match=r"k_list \(2, 2\) repeats a value"):
        ExperimentConfig(x_list=(10**4,), k_list=(2, 2))
    for ell_max in (-2, -7):
        with pytest.raises(ValueError, match=f"ell_max={ell_max} below -1"):
            ExperimentConfig(x_list=(10**4,), k_list=(2,), ell_max=ell_max)
    assert ExperimentConfig(x_list=(10**4,), k_list=(2,), ell_max=-1).ell_max == -1
    assert ExperimentConfig(x_list=(10**4,), k_list=(2,), threads=256).threads == 256


def test_config_rejects_an_ell_max_the_run_cannot_evaluate():
    # a slice row evaluates the profile at z = ell / loglog w, whose ceiling is 4
    with pytest.raises(ValueError, match=r"ell_max=8 too deep for x=1000000 .*4\.143"):
        ExperimentConfig(x_list=(10**6,), k_list=(2,), w_rule="loglog_sq", ell_max=8)
    ExperimentConfig(x_list=(10**6,), k_list=(2,), w_rule="loglog_sq", ell_max=7)  # 3.625
    # loglog 15 = 0.996 and loglog 16 = 1.020 put ell = 4 on either side of the ceiling
    with pytest.raises(ValueError, match="exceeds ceiling"):
        small_factor_prediction(2, 10**4, 4, 15, P=10_000)
    with pytest.raises(ValueError, match="ell_max=4 too deep for x=10000 "):
        ExperimentConfig(x_list=(10**4,), k_list=(2,), w_rule="fixed:15", ell_max=4)
    assert small_factor_prediction(2, 10**4, 4, 16, P=10_000) > 0
    ExperimentConfig(x_list=(10**4,), k_list=(2,), w_rule="fixed:16", ell_max=4)
    # the first x past the ceiling is named; w < 3 has no slice rows to bound
    with pytest.raises(ValueError, match="x=10000 "):
        ExperimentConfig(x_list=(10**6, 10**4), k_list=(2,), w_rule="loglog_sq", ell_max=7)
    ExperimentConfig(x_list=(10**4,), k_list=(2,), w_rule="fixed:2", ell_max=50)
    with open(REFERENCE_JSON) as fh:
        assert parse_config(json.load(fh)["config"]).ell_max == 6  # the reference stays valid


def test_cli_run_rejects_a_deep_ell_max_before_sieving(tmp_path, capsys):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(
        "x_list = 1000000\nk_list = 2\nw_rule = loglog_sq\nell_max = 8\n"
        f"output_dir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ell_max=8 too deep for x=1000000 ")
    assert list(tmp_path.iterdir()) == [cfg]  # no histogram, no report


@pytest.mark.parametrize(
    "line, message",
    [
        ("x_list = 1000000", "line 3: key 'x_list' repeated"),
        ("y_grid = 0 nan", "y_grid (0.0, nan) holds a non-finite value"),
        ("large_factor_c = nan", "large_factor_c=nan is not finite"),
        ("threads = 100000", "threads=100000 outside [1, 256]"),
        ("ell_max = -7", "ell_max=-7 below -1, which disables the slice rows"),
    ],
    ids=["repeated_key", "nan_y", "nan_large_factor_c", "absurd_threads", "ell_max_below_off"],
)
def test_cli_run_rejects_bad_config_input(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        f"x_list = 100000\nk_list = 2\n{line}\n"
        f"output_dir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]  # no histogram, no report


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("x_list", "1e6", "invalid literal for int() with base 10: '1e6'"),
        ("k_list", "two", "invalid literal for int() with base 10: 'two'"),
        ("y_grid", "0 x", "could not convert string to float: 'x'"),
        ("threads", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("baseline", "maybe", "bad boolean (expected true, false, 1 or 0)"),
    ],
    ids=["float_x", "word_k", "word_y", "float_threads", "maybe_baseline"],
)
def test_cli_run_names_the_line_and_key_of_a_bad_value(tmp_path, capsys, key, value, reason):
    values = {"x_list": "100000", "k_list": "2", "y_grid": "0", "threads": "1",
              "baseline": "true", key: value}
    lines = ["# a comment", *(f"{k} = {v}" for k, v in values.items()),
             f"output_dir = {tmp_path / 'out'}", f"cache_dir = {tmp_path / 'cache'}"]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(cfg)]) == 2
    lineno = lines.index(f"{key} = {value}") + 1
    assert capsys.readouterr().err == f"error: line {lineno}: {key} = {value!r}: {reason}\n"
    assert list(tmp_path.iterdir()) == [cfg]  # no histogram, no report


def test_resolve_w_rules():
    x = 10**8
    t = math.log(math.log(x))
    assert resolve_w("loglog_sq", x) == round(math.exp(t * t))
    assert resolve_w("auto", x) == round(math.exp(math.log(x) / (t * t)))
    assert resolve_w("fixed:97", x) == 97
    assert resolve_w("fixed:999999999999", 100) == 100  # clamped down to x
    with pytest.raises(ValueError):
        resolve_w("fixed:1", x)  # nonsense cutoff rejected at parse time
    with pytest.raises(ValueError):
        resolve_w("mystery", x)


def test_config_hash_is_stable_and_sensitive(tmp_path):
    base = _tiny_config(tmp_path)
    assert config_hash(base) == config_hash(_tiny_config(tmp_path))
    assert len(config_hash(base)) == 12
    # where a run reads and writes, and on how many threads: no row changes
    unhashed = {"cache_dir": str(tmp_path / "c2"), "output_dir": str(tmp_path / "o2"),
                "threads": 2}
    # every other field changes a row, so each changes the hash
    hashed = {"x_list": (10**4, 10**5), "k_list": (3,), "w_rule": "fixed:51",
              "y_grid": (1.0,), "ell_max": 2, "moments": (4,), "truncation_prime": 20_000,
              "baseline": False, "large_factor_c": 3.0}
    assert {*unhashed, *hashed} == {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, value in unhashed.items():
        assert config_hash(dataclasses.replace(base, **{key: value})) == config_hash(base), key
    others = {config_hash(dataclasses.replace(base, **{key: value}))
              for key, value in hashed.items()}
    assert len(others) == len(hashed) and config_hash(base) not in others


def _tiny_config(tmp_path, **overrides):
    base = dict(
        x_list=(10**4,),
        k_list=(2,),
        w_rule="fixed:50",
        y_grid=(0.0,),
        ell_max=3,
        moments=(2,),
        truncation_prime=10_000,
        output_dir=str(tmp_path / "reports"),
        cache_dir=str(tmp_path / "cache"),
        baseline=True,
        large_factor_c=4.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# The report schema the README documents; PredictionReport's field order must keep it.
REPORT_COLUMNS = "statistic,x,k,w,param,empirical,theoretical,rel_dev,error_scale,runtime_ms"


def test_run_experiment_schema(tmp_path):
    res = run_experiment(_tiny_config(tmp_path))
    rows = _read_rows(res.csv_path)
    assert CSV_HEADER == REPORT_COLUMNS
    assert rows[0] == REPORT_COLUMNS.split(",")
    stats = {r[0] for r in rows[1:]}
    assert {
        "weighted_total", "weighted_cdf", "ks_distance", "small_factor_profile",
        "moment_m2", "unweighted_cdf", "large_factor_ratio", "classical_cdf",
    } <= stats
    payload = json.load(open(res.json_path))
    assert payload["metadata"]["config_hash"] in res.csv_path
    assert len(payload["rows"]) == len(rows) - 1
    for row in payload["rows"]:
        assert list(row) == REPORT_COLUMNS.split(",")  # the same keys, in order


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


def test_reports_are_deterministic_modulo_runtime(tmp_path):
    r1 = run_experiment(_tiny_config(tmp_path, output_dir=str(tmp_path / "a")))
    r2 = run_experiment(_tiny_config(tmp_path, output_dir=str(tmp_path / "b")))
    rows1 = _read_rows(r1.csv_path)
    rows2 = _read_rows(r2.csv_path)
    drop = rows1[0].index("runtime_ms")
    strip = lambda rows: [[c for i, c in enumerate(r) if i != drop] for r in rows]
    assert strip(rows1) == strip(rows2)


X, W = 10_000, 50


@pytest.fixture(scope="module")
def H():
    return grid_histograms([(X, W)])[X, W]


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
    # a bad version or magic; a file cut at the payload's end, inside it or
    # inside the header, one byte too long, and empty
    bad_path = tmp_path / "bad.bin"
    for bad in (newer, magic, raw[:-1], raw[: 56 + 1000], raw[:20], raw + b"\0", b""):
        bad_path.write_bytes(bytes(bad))
        with pytest.raises(CacheMismatchError):
            load_histogram(str(bad_path), X, W)
    bad_path.write_bytes(bytes(flipped))  # header and size intact
    with pytest.raises(CacheMismatchError, match="SHA-256"):
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


def test_cache_reused_between_runs(tmp_path):
    cfg = _tiny_config(tmp_path)
    run_experiment(cfg)
    cache = tmp_path / "cache"
    # a histogram and the prime sums of P = 10 000, no sieve table
    files = [cache / "hist_x10000_w50.bin", cache / "prime_sums_P10000.bin"]
    assert sorted(cache.iterdir()) == files
    stamps = [f.stat().st_mtime_ns for f in files]
    run_experiment(cfg)
    assert sorted(cache.iterdir()) == files
    assert [f.stat().st_mtime_ns for f in files] == stamps  # loaded, not rebuilt


def test_warm_run_computes_no_prime_sums(tmp_path, monkeypatch):
    cold = run_experiment(_tiny_config(tmp_path, output_dir=str(tmp_path / "cold")))
    limits = []
    real = primes.iter_prime_blocks

    def recorded(limit, *args):
        limits.append(limit)
        return real(limit, *args)

    monkeypatch.setattr(constants, "_SUMS", {})  # the memo of a fresh process
    monkeypatch.setattr(constants, "_prime_sums", lambda P: pytest.fail(f"summed P={P}"))
    monkeypatch.setattr(primes, "iter_prime_blocks", recorded)
    monkeypatch.setattr(constants, "iter_prime_blocks", recorded)
    constants._head_primes.cache_clear()
    warm = run_experiment(_tiny_config(tmp_path, output_dir=str(tmp_path / "warm")))
    assert limits and max(limits) <= constants.MIN_TRUNCATION  # the head primes only
    assert _strip_runtime(warm.csv_path) == _strip_runtime(cold.csv_path)


def test_prime_sums_cache_only_with_a_cache_dir_and_one_file_per_P(tmp_path):
    run_experiment(_tiny_config(tmp_path, cache_dir=""))
    assert [p.name for p in tmp_path.iterdir()] == ["reports"]  # the cache writes nothing
    for P in (10_000, 20_000):
        run_experiment(_tiny_config(tmp_path, truncation_prime=P))
    cache = tmp_path / "cache"
    assert sorted(p.name for p in cache.glob("prime_sums_*.bin")) == [
        "prime_sums_P10000.bin", "prime_sums_P20000.bin"]


def test_warm_run_never_loads_the_kernel(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "x_list = 10000\nk_list = 2\nw_rule = fixed:50\ny_grid = 0\n"
        f"output_dir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0  # fills the histogram cache
    probe = (
        "import omegashift.kernel as k; from omegashift.cli import main; "
        f"rc = main(['run', '--config', {str(cfg)!r}]); "
        "print(rc, k._library.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(genfun.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0"  # exit 0, no library loaded


def test_a_run_loads_neither_openssl_nor_the_thread_pool(tmp_path):
    """A cold and then a warm threads = 1 run and the kernel's library page in
    neither hashlib's OpenSSL module nor concurrent.futures; a two-thread
    grid matches one thread and loads no concurrent.futures either, and the
    package's SHA-256 is hashlib's."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "x_list = 10000\nk_list = 2\nw_rule = fixed:50\ny_grid = 0\nthreads = 1\n"
        f"output_dir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    probe = f"""
import sys
import omegashift.kernel as kernel
from omegashift.cli import main
from omegashift.sieve import grid_histograms
assert main(["run", "--config", {str(cfg)!r}]) == 0  # cold: sieves, fills the cache
assert main(["run", "--config", {str(cfg)!r}]) == 0  # warm: reads the cache
kernel.library()
print(sorted(m for m in ("_hashlib", "concurrent.futures") if m in sys.modules))
pairs = [(10000, 50), (30000, 50), (30000, 30000)]
one, two = (grid_histograms(pairs, threads=t, segment_length=1024) for t in (1, 2))
print(all((one[p] == two[p]).all() for p in pairs), "concurrent.futures" in sys.modules)
import hashlib
payloads = [b"", b"abc", bytes(range(256)) * 1000]
print(all(kernel.sha256(b).digest() == hashlib.sha256(b).digest() for b in payloads))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(genfun.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == ["[]", "True False", "True"]
    assert (tmp_path / "cache" / "hist_x10000_w50.bin").exists()


def _strip_runtime(path):
    drop = CSV_HEADER.split(",").index("runtime_ms")
    return [[c for i, c in enumerate(r) if i != drop] for r in _read_rows(path)]


def test_partial_cache_run_matches_cold_run(tmp_path):
    both = (5000, 10**4)
    cold = run_experiment(
        _tiny_config(tmp_path, x_list=both, cache_dir="", output_dir=str(tmp_path / "cold"))
    )
    run_experiment(_tiny_config(tmp_path, output_dir=str(tmp_path / "seed")))
    cached = tmp_path / "cache" / "hist_x10000_w50.bin"
    stamp = cached.stat().st_mtime_ns
    stale = tmp_path / "cache" / "omega_x5000_w50.bin"
    stale.write_bytes(b"an old table cache file is ignored")
    part = run_experiment(
        _tiny_config(tmp_path, x_list=both, output_dir=str(tmp_path / "part"))
    )
    assert _strip_runtime(part.csv_path) == _strip_runtime(cold.csv_path)
    assert cached.stat().st_mtime_ns == stamp  # the cached x was loaded
    assert (tmp_path / "cache" / "hist_x5000_w50.bin").exists()  # the other built
    assert stale.read_bytes() == b"an old table cache file is ignored"
    meta = [json.load(open(r.json_path))["metadata"] for r in (cold, part)]
    assert meta[0]["histograms"] == meta[1]["histograms"]


def test_a_parent_format_cache_file_is_an_error(tmp_path, capsys):
    """A format-1 file (H padded to 32^3, a 256 KB payload) is refused, not rebuilt."""
    x, w = 10**4, 50
    padded = np.zeros((32, 32, 32), dtype="<i8")
    padded[:16, :16, :16] = grid_histograms([(x, w)])[x, w]
    payload = padded.tobytes()
    old = struct.pack("<4sIQQ32s", b"OMGH", 1, x, w, hashlib.sha256(payload).digest()) + payload
    path = Path(histogram_path(str(tmp_path / "cache"), x, w))
    path.parent.mkdir()
    path.write_bytes(old)
    with pytest.raises(CacheMismatchError, match="v1"):
        load_histogram(str(path), x, w)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"x_list = {x}\nk_list = 2\nw_rule = fixed:{w}\n"
        f"output_dir = {tmp_path / 'out'}\ncache_dir = {path.parent}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: bad magic/version")
    assert path.read_bytes() == old
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_report_writes_do_not_collide(tmp_path, monkeypatch, suffix):
    """A second write of the same report that runs while the first one is
    between writing and renaming its temporary file: both must finish."""
    path = str(tmp_path / f"report.{suffix}")
    config = _tiny_config(tmp_path)

    def write(empirical):
        rows = [make_report("weighted_total", 10**4, 2, 50, None, empirical, 1.0, 0.1, 0.0)]
        if suffix == "csv":
            _write_csv(path, rows)
        else:
            _write_json(path, rows, config, "tag", {})

    real_replace = os.replace
    nested = []

    def replace_with_a_second_write(src, dst):
        if not nested:
            nested.append(src)
            write(2.0)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_with_a_second_write)
    write(1.0)
    monkeypatch.undo()
    assert nested
    if suffix == "csv":  # the first write renamed last
        assert _read_rows(path)[1][5] == "1.0"
    else:
        with open(path) as fh:
            assert json.load(fh)["rows"][0]["empirical"] == 1.0
    assert os.listdir(tmp_path) == [os.path.basename(path)]  # no temporary file left


def test_json_records_histogram_provenance(tmp_path):
    cfg = _tiny_config(tmp_path, x_list=(5000, 10**4))
    res = run_experiment(cfg)
    first = json.load(open(res.json_path))
    hists = grid_histograms([(5000, 50), (10**4, 50)])
    assert first["metadata"]["histograms"] == [
        {"x": x, "w": w, "sha256": histogram_digest(hists[x, w])}
        for x, w in sorted(hists)
    ]
    run_experiment(cfg)  # from the cache now: the report must not show it
    second = json.load(open(res.json_path))
    for doc in (first, second):
        for row in doc["rows"]:
            row.pop("runtime_ms")
    assert first == second


def test_mass_skip_on_empty_level(tmp_path):
    res = run_experiment(_tiny_config(tmp_path, k_list=(6,), baseline=False))
    stats = [r.statistic for r in res.rows]
    assert "weighted_total" in stats
    # level set empty at 1e4: only the mass row appears for that k
    assert "ks_distance" not in stats


def test_cli_sieve_and_cache(tmp_path, capsys):
    # sieve builds and prints a table; it has no table cache to load or save
    assert main(["sieve", "--x", "2000", "--w", "11", "--threads", "2"]) == 0
    assert capsys.readouterr().out.startswith("built table: x=2000 w=11 max_omega=4 ")
    for gone in (["--cache", str(tmp_path)], ["--segment-length", "4096"]):
        with pytest.raises(SystemExit):
            main(["sieve", "--x", "2000", "--w", "11", *gone])
        assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["sieve", "--help"])
    usage = capsys.readouterr().out
    assert "--threads" in usage and "--cache" not in usage and "--segment-length" not in usage
    assert list(tmp_path.iterdir()) == []


def test_cli_sieve_rejects_an_absurd_thread_count(monkeypatch, capsys):
    # The config is refused before any table is allocated or thread started.
    monkeypatch.setattr("omegashift.cli.build_omega_table", lambda config: pytest.fail("sieved"))
    assert main(["sieve", "--x", "100000000", "--w", "4858", "--threads", "100000"]) == 2
    assert capsys.readouterr().err == "error: threads=100000 outside [1, 256]\n"


def test_cli_rejects_a_w_past_the_base_prime_ceiling(tmp_path, monkeypatch, capsys):
    # fixed:1048583 below x = 2e6 needs the base prime 1 048 583 > 2^20; at
    # x = 1e5 it is clamped to w = x and needs none.  Both commands refuse
    # the pair before any sieving.
    monkeypatch.setattr("omegashift.cli.build_omega_table", lambda config: pytest.fail("sieved"))
    monkeypatch.setattr("omegashift.experiment.grid_histograms",
                        lambda *args, **kwargs: pytest.fail("sieved"))
    message = ("error: w=1048583 < x=2000000 needs base primes above 2^20 "
               "(w >= W_CEILING = 1048583, the first prime above 2^20)\n")
    assert main(["sieve", "--x", "2000000", "--w", "1048583"]) == 2
    assert capsys.readouterr().err == message
    cfg = tmp_path / "ceiling.cfg"
    cfg.write_text(
        "x_list = 100000 2000000\nk_list = 2\nw_rule = fixed:1048583\n"
        f"output_dir = {tmp_path / 'out'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == [cfg]  # no histogram, no report


def test_cli_run(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "x_list = 10000\nk_list = 2\nw_rule = fixed:50\ny_grid = 0\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "report_" in out and str(tmp_path / "out") in out


def test_cli_constants(capsys):
    assert main(["constants", "--r", "0.5", "--z", "1.5,0.25", "--P", "10000"]) == 0
    out = capsys.readouterr().out
    for name in ("level_density", "tilted_level", "tilt_product", "tilt_profile"):
        assert name in out
    assert "tail bound" in out


@pytest.mark.parametrize("z", ["nan", "0,nan"])
def test_cli_constants_rejects_a_non_finite_z(capsys, z):
    assert main(["constants", "--r", "0.5", "--z", z, "--P", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: |z|=nan exceeds ceiling")


def test_cli_error_paths(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("x_list = 100\nk_list = 1\nnonsense = 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    with pytest.raises(SystemExit):
        main(["sieve", "--x", "100"])  # argparse: missing --w
    with pytest.raises(SystemExit):
        main([])


def test_verify_fast_battery_clean():
    summary = verify_suite("fast", quiet=True)
    assert summary.failures == 0
    assert summary.warnings == 0
    names = [r.name for r in summary.results]
    assert "convolution_identity" in names
    assert "euler_identities" in names


def test_verify_full_check_names_match_benchmark_reference():
    # the benchmark freezes verify --level full's check names in order; a
    # renamed or dropped check must fail here, not only in the benchmark
    with open(REFERENCE_JSON) as fh:
        frozen = [name for name, _ in json.load(fh)["verify_full"]["statuses"]]
    summary = verify_suite("full", x_top=10**6, quiet=True)
    assert [r.name for r in summary.results] == frozen


def test_verify_detects_injected_kernel_fault(monkeypatch):
    real = genfun.kernel_value

    def flipped(p, alpha, kernel):
        val = real(p, alpha, kernel)
        if p > kernel.w and alpha == 2:
            return -val
        return val

    monkeypatch.setattr(genfun, "kernel_value", flipped)
    summary = verify_suite("fast", quiet=True)
    failed = {r.name for r in summary.results if r.status == "FAIL"}
    assert "convolution_identity" in failed
    # sieve-level checks are independent of the kernel and must still pass
    passed = {r.name for r in summary.results if r.status == "PASS"}
    assert "sieve_vs_trial_division" in passed


@pytest.mark.parametrize("x", (2, 3, 4, 8, 9, 10, 3000, 10_000))
def test_verify_trial_division_matches_the_oracle(x):
    ws = (2, 6, 10, 13, x)
    omega, small = verify._trial_division(x, ws)
    want_omega = [0, 0] + [len(oracles.factorize(n)) for n in range(2, x + 1)]
    assert omega.tolist() == want_omega
    for w in ws:
        want = [0, 0] + [sum(p <= w for p, _ in oracles.factorize(n)) for n in range(2, x + 1)]
        assert small[w].tolist() == want, w


def _fast_statuses():
    summary = verify_suite("fast", quiet=True)
    return {r.name: (r.status, r.detail) for r in summary.results}


@pytest.mark.parametrize("field", ("omega", "omega_small"))
def test_verify_trial_division_catches_one_raised_byte(monkeypatch, field):
    real = verify.build_omega_table

    def raised(config):
        table = real(config)
        if config.x_max == 3000:
            getattr(table, field)[2310] += 1
        return table

    monkeypatch.setattr(verify, "build_omega_table", raised)
    statuses = _fast_statuses()
    assert statuses["sieve_vs_trial_division"] == ("FAIL", "mismatch at n=2310")
    assert statuses["convolution_identity"][0] == "PASS"


def test_verify_coefficients_catch_one_moved_count(monkeypatch):
    real = verify.grid_histograms

    def moved(pairs, **opts):
        hists = real(pairs, **opts)
        for (x, _), H in hists.items():
            if x == 10_000:
                v, u = np.argwhere(H[2])[0]
                H[2, v, u] -= 1
                H[2, v, u + 1] += 1
        return hists

    monkeypatch.setattr(verify, "grid_histograms", moved)
    statuses = _fast_statuses()
    status, detail = statuses["coefficients_vs_direct"]
    assert status == "FAIL" and detail.startswith("w=10 k=2: ")
    assert statuses["convolution_identity"][0] == "PASS"


def test_verify_full_makes_one_grid_pass_and_fails_each_check_on_its_raise(monkeypatch):
    real, trend_calls = verify.grid_histograms, []

    def broken(pairs, **opts):
        if pairs != verify.trend_pairs(10**6):
            return real(pairs, **opts)  # the fast checks' histograms
        trend_calls.append(pairs)
        raise RuntimeError("the grid pass broke")

    monkeypatch.setattr(verify, "grid_histograms", broken)
    summary = verify_suite("full", x_top=10**6, quiet=True)
    assert len(trend_calls) == 1  # not retried by the later checks
    trend = summary.results[len(verify._FAST_CHECKS):]
    names = ["ks_trend", "mean_location", "moment_trend", "profile_correlation", "psi_trend"]
    assert [(r.name, r.status, r.detail) for r in trend] == [
        (name, "FAIL", "raised RuntimeError: the grid pass broke") for name in names
    ]  # a FAIL, not the WARN a trend miss below 1e7 gets
    assert summary.failures == 5 and summary.warnings == 0


def test_cli_verify_full_writes_json_when_the_kernel_cannot_build(tmp_path, monkeypatch, capsys):
    def unbuildable():
        raise kernel.KernelBuildError("no compiler")

    monkeypatch.setattr(kernel, "library", unbuildable)
    path = tmp_path / "verify.json"
    assert main(["verify", "--level", "full", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(path.read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert len(report["checks"]) == report["summary"]["checks"] == 20
    assert len(captured.out.splitlines()) == 21  # every check's line and the summary
    for name in ("sieve_known_values", "ks_trend", "psi_trend"):
        assert checks[name]["status"] == "FAIL"
        assert checks[name]["detail"] == "raised KernelBuildError: no compiler"


def test_verify_rejects_unknown_level():
    with pytest.raises(ValueError):
        verify_suite("medium")


def test_cli_verify_exit_code(monkeypatch, capsys):
    real = genfun.kernel_value

    def broken(p, alpha, kernel):
        val = real(p, alpha, kernel)
        return -val if (p > kernel.w and alpha == 2) else val

    monkeypatch.setattr(genfun, "kernel_value", broken)
    assert main(["verify", "--level", "fast"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] convolution_identity" in out


def test_cli_verify_json_matches_printed_battery(tmp_path, monkeypatch, capsys):
    real = genfun.kernel_value
    monkeypatch.setattr(  # one failing check, so statuses differ
        genfun, "kernel_value",
        lambda p, alpha, kernel: -real(p, alpha, kernel) if alpha == 2 else real(p, alpha, kernel),
    )
    assert main(["verify", "--level", "fast"]) == 1
    plain = capsys.readouterr().out
    path = tmp_path / "verify.json"
    assert main(["verify", "--level", "fast", "--json", str(path)]) == 1
    assert capsys.readouterr().out == plain  # the flag only adds the file
    report = json.loads(path.read_text())
    *lines, last = plain.splitlines()
    printed = [line.split(" ", 1) for line in lines]
    printed = [(status.strip("[]"), *rest.split(": ", 1)) for status, rest in printed]
    checks = report["checks"]
    assert [(c["status"], c["name"], c["detail"]) for c in checks] == printed
    assert "FAIL" in {c["status"] for c in checks} and "PASS" in {c["status"] for c in checks}
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in checks)
    summary = report["summary"]
    assert report["level"] == "fast"
    assert last == (
        f"fast: {summary['checks']} checks, {summary['failures']} failed, "
        f"{summary['warnings']} warnings"
    )
    assert summary["checks"] == len(checks) == 15


def test_cli_verify_json_is_written_atomically(tmp_path, capsys):
    path = tmp_path / "deep" / "verify.json"  # missing directories are created
    assert main(["verify", "--level", "fast", "--json", str(path)]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert path.read_bytes() == (json.dumps(report, indent=2) + "\n").encode()
    assert os.listdir(path.parent) == ["verify.json"]  # no temporary file left


def test_cli_verify_rejects_a_small_x_top_before_any_check(capsys):
    assert main(["verify", "--level", "full", "--x-top", "99999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no check ran
    assert captured.err.startswith("error: --x-top 99999")
    assert main(["verify", "--level", "full", "--x-top", "10000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no check ran, not even the 10^8 ladder
    assert captured.err == ("error: --x-top 10000000000 is above 100000000, "
                            "the full battery's largest scale\n")
    with pytest.raises(ValueError, match="x-top"):
        verify_suite("full", x_top=1000, quiet=True)
    with pytest.raises(ValueError, match="x-top 100000001 is above"):
        verify_suite("full", x_top=10**8 + 1, quiet=True)
