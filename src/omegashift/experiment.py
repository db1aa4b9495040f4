"""Experiment configuration, execution, the run cache and deterministic reports.

A run is described by a flat key = value text file, executed over a grid of
(x, k) pairs, and written as a CSV plus a JSON mirror.  The level histogram
H of each (x, w) comes from the histogram cache when cache_dir holds it;
the missing ones come from one table-free sieve pass over the grid
(sieve.grid_histograms) and are then cached.  No sieve table is built,
and a warm run sieves nothing: the Euler products read frozen prime sums.

This module is the one that knows what run reads and writes: the cache
format (a header holding the file's key and the SHA-256 of its payload,
then the payload), write_atomic, which every file goes through, and the
report row.  Reruns of the same config produce byte-identical files
except for the runtime_ms column, which is deliberately last in the
schema; what came from the cache is not recorded.  runtime_ms times a
row's empirical call on the level histogram alone: its theoretical value,
sieve, cache and histogram-pass time are excluded.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import time
from collections import namedtuple

from . import __version__
from .base import FOLD_BINS, OMEGA_CAP, SieveConfig, checked_make, nested_histogram, sha256
from .constants import R_CEILING, TRUNCATION_PRIME, normal_cdf
from .stats import (
    MAX_MOMENT,
    classical_baseline,
    gaussian_moment,
    ks_distance,
    large_factor_ratio,
    loglog,
    logloglog,
    small_factor_prediction,
    unweighted_baseline,
    weighted_mass,
    weighted_mass_at,
    weighted_mass_below,
    weighted_mass_theoretical,
    weighted_moment,
)


class PredictionReport(namedtuple(
        "PredictionReport",
        "statistic x k w param empirical theoretical rel_dev error_scale runtime_ms")):
    """One empirical-vs-theoretical comparison row: statistic, x and the
    level k, threshold w and parameter of the row (each None where the row
    has none), then floats."""

    __slots__ = ()


def make_report(
    statistic, x, k, w, param, empirical, theoretical, error_scale, runtime_ms
) -> PredictionReport:
    rel = abs(empirical - theoretical) / max(abs(theoretical), 1e-30)
    return PredictionReport(
        statistic=statistic, x=x, k=k, w=w, param=param,
        empirical=float(empirical), theoretical=float(theoretical),
        rel_dev=float(rel), error_scale=float(error_scale),
        runtime_ms=float(runtime_ms),
    )


_COLUMNS = PredictionReport._fields
CSV_HEADER = ",".join(_COLUMNS)


def _numbers(kind):
    return lambda val: tuple(kind(v) for v in val.replace(",", " ").split())


def _boolean(val: str) -> bool:
    if val.lower() not in ("true", "1", "false", "0"):
        raise ValueError("bad boolean (expected true, false, 1 or 0)")
    return val.lower() in ("true", "1")


# Each key of the config format, in ExperimentConfig's field order: its
# parser and, after the two required keys, its default.
_KEYS = (
    ("x_list", _numbers(int)),
    ("k_list", _numbers(int)),
    ("w_rule", str, "auto"),
    ("y_grid", _numbers(float), (-2.0, -1.0, 0.0, 1.0, 2.0)),
    ("ell_max", int, -1),
    ("moments", _numbers(int), ()),
    ("output_dir", str, "reports"),
    ("cache_dir", str, ""),
    ("threads", int, 1),
    ("baseline", _boolean, False),
    ("large_factor_c", float, -1.0),
)
_PARSERS = {key: parse for key, parse, *_ in _KEYS}


class ExperimentConfig(namedtuple("ExperimentConfig", [key for key, *_ in _KEYS],
                                  defaults=[entry[2] for entry in _KEYS if len(entry) > 2])):
    """One run: the x and k grids, the w rule, which rows the report holds,
    where the run reads and writes, and on how many threads.  Each field is
    a key of the config format, parsed and defaulted as _KEYS says."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.x_list:
            raise ValueError("x_list is empty")
        if not self.k_list:
            raise ValueError("k_list is empty")
        if not self.output_dir:
            raise ValueError("output_dir is empty: the reports need a directory")
        for name in ("x_list", "k_list", "moments", "y_grid"):  # a repeat writes its rows again
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} {values} repeats a value")
        if self.ell_max < -1:
            raise ValueError(f"ell_max={self.ell_max} below -1, which disables the slice rows")
        if min(self.x_list) < 16:
            raise ValueError("every x must be >= 16")
        if min(self.k_list) < 1:
            raise ValueError("every k must be >= 1")
        cap = R_CEILING * loglog(min(self.x_list)) + 1.0
        if max(self.k_list) > cap:
            raise ValueError(
                f"k={max(self.k_list)} too deep for x={min(self.x_list)} "
                f"(ceiling {cap:.1f})"
            )
        _parse_w_rule(self.w_rule)
        for x in self.x_list:  # the slice rows need tilt_profile at z = ell / loglog w
            w = resolve_w(self.w_rule, x)
            # a pair or thread count the sieve refuses fails here, before any sieving
            SieveConfig(x_max=x, w=w, threads=self.threads)
            z = self.ell_max / loglog(w) if w >= 3 else 0.0
            if z > R_CEILING + 1e-9:
                raise ValueError(
                    f"ell_max={self.ell_max} too deep for x={x} (w={w}): "
                    f"ell_max / loglog w = {z:.3f} exceeds {R_CEILING}"
                )
        for m in self.moments:
            if not 0 <= m <= MAX_MOMENT:
                raise ValueError(f"moment order {m} outside [0, {MAX_MOMENT}]")
        if not all(math.isfinite(y) for y in self.y_grid):
            raise ValueError(f"y_grid {self.y_grid} holds a non-finite value")
        if not math.isfinite(self.large_factor_c):
            raise ValueError(f"large_factor_c={self.large_factor_c} is not finite")
        return self

    _make = classmethod(checked_make)


def _parse_w_rule(rule: str):
    if rule in ("auto", "loglog_sq"):
        return rule, None
    if rule.startswith("fixed:"):
        try:
            n = int(rule.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad w_rule {rule!r}") from None
        if n < 2:
            raise ValueError("fixed w must be >= 2")
        return "fixed", n
    raise ValueError(f"unknown w_rule {rule!r} (expected auto|loglog_sq|fixed:<int>)")


def resolve_w(rule: str, x: int) -> int:
    """Small-prime threshold for scale x.

    auto      exp(log x / (loglog x)^2)   (slowly growing, the default:
                                           6 at x = 1e3, 10 at 1e10)
    loglog_sq exp((loglog x)^2)           (wide small-prime window:
                                           987 at x = 1e6, 4858 at 1e8)
    fixed:N   N (N >= 2 enforced at parse time), clamped down to x
    """
    kind, n = _parse_w_rule(rule)
    if kind == "fixed":
        return max(2, min(n, x))
    t = loglog(x)
    if kind == "auto":
        w = math.exp(math.log(x) / (t * t))
    else:
        w = math.exp(t * t)
    return max(2, min(int(round(w)), x))


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format ('#' starts a comment)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ValueError(f"line {lineno}: key {key!r} repeated")
        if key not in _PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key} = {val!r}: {exc}") from None
    for req in ("x_list", "k_list"):
        if req not in values:
            raise ValueError(f"missing required key {req!r}")
    return ExperimentConfig(**values)


# Where a run reads and writes, and on how many threads: no report row changes.
_UNHASHED = ("cache_dir", "output_dir", "threads")


def config_hash(config: ExperimentConfig) -> str:
    """12 hex digits of the SHA-256 of the fields that change a report row."""
    canon = "\n".join(
        f"{k}={getattr(config, k)!r}"
        for k in sorted(ExperimentConfig._fields)
        if k not in _UNHASHED
    )
    return sha256(canon.encode()).hexdigest()[:12]


HIST_MAGIC = b"OMGH"
HIST_VERSION = 2  # bump when the format or the numbers H holds change
_HEADER = struct.Struct("<4sIQQ32s")  # magic, version, x, w, SHA-256 of the payload


class CacheMismatchError(ValueError):
    """A cache file's header or payload disagrees with what was asked for."""


def histogram_path(cache_dir: str, x: int, w: int) -> str:
    return os.path.join(cache_dir, f"hist_x{x}_w{w}.bin")


_HIST_PAYLOAD = struct.Struct(f"<{FOLD_BINS}q")  # H as little-endian int64 in C order


def _payload(H) -> bytes:
    """H, a 16 x 16 x 16 nested sequence of ints (nested lists or a numpy
    array), packed as the cache stores it."""
    n = OMEGA_CAP
    try:  # a TypeError: too shallow; a struct.error: too deep, or not an int64 count
        if len(H) == n and all(len(J) == n and all(len(row) == n for row in J) for J in H):
            return _HIST_PAYLOAD.pack(*(c for J in H for row in J for c in row))
    except (TypeError, struct.error):
        pass
    raise ValueError(f"histogram is not {(n,) * 3} int64 counts")


def histogram_digest(H) -> str:
    """SHA-256 of H as little-endian int64 in C order, as the cache stores it;
    nested lists and a numpy array of the same counts give the same digest."""
    return sha256(_payload(H)).hexdigest()


def write_atomic(path: str, data: bytes) -> None:
    """Write data to a fresh temporary file beside path, creating the
    directories, and os.replace it over path: readers see the old file or
    the whole new one, and writers that share a path never share a
    temporary file."""
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)  # mkstemp made it private to its creator
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_histogram(H, path: str, x: int, w: int) -> None:
    """Write H as a cache file: the header (magic, version, x, w, SHA-256
    of the payload), then the payload, H as little-endian int64 in C order."""
    payload = _payload(H)
    write_atomic(path, _HEADER.pack(HIST_MAGIC, HIST_VERSION, x, w, sha256(payload).digest())
                 + payload)


def load_histogram(path: str, x: int, w: int) -> list[list[list[int]]]:
    """Read a cached H for (x, w) as nested lists of ints, H[k][v][u]; a short
    or long file, another magic, version, x or w, or a payload that does not
    match its digest raises CacheMismatchError naming path and the field."""
    size = _HIST_PAYLOAD.size
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size + size + 1)  # a byte too many shows a long file
    if len(raw) < _HEADER.size:
        raise CacheMismatchError(f"{path}: truncated header")
    magic, version, *found, digest = _HEADER.unpack_from(raw)
    if (magic, version) != (HIST_MAGIC, HIST_VERSION):
        raise CacheMismatchError(f"{path}: bad magic/version {magic!r} v{version}")
    for name, got, wanted in zip("xw", found, (x, w)):
        if got != wanted:
            raise CacheMismatchError(f"{path}: has {name}={got}, wanted {name}={wanted}")
    payload = raw[_HEADER.size :]
    if len(payload) != size:
        raise CacheMismatchError(f"{path}: payload is not {size} bytes")
    if sha256(payload).digest() != digest:
        raise CacheMismatchError(f"{path}: payload does not match its SHA-256")
    return nested_histogram(_HIST_PAYLOAD.unpack(payload))


def _histograms(config: ExperimentConfig, pairs) -> dict:
    """{(x, w): H} as nested lists of ints: cached pairs are loaded, the rest
    come from one grid pass up to their own largest x and are cached.  The
    sieve and its kernel load only when a pair is missing."""
    hists = {}
    if config.cache_dir:
        for x, w in pairs:
            path = histogram_path(config.cache_dir, x, w)
            if os.path.exists(path):
                hists[x, w] = load_histogram(path, x, w)
    missing = [pair for pair in pairs if pair not in hists]
    if missing:
        from .sieve import grid_histograms

        built = grid_histograms(missing, threads=config.threads)
        for (x, w), H in built.items():
            hists[x, w] = H
            if config.cache_dir:
                save_histogram(H, histogram_path(config.cache_dir, x, w), x, w)
    return hists


class ExperimentResult(namedtuple("ExperimentResult", "csv_path json_path rows")):
    """Where run_experiment wrote its reports, and their rows, a list of
    PredictionReport (a new empty list by default)."""

    __slots__ = ()

    def __new__(cls, csv_path, json_path, rows=None):
        return super().__new__(cls, csv_path, json_path, [] if rows is None else rows)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the grid and write reports; row order is deterministic.  row()
    builds every row, timing only its empirical call as runtime_ms."""
    rows: list[PredictionReport] = []

    def row(statistic, x, k, w, param, theoretical, error_scale, empirical, *args):
        t0 = time.perf_counter()
        emp = empirical(*args)
        ms = (time.perf_counter() - t0) * 1e3
        rows.append(make_report(statistic, x, k, w, param, emp, theoretical, error_scale, ms))
        return emp

    w_of = {x: resolve_w(config.w_rule, x) for x in config.x_list}
    hists = _histograms(config, sorted(set(w_of.items())))
    for x in config.x_list:
        w = w_of[x]
        H = hists[x, w]
        l2x, l3x = loglog(x), logloglog(x)
        gauss_err = l3x / math.sqrt(2.0 * l2x)
        base_err = 1.0 / math.sqrt(l2x)
        for k in config.k_list:
            J = H[k]
            mass = row("weighted_total", x, k, w, None, weighted_mass_theoretical(k, x),
                       1.0 / l2x, weighted_mass, J)
            if mass == 0:
                continue
            for y in config.y_grid:
                row("weighted_cdf", x, k, w, y, mass * normal_cdf(y), gauss_err,
                    weighted_mass_below, J, x, y)
            if config.y_grid:
                row("ks_distance", x, k, w, None, gauss_err, gauss_err, ks_distance, J, x)
            if config.ell_max >= 0 and w >= 3:
                l2w = loglog(w)
                for ell in range(config.ell_max + 1):
                    row("small_factor_profile", x, k, w, ell,
                        small_factor_prediction(k, x, ell, w, mass=mass),
                        k / l2x**2 + (ell + 1) / l2w**2, weighted_mass_at, J, ell)
            for m in config.moments:
                row(f"moment_m{m}", x, k, w, m, gaussian_moment(m), gauss_err,
                    weighted_moment, J, x, m)
            if config.baseline:
                size = sum(map(sum, J))
                for y in config.y_grid:
                    row("unweighted_cdf", x, k, w, y, size * normal_cdf(y), base_err,
                        unweighted_baseline, J, x, y)
            if config.large_factor_c >= 0:
                c = config.large_factor_c
                row("large_factor_ratio", x, k, w, c, 0.0, 1.0 / l2x, large_factor_ratio, J, x, c)
        if config.baseline:
            for y in config.y_grid:
                row("classical_cdf", x, None, None, y, (x - 1) * normal_cdf(y), base_err,
                    classical_baseline, H, x, y)
    os.makedirs(config.output_dir, exist_ok=True)
    tag = config_hash(config)
    csv_path = os.path.join(config.output_dir, f"report_{tag}.csv")
    json_path = os.path.join(config.output_dir, f"report_{tag}.json")
    _write_csv(csv_path, rows)
    _write_json(json_path, rows, config, tag, hists)
    return ExperimentResult(csv_path=csv_path, json_path=json_path, rows=rows)


def _cell(v) -> str:
    return "" if v is None else str(v)  # str of a float is its shortest round-trip repr


def _write_csv(path: str, rows: list[PredictionReport]) -> None:
    lines = [CSV_HEADER] + [",".join(map(_cell, r)) for r in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path, rows, config: ExperimentConfig, tag: str, hists: dict) -> None:
    doc = {
        "metadata": {
            "package_version": __version__,
            "config_hash": tag,
            "r_definition": "(k-1)/loglog(x)",
            "r_definition_rejected": "(k-1)*loglog(x)",
            "w_rule": config.w_rule,
            "truncation_prime": TRUNCATION_PRIME,
            "histograms": [
                {"x": x, "w": w, "sha256": histogram_digest(H)}
                for (x, w), H in sorted(hists.items())
            ],
        },
        "rows": [r._asdict() for r in rows],
    }
    write_atomic(path, (json.dumps(doc, indent=1) + "\n").encode())
