"""Experiment configuration, execution, and deterministic reports.

A run is described by a flat key = value text file, executed over a grid of
(x, k) pairs, and written as a CSV plus a JSON mirror.  The level histogram
H of each (x, w) comes from the histogram cache when cache_dir holds it;
the missing ones come from one table-free sieve pass over the grid
(sieve.grid_histograms) and are then cached.  No sieve table is built.
The Euler products' prime sums are cached too, one file per truncation P,
so a warm run sieves no primes.  Reruns of the same config produce
byte-identical files except for the runtime_ms column, which is
deliberately last in the schema; what came from the cache is not
recorded.  runtime_ms times a row's empirical call on the level histogram
alone: its theoretical value, sieve, cache and histogram-pass time are
excluded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

from . import __version__
from .constants import DEFAULT_TRUNCATION, R_CEILING, prime_sums
from .sieve import MAX_THREADS, SieveConfig, grid_histograms
from .stats import (
    MAX_MOMENT,
    PredictionReport,
    classical_baseline,
    gaussian_moment,
    histogram_digest,
    histogram_path,
    ks_distance,
    large_factor_ratio,
    load_histogram,
    load_prime_sums,
    loglog,
    logloglog,
    make_report,
    normal_cdf,
    prime_sums_path,
    save_histogram,
    save_prime_sums,
    small_factor_prediction,
    unweighted_baseline,
    weighted_mass,
    weighted_mass_at,
    weighted_mass_below,
    weighted_mass_theoretical,
    weighted_moment,
    write_atomic,
)

_COLUMNS = [f.name for f in fields(PredictionReport)]
CSV_HEADER = ",".join(_COLUMNS)


@dataclass(frozen=True)
class ExperimentConfig:
    x_list: tuple[int, ...]
    k_list: tuple[int, ...]
    w_rule: str = "auto"
    y_grid: tuple[float, ...] = (-2.0, -1.0, 0.0, 1.0, 2.0)
    ell_max: int = -1
    moments: tuple[int, ...] = ()
    truncation_prime: int = DEFAULT_TRUNCATION
    output_dir: str = "reports"
    cache_dir: str = ""
    threads: int = 1
    baseline: bool = False
    large_factor_c: float = -1.0

    def __post_init__(self):
        if not self.x_list:
            raise ValueError("x_list is empty")
        if not self.k_list:
            raise ValueError("k_list is empty")
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
            SieveConfig(x_max=x, w=w)  # a pair the sieve refuses fails here, before any sieving
            z = self.ell_max / loglog(w) if w >= 3 else 0.0
            if z > R_CEILING + 1e-9:
                raise ValueError(
                    f"ell_max={self.ell_max} too deep for x={x} (w={w}): "
                    f"ell_max / loglog w = {z:.3f} exceeds {R_CEILING}"
                )
        if self.truncation_prime < 1000:
            raise ValueError("truncation_prime < 1000")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads={self.threads} outside [1, {MAX_THREADS}]")
        for m in self.moments:
            if not 0 <= m <= MAX_MOMENT:
                raise ValueError(f"moment order {m} outside [0, {MAX_MOMENT}]")
        if not all(math.isfinite(y) for y in self.y_grid):
            raise ValueError(f"y_grid {self.y_grid} holds a non-finite value")
        if not math.isfinite(self.large_factor_c):
            raise ValueError(f"large_factor_c={self.large_factor_c} is not finite")


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

    auto      exp(log x / (loglog x)^2)   (slowly growing, the default)
    loglog_sq exp((loglog x)^2)           (wide small-prime window)
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


def _numbers(kind):
    return lambda val: tuple(kind(v) for v in val.replace(",", " ").split())


def _boolean(val: str) -> bool:
    if val.lower() not in ("true", "1", "false", "0"):
        raise ValueError("bad boolean (expected true, false, 1 or 0)")
    return val.lower() in ("true", "1")


_TYPE_PARSERS = {
    "tuple[int, ...]": _numbers(int),
    "tuple[float, ...]": _numbers(float),
    "int": int,
    "float": float,
    "bool": _boolean,
    "str": str,
}
# Each key's parser from its field's annotation; a field of a type with no
# parser fails here, at import.
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}


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


def config_hash(config: ExperimentConfig) -> str:
    canon = "\n".join(
        f"{k}={getattr(config, k)!r}" for k in sorted(ExperimentConfig.__dataclass_fields__)
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _histograms(config: ExperimentConfig, pairs) -> dict:
    """{(x, w): H}: cached pairs are loaded, the rest come from one grid pass
    up to their own largest x and are cached."""
    hists = {}
    if config.cache_dir:
        for x, w in pairs:
            path = histogram_path(config.cache_dir, x, w)
            if os.path.exists(path):
                hists[x, w] = load_histogram(path, x, w)
    missing = [pair for pair in pairs if pair not in hists]
    if missing:
        built = grid_histograms(missing, threads=config.threads)
        if config.cache_dir:
            for (x, w), H in built.items():
                save_histogram(H, histogram_path(config.cache_dir, x, w), x, w)
        hists.update(built)
    return hists


def _cache_prime_sums(config: ExperimentConfig) -> None:
    """Fill the prime-sums memo for truncation_prime from cache_dir, or sum and cache them."""
    P = config.truncation_prime
    path = prime_sums_path(config.cache_dir, P)
    if os.path.exists(path):
        prime_sums(P, loaded=load_prime_sums(path, P))
    else:
        save_prime_sums(prime_sums(P), path, P)


@dataclass
class ExperimentResult:
    csv_path: str
    json_path: str
    rows: list[PredictionReport] = field(default_factory=list)


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

    P = config.truncation_prime
    w_of = {x: resolve_w(config.w_rule, x) for x in config.x_list}
    if config.cache_dir:
        _cache_prime_sums(config)
    hists = _histograms(config, sorted(set(w_of.items())))
    for x in config.x_list:
        w = w_of[x]
        H = hists[x, w]
        l2x, l3x = loglog(x), logloglog(x)
        gauss_err = l3x / math.sqrt(2.0 * l2x)
        base_err = 1.0 / math.sqrt(l2x)
        for k in config.k_list:
            J = H[k]
            mass = row("weighted_total", x, k, w, None, weighted_mass_theoretical(k, x, P),
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
                        small_factor_prediction(k, x, ell, w, P, mass=mass),
                        k / l2x**2 + (ell + 1) / l2w**2, weighted_mass_at, J, ell)
            for m in config.moments:
                row(f"moment_m{m}", x, k, w, m, gaussian_moment(m), gauss_err,
                    weighted_moment, J, x, m)
            if config.baseline:
                size = int(J.sum())
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
    lines = [CSV_HEADER] + [",".join(_cell(getattr(r, c)) for c in _COLUMNS) for r in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path, rows, config: ExperimentConfig, tag: str, hists: dict) -> None:
    doc = {
        "metadata": {
            "package_version": __version__,
            "config_hash": tag,
            "r_definition": "(k-1)/loglog(x)",
            "r_definition_rejected": "(k-1)*loglog(x)",
            "w_rule": config.w_rule,
            "truncation_prime": config.truncation_prime,
            "histograms": [
                {"x": x, "w": w, "sha256": histogram_digest(H)}
                for (x, w), H in sorted(hists.items())
            ],
        },
        "rows": [{c: getattr(r, c) for c in _COLUMNS} for r in rows],
    }
    write_atomic(path, (json.dumps(doc, indent=1) + "\n").encode())
