"""Experiment configuration, execution, and deterministic reports.

A run is described by a flat key = value text file, executed over a grid of
(x, k) pairs, and written as a CSV plus a JSON mirror.  The level histogram
H of each (x, w) comes from the histogram cache when cache_dir holds it;
the missing ones come from one table-free sieve pass over the grid
(sieve.grid_histograms) and are then cached.  No sieve table is built.
Reruns of the same config produce byte-identical files except for the
runtime_ms column, which is deliberately last in the schema; whether a
histogram came from the cache is not recorded.  runtime_ms is the time to
derive a row from the level histogram; sieve, cache and histogram-pass time
are excluded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

from . import __version__
from .constants import DEFAULT_TRUNCATION, R_CEILING
from .sieve import MAX_THREADS, grid_histograms
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
    loglog,
    logloglog,
    make_report,
    normal_cdf,
    save_histogram,
    small_factor_prediction,
    unweighted_baseline,
    weighted_mass,
    weighted_mass_at,
    weighted_mass_below,
    weighted_mass_theoretical,
    weighted_moment,
    write_atomic,
)

CSV_HEADER = "statistic,x,k,w,param,empirical,theoretical,rel_dev,error_scale,runtime_ms"


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


_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}
_TYPE_PARSERS = {  # a boolean's parser alone returns None, on a bad value
    "tuple[int, ...]": _numbers(int),
    "tuple[float, ...]": _numbers(float),
    "int": int,
    "float": float,
    "bool": lambda val: _BOOLEANS.get(val.lower()),
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
        values[key] = _PARSERS[key](val)
        if values[key] is None:
            raise ValueError(f"line {lineno}: bad boolean {val!r}")
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


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


@dataclass
class ExperimentResult:
    csv_path: str
    json_path: str
    rows: list[PredictionReport] = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the grid and write reports; row order is deterministic."""
    rows: list[PredictionReport] = []
    P = config.truncation_prime
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
            mass, ms = _timed(weighted_mass, J)
            theo_mass = weighted_mass_theoretical(k, x, P)
            rows.append(
                make_report("weighted_total", x, k, w, None, mass, theo_mass,
                            1.0 / l2x, ms)
            )
            if mass == 0:
                continue
            for y in config.y_grid:
                emp, ms = _timed(weighted_mass_below, J, x, y)
                rows.append(
                    make_report("weighted_cdf", x, k, w, y, emp,
                                mass * normal_cdf(y), gauss_err, ms)
                )
            if config.y_grid:
                emp, ms = _timed(ks_distance, J, x)
                rows.append(
                    make_report("ks_distance", x, k, w, None, emp, gauss_err,
                                gauss_err, ms)
                )
            if config.ell_max >= 0 and w >= 3:
                l2w = loglog(w)
                for ell in range(config.ell_max + 1):
                    emp, ms = _timed(weighted_mass_at, J, ell)
                    theo = small_factor_prediction(k, x, ell, w, P, mass=mass)
                    err = k / l2x**2 + (ell + 1) / l2w**2
                    rows.append(
                        make_report("small_factor_profile", x, k, w, ell,
                                    emp, theo, err, ms)
                    )
            for m in config.moments:
                emp, ms = _timed(weighted_moment, J, x, m)
                rows.append(
                    make_report(f"moment_m{m}", x, k, w, m, emp,
                                gaussian_moment(m), gauss_err, ms)
                )
            if config.baseline:
                size = int(J.sum())
                for y in config.y_grid:
                    emp, ms = _timed(unweighted_baseline, J, x, y)
                    rows.append(
                        make_report("unweighted_cdf", x, k, w, y, emp,
                                    size * normal_cdf(y), base_err, ms)
                    )
            if config.large_factor_c >= 0:
                emp, ms = _timed(large_factor_ratio, J, x, config.large_factor_c)
                rows.append(
                    make_report("large_factor_ratio", x, k, w,
                                config.large_factor_c, emp, 0.0, 1.0 / l2x, ms)
                )
        if config.baseline:
            for y in config.y_grid:
                emp, ms = _timed(classical_baseline, H, x, y)
                rows.append(
                    make_report("classical_cdf", x, None, None, y, emp,
                                (x - 1) * normal_cdf(y), base_err, ms)
                )
    os.makedirs(config.output_dir, exist_ok=True)
    tag = config_hash(config)
    csv_path = os.path.join(config.output_dir, f"report_{tag}.csv")
    json_path = os.path.join(config.output_dir, f"report_{tag}.json")
    _write_csv(csv_path, rows)
    _write_json(json_path, rows, config, tag, hists)
    return ExperimentResult(csv_path=csv_path, json_path=json_path, rows=rows)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, rows: list[PredictionReport]) -> None:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                _cell(v)
                for v in (r.statistic, r.x, r.k, r.w, r.param, r.empirical,
                          r.theoretical, r.rel_dev, r.error_scale, r.runtime_ms)
            )
        )
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
        "rows": [
            {
                "statistic": r.statistic, "x": r.x, "k": r.k, "w": r.w,
                "param": r.param, "empirical": r.empirical,
                "theoretical": r.theoretical, "rel_dev": r.rel_dev,
                "error_scale": r.error_scale, "runtime_ms": r.runtime_ms,
            }
            for r in rows
        ],
    }
    write_atomic(path, (json.dumps(doc, indent=1) + "\n").encode())
