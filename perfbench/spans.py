"""Spans around omegashift's layer functions, and the per-layer metrics
derived from them.

`install` replaces each listed layer function, in every omegashift module
that holds it, by a wrapper that records one span per call: name, start,
end, parent span and a few attributes of the call.  Replacing the function
at the names the calling modules look it up (``experiment.joint_histogram``,
``verify.build_omega_table``, ``stats.omega_histogram`` ...) traces the
program without editing it.  `layer_metrics` turns one op's spans into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time

# layer -> (defining module, functions wrapped).  A name the program no
# longer defines is skipped, and the metrics built on it read zero.
LAYERS = {
    "primes": ("omegashift.primes", ("primes_up_to",)),
    "sieve": ("omegashift.sieve", ("build_omega_table", "save_table", "load_table")),
    "constants": (
        "omegashift.constants",
        (
            "level_density_constant",
            "tilted_level_constant",
            "tilt_product",
            "tilt_profile",
            "coprimality_density",
            "coprimality_density_dd",
        ),
    ),
    "stats": (
        "omegashift.stats",
        (
            "joint_histogram",
            "omega_histogram",
            "total_weighted_mass",
            "loglog",
            "logloglog",
            "gaussian_spec",
            "small_counter_spec",
            "unweighted_spec",
            "make_report",
            "weighted_mass",
            "weighted_mass_theoretical",
            "weighted_mass_below",
            "weighted_mass_at",
            "small_factor_prediction",
            "weighted_moment",
            "gaussian_moment",
            "ks_weighted_histogram",
            "ks_distance",
            "unweighted_baseline",
            "classical_baseline",
            "large_factor_ratio",
        ),
    ),
    # The kernel algebra (kernel_value, phi_*) runs tens of thousands of
    # times per verify and is left unwrapped; its time counts to its caller.
    "genfun": (
        "omegashift.genfun",
        (
            "eval_genfun",
            "extract_coefficients",
            "characteristic_profile",
            "convolution_check",
            "convolution_max_deviation",
        ),
    ),
    "experiment": ("omegashift.experiment", ("parse_config", "resolve_w", "run_experiment")),
    "verify": ("omegashift.verify", ("verify_suite",)),
}

# Stats functions that read the whole table range [2, x].
SCANS = ("stats.joint_histogram", "stats.omega_histogram", "stats.total_weighted_mass")

PER_LAYER_UNITS = {
    "sieve.build_s": "s",
    "sieve.build_calls": "count",
    "sieve.build_ints_per_s": "ints/s",
    "sieve.save_s": "s",
    "sieve.load_s": "s",
    "sieve.cache_mb": "MB",
    "sieve.table_mb": "MB",
    "primes.sieve_s": "s",
    "primes.sieve_calls": "count",
    "constants.euler_s": "s",
    "constants.euler_calls": "count",
    "constants.primes_folded": "count",
    "constants.call_ms_p50": "ms",
    "constants.call_ms_tail": "ms",
    "stats.joint_histogram_s": "s",
    "stats.joint_histogram_calls": "count",
    "stats.omega_histogram_s": "s",
    "stats.omega_histogram_calls": "count",
    "stats.scanned_ints": "count",
    "stats.derive_s": "s",
    "genfun.profile_s": "s",
    "genfun.eval_s": "s",
    "genfun.extract_s": "s",
    "genfun.convolution_s": "s",
    "genfun.calls": "count",
    "experiment.self_s": "s",
    "experiment.report_kb": "kB",
    "experiment.rows": "count",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.fail_checks": "count",
    "process.import_s": "s",
    "trace.overhead_s": "s",
}


def _attributes(name: str, signature, args, kwargs, result) -> dict:
    """Counts recorded with a span: table sizes, primes folded, rows, checks."""
    if name in ("sieve.build_omega_table", "sieve.load_table"):
        return {
            "x_max": int(result.x_max),
            "table_bytes": int(result.omega.nbytes + result.omega_small.nbytes),
        }
    if name in SCANS:
        return {"x": int(signature.bind(*args, **kwargs).arguments["x"])}
    if name.startswith("constants.") and hasattr(result, "primes_used"):
        return {"primes_used": int(result.primes_used)}
    if name == "experiment.run_experiment":
        return {"rows": len(result.rows)}
    if name == "verify.verify_suite":
        return {"checks": len(result.results), "fail_checks": int(result.failures)}
    return {}


class Recorder:
    """Keeps the spans of one process in memory until it writes them out."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        """fn with one span per call; results and exceptions pass unchanged."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": stack[-1] if stack else None,
                "start": time.monotonic(),
            }
            self.spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()
            span.update(_attributes(name, signature, args, kwargs, result))
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function at each omegashift module name bound to it."""
    import omegashift.cli  # noqa: F401  (imports every layer module)

    modules = [
        m for n, m in sys.modules.items() if n == "omegashift" or n.startswith("omegashift.")
    ]
    for layer, (home, names) in LAYERS.items():
        for fname in names:
            original = getattr(sys.modules[home], fname, None)
            if original is None:
                continue
            wrapped = recorder.wrap(f"{layer}.{fname}", original)
            for module in modules:
                bound = [a for a, v in vars(module).items() if v is original]
                for attr in bound:
                    setattr(module, attr, wrapped)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def tail_value(values: list[float]) -> float:
    """Highest order statistic with at least ten samples above it (max below 11)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(spans: list[dict], spawned: float, cache_bytes: int, report_bytes: int) -> dict:
    """Per-layer metrics of one traced op (all but trace.overhead_s).

    spawned is the CLOCK_MONOTONIC time the op's process was started;
    cache_bytes and report_bytes are what the op left in its cache and
    report directories.
    """
    own = self_times(spans)

    def self_s(pred) -> float:
        return sum(own[s["id"]] for s in spans if pred(s["name"]))

    def calls(name) -> int:
        return sum(1 for s in spans if s["name"] == name)

    builds = [s for s in spans if s["name"] == "sieve.build_omega_table"]
    tables = [s for s in spans if "table_bytes" in s]
    euler = [s for s in spans if "primes_used" in s]
    euler_ms = [(s["end"] - s["start"]) * 1e3 for s in euler]
    build_s = self_s(lambda n: n == "sieve.build_omega_table")
    return {
        "sieve.build_s": build_s,
        "sieve.build_calls": len(builds),
        "sieve.build_ints_per_s": (
            sum(s["x_max"] for s in builds) / build_s if build_s > 0 else 0.0
        ),
        "sieve.save_s": self_s(lambda n: n == "sieve.save_table"),
        "sieve.load_s": self_s(lambda n: n == "sieve.load_table"),
        "sieve.cache_mb": cache_bytes / 1e6,
        "sieve.table_mb": sum(s["table_bytes"] for s in tables) / 1e6,
        "primes.sieve_s": self_s(lambda n: n == "primes.primes_up_to"),
        "primes.sieve_calls": calls("primes.primes_up_to"),
        "constants.euler_s": self_s(lambda n: n.startswith("constants.")),
        "constants.euler_calls": len(euler),
        "constants.primes_folded": sum(s["primes_used"] for s in euler),
        "constants.call_ms_p50": statistics.median(euler_ms) if euler_ms else 0.0,
        "constants.call_ms_tail": tail_value(euler_ms),
        "stats.joint_histogram_s": self_s(lambda n: n == "stats.joint_histogram"),
        "stats.joint_histogram_calls": calls("stats.joint_histogram"),
        "stats.omega_histogram_s": self_s(lambda n: n == "stats.omega_histogram"),
        "stats.omega_histogram_calls": calls("stats.omega_histogram"),
        "stats.scanned_ints": sum(s["x"] for s in spans if s["name"] in SCANS),
        "stats.derive_s": self_s(
            lambda n: n.startswith("stats.")
            and n not in ("stats.joint_histogram", "stats.omega_histogram")
        ),
        "genfun.profile_s": self_s(lambda n: n == "genfun.characteristic_profile"),
        "genfun.eval_s": self_s(lambda n: n == "genfun.eval_genfun"),
        "genfun.extract_s": self_s(lambda n: n == "genfun.extract_coefficients"),
        "genfun.convolution_s": self_s(lambda n: n.startswith("genfun.convolution_")),
        "genfun.calls": sum(1 for s in spans if s["name"].startswith("genfun.")),
        "experiment.self_s": self_s(lambda n: n.startswith("experiment.")),
        "experiment.report_kb": report_bytes / 1e3,
        "experiment.rows": sum(s.get("rows", 0) for s in spans),
        "verify.self_s": self_s(lambda n: n.startswith("verify.")),
        "verify.checks": sum(s.get("checks", 0) for s in spans),
        "verify.fail_checks": sum(s.get("fail_checks", 0) for s in spans),
        "process.import_s": (min(s["start"] for s in spans) - spawned) if spans else 0.0,
    }
