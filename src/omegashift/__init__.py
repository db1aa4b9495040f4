"""Exact counting and limit-law verification for weighted factor statistics.

The package measures how the number of distinct prime factors of n-1
distributes when n ranges over integers with a fixed number of distinct
prime factors, each n weighted by 2^(distinct prime factors of n-1).
It provides an exact segmented sieve, high-precision Euler-product
constants with rigorous truncation bounds, a level histogram built by one
table-free sieve pass over a grid of scales and cached per scale,
statistics and a generating-function layer that read a plane of that
histogram, and an experiment runner.

Importing the package runs none of its modules.  Each is bound as a lazy
module (importlib.util.LazyLoader) that runs on first use, and each name
of __all__ resolves through __getattr__ (PEP 562) on first access.  So a
process loads only what it uses.  Every module works on plain buffers and
ints with the standard library alone.
"""

__version__ = "0.1.0"

import importlib.util
import sys
from importlib.machinery import PathFinder

_EXPORTS = {
    "base": ("SieveConfig",),
    "constants": (
        "EulerProductResult",
        "PoleError",
        "coprimality_density",
        "level_density_constant",
        "level_ratio",
        "normal_cdf",
        "tilt_product",
        "tilt_profile",
        "tilted_level_constant",
    ),
    "experiment": (
        "CacheMismatchError",
        "ExperimentConfig",
        "ExperimentResult",
        "PredictionReport",
        "histogram_digest",
        "histogram_path",
        "load_histogram",
        "parse_config",
        "resolve_w",
        "run_experiment",
        "save_histogram",
    ),
    "genfun": (
        "GenFunValue",
        "ProfilePoint",
        "characteristic_profile",
        "convolution_mismatch",
        "eval_genfun",
        "extract_coefficients",
        "kernel_value",
        "phi_prime_power",
        "phi_weighted_kernel",
    ),
    "sieve": ("OmegaTable", "build_omega_table", "grid_histograms"),
    "stats": (
        "ThresholdSpec",
        "gaussian_moment",
        "gaussian_spec",
        "ks_distance",
        "large_factor_ratio",
        "loglog",
        "small_factor_prediction",
        "weighted_mass",
        "weighted_mass_at",
        "weighted_mass_below",
        "weighted_mass_theoretical",
        "weighted_moment",
    ),
    "verify": ("VerifySummary", "verify_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *sorted(_HOME)]

# Every module but cli, which runs as __main__ under python -m.  Bound at
# import, as when the package imported them all, omegashift.<module> and its
# sys.modules entry resolve before the module runs: perfbench/spans.py looks
# each layer module up there once it has imported omegashift.cli.
_MODULES = ("base", "constants", "experiment", "genfun", "kernel", "primes", "sieve", "stats",
            "verify")


def _bind_lazily(name: str):
    """omegashift.<name> in sys.modules, to run on its first attribute access."""
    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _bind_lazily(_name)
del _name


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[home], name)
    return value
