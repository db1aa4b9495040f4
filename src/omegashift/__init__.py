"""Exact counting and limit-law verification for weighted factor statistics.

The package measures how the number of distinct prime factors of n-1
distributes when n ranges over integers with a fixed number of distinct
prime factors, each n weighted by 2^(distinct prime factors of n-1).
It provides an exact segmented sieve, high-precision Euler-product
constants with rigorous truncation bounds, a level histogram built by one
table-free sieve pass over a grid of scales and cached per scale,
statistics and a generating-function layer that read a plane of that
histogram, and an experiment runner.
"""

__version__ = "0.1.0"

from .constants import (
    EulerProductResult,
    PoleError,
    coprimality_density,
    level_density_constant,
    level_ratio,
    normal_cdf,
    tilt_product,
    tilt_profile,
    tilted_level_constant,
)
from .experiment import (
    CacheMismatchError,
    ExperimentConfig,
    ExperimentResult,
    PredictionReport,
    histogram_digest,
    histogram_path,
    load_histogram,
    parse_config,
    resolve_w,
    run_experiment,
    save_histogram,
)
from .genfun import (
    GenFunValue,
    ProfilePoint,
    WeightKernel,
    characteristic_profile,
    convolution_max_deviation,
    eval_genfun,
    extract_coefficients,
    kernel_value,
    phi_prime_power,
    phi_weighted_kernel,
)
from .sieve import OmegaTable, SieveConfig, build_omega_table, grid_histograms
from .stats import (
    ThresholdSpec,
    gaussian_moment,
    gaussian_spec,
    ks_distance,
    large_factor_ratio,
    loglog,
    small_factor_prediction,
    weighted_mass,
    weighted_mass_at,
    weighted_mass_below,
    weighted_mass_theoretical,
    weighted_moment,
)
from .verify import VerifySummary, verify_suite

__all__ = [
    "__version__",
    "CacheMismatchError",
    "EulerProductResult",
    "ExperimentConfig",
    "ExperimentResult",
    "GenFunValue",
    "OmegaTable",
    "PoleError",
    "PredictionReport",
    "ProfilePoint",
    "SieveConfig",
    "ThresholdSpec",
    "VerifySummary",
    "WeightKernel",
    "build_omega_table",
    "characteristic_profile",
    "convolution_max_deviation",
    "coprimality_density",
    "eval_genfun",
    "extract_coefficients",
    "gaussian_moment",
    "gaussian_spec",
    "grid_histograms",
    "histogram_digest",
    "histogram_path",
    "kernel_value",
    "ks_distance",
    "large_factor_ratio",
    "level_density_constant",
    "level_ratio",
    "load_histogram",
    "loglog",
    "normal_cdf",
    "parse_config",
    "phi_prime_power",
    "phi_weighted_kernel",
    "resolve_w",
    "run_experiment",
    "save_histogram",
    "small_factor_prediction",
    "tilt_product",
    "tilt_profile",
    "tilted_level_constant",
    "verify_suite",
    "weighted_mass",
    "weighted_mass_at",
    "weighted_mass_below",
    "weighted_mass_theoretical",
    "weighted_moment",
]
