"""The package's public names, and where it may import numpy."""

import ast
import inspect
import pkgutil
from importlib import import_module
from pathlib import Path

import omegashift

# Names removed from the package, with the table route to H, the table
# cache, the thread override, the uncalled second derivative, the Python
# wrapper of the old strided-add kernel, the API that no command, report
# row or check read, the second segment pass and fill entry point, the
# pre-sieve pattern handed to the pass from outside, the bound of the
# deleted numpy cofactor route (now LOG_TEST_MIN_X) and the numpy prime
# sieves that base.primes_up_to and kernel.prime_sums replaced; and, from
# stats only, the run cache, atomic writer and report row, which moved to
# experiment.
# A half-finished removal or move leaves one behind.  "module.name" is removed from
# that module only.
REMOVED = (
    "level_histogram",
    "save_table",
    "load_table",
    "cache_path",
    "resolve_threads",
    "THREADS_ENV",
    "read_cache",
    "write_cache",
    "_widen",
    "_BITS",
    "coprimality_density_dd",
    "sieve_words",
    "convolution_check",
    "small_counter_spec",
    "LevelRatio",
    "iter_omega_level",
    "count_omega_level",
    "_check_range",
    "CoefficientVector",
    "kernel.fill_segment",
    "sieve.segment_spans",
    "stats.grid_histograms",
    "sieve.segment_passes",
    "sieve.presieve_pattern",
    "sieve.PRESIEVE_PRIMES",
    "sieve.PRESIEVE_PERIOD",
    "sieve.LOG_ROUTE_MIN_X",
    "stats.HIST_MAGIC",
    "stats.HIST_VERSION",
    "stats._HEADER",
    "stats._HIST_BYTES",
    "stats.SUMS_MAGIC",
    "stats.SUMS_VERSION",
    "stats._SUMS_HEADER",
    "stats._SUMS_PAYLOAD",
    "stats.CacheMismatchError",
    "stats.PredictionReport",
    "stats.make_report",
    "stats.histogram_path",
    "stats._payload",
    "stats.histogram_digest",
    "stats.write_atomic",
    "stats._write_cache",
    "stats._read_cache",
    "stats.save_histogram",
    "stats.load_histogram",
    "stats.prime_sums_path",
    "stats._sums_key",
    "stats.save_prime_sums",
    "stats.load_prime_sums",
    "sieve._fill_segment",
    "sieve._octave_bounds",
    "sieve._prime_after",
    "sieve.base_primes",
    "sieve._sieve_bound",
    "primes.primes_up_to",
    "primes.iter_prime_blocks",
    "kernel.fold",
    "same_bytes",
    "_memcmp",
    "_PyBuffer",
)


def test_every_exported_name_imports():
    missing = [name for name in omegashift.__all__ if not hasattr(omegashift, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(omegashift.__all__) == len(set(omegashift.__all__))


def test_no_removed_name_is_exported_or_defined():
    assert not set(REMOVED) & set(omegashift.__all__)
    modules = [omegashift] + [
        import_module(f"omegashift.{info.name}")
        for info in pkgutil.iter_modules(omegashift.__path__)
    ]
    for module in modules:
        short = module.__name__.removeprefix("omegashift.")
        leftover = [
            name for name in REMOVED
            if hasattr(module, name)
            or (name.startswith(f"{short}.") and hasattr(module, name.removeprefix(f"{short}.")))
        ]
        assert leftover == [], (module.__name__, leftover)


def test_trimmed_signatures():
    # the threshold spec, counter choice and ratio ceiling are gone
    assert list(inspect.signature(omegashift.weighted_mass_below).parameters) == ["J", "x", "y"]
    assert list(inspect.signature(omegashift.level_ratio).parameters) == ["k", "x"]


def _numpy_imports(tree):
    """(enclosing function names, line) of each import of numpy in tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_package_imports_no_numpy():
    # numpy is a test-only dependency: no module of the package imports it,
    # at module level or inside a function.
    src = Path(omegashift.__file__).parent
    found = [
        (path.name, scope, line)
        for path in sorted(src.glob("*.py"))
        for scope, line in _numpy_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
    assert _numpy_imports(ast.parse("import numpy.linalg as la\nfrom numpy import log1p\n")) == [
        ((), 1), ((), 2)]
