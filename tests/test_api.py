"""The package's public names, and the modules it never imports."""

import ast
import inspect
import pkgutil
from importlib import import_module
from pathlib import Path

import pytest

import omegashift
from omegashift.base import SieveConfig
from omegashift.constants import EulerProductResult
from omegashift.experiment import ExperimentConfig, ExperimentResult, PredictionReport
from omegashift.genfun import GenFunValue, ProfilePoint, WeightKernel
from omegashift.sieve import OmegaTable
from omegashift.stats import ThresholdSpec
from omegashift.verify import TREND_GATES, CheckResult, TrendGate, VerifySummary

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
    "kernel._presieve_starts",
    "kernel._top_power",
    "kernel.int64_buffer",
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


def _imports_of(tree, module):
    """(enclosing function names, line) of each import of module, or of one of
    its submodules, in tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        if any(name == module or name.startswith(f"{module}.") for name in names):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


# numpy is a test-only dependency.  dataclasses would load inspect, ast and
# dis, about 1 MB of a process's peak RSS: the records are namedtuples.
# typing costs more still where the interpreter has not loaded it at start.
@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect", "typing"])
def test_the_package_never_imports(module):
    # no module of the package imports it, at module level or inside a function
    src = Path(omegashift.__file__).parent
    found = [
        (path.name, scope, line)
        for path in sorted(src.glob("*.py"))
        for scope, line in _imports_of(ast.parse(path.read_text(), str(path)), module)
    ]
    assert found == []
    tree = ast.parse(f"import {module}.x as la\nfrom {module} import y\nimport {module}z\n"
                     f"def f():\n    from {module}.x import y\n")
    assert _imports_of(tree, module) == [((), 1), ((), 2), (("f",), 5)]


def _check():
    return CheckResult(name="partition", status="PASS", detail="ok", seconds=0.25)


# Each record type of the package, by name: each call builds a new instance,
# with new buffers and lists, from equal values.
RECORDS = {
    "SieveConfig": lambda: SieveConfig(x_max=1000, w=10, threads=2),
    "EulerProductResult": lambda: EulerProductResult(
        value=0.5 + 0.25j, truncation_prime=1000, tail_bound=1e-9, primes_used=168),
    "ThresholdSpec": lambda: ThresholdSpec(center=1.5, scale=2.0),
    "WeightKernel": lambda: WeightKernel(w=10, z=0.5 + 0.5j),
    "GenFunValue": lambda: GenFunValue(z=1j, value=2 + 1j, weight_total=7, terms=3),
    "ProfilePoint": lambda: ProfilePoint(t=0.5, psi=0.75 + 0.125j, gaussian_gap=0.0625),
    "OmegaTable": lambda: OmegaTable(x_max=10, w=3, omega=memoryview(bytearray(b"\0\0\1\1\1")),
                                     omega_small=memoryview(bytearray(b"\0\0\1\1\0"))),
    "PredictionReport": lambda: PredictionReport(
        statistic="weighted_total", x=10_000, k=2, w=None, param=None, empirical=3.0,
        theoretical=2.0, rel_dev=0.5, error_scale=0.25, runtime_ms=0.125),
    "ExperimentConfig": lambda: ExperimentConfig(x_list=(10_000,), k_list=(2,)),
    "ExperimentResult": lambda: ExperimentResult(csv_path="r.csv", json_path="r.json",
                                                 rows=[]),
    "CheckResult": _check,
    "VerifySummary": lambda: VerifySummary(level="fast", results=[_check()]),
    "TrendGate": lambda: TrendGate("6a", "ks_trend", TREND_GATES[0].predicate),
}


def _hashable(value) -> bool:
    try:
        hash(value)
    except (TypeError, ValueError):  # a list; a writable memoryview
        return False
    return True


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_frozen_values_with_a_named_repr(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b  # by value, with buffers and lists by content
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        a.extra = 1  # __slots__ = (): no instance dict
    if all(map(_hashable, a)):
        assert hash(a) == hash(b)
    shown = [field for field in a._fields if f"{field}=" in repr(a)]
    assert repr(a).startswith(f"{name}(")
    assert shown == (["x_max", "w"] if name == "OmegaTable" else list(a._fields))


def test_replace_checks_a_record_as_a_new_one_is():
    assert SieveConfig(1000, 10)._replace(threads=2) == SieveConfig(1000, 10, threads=2)
    with pytest.raises(ValueError, match="threads=0"):
        SieveConfig(1000, 10)._replace(threads=0)
    with pytest.raises(ValueError, match="scale <= 0"):
        ThresholdSpec(0.0, 1.0)._replace(scale=0.0)
    with pytest.raises(ValueError, match="w < 2"):
        WeightKernel(10, 1.0)._replace(w=1)
    with pytest.raises(ValueError, match="x_list is empty"):
        ExperimentConfig((10_000,), (2,))._replace(x_list=())
