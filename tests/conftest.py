"""Shared fixtures and the acceptance-criteria terminal summary.

Acceptance tests attach a line via record_property("acceptance", text);
the summary hook prints each with its final PASS/FAIL status so the
criteria are readable in one block at the end of a pytest run.
"""

import ctypes
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from omegashift import kernel
from omegashift.experiment import resolve_w
from omegashift.sieve import SieveConfig, build_omega_table

_ACCEPTANCE: list[tuple[bool, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    for name, value in report.user_properties:
        if name == "acceptance":
            _ACCEPTANCE.append((report.passed, str(value)))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for passed, line in _ACCEPTANCE:
        terminalreporter.write_line(f"[{'PASS' if passed else 'FAIL'}] {line}")


X_ORACLE = 100_000


@pytest.fixture(scope="session")
def oracle_w():
    return resolve_w("loglog_sq", X_ORACLE)


@pytest.fixture(scope="session")
def oracle_triples(oracle_w):
    """(omega(n), omega(n-1), omega(n-1,w)) for n in [2, 1e5] by trial division."""
    return oracles.level_triples(X_ORACLE, oracle_w)


@pytest.fixture(scope="session")
def table_1e5(oracle_w):
    return build_omega_table(SieveConfig(x_max=X_ORACLE, w=oracle_w))


@pytest.fixture
def kernel_copy(tmp_path, monkeypatch):
    """kernel_copy(pattern, repl) builds a copy of kernel.c whose one match
    of pattern (re.M) is replaced by repl, with kernel.FLAGS in tmp_path,
    binds its entries as kernel.library() binds them, and makes it what
    kernel.library() returns for the rest of the test."""
    cc = kernel._compiler()
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")

    def build(pattern, repl):
        with open(kernel.SOURCE) as fh:
            source, count = re.subn(pattern, repl, fh.read(), flags=re.M)
        assert count == 1, pattern
        (tmp_path / "k.c").write_text(source)
        argv = [*cc, *kernel.FLAGS, "-o", str(tmp_path / "k.so"), str(tmp_path / "k.c")]
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        lib = ctypes.CDLL(str(tmp_path / "k.so"))
        for name in ("walk", "prime_sums"):
            built = getattr(kernel.library(), name)
            getattr(lib, name).argtypes, getattr(lib, name).restype = built.argtypes, built.restype
        monkeypatch.setattr(kernel, "library", lambda: lib)

    return build
