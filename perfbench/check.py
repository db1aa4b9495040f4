"""Output checks against the reference frozen in reference.json.

Each check returns None when the op's output matches, or a one-line reason.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal, InvalidOperation
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Report columns compared; runtime_ms, the tenth, varies from run to run.
REPORT_COLUMNS = ("statistic", "x", "k", "w", "param", "empirical",
                  "theoretical", "rel_dev", "error_scale")
# Statistics whose empirical cell is an exact integer (a mass or a count).
INTEGER_STATISTICS = ("weighted_total", "weighted_cdf", "small_factor_profile",
                      "unweighted_cdf", "classical_cdf")
_STATUS_LINE = re.compile(r"^\[(PASS|FAIL|WARN)\] ([^:]+):")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def report_cells(csv_text: str) -> list[list[str]]:
    """Header and rows of a report CSV, cut to REPORT_COLUMNS."""
    return [line.split(",")[: len(REPORT_COLUMNS)] for line in csv_text.splitlines() if line]


def _same_number(got: str, want: str, exact: bool, rel_tol: float) -> bool:
    if got == want:
        return True
    try:
        if exact:
            return Decimal(got) == Decimal(want)
        return math.isclose(float(got), float(want), rel_tol=rel_tol, abs_tol=0.0)
    except (InvalidOperation, ValueError):
        return False


def compare_report(cells: list[list[str]], ref: dict) -> str | None:
    """Key cells and integer masses exactly, other floats within rel_tol."""
    want = ref["rows"]
    if cells[:1] != [list(REPORT_COLUMNS)]:
        return f"header {cells[:1]}"
    rows = cells[1:]
    if len(rows) != len(want):
        return f"{len(rows)} rows, want {len(want)}"
    rel_tol = ref["float_rel_tol"]
    for i, (got, exp) in enumerate(zip(rows, want), 1):
        if len(got) != len(exp) or got[:5] != exp[:5]:
            return f"row {i}: key {got[:5]} != {exp[:5]}"
        integer = exp[0] in INTEGER_STATISTICS
        for col in range(5, len(exp)):
            if not _same_number(got[col], exp[col], integer and col == 5, rel_tol):
                return f"row {i} {REPORT_COLUMNS[col]}: {got[col]} != {exp[col]}"
    return None


def check_report(out_dir: Path, ref: dict) -> str | None:
    """The one CSV report in out_dir, and its JSON mirror's row count."""
    csvs = sorted(out_dir.glob("report_*.csv"))
    if len(csvs) != 1:
        return f"{len(csvs)} CSV reports in {out_dir.name}"
    error = compare_report(report_cells(csvs[0].read_text()), ref)
    if error:
        return error
    try:
        with open(csvs[0].with_suffix(".json")) as fh:
            mirrored = len(json.load(fh)["rows"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"JSON mirror: {exc!r}"
    if mirrored != len(ref["rows"]):
        return f"JSON mirror has {mirrored} rows"
    return None


def check_sieve(stdout: str, ref: dict) -> str | None:
    """The table digest printed by sieve_op."""
    try:
        got = json.loads(stdout.splitlines()[-1])["sha256"]
    except (IndexError, ValueError, KeyError, TypeError):
        return "no digest printed"
    return None if got == ref["sha256"] else f"table sha256 {got[:16]}..."


def verify_statuses(stdout: str) -> list[list[str]]:
    return [[m.group(2), m.group(1)] for m in map(_STATUS_LINE.match, stdout.splitlines()) if m]


def check_verify(stdout: str, returncode: int, ref: dict) -> str | None:
    """The per-check status list in order, and the exit code."""
    if returncode != ref["returncode"]:
        return f"exit code {returncode}, want {ref['returncode']}"
    got = verify_statuses(stdout)
    if got != ref["statuses"]:
        diff = [f"{g} != {w}" for g, w in zip(got, ref["statuses"]) if g != w]
        return f"{len(got)} statuses, want {len(ref['statuses'])}; " + "; ".join(diff[:3])
    return None
