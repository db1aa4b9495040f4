"""Freeze the outputs the benchmark checks into reference.json.

    python3 perfbench/freeze.py

Run it only when a change is meant to alter omegashift's outputs; the file
it writes is what every later op is compared with.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run
import sieve_op

FLOAT_REL_TOL = 1e-9


def main() -> int:
    work = run.WORK / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run.write_config(work / "ref.cfg", work / "cache", work / "out")
        report = run.spawn(run.cli("run", "--config", str(work / "ref.cfg")), work / "run.txt")
        sieve = run.spawn([sys.executable, str(run.BENCH / "sieve_op.py")], work / "sieve.txt")
        verify = run.spawn(run.cli("verify", "--level", "full"), work / "verify.txt")
        if report.returncode != 0 or sieve.returncode != 0:
            print("error: reference op failed", file=sys.stderr)
            return 1
        (csv,) = (work / "out").glob("report_*.csv")
        reference = {
            "config": run.REFERENCE_CONFIG,
            "report": {
                "float_rel_tol": FLOAT_REL_TOL,
                "rows": check.report_cells(csv.read_text())[1:],
            },
            "sieve_1e8": {
                "x_max": sieve_op.X_MAX,
                "w": sieve_op.W,
                "sha256": json.loads(sieve.stdout.splitlines()[-1])["sha256"],
            },
            "verify_full": {
                "returncode": verify.returncode,
                "statuses": check.verify_statuses(verify.stdout),
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
