"""The sieve_1e8 op: one bare x = 1e8 table build in a fresh process.

Prints one JSON line: the CLOCK_MONOTONIC time and the process CPU time at
the end of the build, then the table's SHA-256, which is computed after
those marks so the digest stays out of the timed window.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time

X_MAX = 10**8
W = 4858  # resolve_w("loglog_sq", 10**8)
THREADS = 2


def table_digest(table) -> str:
    """SHA-256 over x_max, w and both byte tables."""
    h = hashlib.sha256(f"{table.x_max} {table.w}\n".encode())
    h.update(table.omega)
    h.update(table.omega_small)
    return h.hexdigest()


def main() -> None:
    from omegashift.sieve import SieveConfig, build_omega_table

    table = build_omega_table(SieveConfig(x_max=X_MAX, w=W, threads=THREADS))
    done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "done": done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sha256": table_digest(table),
    }))


if __name__ == "__main__":
    main()
