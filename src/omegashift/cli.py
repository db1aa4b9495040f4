"""Command line interface.

Subcommands:
  sieve      build a factor-count table
  run        execute an experiment from a flat key=value config file
  verify     run the built-in invariant battery
  constants  print the Euler-product constants with rigorous tail bounds

The parser needs only constants and base; each other module is imported
by the command that uses it, when it runs.  A command whose stdout is
closed under it (`omegashift verify | head -1`) stops quietly with exit
code 1; 2 stays the code of bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .base import FULL_SCALES
from .constants import (
    TRUNCATION_PRIME,
    level_density_constant,
    tilt_product,
    tilt_profile,
    tilted_level_constant,
)


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"bad complex value {text!r} (want RE or RE,IM)")


def _cmd_sieve(args) -> int:
    from .sieve import MAX_OMEGA, SieveConfig, build_omega_table

    t0 = time.perf_counter()
    table = build_omega_table(SieveConfig(x_max=args.x, w=args.w, threads=args.threads))
    dt = time.perf_counter() - t0
    counts = table.omega.obj  # the table's bytearray or mmap, whose find scans with memchr
    top = next((k for k in range(MAX_OMEGA, 0, -1) if counts.find(bytes([k])) >= 0), 0)
    print(f"built table: x={table.x_max} w={table.w} max_omega={top} in {dt:.2f}s")
    return 0


def _cmd_run(args) -> int:
    from .experiment import parse_config, run_experiment

    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    result = run_experiment(config)
    print(f"wrote {result.csv_path} ({len(result.rows)} rows)")
    print(f"wrote {result.json_path}")
    return 0


def _cmd_verify(args) -> int:
    from .experiment import write_atomic
    from .verify import verify_suite

    summary = verify_suite(level=args.level, x_top=args.x_top)
    if args.json:
        write_atomic(args.json, (json.dumps(summary.as_dict(), indent=2) + "\n").encode())
    return 1 if summary.failures else 0


def _cmd_constants(args) -> int:
    rows = [
        ("level_density", level_density_constant(args.r)),
        ("tilted_level", tilted_level_constant(args.r)),
        ("tilt_product", tilt_product(args.r, args.z)),
        ("tilt_profile", tilt_profile(args.r, args.z)),
    ]
    print(f"r={args.r} z={args.z} truncation={TRUNCATION_PRIME}")
    for name, res in rows:
        val = res.value
        if isinstance(val, complex):
            shown = f"{val.real:.15f}{val.imag:+.15f}j"
        else:
            shown = f"{val:.15f}"
        print(f"{name:<16} {shown}  (tail bound {res.tail_bound:.3e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegashift",
        description="Weighted distribution of distinct prime factors of shifted "
        "integers on level sets: exact counting, constants, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"omegashift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build a factor-count table")
    p.add_argument("--x", type=int, required=True, help="table upper bound")
    p.add_argument("--w", type=int, required=True, help="small-prime cutoff")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument(
        "--x-top",
        type=int,
        default=FULL_SCALES[-1],
        help=f"largest scale for full-level trend checks ({FULL_SCALES[0]} to {FULL_SCALES[-1]})",
    )
    p.add_argument(
        "--json",
        default="",
        metavar="PATH",
        help="also write each check (name, status, detail, seconds) and the "
        "summary to PATH as JSON",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("constants", help="print Euler-product constants")
    p.add_argument("--r", type=float, default=0.0, help="tilt exponent")
    p.add_argument("--z", type=_parse_z, default=complex(1.0), help="RE or RE,IM")
    p.set_defaults(fn=_cmd_constants)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # here, where a closed reader is caught, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`omegashift verify | head -1`): stop
        # quietly with 1, as Python does on EPIPE.  stdout now writes to
        # devnull, so the flush at exit cannot fail again (Python's
        # documentation, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
