"""Run one benchmark op with the layer functions wrapped in spans.

    python3 perfbench/traced.py SPANS_JSON cli ARG...   # omegashift.cli main(ARG...)
    python3 perfbench/traced.py SPANS_JSON sieve        # the sieve_1e8 op

The spans are written to SPANS_JSON when the op ends, also when it raises.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    out, kind, rest = argv[0], argv[1], argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        if kind == "cli":
            from omegashift.cli import main as cli_main

            return cli_main(rest)
        if kind == "sieve":
            import sieve_op

            sieve_op.main()
            return 0
        raise SystemExit(f"unknown op kind {kind!r}")
    finally:
        with open(out, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
