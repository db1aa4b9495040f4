"""omegashift benchmark: each op is a fresh omegashift process, as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (NOTES.md says why each exists):
  report_cold  `omegashift run` on the reference config, empty cache per op
  report_warm  the same config on a cache filled during set-up
  sieve_1e8    a bare x = 1e8, w = 4858, threads = 2 table build
  verify_full  `omegashift verify --level full`

Each op's wall time, CPU time and peak RSS come from os.wait4 on the child,
and its output is checked against reference.json after the timed window.
Ops run back to back (a closed loop with one client) until the next op
would end after --seconds, and at least MIN_OPS times.  With --trace 0 the
last stdout line carries the end-to-end metrics, medians over the ops.
With --trace 1 traced and untraced ops alternate, in an order drawn from
--seed; the traced ops run under traced.py, their spans are written to
.perfbench_work/spans/ when the run ends, and the last line carries the
per-layer metrics.  The inputs themselves are fixed: the seed only orders
the ops.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("report_cold", "report_warm", "sieve_1e8", "verify_full")
MIN_OPS = 3
# Set-up runs at least MIN_SETUPS times, and up to MAX_SETUPS times while
# the set-ups so far took under SETUP_BUDGET_S, so a cheap set-up gets a
# steadier median without making an expensive one dominate the run.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 2.0
OP_TIMEOUT_S = 60.0

# The reference config of ROADMAP.md; cache_dir and output_dir are added per op.
REFERENCE_CONFIG = """\
x_list = 1000000 10000000 100000000
k_list = 1 2 3 4
w_rule = loglog_sq
ell_max = 6
moments = 2 4
baseline = true
large_factor_c = 4.0
threads = 1
"""

# Pinned so a child's thread count is the one its op asks for.
_PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SetupError(RuntimeError):
    """The workload could not be prepared; the run prints no result."""


@dataclass
class Process:
    """What one finished child process cost, and what it printed."""

    spawned: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int | None
    stdout: str


@dataclass
class Op:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def child_env() -> dict:
    """The caller's environment, running this checkout's package.

    OMEGASHIFT_THREADS is dropped because it silently overrides the config's
    threads.  Bytecode writing is left on, as for an installed package.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMEGASHIFT_THREADS", "PYTHONPATH", "PYTHONHOME",
                        "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in _PINNED_THREADS})
    return env


def spawn(argv: list[str], stdout_path: Path) -> Process:
    """Run argv to completion; cost is measured from spawn to reap."""
    with open(stdout_path, "w") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stdin=subprocess.DEVNULL)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    code = proc.returncode
    if code == -signal.SIGKILL and reaped - spawned >= OP_TIMEOUT_S:
        code = None
    return Process(
        spawned=spawned,
        wall_s=reaped - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=code,
        stdout=stdout_path.read_text(),
    )


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


def cli(*args: str) -> list[str]:
    """An omegashift command line, run the way `python -m` users run it."""
    return [sys.executable, "-m", "omegashift.cli", *args]


def write_config(path: Path, cache_dir: Path, output_dir: Path) -> None:
    path.write_text(REFERENCE_CONFIG + f"cache_dir = {cache_dir}\noutput_dir = {output_dir}\n")


class Workload:
    """One workload's set-up, op command line and output check."""

    def __init__(self, name: str, reference: dict):
        self.name = name
        self.reference = reference
        self.work = WORK / name
        self.shared_cache = self.work / "setup" / "cache"

    def setup(self) -> float:
        """Prepare the workload once; returns the seconds it took."""
        shutil.rmtree(self.work, ignore_errors=True)
        start = time.monotonic()
        self.work.mkdir(parents=True)
        probe = spawn(
            [sys.executable, "-c", "import omegashift.cli; print(omegashift.cli.__file__)"],
            self.work / "probe.txt",
        )
        src = (ROOT / "src").resolve()
        if probe.returncode != 0 or src not in Path(probe.stdout.strip()).resolve().parents:
            raise SetupError(f"omegashift does not import from {src}: {probe.stdout!r}")
        if self.name == "report_warm":
            setup_dir = self.work / "setup"
            setup_dir.mkdir()
            write_config(setup_dir / "fill.cfg", self.shared_cache, setup_dir / "out")
            fill = spawn(cli("run", "--config", str(setup_dir / "fill.cfg")),
                         setup_dir / "stdout.txt")
            error = (f"exit code {fill.returncode}" if fill.returncode != 0
                     else check.check_report(setup_dir / "out", self.reference["report"]))
            if error:
                raise SetupError(f"cache fill: {error}")
        return time.monotonic() - start

    def run_op(self, index: int, traced: bool) -> Op:
        op_dir = self.work / f"op{index}"
        op_dir.mkdir()
        cache_dir = self.shared_cache if self.name == "report_warm" else op_dir / "cache"
        out_dir = op_dir / "out"
        if self.name == "sieve_1e8":
            plain = [sys.executable, str(BENCH / "sieve_op.py")]
            tail = ["sieve"]
        else:
            if self.name == "verify_full":
                args = ["verify", "--level", "full"]
            else:
                write_config(op_dir / "op.cfg", cache_dir, out_dir)
                args = ["run", "--config", str(op_dir / "op.cfg")]
            plain, tail = cli(*args), ["cli", *args]
        spans_path = op_dir / "spans.json"
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans_path)] + tail if traced else plain
        proc = spawn(argv, op_dir / "stdout.txt")
        op = Op(traced, proc.wall_s, proc.cpu_s, proc.peak_rss_mb, self.check(proc, out_dir))
        if self.name == "sieve_1e8" and op.error is None:
            marks = json.loads(proc.stdout.splitlines()[-1])
            op.wall_s, op.cpu_s = marks["done"] - proc.spawned, marks["cpu_s"]
        if traced and spans_path.exists():
            op.spans = json.loads(spans_path.read_text())
            op.layers = spans.layer_metrics(
                op.spans, proc.spawned, dir_bytes(cache_dir), dir_bytes(out_dir)
            )
        shutil.rmtree(op_dir)
        return op

    def check(self, proc: Process, out_dir: Path) -> str | None:
        if proc.returncode is None:
            return f"timed out after {OP_TIMEOUT_S:.0f} s"
        if self.name == "verify_full":
            return check.check_verify(proc.stdout, proc.returncode, self.reference["verify_full"])
        if proc.returncode != 0:
            return f"exit code {proc.returncode}"
        if self.name == "sieve_1e8":
            return check.check_sieve(proc.stdout, self.reference["sieve_1e8"])
        return check.check_report(out_dir, self.reference["report"])


def run_ops(workload: Workload, seconds: float, trace: bool, seed: int) -> list[Op]:
    """Closed loop: start an op while it is expected to end within seconds."""
    rng = random.Random(seed)
    ops: list[Op] = []
    took: list[float] = []
    start = time.monotonic()
    while len(ops) < MIN_OPS or time.monotonic() - start + statistics.median(took) <= seconds:
        if not trace:
            traced = False
        elif len(ops) % 2 == 0:
            traced = rng.random() < 0.5
        else:
            traced = not ops[-1].traced
        t0 = time.monotonic()
        op = workload.run_op(len(ops), traced)
        took.append(time.monotonic() - t0)
        ops.append(op)
        print(
            f"{workload.name} op{len(ops) - 1} {'traced' if traced else 'plain'}: "
            f"wall {op.wall_s:.3f} s, cpu {op.cpu_s:.3f} s, "
            f"rss {op.peak_rss_mb:.0f} MB, {op.error or 'ok'}",
            file=sys.stderr,
        )
        if op.error and op.error.startswith("timed out"):
            break
    return ops


def end_to_end(ops: list[Op], setups: list[float]) -> dict:
    plain = [op for op in ops if not op.traced]
    ok = sum(1 for op in ops if op.error is None)
    return {
        "wall_s": (statistics.median(op.wall_s for op in plain), "s"),
        "cpu_s": (statistics.median(op.cpu_s for op in plain), "s"),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in plain), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": (ok / len(ops), "frac"),
    }


def per_layer(ops: list[Op]) -> dict:
    traced = [op for op in ops if op.traced and op.layers]
    plain = [op for op in ops if not op.traced]
    out = {
        name: (statistics.median(op.layers[name] for op in traced) if traced else 0.0, unit)
        for name, unit in spans.PER_LAYER_UNITS.items()
        if name != "trace.overhead_s"
    }
    overhead = (statistics.median(op.wall_s for op in traced)
                - statistics.median(op.wall_s for op in plain)) if traced and plain else 0.0
    out["trace.overhead_s"] = (overhead, "s")
    return out


def write_spans(ops: list[Op], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [dict(span, op=i) for i, op in enumerate(ops) for span in op.spans]
    path.write_text(json.dumps(records))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "omegashift" / "cli.py").is_file():
        print(f"error: no omegashift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    workload = Workload(args.workload, check.load_reference())
    try:
        setups: list[float] = []
        while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S
        ):
            setups.append(workload.setup())
        ops = run_ops(workload, args.seconds, bool(args.trace), args.seed)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)
    if args.trace:
        write_spans(ops, WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
        metrics = per_layer(ops)
    else:
        metrics = end_to_end(ops, setups)
    failed = sum(1 for op in ops if op.error is not None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
