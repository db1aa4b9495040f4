"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import sieve_op
import spans

sys.path.insert(0, str(run.ROOT / "src"))


def _span(sid, parent, start, end, name="stats.weighted_mass", **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end, **attrs}


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps span 1, as children on two threads may
        _span(3, 1, 2.0, 3.0),
        _span(4, 0, 9.5, 11.0),  # runs past its parent's end
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})


def test_layer_metrics_of_a_synthetic_op():
    tree = [
        _span(0, None, 1.0, 9.0, "experiment.run_experiment", rows=7),
        _span(1, 0, 2.0, 4.0, "sieve.build_omega_table", x_max=1000, table_bytes=2002),
        _span(2, 1, 2.0, 2.5, "primes.primes_up_to"),
        _span(3, 0, 4.0, 6.0, "stats.joint_histogram", x=1000),
        _span(4, 0, 6.0, 6.5, "stats.weighted_mass_theoretical"),
        _span(5, 4, 6.0, 6.25, "constants.tilted_level_constant", primes_used=168),
    ]
    m = spans.layer_metrics(tree, spawned=0.25, cache_bytes=4096, report_bytes=1500)
    assert m["sieve.build_s"] == pytest.approx(1.5)
    assert m["sieve.build_ints_per_s"] == pytest.approx(1000 / 1.5)
    assert m["sieve.table_mb"] == pytest.approx(0.002002)
    assert m["primes.sieve_s"] == pytest.approx(0.5)
    assert m["stats.joint_histogram_s"] == pytest.approx(2.0)
    assert m["stats.scanned_ints"] == 1000
    assert m["stats.derive_s"] == pytest.approx(0.25)
    assert m["constants.euler_calls"] == 1
    assert m["constants.primes_folded"] == 168
    assert m["constants.call_ms_p50"] == pytest.approx(250.0)
    assert m["experiment.self_s"] == pytest.approx(3.5)
    assert m["experiment.rows"] == 7
    assert m["experiment.report_kb"] == pytest.approx(1.5)
    assert m["process.import_s"] == pytest.approx(0.75)
    assert set(m) | {"trace.overhead_s"} == set(spans.PER_LAYER_UNITS)


def test_tail_value_leaves_ten_samples_above():
    assert spans.tail_value([float(v) for v in range(20, 0, -1)]) == 10.0
    assert spans.tail_value([3.0, 1.0, 2.0]) == 3.0


def test_wrapper_passes_results_and_exceptions_through():
    recorder = spans.Recorder()
    sentinel = object()
    error = ValueError("boom")

    def give(a, b=1):
        """doc"""
        return sentinel

    def fail():
        raise error

    traced_give = recorder.wrap("stats.give", give)
    traced_fail = recorder.wrap("stats.fail", fail)
    assert traced_give(0, b=2) is sentinel
    assert traced_give.__name__ == "give" and traced_give.__doc__ == "doc"
    with pytest.raises(ValueError) as caught:
        traced_fail()
    assert caught.value is error
    outer = recorder.wrap("experiment.outer", lambda: traced_give(1))
    assert outer() is sentinel
    names = [(s["name"], s["parent"]) for s in recorder.spans]
    assert names == [("stats.give", None), ("stats.fail", None),
                     ("experiment.outer", None), ("stats.give", 2)]
    assert all(s["end"] >= s["start"] for s in recorder.spans)


def _reference_csv(rows):
    lines = [",".join(check.REPORT_COLUMNS) + ",runtime_ms"]
    lines += [",".join(r) + ",0.5" for r in rows]
    return "\n".join(lines) + "\n"


def test_report_check_rejects_one_perturbed_cell():
    ref = check.load_reference()["report"]
    rows = [list(r) for r in ref["rows"]]
    assert check.compare_report(check.report_cells(_reference_csv(rows)), ref) is None
    mass_row = next(i for i, r in enumerate(rows) if r[0] == "weighted_total")
    bumped = [list(r) for r in rows]
    bumped[mass_row][5] = repr(float(rows[mass_row][5]) + 1.0)
    assert "empirical" in check.compare_report(check.report_cells(_reference_csv(bumped)), ref)
    ks_row = next(i for i, r in enumerate(rows) if r[0] == "ks_distance")
    nudged = [list(r) for r in rows]
    nudged[ks_row][5] = repr(float(rows[ks_row][5]) * (1 + 1e-6))
    assert check.compare_report(check.report_cells(_reference_csv(nudged)), ref)
    nudged[ks_row][5] = repr(float(rows[ks_row][5]) * (1 + 1e-12))
    assert check.compare_report(check.report_cells(_reference_csv(nudged)), ref) is None


def test_sieve_check_rejects_one_flipped_table_byte():
    from omegashift.sieve import SieveConfig, build_omega_table

    table = build_omega_table(SieveConfig(x_max=1000, w=10))
    ref = {"sha256": sieve_op.table_digest(table)}
    assert check.check_sieve(json.dumps({"sha256": ref["sha256"]}), ref) is None
    table.omega[777] ^= 1
    assert check.check_sieve(json.dumps({"sha256": sieve_op.table_digest(table)}), ref)


def test_verify_check_rejects_one_changed_status():
    ref = check.load_reference()["verify_full"]
    lines = [f"[{status}] {name}: detail" for name, status in ref["statuses"]]
    assert check.check_verify("\n".join(lines), ref["returncode"], ref) is None
    assert check.check_verify("\n".join(lines), 0, ref)
    lines[0] = lines[0].replace("[PASS]", "[FAIL]")
    assert check.check_verify("\n".join(lines), ref["returncode"], ref)


def test_traced_report_op_passes_its_check(tmp_path: Path):
    """A traced op writes its spans and still produces the reference report."""
    cfg = tmp_path / "op.cfg"
    run.write_config(cfg, tmp_path / "cache", tmp_path / "out")
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "traced.py"), str(out), "cli", "run", "--config", str(cfg)],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert check.check_report(tmp_path / "out", check.load_reference()["report"]) is None
    recorded = json.loads(out.read_text())
    ids = {s["id"] for s in recorded}
    wrapped = {f"{layer}.{f}" for layer, (_, names) in spans.LAYERS.items() for f in names}
    assert [s["name"] for s in recorded if s["parent"] is None][-1] == "experiment.run_experiment"
    assert all(s["parent"] is None or s["parent"] in ids for s in recorded)
    assert {s["name"] for s in recorded} <= wrapped


def test_benchmark_json_names_every_metric_the_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER_UNITS
    e2e = run.end_to_end([run.Op(False, 1.0, 1.0, 1.0, None)], [0.5])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
