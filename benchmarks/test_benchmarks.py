"""Self-tests of the benchmark: its oracle, its tracer and its output.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import certify
import limsupdim as lsd
from limsupdim import mc, svf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_oracle_flags_the_unsound_circle_cover():
    report = lsd.cover_ball(lsd.Circle(), 0.123, 0.5, 0.3)
    centres = list(report.factor_centers[0])
    assert centres[0] == pytest.approx(0.623) and centres[1] == pytest.approx(0.98014, abs=1e-5)
    assert lsd.verify_cover(lsd.Circle(), report)  # the probe net misses the gap
    gap = certify.circle_cover_gap(0.123, 0.5, centres, 0.3)
    assert gap == pytest.approx(0.3016, abs=1e-4)
    assert min(lsd.Circle().distance(gap, c) for c in centres) > 0.3
    assert certify.check_cover("circle", 2.0, 1.0, 0.123, 0.5, centres, 0.3) is not None


def test_oracle_accepts_a_sound_interval_cover():
    # balls of radius 0.1 centred 0.2 apart tile [0, 1] exactly
    centres = [0.1, 0.3, 0.5, 0.7, 0.9]
    assert certify.check_cover("interval", 2.0, 1.0, 0.5, 0.5, centres, 0.1) is None
    assert certify.interval_cover_gap(0.5, 0.5, centres[:-1], 0.1) == pytest.approx(0.9)


def test_oracle_on_cantor_covers():
    cantor = lsd.Cantor(1 / 3)
    depth = 5
    width = cantor.lam**depth
    left_ends = [cantor.point(p).value
                 for p in cantor.cylinders_in(0.0, 1.0, depth)]
    assert certify.cantor_cover_gap(cantor.lam, 0.0, 1.0, left_ends, width,
                                    cantor.default_depth) is None
    # the library's cover at r = 2^-8 misses the right end of C(1/3)
    r = 2.0**-8
    report = lsd.cover_ball(cantor, cantor.point(()), 1.0, r)
    centres = [p.value for p in report.factor_centers[0]]
    assert lsd.verify_cover(cantor, report)
    gap = certify.cantor_cover_gap(cantor.lam, 0.0, 1.0, centres, r, cantor.default_depth)
    assert gap == 1.0 and min(abs(gap - c) for c in centres) > r


def test_sparse_check_sees_the_circle_wrap():
    assert certify.check_sparse("circle", 2.0, 1.0, 0.5, [0.05, 0.5, 0.95], 0.2) is not None
    assert certify.check_sparse("circle", 2.0, 1.0, 0.5, [0.1, 0.5, 0.8], 0.2) is None


def test_tracer_counts_and_restores():
    from layers import Tracer

    original = svf.partial_sums
    tracer = Tracer()
    tracer.install()
    try:
        assert mc.partial_sums is not original and svf.partial_sums is not original
        lsd.estimate_sum_growth(lsd.PowerLawSchedule((1.0, 2.0)), (1.0, 1.0), 0.5,
                                (10, 100, 1000))
        metrics = tracer.round_metrics()
    finally:
        tracer.uninstall()
    assert svf.partial_sums is original and mc.partial_sums is original
    assert metrics["svf.partial_sums.calls"] == 1
    assert metrics["svf.partial_sums.terms"] == 1000
    assert metrics["svf.log_phi_rows.rows"] == 1000
    assert metrics["svf.partial_sums.s"] > 0.0


def _run(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/run.py"] + args,
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["verdict", "mc-tables", "cantor-covers"])
def test_reduced_run_emits_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--quick"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # the traced and untraced runs of one seed share a replay record, so a
    # digest that tracing changed fails here
    assert result["correct"], proc.stderr


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "verdict", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
