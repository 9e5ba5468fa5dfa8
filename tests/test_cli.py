import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import limsupdim

from limsupdim import (
    Circle,
    OmegaStream,
    PowerLawSchedule,
    ProductSpace,
    cli,
    divergence_tail_bound_test,
    fiber_hit_sum,
    partial_sums,
)
from limsupdim.cli import RunConfig, RunOutcome, main, run
from limsupdim.manifests import RunManifest, read_manifests
from limsupdim.mc import MAX_COVER_WINDOW
from limsupdim.spaces import MAX_NET_POINTS


@pytest.fixture
def runner():
    return CliRunner()


def test_svf_eval_prints_value(runner):
    result = runner.invoke(main, ["svf", "eval", "--r", "0.5,0.25",
                                  "--s", "1,1", "--t", "1.5"])
    assert result.exit_code == 0
    assert result.output.strip() == "0.25"


def test_svf_profile_csv(runner):
    result = runner.invoke(main, ["svf", "profile", "--r", "0.5,0.25", "--s", "1,1"])
    assert result.exit_code == 0
    assert "t,log_value,value" in result.output
    assert "sorted_permutation=[0, 1]" in result.output


@pytest.mark.parametrize("r, s", [("0.686,0.822", "1,1"), ("0.5,0.25", "1,1"),
                                  ("0.3,0.9,0.6", "0.5,1,0.25"), ("0.7,0.7", "1,0")])
def test_svf_profile_values_equal_svf_eval(runner, r, s):
    # the profile's value column is svf eval's output at each breakpoint,
    # byte for byte: math.exp there printed 0.56389200000000006 for the
    # first case at t = 2, where svf eval prints 0.56389199999999995
    result = runner.invoke(main, ["svf", "profile", "--r", r, "--s", s])
    assert result.exit_code == 0
    rows = result.output.splitlines()[2:]
    assert rows
    for row in rows:
        t, _, value = row.split(",")
        evaluated = runner.invoke(main, ["svf", "eval", "--r", r, "--s", s, "--t", t])
        assert evaluated.output.strip() == value


def test_dim_predict_agreement(runner):
    result = runner.invoke(main, ["dim", "predict", "--alphas", "2,3", "--s", "1,1"])
    assert result.exit_code == 0
    assert "dimension=0.5" in result.output
    assert "agreement=ok" in result.output


def test_dim_predict_disagreement_is_exit_1(runner):
    # an unreachable tolerance turns the ulp-level bisection/closed-form gap
    # into a reported disagreement (t* = 1/3 is not a dyadic float)
    result = runner.invoke(main, ["dim", "predict", "--alphas", "3,7",
                                  "--s", "1,1", "--tol", "1e-18"])
    assert result.exit_code == 1
    assert "DISAGREE" in result.output


def test_dim_predict_takes_an_alpha_near_zero_without_a_warning(runner):
    # 1 / 1e-320 is past the float range: on numpy scalars the closed form
    # warned "overflow encountered in scalar divide", an exit 1 under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["dim", "predict", "--alphas", "1e-320,1", "--s", "1,1"])
    assert result.exit_code == 0, result.output
    assert "\ndimension=2\n" in result.output
    assert "agreement=ok" in result.output


def test_dim_predict_closed_form_only_for_a_power_law():
    # an explicit schedule's power tail decides t*, but only the series runs
    cfg = RunConfig(command="dim-predict", schedule="explicit", tuples="0.5,0.25",
                    tail="power:0.5,1", s="1,1")
    assert [line.split("=")[0] for line in run(cfg).lines] == ["series", "dimension",
                                                                 "agreement"]


def test_dim_convex_body(runner):
    result = runner.invoke(main, ["dim", "convex-body", "--alphas", "2,3"])
    assert result.exit_code == 0
    assert result.output.strip().startswith("0.5")


def test_cover_ball_command(runner, tmp_path):
    result = runner.invoke(main, [
        "cover", "ball", "--space", "interval", "--x", "0.5",
        "--big-radius", "0.5", "--radius", "0.25", "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert "count=5" in result.output
    assert (tmp_path / "cover_ball.csv").exists()
    assert (tmp_path / "manifest.jsonl").exists()


def test_cover_rect_command(runner):
    result = runner.invoke(main, [
        "cover", "rect", "--space", "interval,interval", "--x", "0.5,0.5",
        "--r", "0.4,0.05", "--radius", "0.05"])
    assert result.exit_code == 0
    assert "sound=True" in result.output


def test_cover_rect_lists_every_cube(runner):
    result = runner.invoke(main, [
        "cover", "rect", "--space", "interval,interval", "--x", "0.5,0.5",
        "--r", "0.5,0.5", "--radius", "0.002"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[:3] == ["count=244036", "bound=16000000", "sound=True"]
    assert lines[3] == "index,center,radius"
    assert len(lines) == 4 + 244036 and lines[-1].startswith("244035,")


def test_cover_rect_refuses_more_cubes_than_the_net_cap(runner):
    # 68,046,001 rows, about 20 GB: refused from the count, before any row is made
    tracemalloc.start()
    try:
        result = runner.invoke(main, [
            "cover", "rect", "--space", "interval,interval", "--x", "0.5,0.5",
            "--r", "0.5,0.5", "--radius", "1e-4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert "68046001 cubes" in error and f"MAX_NET_POINTS = {MAX_NET_POINTS}" in error
    assert peak < 50e6


def test_cover_rect_holds_the_csv_text_not_the_rows():
    # 60,516 cubes: a list of rows peaks near 22 MB, their CSV text near 11 MB
    cfg = RunConfig(command="cover-rect", space="interval,interval", x="0.5,0.5",
                    r="0.5,0.5", radius=0.004)
    tracemalloc.start()
    try:
        outcome = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.lines == ["count=60516", "bound=4000000", "sound=True"]
    assert hashlib.sha256(outcome.csv.encode()).hexdigest() == (
        "ad28d1dbee67077d152776fe12ca0a6d0a97ca4d44ada3cd76097c5f7f1fb308")
    assert peak < 15 * 2**20


def test_sparse_command(runner):
    result = runner.invoke(main, [
        "sparse", "--space", "interval", "--x", "0.5",
        "--big-radius", "0.5", "--radius", "0.25"])
    assert result.exit_code == 0
    assert "count=5" in result.output


def test_sparse_takes_any_integer_seed(runner):
    # the seed keys counter words, as every other seeded command's does:
    # -1 is the key 2**64 - 1
    args = ["sparse", "--space", "interval", "--x", "0.5", "--big-radius", "0.5",
            "--radius", "0.01", "--seed"]
    runs = [runner.invoke(main, args + [seed]) for seed in ("-1", str(2**64 - 1), "1")]
    assert [run.exit_code for run in runs] == [0, 0, 0], runs[0].output
    assert "ok=True" in runs[0].output
    assert runs[0].output == runs[1].output != runs[2].output


def test_mc_requires_seed(runner):
    result = runner.invoke(main, ["mc", "density", "--space", "circle",
                                  "--delta", "0.1", "--horizon", "100"])
    assert result.exit_code == 2


def test_mc_density_runs(runner, tmp_path):
    result = runner.invoke(main, [
        "mc", "density", "--space", "circle", "--delta", "0.2",
        "--horizon", "2000", "--seed", "5", "--out", str(tmp_path)])
    assert result.exit_code == 0
    manifests = read_manifests(tmp_path / "manifest.jsonl")
    assert manifests[0].operation == "mc-density"
    assert manifests[0].seed == 5


def test_mc_fiber_sum_reproducible_bytes(runner, tmp_path):
    args = ["mc", "fiber-sum", "--space", "circle,circle", "--alphas", "1,2",
            "--s", "1,1", "--u", "0", "--anchor", "0.5",
            "--checkpoints", "100,1000", "--seed", "9"]
    a = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
    b = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
    assert a.exit_code == 0 and b.exit_code == 0
    csv_a = (tmp_path / "a" / "mc_fiber_sum.csv").read_bytes()
    csv_b = (tmp_path / "b" / "mc_fiber_sum.csv").read_bytes()
    assert csv_a == csv_b


def test_mc_fiber_sum_runs_a_prefactor_past_the_cantor_diameter(runner, tmp_path):
    result = runner.invoke(main, [
        "mc", "fiber-sum", "--space", "cantor:0.25,interval", "--alphas", "1,2",
        "--coefficients", "3,1", "--s", "0.5,1", "--u", "0.5", "--anchor", "0",
        "--checkpoints", "100", "--seed", "3", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output


def test_manifest_written_even_on_check_failure(runner, tmp_path):
    # an adversarial acceptance threshold cannot stop the manifest: use a
    # divergence run whose table is empty (always passes) vs density with
    # horizon 0, which fails its check but still writes the manifest
    result = runner.invoke(main, [
        "mc", "density", "--space", "circle", "--delta", "0.2",
        "--horizon", "0", "--seed", "5", "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert (tmp_path / "manifest.jsonl").exists()


def test_mc_tail_cover_runs(runner, tmp_path):
    result = runner.invoke(main, [
        "mc", "tail-cover", "--space", "circle,circle", "--alphas", "2,3",
        "--s", "1,1", "--t", "0.5,1.0", "--window", "1:16", "--seed", "3",
        "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert "dominated=True" in result.output


def test_mc_tail_cover_window_past_cap_exit_2(runner):
    # the cap is checked before anything is drawn or allocated
    tracemalloc.start()
    try:
        result = runner.invoke(main, [
            "mc", "tail-cover", "--space", "circle,circle", "--alphas", "1,2",
            "--s", "1,1", "--t", "0.5", "--window", "1:10000000000000",
            "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"more than the cap of {MAX_COVER_WINDOW}" in result.output
    assert peak < 1 << 20


def test_mc_tail_cover_refuses_a_cantor_net_finer_than_floats_exit_2(runner):
    # radii near 1e-300 ask for Cantor cylinders far below the float spacing
    # about the stream point 0.0147, whose ends round together: the net is
    # refused before the walk, which ran out of memory
    start = time.perf_counter()
    result = runner.invoke(main, [
        "mc", "tail-cover", "--space", "circle,cantor:0.25", "--alphas", "1,2",
        "--coefficients", "1e-300,1e-200", "--s", "1,0.5", "--t", "0.5,1.5",
        "--window", "1:8", "--seed", "1"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    # the cube radius is exp(log(1e-300)), so the resolution, a quarter of
    # it, is not 2.5e-301 in its last bits
    assert "resolution 2.5000000000000593e-301" in error
    assert "centre 0.014706417962077667" in error
    assert "below the float spacing" in error
    assert elapsed < 2.0


def test_mc_verdict_refuses_unsorted_radii_before_its_walks_exit_2(runner):
    # t* = 1.5 leaves the fiber check a positive u, and that check needs
    # radii in non-increasing order: refused at once, with no walk
    start = time.perf_counter()
    result = runner.invoke(main, [
        "mc", "verdict", "--space", "circle,circle", "--alphas", "1,0.5",
        "--coefficients", "1,14.106735979665885", "--s", "1,1", "--seeds", "1"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "sort decay exponents ascending" in result.output
    assert elapsed < 1.0


def test_mc_verdict_refuses_a_repeated_seed_exit_2(runner):
    # one seed twice would count one walk twice
    result = runner.invoke(main, [
        "mc", "verdict", "--space", "circle,circle", "--alphas", "0.5,1", "--s", "1,1",
        "--seeds", "1,2,1"])
    assert result.exit_code == 2
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert error == "Error: seed 1 repeats: the seeds must be distinct"
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args, token", [
    (["mc", "fiber-sum", "--space", "cantor:0.25,interval", "--alphas", "1,2",
      "--coefficients", "3,1", "--s", "0.5,1", "--u", "0.5", "--anchor", "01x",
      "--checkpoints", "100", "--seed", "3"], "01x"),
    (["sparse", "--space", "cantor:0.25", "--x", "0102", "--big-radius", "0.3",
      "--radius", "0.01"], "0102"),
], ids=["fiber-anchor", "sparse-centre"])
def test_cantor_point_text_error_names_the_token_exit_2(runner, args, token):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert f"Cantor point {token!r}" in error


_FIBER = ["mc", "fiber-sum", "--alphas", "1,2", "--s", "1,1", "--checkpoints", "10",
          "--seed", "1"]
_DIVERGENCE = ["mc", "divergence", "--n", "10", "--trials", "10", "--seed", "1"]


@pytest.mark.parametrize("args, files, message", [
    (["svf", "eval", "--r", "0.5,abc", "--s", "1,1", "--t", "1"], {},
     "expected comma-separated floats, got '0.5,abc'"),
    (["mc", "tail-cover", "--config", "run.json"],
     {"run.json": '{"command": "mc-tail-cover", "space": "circle,circle", "schedule": '
                  '"explicit", "s": "1,1", "t": "0.5", "window": "1:4", "seed": 1}'},
     "explicit schedule requires 'tuples'"),
    (["cover", "rect", "--space", "interval,interval", "--x", "0.5", "--r", "0.1,0.1",
      "--radius", "0.01"], {}, "expected 2 coordinates, got 1"),
    (_DIVERGENCE + ["--p", "geometric"], {}, "unknown expectation model 'geometric'"),
    (["svf", "eval", "--r", "0.5", "--s", "1", "--t", "0.1,0.2"], {},
     "svf-eval takes a single t"),
    (["dim", "predict", "--alphas", "1,2", "--s", "1,1", "--method", ","], {},
     "no applicable method among []"),
    (["sparse", "--space", "interval,interval", "--x", "0.5,0.5", "--big-radius", "0.5",
      "--radius", "0.1"], {}, "sparse subsets are built per factor space"),
    (_FIBER[:4] + ["--s", "1", "--space", "circle", "--u", "0", "--anchor", "0.5"]
     + _FIBER[6:], {}, "fiber sums need a product space"),
    (_FIBER + ["--space", "circle,circle", "--u", "0,1", "--anchor", "0.5"], {},
     "mc-fiber-sum takes a single u"),
    (["report", "missing.jsonl"], {}, "manifest file not found: missing.jsonl"),
    (["report", "empty.jsonl"], {"empty.jsonl": ""}, "no manifests found in the given files"),
    (["report", "density.jsonl"], {"density.jsonl": '{"operation": "mc-density"}\n'},
     "report supports fiber-sum and tail-cover manifests, got mc-density"),
    (["mc", "fiber-sum", "--config", "run.json"],
     {"run.json": '{"command": "mc-density", "space": "circle", "delta": 0.25, '
                  '"horizon": 100, "seed": 3}'},
     "run.json: config command 'mc-density' does not match 'mc-fiber-sum'"),
    # the float parsers name the token and what it should be
    (["cover", "ball", "--space", "interval", "--x", "abc", "--big-radius", "0.5",
      "--radius", "0.1"], {}, "interval point 'abc' is not a number"),
    (_FIBER + ["--space", "circle,circle", "--u", "0", "--anchor", "x"], {},
     "circle point 'x' is not a number"),
    (["cover", "ball", "--space", "cantor:abc", "--x", "()", "--big-radius", "0.5",
      "--radius", "0.1"], {}, "space factor 'cantor:abc': lam 'abc' is not a number"),
    (_DIVERGENCE + ["--p", "constant:x"], {},
     "expectation model 'constant:x': value 'x' is not a number"),
    (_DIVERGENCE + ["--p", "power:"], {}, "expectation model 'power:': value '' is not a number"),
    # a Cantor probe net deeper than a net code's 60 digits
    (["sparse", "--space", "cantor:0.3333333333333333", "--x", "()", "--big-radius", "1e-29",
      "--radius", "1e-30"], {}, "resolution 2.5e-31 needs 65 digits, more than the 60"),
    (["cover", "ball", "--space", "cantor:0.3333333333333333", "--x", "()",
      "--big-radius", "1e-29", "--radius", "1e-30"], {},
     "resolution 2.5e-31 needs 65 digits, more than the 60"),
    # numpy's refusals of these named no flag
    (["mc", "divergence", "--p", "constant:0.5", "--n", "-5", "--trials", "10", "--seed", "1"],
     {}, "--n must be a positive integer, got -5"),
    (_DIVERGENCE[:-1] + ["-1", "--p", "constant:0.5"], {},
     "--seed must be a non-negative integer, got -1"),
    # refused before the 745 GiB that their expectations or counts take
    (["mc", "divergence", "--p", "harmonic", "--n", "100000000000", "--trials", "1000",
      "--seed", "1"], {}, "--n=100000000000, more than the cap of 16777216"),
    (["mc", "divergence", "--p", "harmonic", "--n", "10", "--trials", "100000000000",
      "--seed", "1"], {}, "trials x checkpoints = 100000000000 x 1, more than the cap of 8388608"),
], ids=["list-item", "explicit-without-tuples", "coordinate-count", "unknown-p",
        "svf-eval-two-t", "no-method", "sparse-product", "fiber-one-factor", "fiber-two-u",
        "report-missing", "report-empty", "report-density", "config-for-another-command",
        "interval-point", "circle-anchor", "cantor-parameter", "p-constant", "p-power",
        "sparse-cantor-net-digits", "cover-cantor-net-digits", "divergence-n",
        "divergence-seed", "divergence-n-cap", "divergence-trials-cap"])
def test_bad_input_is_a_domain_error_naming_it_exit_2(runner, tmp_path, monkeypatch,
                                                      args, files, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output and result.exception.__class__ is SystemExit
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert message in error


@pytest.mark.parametrize("window", ["1:10.5", "1:nan", "1:inf", "1:1e3", "1:x", "1:2:3", "16"])
def test_mc_tail_cover_window_not_two_integers_exit_2(runner, window):
    result = runner.invoke(main, [
        "mc", "tail-cover", "--space", "circle,circle", "--alphas", "1,2",
        "--s", "1,1", "--t", "0.5", "--window", window, "--seed", "1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert (f"Error: window must be 'N0:N1' with integers N0 and N1, got {window!r}"
            in result.output)


def test_package_names_are_the_modules_names():
    modules = (limsupdim.svf, limsupdim.spaces, limsupdim.mc, limsupdim.ellipsoids)
    names = [name for module in modules for name in module.__all__]
    assert limsupdim.__all__ == names + ["RunManifest", "__version__"]
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(limsupdim, name) is next(
            vars(m)[name] for m in modules if name in m.__all__)
    assert {"RegularSpace", "factor_from_token", "CheckResult"} <= set(limsupdim.__all__)
    assert limsupdim.RunManifest is RunManifest


def test_mc_verdict_runs(runner):
    result = runner.invoke(main, [
        "mc", "verdict", "--space", "circle,circle", "--alphas", "2,3",
        "--s", "1,1", "--seeds", "101"])
    assert result.exit_code == 0
    assert "predicted_dimension=0.5" in result.output


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig(command="mc-density", space="circle", delta=0.25,
                    horizon=1000, seed=3)
    data = cfg.to_dict()
    again = RunConfig.from_dict(json.loads(json.dumps(data)))
    assert again == cfg
    assert again.to_dict() == data


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"command": "mc-density", "seed": 1, "bogus": 2})


def test_config_requires_seed_for_stochastic():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"command": "mc-density", "space": "circle",
                             "delta": 0.1, "horizon": 10})


def test_config_file_via_cli(runner, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "command": "mc-density", "space": "circle", "delta": 0.25,
        "horizon": 1000, "seed": 3, "version": 1}))
    result = runner.invoke(main, ["mc", "density", "--config", str(path)])
    assert result.exit_code == 0


def test_config_file_unknown_key_exit_2(runner, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "mc-density", "seed": 1, "nope": 1}))
    result = runner.invoke(main, ["mc", "density", "--config", str(path)])
    assert result.exit_code == 2
    assert "nope" in result.output


def test_report_merges_two_seeds(runner, tmp_path):
    for seed, sub in ((9, "a"), (10, "b")):
        res = runner.invoke(main, [
            "mc", "fiber-sum", "--space", "circle,circle", "--alphas", "1,2",
            "--s", "1,1", "--u", "0", "--anchor", "0.5",
            "--checkpoints", "100,1000", "--seed", str(seed),
            "--out", str(tmp_path / sub)])
        assert res.exit_code == 0
    result = runner.invoke(main, [
        "report", str(tmp_path / "a" / "manifest.jsonl"),
        str(tmp_path / "b" / "manifest.jsonl")])
    assert result.exit_code == 0
    assert "seed_9" in result.output and "seed_10" in result.output
    assert "log10_N" in result.output


def test_report_empty_exit_2(runner):
    result = runner.invoke(main, ["report"])
    assert result.exit_code == 2


def test_report_incompatible_exit_2(runner, tmp_path):
    r1 = runner.invoke(main, [
        "mc", "density", "--space", "circle", "--delta", "0.25",
        "--horizon", "500", "--seed", "3", "--out", str(tmp_path / "d")])
    assert r1.exit_code == 0
    r2 = runner.invoke(main, [
        "mc", "fiber-sum", "--space", "circle,circle", "--alphas", "1,2",
        "--s", "1,1", "--u", "0", "--anchor", "0.5", "--checkpoints", "100",
        "--seed", "9", "--out", str(tmp_path / "f")])
    assert r2.exit_code == 0
    result = runner.invoke(main, [
        "report", str(tmp_path / "d" / "manifest.jsonl"),
        str(tmp_path / "f" / "manifest.jsonl")])
    assert result.exit_code == 2


# prefactors log-uniform over the float range, one per factor
_KAPPAS = hst.floats(math.log(1e-300), math.log(1e308)).map(math.exp)
_PREDICT_CASES = hst.integers(1, 3).flatmap(lambda d: hst.tuples(
    hst.lists(hst.floats(0.001, 10.0), min_size=d, max_size=d),
    hst.lists(hst.floats(0.1, 2.0), min_size=d, max_size=d),
    hst.lists(_KAPPAS, min_size=d, max_size=d)))


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


@given(_PREDICT_CASES)
# 3^1000, once the first index with radius <= 1, is past the float range
@example(([0.001], [1.0], [3.0]))
@settings(max_examples=30, deadline=None)
def test_coefficients_never_move_the_predicted_dimension(case):
    alphas, s, kappas = case
    argv = ["dim", "predict", "--alphas", _floats(alphas), "--s", _floats(s)]
    plain = CliRunner().invoke(main, argv)
    scaled = CliRunner().invoke(main, argv + ["--coefficients", _floats(kappas)])
    assert plain.exit_code == 0, plain.output
    assert (scaled.exit_code, scaled.output) == (plain.exit_code, plain.output)


@given(hst.lists(_KAPPAS, min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_tail_cover_takes_any_coefficients_without_a_traceback(kappas):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape either
        result = CliRunner().invoke(main, [
            "mc", "tail-cover", "--space", "circle,interval", "--alphas", "1,2",
            "--coefficients", _floats(kappas), "--s", "1,1", "--t", "0.5,1.5",
            "--window", "1:8", "--seed", "1"])
    assert result.exit_code in (0, 1, 2), result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code == 2:
        (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert "window [1, 8]" in error or "MAX_NET_POINTS" in error, error


def test_invalid_t_exit_2(runner):
    result = runner.invoke(main, ["svf", "eval", "--r", "0.5", "--s", "1",
                                  "--t", "5.0"])
    assert result.exit_code == 2


def test_manifest_round_trip(tmp_path):
    m = RunManifest(operation="mc-density", seed=1, space={"kind": "circle"},
                    schedule=None, params={"config": {"command": "mc-density"}},
                    window=[0, 10], statistics={"passed": True},
                    metadata={"wall_clock": 0.1})
    again = RunManifest.from_json(m.to_json())
    assert again.operation == m.operation
    assert again.statistics == m.statistics
    with pytest.raises(ValueError):
        RunManifest.from_json(json.dumps({"operation": "x", "oops": 1}))


def test_run_unknown_command():
    with pytest.raises(ValueError):
        run(RunConfig(command="not-a-command"))


# One small run of each command that writes a manifest.
MANIFEST_RUNS = {
    "cover-ball": ["cover", "ball", "--space", "interval", "--x", "0.3",
                   "--big-radius", "0.2", "--radius", "0.01"],
    "cover-rect": ["cover", "rect", "--space", "interval,circle", "--x", "0.5,0.25",
                   "--r", "0.4,0.05", "--radius", "0.05"],
    "sparse": ["sparse", "--space", "cantor:0.3333333333333333", "--x", "0110",
               "--big-radius", "0.3", "--radius", "0.01", "--seed", "3"],
    "mc-fiber-sum": ["mc", "fiber-sum", "--space", "circle,circle", "--alphas", "1,2",
                     "--s", "1,1", "--u", "0", "--anchor", "0.5", "--checkpoints", "100",
                     "--seed", "9"],
    "mc-divergence": ["mc", "divergence", "--p", "harmonic", "--n", "200",
                      "--trials", "1000", "--checkpoints", "50,200", "--seed", "4"],
    "mc-density": ["mc", "density", "--space", "circle", "--delta", "0.25",
                   "--horizon", "500", "--seed", "3"],
    "mc-tail-cover": ["mc", "tail-cover", "--space", "circle,circle", "--alphas", "2,3",
                      "--s", "1,1", "--t", "0.5,1.0", "--window", "1:16", "--seed", "3"],
    "mc-verdict": ["mc", "verdict", "--space", "circle,circle", "--alphas", "2,3",
                   "--s", "1,1", "--seeds", "101"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_replay_from_manifest_config(runner, tmp_path, command):
    res = runner.invoke(main, MANIFEST_RUNS[command] + ["--out", str(tmp_path / "orig")])
    assert res.exit_code == 0, res.output
    manifest = read_manifests(tmp_path / "orig" / "manifest.jsonl")[0]
    assert manifest.operation == command
    replay_cfg = RunConfig.from_dict(manifest.params["config"])
    outcome = run(replay_cfg)
    assert outcome.manifest.statistics == manifest.statistics
    # bytes, not read_text(): universal newlines would fold the CSV's CRLF
    csv_name = command.replace("-", "_") + ".csv"
    stored = (tmp_path / "orig" / csv_name).read_bytes().decode("utf-8")
    assert outcome.csv == stored


@pytest.mark.parametrize("command", sorted(c for c in MANIFEST_RUNS if c.startswith("mc-")))
def test_config_file_replays_each_mc_command(runner, tmp_path, command):
    first = runner.invoke(main, MANIFEST_RUNS[command] + ["--out", str(tmp_path / "a")])
    assert first.exit_code == 0, first.output
    manifest = read_manifests(tmp_path / "a" / "manifest.jsonl")[0]
    config = dict(manifest.params["config"], out=str(tmp_path / "b"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    again = runner.invoke(main, command.split("-", 1) + ["--config", str(path)])
    assert again.exit_code == 0 and again.output == first.output
    csv_name = command.replace("-", "_") + ".csv"
    assert (tmp_path / "b" / csv_name).read_bytes() == (tmp_path / "a" / csv_name).read_bytes()
    replayed = read_manifests(tmp_path / "b" / "manifest.jsonl")[0]
    assert replayed.statistics == manifest.statistics
    assert replayed.params["config"] == config


def test_dim_predict_unknown_method_exit_2(runner):
    result = runner.invoke(main, ["dim", "predict", "--alphas", "2,3", "--s", "1,1",
                                  "--method", "closed-form,seires"])
    assert result.exit_code == 2
    assert "seires" in result.output and "closed-form, series" in result.output


@pytest.mark.parametrize("text, field", [
    ("{bad", None),
    ('{"command": "mc-density", "space": "circle", "delta": 0.2, "horizon": "100", '
     '"seed": 5}', "horizon"),
    ('{"command": "mc-density", "space": "circle", "delta": 0.2, "horizon": 100, '
     '"seed": "x"}', "seed"),
    ('{"command": "mc-density", "space": "circle", "delta": 0.2, "horizon": true, '
     '"seed": 5}', "horizon"),
], ids=["not-json", "horizon-str", "seed-str", "horizon-bool"])
def test_config_file_bad_input_exit_2(runner, tmp_path, text, field):
    path = tmp_path / "run.json"
    path.write_text(text)
    result = runner.invoke(main, ["mc", "density", "--config", str(path)])
    assert result.exit_code == 2
    assert "run.json" in result.output
    if field is not None:
        assert repr(field) in result.output


def test_config_int_for_float_field_is_kept():
    cfg = RunConfig.from_dict({"command": "mc-density", "space": "circle", "delta": 1,
                               "horizon": 10, "seed": 1})
    assert type(cfg.to_dict()["delta"]) is int


def test_run_validates_direct_configs():
    with pytest.raises(ValueError, match="seed"):
        run(RunConfig(command="mc-density", space="circle", delta=0.1, horizon=10))
    with pytest.raises(ValueError, match="'horizon'"):
        run(RunConfig(command="mc-density", space="circle", delta=0.1, horizon="10", seed=1))


def test_report_on_a_directory_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2
    assert "not a file" in result.output


def test_report_out_names_a_file(runner, tmp_path):
    for seed, sub in ((9, "a"), (10, "b")):
        res = runner.invoke(main, MANIFEST_RUNS["mc-fiber-sum"][:-1]
                            + [str(seed), "--out", str(tmp_path / sub)])
        assert res.exit_code == 0
    inputs = [str(tmp_path / sub / "manifest.jsonl") for sub in ("a", "b")]
    printed = runner.invoke(main, ["report"] + inputs)
    merged = tmp_path / "x" / "merged.csv"
    written = runner.invoke(main, ["report"] + inputs + ["--out", str(merged)])
    assert written.exit_code == 0 and written.output == "merged 2 manifests\n"
    # the runner's output folds CRLF; the file keeps the CSV's CRLF endings
    assert printed.output == written.output + merged.read_text(encoding="utf-8")
    assert merged.read_bytes().endswith(b"\r\n")
    # an --out that cannot be written is bad input, not a crash
    unwritable = runner.invoke(main, ["report"] + inputs + ["--out", str(tmp_path / "a")])
    assert unwritable.exit_code == 2


# Each command's parameters as the hand-written click commands declared
# them: (flag, RunConfig field, click type, default, required).  The one
# difference is "[required]" on dim predict --alphas, which those commands
# enforced in the command body with the same exit code 2.
CLI_SURFACE = {
    "svf eval": [("--r", "r", "text", None, True), ("--s", "s", "text", None, True),
                 ("--t", "t", "text", None, True)],
    "svf profile": [("--r", "r", "text", None, True), ("--s", "s", "text", None, True),
                    ("--out", "out", "path", None, False)],
    "dim predict": [("--alphas", "schedule", "text", None, True),
                    ("--coefficients", "coefficients", "text", None, False),
                    ("--s", "s", "text", None, True),
                    ("--method", "method", "text", "closed-form,series", False),
                    ("--tol", "tol", "float", 1e-9, False)],
    "dim convex-body": [("--alphas", "schedule", "text", None, True),
                        ("--coefficients", "coefficients", "text", None, False),
                        ("--tol", "tol", "float", 1e-9, False)],
    "cover ball": [("--space", "space", "text", None, True), ("--x", "x", "text", None, True),
                   ("--big-radius", "R", "float", None, True),
                   ("--radius", "radius", "float", None, True),
                   ("--out", "out", "path", None, False)],
    "cover rect": [("--space", "space", "text", None, True), ("--x", "x", "text", None, True),
                   ("--r", "r", "text", None, True), ("--radius", "radius", "float", None, True),
                   ("--out", "out", "path", None, False)],
    "sparse": [("--space", "space", "text", None, True), ("--x", "x", "text", None, True),
               ("--big-radius", "R", "float", None, True),
               ("--radius", "radius", "float", None, True),
               ("--seed", "seed", "integer", None, False), ("--out", "out", "path", None, False)],
    "mc fiber-sum": [("--space", "space", "text", None, False),
                     ("--alphas", "schedule", "text", None, False),
                     ("--coefficients", "coefficients", "text", None, False),
                     ("--s", "s", "text", None, False), ("--u", "u", "text", None, False),
                     ("--anchor", "x", "text", None, False),
                     ("--checkpoints", "checkpoints", "text", None, False),
                     ("--seed", "seed", "integer", None, False),
                     ("--out", "out", "path", None, False),
                     ("--config", None, "path", None, False)],
    "mc divergence": [("--p", "p", "text", None, False), ("--n", "N", "integer", None, False),
                      ("--trials", "trials", "integer", None, False),
                      ("--checkpoints", "checkpoints", "text", None, False),
                      ("--seed", "seed", "integer", None, False),
                      ("--out", "out", "path", None, False),
                      ("--config", None, "path", None, False)],
    "mc density": [("--space", "space", "text", None, False),
                   ("--delta", "delta", "float", None, False),
                   ("--horizon", "horizon", "integer", None, False),
                   ("--seed", "seed", "integer", None, False),
                   ("--out", "out", "path", None, False),
                   ("--config", None, "path", None, False)],
    "mc tail-cover": [("--space", "space", "text", None, False),
                      ("--alphas", "schedule", "text", None, False),
                      ("--coefficients", "coefficients", "text", None, False),
                      ("--s", "s", "text", None, False), ("--t", "t", "text", None, False),
                      ("--window", "window", "text", None, False),
                      ("--seed", "seed", "integer", None, False),
                      ("--out", "out", "path", None, False),
                      ("--config", None, "path", None, False)],
    "mc verdict": [("--space", "space", "text", None, False),
                   ("--alphas", "schedule", "text", None, False),
                   ("--coefficients", "coefficients", "text", None, False),
                   ("--s", "s", "text", None, False), ("--seeds", "seeds", "text", None, False),
                   ("--tol", "tol", "float", 1e-9, False), ("--out", "out", "path", None, False),
                   ("--config", None, "path", None, False)],
    "report": [("manifests", "inputs", "path", None, False),
               ("--out", "out", "path", None, False)],
}


def _leaf_commands(group, prefix=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, prefix + (name,))
        else:
            yield " ".join(prefix + (name,)), command


def test_cli_surface_matches_declared_flags(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or RunOutcome(0, [], csv=""))
    commands = dict(_leaf_commands(main))
    assert sorted(commands) == sorted(CLI_SURFACE)
    for path, rows in CLI_SURFACE.items():
        got = [(p.opts[0] if isinstance(p, click.Option) else p.name, p.type.name,
                p.default if isinstance(p.default, (str, float)) else None, p.required)
               for p in commands[path].params]
        assert got == [(flag, kind, default, req) for flag, _, kind, default, req in rows], path
        # every flag must land in its field (--alphas as "power:<value>")
        args, expected = [], {}
        for i, (flag, field, kind, _, _) in enumerate(rows):
            if field is None:
                continue
            value = {"integer": i + 1, "float": i + 0.5}.get(kind, f"v{i}x")
            args += [flag, str(value)] if flag.startswith("--") else [str(value)]
            expected[field] = value
        result = CliRunner().invoke(main, path.split() + args)
        assert result.exit_code == 0, (path, result.output)
        cfg = seen.pop()
        assert cfg.command == path.replace(" ", "-")
        for field, value in expected.items():
            if isinstance(value, str):
                assert value in getattr(cfg, field), (path, field)
            else:
                assert getattr(cfg, field) == value, (path, field)


@pytest.mark.parametrize("line, message", [
    ("{}", "manifest has no 'operation'"),
    ("[1, 2]", "a manifest must be a JSON object"),
    ("{bad", "Expecting property name"),
    ('{"operation": [1]}', "manifest 'operation' must be a string, got [1]"),
], ids=["no-operation", "not-an-object", "not-json", "operation-not-str"])
def test_report_malformed_manifest_exit_2(runner, tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"operation": "mc-fiber-sum"}\n' + line + "\n")
    result = runner.invoke(main, ["report", str(path)])
    assert result.exit_code == 2
    assert f"{path}:2: {message}" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("line, key", [
    ('{"operation": "mc-fiber-sum"}', "checkpoints"),
    ('{"operation": "mc-tail-cover", "statistics": {"profiles": [{}]}}', "t"),
], ids=["fiber-sum", "tail-cover-profile"])
def test_report_statistics_lacking_a_key_exit_2(runner, tmp_path, line, key):
    path = tmp_path / "short.jsonl"
    path.write_text(line + "\n")
    result = runner.invoke(main, ["report", str(path)])
    assert result.exit_code == 2
    assert f"{path}: " in result.output and f"statistics key {key!r}" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("line, key", [
    ('{"operation": "mc-fiber-sum", "statistics": {"checkpoints": [1, 2], "u": 0, '
     '"observed": [1], "expectation_exact": [1, 2]}}', "observed"),
    ('{"operation": "mc-tail-cover", "statistics": {"profiles": [{"t": [1], '
     '"window": [1, 2], "value": 1, "reference": 2}]}}', "t"),
], ids=["fiber-sum-short-list", "tail-cover-list-valued-t"])
def test_report_statistics_of_the_wrong_form_exit_2(runner, tmp_path, line, key):
    path = tmp_path / "wrong.jsonl"
    path.write_text(line + "\n")
    result = runner.invoke(main, ["report", str(path)])
    assert result.exit_code == 2
    assert f"{path}: " in result.output and f"statistics key {key!r} must be" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_closed_form_predict_rejects_a_bad_tol(runner, tol):
    # the closed form reads no tolerance, so only the config check sees it
    result = runner.invoke(main, ["dim", "predict", "--alphas", "1,2", "--s", "1,1",
                                  "--method", "closed-form", "--tol", tol])
    assert result.exit_code == 2
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert "tol" in error
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("argv, bad", [
    (["dim", "convex-body", "--alphas", "2,3", "--tol", "nan"], "nan"),
    (["dim", "predict", "--alphas", "2,3", "--s", "1,1", "--tol", "nan"], "nan"),
    (["dim", "predict", "--alphas", "1", "--s", "inf"], "inf"),
    (["dim", "predict", "--alphas", "0.5", "--s", "1e308,1e308"], "1e+308"),
    (["svf", "profile", "--r", "0.5,0.25", "--s", "1e308,1e308"], "1e+308"),
    (["svf", "eval", "--r", "inf", "--s", "1", "--t", "1"], "inf"),
    (["svf", "eval", "--r", "0.5", "--s", "-0.1", "--t", "0"], "-0.1"),
    (["mc", "divergence", "--p", "constant:nan", "--n", "100", "--trials", "1000",
      "--seed", "1"], "nan"),
    (["cover", "ball", "--space", "interval", "--x", "0.5", "--big-radius", "0.5",
      "--radius", "nan"], "nan"),
    (["mc", "density", "--space", "circle", "--delta", "nan", "--horizon", "100",
      "--seed", "1"], "nan"),
    (["cover", "ball", "--space", "circle", "--x", "inf", "--big-radius", "0.5",
      "--radius", "0.1"], "inf"),
    (["sparse", "--space", "interval", "--x", "0.5", "--big-radius", "0.5",
      "--radius", "1e-300"], "MAX_NET_POINTS"),
    (["mc", "density", "--space", "circle", "--delta", "1e-320", "--horizon", "100",
      "--seed", "1"], "delta=1e-320"),
    (["mc", "density", "--space", "interval", "--delta", "5e-324", "--horizon", "100",
      "--seed", "1"], "delta=5e-324"),
    (["mc", "verdict", "--space", "circle,circle", "--alphas", "0.5,1",
      "--coefficients", "1e300,1e300", "--s", "1,1", "--seeds", "1"], "window [1, 128] at t=1.5"),
], ids=["convex-body-tol", "predict-tol", "exponent-inf", "exponent-total",
        "profile-exponent-total", "radius-inf", "exponent-negative", "divergence-p",
        "cover-radius", "density-delta", "circle-point", "net-cap",
        "circle-cells-overflow", "interval-cells-overflow", "verdict-cover-overflow"])
def test_out_of_domain_value_exit_2(runner, argv, bad):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert bad in error
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_verdict_runs_a_radius_just_past_one(runner):
    # 14.106735979665885 = sqrt(199) in floats, so r_199 = 1.0000000000000002
    result = runner.invoke(main, ["mc", "verdict", "--space", "circle,circle",
                                  "--alphas", "0.5,1", "--coefficients", "14.106735979665885,1",
                                  "--s", "1,1", "--seeds", "1"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("predicted_dimension=1.5\n")
    checks = result.output.split("\ncheck,status,detail")[0].splitlines()[1:]
    assert len(checks) == 6 and all(line.endswith(": PASS") for line in checks)


def test_explicit_power_tail_takes_coefficients(runner, tmp_path):
    # the run's coefficients reach the power tail: its descriptor carries
    # them, and the window's reference moves with them
    config = {"command": "mc-tail-cover", "space": "circle,circle", "schedule": "explicit",
              "tuples": "0.5,0.25", "tail": "power:1,2", "s": "1,1", "t": "0.5",
              "window": "1:4", "seed": 3}
    manifests = {}
    for name, extra in (("plain", {}), ("scaled", {"coefficients": "4,4"})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, **extra, "out": str(tmp_path / name)}))
        result = runner.invoke(main, ["mc", "tail-cover", "--config", str(path)])
        assert result.exit_code == 0, result.output
        (manifests[name],) = read_manifests(tmp_path / name / "manifest.jsonl")
    assert manifests["scaled"].schedule["tail"]["coefficients"] == [4.0, 4.0]
    assert manifests["plain"].schedule["tail"]["coefficients"] == [1.0, 1.0]
    (plain,), (scaled,) = (manifests[k].statistics["profiles"] for k in ("plain", "scaled"))
    assert scaled["ok"] and scaled["reference"] > plain["reference"]


def test_config_file_under_typed_flags(runner, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "mc-density", "space": "circle", "delta": 0.25,
                                "horizon": 1000, "seed": 3}))
    result = runner.invoke(main, ["mc", "density", "--config", str(path),
                                  "--seed", "4", "--out", str(tmp_path / "d")])
    assert result.exit_code == 0
    assert "cell,statistic" not in result.output  # the table went to --out
    assert (tmp_path / "d" / "mc_density.csv").exists()
    manifest = read_manifests(tmp_path / "d" / "manifest.jsonl")[0]
    assert manifest.seed == 4
    assert manifest.params["config"] == {**RunConfig(command="mc-density").to_dict(),
                                         "space": "circle", "delta": 0.25, "horizon": 1000,
                                         "seed": 4, "out": str(tmp_path / "d")}


def test_config_file_tol_survives_the_flag_default(runner, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "mc-verdict", "space": "circle,circle",
                                "schedule": "power:2,3", "s": "1,1", "seeds": "101",
                                "tol": 1e-6}))
    result = runner.invoke(main, ["mc", "verdict", "--config", str(path),
                                  "--out", str(tmp_path / "v")])
    assert result.exit_code == 0, result.output
    manifest = read_manifests(tmp_path / "v" / "manifest.jsonl")[0]
    assert manifest.params["config"]["tol"] == 1e-6
    assert "tol=1e-06" in manifest.statistics["checks"][0][2]


def test_report_path_with_a_comma(runner, tmp_path):
    out = tmp_path / "x,y"
    res = runner.invoke(main, MANIFEST_RUNS["mc-fiber-sum"] + ["--out", str(out)])
    assert res.exit_code == 0
    result = runner.invoke(main, ["report", str(out / "manifest.jsonl")])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("merged 1 manifests\n")
    assert run(RunConfig(command="report", inputs=(str(out / "manifest.jsonl"),))).exit_code == 0
    for inputs in (str(out / "manifest.jsonl"), (str(out / "manifest.jsonl"), 1)):
        with pytest.raises(ValueError, match="field 'inputs' must be tuple"):
            run(RunConfig(command="report", inputs=inputs))


_FIBER_ARGV = ["mc", "fiber-sum", "--space", "circle,circle", "--alphas", "1,2",
               "--s", "1,1", "--u", "0", "--anchor", "0.5", "--seed", "9"]
_DIVERGENCE_ARGV = ["mc", "divergence", "--p", "harmonic", "--n", "100",
                    "--trials", "1000", "--seed", "1"]


def _partial_sums_at(cps):
    return partial_sums(PowerLawSchedule((1, 2)), (1, 1), 1.0, cps)


def _fiber_at(cps):
    return fiber_hit_sum(OmegaStream(9, ProductSpace((Circle(), Circle()))),
                         PowerLawSchedule((1, 2)), (1, 1), (0.5,), 0.0, cps)


def _divergence_at(cps):
    return divergence_tail_bound_test(1.0 / np.arange(1, 101), 1000,
                                      np.random.default_rng(1), cps)


@pytest.mark.parametrize("call, cps, argv, bad, hi", [
    (_partial_sums_at, [0, 10], None, "0", "inf"),
    (_partial_sums_at, [-3], None, "-3", "inf"),
    (_fiber_at, [10, 0], _FIBER_ARGV + ["--checkpoints", "10,0"], "0", "inf"),
    (_fiber_at, [-3], _FIBER_ARGV + ["--checkpoints", "-3"], "-3", "inf"),
    (_fiber_at, [], _FIBER_ARGV + ["--checkpoints", ","], "none", "inf"),
    (_divergence_at, [0], _DIVERGENCE_ARGV + ["--checkpoints", "0"], "0", "100"),
    (_divergence_at, [-3], _DIVERGENCE_ARGV + ["--checkpoints", "-3"], "-3", "100"),
    (_divergence_at, [50, 200], _DIVERGENCE_ARGV + ["--checkpoints", "50,200"], "200", "100"),
    (_partial_sums_at, [10.5], None, "10.5", "inf"),
    (_partial_sums_at, [10, math.nan], None, "nan", "inf"),
    (_fiber_at, [np.float64(10.5)], None, "10.5", "inf"),
    (_fiber_at, [math.inf], None, "inf", "inf"),
    (_divergence_at, [10.5], None, "10.5", "100"),
    (_divergence_at, [math.nan], None, "nan", "100"),
], ids=["sums-zero", "sums-negative", "fiber-zero", "fiber-negative", "fiber-empty",
        "divergence-zero", "divergence-negative", "divergence-past-n", "sums-fraction",
        "sums-nan", "fiber-fraction", "fiber-inf", "divergence-fraction", "divergence-nan"])
def test_checkpoint_rule_is_one_message(runner, call, cps, argv, bad, hi):
    message = f"checkpoints must be one or more integers in [1, {hi}], got {bad}"
    with pytest.raises(ValueError) as err:
        call(cps)
    assert str(err.value) == message
    if argv is not None:
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert f"Error: {message}" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("call", [_partial_sums_at, _fiber_at, _divergence_at],
                         ids=["sums", "fiber", "divergence"])
def test_checkpoints_may_be_an_array(call):
    assert call(np.array([100, 10])) == call([100, 10])
    # integral floats count as integers
    assert call(np.array([100.0, 1e1])) == call([100, 10])


def test_no_checkpoints_keep_their_meaning():
    assert _partial_sums_at(None) == _partial_sums_at([]) == []
    assert _divergence_at(None) == _divergence_at([]) == _divergence_at([100])


def test_minimal_manifest_round_trips():
    m = RunManifest("op")
    again = RunManifest.from_json(m.to_json())
    assert again == m
    assert again.to_json() == m.to_json()


_TAIL_COVER_ARGV = ["mc", "tail-cover", "--space", "interval,interval", "--alphas", "1,2",
                    "--s", "1,1", "--window", "1:16"]


@pytest.mark.parametrize("argv, message", [
    (["mc", "verdict", "--space", "circle,circle", "--alphas", "1,2", "--s", "1,1",
      "--seeds", ","], "seeds must hold at least one seed"),
    (_TAIL_COVER_ARGV + ["--t", ",", "--seed", "1"], "t must list at least one value, got ','"),
    (["dim", "predict", "--alphas", "1,2", "--s", "1,1", "--coefficients", ","],
     "coefficients must list at least one value, got ','"),
    (_TAIL_COVER_ARGV + ["--t", "0.5", "--coefficients", ",", "--seed", "1"],
     "coefficients must list at least one value, got ','"),
], ids=["verdict-seeds", "tail-cover-t", "predict-coefficients", "tail-cover-coefficients"])
def test_empty_comma_list_exit_2(runner, argv, message):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert error == f"Error: {message}"
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def _tail_cover_manifest(runner, out, *argv):
    result = runner.invoke(main, _TAIL_COVER_ARGV + list(argv) + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return out / "manifest.jsonl"


def test_report_merges_tail_cover_manifests(runner, tmp_path):
    paths = [_tail_cover_manifest(runner, tmp_path / str(seed), "--t", "0.5,1.5",
                                  "--seed", str(seed)) for seed in (9, 10)]
    merged = tmp_path / "merged.csv"
    result = runner.invoke(main, ["report"] + [str(p) for p in paths] + ["--out", str(merged)])
    assert result.exit_code == 0, result.output
    assert result.output == "merged 2 manifests\n"
    profiles = [read_manifests(p)[0].statistics["profiles"] for p in paths]
    want = cli.csv_body(
        ["t", "seed_9", "seed_10", "reference", "log10_reference"],
        [[a["t"], a["value"], b["value"], a["reference"], math.log10(a["reference"])]
         for a, b in zip(*profiles)])
    assert merged.read_bytes().decode("utf-8") == want


@pytest.mark.parametrize("second, message", [
    (_TAIL_COVER_ARGV + ["--t", "0.5,1.0"], "t grids or windows differ"),
    (_TAIL_COVER_ARGV[:-1] + ["1:8", "--t", "0.5,1.5"], "t grids or windows differ"),
    (["mc", "tail-cover", "--space", "interval,interval", "--alphas", "1,3", "--s", "1,1",
      "--window", "1:16", "--t", "0.5,1.5"], "schedule/space descriptors differ"),
    (["mc", "tail-cover", "--space", "circle,interval", "--alphas", "1,2", "--s", "1,1",
      "--window", "1:16", "--t", "0.5,1.5"], "schedule/space descriptors differ"),
], ids=["t-grid", "window", "schedule", "space"])
def test_report_rejects_unlike_tail_cover_manifests(runner, tmp_path, second, message):
    first = _tail_cover_manifest(runner, tmp_path / "a", "--t", "0.5,1.5", "--seed", "9")
    res = runner.invoke(main, second + ["--seed", "10", "--out", str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    result = runner.invoke(main, ["report", str(first), str(tmp_path / "b" / "manifest.jsonl")])
    assert result.exit_code == 2
    assert f"Error: incompatible manifests: {message}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flag, values", [("--checkpoints", ("100", "100,1000")),
                                          ("--u", ("0", "0.5"))])
def test_report_rejects_fiber_manifests_unlike_in_checkpoints_or_u(runner, tmp_path,
                                                                   flag, values):
    argv = {"--checkpoints": "100", "--u": "0"}
    paths = []
    for seed, value in zip((9, 10), values):
        opts = {**argv, flag: value}
        res = runner.invoke(main, [
            "mc", "fiber-sum", "--space", "circle,circle", "--alphas", "1,2", "--s", "1,1",
            "--anchor", "0.5", "--seed", str(seed), "--out", str(tmp_path / str(seed)),
            "--checkpoints", opts["--checkpoints"], "--u", opts["--u"]])
        assert res.exit_code == 0, res.output
        paths.append(str(tmp_path / str(seed) / "manifest.jsonl"))
    result = runner.invoke(main, ["report"] + paths)
    assert result.exit_code == 2
    assert "Error: incompatible manifests: checkpoints or u differ" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("tail, window, descriptor", [
    ("none", "1:2", None),
    ("constant", "1:5", "constant"),
])
def test_explicit_schedule_config_replays_byte_for_byte(runner, tmp_path, monkeypatch,
                                                        tail, window, descriptor):
    # the second run reads the first's manifest config, in a directory of
    # its own so that the relative --out is the same
    config = {"command": "mc-tail-cover", "space": "circle,interval",
              "schedule": "explicit", "tuples": "0.5,0.25;0.3,0.2", "tail": tail,
              "s": "1,1", "t": "0.5,1.5", "window": window, "seed": 3, "out": "o"}
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        Path("run.json").write_text(json.dumps(config))
        result = runner.invoke(main, ["mc", "tail-cover", "--config", "run.json"])
        assert result.exit_code == 0, result.output
        line = Path("o/manifest.jsonl").read_text()
        config = json.loads(line)["params"]["config"]
        masked = re.sub(r'"wall_clock": [^,}]+', '"wall_clock": 0', line)
        runs.append((result.output, Path("o/mc_tail_cover.csv").read_bytes(), masked))
    assert runs[0] == runs[1]
    assert read_manifests(tmp_path / "a" / "o" / "manifest.jsonl")[0].schedule == {
        "kind": "explicit", "tuples": [[0.5, 0.25], [0.3, 0.2]], "tail": descriptor}


_TAIL_COVER_CONFIG = {"command": "mc-tail-cover", "space": "circle,circle", "s": "1,1",
                      "t": "0.5", "window": "1:2", "seed": 5}


@pytest.mark.parametrize("command, data, message", [
    ("mc-density", [1, 2], "a config must be a JSON object"),
    ("mc-density", {"space": "circle"}, "config is missing the 'command' key"),
    ("mc-density", {"command": "mc-density", "version": 2, "space": "circle", "delta": 0.2,
                    "horizon": 100, "seed": 5}, "unsupported config version 2"),
    ("mc-tail-cover", {**_TAIL_COVER_CONFIG, "schedule": "explicit", "tuples": "0.5,0.25",
                       "tail": "linear"}, "unknown tail model 'linear'"),
    ("mc-tail-cover", {**_TAIL_COVER_CONFIG, "schedule": "geometric"},
     "unknown schedule 'geometric'"),
], ids=["not-an-object", "no-command", "version", "tail", "schedule"])
def test_config_of_a_bad_form_exit_2(runner, tmp_path, command, data, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, command.split("-", 1) + ["--config", str(path)])
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)
    with pytest.raises(ValueError, match=re.escape(message)):
        run(RunConfig.from_dict(data))


def test_divergence_power_expectations():
    outcome = run(RunConfig(command="mc-divergence", p="power:0.5", N=200, trials=1000,
                            seed=4))
    n = np.arange(1, 201, dtype=float)
    want = divergence_tail_bound_test(np.minimum(1.0, n**-0.5), 1000,
                                      np.random.default_rng(4))
    assert outcome.manifest.statistics == want.statistics()
    assert outcome.csv == cli.csv_body(["N", "M", "statistic", "reference", "ratio"],
                                       want.csv_rows())


_CANTOR2 = ("mc fiber-sum --space cantor:0.3333333333333333,cantor:0.3333333333333333 "
            "--alphas 1,2 --s 0.6309297535714574,0.6309297535714574 --u 0 "
            "--anchor 0110101100101011 --checkpoints 100,1000,10000 --seed 7").split()


def test_cantor_fiber_sum_replays_across_simd_dispatch(tmp_path):
    # numpy's AVX-512 log, exp and power differ from libm's in the last bit,
    # so the floats may move with the dispatch, by about 16 ulps at the
    # N = 1e4 reference, while every hit stays where it is
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(limsupdim.__file__))
    runs = []
    for name, extra in (("default", {}),
                        ("libm", {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "limsupdim.cli", *_CANTOR2, "--out", str(out)],
                              capture_output=True, text=True, env={**env, **extra}, timeout=120)
        if extra and proc.returncode and "cannot disable CPU feature" in proc.stderr:
            pytest.skip(f"numpy keeps its AVX-512 dispatch here: {proc.stderr.strip()}")
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.jsonl").read_text().splitlines()[0])
        runs.append(manifest["statistics"])
    stats, stats_off = runs
    assert stats["hit_count"] == stats_off["hit_count"] == 94
    # u = 0, so each observed sum is the count of hits so far
    assert stats["observed"] == stats_off["observed"] == [13.0, 31.0, 94.0]
    for key in ("expectation_exact", "expectation_lower"):
        assert len(stats[key]) == len(stats_off[key]) == 3
        assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
                   for a, b in zip(stats[key], stats_off[key])), (stats[key], stats_off[key])
