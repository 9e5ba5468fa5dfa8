"""The benchmark's three workloads: inputs, operations, checks and digests.

Every input is drawn from the workload seed; the library only sees the
generated inputs.  Sizes mirror the library's own callers (the acceptance
criteria and the scripts).  An operation is one library call whose output
the benchmark checks with its own oracle (``certify``) and reduces to a
canonical text for the replay digest.

* ``verdict``: ``dimension_verdict`` at the default ``VerdictConfig``, the
  main user job.  Time goes to the svf layer (1e6-term slope sums).
* ``mc-tables``: torus fiber sums over many seeds, the harmonic divergence
  table and a density check.  Many 1e5-term sums of one schedule, and the
  divergence draws set the peak memory.
* ``cantor-covers``: a Cantor(1/3)^2 fiber sum, interval ball covers,
  sparse sets over geometric radii on the interval, circle and Cantor(1/3),
  tail cover sums and a Cantor sparse set from the CLI.  The spaces layer
  does nearly all the work.

Ball covers of the circle and of Cantor(1/3) are not timed: ``cover_ball``
returns unsound covers there (a ball point farther than r from every
centre; the whole circle at R = 1/2 and the right end of C(1/3) are
witnesses), ``certify`` flags them, and a benchmark workload must be one on
which no operation fails.  ``test_benchmarks.py`` keeps both defects in
view; once ``cover_ball`` is fixed, those covers belong back in here.

Schedules with prefactors > 1 (``PowerLawSchedule((1, 2), (2, 1))``) are
left out on purpose: ``tail_cover_sum`` and ``dimension_verdict`` crash on
them at present, and a crash ends early, so the eventual fix would read as
a slowdown.  The fix's own tests cover that case.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import limsupdim as lsd
from limsupdim import cli
from limsupdim.manifests import fmt17

import certify

CANTOR_LAM = 1.0 / 3.0
VERDICT_TOL = 1e-9


@dataclass
class Op:
    """One checked library call: ``check`` returns None or a failure reason,
    ``digest`` the output's canonical text."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]


@dataclass
class CliJob:
    """The workload's CLI command and how to judge its output files."""

    args: list[str]
    config: dict
    csv_name: str
    check: Callable[[int, str, dict], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cli: CliJob


def canon(obj) -> str:
    """Canonical text of nested statistics, floats through fmt17."""
    def norm(v):
        if isinstance(v, dict):
            return {str(k): norm(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        if isinstance(v, (float, np.floating)):
            return fmt17(float(v))
        if isinstance(v, (np.integer, np.bool_)):
            return norm(v.item())
        return v
    return json.dumps(norm(obj), sort_keys=True)


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def manifest_text(line: str) -> str:
    """A manifest line without its wall-clock field, for replay digests."""
    data = json.loads(line)
    data.get("metadata", {}).pop("wall_clock", None)
    return json.dumps(data, sort_keys=True)


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(v) for v in rng.integers(1, 2**31, size=k)]


def _digits(rng: np.random.Generator, depth: int) -> tuple[int, ...]:
    return tuple(int(d) for d in rng.integers(0, 2, size=depth))


def _torus():
    return lsd.ProductSpace((lsd.Circle(), lsd.Circle()))


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


def _verdict_check(expected: float):
    def check(report) -> str | None:
        if not report.passed:
            failing = [c.name for c in report.checks if c.status == "FAIL"]
            return f"verdict failed checks {failing}"
        if abs(report.predicted_dimension - expected) > VERDICT_TOL:
            return f"t*={report.predicted_dimension!r}, expected {expected!r}"
        return None
    return check


def _verdict_cli_check(expected: float):
    def check(code: int, csv_text: str, manifest: dict) -> str | None:
        stats = manifest["statistics"]
        if code != 0 or not stats["passed"]:
            return f"mc verdict exit {code}, passed={stats['passed']}"
        if abs(stats["predicted_dimension"] - expected) > VERDICT_TOL:
            return f"mc verdict t*={stats['predicted_dimension']!r}"
        return None
    return check


def verdict(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    config = lsd.VerdictConfig()
    if quick:
        config = lsd.VerdictConfig(cover_window=(1, 32),
                                   slope_blocks=(10_000, 30_000, 100_000))
    cases = [
        ("circle2-1,2", _torus(), (1.0, 2.0), 1.0),
        ("interval2-2,3", lsd.ProductSpace((lsd.Interval(), lsd.Interval())),
         (2.0, 3.0), 0.5),
    ]
    ops = []
    for label, space, alphas, expected in cases:
        seeds = _seeds(rng, 3)
        sched = lsd.PowerLawSchedule(alphas)
        ops.append(Op(
            f"verdict {label}",
            lambda sched=sched, space=space, seeds=seeds: lsd.dimension_verdict(
                sched, (1.0, 1.0), space, seeds, config),
            _verdict_check(expected),
            lambda rep: canon(rep.statistics()),
        ))
    cli_seeds = ",".join(str(v) for v in _seeds(rng, 3))
    job = CliJob(
        ["mc", "verdict", "--space", "circle,circle", "--alphas", "1,2",
         "--s", "1,1", "--seeds", cli_seeds],
        dict(command="mc-verdict", space="circle,circle", schedule="power:1,2",
             s="1,1", seeds=cli_seeds, tol=1e-9),
        "mc_verdict.csv",
        _verdict_cli_check(1.0),
    )
    return Workload("verdict", ops, job)


# ---------------------------------------------------------------------------
# mc-tables
# ---------------------------------------------------------------------------


def _fiber_check(res) -> str | None:
    return (certify.check_non_decreasing([v for _, v in res.partials])
            or certify.check_non_decreasing([v for _, v in res.expectation_exact]))


def _passed(what: str):
    def check(res) -> str | None:
        return None if res.passed else f"{what} did not pass"
    return check


def _fiber_cli_check(code: int, csv_text: str, manifest: dict) -> str | None:
    if code != 0:
        return f"mc fiber-sum exit {code}"
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    return certify.check_non_decreasing([float(row[1]) for row in rows])


def mc_tables(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    space = _torus()
    sched = lsd.PowerLawSchedule((1.0, 2.0))
    checkpoints = (100, 1000, 10_000) if quick else (1000, 10_000, 100_000)
    ops = []
    for s in _seeds(rng, 3 if quick else 20):
        stream = lsd.OmegaStream(s, space)
        ops.append(Op(
            f"fiber torus seed={s}",
            lambda stream=stream: lsd.fiber_hit_sum(
                stream, sched, (1.0, 1.0), (0.5,), 0.0, checkpoints),
            _fiber_check,
            lambda res: canon(res.statistics()),
        ))
    n, trials = (2000, 1000) if quick else (10_000, 10_000)
    (div_seed,) = _seeds(rng, 1)
    harmonic = 1.0 / np.arange(1, n + 1)
    ops.append(Op(
        f"divergence harmonic N={n}",
        lambda: lsd.divergence_tail_bound_test(
            harmonic, trials, np.random.default_rng(div_seed)),
        _passed("divergence table"),
        lambda res: canon(res.statistics()),
    ))
    (density_seed,) = _seeds(rng, 1)
    delta, horizon = (0.05, 20_000) if quick else (0.01, 200_000)
    ops.append(Op(
        f"density torus delta={delta}",
        lambda: lsd.density_check(lsd.OmegaStream(density_seed, space), delta, horizon),
        _passed("density check"),
        lambda res: canon(res.statistics()),
    ))
    (cli_seed,) = _seeds(rng, 1)
    job = CliJob(
        ["mc", "fiber-sum", "--space", "circle,circle", "--alphas", "1,2",
         "--s", "1,1", "--u", "0", "--anchor", "0.5",
         "--checkpoints", "1000,10000,100000", "--seed", str(cli_seed)],
        dict(command="mc-fiber-sum", space="circle,circle", schedule="power:1,2",
             s="1,1", u="0", x="0.5", checkpoints="1000,10000,100000",
             seed=cli_seed),
        "mc_fiber_sum.csv",
        _fiber_cli_check,
    )
    return Workload("mc-tables", ops, job)


# ---------------------------------------------------------------------------
# cantor-covers
# ---------------------------------------------------------------------------


def _cover_check(space, x, R, r):
    lam = getattr(space, "lam", None)
    depth_cap = getattr(space, "default_depth", 0)

    def check(out) -> str | None:
        report, _library_sound = out
        centres = [space.embed(p) for p in report.factor_centers[0]]
        return certify.check_cover(space.kind, space.c, space.s, space.embed(x),
                                   R, centres, r, lam, depth_cap)
    return check


def _cover_digest(space):
    def digest(out) -> str:
        report, library_sound = out
        centres = [space.embed(p) for p in report.factor_centers[0]]
        return canon([report.count, report.bound, library_sound, centres])
    return digest


def _sparse_check(space, R, r):
    def check(points) -> str | None:
        return certify.check_sparse(space.kind, space.c, space.s, R,
                                    [space.embed(p) for p in points], r)
    return check


def _tail_check(prof) -> str | None:
    if not (math.isfinite(prof.value) and math.isfinite(prof.reference)):
        return "non-finite tail cover sum"
    return None if prof.ok else f"cover sum {prof.value!r} > {prof.reference!r}"


def _sparse_cli_check(space, R, r):
    def check(code: int, csv_text: str, manifest: dict) -> str | None:
        if code != 0:
            return f"sparse exit {code}"
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        points = [space.point(tuple(int(d) for d in row[1].strip("()")))
                  for row in rows]
        return _sparse_check(space, R, r)(points)
    return check


def cantor_covers(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    cantor = lsd.Cantor(CANTOR_LAM)
    cantor2 = lsd.ProductSpace((cantor, cantor))
    s2 = (cantor.s, cantor.s)
    sched = lsd.PowerLawSchedule((1.0, 2.0))
    ops = []

    # one fiber sum per round: at about 1 s it is the longest op, and fewer
    # long ops per round leave more rounds per run to take the median over
    checkpoints = (100, 1000, 10_000) if quick else (1000, 10_000, 100_000)
    (fiber_seed,) = _seeds(rng, 1)
    anchor = (cantor.point(_digits(rng, cantor.default_depth)),)
    ops.append(Op(
        f"fiber cantor2 seed={fiber_seed}",
        lambda: lsd.fiber_hit_sum(lsd.OmegaStream(fiber_seed, cantor2), sched, s2,
                                  anchor, 0.0, checkpoints),
        _fiber_check,
        lambda res: canon(res.statistics()),
    ))

    # geometric radii 2^-1/2 .. 2^-10 (2^-5 in quick mode), fixed across
    # seeds so that the work does not depend on the seed; centres are drawn.
    # Ball covers on the interval only (see the module docstring)
    radii = [2.0 ** (-j / 2.0) for j in range(1, 11 if quick else 21)]
    for space in (lsd.Interval(), lsd.Circle(), cantor):
        R = space.diameter
        for _ in range(2):
            if space.kind == "cantor":
                x = cantor.point(_digits(rng, cantor.default_depth))
            else:
                x = float(rng.random())
            for r in radii:
                if space.kind == "interval":
                    ops.append(Op(
                        f"cover {space.kind} x={space.embed(x)!r} r={r!r}",
                        lambda space=space, x=x, R=R, r=r: _cover_and_verify(
                            space, x, R, r),
                        _cover_check(space, x, R, r),
                        _cover_digest(space),
                    ))
                ops.append(Op(
                    f"sparse {space.kind} x={space.embed(x)!r} r={r!r}",
                    lambda space=space, x=x, R=R, r=r: lsd.max_sparse_subset(
                        space, x, R, r),
                    _sparse_check(space, R, r),
                    lambda pts, space=space: canon([space.embed(p) for p in pts]),
                ))

    window = (1, 32) if quick else (1, 128)
    for label, space, s in (("cantor2", cantor2, s2), ("torus", _torus(), (1.0, 1.0))):
        (stream_seed,) = _seeds(rng, 1)
        stream = lsd.OmegaStream(stream_seed, space)
        total = math.fsum(s)
        for t in (0.25 * total, 0.5 * total):
            ops.append(Op(
                f"tail-cover {label} t={t!r}",
                lambda stream=stream, s=s, t=t: lsd.tail_cover_sum(
                    stream, sched, s, t, window),
                _tail_check,
                lambda prof: canon(prof.statistics()),
            ))

    digits = _digits(rng, 12)
    R, r = 1.0, 2.0**-8
    text = "".join(str(d) for d in digits)
    job = CliJob(
        ["sparse", "--space", f"cantor:{CANTOR_LAM!r}", "--x", text,
         "--big-radius", repr(R), "--radius", repr(r)],
        dict(command="sparse", space=f"cantor:{CANTOR_LAM!r}", x=text, R=R,
             radius=r),
        "sparse.csv",
        _sparse_cli_check(cantor, R, r),
    )
    return Workload("cantor-covers", ops, job)


def _cover_and_verify(space, x, R, r):
    """A ball cover and the library's own probe-net verdict on it.  The
    verdict is digested but not trusted; ``certify`` judges the cover."""
    report = lsd.cover_ball(space, x, R, r)
    return report, lsd.verify_cover(space, report)


BUILDERS = {"verdict": verdict, "mc-tables": mc_tables, "cantor-covers": cantor_covers}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    return BUILDERS[name](seed, quick)


def run_config(job: CliJob, out: str):
    """The RunConfig the CLI builds for ``job.args`` with ``--out out``."""
    return cli.RunConfig(**job.config, out=out)
