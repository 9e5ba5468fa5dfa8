"""Reproducible experiment harness.

Subcommands mirror the library operations: ``svf eval``, ``svf profile``,
``dim predict``, ``cover ball|rect``, ``sparse``, ``mc fiber-sum``,
``mc divergence``, ``mc density``, ``mc tail-cover``, ``mc verdict`` and
``report``.  Every run is described by a flat, versioned RunConfig; stochastic
commands require an explicit seed, write a CSV table plus a JSON-lines
manifest (even when a check fails), and exit 0 when all checks pass, 1 when a
check fails, 2 on invalid input.  All floats are printed with 17 significant
digits so byte-level reproducibility checks are exact.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .ellipsoids import EllipsoidSchedule, convex_body_dimension
from .manifests import RunManifest, append_manifest, csv_body, fmt17, read_manifests
from .mc import (
    OmegaStream,
    VerdictConfig,
    density_check,
    dimension_verdict,
    divergence_tail_bound_test,
    fiber_hit_sum,
    tail_cover_sum,
)
from .spaces import (
    ProductSpace,
    cover_ball,
    cover_rectangle,
    factor_from_token,
    max_sparse_subset,
    sparse_bounds,
    verify_cover,
)
from .svf import (
    ExplicitSchedule,
    PowerLawSchedule,
    RadiusTuple,
    closed_form_dimension,
    critical_exponent_series,
    singular_value,
    svf_profile,
)

CONFIG_VERSION = 1

_STOCHASTIC = {"mc-fiber-sum", "mc-divergence", "mc-density", "mc-tail-cover"}


@dataclass
class RunConfig:
    """Flat, diffable description of one run; unknown keys are rejected."""

    command: str
    version: int = CONFIG_VERSION
    space: str | None = None          # factor specs, e.g. "circle,circle" or "cantor:0.25"
    schedule: str | None = None       # "power:2,3" or "explicit"
    coefficients: str | None = None   # power-law prefactors
    tuples: str | None = None         # explicit tuples "0.5,0.25;0.4,0.05"
    tail: str | None = None           # "none" | "constant" | "power:2,3"
    s: str | None = None              # regularity exponents
    r: str | None = None              # radii (svf eval, cover rect)
    t: str | None = None              # exponent list
    u: str | None = None              # fiber exponent
    x: str | None = None              # center / anchor coordinates
    R: float | None = None            # large radius (cover ball, sparse)
    radius: float | None = None       # small radius (covers, sparse)
    delta: float | None = None
    p: str | None = None              # expectation spec: "harmonic" | "constant:0.3"
    N: int | None = None
    window: str | None = None         # "N0:N1"
    checkpoints: str | None = None
    horizon: int | None = None
    seed: int | None = None
    seeds: str | None = None
    trials: int | None = None
    tol: float = 1e-9
    method: str = "closed-form,series"
    inputs: str | None = None         # manifest paths for `report`
    out: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in data:
            raise ValueError("config is missing the 'command' key")
        cfg = cls(**data)
        if cfg.version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {cfg.version}")
        if cfg.command in _STOCHASTIC and cfg.seed is None:
            raise ValueError(f"command {cfg.command!r} requires an explicit seed")
        if cfg.command == "mc-verdict" and cfg.seeds is None:
            raise ValueError("command 'mc-verdict' requires explicit seeds")
        return cfg


@dataclass
class RunOutcome:
    exit_code: int
    lines: list[str]
    csv: str | None = None
    manifest: RunManifest | None = None


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise ValueError(f"expected comma-separated floats, got {text!r}") from exc


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def parse_space(text: str) -> ProductSpace:
    """Parse comma-separated factor tokens ("interval", "circle",
    "cantor:<lam>") into a product with one factor per token."""
    return ProductSpace(tuple(factor_from_token(t.strip()) for t in text.split(",")))


def parse_schedule(cfg: RunConfig):
    if cfg.schedule is None:
        raise ValueError("a schedule is required (e.g. --alphas via 'power:2,3')")
    text = cfg.schedule.strip()
    if text.startswith("power:"):
        alphas = _floats(text.split(":", 1)[1])
        coeffs = _floats(cfg.coefficients) if cfg.coefficients else ()
        return PowerLawSchedule(alphas, coeffs)
    if text == "explicit":
        if not cfg.tuples:
            raise ValueError("explicit schedule requires 'tuples'")
        tups = tuple(RadiusTuple(_floats(part)) for part in cfg.tuples.split(";"))
        tail_text = (cfg.tail or "none").strip()
        if tail_text == "none":
            tail = None
        elif tail_text == "constant":
            tail = "constant"
        elif tail_text.startswith("power:"):
            tail = PowerLawSchedule(_floats(tail_text.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown tail model {tail_text!r}")
        return ExplicitSchedule(tups, tail)
    raise ValueError(f"unknown schedule {text!r}")


def parse_points(factors, text: str) -> tuple:
    """One point per factor from comma-separated coordinate tokens."""
    tokens = text.split(",")
    if len(tokens) != len(factors):
        raise ValueError(f"expected {len(factors)} coordinates, got {len(tokens)}")
    return tuple(f.parse_point(tok.strip()) for f, tok in zip(factors, tokens))


def _window(cfg: RunConfig) -> tuple[int, int]:
    if not cfg.window:
        raise ValueError("a window 'N0:N1' is required")
    parts = cfg.window.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must be 'N0:N1', got {cfg.window!r}")
    return int(parts[0]), int(parts[1])


def _expectations(cfg: RunConfig) -> np.ndarray:
    if not cfg.p or cfg.N is None:
        raise ValueError("divergence test requires 'p' and 'N'")
    n = np.arange(1, cfg.N + 1, dtype=float)
    text = cfg.p.strip()
    if text == "harmonic":
        return 1.0 / n
    if text.startswith("constant:"):
        val = float(text.split(":", 1)[1])
        return np.full(cfg.N, val)
    if text.startswith("power:"):
        expo = float(text.split(":", 1)[1])
        return np.minimum(1.0, n**-expo)
    raise ValueError(f"unknown expectation model {text!r}")


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _manifest(cfg: RunConfig, operation: str, statistics: dict,
              space=None, schedule=None, window=None, started=None) -> RunManifest:
    return RunManifest(
        operation=operation,
        seed=cfg.seed,
        space=space.descriptor() if space is not None else None,
        schedule=schedule.descriptor() if schedule is not None else None,
        params={"config": cfg.to_dict()},
        window=list(window) if window else None,
        statistics=statistics,
        metadata={"wall_clock": time.time() - started if started else None},
    )


def _run_svf_eval(cfg: RunConfig) -> RunOutcome:
    if not (cfg.r and cfg.s and cfg.t):
        raise ValueError("svf-eval requires r, s and t")
    ts = _floats(cfg.t)
    if len(ts) != 1:
        raise ValueError("svf-eval takes a single t")
    value = singular_value(_floats(cfg.r), _floats(cfg.s), ts[0])
    return RunOutcome(0, [fmt17(value)])


def _run_svf_profile(cfg: RunConfig) -> RunOutcome:
    if not (cfg.r and cfg.s):
        raise ValueError("svf-profile requires r and s")
    prof = svf_profile(_floats(cfg.r), _floats(cfg.s))
    rows = [[t, logv, math.exp(logv)] for t, logv in prof.breakpoints]
    body = csv_body(["t", "log_value", "value"], rows)
    lines = [f"sorted_permutation={list(prof.sorted_permutation)}"]
    return RunOutcome(0, lines, csv=body)


def _run_dim_predict(cfg: RunConfig) -> RunOutcome:
    if not (cfg.schedule and cfg.s):
        raise ValueError("dim-predict requires a schedule and s")
    sched = parse_schedule(cfg)
    s = _floats(cfg.s)
    methods = [m.strip() for m in cfg.method.split(",") if m.strip()]
    values = {}
    if "series" in methods or isinstance(sched, ExplicitSchedule):
        values["series"] = critical_exponent_series(sched, s, cfg.tol)
    if "closed-form" in methods and isinstance(sched, PowerLawSchedule):
        values["closed-form"] = closed_form_dimension(sched, s)
    if not values:
        raise ValueError(f"no applicable method among {methods}")
    lines = [f"{name}={fmt17(val)}" for name, val in sorted(values.items())]
    vals = list(values.values())
    agree = max(vals) - min(vals) <= cfg.tol
    predicted = values.get("closed-form", vals[0])
    lines.append(f"dimension={fmt17(predicted)}")
    lines.append(f"agreement={'ok' if agree else 'DISAGREE'} tol={fmt17(cfg.tol)}")
    return RunOutcome(0 if agree else 1, lines)


def _cover_outcome(cfg: RunConfig, report, space, factors, started) -> RunOutcome:
    sound = verify_cover(space, report)
    rows = []
    for idx, combo in enumerate(itertools.product(*report.factor_centers)):
        center_text = ";".join(f.format_point(c) for f, c in zip(factors, combo))
        rows.append([idx, center_text, report.radius])
    body = csv_body(["index", "center", "radius"], rows)
    stats = {"count": report.count, "bound": report.bound, "sound": sound}
    manifest = _manifest(cfg, cfg.command, stats, space=space, started=started)
    lines = [
        f"count={report.count}",
        f"bound={fmt17(report.bound)}",
        f"sound={sound}",
    ]
    return RunOutcome(0 if sound else 1, lines, csv=body, manifest=manifest)


def _run_cover_ball(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if not (cfg.space and cfg.x and cfg.R is not None and cfg.radius is not None):
        raise ValueError("cover-ball requires space, x, R and radius")
    space = parse_space(cfg.space)
    if space.dim != 1:
        raise ValueError("cover-ball takes a single factor space; use cover-rect")
    (factor,) = space.factors
    (x,) = parse_points(space.factors, cfg.x)
    report = cover_ball(factor, x, cfg.R, cfg.radius)
    return _cover_outcome(cfg, report, factor, space.factors, started)


def _run_cover_rect(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if not (cfg.space and cfg.x and cfg.r and cfg.radius is not None):
        raise ValueError("cover-rect requires space, x (center), r (radii) and radius")
    space = parse_space(cfg.space)
    center = parse_points(space.factors, cfg.x)
    report = cover_rectangle(space, center, _floats(cfg.r), cfg.radius)
    return _cover_outcome(cfg, report, space, space.factors, started)


def _run_sparse(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if not (cfg.space and cfg.x and cfg.R is not None and cfg.radius is not None):
        raise ValueError("sparse requires space, x0, R and radius")
    space = parse_space(cfg.space)
    if space.dim != 1:
        raise ValueError("sparse subsets are built per factor space")
    (factor,) = space.factors
    (x0,) = parse_points(space.factors, cfg.x)
    rng = np.random.default_rng(cfg.seed) if cfg.seed is not None else None
    points = max_sparse_subset(factor, x0, cfg.R, cfg.radius, rng)
    lo, hi = sparse_bounds(factor, cfg.R, cfg.radius)
    rows = [[i, factor.format_point(p)] for i, p in enumerate(points)]
    body = csv_body(["index", "point"], rows)
    ok = lo <= len(points) <= hi
    stats = {"count": len(points), "lower": lo, "upper": hi, "ok": ok}
    manifest = _manifest(cfg, "sparse", stats, space=factor, started=started)
    lines = [f"count={len(points)}", f"bounds=[{fmt17(lo)}, {fmt17(hi)}]", f"ok={ok}"]
    return RunOutcome(0 if ok else 1, lines, csv=body, manifest=manifest)


def _run_fiber_sum(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if not (cfg.space and cfg.schedule and cfg.s and cfg.u and cfg.checkpoints and cfg.x):
        raise ValueError("mc-fiber-sum requires space, schedule, s, u, x (anchor), checkpoints")
    space = parse_space(cfg.space)
    if space.dim < 2:
        raise ValueError("fiber sums need a product space")
    sched = parse_schedule(cfg)
    s = _floats(cfg.s)
    us = _floats(cfg.u)
    if len(us) != 1:
        raise ValueError("mc-fiber-sum takes a single u")
    anchor = parse_points(space.factors[:-1], cfg.x)
    stream = OmegaStream(cfg.seed, space)
    result = fiber_hit_sum(stream, sched, s, anchor, us[0], _ints(cfg.checkpoints))
    body = csv_body(["N", "statistic", "reference", "ratio"], result.csv_rows())
    manifest = _manifest(cfg, "mc-fiber-sum", result.statistics(), space=space,
                         schedule=sched, window=[1, result.checkpoints[-1]],
                         started=started)
    ratio = result.ratio()
    lines = [
        f"hits={result.hit_count}",
        f"final_ratio={fmt17(ratio) if ratio is not None else 'nan'}",
    ]
    return RunOutcome(0, lines, csv=body, manifest=manifest)


def _run_divergence(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if cfg.trials is None:
        raise ValueError("mc-divergence requires trials")
    p = _expectations(cfg)
    checkpoints = _ints(cfg.checkpoints) if cfg.checkpoints else None
    rng = np.random.default_rng(cfg.seed)
    result = divergence_tail_bound_test(p, cfg.trials, rng, checkpoints)
    body = csv_body(["N", "M", "statistic", "reference", "ratio"], result.csv_rows())
    manifest = _manifest(cfg, "mc-divergence", result.statistics(), started=started)
    lines = [f"rows={len(result.rows)}", f"passed={result.passed}"]
    return RunOutcome(0 if result.passed else 1, lines, csv=body, manifest=manifest)


def _run_density(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if not (cfg.space and cfg.delta is not None and cfg.horizon is not None):
        raise ValueError("mc-density requires space, delta and horizon")
    space = parse_space(cfg.space)
    stream = OmegaStream(cfg.seed, space)
    report = density_check(stream, cfg.delta, cfg.horizon)
    body = csv_body(["cell", "statistic", "reference", "ratio"], report.csv_rows())
    manifest = _manifest(cfg, "mc-density", report.statistics(), space=space,
                         window=[0, cfg.horizon], started=started)
    mh, mf = report.min_counts
    lines = [
        f"cells={report.cell_count}",
        f"min_counts={mh},{mf}",
        f"passed={report.passed}",
    ]
    return RunOutcome(0 if report.passed else 1, lines, csv=body, manifest=manifest)


def _run_tail_cover(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if not (cfg.space and cfg.schedule and cfg.s and cfg.t and cfg.window):
        raise ValueError("mc-tail-cover requires space, schedule, s, t and window")
    space = parse_space(cfg.space)
    sched = parse_schedule(cfg)
    s = _floats(cfg.s)
    window = _window(cfg)
    stream = OmegaStream(cfg.seed, space)
    all_rows = []
    stats = []
    ok = True
    for t in _floats(cfg.t):
        prof = tail_cover_sum(stream, sched, s, t, window)
        ok &= prof.ok
        stats.append(prof.statistics())
        for row in prof.csv_rows():
            all_rows.append([t] + row)
    body = csv_body(["t", "N", "statistic", "reference", "ratio"], all_rows)
    manifest = _manifest(cfg, "mc-tail-cover", {"profiles": stats}, space=space,
                         schedule=sched, window=list(window), started=started)
    lines = [f"profiles={len(stats)}", f"dominated={ok}"]
    return RunOutcome(0 if ok else 1, lines, csv=body, manifest=manifest)


def _run_verdict(cfg: RunConfig) -> RunOutcome:
    started = time.time()
    if not (cfg.space and cfg.schedule and cfg.s and cfg.seeds):
        raise ValueError("mc-verdict requires space, schedule, s and seeds")
    space = parse_space(cfg.space)
    sched = parse_schedule(cfg)
    s = _floats(cfg.s)
    seeds = _ints(cfg.seeds)
    report = dimension_verdict(sched, s, space, seeds, VerdictConfig(tol=cfg.tol))
    body = csv_body(["check", "status", "detail"], report.csv_rows())
    manifest = _manifest(cfg, "mc-verdict", report.statistics(), space=space,
                         schedule=sched, started=started)
    lines = [f"predicted_dimension={fmt17(report.predicted_dimension)}"]
    lines += [f"{c.name}: {c.status}" for c in report.checks]
    return RunOutcome(0 if report.passed else 1, lines, csv=body, manifest=manifest)


def _run_report(cfg: RunConfig) -> RunOutcome:
    if not cfg.inputs:
        raise ValueError("report requires at least one manifest path")
    paths = [p for p in cfg.inputs.split(",") if p]
    manifests: list[RunManifest] = []
    for path in paths:
        if not Path(path).exists():
            raise ValueError(f"manifest file not found: {path}")
        manifests.extend(read_manifests(path))
    if not manifests:
        raise ValueError("no manifests found in the given files")
    ops = {m.operation for m in manifests}
    if len(ops) != 1:
        raise ValueError(f"incompatible manifests: mixed operations {sorted(ops)}")
    op = ops.pop()
    if op not in {"mc-fiber-sum", "mc-tail-cover"}:
        raise ValueError(f"report supports fiber-sum and tail-cover manifests, got {op}")
    keys = {(str(m.schedule), str(m.space)) for m in manifests}
    if len(keys) != 1:
        raise ValueError("incompatible manifests: schedule/space descriptors differ")
    if op == "mc-fiber-sum":
        cps = {tuple(m.statistics["checkpoints"]) for m in manifests}
        us = {m.statistics["u"] for m in manifests}
        if len(cps) != 1 or len(us) != 1:
            raise ValueError("incompatible manifests: checkpoints or u differ")
        checkpoints = list(cps.pop())
        header = (["N"] + [f"seed_{m.seed}" for m in manifests]
                  + ["reference", "log10_N", "log10_reference"])
        rows = []
        ref = manifests[0].statistics["expectation_exact"]
        for i, N in enumerate(checkpoints):
            row = [N] + [m.statistics["observed"][i] for m in manifests]
            row += [ref[i], math.log10(N), math.log10(ref[i]) if ref[i] > 0 else math.nan]
            rows.append(row)
        body = csv_body(header, rows)
    else:
        stats = [m.statistics["profiles"] for m in manifests]
        ts = {tuple(p["t"] for p in profs) for profs in stats}
        wins = {tuple(tuple(p["window"]) for p in profs) for profs in stats}
        if len(ts) != 1 or len(wins) != 1:
            raise ValueError("incompatible manifests: t grids or windows differ")
        header = (["t"] + [f"seed_{m.seed}" for m in manifests]
                  + ["reference", "log10_reference"])
        rows = []
        for j, t in enumerate(ts.pop()):
            row = [t] + [profs[j]["value"] for profs in stats]
            ref = stats[0][j]["reference"]
            row += [ref, math.log10(ref) if ref > 0 else math.nan]
            rows.append(row)
        body = csv_body(header, rows)
    return RunOutcome(0, [f"merged {len(manifests)} manifests"], csv=body)


_HANDLERS = {
    "svf-eval": _run_svf_eval,
    "svf-profile": _run_svf_profile,
    "dim-predict": _run_dim_predict,
    "cover-ball": _run_cover_ball,
    "cover-rect": _run_cover_rect,
    "sparse": _run_sparse,
    "mc-fiber-sum": _run_fiber_sum,
    "mc-divergence": _run_divergence,
    "mc-density": _run_density,
    "mc-tail-cover": _run_tail_cover,
    "mc-verdict": _run_verdict,
    "report": _run_report,
}


def run(config: RunConfig) -> RunOutcome:
    """Validate and dispatch a run; outputs are deterministic given the seed."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    if config.command in _STOCHASTIC and config.seed is None:
        raise ValueError(f"command {config.command!r} requires an explicit seed")
    if config.command == "mc-verdict" and config.seeds is None:
        raise ValueError("command 'mc-verdict' requires explicit seeds")
    return handler(config)


def _csv_name(command: str) -> str:
    return command.replace("-", "_") + ".csv"


def _finish(ctx: click.Context, cfg: RunConfig) -> None:
    try:
        outcome = run(cfg)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for line in outcome.lines:
        click.echo(line)
    if cfg.out is not None:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if outcome.csv is not None:
            (out_dir / _csv_name(cfg.command)).write_text(outcome.csv, encoding="utf-8")
        if outcome.manifest is not None:
            append_manifest(out_dir / "manifest.jsonl", outcome.manifest)
    elif outcome.csv is not None:
        click.echo(outcome.csv, nl=False)
    ctx.exit(outcome.exit_code)


def _load_config(config_path: str | None, command: str, **fields) -> RunConfig:
    if config_path is not None:
        import json

        data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        try:
            cfg = RunConfig.from_dict(data)
        except (ValueError, TypeError) as exc:
            raise click.UsageError(f"{config_path}: {exc}")
        if cfg.command != command:
            raise click.UsageError(
                f"{config_path}: config command {cfg.command!r} does not match {command!r}"
            )
        return cfg
    return RunConfig(command=command, **{k: v for k, v in fields.items() if v is not None})


@click.group()
def main():
    """Dimension predictions and seeded experiments for random limsup sets
    of rectangles."""


@main.group()
def svf():
    """Singular value function evaluation."""


@svf.command("eval")
@click.option("--r", "r", required=True, help="Radii, comma-separated")
@click.option("--s", "s", required=True, help="Regularity exponents")
@click.option("--t", "t", required=True, help="Total exponent t")
@click.pass_context
def svf_eval(ctx, r, s, t):
    """Print Phi_r^s(t)."""
    _finish(ctx, _load_config(None, "svf-eval", r=r, s=s, t=t))


@svf.command("profile")
@click.option("--r", "r", required=True)
@click.option("--s", "s", required=True)
@click.option("--out", type=click.Path())
@click.pass_context
def svf_profile_cmd(ctx, r, s, out):
    """Breakpoints of the piecewise-linear log profile."""
    _finish(ctx, _load_config(None, "svf-profile", r=r, s=s, out=out))


@main.group()
def dim():
    """Dimension predictions."""


@dim.command("predict")
@click.option("--alphas", help="Power-law decay exponents")
@click.option("--coefficients", help="Power-law prefactors")
@click.option("--s", "s", required=True)
@click.option("--method", default="closed-form,series", show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def dim_predict(ctx, alphas, coefficients, s, method, tol):
    """Predicted almost-sure dimension by both methods; exit 1 on disagreement."""
    if alphas is None:
        raise click.UsageError("dim predict requires --alphas")
    _finish(ctx, RunConfig(command="dim-predict", schedule=f"power:{alphas}",
                           coefficients=coefficients, s=s, method=method, tol=tol))


@dim.command("convex-body")
@click.option("--alphas", required=True, help="Semiaxis decay exponents, sorted ascending")
@click.option("--coefficients", help="Semiaxis prefactors, non-increasing")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def dim_convex_body(ctx, alphas, coefficients, tol):
    """Predicted dimension from inscribed-ellipsoid semiaxis data."""
    try:
        sched = EllipsoidSchedule(_floats(alphas),
                                  _floats(coefficients) if coefficients else ())
        value = convex_body_dimension(sched, tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(fmt17(value))
    ctx.exit(0)


@main.group()
def cover():
    """Explicit covers with certified cardinality bounds."""


@cover.command("ball")
@click.option("--space", required=True)
@click.option("--x", required=True, help="Ball center")
@click.option("--big-radius", "R", type=float, required=True, help="Ball radius R")
@click.option("--radius", type=float, required=True, help="Covering radius r")
@click.option("--out", type=click.Path())
@click.pass_context
def cover_ball_cmd(ctx, space, x, R, radius, out):
    _finish(ctx, _load_config(None, "cover-ball", space=space, x=x, R=R,
                              radius=radius, out=out))


@cover.command("rect")
@click.option("--space", required=True)
@click.option("--x", required=True, help="Rectangle center coordinates")
@click.option("--r", "r", required=True, help="Side radii")
@click.option("--radius", type=float, required=True, help="Cube radius")
@click.option("--out", type=click.Path())
@click.pass_context
def cover_rect_cmd(ctx, space, x, r, radius, out):
    _finish(ctx, _load_config(None, "cover-rect", space=space, x=x, r=r,
                              radius=radius, out=out))


@main.command("sparse")
@click.option("--space", required=True)
@click.option("--x", required=True, help="Ball center x0")
@click.option("--big-radius", "R", type=float, required=True, help="Ball radius R")
@click.option("--radius", type=float, required=True, help="Sparseness radius r")
@click.option("--seed", type=int, help="Shuffle candidate order with this seed")
@click.option("--out", type=click.Path())
@click.pass_context
def sparse_cmd(ctx, space, x, R, radius, seed, out):
    """Maximal sparse subset of a ball, with cardinality bounds."""
    _finish(ctx, _load_config(None, "sparse", space=space, x=x, R=R,
                              radius=radius, seed=seed, out=out))


@main.group()
def mc():
    """Seeded Monte Carlo experiments."""


def _mc_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True),
                      help="Load a RunConfig JSON file instead of flags")(fn)
    fn = click.option("--out", type=click.Path(), help="Output directory")(fn)
    return fn


@mc.command("fiber-sum")
@click.option("--space", help="Product space factors")
@click.option("--alphas", help="Power-law decay exponents")
@click.option("--coefficients")
@click.option("--s", "s")
@click.option("--u", "u")
@click.option("--anchor", "x", help="Anchor coordinates (first d-1 factors)")
@click.option("--checkpoints")
@click.option("--seed", type=int)
@_mc_options
@click.pass_context
def mc_fiber_sum(ctx, space, alphas, coefficients, s, u, x, checkpoints, seed,
                 config_path, out):
    """Fiber hit-sum against its exact expectation curve."""
    cfg = _load_config(config_path, "mc-fiber-sum", space=space,
                       schedule=f"power:{alphas}" if alphas else None,
                       coefficients=coefficients, s=s, u=u, x=x,
                       checkpoints=checkpoints, seed=seed, out=out)
    _finish(ctx, cfg)


@mc.command("divergence")
@click.option("--p", "p", help="Expectation model: harmonic | constant:<v> | power:<a>")
@click.option("--n", "N", type=int, help="Number of variables")
@click.option("--trials", type=int)
@click.option("--checkpoints")
@click.option("--seed", type=int)
@_mc_options
@click.pass_context
def mc_divergence(ctx, p, N, trials, checkpoints, seed, config_path, out):
    """Empirical tail-bound table for sums of independent [0,1] variables."""
    cfg = _load_config(config_path, "mc-divergence", p=p, N=N, trials=trials,
                       checkpoints=checkpoints, seed=seed, out=out)
    _finish(ctx, cfg)


@mc.command("density")
@click.option("--space")
@click.option("--delta", type=float)
@click.option("--horizon", type=int)
@click.option("--seed", type=int)
@_mc_options
@click.pass_context
def mc_density(ctx, space, delta, horizon, seed, config_path, out):
    """Cell occupancy of centers over a delta-net at two horizons."""
    cfg = _load_config(config_path, "mc-density", space=space, delta=delta,
                       horizon=horizon, seed=seed, out=out)
    _finish(ctx, cfg)


@mc.command("tail-cover")
@click.option("--space")
@click.option("--alphas")
@click.option("--coefficients")
@click.option("--s", "s")
@click.option("--t", "t", help="Exponent grid, comma-separated")
@click.option("--window", help="N0:N1")
@click.option("--seed", type=int)
@_mc_options
@click.pass_context
def mc_tail_cover(ctx, space, alphas, coefficients, s, t, window, seed,
                  config_path, out):
    """Constructed cover sums against the series reference."""
    cfg = _load_config(config_path, "mc-tail-cover", space=space,
                       schedule=f"power:{alphas}" if alphas else None,
                       coefficients=coefficients, s=s, t=t, window=window,
                       seed=seed, out=out)
    _finish(ctx, cfg)


@mc.command("verdict")
@click.option("--space")
@click.option("--alphas")
@click.option("--coefficients")
@click.option("--s", "s")
@click.option("--seeds", help="Comma-separated seed list")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@_mc_options
@click.pass_context
def mc_verdict(ctx, space, alphas, coefficients, s, seeds, tol, config_path, out):
    """Aggregate PASS/FAIL verdict for a schedule on a space."""
    cfg = _load_config(config_path, "mc-verdict", space=space,
                       schedule=f"power:{alphas}" if alphas else None,
                       coefficients=coefficients, s=s, seeds=seeds, tol=tol, out=out)
    _finish(ctx, cfg)


@main.command("report")
@click.argument("manifests", nargs=-1, type=click.Path())
@click.option("--out", type=click.Path())
@click.pass_context
def report_cmd(ctx, manifests, out):
    """Merge compatible run manifests into one plot-ready CSV."""
    cfg = RunConfig(command="report", inputs=",".join(manifests), out=out)
    try:
        outcome = run(cfg)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for line in outcome.lines:
        click.echo(line)
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(outcome.csv or "", encoding="utf-8")
    elif outcome.csv:
        click.echo(outcome.csv, nl=False)
    ctx.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
