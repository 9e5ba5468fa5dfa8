"""Reproducible experiment harness, driven by one command table.

Each ``COMMANDS`` entry gives a command's handler, help, flags (each sets one
``RunConfig`` field, whose annotation and default give the flag's type and
default), required fields (``seed`` or ``seeds`` for stochastic commands),
whether it takes ``--config`` and whether ``--out`` names a file; the click
commands are built from it.  A ``--config`` file gives the run's fields, and
each flag typed next to it overrides its field (flags left at their defaults
do not).  Runs from flags, from ``--config`` files and from ``RunConfig``
objects passed to ``run`` are all checked by ``RunConfig.validate`` and end in
``_finish``: lines, then the CSV table, go to stdout, or with
``--out DIR`` the table goes to ``DIR/<command>.csv`` and a manifest line to
``DIR/manifest.jsonl`` (even when a check fails); ``report --out FILE`` writes
its merged CSV to the file FILE.  Exit codes: 0 when all checks pass, 1 when a
check fails, 2 on bad input, which never ends in a traceback.  Floats are
printed with 17 significant digits so byte-level replays are exact.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

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
    MAX_NET_POINTS,
    ProductSpace,
    _parse_number,
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
    inputs: tuple[str, ...] | None = None  # manifest paths for `report`
    out: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("a config must be a JSON object")
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in data:
            raise ValueError("config is missing the 'command' key")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> "Command":
        """Check the run and return its command's table entry.

        Each set field must have its annotated type (an int is accepted, not
        converted, for a float field; a bool is never a number; a
        ``tuple[str, ...]`` field holds strings), the command and version must
        be known, the command's required fields set, and a tolerance that the
        command reads positive and finite."""
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is not None and not _has_type(value, kind):
                raise ValueError(f"field {name!r} must be {kind.__name__}, "
                                 f"got {type(value).__name__} {value!r}")
        spec = COMMANDS.get(self.command)
        if spec is None:
            raise ValueError(f"unknown command {self.command!r}")
        if self.version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {self.version}")
        decls = {flag.field: flag.decl for flag in spec.flags}
        missing = [f"{name} ({decls[name]})" for name in spec.required
                   if getattr(self, name) in (None, "", ())]
        if missing:
            raise ValueError(f"{self.command} requires {', '.join(missing)}")
        if "tol" in decls and not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        return spec


def _has_type(value, kind) -> bool:
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, tuple) and all(_has_type(v, item) for v in value)
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and not isinstance(value, bool)


# the annotated type of each field: str for "str | None"
_FIELD_TYPES = {name: (typing.get_args(hint) or (hint,))[0]
                for name, hint in typing.get_type_hints(RunConfig).items()}
_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}


@dataclass
class RunOutcome:
    exit_code: int
    lines: list[str]
    csv: str | None = None
    manifest: RunManifest | None = None


def _values(text: str, kind=float, field: str | None = None) -> tuple:
    """The comma-separated numbers of ``kind`` (float or int) in ``text``, empty
    items skipped; an empty list is an error naming ``field``, if given."""
    try:
        values = tuple(kind(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        name = "floats" if kind is float else "integers"
        raise ValueError(f"expected comma-separated {name}, got {text!r}") from exc
    if field is not None and not values:
        raise ValueError(f"{field} must list at least one value, got {text!r}")
    return values


def parse_space(text: str) -> ProductSpace:
    """Parse comma-separated factor tokens ("interval", "circle",
    "cantor:<lam>") into a product with one factor per token."""
    return ProductSpace(tuple(factor_from_token(t.strip()) for t in text.split(",")))


def _power_law(text: str, cfg: RunConfig, kind=PowerLawSchedule):
    """The power law "power:<alphas>" with the run's coefficients."""
    coeffs = _values(cfg.coefficients, field="coefficients") if cfg.coefficients else ()
    return kind(_values(text.removeprefix("power:")), coeffs)


def parse_schedule(cfg: RunConfig):
    text = cfg.schedule.strip()
    if text.startswith("power:"):
        return _power_law(text, cfg)
    if text == "explicit":
        if not cfg.tuples:
            raise ValueError("explicit schedule requires 'tuples'")
        tups = tuple(RadiusTuple(_values(part)) for part in cfg.tuples.split(";"))
        tail_text = (cfg.tail or "none").strip()
        if tail_text == "none":
            tail = None
        elif tail_text == "constant":
            tail = "constant"
        elif tail_text.startswith("power:"):
            tail = _power_law(tail_text, cfg)
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
    # the ends are integer literals, as every integer flag's are
    try:
        n0, n1 = (int(part) for part in cfg.window.split(":"))
    except ValueError:
        raise ValueError(f"window must be 'N0:N1' with integers N0 and N1, "
                         f"got {cfg.window!r}") from None
    return n0, n1


def _expectations(cfg: RunConfig) -> np.ndarray:
    n = np.arange(1, cfg.N + 1, dtype=float)
    text = cfg.p.strip()
    if text == "harmonic":
        return 1.0 / n
    model, colon, number = text.partition(":")
    if model not in ("constant", "power") or not colon:
        raise ValueError(f"unknown expectation model {text!r}")
    val = _parse_number(number, f"expectation model {text!r}: value")
    return np.full(cfg.N, val) if model == "constant" else np.minimum(1.0, n**-val)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _manifest(cfg: RunConfig, statistics: dict, space=None, schedule=None,
              window=None) -> RunManifest:
    return RunManifest(
        operation=cfg.command,
        seed=cfg.seed,
        space=space.descriptor() if space is not None else None,
        schedule=schedule.descriptor() if schedule is not None else None,
        params={"config": cfg.to_dict()},
        window=list(window) if window else None,
        statistics=statistics,
    )


def _run_svf_eval(cfg: RunConfig) -> RunOutcome:
    ts = _values(cfg.t)
    if len(ts) != 1:
        raise ValueError("svf-eval takes a single t")
    value = singular_value(_values(cfg.r), _values(cfg.s), ts[0])
    return RunOutcome(0, [fmt17(value)])


def _run_svf_profile(cfg: RunConfig) -> RunOutcome:
    prof = svf_profile(_values(cfg.r), _values(cfg.s))
    rows = [[t, logv, prof.value(t)] for t, logv in prof.breakpoints]
    body = csv_body(["t", "log_value", "value"], rows)
    lines = [f"sorted_permutation={list(prof.sorted_permutation)}"]
    return RunOutcome(0, lines, csv=body)


def _run_dim_predict(cfg: RunConfig) -> RunOutcome:
    sched = parse_schedule(cfg)
    s = _values(cfg.s)
    methods = [m.strip() for m in cfg.method.split(",") if m.strip()]
    unknown = sorted(set(methods) - {"closed-form", "series"})
    if unknown:
        raise ValueError(f"unknown method {', '.join(unknown)}; valid methods: closed-form, series")
    values = {}
    # the closed form is the schedule's own only when it is its power model
    closed = sched.power_model is sched
    if "series" in methods or not closed:
        values["series"] = critical_exponent_series(sched, s, cfg.tol)
    if "closed-form" in methods and closed:
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


def _run_convex_body(cfg: RunConfig) -> RunOutcome:
    sched = _power_law(cfg.schedule, cfg, EllipsoidSchedule)
    return RunOutcome(0, [fmt17(convex_body_dimension(sched, cfg.tol))])


def _cover_outcome(cfg: RunConfig, report, space, factors) -> RunOutcome:
    # each cube is one CSV row: a count past the net cap is refused before
    # any row is made
    if report.count > MAX_NET_POINTS:
        raise ValueError(f"the cover holds {report.count} cubes, more than "
                         f"MAX_NET_POINTS = {MAX_NET_POINTS} rows to list")
    sound = verify_cover(space, report)
    # a generator: only the CSV text of the rows is held, not the rows
    rows = ([idx, ";".join(f.format_point(c) for f, c in zip(factors, combo)), report.radius]
            for idx, combo in enumerate(itertools.product(*report.factor_centers)))
    body = csv_body(["index", "center", "radius"], rows)
    stats = {"count": report.count, "bound": report.bound, "sound": sound}
    manifest = _manifest(cfg, stats, space=space)
    lines = [
        f"count={report.count}",
        f"bound={fmt17(report.bound)}",
        f"sound={sound}",
    ]
    return RunOutcome(0 if sound else 1, lines, csv=body, manifest=manifest)


def _single_factor(cfg: RunConfig, message: str) -> tuple:
    """The run's one factor and its point ``x``; ``message`` rejects a product."""
    space = parse_space(cfg.space)
    if space.dim != 1:
        raise ValueError(message)
    (factor,) = space.factors
    (x,) = parse_points(space.factors, cfg.x)
    return factor, x


def _run_cover_ball(cfg: RunConfig) -> RunOutcome:
    factor, x = _single_factor(cfg, "cover-ball takes a single factor space; use cover-rect")
    report = cover_ball(factor, x, cfg.R, cfg.radius)
    return _cover_outcome(cfg, report, factor, (factor,))


def _run_cover_rect(cfg: RunConfig) -> RunOutcome:
    space = parse_space(cfg.space)
    center = parse_points(space.factors, cfg.x)
    report = cover_rectangle(space, center, _values(cfg.r), cfg.radius)
    return _cover_outcome(cfg, report, space, space.factors)


def _run_sparse(cfg: RunConfig) -> RunOutcome:
    factor, x0 = _single_factor(cfg, "sparse subsets are built per factor space")
    points = max_sparse_subset(factor, x0, cfg.R, cfg.radius, cfg.seed)
    lo, hi = sparse_bounds(factor, cfg.R, cfg.radius)
    rows = [[i, factor.format_point(p)] for i, p in enumerate(points)]
    body = csv_body(["index", "point"], rows)
    ok = lo <= len(points) <= hi
    stats = {"count": len(points), "lower": lo, "upper": hi, "ok": ok}
    manifest = _manifest(cfg, stats, space=factor)
    lines = [f"count={len(points)}", f"bounds=[{fmt17(lo)}, {fmt17(hi)}]", f"ok={ok}"]
    return RunOutcome(0 if ok else 1, lines, csv=body, manifest=manifest)


def _run_fiber_sum(cfg: RunConfig) -> RunOutcome:
    space = parse_space(cfg.space)
    if space.dim < 2:
        raise ValueError("fiber sums need a product space")
    sched = parse_schedule(cfg)
    s = _values(cfg.s)
    us = _values(cfg.u)
    if len(us) != 1:
        raise ValueError("mc-fiber-sum takes a single u")
    anchor = parse_points(space.factors[:-1], cfg.x)
    stream = OmegaStream(cfg.seed, space)
    result = fiber_hit_sum(stream, sched, s, anchor, us[0], _values(cfg.checkpoints, int))
    body = csv_body(["N", "statistic", "reference", "ratio"], result.csv_rows())
    manifest = _manifest(cfg, result.statistics(), space=space, schedule=sched,
                         window=[1, result.checkpoints[-1]])
    ratio = result.ratio()
    lines = [
        f"hits={result.hit_count}",
        f"final_ratio={fmt17(ratio) if ratio is not None else 'nan'}",
    ]
    return RunOutcome(0, lines, csv=body, manifest=manifest)


# expectations and temporaries take ~24 bytes an index: ~0.4 GB at the cap
MAX_DIVERGENCE_N = 1 << 24


def _run_divergence(cfg: RunConfig) -> RunOutcome:
    # numpy's own refusals of these name no flag
    if cfg.N < 1:
        raise ValueError(f"--n must be a positive integer, got {cfg.N}")
    if cfg.N > MAX_DIVERGENCE_N:
        raise ValueError(f"--n={cfg.N}, more than the cap of {MAX_DIVERGENCE_N}")
    if cfg.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {cfg.seed}")
    p = _expectations(cfg)
    checkpoints = _values(cfg.checkpoints, int) if cfg.checkpoints else None
    rng = np.random.default_rng(cfg.seed)
    result = divergence_tail_bound_test(p, cfg.trials, rng, checkpoints)
    body = csv_body(["N", "M", "statistic", "reference", "ratio"], result.csv_rows())
    manifest = _manifest(cfg, result.statistics())
    lines = [f"rows={len(result.rows)}", f"passed={result.passed}"]
    return RunOutcome(0 if result.passed else 1, lines, csv=body, manifest=manifest)


def _run_density(cfg: RunConfig) -> RunOutcome:
    space = parse_space(cfg.space)
    stream = OmegaStream(cfg.seed, space)
    report = density_check(stream, cfg.delta, cfg.horizon)
    body = csv_body(["cell", "statistic", "reference", "ratio"], report.csv_rows())
    manifest = _manifest(cfg, report.statistics(), space=space, window=[0, cfg.horizon])
    mh, mf = report.min_counts
    lines = [
        f"cells={report.cell_count}",
        f"min_counts={mh},{mf}",
        f"passed={report.passed}",
    ]
    return RunOutcome(0 if report.passed else 1, lines, csv=body, manifest=manifest)


def _run_tail_cover(cfg: RunConfig) -> RunOutcome:
    space = parse_space(cfg.space)
    sched = parse_schedule(cfg)
    s = _values(cfg.s)
    window = _window(cfg)
    stream = OmegaStream(cfg.seed, space)
    all_rows = []
    stats = []
    ok = True
    for t in _values(cfg.t, field="t"):
        prof = tail_cover_sum(stream, sched, s, t, window)
        ok &= prof.ok
        stats.append(prof.statistics())
        for row in prof.csv_rows():
            all_rows.append([t] + row)
    body = csv_body(["t", "N", "statistic", "reference", "ratio"], all_rows)
    manifest = _manifest(cfg, {"profiles": stats}, space=space, schedule=sched,
                         window=list(window))
    lines = [f"profiles={len(stats)}", f"dominated={ok}"]
    return RunOutcome(0 if ok else 1, lines, csv=body, manifest=manifest)


def _run_verdict(cfg: RunConfig) -> RunOutcome:
    space = parse_space(cfg.space)
    sched = parse_schedule(cfg)
    s = _values(cfg.s)
    seeds = _values(cfg.seeds, int)
    report = dimension_verdict(sched, s, space, seeds, VerdictConfig(tol=cfg.tol))
    body = csv_body(["check", "status", "detail"], report.csv_rows())
    manifest = _manifest(cfg, report.statistics(), space=space, schedule=sched)
    lines = [f"predicted_dimension={fmt17(report.predicted_dimension)}"]
    lines += [f"{c.name}: {c.status}" for c in report.checks]
    return RunOutcome(0 if report.passed else 1, lines, csv=body, manifest=manifest)


def _numbers(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)


# the forms that report needs of statistics values: each checks a value
# within its statistics dict (checkpoints are checked before the lists that
# run along them)
_FORMS = {
    "a number": lambda v, stats: _numbers([v]),
    "a list": lambda v, stats: isinstance(v, list),
    "a list of numbers": lambda v, stats: _numbers(v),
    "a list of positive numbers": lambda v, stats: _numbers(v) and all(x > 0 for x in v),
    "a list of numbers, one per checkpoint":
        lambda v, stats: _numbers(v) and len(v) == len(stats["checkpoints"]),
}
# the statistics keys that report reads, per operation and per profile of a
# tail-cover manifest, with the form each must have
_REPORT_KEYS = {"mc-fiber-sum": {"checkpoints": "a list of positive numbers", "u": "a number",
                                 "observed": "a list of numbers, one per checkpoint",
                                 "expectation_exact": "a list of numbers, one per checkpoint"},
                "mc-tail-cover": {"profiles": "a list"}}
_PROFILE_KEYS = {"t": "a number", "window": "a list of numbers", "value": "a number",
                 "reference": "a number"}


def _statistics_fault(m: RunManifest) -> str | None:
    """What is wrong with the statistics that report reads from ``m``: the
    first key it lacks or whose form is wrong; None when nothing is."""
    need = [(m.statistics, _REPORT_KEYS.get(m.operation, {}))]
    if m.operation == "mc-tail-cover" and isinstance(m.statistics, dict):
        profiles = m.statistics.get("profiles")
        need += [(p, _PROFILE_KEYS) for p in (profiles if isinstance(profiles, list) else [None])]
    for obj, keys in need:
        for key, form in keys.items():
            if not isinstance(obj, dict) or key not in obj:
                return f"lacks statistics key {key!r}"
            if not _FORMS[form](obj[key], obj):
                return f"statistics key {key!r} must be {form}, got {obj[key]!r}"
    return None


def _run_report(cfg: RunConfig) -> RunOutcome:
    manifests: list[RunManifest] = []
    for path in cfg.inputs:
        if not Path(path).exists():
            raise ValueError(f"manifest file not found: {path}")
        if not Path(path).is_file():
            raise ValueError(f"manifest path is not a file: {path}")
        for m in read_manifests(path):
            fault = _statistics_fault(m)
            if fault is not None:
                raise ValueError(f"{path}: {m.operation} manifest {fault}")
            manifests.append(m)
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
    rows = []
    if op == "mc-fiber-sum":
        cps = {tuple(m.statistics["checkpoints"]) for m in manifests}
        us = {m.statistics["u"] for m in manifests}
        if len(cps) != 1 or len(us) != 1:
            raise ValueError("incompatible manifests: checkpoints or u differ")
        checkpoints = list(cps.pop())
        header = (["N"] + [f"seed_{m.seed}" for m in manifests]
                  + ["reference", "log10_N", "log10_reference"])
        ref = manifests[0].statistics["expectation_exact"]
        for i, N in enumerate(checkpoints):
            row = [N] + [m.statistics["observed"][i] for m in manifests]
            row += [ref[i], math.log10(N), math.log10(ref[i]) if ref[i] > 0 else math.nan]
            rows.append(row)
    else:
        stats = [m.statistics["profiles"] for m in manifests]
        ts = {tuple(p["t"] for p in profs) for profs in stats}
        wins = {tuple(tuple(p["window"]) for p in profs) for profs in stats}
        if len(ts) != 1 or len(wins) != 1:
            raise ValueError("incompatible manifests: t grids or windows differ")
        header = (["t"] + [f"seed_{m.seed}" for m in manifests]
                  + ["reference", "log10_reference"])
        for j, t in enumerate(ts.pop()):
            row = [t] + [profs[j]["value"] for profs in stats]
            ref = stats[0][j]["reference"]
            row += [ref, math.log10(ref) if ref > 0 else math.nan]
            rows.append(row)
    return RunOutcome(0, [f"merged {len(manifests)} manifests"], csv=csv_body(header, rows))


class Flag(typing.NamedTuple):
    """One command-line parameter and the RunConfig field it sets.

    A ``decl`` without leading dashes is a positional argument taking any
    number of paths.  ``convert`` maps the given value to the field's."""

    decl: str
    field: str
    help: str | None = None
    convert: typing.Callable | None = None


class Command(typing.NamedTuple):
    """One CLI command.  ``name`` is the RunConfig ``command``; a name like
    ``mc-fiber-sum`` is command ``fiber-sum`` of group ``mc``."""

    name: str
    handler: typing.Callable[[RunConfig], RunOutcome]
    help: str | None
    flags: tuple[Flag, ...]
    required: tuple[str, ...]
    config: bool = False      # takes --config
    out_file: bool = False    # --out names a file, not a directory


def _alphas(text=None):
    return Flag("--alphas", "schedule", text, "power:{}".format)


_SPACE = Flag("--space", "space")
_S = Flag("--s", "s")
_COEFFICIENTS = Flag("--coefficients", "coefficients")
_BIG_RADIUS = Flag("--big-radius", "R", "Ball radius R")
_SEED = Flag("--seed", "seed")
_TOL = Flag("--tol", "tol")
_OUT = Flag("--out", "out")
_MC_OUT = Flag("--out", "out", "Output directory")

COMMANDS = {c.name: c for c in (
    Command("svf-eval", _run_svf_eval, "Print Phi_r^s(t).",
            (Flag("--r", "r", "Radii, comma-separated"),
             Flag("--s", "s", "Regularity exponents"), Flag("--t", "t", "Total exponent t")),
            ("r", "s", "t")),
    Command("svf-profile", _run_svf_profile,
            "Breakpoints of the piecewise-linear log profile.",
            (Flag("--r", "r"), _S, _OUT),
            ("r", "s")),
    Command("dim-predict", _run_dim_predict,
            "Predicted almost-sure dimension by both methods; exit 1 on disagreement.",
            (_alphas("Power-law decay exponents"),
             Flag("--coefficients", "coefficients", "Power-law prefactors"),
             _S, Flag("--method", "method"), _TOL),
            ("schedule", "s")),
    Command("dim-convex-body", _run_convex_body,
            "Predicted dimension from inscribed-ellipsoid semiaxis data.",
            (_alphas("Semiaxis decay exponents, sorted ascending"),
             Flag("--coefficients", "coefficients", "Semiaxis prefactors, non-increasing"),
             _TOL),
            ("schedule",)),
    Command("cover-ball", _run_cover_ball, None,
            (_SPACE, Flag("--x", "x", "Ball center"), _BIG_RADIUS,
             Flag("--radius", "radius", "Covering radius r"), _OUT),
            ("space", "x", "R", "radius")),
    Command("cover-rect", _run_cover_rect, None,
            (_SPACE, Flag("--x", "x", "Rectangle center coordinates"),
             Flag("--r", "r", "Side radii"), Flag("--radius", "radius", "Cube radius"), _OUT),
            ("space", "x", "r", "radius")),
    Command("sparse", _run_sparse,
            "Maximal sparse subset of a ball, with cardinality bounds.",
            (_SPACE, Flag("--x", "x", "Ball center x0"), _BIG_RADIUS,
             Flag("--radius", "radius", "Sparseness radius r"),
             Flag("--seed", "seed", "Shuffle candidate order with this seed"), _OUT),
            ("space", "x", "R", "radius")),
    Command("mc-fiber-sum", _run_fiber_sum,
            "Fiber hit-sum against its exact expectation curve.",
            (Flag("--space", "space", "Product space factors"),
             _alphas("Power-law decay exponents"), _COEFFICIENTS, _S, Flag("--u", "u"),
             Flag("--anchor", "x", "Anchor coordinates (first d-1 factors)"),
             Flag("--checkpoints", "checkpoints"), _SEED, _MC_OUT),
            ("space", "schedule", "s", "u", "x", "checkpoints", "seed"), config=True),
    Command("mc-divergence", _run_divergence,
            "Empirical tail-bound table for sums of independent [0,1] variables.",
            (Flag("--p", "p", "Expectation model: harmonic | constant:<v> | power:<a>"),
             Flag("--n", "N", "Number of variables"), Flag("--trials", "trials"),
             Flag("--checkpoints", "checkpoints"), _SEED, _MC_OUT),
            ("p", "N", "trials", "seed"), config=True),
    Command("mc-density", _run_density,
            "Cell occupancy of centers over a delta-net at two horizons.",
            (_SPACE, Flag("--delta", "delta"), Flag("--horizon", "horizon"), _SEED, _MC_OUT),
            ("space", "delta", "horizon", "seed"), config=True),
    Command("mc-tail-cover", _run_tail_cover,
            "Constructed cover sums against the series reference.",
            (_SPACE, _alphas(), _COEFFICIENTS, _S,
             Flag("--t", "t", "Exponent grid, comma-separated"),
             Flag("--window", "window", "N0:N1"), _SEED, _MC_OUT),
            ("space", "schedule", "s", "t", "window", "seed"), config=True),
    Command("mc-verdict", _run_verdict,
            "Aggregate PASS/FAIL verdict for a schedule on a space.",
            (_SPACE, _alphas(), _COEFFICIENTS, _S,
             Flag("--seeds", "seeds", "Comma-separated seed list"), _TOL, _MC_OUT),
            ("space", "schedule", "s", "seeds"), config=True),
    Command("report", _run_report,
            "Merge compatible run manifests into one plot-ready CSV.",
            (Flag("manifests", "inputs"), _OUT),
            ("inputs",), out_file=True),
)}


def run(config: RunConfig) -> RunOutcome:
    """Validate and dispatch a run; outputs are deterministic given the seed."""
    started = time.time()
    outcome = config.validate().handler(config)
    if outcome.manifest is not None:
        outcome.manifest.metadata["wall_clock"] = time.time() - started
    return outcome


def _finish(ctx: click.Context, cfg: RunConfig) -> None:
    """Run ``cfg``, print its lines and route its CSV and manifest; bad
    input, an unreadable input file or an unwritable ``--out`` is exit 2."""
    try:
        outcome = run(cfg)
        for line in outcome.lines:
            click.echo(line)
        if cfg.out is None:
            if outcome.csv is not None:
                click.echo(outcome.csv, nl=False)
        else:
            out = Path(cfg.out)
            csv_path = (out if COMMANDS[cfg.command].out_file
                        else out / (cfg.command.replace("-", "_") + ".csv"))
            csv_path.parent.mkdir(parents=True, exist_ok=True)
            if outcome.csv is not None:
                csv_path.write_text(outcome.csv, encoding="utf-8")
            if outcome.manifest is not None:
                append_manifest(out / "manifest.jsonl", outcome.manifest)
    except (OSError, ValueError) as exc:
        raise click.UsageError(str(exc))
    ctx.exit(outcome.exit_code)


def _click_param(flag: Flag, required: bool) -> click.Parameter:
    if not flag.decl.startswith("--"):
        return click.Argument([flag.decl], nargs=-1, type=click.Path())
    default = _FIELD_DEFAULTS[flag.field]
    extra = {} if default is None else {"default": default, "show_default": True}
    kind = click.Path() if flag.field == "out" else _FIELD_TYPES[flag.field]
    return click.Option([flag.decl, flag.field], type=kind, required=required,
                        help=flag.help, **extra)


def _click_command(spec: Command, name: str) -> click.Command:
    params = [_click_param(f, f.field in spec.required and not spec.config) for f in spec.flags]
    if spec.config:
        params.append(click.Option(["--config", "config_path"], type=click.Path(exists=True),
                                   help="Load a RunConfig JSON file instead of flags"))

    @click.pass_context
    def callback(ctx, config_path=None, **given):
        # the file's fields, or none, under the flags typed on the command line
        typed = {}
        for flag, param in zip(spec.flags, params):
            if ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
                value = given[param.name]
                typed[flag.field] = flag.convert(value) if flag.convert else value
        try:
            data = {"command": spec.name}
            if config_path is not None:
                data = json.loads(Path(config_path).read_text(encoding="utf-8"))
            cfg = RunConfig.from_dict({**data, **typed} if isinstance(data, dict) else data)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"{config_path}: {exc}" if config_path else str(exc))
        if cfg.command != spec.name:
            raise click.UsageError(f"{config_path}: config command {cfg.command!r} "
                                   f"does not match {spec.name!r}")
        _finish(ctx, cfg)

    return click.Command(name, params=params, callback=callback, help=spec.help)


@click.group()
def main():
    """Dimension predictions and seeded experiments for random limsup sets
    of rectangles."""


for _name, _help in (("svf", "Singular value function evaluation."),
                     ("dim", "Dimension predictions."),
                     ("cover", "Explicit covers with certified cardinality bounds."),
                     ("mc", "Seeded Monte Carlo experiments.")):
    main.add_command(click.Group(_name, help=_help))
for _name, _spec in COMMANDS.items():
    _group, _, _leaf = _name.partition("-")
    if _group in main.commands:
        main.commands[_group].add_command(_click_command(_spec, _leaf))
    else:
        main.add_command(_click_command(_spec, _name))


if __name__ == "__main__":
    main()
