"""Singular value function of a rectangle and the dimension it predicts.

For side radii r = (r_1, ..., r_d) and regularity exponents
s = (s_1, ..., s_d), the singular value function on [0, s_1 + ... + s_d] is

    Phi_r^s(t) = max { prod_i r_i^{t_i} : 0 <= t_i <= s_i, sum_i t_i = t },

attained by loading the total exponent t onto the largest radii first.  With
radii sorted non-increasingly, log Phi is piecewise linear in t with slope
log r_(i) on the i-th piece, breaking at the partial sums of the sorted s.

For a sequence of radius tuples the predicted almost-sure dimension of the
random limsup set is

    t* = inf { t : sum_n Phi_{r_n}^s(t) < infty }  capped at  s_1 + ... + s_d.

For power-law radii r_{n,i} = kappa_i * n^{-alpha_i} the n-th term equals
n^{-e(t)} up to bounded prefactors, where e is a convex piecewise-linear
exponent profile; the series converges iff e(t) > 1, so t* solves e(t) = 1.
Two independent routes to t* are provided: bisection on e(t) = 1 and a
closed-form minimum over pieces.  Everything here is pure and deterministic.

A radius schedule (``RadiusSchedule``: a power law, or explicit tuples with
a tail) gives the radii of rectangle n by their logs alone, ``log_radii``:
series terms, fiber sums and tail covers all read that one array, so each
index has one rectangle.

Series terms are evaluated in batches of rows by ``log_phi_rows``.  It
works on the d columns taken in the last row's stable order, the order
power-law rows keep from some n on: running sums added column after column
up to the one piece.  Rows in another order are redone one by one by a
stable argsort, row cumsums and a gather.  The first route does the
second's float operations in the same order, so every term is the same
bit for bit whichever route gives it.

Every exactly rounded sum in the package equals ``math.fsum`` of its
terms.  The streamed ones -- series sums here, fiber hit sums and their
expectations, the divergence table's means -- come from one exact
accumulator, ``_ExactSum``, a binned superaccumulator, at checkpoints
checked by one rule, ``sorted_checkpoints``.  A window's tail-cover sums
are ``math.fsum`` itself, and its table of every running sum reads one
scaled int per row through ``running_fsums``.
``partial_sums``, ``prefix_fsums``, both fiber walks and the density check
walk their indices once, in chunks of ``_CHUNK`` cut at the checkpoints,
so their memory is O(chunk) whatever the horizon N is, plus the density
check's cell counts; the series walk (``_probe_sums``) makes its chunk
arrays once per walk, the others once per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "SingularValueProfile",
    "PowerLawSchedule",
    "ExplicitSchedule",
    "ExponentProfile",
    "singular_value",
    "svf_profile",
    "exponent_profile",
    "critical_exponent_series",
    "closed_form_dimension",
    "partial_sum",
    "partial_sums",
    "estimate_sum_growth",
]

DEFAULT_BISECTION_TOL = 1e-9


# (name, entry check, domain text) of the arrays that _as_array accepts; each
# check is false for NaN
_RADII = ("radii", lambda v: (v > 0.0) & (v < math.inf), "finite and > 0")
_EXPONENTS = ("regularity exponents", lambda v: (v >= 0.0) & (v < math.inf), "finite and >= 0")


def _as_array(values: Sequence[float], spec: tuple) -> np.ndarray:
    """A sequence as a non-empty 1-d float array, entries checked."""
    name, ok, domain = spec
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError(f"{name} must form a non-empty 1-d sequence")
    bad = vals[~ok(vals)]
    if bad.size:
        raise ValueError(f"all {name} must be {domain}, got {float(bad[0])}")
    return vals


def _exponents(s: Sequence[float]) -> np.ndarray:
    """Regularity exponents as an array; a total past the float range is a
    domain error, not an OverflowError from fsum."""
    sv = _as_array(s, _EXPONENTS)
    try:
        math.fsum(sv)
    except OverflowError:
        raise ValueError(f"regularity exponents {sv.tolist()} have no finite total") from None
    return sv


def _radii_and_exponents(r, s) -> tuple[np.ndarray, np.ndarray]:
    rv, sv = _as_array(r, _RADII), _exponents(s)
    if rv.shape != sv.shape:
        raise ValueError(f"dimension mismatch: {rv.size} radii vs {sv.size} exponents")
    return rv, sv


def _piecewise_linear(breakpoints: Sequence[tuple[float, float]],
                      slopes: Sequence[float], t: float) -> float:
    """Value at t of the piecewise-linear function through ``breakpoints``,
    sorted (t, y) pairs from t = 0, with slope ``slopes[i]`` on piece i."""
    ts = [b[0] for b in breakpoints]
    if not (0.0 <= t <= ts[-1]):
        raise ValueError(f"t={t} outside [0, {ts[-1]}]")
    i = int(np.searchsorted(ts, t, side="left"))
    if ts[i] == t:
        return breakpoints[i][1]
    return breakpoints[i - 1][1] + (t - ts[i - 1]) * slopes[i - 1]


def log_phi_rows(log_r: np.ndarray, s: np.ndarray, t: float,
                 out: np.ndarray | None = None,
                 work: np.ndarray | None = None) -> np.ndarray:
    """log Phi for a batch of radius tuples given as rows of log-radii.

    ``log_r`` has shape (N, d); ``s`` has shape (d,).  Each row is sorted
    non-increasingly by radius (stable, so ties keep original order) and the
    piecewise product is accumulated in log space.  Returns shape (N,): a
    fresh array, or ``out``, a float array of shape (N,), when given.
    ``work``, when given, is a contiguous array of at least 8 N bytes that
    the kernel overwrites: it holds the running sums, then the row-order
    masks, which are otherwise made afresh.

    The batch takes the last row's stable order, which power-law rows keep
    from some n on: with the columns and exponents in that order the piece
    is one int, and only the running sums below it are made, column after
    column, in place.  The rows in another order are then redone by a stable
    per-row argsort, row cumsums and a gather.  The first route does the
    second's float operations in the same order, so each row matches the
    second bit for bit, signed zeros included (``tests/oracles.py`` keeps it
    as the reference).
    """
    total = math.fsum(s)
    if not (0.0 <= t <= total):
        raise ValueError(f"t={t} outside [0, {total}]")
    log_r = np.atleast_2d(np.asarray(log_r, dtype=float))
    n, d = log_r.shape
    s = np.asarray(s, dtype=float)
    if s.size != d:
        raise ValueError(f"dimension mismatch: {d} log-radii per row vs {s.size} exponents")
    perm = np.argsort(-log_r[-1], kind="stable").tolist() if n else list(range(d))
    # d is small: Python floats skip numpy's per-call cost, same additions
    ls = [log_r[:, i] for i in perm]
    ss = s[perm].tolist()
    csum_s = list(accumulate(ss))
    # leftmost piece k with csum_s[k] >= t
    piece = min(sum(c < t for c in csum_s), d - 1)
    prev_s, prev_sl = 0.0, 0.0
    out = np.empty(n) if out is None else out
    work = (np.empty(n) if work is None else work).reshape(-1).view(np.uint8)
    for k in range(piece):
        prev_s = csum_s[k]
        if k == 0:
            prev_sl = np.multiply(ss[0], ls[0], out=work[:8 * n].view(float))
        else:
            np.add(prev_sl, np.multiply(ss[k], ls[k], out=out), out=prev_sl)
    np.add(prev_sl, np.multiply(t - prev_s, ls[piece], out=out), out=out)
    # a row is in another order when it puts the right column of a pair
    # first: by a larger value, or by an equal one from an earlier column;
    # the running sums are spent, so the masks take their bytes
    stray, pair = work[:n].view(bool), work[n:2 * n].view(bool)
    stray.fill(False)
    for i, j in zip(perm, perm[1:]):
        (np.less if i < j else np.less_equal)(log_r[:, i], log_r[:, j], out=pair)
        stray |= pair
    if stray.any():
        log_r = log_r[stray]
        order = np.argsort(-log_r, axis=1, kind="stable")
        log_sorted = np.take_along_axis(log_r, order, axis=1)
        s_sorted = s[order]
        csum_s = np.cumsum(s_sorted, axis=1)
        csum_sl = np.cumsum(s_sorted * log_sorted, axis=1)
        piece = np.minimum((csum_s < t).sum(axis=1), d - 1)
        rows = np.arange(log_r.shape[0])
        prev_s = np.where(piece > 0, csum_s[rows, piece - 1], 0.0)
        prev_sl = np.where(piece > 0, csum_sl[rows, piece - 1], 0.0)
        out[stray] = prev_sl + (t - prev_s) * log_sorted[rows, piece]
    return out


def singular_value(r: Sequence[float],
                   s: Sequence[float],
                   t: float) -> float:
    """Evaluate the singular value function Phi_r^s(t).

    The computation stable-sorts the radii non-increasingly, locates the piece
    of t among the partial sums of the sorted exponents, and evaluates the
    product in log space with a single exponentiation at the end.

    Raises ValueError on dimension mismatch, radii <= 0, or t outside
    [0, sum(s)].
    """
    rv, sv = _radii_and_exponents(r, s)
    return float(np.exp(log_phi_rows(np.log(rv)[None, :], sv, float(t))[0]))


@dataclass(frozen=True)
class SingularValueProfile:
    """Piecewise-linear description of t -> log Phi_r^s(t).

    ``breakpoints`` are (t, log Phi(t)) pairs at t = 0 and at each partial sum
    of the sorted exponents; ``sorted_permutation`` records the stable
    non-increasing ordering of the radii (original 0-based indices).  Slopes
    are non-increasing across pieces (log Phi is concave: the largest radii
    absorb exponent first, so decay accelerates with t).
    """

    breakpoints: tuple[tuple[float, float], ...]
    sorted_permutation: tuple[int, ...]

    @property
    def total(self) -> float:
        return self.breakpoints[-1][0]

    @property
    def slopes(self) -> tuple[float, ...]:
        """Rise over run of each piece; a piece of zero width is never
        evaluated and gets slope 0."""
        pieces = zip(self.breakpoints, self.breakpoints[1:])
        return tuple((y1 - y0) / (t1 - t0) if t1 > t0 else 0.0
                     for (t0, y0), (t1, y1) in pieces)

    def log_value(self, t: float) -> float:
        return _piecewise_linear(self.breakpoints, self.slopes, t)

    def value(self, t: float) -> float:
        # np.exp, as singular_value: the two agree at every breakpoint
        return float(np.exp(self.log_value(t)))


def svf_profile(r: Sequence[float],
                s: Sequence[float]) -> SingularValueProfile:
    """Full piecewise-linear profile of log Phi_r^s, breakpoints included."""
    rv, sv = _radii_and_exponents(r, s)
    log_r = np.log(rv)
    order = np.argsort(-log_r, kind="stable")
    # a running sum of the exponents can round above their exactly rounded
    # total, the upper end of the evaluator's domain: clamp to it
    total = math.fsum(sv)
    ts = [0.0] + [min(float(v), total) for v in np.cumsum(sv[order])]
    # each breakpoint's value is the evaluator's at that t
    ys = [0.0] + [float(log_phi_rows(log_r[None, :], sv, t)[0]) for t in ts[1:]]
    return SingularValueProfile(
        breakpoints=tuple(zip(ts, ys)),
        sorted_permutation=tuple(int(i) for i in order),
    )


# ---------------------------------------------------------------------------
# Radius schedules
# ---------------------------------------------------------------------------


# indices per float block of a run's log n in PowerLawSchedule.log_radii
_LOG_N_BLOCK = 1 << 13


@dataclass(frozen=True)
class PowerLawSchedule:
    """Radii r_{n,i} = kappa_i * n^{-alpha_i} with alpha_i > 0, kappa_i > 0.

    Every index n >= 1 has its radii, whatever the prefactors: a radius
    past its factor's diameter covers the whole factor, and finitely many
    rectangles never change the limsup set or t*.  The radii are given by
    their logs only (``log_radii``): every caller, tail covers included,
    exponentiates those.  A prefactor near the float range can overflow a
    window's cover sums, which ``tail_cover_sum`` refuses with a ValueError.
    """

    alphas: tuple[float, ...]
    coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        # both by the rule of radii: finite and > 0
        alphas = _as_array(self.alphas, ("decay exponents", *_RADII[1:])).tolist()
        coeffs = _as_array(self.coefficients or [1.0] * len(alphas),
                           ("coefficients", *_RADII[1:])).tolist()
        if len(coeffs) != len(alphas):
            raise ValueError("coefficients and alphas must have equal length")
        object.__setattr__(self, "alphas", tuple(alphas))
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def dim(self) -> int:
        return len(self.alphas)

    def log_radii(self, ns: np.ndarray | range, out: np.ndarray | None = None) -> np.ndarray:
        """(N, d) array of log r_{n,i} for the given indices (``_indices``),
        a fresh array that the caller owns and may overwrite, or ``out``, an
        (N, d) float array whose columns are contiguous, when given.

        The array is column-major: each factor's column is contiguous, the
        layout the column-wise kernels read.  It is the only array made: the
        last column holds log n until each column in turn is written as
        log kappa_i - alpha_i log n, the last one last.  For a ``range`` of
        indices (``_index_run``) no index array is made either: n is taken as
        floats, a block at a time.
        """
        run = _index_run(ns)
        if run is None:
            ns = np.ravel(_indices(ns))
        if out is None:
            out = np.empty((len(ns), self.dim), order="F")
        logn = out[:, -1]
        if run is None:
            np.log(ns, out=logn, dtype=float)
        else:
            # exact below 2^53, so their logs are the int64 indices' logs
            for lo in range(run.start, run.stop, _LOG_N_BLOCK):
                hi = min(lo + _LOG_N_BLOCK, run.stop)
                np.log(np.arange(lo, hi, dtype=float), out=logn[lo - run.start: hi - run.start])
        log_k = np.log(self.coefficients)
        for i, alpha in enumerate(self.alphas):
            col = out[:, i]
            np.multiply(alpha, logn, out=col)
            np.subtract(log_k[i], col, out=col)
        return out

    def log_radius_bound(self, run: range) -> np.ndarray:
        """Per factor, the largest log r_{n,i} over the indices of ``run``, a
        non-empty range of step 1: the ``log_radii`` row of its first index,
        since every alpha_i > 0."""
        return self.log_radii([run.start])[0]

    @property
    def power_model(self) -> PowerLawSchedule:
        """The power law that decides t*: the schedule itself."""
        return self

    def check_non_increasing(self) -> None:
        """Raise unless r_{n,1} >= ... >= r_{n,d} for every n."""
        a, k = self.alphas, self.coefficients
        if any(a2 < a1 for a1, a2 in zip(a, a[1:])) or any(
            k2 > k1 for k1, k2 in zip(k, k[1:])
        ):
            raise ValueError(
                "schedule must have non-increasing radii per index: "
                "sort decay exponents ascending (coefficients non-increasing) "
                "and relabel the factor spaces to match"
            )

    def descriptor(self) -> dict:
        return {
            "kind": "power-law",
            "alphas": list(self.alphas),
            "coefficients": list(self.coefficients),
        }


@dataclass(frozen=True)
class ExplicitSchedule:
    """A finite list of radius tuples plus a declared tail model.

    Each tuple is a non-empty sequence of radii, each finite and > 0 (the
    ``_RADII`` rule, with no upper limit: a side past its factor's diameter
    covers the whole factor), all of one length; they are kept as tuples of
    floats.  tail is one of:
      * None -- nothing is known past the listed tuples; no critical exponent
        can be claimed, only growth diagnostics on the finite part.
      * a PowerLawSchedule -- the sequence continues as that power law for
        n > len(tuples).
      * "constant" -- the last tuple repeats forever (terms never vanish, so
        the series diverges at every t).
    """

    tuples: tuple[tuple[float, ...], ...]
    tail: PowerLawSchedule | str | None = None
    # log-radii of the listed tuples, one row each, taken once: the streaming
    # sums call log_radii once per chunk
    _log_table: np.ndarray = field(init=False, repr=False, compare=False)
    # row i: per factor, the largest log-radius of listed rows i, i+1, ...
    _log_suffix_max: np.ndarray = field(init=False, repr=False, compare=False)
    # number (from 1) of the first listed tuple whose radii increase, 0 if
    # none: found once, raised by each check_non_increasing call
    _first_increase: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tups = tuple(tuple(map(float, t)) for t in self.tuples)
        if not tups:
            raise ValueError("explicit schedule needs at least one tuple")
        d = len(tups[0])
        if any(len(t) != d for t in tups):
            raise ValueError("all radius tuples must have the same dimension")
        # every radius at once, by the one rule of radii
        values = _as_array(np.ravel(tups), _RADII).reshape(len(tups), d)
        if isinstance(self.tail, str) and self.tail != "constant":
            raise ValueError(f"unknown tail model {self.tail!r}")
        if isinstance(self.tail, PowerLawSchedule) and self.tail.dim != d:
            raise ValueError("tail model dimension mismatch")
        object.__setattr__(self, "tuples", tups)
        log_table = np.log(values)
        object.__setattr__(self, "_log_table", log_table)
        object.__setattr__(self, "_log_suffix_max",
                           np.maximum.accumulate(log_table[::-1], axis=0)[::-1])
        # the radii themselves, not their logs: np.log can round two distinct
        # radii to one float and hide an increase
        rises = np.flatnonzero((values[:, 1:] > values[:, :-1]).any(axis=1))
        object.__setattr__(self, "_first_increase", int(rises[0]) + 1 if rises.size else 0)

    @property
    def dim(self) -> int:
        return len(self.tuples[0])

    def log_radii(self, ns: np.ndarray | range, out: np.ndarray | None = None) -> np.ndarray:
        """(N, d) array of log r_{n,i} for the given indices, a fresh array
        that the caller owns and may overwrite, or ``out``, an (N, d) float
        array, when given."""
        ns = _indices(ns)
        k = len(self.tuples)
        rest = ns > k
        past_list = rest.any()
        self._check_listed(past_list)
        # the constant tail is the last listed row, repeated
        out = np.take(self._log_table, np.minimum(ns, k) - 1, axis=0, out=out)
        if self.power_model is not None and past_list:
            out[rest] = self.power_model.log_radii(ns[rest])
        return out

    def _check_listed(self, past_list: bool) -> None:
        """Refuse indices past the listed tuples when no tail is declared."""
        if past_list and self.tail is None:
            raise ValueError(f"index beyond the {len(self.tuples)} explicit tuples "
                             "and no tail model declared")

    def log_radius_bound(self, run: range) -> np.ndarray:
        """Per factor, an upper bound of log r_{n,i} over the indices of
        ``run``, a non-empty range of step 1, since listed radii may rise
        with n: the largest listed row from the run's first index on (the
        last row for a constant tail), and past the list the power tail's
        bound, its first row there, which is exact."""
        k = len(self.tuples)
        self._check_listed(run.stop - 1 > k)
        bound = self._log_suffix_max[min(run.start, k) - 1]
        if self.power_model is None or run.stop - 1 <= k:
            return bound
        tail = self.power_model.log_radius_bound(range(max(run.start, k + 1), run.stop))
        return tail if run.start > k else np.maximum(bound, tail)

    @property
    def power_model(self) -> PowerLawSchedule | None:
        """The power-law tail, which decides t*; None for the other tails."""
        return self.tail if isinstance(self.tail, PowerLawSchedule) else None

    def check_non_increasing(self) -> None:
        """Raise unless every listed tuple, and a power tail, is non-increasing."""
        if self._first_increase:
            raise ValueError(f"tuple #{self._first_increase} is not non-increasing; "
                             "relabel first")
        if self.power_model is not None:
            self.power_model.check_non_increasing()

    def descriptor(self) -> dict:
        return {
            "kind": "explicit",
            "tuples": [list(t) for t in self.tuples],
            "tail": self.power_model.descriptor() if self.power_model is not None else self.tail,
        }


# The schedule protocol, which both kinds answer so that callers never test
# which kind they hold: dim, log_radii(ns, out), log_radius_bound(run),
# power_model, check_non_increasing() and descriptor().
RadiusSchedule = PowerLawSchedule | ExplicitSchedule


# ---------------------------------------------------------------------------
# Exponent profile e(t) and the critical exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentProfile:
    """The exponent e(t) with Phi_{r_n}^s(t) = n^{-e(t)} for unit-prefactor
    power laws.

    Piecewise linear on [0, sum(s)], e(0) = 0, slope alpha_(i) on the i-th
    piece with the alphas sorted non-decreasingly (largest radii first), so e
    is continuous, non-decreasing and convex.  Non-unit prefactors shift each
    term by a bounded factor and do not enter e.
    """

    breakpoints: tuple[tuple[float, float], ...]
    slopes: tuple[float, ...]

    @property
    def total(self) -> float:
        return self.breakpoints[-1][0]

    def value(self, t: float) -> float:
        return _piecewise_linear(self.breakpoints, self.slopes, t)

    def level_crossing(self, level: float) -> float | None:
        """Smallest t with e(t) = level by direct piecewise solve, or None if
        e stays below the level on [0, total].  The verdict takes its
        divergent-side probe t_minus from it, and the tests check the
        bisection route against it."""
        if self.value(self.total) < level:
            return None
        ts = [b[0] for b in self.breakpoints]
        es = [b[1] for b in self.breakpoints]
        for i, slope in enumerate(self.slopes):
            if es[i + 1] >= level:
                if slope == 0.0:
                    return ts[i]
                return ts[i] + (level - es[i]) / slope
        return ts[-1]


def _sorted_power_law(sched, s) -> tuple[np.ndarray, np.ndarray]:
    """The alphas of a power-law schedule and the exponents, checked against
    its dimension, both in the stable ascending order of the alphas."""
    sv = _exponents(s)
    if sv.size != sched.dim:
        raise ValueError(f"dimension mismatch: {sched.dim} alphas vs {sv.size} exponents")
    alphas = np.asarray(sched.alphas, dtype=float)
    order = np.argsort(alphas, kind="stable")
    return alphas[order], sv[order]


def exponent_profile(sched: PowerLawSchedule,
                     s: Sequence[float]) -> ExponentProfile:
    """Exponent profile of a power-law schedule.

    Exact when all prefactors are 1; otherwise it describes the asymptotic
    exponent.
    """
    a_sorted, s_sorted = _sorted_power_law(sched, s)
    ts = [0.0]
    es = [0.0]
    for k in range(a_sorted.size):
        ts.append(math.fsum(s_sorted[: k + 1]))
        es.append(math.fsum(s_sorted[: k + 1] * a_sorted[: k + 1]))
    return ExponentProfile(
        breakpoints=tuple(zip(ts, es)),
        slopes=tuple(float(a) for a in a_sorted),
    )


def critical_exponent_series(sched: RadiusSchedule,
                             s: Sequence[float],
                             tol: float = DEFAULT_BISECTION_TOL) -> float:
    """Critical exponent t* = inf{t : sum_n Phi_{r_n}^s(t) < infty}, capped at
    sum(s), via bisection on e(t) = 1.

    The series sum_n n^{-e(t)} converges iff e(t) > 1 and e is non-decreasing,
    so t* is the unique crossing when e(sum(s)) > 1 and sum(s) otherwise.
    Prefactors never change t*.  The schedule's ``power_model`` decides t*;
    an explicit schedule without one needs a declared tail: a constant tail
    diverges at every t (returns sum(s)), and no tail is a domain error.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    sv = _exponents(s)
    total = math.fsum(sv)
    if sched.power_model is None:
        if sched.tail is None:
            raise ValueError(
                "critical exponent undecidable from finitely many terms; "
                "declare a tail model or use estimate_sum_growth"
            )
        return total  # a constant tail
    prof = exponent_profile(sched.power_model, sv)
    if prof.value(total) <= 1.0:
        return total
    lo, hi = 0.0, total
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # float resolution reached before tol
        if prof.value(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def closed_form_dimension(sched: PowerLawSchedule,
                          s: Sequence[float]) -> float:
    """Predicted dimension of a power-law schedule in closed form.

    After relabelling so the decay exponents are non-decreasing (radii
    non-increasing in the coordinate), the value is

        min_i [ 1/alpha_i + sum_{j<i} s_j (1 - alpha_j / alpha_i) ]

    capped at sum(s).  Must agree with critical_exponent_series within the
    bisection tolerance on every valid schedule.
    """
    # Python floats: an alpha near 0 makes 1/alpha inf, as in numpy, with
    # no overflow warning
    a, ss = (v.tolist() for v in _sorted_power_law(sched, s))
    best = math.inf
    for i in range(len(a)):
        val = 1.0 / a[i] + math.fsum(ss[j] * (1.0 - a[j] / a[i]) for j in range(i))
        best = min(best, val)
    return min(best, math.fsum(ss))


# ---------------------------------------------------------------------------
# Partial sums and growth diagnostics
# ---------------------------------------------------------------------------

# indices per chunk of every streaming loop; _ExactSum bins 32-bit halves
# of at most 2^16 run sums, so every bin sum stays below 2^48, exact in
# floats in any order of adding
_CHUNK = 1 << 16

# _ExactSum's runs hold at most _RUN fractions, each below 2^52, so that a
# run sum stays below 2^64, exact in uint64
_RUN = 1 << 12
_FRACTION = np.uint64((1 << 52) - 1)
_BIN = np.uint64(1 << 52)
_LOW32 = np.uint64((1 << 32) - 1)


class _ExactSum:
    """Exact running sum of float64 values, read exactly rounded.

    A binned superaccumulator (Neal 2015, arXiv:1505.05571): each chunk of
    values is viewed as uint64 words, whose top 12 bits (sign and biased
    exponent) pick one of 4096 bins, and whose low 52 bits are the
    fraction.  Series and prefix terms are monotone in n, so long runs of
    consecutive values share a bin: two neighbours do when their words
    differ below bit 52 only.  Each run, cut every _RUN values, sums its
    fractions in uint64 with ``np.add.reduceat``, exactly, since _RUN
    fractions stay below 2^64.  Bincounts over the runs alone fold their
    lengths and the high and low 32 bits of their sums into the bins; a
    chunk holds at most 2^16 runs, so every bin sum stays below 2^48 and is
    exact in any order of adding.  A normal bin adds the implicit bit,
    2^52, once per value, its count times 2^52; the zero and subnormal
    bins, 0 and 2048, have no implicit bit.  The non-empty bins
    fold into one Python int, the sum scaled by 2^1074 (subnormals scale
    like exponent 1; bins from 2048 on are negative).  ``value`` divides
    that int by 2^1074, which CPython rounds correctly, half to even, so it
    equals ``math.fsum`` of every value added, in O(chunk) memory whatever
    the count.  Values of any shape are added as their ravel: the sum does
    not depend on order.

    Non-finite values give fsum's result: NaN if there is one, else the
    infinity, and ValueError for inf + -inf.  An exact sum past the float
    range raises OverflowError, as fsum does.  One deviation: fsum raises
    "intermediate overflow" when a running sum of mixed signs passes the
    float range, as in [1e308, 1e308, -1e308], while the exact sum, 1e308,
    is returned here.

    ``words``, when given, is a uint64 array of at least min(_CHUNK, values
    added at once) entries that every ``add`` works in, in place of a
    fresh one; the accumulators of one walk share it.
    """

    def __init__(self, words: np.ndarray | None = None):
        self._words = words
        self._total = 0
        # fsum's own bookkeeping of non-finite values
        self._special = 0.0
        self._infs = 0.0

    def add(self, values: np.ndarray) -> None:
        # a 1-d view stays a view, strided or not
        values = np.asarray(values, dtype=float).reshape(-1)
        for lo in range(0, values.size, _CHUNK):
            chunk = np.ascontiguousarray(values[lo: lo + _CHUNK])
            bits = chunk.view(np.uint64)
            n = chunk.size
            words = np.empty(n, np.uint64) if self._words is None else self._words[:n]
            # new_run[i]: value i starts a run; new_run[n] closes the last
            new_run = np.empty(n + 1, dtype=bool)
            np.bitwise_xor(bits[1:], bits[:-1], out=words[1:])
            np.greater_equal(words[1:], _BIN, out=new_run[1:n])
            new_run[::_RUN] = True
            new_run[n] = True
            # summing runs of one bin beats a bincount over the values,
            # whose updates of one bin wait on each other
            ends = np.flatnonzero(new_run)
            starts = ends[:-1]
            run_bins = (bits[starts] >> np.uint64(52)).view(np.intp)
            sums = np.add.reduceat(np.bitwise_and(bits, _FRACTION, out=words), starts)
            count = np.bincount(run_bins, ends[1:] - starts, 4096)
            high = np.bincount(run_bins, sums >> np.uint64(32), 4096)
            low = np.bincount(run_bins, sums & _LOW32, 4096)
            # numpy finds the nonzero entries of a bool array many times
            # faster than those of a float one
            bins = np.flatnonzero(count > 0)
            for b, c, h, l in zip(bins.tolist(), count[bins].tolist(),
                                  high[bins].tolist(), low[bins].tolist()):
                e = b & 0x7FF
                if e == 0x7FF:  # inf or NaN
                    for v in np.unique(chunk[bits >> np.uint64(52) == b]).tolist():
                        self._special += v
                        if math.isinf(v):
                            self._infs += v
                    continue
                m = (int(h) << 32) + int(l)
                if e:  # zeros and subnormals have no implicit bit
                    m = (m + (int(c) << 52)) << (e - 1)
                self._total += -m if b >> 11 else m

    def value(self) -> float:
        if self._special:
            if math.isnan(self._infs):
                raise ValueError("-inf + inf in fsum")
            return self._special
        return self._total / (1 << 1074)


def running_fsums(values: Iterable[float]) -> Iterator[float]:
    """math.fsum of each non-empty prefix of finite ``values``, in one pass.

    The running sum is the int ``_ExactSum`` keeps: each value scaled by
    2^1074, which float.as_integer_ratio and a shift make exactly, summed by
    itertools.accumulate.  Each prefix is read with one division by 2^1074,
    which CPython rounds correctly, as fsum does."""
    ratios = map(float.as_integer_ratio, map(float, values))
    return (total / (1 << 1074)
            for total in accumulate(n << (1075 - d.bit_length()) for n, d in ratios))


def _phi_terms(log_r: np.ndarray, sv: np.ndarray, t: float,
               out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """Phi(t) of each row of log-radii, ``log_phi_rows`` (into ``out``,
    with ``work``) exponentiated in place."""
    terms = log_phi_rows(log_r, sv, t, out, work)
    return np.exp(terms, out=terms)


def _integer(value, rule: str) -> int:
    """``value`` as an int, or ValueError(f"{rule} {value}")."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{rule} {value!r}" if isinstance(value, str) else f"{rule} {value}")
    return n


# the rule for the indices n of schedules and streams
_INDEX_RULE = "indices must be integers in [1, 2**63), got"


def _index(n) -> int:
    """One index as an int, by ``_integer``'s rule, in [1, 2**63)."""
    i = _integer(n, _INDEX_RULE)
    if not 1 <= i < 2**63:
        raise ValueError(f"{_INDEX_RULE} {n}")
    return i


def _index_run(ns) -> range | None:
    """``ns`` if it is a range of step 1 of indices below 2^53, where every
    index is exact as a float, else None."""
    if isinstance(ns, range) and ns.step == 1 and 1 <= ns.start and ns.stop <= 2**53:
        return ns
    return None


def _indices(ns) -> np.ndarray:
    """Indices as an int64 array.  An integer array is range-checked by its
    least and greatest entries, a run of indices (``_index_run``) by its
    ends; any other, or one out of range, is checked index by index, and
    the first refused one is named."""
    if _index_run(ns) is not None:
        return np.arange(ns.start, ns.stop, dtype=np.int64)
    ns = np.asarray(ns)
    if ns.dtype.kind in "iu" and (ns.size == 0 or (ns.min() >= 1 and ns.max() < 2**63)):
        return ns.astype(np.int64, copy=False)
    return np.array([_index(n) for n in ns.ravel().tolist()],
                    dtype=np.int64).reshape(ns.shape)


def sorted_checkpoints(Ns: Iterable[int], upper: int | None = None) -> list[int]:
    """Checkpoints as sorted distinct ints, at least one, each in [1, upper]
    (no upper limit when ``upper`` is None).

    Every count the package takes -- checkpoints, the density horizon,
    divergence trials, cover-window ends, growth blocks, stream seeds --
    passes one rule, ``_integer``: an int, or an integral float such as
    1e5, is that int; 10.5, NaN, inf or a string is refused with a
    ValueError naming the count, never truncated."""
    hi = math.inf if upper is None else upper
    rule = f"checkpoints must be one or more integers in [1, {hi}], got"
    cps = sorted({_integer(N, rule) for N in Ns})
    bad = [N for N in cps if not 1 <= N <= hi]
    if bad or not cps:
        raise ValueError(f"{rule} {bad[0] if bad else 'none'}")
    return cps


def _checkpoint_ranges(cps: list[int]):
    """Indices 1..cps[-1] as ranges of at most _CHUNK, each cut at the
    sorted checkpoints ``cps``; yields (run, N) with N the checkpoint the
    run ends on, or None."""
    start = 1
    for N in cps:
        for lo in range(start, N + 1, _CHUNK):
            hi = min(lo + _CHUNK - 1, N)
            yield range(lo, hi + 1), (N if hi == N else None)
        start = N + 1


def prefix_fsums(values: np.ndarray, ends: Iterable[int]) -> list[float]:
    """math.fsum of values[:end] for each end, exactly rounded, so a sum does
    not depend on how its terms were computed or partitioned.  One
    ``_ExactSum`` walks the segments between the sorted ends once, in chunks
    of _CHUNK, so temporaries are O(chunk) whatever len(values) is."""
    values = np.asarray(values, dtype=float)
    acc, sums, lo = _ExactSum(), {}, 0
    for end in sorted({int(e) for e in ends}):
        acc.add(values[lo:end])
        sums[end] = acc.value()
        lo = end
    return [sums[int(e)] for e in ends]


def partial_sum(sched: RadiusSchedule,
                s: Sequence[float],
                t: float, N: int) -> float:
    """Truncated series S_N(t) = sum_{n<=N} Phi_{r_n}^s(t), exactly rounded:
    partial_sums at the one checkpoint N."""
    return partial_sums(sched, s, t, [N])[0]


def partial_sums(sched: RadiusSchedule,
                 s: Sequence[float],
                 t: float, Ns: Sequence[int] | None) -> list[float]:
    """S_N(t) at several checkpoints, exactly rounded, in one pass over the
    terms; None or no checkpoints gives [].

    The terms are evaluated and added to one ``_ExactSum`` a chunk of
    _CHUNK indices at a time, each chunk cut at the checkpoints, so memory
    is O(chunk) whatever N is.  Every term is elementwise in n and an exact
    sum does not depend on how its terms are split, so each value equals
    math.fsum of the first N terms."""
    return _probe_sums(sched, s, (t,), Ns)[0]


def _probe_sums(sched: RadiusSchedule, s: Sequence[float],
                ts: Sequence[float], Ns: Sequence[int] | None) -> list[list[float]]:
    """``partial_sums`` at each exponent of ``ts``, in one walk over the
    chunks: a chunk's log-radii are made once and give every probe's terms,
    then each probe's terms go to its own ``_ExactSum``.

    The walk makes its chunk arrays once: the log-radii block, one terms
    block that each probe fills, exponentiates and adds in turn, and one
    word buffer that ``log_phi_rows`` works in and every accumulator bins
    in.  Arrays made afresh per chunk can be handed back to the kernel by
    glibc and faulted in again chunk after chunk: 8,512 minor faults for a
    1e6-term verdict walk with two probes, in a process whose allocations
    have not raised glibc's trim threshold."""
    if Ns is None or len(Ns) == 0:
        return [[] for _ in ts]
    sv, ts = _exponents(s), [float(t) for t in ts]
    cps = sorted_checkpoints(Ns)
    size = min(_CHUNK, cps[-1])
    log_r, terms = np.empty((size, sched.dim), order="F"), np.empty(size)
    words = np.empty(size, np.uint64)
    accs, sums = [_ExactSum(words) for _ in ts], [{} for _ in ts]
    for run, N in _checkpoint_ranges(cps):
        k = len(run)
        chunk = sched.log_radii(run, out=log_r[:k])
        for t, acc, found in zip(ts, accs, sums):
            acc.add(_phi_terms(chunk, sv, t, out=terms[:k], work=words))
            if N is not None:
                found[N] = acc.value()
    return [[found[int(N)] for N in Ns] for found in sums]


def estimate_sum_growth(sched: RadiusSchedule,
                        s: Sequence[float],
                        t: float, blocks: Sequence[int]) -> float:
    """Least-squares slope of log S_N(t) against log N over the given blocks.

    For power-law schedules this estimates max(0, 1 - e(t)).  Blocks must be
    strictly increasing with at least 3 entries.  Equal consecutive values (a
    fully converged sum at float resolution) flatten the slope.  A block sum
    of 0 or inf, as prefactors near the float range give, has no log to fit:
    a ValueError naming t.
    """
    blocks = _growth_blocks(blocks)
    with np.errstate(over="ignore"):
        slope = _growth_slope(blocks, partial_sums(sched, s, t, blocks))
    if slope is None:
        raise ValueError(f"t={t!r}: a block sum is 0 or inf, outside the float range")
    return slope


def _growth_slopes(sched: RadiusSchedule, s: Sequence[float],
                   ts: Sequence[float], blocks: Sequence[int]) -> list[float | None]:
    """``estimate_sum_growth`` at each exponent of ``ts``, the sums of all of
    them from one walk of ``_probe_sums``; an exponent whose block sums
    leave the float range gets None (``_growth_slope``)."""
    blocks = _growth_blocks(blocks)
    with np.errstate(over="ignore"):
        probes = _probe_sums(sched, s, ts, blocks)
    return [_growth_slope(blocks, sums) for sums in probes]


def _growth_blocks(blocks: Sequence[int]) -> list[int]:
    blocks = [_integer(b, "blocks must be integers, got") for b in blocks]
    if len(blocks) < 3 or any(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:])):
        raise ValueError("blocks must be strictly increasing with at least 3 entries")
    return blocks


def _growth_slope(blocks: list[int], sums: list[float]) -> float | None:
    """The least-squares slope of log sums against log blocks, or None
    unless every sum is in (0, inf): past the float range the terms round
    to 0 or overflow to inf, silently under the callers' errstate, and
    such sums have no log to fit."""
    if not all(0.0 < v < math.inf for v in sums):
        return None
    x = np.log(np.asarray(blocks, dtype=float))
    y = np.log(np.asarray(sums, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
