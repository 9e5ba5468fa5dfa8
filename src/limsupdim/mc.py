"""Seeded Monte Carlo experiments on random limsup sets of rectangles.

The centers omega_n are drawn from the product measure through a
counter-based stream: omega_n is a pure function of (seed, n), so windows of
any experiment can be computed without replaying prefixes and identical runs
reproduce bit-identical statistics.

Almost-sure statements are replaced by falsifiable finite-sample surrogates
with explicit error budgets (3-sigma rules); rectangle membership uses closed
rectangles throughout.  Box-counting the limsup set itself is deliberately
not offered as a dimension estimator: typical limsup sets are dense, so box
counts saturate.  What is measured instead is what the dimension formula
actually controls -- hit sums along fibers and cover sums along the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import ProductSpace, _sparse_indices
from .svf import (
    PowerLawSchedule,
    RadiusSchedule,
    _ExactSum,
    _checkpoint_ranges,
    _growth_slopes,
    _indices,
    _integer,
    closed_form_dimension,
    critical_exponent_series,
    exponent_profile,
    log_phi_rows,
    partial_sums,
    prefix_fsums,
    running_fsums,
    sorted_checkpoints,
)

__all__ = [
    "OmegaStream",
    "FiberSumResult",
    "DivergenceTestResult",
    "DensityReport",
    "TailCoverProfile",
    "VerdictConfig",
    "CheckResult",
    "VerdictReport",
    "fiber_hit_sum",
    "divergence_tail_bound_test",
    "density_check",
    "tail_cover_sum",
    "dimension_verdict",
]


@dataclass(frozen=True)
class OmegaStream:
    """Index-addressable stream of centers omega_n in a product space.

    omega_n is reproducible from (seed, n) alone; coordinate i of omega_n is
    derived from the hash word keyed (seed, lane=i, index=n), so access order
    is irrelevant and distinct indices are statistically independent.
    The seed and the indices are counts (``svf.sorted_checkpoints``): an
    integral float such as 1e3 is that int, and anything else is refused.
    Indices run from 1 to 2**63 - 1, by the rule of schedule indices, which
    lives in ``svf`` (``_index``, ``_indices``).  The stream gives embedded
    coordinates only (``factor_coords``): it decodes no points.
    """

    seed: int
    space: ProductSpace

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed must be an integer, got"))

    def factor_coords(self, i: int, ns: np.ndarray) -> np.ndarray:
        """Embedded coordinates of factor i for the given indices."""
        return self.space.factors[i].stream_coords(self.seed, i, _indices(ns))


def _require_matching_regularity(space: ProductSpace, s: Sequence[float]) -> np.ndarray:
    # np.allclose's rule with rtol=1e-12 and atol=0, on Python floats
    sv = np.asarray(list(s), dtype=float)
    ref = [float(v) for v in space.s_vector]
    if sv.shape != (len(ref),) or not all(
            abs(a - b) <= 1e-12 * abs(b) for a, b in zip(sv.tolist(), ref)):
        raise ValueError(f"regularity vector {sv.tolist()} does not match the space's {ref}")
    return sv


@dataclass(frozen=True)
class FiberSumResult:
    """Hit-sum along the fiber over an anchor x' in the first d-1 factors.

    The n-th term is chi(omega_n' in rect(x', r_n')) * r_{n,d}^u.  The exact
    expectation curve sums mu'(rect(x', r_n')) * r_{n,d}^u term by term; the
    lower-bound curve is c * sum Phi(s_1+...+s_{d-1}+u) with
    c = prod_{i<d} c_i^-1, which the expectation dominates term by term.
    """

    anchor: tuple
    u: float
    checkpoints: tuple[int, ...]
    partials: tuple[tuple[int, float], ...]
    expectation_exact: tuple[tuple[int, float], ...]
    expectation_lower: tuple[tuple[int, float], ...]
    hit_count: int

    def ratio(self, N: int | None = None) -> float | None:
        """Observed / exact-expectation at checkpoint N (default: last).
        None when the expectation is zero."""
        idx = -1 if N is None else self.checkpoints.index(N)
        obs = self.partials[idx][1]
        exp = self.expectation_exact[idx][1]
        return None if exp == 0.0 else obs / exp

    def csv_rows(self) -> list[list]:
        rows = []
        for (N, obs), (_, exp) in zip(self.partials, self.expectation_exact):
            ratio = obs / exp if exp > 0 else math.nan
            rows.append([N, obs, exp, ratio])
        return rows

    def statistics(self) -> dict:
        return {
            "u": self.u,
            "checkpoints": list(self.checkpoints),
            "observed": [v for _, v in self.partials],
            "expectation_exact": [v for _, v in self.expectation_exact],
            "expectation_lower": [v for _, v in self.expectation_lower],
            "hit_count": self.hit_count,
        }


# the last fiber sum's expectation curves, as (key, (exact, lower)): the
# key is that call's schedule and the repr of its other inputs
_last_curves: tuple | None = None


def fiber_hit_sum(stream: OmegaStream, sched: RadiusSchedule,
                  s: Sequence[float], anchor: Sequence, u: float,
                  checkpoints: Sequence[int]) -> FiberSumResult:
    """Accumulate the fiber hit-sum at the given checkpoints.

    Requires d >= 2, u in [0, s_d], radii non-increasing per index (relabel
    the factors first if not), and an anchor in the first d-1 factors.

    The indices are walked once, in chunks of the svf module's _CHUNK cut at
    the checkpoints.  A hit needs every anchor factor's distance within its
    radius, and mu'(rect(x', r_n')) ~ r_n^s', so almost every index misses.
    The hit test is therefore lazy, and still exact.  Per chunk, the
    schedule bounds each factor's log-radius over the chunk
    (``log_radius_bound``).  Factor by factor, the coordinates and
    distances are drawn at the indices still in play, and an index stays a
    candidate only while its distance is within twice its factor's bound.
    The log-radii, radii and weights r_{n,d}^u are computed at the last
    candidates only, and the hits are taken there.  A radius is a function
    of n alone and the sums below are exact, so the hits and sums are those
    of a walk that computes every radius.  The factor 2 leaves room for the
    rounding of log and exp, which need not be monotone in the last bit.  A
    chunk from n = 1 keeps most of its indices, since its bound is r_1.

    The exact and lower expectation curves depend only on the schedule, the
    exponents, the factors' kinds and parameters, the anchor, u and the
    checkpoints, never on the stream's seed.  A one-entry memo
    (``_last_curves``) keeps the last call's curves under those values, so
    the seeds of one run share them: on a hit the walk computes no radii
    past the candidates, no ball masses and no series.  On a miss each
    chunk's radii are computed in full for the exact terms, added to an
    exact accumulator (``svf._ExactSum``) as the observed ones are, so the
    walk's memory is O(chunk) whatever the horizon is and each sum equals
    math.fsum of its terms; the lower curve is c times ``partial_sums`` at
    t_u, a walk of its own.  Past the call, the memo keeps the schedule it
    was given and two floats per checkpoint.

    Unlike the series walk, this walk takes no workspace of chunk buffers:
    its calls are short, and buffers made per call pay their first touch on
    every call.  Over 20 seeds of 1e5 terms, such a workspace raised the
    minor page faults of a round from 12,820 to 19,900.
    """
    space = stream.space
    d = space.dim
    if d < 2:
        raise ValueError("fiber sums need a product of at least two factors")
    sv = _require_matching_regularity(space, s)
    if not (0.0 <= u <= sv[-1]):
        raise ValueError(f"u={u} outside [0, {sv[-1]}]")
    sched.check_non_increasing()
    anchor = tuple(anchor)
    if len(anchor) != d - 1:
        raise ValueError(f"anchor must have {d - 1} coordinates, got {len(anchor)}")
    for factor, coord in zip(space.factors[:-1], anchor):
        factor.validate_point(coord)
    cps = sorted_checkpoints(checkpoints)

    global _last_curves
    # schedules are frozen dataclasses that compare their normalised floats;
    # repr keeps -0.0 apart from 0.0 and 1 apart from 1.0, so equal keys give
    # equal curves whatever objects carry the values
    key = (repr((space.descriptor(), sv.tolist(), anchor, u, cps)), sched)
    # one read of the global: the key test and the curves come from one entry
    last = _last_curves
    curves = last[1] if last is not None and last[0] == key else None
    t_u = min(math.fsum(sv[:-1]) + u, math.fsum(sv))
    c_const = math.prod(1.0 / f.c for f in space.factors[:-1])
    centre = [f.coordinate(x) for f, x in zip(space.factors[:-1], anchor)]
    observed, expected = _ExactSum(), _ExactSum()
    partials, exact, hit_count = [], [], 0
    for run, N in _checkpoint_ranges(cps):
        ns = _indices(run)
        reach = 2.0 * np.exp(sched.log_radius_bound(run))
        near, candidates = [], ns
        for i, factor in enumerate(space.factors[:-1]):
            dist = factor.distances(stream.factor_coords(i, candidates), centre[i])
            close = dist <= reach[i]
            candidates = candidates[close]
            near = [x[close] for x in near] + [dist[close]]
        radii = np.exp(sched.log_radii(candidates))
        hits = np.ones(candidates.size, dtype=bool)
        for i, dist in enumerate(near):
            hits &= dist <= radii[:, i]
        # only the hit terms are added: the sums are exact and +0.0 terms
        # add nothing, so each equals the sum of the zero-filled terms
        weights = radii[hits, -1] ** u
        observed.add(weights)
        hit_count += weights.size
        # the exact terms after the hits: with the full radii made first, a
        # cold torus call to 1e5 took 1,150 minor faults instead of 480
        if curves is None:
            log_r = sched.log_radii(ns)
            radii = np.exp(log_r, out=log_r)
            exact_terms = radii[:, -1] ** u
            for i, factor in enumerate(space.factors[:-1]):
                # a prefactor can make a radius wider than 2 * diameter, and
                # a ball that wide is the whole factor
                wide = np.minimum(radii[:, i], 2.0 * factor.diameter, out=radii[:, i])
                exact_terms = exact_terms * factor.ball_measure_array(anchor[i], wide)
            expected.add(exact_terms)
        if N is not None:
            partials.append((N, observed.value()))
            if curves is None:
                exact.append((N, expected.value()))
    if curves is None:
        lower = zip(cps, partial_sums(sched, sv, t_u, cps))
        curves = (tuple(exact), tuple((N, c_const * v) for N, v in lower))
        _last_curves = (key, curves)
    return FiberSumResult(
        anchor=anchor,
        u=float(u),
        checkpoints=tuple(cps),
        partials=tuple(partials),
        expectation_exact=curves[0],
        expectation_lower=curves[1],
        hit_count=hit_count,
    )


@dataclass(frozen=True)
class DivergenceTestResult:
    """Empirical table for the divergence tail bound.

    For independent xi_n in [0, 1] with expectations p_n, whenever
    M <= (1/2) sum_{n<=N} p_n the probability P{sum_{n<=N} xi_n <= M} is at
    most 2/M.  Rows record (N, M, bound, sigma, empirical, ok) where ok means
    empirical <= 2/M + 3 sigma with sigma the binomial standard error.
    """

    trials: int
    rows: tuple[tuple[int, int, float, float, float, bool], ...]

    @property
    def passed(self) -> bool:
        return all(row[5] for row in self.rows)

    def csv_rows(self) -> list[list]:
        return [[N, M, emp, bound, (emp / bound if bound > 0 else math.nan)]
                for (N, M, bound, sigma, emp, ok) in self.rows]

    def statistics(self) -> dict:
        return {
            "trials": self.trials,
            "rows": [list(row) for row in self.rows],
            "passed": self.passed,
        }


# bytes of random numbers and their temporaries held at once by the
# Bernoulli count kernel
_DRAW_BYTES = 1 << 22

# a block whose largest expectation is at most this is thinned; a denser one
# is drawn index by index, where thinning would cost more draws than it saves
_THIN_MAX_P = 1.0 / 16.0

# bytes per index of one dense row (a float64 uniform and its comparison),
# and per candidate of one thinning pass (int64 offsets and clipped offsets,
# float64 uniforms and gathered p, and a boolean mask)
_DENSE_BYTES = 9
_PASS_BYTES = 34


def _dense_counts(pb: np.ndarray, cuts: list[int], trials: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Successes of Bernoulli(pb) below each cut, one uniform per index."""
    out = np.empty((trials, len(cuts)), dtype=np.int64)
    rows = max(1, _DRAW_BYTES // (_DENSE_BYTES * pb.size))
    for lo in range(0, trials, rows):
        hi = min(lo + rows, trials)
        draws = rng.random((hi - lo, pb.size)) < pb
        running = np.zeros(hi - lo, dtype=np.int64)
        prev = 0
        for i, cut in enumerate(cuts):
            running += np.count_nonzero(draws[:, prev:cut], axis=1)
            out[lo:hi, i] = running
            prev = cut
    return out


def _pass_width(q: float, size: int) -> int:
    """Candidates per trial in a thinning pass: of ~Poisson(lam) in the
    block, lam = q * size, lam + 2 sqrt(lam) - 1 leave ~3 % of trials a
    second pass for large lam, and waste at most one for lam <= 1."""
    lam = q * size
    return min(size, max(1, math.ceil(lam + 2.0 * math.sqrt(lam) - 1.0)))


def _thinned_counts(pb: np.ndarray, q: float, cuts: list[int], trials: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Successes of Bernoulli(pb) below each cut, by thinning: candidates
    sit at geometric(q) gaps (the successes of Bernoulli(q) trials), and
    candidate n is kept when a uniform times q is below pb[n].  Passes run
    until a candidate passes the block: a trial takes at most ~lam + 1.6
    candidates for lam = q |block| <= 1, and ~3 % over lam + 2 sqrt(lam)
    for lam >= 100."""
    size = pb.size
    cols = _pass_width(q, size)
    out = np.zeros((trials, len(cuts)), dtype=np.int64)
    chunk = max(1, _DRAW_BYTES // (_PASS_BYTES * cols))
    for lo in range(0, trials, chunk):
        rows = np.arange(lo, min(lo + chunk, trials))
        last = np.full(rows.size, -1, dtype=np.int64)
        while rows.size:
            # a column per trial, so sums run down contiguous rows; a gap
            # past the block lands past it either way, and clipping keeps
            # the cumulative sum from overflowing int64
            offsets = np.minimum(rng.geometric(q, (cols, rows.size)), size + 1)
            np.cumsum(offsets, axis=0, out=offsets)
            offsets += last
            uniforms = rng.random(offsets.shape)
            uniforms *= q
            # a candidate past the block reads the block's last p, and no cut
            # counts it
            kept = uniforms < pb[np.minimum(offsets, size - 1)]
            for i, cut in enumerate(cuts):
                out[rows, i] += np.count_nonzero(kept & (offsets < cut), axis=0)
            # a trial whose last candidate is inside the block goes on
            more = offsets[-1] < size
            rows, last = rows[more], offsets[-1, more]
    return out


def _bernoulli_counts(p: np.ndarray, trials: int, rng: np.random.Generator,
                      cps: list[int]) -> np.ndarray:
    """Per-trial success counts of independent Bernoulli(p_n), n <= N, at
    each checkpoint N; shape (trials, len(cps)).

    Indices are walked in blocks n in [2^j, 2^(j+1)), cut at len(p) and
    split so that one dense row of a block fits in _DRAW_BYTES; each block
    is thinned or drawn densely by its largest p.  A checkpoint is read off
    inside its block, so the draws do not depend on the checkpoints."""
    longest = max(1, _DRAW_BYTES // _DENSE_BYTES)
    sums = np.empty((trials, len(cps)), dtype=np.int64)
    running = np.zeros(trials, dtype=np.int64)
    start = 0  # 0-based index of the block's first entry
    while start < p.size:
        stop = min(2 * start + 1, start + longest, p.size)
        pb = p[start:stop]
        inside = [j for j, N in enumerate(cps) if start < N <= stop]
        cuts = [cps[j] - start for j in inside]
        if not cuts or cuts[-1] != pb.size:
            cuts.append(pb.size)
        q = float(pb.max())
        if q == 0.0:
            counts = np.zeros((trials, len(cuts)), dtype=np.int64)
        elif q <= _THIN_MAX_P:
            counts = _thinned_counts(pb, q, cuts, trials, rng)
        else:
            counts = _dense_counts(pb, cuts, trials, rng)
        for i, j in enumerate(inside):
            sums[:, j] = running + counts[:, i]
        running += counts[:, -1]
        start = stop
    return sums


# ~16 bytes per (trial, checkpoint) count and ~24 per trial: at most
# ~0.35 GB at the cap
MAX_DIVERGENCE_COUNTS = 1 << 23


def divergence_tail_bound_test(expectations: Sequence[float], trials: int,
                               rng: np.random.Generator,
                               checkpoints: Sequence[int] | None = None) -> DivergenceTestResult:
    """Simulate independent Bernoulli(p_n) and test the tail bound.

    For each checkpoint N and every admissible M (integers with
    1 <= M <= (1/2) sum_{n<=N} p_n) the empirical P{sum <= M} must not exceed
    2/M + 3 sigma.  Expectations of 0 or 1 are allowed ([0, 1] is the
    contract); with all p_n = 0 there is no admissible M and the table is
    empty.

    The counts come from ``_bernoulli_counts``: a block of indices whose
    largest p_n, q, exceeds 1/16 takes one uniform per (trial, n); a
    sparser one is thinned (``_thinned_counts``), at 2 random numbers a
    candidate: harmonic p at N = 10^4 takes 64 a trial, 15 in dense
    blocks.  A block's draws do not depend on the checkpoints, so adding
    one leaves the other rows as they were.  Trials run in chunks whose
    draws and temporaries hold about _DRAW_BYTES, and past them only the
    per-trial counts are kept; more than MAX_DIVERGENCE_COUNTS trials x
    checkpoints is a domain error raised before any allocation.  Only the generator's ``random`` and
    ``geometric`` are used, so any bit generator serves.

    ``expectations`` is read as an array, copied only if it is not already
    a 1-d float array.
    """
    p = np.asarray(expectations, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expectations must form a non-empty 1-d sequence")
    bad = p[~((p >= 0.0) & (p <= 1.0))]
    if bad.size:
        raise ValueError(f"expectations must lie in [0, 1], got {float(bad[0])}")
    trials = _integer(trials, "trials must be an integer, got")
    if trials < 1000:
        raise ValueError("need at least 10^3 trials")
    if checkpoints is None or len(checkpoints) == 0:
        checkpoints = [p.size]
    cps = sorted_checkpoints(checkpoints, upper=p.size)
    if trials * len(cps) > MAX_DIVERGENCE_COUNTS:
        raise ValueError(f"trials x checkpoints = {trials} x {len(cps)}, more than "
                         f"the cap of {MAX_DIVERGENCE_COUNTS}")

    sums = _bernoulli_counts(p, trials, rng, cps)
    rows = []
    for j, (N, mean) in enumerate(zip(cps, prefix_fsums(p, cps))):
        m_max = math.floor(0.5 * mean)
        col = np.sort(sums[:, j])
        for M in range(1, m_max + 1):
            emp = float(np.searchsorted(col, M, side="right")) / trials
            bound = 2.0 / M
            b = min(bound, 1.0)
            sigma = math.sqrt(b * (1.0 - b) / trials)
            ok = emp <= bound + 3.0 * sigma
            rows.append((N, M, bound, sigma, emp, ok))
    return DivergenceTestResult(trials=trials, rows=tuple(rows))


@dataclass(frozen=True)
class DensityReport:
    """Cell occupancy of centers over a delta-net, at two horizons.

    The density surrogate passes when every cell is hit by the full horizon
    and the minimum cell count grew from the half horizon to the full one.
    """

    delta: float
    horizons: tuple[int, int]
    cell_count: int
    counts_half: tuple[int, ...]
    counts_full: tuple[int, ...]

    @property
    def min_counts(self) -> tuple[int, int]:
        mh = min(self.counts_half) if self.counts_half else 0
        mf = min(self.counts_full) if self.counts_full else 0
        return mh, mf

    @property
    def passed(self) -> bool:
        if not self.counts_full or min(self.counts_full) < 1:
            return False
        mh, mf = self.min_counts
        return mf > mh

    def csv_rows(self) -> list[list]:
        expected = self.horizons[1] / self.cell_count if self.cell_count else math.nan
        return [[cell, count, expected, count / expected if expected else math.nan]
                for cell, count in enumerate(self.counts_full)]

    def statistics(self) -> dict:
        return {
            "delta": self.delta,
            "horizons": list(self.horizons),
            "cell_count": self.cell_count,
            "min_counts": list(self.min_counts),
            "counts_full": list(self.counts_full),
            "passed": self.passed,
        }


MAX_DENSITY_CELLS = 1 << 20


def density_check(stream: OmegaStream, delta: float, horizon: int) -> DensityReport:
    """Count centers per cell of a delta-net at horizon and horizon // 2.

    Cells are products of per-factor cells of diameter at most delta (each
    factor's cell_count and stream_cells), indexed row-major.  The indices are
    walked once in chunks cut at both horizons: memory is O(chunk + cells).

    A delta whose cell count exceeds MAX_DENSITY_CELLS, or finer than a
    factor's stream resolves, is a domain error raised before anything is
    drawn or allocated.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    horizon = _integer(horizon, "horizon must be an integer, got")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    space = stream.space
    cells = [factor.cell_count(delta) for factor in space.factors]
    total_cells = math.prod(cells)
    if total_cells > MAX_DENSITY_CELLS:
        raise ValueError(
            f"delta={delta} gives {total_cells} cells over {space.dim} factors, "
            f"more than the cap of {MAX_DENSITY_CELLS}"
        )

    half = horizon // 2
    # counts is rebound, not added to in place, so counts_half stays a snapshot
    counts = counts_half = np.zeros(total_cells, dtype=np.int64)
    for run, N in _checkpoint_ranges(sorted({half, horizon} - {0})):
        ns = _indices(run)
        index = np.ravel_multi_index([factor.stream_cells(stream.seed, i, ns, delta)
                                      for i, factor in enumerate(space.factors)], cells)
        counts = counts + np.bincount(index, minlength=total_cells)
        if N == half:
            counts_half = counts
    return DensityReport(
        delta=delta,
        horizons=(half, horizon),
        cell_count=total_cells,
        counts_half=tuple(counts_half.tolist()),
        counts_full=tuple(counts.tolist()),
    )


@dataclass(frozen=True)
class TailCoverProfile:
    """Cover-sum of a window of rectangles against its series reference.

    For each n the rectangle rect(omega_n, r_n) is covered by cubes whose
    radius is the n-th tuple's radius at the piece of t, and the sum of
    count * (2 * radius)^t over the window is compared with
    2^t * C * sum Phi_{r_n}^s(t), where C = prod_i 4^{s_i} c_i^2.  The cover
    construction guarantees value <= reference.
    """

    t: float
    window: tuple[int, int]
    value: float
    reference: float
    per_n: tuple[tuple[int, int, float, float, float], ...]  # n, count, radius, contribution, phi

    @property
    def ok(self) -> bool:
        return self.value <= self.reference * (1.0 + 1e-12)

    def csv_rows(self) -> list[list]:
        """Per n, the exactly rounded running sums of the contributions and
        of the phi terms, and their ratio; the last statistic is ``value``."""
        values = running_fsums(row[3] for row in self.per_n)
        phis = running_fsums(row[4] for row in self.per_n)
        return [[row[0], v, p, v / p if p else math.nan]
                for row, v, p in zip(self.per_n, values, phis)]

    def statistics(self) -> dict:
        return {
            "t": self.t,
            "window": list(self.window),
            "value": self.value,
            "reference": self.reference,
            "ok": self.ok,
        }


MAX_COVER_WINDOW = 1 << 20


def _checked_window(window) -> tuple[int, int]:
    """A cover window (N0, N1) as ints with 1 <= N0 <= N1 that holds at
    most MAX_COVER_WINDOW rectangles."""
    n0, n1 = (_integer(n, "window ends must be integers, got") for n in window)
    if n0 < 1 or n1 < n0:
        raise ValueError("window must satisfy 1 <= N0 <= N1")
    if n1 - n0 >= MAX_COVER_WINDOW:
        raise ValueError(f"window [{n0}, {n1}] holds {n1 - n0 + 1} rectangles, "
                         f"more than the cap of {MAX_COVER_WINDOW}")
    return n0, n1


def tail_cover_sum(stream: OmegaStream, sched: RadiusSchedule,
                   s: Sequence[float], t: float,
                   window: tuple[int, int]) -> TailCoverProfile:
    """Construct the window's rectangle covers and sum their contributions.

    The window is batched: radius tuples, pieces and cube radii rho come as
    arrays, each factor's centres from one stream draw.  A factor is covered,
    by the greedy of ``cover_rectangle``, only where its radius exceeds rho.
    A side past its factor's diameter covers the whole factor: the greedy
    clamps it there, so domination holds for any radii, from n = 1 on.

    A window longer than MAX_COVER_WINDOW is a domain error raised before
    anything is allocated.  A reference or a contribution past the float
    range, as prefactors near it can give, is a ValueError naming the
    window and t.
    """
    space = stream.space
    sv = _require_matching_regularity(space, s)
    total = math.fsum(sv)
    if not (0.0 <= t <= total):
        raise ValueError(f"t={t} outside [0, {total}]")
    n0, n1 = _checked_window(window)

    c_big = math.prod(4.0**f.s * f.c**2 for f in space.factors)
    ns = np.arange(n0, n1 + 1, dtype=np.int64)
    with np.errstate(over="ignore"):
        phi = np.exp(log_phi_rows(sched.log_radii(ns), sv, float(t))).tolist()

    radii = np.array([sched.radius_tuple(n).values for n in ns.tolist()])
    order = np.argsort(-radii, axis=1, kind="stable")
    piece = np.minimum((np.cumsum(sv[order], axis=1) < t).sum(axis=1), space.dim - 1)
    rows = np.arange(ns.size)
    rho = radii[rows, order[rows, piece]]
    counts = [1] * ns.size
    for i, factor in enumerate(space.factors):
        need = np.flatnonzero(radii[:, i] > rho)
        for j, x, side, r in zip(need.tolist(), stream.factor_coords(i, ns[need]).tolist(),
                                 radii[need, i].tolist(), rho[need].tolist()):
            counts[j] *= len(_sparse_indices(factor, x, side, r, None)[1])
    try:
        reference = 2.0**t * c_big * math.fsum(phi)
        per_n = tuple((n, count, r, count * (2.0 * r) ** t, p)
                      for n, count, r, p in zip(ns.tolist(), counts, rho.tolist(), phi))
        # an infinite contribution makes the sum infinite too
        value = math.fsum(row[3] for row in per_n)
    except OverflowError:
        reference = value = math.inf
    if not max(reference, value) < math.inf:
        raise ValueError(f"window [{n0}, {n1}] at t={t} has cover sums past the float range")
    return TailCoverProfile(
        t=float(t),
        window=(n0, n1),
        value=value,
        reference=reference,
        per_n=per_n,
    )


# ---------------------------------------------------------------------------
# Aggregate verdict
# ---------------------------------------------------------------------------


# verdict thresholds: the largest |slope - target| a growth slope may miss
# by, the band of observed/expected fiber ratios that counts as in band, and
# the share of conclusive seeds that must be in band
SLOPE_TOL = 0.05
RATIO_BAND = (0.25, 4.0)
FIBER_PASS_FRACTION = 0.9


@dataclass(frozen=True)
class VerdictConfig:
    """Tolerance and sizes for dimension_verdict; defaults match the
    acceptance budgets.  The pass thresholds are module constants."""

    tol: float = 1e-9
    fiber_checkpoints: tuple[int, ...] = (1000, 10_000, 100_000)
    cover_window: tuple[int, int] = (1, 128)
    slope_blocks: tuple[int, ...] = (10_000, 100_000, 1_000_000)


# the status of a check from its outcome: passed, failed, or not applicable
_STATUS = {True: "PASS", False: "FAIL", None: "SKIPPED"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIPPED | INCONCLUSIVE
    detail: str

    def as_row(self) -> list:
        return [self.name, self.status, self.detail]


@dataclass(frozen=True)
class VerdictReport:
    predicted_dimension: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def csv_rows(self) -> list[list]:
        return [c.as_row() for c in self.checks]

    def statistics(self) -> dict:
        return {
            "predicted_dimension": self.predicted_dimension,
            "checks": [[c.name, c.status, c.detail] for c in self.checks],
            "passed": self.passed,
        }


def _projected_dimension(power: PowerLawSchedule, sv: np.ndarray) -> float:
    """Closed-form dimension after dropping the coordinate whose radii are
    smallest, the last once coordinates are stably sorted so radii are
    non-increasing (the closed form never reads the prefactors)."""
    keep = np.argsort(np.asarray(power.alphas), kind="stable")[:-1]
    return closed_form_dimension(
        PowerLawSchedule(tuple(power.alphas[i] for i in keep)), sv[keep])


def dimension_verdict(sched: RadiusSchedule, s: Sequence[float],
                      space: ProductSpace, seeds: Sequence[int],
                      config: VerdictConfig | None = None) -> VerdictReport:
    """Aggregate the verifiable ingredients of the dimension formula.

    Emits PASS/FAIL per check: agreement of the two critical-exponent
    methods, tail-cover domination with growth slopes on both sides of t*,
    fiber hit-sum divergence below t*, and the projection inequality.  A
    method disagreement beyond tolerance is reported as a failing check, not
    swallowed.  The cover window is ``cfg.cover_window`` whatever the
    prefactors: a side past its factor's diameter covers the whole factor.
    A window whose cover sums pass the float range raises the ValueError of
    ``tail_cover_sum``, naming the window and t.
    """
    cfg = config or VerdictConfig()
    if len(seeds) == 0:
        raise ValueError("seeds must hold at least one seed")
    streams = [OmegaStream(seed, space) for seed in seeds]
    window = _checked_window(cfg.cover_window)
    sv = _require_matching_regularity(space, s)
    total = math.fsum(sv)
    checks: list[CheckResult] = []

    def check(name: str, ok, detail: str) -> None:
        # ok is True, False or None (PASS, FAIL, SKIPPED), or INCONCLUSIVE
        checks.append(CheckResult(name, _STATUS.get(ok, ok), detail))

    power = sched.power_model

    predicted = critical_exponent_series(sched, sv, cfg.tol)
    if power is not None:
        cf = closed_form_dimension(power, sv)
        agree = abs(cf - predicted) <= cfg.tol
        check("method-agreement", agree, f"series={predicted!r} closed-form={cf!r} tol={cfg.tol}")
        if agree:
            predicted = cf
    else:
        check("method-agreement", None, "no power-law model to cross-check")

    # tail-cover domination on a modest constructed window
    t_probes = sorted({v for v in (0.5 * predicted, predicted,
                                   0.5 * (predicted + total)) if 0.0 < v <= total})
    violations = []
    for t in t_probes:
        prof = tail_cover_sum(streams[0], sched, sv, t, window)
        if not prof.ok:
            violations.append((t, prof.value, prof.reference))
    check("cover-domination", not violations,
          f"window={list(window)} t_probes={[round(t, 6) for t in t_probes]}"
          + (f" violations={violations}" if violations else ""))

    # growth slopes of the series partial sums on both sides of t*
    if power is not None:
        prof = exponent_profile(power, sv)
        t_minus = prof.level_crossing(0.5)
        if t_minus is None:
            t_minus = 0.5 * total
        # both probes' sums come from one walk over the terms' indices
        probes = [t_minus] + ([predicted + 0.75 * (total - predicted)]
                              if predicted < total else [])
        slopes = _growth_slopes(sched, sv, probes, cfg.slope_blocks)
        target = max(0.0, 1.0 - prof.value(t_minus))
        check("divergent-slope", abs(slopes[0] - target) <= SLOPE_TOL,
              f"t={t_minus!r} slope={slopes[0]!r} target={target!r}")
        if len(probes) == 2:
            check("convergent-slope", abs(slopes[1]) <= SLOPE_TOL,
                  f"t={probes[1]!r} slope={slopes[1]!r} target=0.0")
        else:
            check("convergent-slope", None, "series diverges up to total(s); no convergent side")
    else:
        check("divergent-slope", None, "no exponent profile")
        check("convergent-slope", None, "no exponent profile")

    # fiber hit-sum divergence below t*
    d = space.dim
    u_star = predicted - math.fsum(sv[:-1])
    if d >= 2 and u_star > 0.0:
        u = 0.5 * u_star
        anchor = space.center()[: d - 1]
        in_band = 0
        conclusive = 0
        for stream in streams:
            res = fiber_hit_sum(stream, sched, sv, anchor, u, cfg.fiber_checkpoints)
            if res.hit_count == 0:
                continue
            conclusive += 1
            ratio = res.ratio()
            if ratio is not None and RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
                in_band += 1
        if conclusive == 0:
            check("fiber-divergence", "INCONCLUSIVE", f"u={u!r}: zero hits in every window")
        else:
            check("fiber-divergence", in_band / conclusive >= FIBER_PASS_FRACTION,
                  f"u={u!r} in-band {in_band}/{conclusive} over seeds")
    else:
        check("fiber-divergence", None,
              f"t* - sum(s') = {u_star!r} not positive" if d >= 2 else "d = 1")

    # projection inequality on the closed-form outputs
    if power is not None and d >= 2:
        # the closed form re-sorts stably and fsum is exact, so the full
        # schedule's value is cf itself
        full, sub = cf, _projected_dimension(power, sv)
        check("projection-inequality", full >= sub - 1e-12,
              f"full={full!r} projected={sub!r}")
    else:
        check("projection-inequality", None, "needs a power-law model and d >= 2")

    return VerdictReport(predicted_dimension=predicted, checks=tuple(checks))
