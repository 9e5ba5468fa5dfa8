"""Independent oracles used to freeze expected values.

These deliberately avoid the library's evaluation paths: the singular value
function is checked against a brute-force maximisation over a grid of
exponent allocations, its batched log-space kernel against a per-row
argsort evaluation, series convergence against dyadic-block growth of
plain partial sums, and Cantor ball masses against full cylinder
enumeration and against a level-order walk in exact rationals, the sorted
first-fit walk from successor to successor against the one-step-per-point
scan and the searchsorted-jump greedy it replaced, the counter words,
uniforms and bits against the ones whose (seed, lane) key was mixed as
1-element arrays, simulated Bernoulli counts against
the exact Poisson-binomial law, the byte unpacking of ``rng.bits`` against
the shift-and-mask expression it replaced, and the streamed exact sums of
series and fiber hit sums against the materialising ``math.fsum`` routes
they replaced.  Those last oracles share the library's term kernels on
purpose: they check how the terms are summed, not how each is computed.
The chunked density check is held to the whole-horizon count it replaced
in the same way: both read the factors' ``stream_cells``.  The broadcast
power-law log-radii and the interval and circle distance expressions that
the in-place kernels replaced are kept too, as bit-for-bit references of
those kernels (a Cantor distance is the interval's on embedded points),
and so is the per-index tail cover loop, one argsort and one
``cover_rectangle`` per rectangle, as the reference of the batched window.
The streamed fiber hit sum that computes its seed-independent expectation
curves on every call is kept as the reference of the memoised one.  The
probe-net cover check that compares every net point with every centre is
the reference of ``verify_cover``'s nearest-centre search, and the recursive
cylinder walk that builds one CantorPoint per net point is the reference of
the Cantor net's numpy frontier.  The shuffled sparse-set greedy that tests
each candidate against every accepted point is the reference of the one that
tests a few sorted neighbours, and the Cantor stream embedding that adds one
strided column of the ``rng.bits`` matrix per digit, and the density cells
that multiply that matrix's leading columns by powers of 2, are the
references of the ones that read the digits from the hash words' bytes.
The Python loop that embedded one Cantor point's digits is the reference of
``embed_digits``, which runs the row kernel over one column.  The library's
streams give coordinates only, so points are drawn (``sample``) and decoded
from the counter stream (``stream_point``, ``omega``) here.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from limsupdim import rng as crng
from limsupdim.mc import (
    DensityReport,
    FiberSumResult,
    TailCoverProfile,
    _require_matching_regularity,
)
from limsupdim.spaces import Cantor, ProductSpace, cover_rectangle
from limsupdim.svf import (
    _checkpoint_ranges,
    _ExactSum,
    _indices,
    _phi_terms,
    log_phi_rows,
    sorted_checkpoints,
)

GRID = 1000  # allocation grid resolution 1e-3


def allocation_oracle(r, s, t, grid=GRID):
    """max prod r_i^{t_i} over allocations 0 <= t_i <= s_i, sum t_i = t,
    searched on a grid of step 1/grid.

    Instances whose s_i and t are multiples of the step contain the true
    maximising vertex on the grid, so the oracle is then exact up to float
    rounding.
    """
    r = [float(v) for v in r]
    s = [float(v) for v in s]
    S = [round(v * grid) for v in s]
    T = round(float(t) * grid)
    d = len(r)
    if d == 1:
        return r[0] ** (T / grid)
    if d == 2:
        k_lo = max(0, T - S[1])
        k_hi = min(S[0], T)
        k = np.arange(k_lo, k_hi + 1)
        vals = (np.power(r[0], k / grid)
                * np.power(r[1], (T - k) / grid))
        return float(vals.max())
    if d == 3:
        k1 = np.arange(0, min(S[0], T) + 1)
        k2 = np.arange(0, min(S[1], T) + 1)
        K1, K2 = np.meshgrid(k1, k2, indexing="ij")
        K3 = T - K1 - K2
        mask = (K3 >= 0) & (K3 <= S[2])
        if not mask.any():
            raise ValueError("infeasible allocation instance")
        vals = np.where(
            mask,
            np.power(r[0], K1 / grid)
            * np.power(r[1], K2 / grid)
            * np.power(r[2], np.where(mask, K3, 0) / grid),
            -np.inf,
        )
        return float(vals.max())
    raise ValueError("oracle supports d <= 3")


def argsort_log_phi_rows(log_r, s, t):
    """log Phi per row by a stable per-row argsort, row cumsums and a gather.

    The batched kernel in ``limsupdim.svf.log_phi_rows`` does the same float
    operations in the same order without sorting rows, so the two must agree
    bit for bit, signed zeros included.
    """
    log_r = np.atleast_2d(np.asarray(log_r, dtype=float))
    s = np.asarray(s, dtype=float)
    # stable argsort of -log_r == non-increasing radii with index tie-break
    order = np.argsort(-log_r, axis=1, kind="stable")
    log_sorted = np.take_along_axis(log_r, order, axis=1)
    s_sorted = np.take_along_axis(np.broadcast_to(s, log_r.shape), order, axis=1)
    csum_s = np.cumsum(s_sorted, axis=1)
    csum_sl = np.cumsum(s_sorted * log_sorted, axis=1)
    # leftmost piece i with csum_s[i] >= t
    piece = np.minimum((csum_s < t).sum(axis=1), log_r.shape[1] - 1)
    rows = np.arange(log_r.shape[0])
    prev_s = np.where(piece > 0, csum_s[rows, piece - 1], 0.0)
    prev_sl = np.where(piece > 0, csum_sl[rows, piece - 1], 0.0)
    return prev_sl + (t - prev_s) * log_sorted[rows, piece]


def broadcast_log_radii(sched, ns):
    """log r_{n,i} = log kappa_i - alpha_i log n of a power-law schedule as
    one (d, N) broadcast expression, transposed to (N, d).
    ``PowerLawSchedule.log_radii`` fills one column-major array column by
    column with the same float operations, so the two must agree bit for
    bit."""
    logn = np.log(np.asarray(ns, dtype=float))[None, :]
    return (np.log(sched.coefficients)[:, None]
            - np.asarray(sched.alphas)[:, None] * logn).T


def interval_distance(coords, y):
    """|x - y| by two plain array expressions."""
    return np.abs(coords - float(y))


def circle_distance(coords, y):
    """The circle's arc distance, min(delta, 1 - delta) with
    delta = |x - y| mod 1, each step a new array."""
    delta = np.abs(coords - float(y)) % 1.0
    return np.minimum(delta, 1.0 - delta)


def dyadic_block_divergence(term, t, levels=(10, 12, 14, 16)):
    """Classify sum_n term(n, t) as divergent (True) or convergent (False)
    from the growth of dyadic blocks sum_{2^k <= n < 2^{k+1}}.

    A series with regularly varying terms diverges iff the block sums do not
    decay geometrically.
    """
    blocks = []
    for k in levels:
        ns = np.arange(2**k, 2 ** (k + 1))
        blocks.append(float(np.sum(term(ns, t))))
    ratios = [b2 / b1 for b1, b2 in zip(blocks, blocks[1:]) if b1 > 0]
    if not ratios:
        return False
    # block sums of n^-e scale like 2^{k(1-e)}: consecutive ratios sit at
    # 2^{1-e}, so divergence (e <= 1) shows as a last ratio >= 1
    return ratios[-1] >= 1.0 - 1e-9


def powerlaw_phi_term(alphas, s, kappas=None):
    """Direct per-term Phi for a power-law schedule, via explicit allocation
    maximisation on sorted radii (no shared code with the library)."""
    alphas = [float(a) for a in alphas]
    kappas = [1.0] * len(alphas) if kappas is None else [float(k) for k in kappas]
    s = [float(v) for v in s]

    def term(ns, t):
        out = np.empty(len(ns), dtype=float)
        for j, n in enumerate(ns):
            radii = [k * float(n) ** -a for a, k in zip(alphas, kappas)]
            pairs = sorted(zip(radii, s), key=lambda p: -p[0])
            remaining = t
            log_val = 0.0
            for radius, cap in pairs:
                take = min(cap, remaining)
                log_val += take * math.log(radius)
                remaining -= take
                if remaining <= 0:
                    break
            out[j] = math.exp(log_val)
        return out

    return term


def cantor_mass_bruteforce(space, x, r, depth=10):
    """Measure of the ball by enumerating all 2^depth cylinders.

    A cylinder entirely inside (outside) the interval contributes all (none)
    of its mass; straddling cylinders contribute half, giving an error of at
    most 2 * 2^-depth (used with tolerance in tests, exact when interval
    endpoints align with cylinder endpoints at the given depth).
    """
    lam = space.lam
    a, b = space.embed(x) - r, space.embed(x) + r
    mass = 0.0
    length = lam**depth
    for digits in itertools.product((0, 1), repeat=depth):
        lo = space.embed_digits(digits)
        hi = lo + length
        if a <= lo and hi <= b:
            mass += 2.0**-depth
        elif lo < b and hi > a and not (a <= lo and hi <= b):
            mass += 2.0 ** -(depth + 1)
    return mass


def exact_cantor_mass(space, x, r, below=64):
    """mu(B(x, r)) on C(lam) in exact rationals, as a Fraction.

    lam and r are read as the exact values of their floats (r may also be a
    Fraction), and x is the exact digit point sum_k d_k (1 - lam) lam^k.
    The cylinders are walked level by level in integers: every end and
    length is scaled by one common denominator, so no step rounds, and at
    most two cylinders of a depth are partial.  A cylinder still partial
    ``below`` levels under r's scale (the first depth k with lam^k <= r)
    weighs half its mass.
    """
    lam, r = Fraction(space.lam), Fraction(r)
    if r <= 0:
        return Fraction(0)
    cap = max(0, math.ceil(math.log(r) / math.log(lam))) + below
    # lam = p / q, and every length is scaled by q^n * r's denominator
    p, q = lam.numerator, lam.denominator
    n = max(cap, len(x.digits))
    centre, power = 0, 1  # by Horner: sum_k d_k p^k q^(m - 1 - k) over m digits
    for d in x.digits:
        centre, power = centre * q + d * power, power * p
    centre *= (q - p) * q ** (n - len(x.digits)) * r.denominator
    radius = r.numerator * q**n
    a, b = centre - radius, centre + radius
    units, nodes, length = 0, [0], q**n * r.denominator
    for depth in range(cap + 1):
        child = length * p // q
        partial = []
        for lo in nodes:
            hi = lo + length
            if b < lo or hi < a:
                continue
            if a <= lo and hi <= b:
                units += 1 << (cap + 1 - depth)
            elif depth == cap:
                units += 1
            else:
                partial += [lo, hi - child]
        nodes, length = partial, child
    return Fraction(units, 1 << (cap + 1))


def loop_embed_digits(space, digits):
    """The embedding of one Cantor point's digits by a Python loop: each
    digit times its weight, added to a float in digit order."""
    value = 0.0
    for d, w in zip(digits, cantor_weights(space, len(digits)).tolist()):
        value = value + d * w
    return value


def cantor_weights(space, depth):
    """Embedding weights (1 - lam) lam^k of the digit positions k < depth,
    from the space's table of powers (0.0 past its end)."""
    return (1.0 - space.lam) * space._powers(depth)


def sample(space, rng):
    """A random point of a factor kind or a product from a numpy Generator:
    a uniform float in [0, 1), or the CantorPoint of default_depth fair
    digits; a product's point is the tuple of its factors' points."""
    if isinstance(space, ProductSpace):
        return tuple(sample(f, rng) for f in space.factors)
    if isinstance(space, Cantor):
        return space.point(rng.integers(0, 2, size=space.default_depth))
    return float(rng.random())


def stream_point(space, seed, lane, n):
    """The counter stream's point at index n: the float ``stream_coords``
    gives, or on C(lam) the CantorPoint whose digits are the low
    default_depth bits of the hash word, lowest first (``rng.bits``)."""
    if isinstance(space, Cantor):
        digits = crng.bits(seed, lane, np.array([n]), space.default_depth)[0]
        return space.point(digits.tolist())
    return float(space.stream_coords(seed, lane, np.array([n]))[0])


def omega(stream, n):
    """The n-th centre of an ``OmegaStream`` as a tuple of factor points."""
    return tuple(stream_point(f, stream.seed, i, n)
                 for i, f in enumerate(stream.space.factors))


def scan_greedy_sorted(space, coords, points, r):
    """First-fit greedy over a sorted net, one Python step per net point:
    a candidate is accepted when its coordinate minus the latest accepted
    one is >= r and, on a metric that wraps around, it lies at least r from
    the first accepted point (one ``distances`` call over the net) and from
    the latest (one ``distance`` per candidate that gets that far).
    Returns the accepted indices."""
    vals = coords.tolist()
    if not vals:
        return []
    accepted = [0]
    prev = vals[0]
    wraps = space.period is not None
    if wraps:
        ys = np.asarray(points, dtype=float)
        clear = (~(space.distances(ys, ys[0]) < r)).tolist()
    for j in range(1, len(vals)):
        if vals[j] - prev >= r and not (wraps and (not clear[j] or space.distance(
                points[j], points[accepted[-1]]) < r)):
            accepted.append(j)
            prev = vals[j]
    return accepted


def searchsorted_greedy(space, coords, points, r):
    """First-fit greedy over a sorted net that jumps by np.searchsorted;
    returns the accepted indices.

    The jump aims 8 ulps below prev + r and then advances one candidate at a
    time while ``coords[j] - prev < r``, so it skips no candidate that
    ``scan_greedy_sorted`` would accept; on a metric that wraps around, a
    candidate is also rejected when ``space.distance`` puts it closer than r
    to the first or the latest accepted point.  The two must accept the same
    points.
    """
    if coords.size == 0:
        return []
    accepted = [0]
    prev = coords[0]
    j = 1
    n = coords.size
    while j < n:
        target = prev + r
        jump = int(np.searchsorted(
            coords, target - 8.0 * np.spacing(max(1.0, abs(target))), side="left"
        ))
        j = max(j, jump)  # never move backwards past a rejected candidate
        while j < n and coords[j] - prev < r:
            j += 1
        if j >= n:
            break
        if space.period is not None and (
                space.distance(points[j], points[accepted[0]]) < r
                or space.distance(points[j], points[accepted[-1]]) < r):
            j += 1
            continue
        accepted.append(j)
        prev = coords[j]
        j += 1
    return accepted


def every_pair_shuffled_greedy(space, coords, points, r, seed):
    """Greedy in random candidate order with full pairwise distance checks:
    each candidate against every accepted point.  The order sorts the net
    indices by their counter words keyed (seed, lane 0) at 1..n, ties by
    index.  Returns the points."""
    words = crng.words(seed, 0, np.arange(1, coords.size + 1)).tolist()
    order = sorted(range(coords.size), key=lambda i: (words[i], i))
    accepted_coords = []
    accepted = []
    for idx in order:
        if not accepted:
            ok = True
        else:
            d = space.distances(np.asarray(accepted_coords), space.coordinate(points[idx]))
            ok = bool(np.all(d >= r))
        if ok:
            accepted.append(points[idx])
            accepted_coords.append(coords[idx])
    return accepted


def harmonic_number(N):
    return math.fsum(1.0 / n for n in range(1, N + 1))


def poisson_binomial_pmf(p, kmax):
    """P{S = k} for k = 0..kmax, S a sum of independent Bernoulli(p_n).

    The O(N * kmax) recursion over n (Hong 2013, *CSDA*): adding variable n
    maps pmf[k] to pmf[k] (1 - p_n) + pmf[k - 1] p_n.  Entries above kmax
    never feed entries at or below it, so truncating there is exact.
    """
    pmf = np.zeros(kmax + 1)
    pmf[0] = 1.0
    for pn in np.asarray(p, dtype=float):
        pmf[1:] = pmf[1:] * (1.0 - pn) + pmf[:-1] * pn
        pmf[0] *= 1.0 - pn
    return pmf


def column_stream_coords(space, seed, lane, ns):
    """Cantor stream coordinates from the (len, depth) matrix of
    ``rng.bits``: one strided column per digit, times its weight, added in
    digit order."""
    value = 0.0
    columns = crng.bits(seed, lane, ns, space.default_depth).T
    for d, w in zip(columns, cantor_weights(space, space.default_depth).tolist()):
        value = value + d * w
    return value


def bits_stream_cells(space, seed, lane, ns, depth):
    """Cantor density cells from the (len, depth) matrix of ``rng.bits``:
    the leading ``depth`` digits as a binary number, first digit highest,
    by an int64 matrix product."""
    digits = crng.bits(seed, lane, ns, space.default_depth)[:, :depth]
    return digits.astype(np.int64) @ (1 << np.arange(depth - 1, -1, -1))


def _array_mix(z):
    """splitmix64 finalizer, elementwise, with a fresh array per step."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def array_key_words(seed, lane, indices):
    """``rng.words`` with its (seed, lane) key mixed as 1-element uint64
    arrays and every mixing step a new array."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.uint64))
    key = _array_mix(np.array([seed & ((1 << 64) - 1)], dtype=np.uint64))
    lane_salt = np.array([lane + 1], dtype=np.uint64) * np.uint64(0xD6E8FEB86659FD93)
    key = _array_mix(key ^ lane_salt)
    return _array_mix(key[0] ^ (idx * np.uint64(0x9E3779B97F4A7C15)))


def array_key_uniform01(seed, lane, indices):
    """``rng.uniform01`` from ``array_key_words``: shift, cast, scale."""
    w = array_key_words(seed, lane, indices)
    return (w >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


def array_key_bits(seed, lane, indices, nbits):
    """``rng.bits`` from ``array_key_words``."""
    w = array_key_words(seed, lane, indices).astype("<u8", copy=False)
    return np.unpackbits(w.view(np.uint8).reshape(-1, 8), axis=1, count=nbits,
                         bitorder="little").view(np.int8)


def one_shot_bits(w, nbits):
    """The low ``nbits`` bits of each uint64 word as a (len, nbits) int8 0/1
    array, shifted and masked in two full (len, nbits) uint64 matrices."""
    shifts = np.arange(nbits, dtype=np.uint64)
    return ((w[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8)


def memoryview_prefix_fsums(values, ends):
    """math.fsum of values[:end] for each end, every prefix summed from the
    first value through one memoryview."""
    view = memoryview(np.ascontiguousarray(values, dtype=float))
    return [math.fsum(view[:end]) for end in ends]


def materialised_phi_terms(sched, s, t, n0, n1):
    """Phi_{r_n}^s(t) for n in [n0, n1], all held in one array, evaluated
    2^18 indices at a time."""
    chunk = 1 << 18
    out = np.empty(n1 - n0 + 1, dtype=float)
    pos = 0
    for start in range(n0, n1 + 1, chunk):
        stop = min(start + chunk - 1, n1)
        ns = np.arange(start, stop + 1, dtype=np.int64)
        np.exp(log_phi_rows(sched.log_radii(ns), s, t), out=out[pos: pos + ns.size])
        pos += ns.size
    return out


def materialised_partial_sums(sched, s, t, Ns):
    """S_N(t) at each checkpoint: every term materialised, then fsum of
    each prefix.  ``limsupdim.svf.partial_sums`` streams the same terms
    through an exact accumulator, so the two must agree bit for bit."""
    order = sorted_checkpoints(Ns)
    sv = np.asarray(s, dtype=float)
    terms = materialised_phi_terms(sched, sv, float(t), 1, order[-1])
    by_N = dict(zip(order, memoryview_prefix_fsums(terms, order)))
    return [by_N[int(N)] for N in Ns]


def materialised_fiber_hit_sum(stream, sched, s, anchor, u, checkpoints):
    """The fiber hit sum with every per-index array held at full length and
    each curve summed by fsum of its prefixes (no domain checks).
    ``limsupdim.mc.fiber_hit_sum`` streams the same terms in chunks, so the
    two must agree bit for bit."""
    space = stream.space
    sv = np.asarray(s, dtype=float)
    anchor = tuple(anchor)
    cps = sorted_checkpoints(checkpoints)
    ns = np.arange(1, cps[-1] + 1, dtype=np.int64)
    radii = np.exp(sched.log_radii(ns))
    hits = np.ones(ns.size, dtype=bool)
    for i, factor in enumerate(space.factors[:-1]):
        dist = factor.distances(stream.factor_coords(i, ns), factor.coordinate(anchor[i]))
        hits &= dist <= radii[:, i]
    weights = radii[:, -1] ** u
    exact_terms = weights.copy()
    for i, factor in enumerate(space.factors[:-1]):
        exact_terms = exact_terms * factor.ball_measure_array(anchor[i], radii[:, i])
    t_u = min(math.fsum(sv[:-1]) + u, math.fsum(sv))
    c_const = math.prod(1.0 / f.c for f in space.factors[:-1])
    lower = [c_const * v for v in materialised_partial_sums(sched, sv, t_u, cps)]
    return FiberSumResult(
        anchor=anchor,
        u=float(u),
        checkpoints=tuple(cps),
        partials=tuple(zip(cps, memoryview_prefix_fsums(np.where(hits, weights, 0.0), cps))),
        expectation_exact=tuple(zip(cps, memoryview_prefix_fsums(exact_terms, cps))),
        expectation_lower=tuple(zip(cps, lower)),
        hit_count=int(np.count_nonzero(hits)),
    )


def unmemoised_fiber_hit_sum(stream, sched, s, anchor, u, checkpoints):
    """The streamed fiber hit sum with no memo: every call walks all three
    curves.  ``limsupdim.mc.fiber_hit_sum`` serves the exact and lower
    curves from a memo when their key was seen before, so the two must
    agree bit for bit, whatever the memo holds.

    Requires d >= 2, u in [0, s_d], radii non-increasing per index (relabel
    the factors first if not), and an anchor in the first d-1 factors.

    The indices are walked once, in chunks of the svf module's _CHUNK cut at
    the checkpoints, and each chunk's log-radii are computed once: they give
    the lower curve's terms Phi(t_u), then, exponentiated in place, the radii,
    hits, weights and exact terms.  Three exact accumulators
    (``svf._ExactSum``) take the observed, exact and lower curves, so memory
    is O(chunk) whatever the horizon is, and each sum equals math.fsum of its
    terms (the lower curve is partial_sums at t_u times c).
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

    t_u = min(math.fsum(sv[:-1]) + u, math.fsum(sv))
    c_const = math.prod(1.0 / f.c for f in space.factors[:-1])
    observed, expected, series = _ExactSum(), _ExactSum(), _ExactSum()
    partials, exact, lower, hit_count = [], [], [], 0
    for run, N in _checkpoint_ranges(cps):
        ns = _indices(run)
        log_r = sched.log_radii(ns)
        series.add(_phi_terms(log_r, sv, t_u))
        radii = np.exp(log_r, out=log_r)
        hits = np.ones(ns.size, dtype=bool)
        for i, factor in enumerate(space.factors[:-1]):
            # coordinates and distances die here, so the arrays made after
            # them reuse their memory
            hits &= factor.distances(stream.factor_coords(i, ns),
                                     factor.coordinate(anchor[i])) <= radii[:, i]
        weights = radii[:, -1] ** u
        exact_terms = weights
        for i, factor in enumerate(space.factors[:-1]):
            # a prefactor can make a radius wider than 2 * diameter, and a
            # ball that wide is the whole factor: with the hits taken, the
            # kernel gets the radii clipped in place
            wide = np.minimum(radii[:, i], 2.0 * factor.diameter, out=radii[:, i])
            exact_terms = exact_terms * factor.ball_measure_array(anchor[i], wide)
        # only the hit terms are added: the sums are exact and +0.0 terms
        # add nothing, so each equals the sum of the zero-filled terms
        observed.add(weights[hits])
        expected.add(exact_terms)
        hit_count += int(np.count_nonzero(hits))
        if N is not None:
            partials.append((N, observed.value()))
            exact.append((N, expected.value()))
            lower.append((N, c_const * series.value()))
    return FiberSumResult(
        anchor=anchor,
        u=float(u),
        checkpoints=tuple(cps),
        partials=tuple(partials),
        expectation_exact=tuple(exact),
        expectation_lower=tuple(lower),
        hit_count=hit_count,
    )


def materialised_density_counts(stream, delta, horizon):
    """The density report with the cell of every index up to the horizon
    held in one array, built factor by factor as index * count + cell, and
    both horizons counted by bincount of a prefix (no domain checks).
    ``limsupdim.mc.density_check`` counts the same cells chunk by chunk, so
    the two must agree exactly."""
    factors = stream.space.factors
    cells = [factor.cell_count(delta) for factor in factors]
    total_cells = math.prod(cells)
    ns = np.arange(1, horizon + 1)
    index = np.zeros(horizon, dtype=np.int64)
    for i, (factor, count) in enumerate(zip(factors, cells)):
        index = index * count + factor.stream_cells(stream.seed, i, ns, delta)
    half = horizon // 2
    return DensityReport(
        delta=delta,
        horizons=(half, horizon),
        cell_count=total_cells,
        counts_half=tuple(np.bincount(index[:half], minlength=total_cells).tolist()),
        counts_full=tuple(np.bincount(index, minlength=total_cells).tolist()),
    )


def per_n_tail_cover_sum(stream, sched, s, t, window):
    """The tail cover profile built one rectangle at a time: each index
    draws its centre, sorts its radius tuple and runs ``cover_rectangle``
    (no domain checks).  ``limsupdim.mc.tail_cover_sum`` batches the window,
    so the two must agree bit for bit."""
    space = stream.space
    sv = np.asarray(s, dtype=float)
    n0, n1 = window
    c_big = math.prod(4.0**f.s * f.c**2 for f in space.factors)
    ns = np.arange(n0, n1 + 1, dtype=np.int64)
    phi = np.exp(log_phi_rows(sched.log_radii(ns), sv, float(t)))
    per_n = []
    for offset, n in enumerate(ns.tolist()):
        radii = sched.radius_tuple(n)
        vals = np.asarray(radii.values)
        order = np.argsort(-vals, kind="stable")
        piece = min(int((np.cumsum(sv[order]) < t).sum()), len(vals) - 1)
        rho = float(vals[order[piece]])
        report = cover_rectangle(space, omega(stream, n), radii, rho)
        per_n.append((n, report.count, rho, report.count * (2.0 * rho) ** t,
                      float(phi[offset])))
    return TailCoverProfile(
        t=float(t),
        window=(n0, n1),
        value=math.fsum(row[3] for row in per_n),
        reference=2.0**t * c_big * math.fsum(phi),
        per_n=tuple(per_n),
    )


def every_centre_verify_cover(space, report):
    """``verify_cover`` by one ``distances`` pass over the whole net per
    centre, until the net is covered.  The library tests its nearest sorted
    centres first, so the two must give the same verdict on every cover."""
    if report.count > report.bound * (1.0 + 1e-12):
        return False
    slack = 16.0 * np.spacing(max(1.0, report.radius))
    factors = space.factors if isinstance(space, ProductSpace) else (space,)
    center = report.center if isinstance(space, ProductSpace) else (report.center,)
    for factor, x_i, R_i, centers in zip(factors, center, report.target_radii,
                                         report.factor_centers):
        coords = factor.net(factor.embed(x_i), min(R_i, factor.diameter),
                            report.radius / 4.0)[0]
        if coords.size == 0:
            continue
        covered = np.zeros(coords.size, dtype=bool)
        for c in centers:
            covered |= factor.distances(coords, factor.coordinate(c)) <= report.radius + slack
            if covered.all():
                break
        if not covered.all():
            return False
    return True


def recursive_cylinders_in(space, a, b, depth):
    """Digit prefixes of the depth-``depth`` cylinders of a Cantor space
    meeting [a, b], by a depth-first walk, left child first."""
    out = []

    def recurse(lo, d, prefix):
        hi = lo + space._pow[d]
        if b < lo or hi < a:
            return
        if d == depth:
            out.append(prefix)
            return
        recurse(lo, d + 1, prefix + (0,))
        recurse(lo + space._pow[d] - space._pow[d + 1], d + 1, prefix + (1,))

    recurse(0.0, 0, ())
    return out


def recursive_cantor_net(space, x0, R, resolution):
    """A Cantor probe net with one CantorPoint built per cylinder meeting
    the ball, filtered to the ball and stably sorted by value (no domain
    checks).  ``Cantor.net`` must give the same coordinates and points."""
    depth = 0
    while space._pow[depth] > resolution:
        depth += 1
    x = space.embed(x0)
    pts = [space.point(p) for p in recursive_cylinders_in(space, x - R, x + R, depth)]
    pts = [p for p in pts if abs(p.value - x) <= R]
    pts.sort(key=lambda p: p.value)
    return np.array([p.value for p in pts], dtype=float), pts
