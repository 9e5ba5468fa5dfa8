import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsupdim import (
    Cantor,
    CantorPoint,
    Circle,
    Interval,
    OmegaStream,
    PowerLawSchedule,
    ProductSpace,
    cover_ball,
    cover_rectangle,
    max_sparse_subset,
    sparse_bounds,
    verify_cover,
)
from limsupdim import rng as crng, spaces, svf
from limsupdim.spaces import _clashes, _greedy_shuffled, _greedy_sorted, factor_from_token

from oracles import (
    bits_stream_cells,
    cantor_mass_bruteforce,
    circle_distance,
    definition_radii,
    column_stream_coords,
    every_pair_shuffled_greedy,
    every_centre_verify_cover,
    exact_cantor_mass,
    interval_distance,
    loop_embed_digits,
    recursive_cantor_net,
    recursive_cylinders_in,
    sample,
    scan_greedy_sorted,
    searchsorted_greedy,
    stream_point,
)

ALL_KINDS = [Interval(), Circle(), Cantor(1 / 3), Cantor(0.25), Cantor(0.4)]


def probe_points(space, rng, count=6):
    pts = [sample(space, rng) for _ in range(count)]
    if isinstance(space, Cantor):
        pts += [space.point(()), space.point((1,) * 8), space.point((0, 1) * 4)]
    elif isinstance(space, Interval):
        pts += [0.0, 1.0, 0.5]
    else:
        pts += [0.0, 0.25, 0.99]
    return pts


def _net(space, x0, R, resolution):
    """The probe net about the point x0: its coordinates and every point,
    decoded by the net's ``take``."""
    coords, take = space.net(space.embed(x0), R, resolution)
    return coords, take(range(coords.size))


# ---------------------------------------------------------------------------
# regularity certification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", ALL_KINDS, ids=lambda s: repr(s))
def test_regularity_constants_certified(space, rng):
    for x in probe_points(space, rng):
        for k in range(0, 13):
            r = space.diameter * 2.0**-k
            mu = space.ball_measure(x, r)
            assert mu >= r**space.s / space.c * (1 - 1e-12)
            assert mu <= space.c * r**space.s * (1 + 1e-12)
        # top of the admissible radius range
        r = 2.0 * space.diameter
        mu = space.ball_measure(x, r)
        assert mu == pytest.approx(1.0)
        assert mu >= r**space.s / space.c * (1 - 1e-12)


def test_ball_measure_interval_examples(interval):
    assert interval.ball_measure(0.5, 0.25) == 0.5
    assert interval.ball_measure(0.0, 0.25) == 0.25
    assert interval.ball_measure(0.7, 1e-17) == 2e-17
    assert math.copysign(1.0, interval.ball_measure(-0.0, -0.0)) == 1.0


def test_ball_measure_circle_wraps(circle):
    assert circle.ball_measure(0.1, 0.2) == pytest.approx(0.4)
    assert circle.ball_measure(0.9, 0.6) == pytest.approx(1.0)


def test_ball_measure_cantor_first_cylinder(cantor_third):
    left = cantor_third.point(())
    assert cantor_third.ball_measure(left, 1 / 3) == pytest.approx(0.5, abs=1e-15)


# coordinates below 0, inside [0, 1] and above 1, signed zeros included;
# then magnitudes near 2^52, 2^53 and 1e17, where |x - y| has no fraction
# left, and subnormals, where it lies far below one ulp of 1
_HUGE = st.one_of(st.floats(2.0**52 - 8.0, 2.0**52 + 8.0),
                  st.floats(2.0**53 - 8.0, 2.0**53 + 8.0),
                  st.sampled_from([1e17]))
_COORDS = st.one_of(
    st.floats(-3.0, 4.0),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0]),
    st.builds(lambda v, sign: sign * v, _HUGE, st.sampled_from([1.0, -1.0])),
    st.floats(-2.0**-1022, 2.0**-1022),
)


@pytest.mark.parametrize("space, oracle", [
    (Interval(), interval_distance), (Circle(), circle_distance),
], ids=["interval", "circle"])
@settings(max_examples=200, deadline=None)
@given(coords=st.lists(_COORDS, min_size=1, max_size=50), y=_COORDS)
def test_distance_to_array_bit_identical_to_oracle(space, oracle, coords, y):
    # the distances from an array of coordinates to one point, and the
    # scalar distance of each pair, which is a one-element array's
    coords = np.array(coords)
    given_coords = coords.copy()
    got = space.distances(coords, space.coordinate(y))
    want = oracle(coords, y)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(coords, given_coords)
    for x, w in zip(coords.tolist(), want):
        d = space.distance(x, y)
        assert type(d) is float
        assert np.array([d]).tobytes() == oracle(np.array([x]), y).tobytes() == w.tobytes()


@settings(max_examples=100, deadline=None)
@given(coords=st.lists(_COORDS, min_size=1, max_size=50),
       digits=st.lists(st.integers(0, 1), max_size=20))
def test_cantor_distance_to_array_is_the_interval_one_on_embedded_points(coords, digits):
    space = Cantor(1 / 3)
    y = space.point(digits)
    got = space.distances(np.array(coords), space.coordinate(y))
    want = interval_distance(np.array(coords), space.embed(y))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("space", [Interval(), Circle(), Cantor(0.3)],
                         ids=["interval", "circle", "cantor"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_elementwise_distances_are_distance_to_array_bit_for_bit(space, data):
    # verify_cover reads the metric through distances: one coordinate array
    # against another, against one centre, and one coordinate against all,
    # each entry the scalar distance of its pair
    points = (st.lists(st.integers(0, 1), max_size=40).map(space.point)
              if isinstance(space, Cantor) else _COORDS)
    xs = data.draw(st.lists(points, min_size=1, max_size=30), label="xs")
    ys = data.draw(st.lists(points, min_size=len(xs), max_size=len(xs)), label="ys")
    coords = np.array([space.coordinate(x) for x in xs])
    yc = np.array([space.coordinate(y) for y in ys])
    want = np.array([space.distance(x, y) for x, y in zip(xs, ys)])
    got = space.distances(coords, yc)
    assert got.tobytes() == want.tobytes()
    assert space.distances(coords, yc[0]).tobytes() == np.array(
        [space.distance(x, ys[0]) for x in xs]).tobytes()
    column = np.array([space.distance(xs[0], y) for y in ys])
    assert space.distances(coords[0], yc).tobytes() == column.tobytes()


def _centres(space):
    """Stream points, and for Cantor digit points and the two ends (0, and
    the left end of the last cylinder of the sampling depth), else the ends
    of [0, 1], a few fixed points and any coordinate."""
    stream = st.builds(lambda seed, n: stream_point(space, seed, 0, n),
                       st.integers(0, 2**31), st.integers(1, 10**6))
    if isinstance(space, Cantor):
        return st.one_of(
            stream,
            st.lists(st.integers(0, 1), max_size=space.default_depth + 4).map(space.point),
            st.sampled_from([space.point(()), space.point((1,) * space.default_depth)]),
        )
    return st.one_of(stream, st.sampled_from([0.0, 1.0, 0.5, 0.7]), st.floats(0.0, 1.0))


@pytest.mark.parametrize("space", [Interval(), Circle()] + [
    Cantor(lam) for lam in (0.01, 0.05, 1 / 3, 0.45, 0.49)],
    ids=lambda s: f"cantor-{s.lam:.3g}" if s.params else s.kind)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ball_measure_ahlfors_bounds_at_every_radius(space, data):
    # radii log-uniform from the least subnormal to 2 * diameter
    x = data.draw(_centres(space), label="x")
    r_max = 2.0 * space.diameter
    log_r = data.draw(st.floats(math.log(5e-324), math.log(r_max)), label="log r")
    r = min(max(math.exp(log_r), 5e-324), r_max)
    mu = space.ball_measure(x, r)
    assert r**space.s / space.c <= mu <= space.c * r**space.s
    assert mu <= 1.0


@pytest.mark.parametrize("space", ALL_KINDS, ids=lambda s: repr(s))
@pytest.mark.parametrize("centre", [math.nan, math.inf, -math.inf])
def test_ball_measure_refuses_a_non_finite_centre(space, centre):
    with pytest.raises(ValueError):
        space.ball_measure(centre, 0.1)


def test_ball_measure_rejects_negative_radius(interval):
    with pytest.raises(ValueError):
        interval.ball_measure(0.5, -0.1)


@pytest.mark.parametrize("lam", [1 / 3, 0.25, 0.4])
def test_cantor_mass_matches_bruteforce_enumeration(lam, rng):
    space = Cantor(lam)
    for _ in range(8):
        x = sample(space, rng)
        k = int(rng.integers(0, 8))
        # radii aligned with depth-k cylinder endpoints resolve exactly at
        # enumeration depth 10
        r = lam**k
        exact = space.ball_measure(x, r)
        brute = cantor_mass_bruteforce(space, x, r, depth=10)
        assert exact == pytest.approx(brute, abs=2 * 2.0**-10)


def _cylinder_ends(space, digits):
    """Left and right ends of each cylinder along a digit string, in floats
    (``hi = lo + lam^d``, ``right_lo = lo + lam^d - lam^(d+1)``)."""
    pw = np.power(space.lam, np.arange(62))
    lo, ends = 0.0, [0.0, 1.0]
    for depth, digit in enumerate(digits[:60]):
        if digit:
            lo = lo + pw[depth] - pw[depth + 1]
        ends += [lo, lo + pw[depth + 1]]
    return ends


_SHIFT = Fraction(1, 2**40)
_SLACK = Fraction(1, 2**50)


def _assert_exact_masses(space, x, rs, masses):
    """At a normal radius r the mass lies within 2^-50 of the exact masses
    at r(1 -+ 2^-40): the kernel rounds distances, not masses.  A subnormal
    radius has too few bits for that, and only the Ahlfors bound holds."""
    for r, mu in zip(np.asarray(rs).tolist(), np.asarray(masses).tolist()):
        if r >= 2.0**-1022:
            lo = exact_cantor_mass(space, x, Fraction(r) * (1 - _SHIFT))
            hi = exact_cantor_mass(space, x, Fraction(r) * (1 + _SHIFT))
            assert lo * (1 - _SLACK) <= Fraction(mu) <= hi * (1 + _SLACK), (r, mu)
        else:
            assert r**space.s / space.c <= mu <= space.c * r**space.s, (r, mu)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cantor_masses_within_the_exact_bracket(data):
    lam = data.draw(st.floats(0.01, 0.49), label="lam")
    space = Cantor(lam)
    digits = data.draw(st.lists(st.integers(0, 1), max_size=space.default_depth + 4),
                       label="digits")
    x = space.point(digits)
    special = [0.0, 5e-324, 1.0 - lam, 1.0, 2.0]
    special += [lam**k for k in data.draw(
        st.lists(st.integers(0, 61), max_size=4), label="k")]
    special += [10.0**e for e in data.draw(
        st.lists(st.floats(-20.0, 0.3), max_size=6), label="log10 r")]
    # radii putting x - r or x + r exactly on an end of one of x's own
    # cylinders: x - e is exact once e >= x / 2, as deep ends are
    ends = _cylinder_ends(space, digits)
    special += [abs(x.value - e) for e in data.draw(
        st.lists(st.sampled_from(ends), max_size=4), label="ends")]
    rs = np.array([r for r in special if r <= 2.0])
    got = space.ball_measure_array(x, rs)
    _assert_exact_masses(space, x, rs, got)
    # trailing zero digits spell the same point
    padded = space.ball_measure_array(space.point(digits + [0, 0]), rs)
    assert np.array_equal(padded.view(np.int64), got.view(np.int64))


def test_cantor_masses_on_cylinder_ends_and_below_one_ulp():
    # ends met exactly, deep cylinders that collapse onto one float for
    # lam near 1/2, and radii far below one ulp of the centre
    for lam in (0.2, 1 / 3, 0.45, 0.49):
        space = Cantor(lam)
        digits = ((1, 0, 1, 1, 0) * 20)[:space.default_depth + 4]
        x = space.point(digits)
        ends = _cylinder_ends(space, digits)
        rs = np.array([abs(x.value - e) for e in ends]
                      + [5e-324, 1e-300, 1e-17] + [lam**k for k in range(62)])
        landed = sum(x.value - r in ends or x.value + r in ends for r in rs)
        assert landed >= len(ends) // 2
        _assert_exact_masses(space, x, rs, space.ball_measure_array(x, rs))
    # lam near 1/2 leaves gaps below one ulp: eight cylinders of one depth
    # overlap x - r or x + r in floats, where an exact walk meets two
    space = Cantor(0.49)
    x = space.point(int(d) for d in "000100110001000000011101000100110011000011100")
    r = 3.445521474652939e-12
    _assert_exact_masses(space, x, [r], [space.ball_measure(x, r)])
    left = Cantor(0.25).point(())
    _assert_exact_masses(Cantor(0.25), left, [5e-324], [Cantor(0.25).ball_measure(left, 5e-324)])


@pytest.mark.parametrize("lam", [1 / 3, 0.45], ids=lambda lam: f"{lam:.3g}")
def test_cantor_masses_across_kernel_blocks_within_the_exact_bracket(monkeypatch, lam):
    # 1/n for n <= 3000 and log-uniform radii down to 1e-18, shuffled, in
    # three kernel passes: each block's masses are the one-pass masses
    space = Cantor(lam)
    rng = np.random.default_rng(11)
    x = space.point(rng.integers(0, 2, size=space.default_depth))
    rs = np.concatenate([1.0 / np.arange(1, 3001), 10.0 ** rng.uniform(-18.0, 0.0, 2000)])
    rng.shuffle(rs)
    whole = space.ball_measure_array(x, rs)
    monkeypatch.setattr(spaces, "_MASS_BLOCK", 2048)
    assert rs.size > 2 * spaces._MASS_BLOCK
    got = space.ball_measure_array(x, rs)
    assert np.array_equal(got.view(np.int64), whole.view(np.int64))
    _assert_exact_masses(space, x, rs, got)


def test_cantor_mass_kernel_memory_does_not_grow_with_n(cantor_third, rng):
    x = sample(cantor_third, rng)
    peaks = []
    for n in (20_000, 200_000):
        rs = 10.0 ** np.random.default_rng(7).uniform(-12.0, 0.0, n)
        tracemalloc.start()
        out = cantor_third.ball_measure_array(x, rs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        peaks.append(peak - out.nbytes)
    # an O(N) temporary would be ten times larger at the larger N
    assert peaks[1] <= 1.25 * peaks[0]


def test_cantor_ball_measure_domain():
    space = Cantor(1 / 3)
    x = space.point((0, 1))
    for bad in (-0.1, math.nan, 2.5):
        with pytest.raises(ValueError, match="radius"):
            space.ball_measure(x, bad)
        with pytest.raises(ValueError, match="radius"):
            space.ball_measure_array(x, np.array([0.5, bad]))
    with pytest.raises(ValueError, match="finite"):
        space.ball_measure(math.nan, 0.5)
    assert space.ball_measure_array(x, np.empty(0)).shape == (0,)


# a centre outside each kind's domain
_BAD_CENTRES = {"interval": 1.5, "circle": math.nan, "cantor": 0.5}


@pytest.mark.parametrize("space", ALL_KINDS, ids=lambda s: repr(s))
def test_ball_measure_array_checks_centre_and_radii(space):
    x = space.anchor()
    with pytest.raises(ValueError):
        space.ball_measure_array(_BAD_CENTRES[space.kind], np.array([0.1]))
    for bad in (math.nan, -1.0, np.nextafter(2.0 * space.diameter, math.inf), 7.0):
        with pytest.raises(ValueError, match="radius") as array_error:
            space.ball_measure_array(x, np.array([0.1, bad, 0.2]))
        # the first bad radius is named as the scalar form names it
        with pytest.raises(ValueError) as scalar_error:
            space.ball_measure(x, bad)
        assert str(array_error.value) == str(scalar_error.value)


def test_cantor_point_validation(cantor_third):
    with pytest.raises(ValueError, match=r"got \(0, 2\)"):
        CantorPoint((0, 2), 0.0)
    with pytest.raises(ValueError, match=r"got \(3,\)"):
        cantor_third.point((3,))
    p = cantor_third.point((0, 1, 1))
    assert p.value == pytest.approx((2 / 3) * (1 / 3 + 1 / 9))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_interval_sample_support(interval):
    # the counter stream is the library's one sampling path
    xs = interval.stream_coords(20260810, 0, np.arange(1, 1001))
    assert np.all((0.0 <= xs) & (xs <= 1.0))


def test_cantor_digit_frequencies(cantor_third):
    # the first digit of stream points, as depth-1 cells, and every digit
    # of the sampling depth as the stream reads it from the hash words
    ns = np.arange(1, 10**5 + 1)
    first = cantor_third.stream_cells(20260810, 0, ns[:2000], cantor_third._pow[1])
    assert abs(first.mean() - 0.5) < 0.05
    digits = crng.bits(20260810, 0, ns, cantor_third.default_depth)
    assert np.all(np.abs(digits.mean(axis=0) - 0.5) < 0.01)


def test_product_sample_quadrant_measure(unit_square):
    n = 10**5
    stream = OmegaStream(20260810, unit_square)
    x, y = (stream.factor_coords(i, np.arange(1, n + 1)) for i in range(2))
    hits = np.count_nonzero((x <= 0.5) & (y <= 0.5))
    assert abs(hits / n - 0.25) < 0.01


# ---------------------------------------------------------------------------
# sparse subsets
# ---------------------------------------------------------------------------


def test_sparse_interval_worked_example(interval):
    pts = max_sparse_subset(interval, 0.5, 0.5, 0.25)
    assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]
    lo, hi = sparse_bounds(interval, 0.5, 0.25)
    assert (lo, hi) == (0.5, 32.0)


def test_sparse_r_equals_2R(interval):
    pts = max_sparse_subset(interval, 0.5, 0.25, 0.5)
    lo, hi = sparse_bounds(interval, 0.25, 0.5)
    assert lo <= len(pts) <= hi
    assert len(pts) >= 1


def test_sparse_cantor_cylinder_scales(cantor_third):
    left = cantor_third.point(())
    for k in range(1, 7):
        r = (1 / 3) ** k
        pts = max_sparse_subset(cantor_third, left, 1.0, r)
        lo, hi = sparse_bounds(cantor_third, 1.0, r)
        assert lo <= len(pts) <= hi
        emb = [cantor_third.embed(p) for p in pts]
        for a, b in itertools.combinations(emb, 2):
            assert abs(a - b) >= r


def test_sparse_precondition_errors(interval):
    with pytest.raises(ValueError):
        max_sparse_subset(interval, 0.5, 0.1, 0.3)  # r > 2R
    with pytest.raises(ValueError):
        max_sparse_subset(interval, 0.5, 1.5, 0.1)  # R > diameter


@pytest.mark.parametrize("space", ALL_KINDS, ids=lambda s: repr(s))
def test_sparse_pairwise_and_maximality(space, rng):
    x0 = space.point(()) if isinstance(space, Cantor) else 0.3
    for k in range(1, 9):
        r = 2.0**-k
        pts = max_sparse_subset(space, x0, space.diameter, r)
        # pairwise separation, exhaustively
        for a, b in itertools.combinations(pts, 2):
            assert space.distance(a, b) >= r
        # maximality against the canonical probe net
        for p in _net(space, x0, space.diameter, r / 4.0)[1]:
            assert min(space.distance(p, q) for q in pts) < r or p in pts


@pytest.mark.parametrize("space", ALL_KINDS, ids=lambda s: repr(s))
def test_sparse_shuffled_variant_valid(space):
    x0 = space.point(()) if isinstance(space, Cantor) else 0.7
    r = 2.0**-4
    pts = max_sparse_subset(space, x0, space.diameter, r, 20260810)
    lo, hi = sparse_bounds(space, space.diameter, r)
    assert lo <= len(pts) <= hi
    for a, b in itertools.combinations(pts, 2):
        assert space.distance(a, b) >= r


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_sorted_scan_matches_searchsorted_greedy(data):
    # the walk from successor to successor accepts what the one-step-per-point
    # scan and the searchsorted-jump greedy accept
    kind = data.draw(st.sampled_from(["interval", "circle", "cantor", "tail", "short"]),
                     label="kind")
    step = data.draw(st.sampled_from([1.0, 2.0, 4.0, 7.0]), label="r/resolution")
    if kind == "short":
        # nets of 1-3 points, where the successors' bracket is cut short
        space = data.draw(st.sampled_from([Interval(), Circle()]), label="space")
        coords = np.array(sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                                    max_size=3), label="coords")))
        points = coords if space.period is None else coords % 1.0
        r = data.draw(st.floats(1e-3, 1.0), label="r")
    elif kind == "tail":
        # an interval^2 tail cover's factor, radii by their definition:
        # side n^-2 over cube radius rho = n^-3 is the integer n, and the net
        # at rho/4 has 8n gaps
        space = Interval()
        n = data.draw(st.integers(1, 128), label="n")
        R, r = definition_radii(PowerLawSchedule((2, 3)), [n])[0].tolist()
        x0 = data.draw(st.floats(0.0, 1.0), label="x0")
        coords, points = _net(space, x0, R, r / step)
    else:
        if kind == "cantor":
            space = Cantor(data.draw(st.floats(0.05, 0.49), label="lam"))
            x0 = space.point(data.draw(st.lists(st.integers(0, 1), max_size=12),
                                       label="digits"))
        else:
            space = Interval() if kind == "interval" else Circle()
            x0 = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
                [0.0, math.nextafter(1.0, 0.0)])), label="x0")
        # R = diameter is the whole circle, where the wrap decides, and r = 2R
        # leaves room for one point
        R = data.draw(st.one_of(st.just(space.diameter), st.floats(1e-3, space.diameter)),
                      label="R")
        r = R * data.draw(st.one_of(st.floats(0.02, 2.0), st.just(2.0)), label="r/R")
        # nets at r/4, as the library builds them, and at r, r/2 and r/7,
        # where more net gaps add up to r within a few ulps
        coords, points = _net(space, x0, R, r / step)
    want = scan_greedy_sorted(space, coords, points, r)
    assert _greedy_sorted(space, coords, r) == want
    assert searchsorted_greedy(space, coords, points, r) == want


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_shuffled_greedy_matches_every_pair_check(data):
    kind = data.draw(st.sampled_from(["interval", "circle", "cantor"]), label="kind")
    if kind == "cantor":
        space = Cantor(data.draw(st.floats(0.05, 0.49), label="lam"))
        x0 = space.point(data.draw(st.lists(st.integers(0, 1), max_size=12), label="digits"))
    else:
        space = Interval() if kind == "interval" else Circle()
        x0 = data.draw(st.floats(0.0, 1.0), label="x0")
    # R = diameter is the whole circle, where the wrap decides
    R = data.draw(st.one_of(st.just(space.diameter), st.floats(1e-3, space.diameter)),
                  label="R")
    r = R * data.draw(st.floats(0.02, 2.0), label="r/R")
    step = data.draw(st.sampled_from([1.0, 2.0, 4.0, 7.0]), label="r/resolution")
    seed = data.draw(st.integers(-(2**64), 2**64), label="seed")
    coords, points = _net(space, x0, R, r / step)
    got = _greedy_shuffled(space, coords, r, seed)
    want = every_pair_shuffled_greedy(space, coords, points, r, seed)
    assert [points[i] for i in got] == want


def _near(anchors):
    """Floats at and a few ulps beside each anchor."""
    return st.builds(lambda y, k: float(np.nextafter(y, math.copysign(math.inf, k)))
                     if k else y, st.sampled_from(anchors), st.integers(-3, 3))


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_neighbour_clash_test_is_the_full_check(data):
    # any ascending coordinates, also ones within a few ulps of q + m, where
    # bisection at the rounded q + m can split them on the wrong side
    space = data.draw(st.sampled_from([Interval(), Circle(), Cantor(0.3)]), label="space")
    q = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.13436424411240122, 0.49543508709194095, 1.0])), label="q")
    anchors = [q + m for m in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    ys = sorted(data.draw(st.lists(st.one_of(st.floats(-1.0, 2.0), _near(anchors)),
                                   min_size=1, max_size=12), label="ys"))
    r = data.draw(st.one_of(st.floats(1e-300, 1.0), st.sampled_from([1e-16, 0.5])), label="r")
    full = not (space.distances(np.array(ys), q) >= r).all()
    assert _clashes(space, ys, q, r) == full


def test_neighbour_clash_test_falls_back_where_the_split_is_unconfirmed():
    # q + 1 rounds to y while y - q rounds below 1: y sits on the far side
    # of the bisection point, so only the full check decides
    q, y = 0.13436424411240122, 1.134364244112401
    up = float(np.nextafter(y, 2.0))
    assert q + 1.0 == y and y - q < 1.0 == up - q
    circle = Circle()
    # y is 1.1e-16 from q and the next float up is 0 from it, which the
    # neighbours of the unconfirmed split would miss
    assert _clashes(circle, [y, up, 1.3], q, 1e-16)
    for ys in ([y], [0.5, y], [0.3, 0.7, y, 1.2], [y, up, 1.3], [0.2, y, up]):
        for r in (1e-17, 1e-16, 0.1):
            full = not (circle.distances(np.array(ys), q) >= r).all()
            assert _clashes(circle, ys, q, r) == full


@pytest.mark.parametrize("space, x0, R, r", [
    (Interval(), 0.5, 0.5, 1e-300),
    (Circle(), 0.5, 0.5, 1e-9),
    (Cantor(1 / 3), Cantor(1 / 3).point(()), 1.0, 1e-12),
], ids=["interval", "circle", "cantor"])
def test_probe_net_capped_before_allocation(space, x0, R, r):
    tracemalloc.start()
    with pytest.raises(ValueError, match="MAX_NET_POINTS"):
        max_sparse_subset(space, x0, R, r)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("R, resolution, built_at_zero",
                         [(1e-18, 1e-20, True), (1e-200, 2.5e-301, False)],
                         ids=["1e-18-1e-20", "1e-200-2.5e-301"])
def test_cantor_net_finer_than_the_float_spacing_is_refused(R, resolution, built_at_zero):
    # about 0.0125 floats are 1.7e-18 apart: the depth-34 (and the depth-500)
    # cylinders round together, and a net there is one float
    cantor = Cantor(0.25)
    x = cantor.point((0, 0, 0, 1, 0, 1)).value
    with pytest.raises(ValueError, match=f"resolution {resolution!r} about the centre "
                                         f"{x!r} .* below the float spacing"):
        cantor.net(x, R, resolution)
    # at the left end 0 the floats resolve the depth-34 cylinders and the net
    # is built; about 1e-200 they are 1e-216 apart, wider than the depth-500
    # cylinders, and the net is refused there too
    if built_at_zero:
        coords = cantor.net(0.0, R, resolution)[0]
        assert coords[0] == 0.0 and np.all(np.diff(coords) > 0.0)
    else:
        with pytest.raises(ValueError, match="below the float spacing"):
            cantor.net(0.0, R, resolution)


def test_cantor_net_past_the_code_digits_is_refused():
    # lam^64 > r/4 = 2.5e-31 >= lam^65: the net needs 65 digits, more than an
    # int64 code holds.  A net cut at 60 digits held the one point 0 and
    # missed, among others, the ball point below at 5.24e-30 >= r from it
    cantor = Cantor(0.3333333333333333)
    missed = cantor.point((0,) * 61 + (1,))
    assert 1e-30 <= missed.value <= 1e-29
    message = r"resolution 2.5e-31 needs 65 digits, more than the 60 that a net code holds"
    with pytest.raises(ValueError, match=message):
        max_sparse_subset(cantor, cantor.point(()), 1e-29, 1e-30)
    with pytest.raises(ValueError, match=message):
        cover_ball(cantor, cantor.point(()), 1e-29, 1e-30)
    # one digit less is built: lam^60 is below 4 r
    assert len(max_sparse_subset(cantor, cantor.point(()), 1e-27, 4e-28)) > 1


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cantor_net_is_the_recursive_walk(data):
    space = Cantor(data.draw(st.floats(0.05, 0.49), label="lam"))
    x0 = space.point(data.draw(st.lists(st.integers(0, 1), max_size=40), label="digits"))
    R = data.draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0)), label="R")
    resolution = R * data.draw(st.one_of(st.sampled_from([1 / 28, 1 / 4, 1.0, 4.0]),
                                          st.floats(1e-3, 2.0)), label="resolution/R")
    coords, take = space.net(x0.value, R, resolution)
    want_coords, want_points = recursive_cantor_net(space, x0, R, resolution)
    assert coords.tobytes() == want_coords.tobytes()
    points = take(range(coords.size))
    assert points == want_points
    assert all(type(p) is CantorPoint for p in points)
    if want_points:
        assert take([-1, np.int64(0)]) == [want_points[-1], want_points[0]]
    # the cylinder walk the net starts from is the recursive one, at every
    # depth, also when [a, b] ends exactly on cylinder ends, where one ulp in
    # a child's left end decides whether it meets [a, b]
    depth = data.draw(st.integers(0, 12), label="depth")
    ends = st.sampled_from(_cylinder_ends(space, x0.digits))
    a, b = sorted(data.draw(st.one_of(st.just((x0.value - R, x0.value + R)),
                                      st.tuples(ends, ends)), label="a, b"))
    assert space.cylinders_in(a, b, depth) == recursive_cylinders_in(space, a, b, depth)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cantor_stream_is_the_column_embedding(data):
    space = Cantor(data.draw(st.floats(0.01, 0.49), label="lam"))
    seed = data.draw(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
                     label="seed")
    lane = data.draw(st.integers(0, 5), label="lane")
    ns = np.array(data.draw(st.one_of(
        st.just([]), st.just([1, 2**63 - 1]),
        st.lists(st.one_of(st.integers(1, 10**6), st.just(2**63 - 1)), max_size=40)),
        label="ns"), dtype=np.int64)
    got = space.stream_coords(seed, lane, ns)
    want = column_stream_coords(space, seed, lane, ns)
    assert got.dtype == want.dtype and got.shape == want.shape == ns.shape
    assert got.tobytes() == want.tobytes()
    for n, v in zip(ns[:5].tolist(), got.tolist()):
        assert stream_point(space, seed, lane, n).value == v


@pytest.mark.parametrize("lam", [1 / 3, 0.4, 0.45])
def test_density_cells_and_nets_share_one_depth_rule(lam):
    # at a length that is a power of the table, both resolve it at that
    # depth; numpy's lam^2 at lam = 1/3 lies one ulp below Python's, where
    # the cells once took a third digit
    space = Cantor(lam)
    for k in range(space.default_depth + 1):
        delta = float(space._pow[k])
        coords, take = space.net(0.0, 0.0, delta)
        (point,) = take([0])
        assert len(point.digits) == k
        assert space.cell_count(delta) == 2**k


@pytest.mark.parametrize("lam", [1 / 3, 0.25, 0.45])
def test_stream_cells_are_the_bits_matrix_cells(monkeypatch, lam):
    # chunk by chunk, as the density check walks, with chunks cut small
    monkeypatch.setattr(svf, "_CHUNK", 777)
    space = Cantor(lam)
    N = 3000
    for seed, lane in ((7, 0), (2**64 - 1, 3)):
        for k in range(1, space.default_depth + 1):
            delta = float(space._pow[k])
            got = np.concatenate([space.stream_cells(seed, lane, svf._indices(run), delta)
                                  for run, _ in svf._checkpoint_ranges([N])])
            want = bits_stream_cells(space, seed, lane, np.arange(1, N + 1), k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert space.cell_count(delta) == 2**k


@pytest.mark.parametrize("delta", [0.05, 1e-6, 1e-9])
def test_stream_cells_peak_memory(delta):
    # the (N, 36) bits matrix and its int64 copy peaked at 4.25-12.25 MB
    space = Cantor(1 / 3)
    ns = np.arange(1, 2**16 + 1)
    tracemalloc.start()
    try:
        space.stream_cells(5, 1, ns, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("lam", [0.01, 0.25, 1 / 3, 0.49])
def test_embed_digits_is_the_retired_loop(lam):
    # 0 to 64 digits, past the sampling depth too, where the weights are
    # taken afresh: the row kernel over one column adds as the loop did
    space = Cantor(lam)
    rng = np.random.default_rng(11)
    for size in range(65):
        for digits in (rng.integers(0, 2, size).tolist(), [1] * size):
            want = loop_embed_digits(space, digits)
            got = space.embed_digits(tuple(digits))
            assert type(got) is float and got.hex() == want.hex()
            assert space.point(digits).value.hex() == want.hex()
    assert space.default_depth < 64


@pytest.mark.parametrize("lam", [1e-10, 0.01, 0.25, 1 / 3, 0.45, 0.49])
def test_weights_are_read_from_one_table_of_powers(lam):
    # the old formula, one np.power call per depth, bit for bit: also past
    # K, the first power that underflows to 0.0, where the table ends
    space = Cantor(lam)
    K = space._pow.size - 1
    assert space._pow[K] == 0.0 < space._pow[K - 1]
    for depth in (0, 1, space.default_depth, K - 1, K, K + 1, K + 40):
        want = np.power(lam, np.arange(depth))
        assert space._powers(depth).tobytes() == want.tobytes()
    want = (1.0 - lam) * np.power(lam, np.arange(K + 1))
    assert space._weights == want.tolist()


@pytest.mark.parametrize("space, x0, R, resolution", [
    (Interval(), 0.3, 0.2, 0.013), (Interval(), 1.0, 1.0, 0.1),
    (Circle(), 0.9, 0.5, 0.01), (Circle(), -0.25, 0.3, 0.007),
    (Cantor(1 / 3), Cantor(1 / 3).point((0, 1)), 0.4, 1e-3),
    (Cantor(0.45), Cantor(0.45).point((1, 0, 1)), 0.05, 1e-4),
], ids=["interval", "interval-whole", "circle", "circle-unreduced-centre", "cantor",
        "cantor-0.45"])
def test_take_builds_the_points_that_nets_listed(space, x0, R, resolution):
    # the points a net listed beside its coordinates: the floats on the
    # interval, the floats mod 1 on the circle and one CantorPoint per
    # cylinder on C(lam) (the recursive walk); at any indices, in their order
    coords, take = space.net(space.embed(x0), R, resolution)
    if isinstance(space, Cantor):
        listed = recursive_cantor_net(space, x0, R, resolution)[1]
    else:
        listed = (coords if space.period is None else coords % 1.0).tolist()
    at = [coords.size - 1, 0, coords.size // 2, 1, 1]
    got = take(at)
    assert [repr(p) for p in got] == [repr(listed[i]) for i in at]
    assert take(np.arange(coords.size)) == listed and take([]) == []


@pytest.mark.parametrize("seed", [None, 3], ids=["sorted", "seeded"])
def test_cantor_sparse_set_builds_only_its_points(monkeypatch, seed):
    # the greedies read the net's coordinates: the only CantorPoints built
    # are the accepted ones, decoded by the net's take
    cantor = Cantor(0.45)
    x = cantor.point((0, 1, 0, 1))
    built = []
    check = CantorPoint.__post_init__
    monkeypatch.setattr(CantorPoint, "__post_init__", lambda p: built.append(p) or check(p))
    got = max_sparse_subset(cantor, x, 0.3, 0.002, seed)
    assert len(got) > 100 and built == got


@pytest.mark.parametrize("space, x0, R, resolution", [
    (Interval(), 0.5, 0.5, 0.25), (Interval(), 0.3, 0.2, 0.013),
    (Circle(), 0.9, 0.5, 0.01), (Cantor(1 / 3), Cantor(1 / 3).point(()), 1.0, 1e-3),
    (Cantor(0.45), Cantor(0.45).point((1, 0, 1)), 0.05, 1e-4),
], ids=["interval-exact", "interval", "circle", "cantor", "cantor-0.45"])
def test_probe_net_count_bounds_the_net(monkeypatch, space, x0, R, resolution):
    # the pre-walk count is never below the net it admits: a cap of one point
    # less than the net holds rejects it (exactly at the cap for a linspace net)
    x = space.embed(x0)
    n = space.net(x, R, resolution)[0].size
    if not isinstance(space, Cantor):
        monkeypatch.setattr(spaces, "MAX_NET_POINTS", n)
        assert space.net(x, R, resolution)[0].size == n
    monkeypatch.setattr(spaces, "MAX_NET_POINTS", n - 1)
    with pytest.raises(ValueError, match=f"more than MAX_NET_POINTS = {n - 1}"):
        space.net(x, R, resolution)


def test_sparse_circle_wraparound(circle):
    # full circle: the wrap pair must also be separated
    pts = max_sparse_subset(circle, 0.3, 0.5, 0.15)
    for a, b in itertools.combinations(pts, 2):
        assert circle.distance(a, b) >= 0.15


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def test_cover_ball_interval_example(interval):
    rep = cover_ball(interval, 0.5, 0.5, 0.25)
    assert rep.count <= 5
    assert rep.bound == 32.0
    assert verify_cover(interval, rep)


def test_cover_ball_r_equals_2R(interval):
    rep = cover_ball(interval, 0.5, 0.25, 0.5)
    assert rep.count <= rep.bound
    assert verify_cover(interval, rep)


def test_cover_ball_circle_example(circle):
    rep = cover_ball(circle, 0.2, 0.5, 0.1)
    assert rep.bound == pytest.approx(80.0)
    assert 5 <= rep.count <= 12
    assert verify_cover(circle, rep)


def test_cover_rectangle_worked_example(unit_square):
    rep = cover_rectangle(unit_square, (0.5, 0.5), (0.4, 0.05), 0.05)
    assert rep.bound == pytest.approx(128.0)
    assert rep.count <= 17
    assert verify_cover(unit_square, rep)


def test_cover_rectangle_all_radii_small(unit_square):
    rep = cover_rectangle(unit_square, (0.3, 0.7), (0.04, 0.01), 0.05)
    assert rep.count == 1
    assert rep.bound == 1.0
    assert verify_cover(unit_square, rep)


def test_cover_rectangle_boundary_strict_inequality(unit_square):
    rep = cover_rectangle(unit_square, (0.5, 0.5), (0.2, 0.2), 0.2)
    assert rep.bound == 1.0
    assert rep.count == 1
    assert verify_cover(unit_square, rep)


def test_cover_rectangle_mixed_product(circle, cantor_third):
    space = ProductSpace((circle, cantor_third))
    center = (0.25, cantor_third.point((0, 1)))
    rep = cover_rectangle(space, center, (0.3, 0.05), 0.05)
    assert rep.count <= rep.bound
    assert verify_cover(space, rep)


def test_verify_cover_rejects_a_count_over_the_bound(interval):
    rep = cover_ball(interval, 0.5, 0.5, 0.25)
    assert not verify_cover(interval, dataclasses.replace(rep, bound=rep.count - 1.0))


@pytest.mark.parametrize("space, dropped", [(Interval(), 0), (Interval(), 2),
                                            (ProductSpace((Interval(), Circle())), 1)],
                         ids=["interval-first", "interval-middle", "product"])
def test_verify_cover_rejects_an_uncovered_net_point(space, dropped):
    if isinstance(space, ProductSpace):
        rep = cover_rectangle(space, (0.5, 0.25), (0.4, 0.3), 0.05)
    else:
        rep = cover_ball(space, 0.5, 0.5, 0.1)
    assert verify_cover(space, rep)
    # drop two neighbouring centres of the last factor: sparse centres lie at
    # least a radius apart, so the two left a gap of at least three radii
    kept = list(rep.factor_centers[-1])
    del kept[dropped:dropped + 2]
    centers = rep.factor_centers[:-1] + (tuple(kept),)
    assert not verify_cover(space, dataclasses.replace(
        rep, factor_centers=centers, count=math.prod(len(c) for c in centers)))


def _factor(data, label):
    kind = data.draw(st.sampled_from(["interval", "circle", "cantor"]), label=label)
    if kind == "cantor":
        return Cantor(data.draw(st.floats(0.05, 0.49), label=label + " lam"))
    return Interval() if kind == "interval" else Circle()


def _ball_point(data, space, label):
    if isinstance(space, Cantor):
        return space.point(data.draw(st.lists(st.integers(0, 1), max_size=20), label=label))
    # circle centres near 0 put arcs through 0, from either side of 0
    near_zero = st.floats(-1e-3, 1e-3) if isinstance(space, Circle) else st.floats(0.0, 1e-3)
    return data.draw(st.one_of(st.floats(0.0, 1.0), near_zero,
                               st.sampled_from([0.0, 1.0, 0.999])), label=label)


def _moved(data, space, centers, label):
    """The centres with some dropped and some moved: a circle or interval
    centre shifts by a small amount (past [0, 1) too) or jumps to any
    coordinate (1e17 sorts at 0 on the circle, yet its float distance to
    every point is 0), a Cantor centre becomes another digit point."""
    out = []
    for i, c in enumerate(centers):
        act = data.draw(st.sampled_from(["keep", "keep", "drop", "move"]),
                        label=f"{label} {i}")
        if act == "move":
            if isinstance(space, Cantor):
                c = _ball_point(data, space, f"{label} {i} to")
            else:
                c = data.draw(st.one_of(st.floats(-0.05, 0.05).map(lambda d, c=c: c + d),
                                        _COORDS), label=f"{label} {i} to")
        if act != "drop":
            out.append(c)
    return tuple(out)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verify_cover_is_the_every_centre_check(data):
    factors = [_factor(data, "factor 1")]
    if data.draw(st.booleans(), label="product"):
        factors.append(_factor(data, "factor 2"))
    radii = []
    for i, f in enumerate(factors):
        # R = diameter is the whole factor: the whole circle at R = 1/2
        radii.append(data.draw(st.one_of(st.just(f.diameter), st.floats(1e-3, f.diameter)),
                               label=f"R{i}"))
    # r against the largest side keeps every net within a few thousand points
    r = max(radii) * data.draw(st.floats(0.02, 2.0), label="r/R")
    x = tuple(_ball_point(data, f, f"x{i}") for i, f in enumerate(factors))
    if len(factors) == 1:
        space = factors[0]
        report = cover_ball(space, x[0], radii[0], r)
    else:
        space = ProductSpace(tuple(factors))
        report = cover_rectangle(space, x, radii, r)
    if data.draw(st.booleans(), label="edit centres"):
        centers = tuple(_moved(data, f, c, f"centres {i}")
                        for i, (f, c) in enumerate(zip(factors, report.factor_centers)))
        report = dataclasses.replace(report, factor_centers=centers,
                                     count=math.prod(len(c) for c in centers))
    # the same centres checked at r/1, r/2, r/4 and r/7: finer nets, and
    # balls that no longer reach
    shrink = data.draw(st.sampled_from([1.0, 2.0, 4.0, 7.0]), label="r/radius")
    report = dataclasses.replace(report, radius=r / shrink)
    assert verify_cover(space, report) == every_centre_verify_cover(space, report)


@pytest.mark.parametrize("space, x, R", [
    (Interval(), 0.5, 0.5), (Circle(), 0.02, 0.5), (Circle(), 0.97, 0.1),
    (Cantor(1 / 3), Cantor(1 / 3).point(()), 1.0), (Cantor(0.1), Cantor(0.1).point((0, 1)), 0.3),
], ids=["interval", "circle-whole", "circle-through-0", "cantor", "cantor-0.1"])
def test_verify_cover_decides_both_ways_like_the_every_centre_check(space, x, R):
    # every verdict of a builder cover at r/1 ... r/7 matches, and both
    # verdicts occur, so the property above is not vacuous
    verdicts = set()
    for r in (R / 3, R / 10, R / 37):
        report = cover_ball(space, x, R, r)
        for shrink in (1.0, 2.0, 4.0, 7.0):
            rep = dataclasses.replace(report, radius=r / shrink)
            got = verify_cover(space, rep)
            assert got == every_centre_verify_cover(space, rep)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_verify_cover_tests_every_centre_for_a_point_its_nearest_miss(circle):
    # |x - 1e17| rounds to a whole number, so the centre 1e17 lies at float
    # distance 0 from every point, yet it sorts at 0 after the centre 0.0:
    # the nearest centres of 0.6 are 0.0 and 0.3, and only the comparison
    # with every centre finds that 1e17 covers it
    report = cover_ball(circle, 0.5, 0.5, 0.1)
    report = dataclasses.replace(report, factor_centers=((0.0, 0.3, 1e17),), count=3)
    assert circle.distance(0.6, 1e17) == 0.0
    assert every_centre_verify_cover(circle, report)
    assert verify_cover(circle, report)


@pytest.mark.parametrize("space", ALL_KINDS, ids=lambda s: repr(s))
def test_cover_ball_sound_across_scales(space):
    x0 = space.point(()) if isinstance(space, Cantor) else 0.1
    for k in range(1, 9):
        rep = cover_ball(space, x0, space.diameter, 2.0**-k)
        assert rep.count <= rep.bound
        assert verify_cover(space, rep)


# ---------------------------------------------------------------------------
# product metric
# ---------------------------------------------------------------------------


def test_cube_identity_max_metric(rng):
    # rectangle with equal radii == ball of that radius in the max metric,
    # with each factor's distance read through its elementwise form
    space = ProductSpace((Interval(), Circle(), Cantor(1 / 3)))
    for _ in range(50):
        x = sample(space, rng)
        y = sample(space, rng)
        sides = [f.distances(np.array([f.coordinate(a)]), f.coordinate(b))[0]
                 for f, a, b in zip(space.factors, x, y)]
        assert sides == [f.distance(a, b) for f, a, b in zip(space.factors, x, y)]
        r = float(rng.uniform(0.01, 0.5))
        in_cube = all(f.distance(a, b) <= r for f, a, b in zip(space.factors, x, y))
        assert in_cube == (max(sides) <= r)


def test_point_validation(interval, cantor_third):
    with pytest.raises(ValueError):
        interval.validate_point(1.5)
    with pytest.raises(ValueError):
        cantor_third.validate_point(0.5)
    sq = ProductSpace((Interval(), Interval()))
    with pytest.raises(ValueError):
        sq.validate_point((0.5,))


# ---------------------------------------------------------------------------
# factor protocol
# ---------------------------------------------------------------------------


PROTOCOL_KINDS = [Interval(), Circle(), Cantor(1 / 3), Cantor(0.2)]


@pytest.mark.parametrize("space", PROTOCOL_KINDS, ids=lambda s: repr(s))
def test_factor_protocol_conformance(space, rng):
    anchor = space.anchor()
    space.validate_point(anchor)
    sampled = sample(space, rng)

    # ball measures: the array form is the scalar one, bit for bit, and a
    # radius of -0.0 weighs +0.0
    rs = np.concatenate([[0.0, -0.0], space.diameter * 2.0 ** -np.arange(0.0, 30.0, 0.5),
                         [2.0 * space.diameter]])
    for x in (anchor, sampled):
        masses = space.ball_measure_array(x, rs)
        scalars = np.array([space.ball_measure(x, float(r)) for r in rs])
        assert masses.view(np.int64).tolist() == scalars.view(np.int64).tolist()
        assert not np.signbit(masses).any()

    # the counter stream: one point, a one-index block and a long block
    # embed to the same value, and a stream point written as text parses
    # back to the same point, its value included
    ns = np.arange(1, 301)
    block = space.stream_coords(9, 2, ns)
    for n, v in zip(ns, block):
        point = stream_point(space, 9, 2, int(n))
        space.validate_point(point)
        assert space.embed(point) == space.stream_coords(9, 2, np.array([n]))[0] == v
        assert space.parse_point(space.format_point(point)) == point

    # text: a point round-trips through format_point and parse_point
    for point in (anchor, sampled):
        assert space.parse_point(space.format_point(point)) == point

    # density cells: a coarse delta hits every cell by N = 10^4, cells are
    # numbered from left to right, and each cell's coordinates lie within
    # delta of each other
    delta = 0.1
    count = space.cell_count(delta)
    ns = np.arange(1, 10**4 + 1)
    cells = space.stream_cells(3, 0, ns, delta)
    coords = space.stream_coords(3, 0, ns)
    assert np.array_equal(np.unique(cells), np.arange(count))
    assert np.all(np.diff(cells[np.argsort(coords)]) >= 0)
    for cell in range(count):
        inside = coords[cells == cell]
        assert inside.max() - inside.min() <= delta

    # the kind's CLI token rebuilds it
    token = ":".join([space.kind] + [repr(getattr(space, p)) for p in space.params])
    assert factor_from_token(token).descriptor() == space.descriptor()


def test_unknown_factor_token_rejected():
    for token in ("cantor", "interval:0.5", "torus", "cantor:0.25:2"):
        with pytest.raises(ValueError, match="unknown space factor"):
            factor_from_token(token)
