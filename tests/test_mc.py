import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import stats

from limsupdim import (
    Cantor,
    CheckResult,
    Circle,
    ExplicitSchedule,
    Interval,
    OmegaStream,
    PowerLawSchedule,
    ProductSpace,
    VerdictConfig,
    density_check,
    dimension_verdict,
    divergence_tail_bound_test,
    fiber_hit_sum,
    tail_cover_sum,
)
from limsupdim import mc, rng as crng, svf
from limsupdim.svf import estimate_sum_growth, prefix_fsums

from oracles import (
    array_key_bits,
    array_key_uniform01,
    array_key_words,
    definition_radii,
    harmonic_number,
    materialised_density_counts,
    materialised_fiber_hit_sum,
    omega,
    one_shot_bits,
    per_n_tail_cover_sum,
    poisson_binomial_pmf,
    unmemoised_fiber_hit_sum,
    weighted_bernoulli_cdf,
)


# ---------------------------------------------------------------------------
# omega streams
# ---------------------------------------------------------------------------


def test_omega_deterministic(torus2):
    st = OmegaStream(123, torus2)
    for i in range(torus2.dim):
        assert st.factor_coords(i, [7]) == st.factor_coords(i, [7])
        assert st.factor_coords(i, [7]) == OmegaStream(123, torus2).factor_coords(i, [7])


def test_omega_random_access_order_independent(torus2):
    a = OmegaStream(5, torus2)
    b = OmegaStream(5, torus2)
    for i in range(torus2.dim):
        first_then_late = a.factor_coords(i, [1, 10**6])
        late_then_first = b.factor_coords(i, [10**6, 1])
        assert first_then_late.tolist() == late_then_first[::-1].tolist()


def test_omega_block_matches_scalar(torus2):
    # in a block this long, BLAS matrix-vector kernels round a row by its
    # position in the block; a Cantor coordinate must not depend on that
    ns = np.concatenate([[3, 1, 500, 2], np.arange(10, 50)])
    for space in (torus2, ProductSpace((Cantor(1 / 3), Circle()))):
        st = OmegaStream(77, space)
        for i, factor in enumerate(space.factors):
            block = st.factor_coords(i, ns)
            for n, v in zip(ns, block):
                assert factor.embed(omega(st, int(n))[i]) == v


def test_omega_coordinates_independent_chisquare(torus2):
    # joint occupancy of (coordinate 1, coordinate 2) on a 10x10 grid
    st = OmegaStream(2024, torus2)
    ns = np.arange(1, 10**5 + 1)
    x = st.factor_coords(0, ns)
    y = st.factor_coords(1, ns)
    counts = np.bincount(
        (np.minimum((x * 10).astype(int), 9) * 10
         + np.minimum((y * 10).astype(int), 9)),
        minlength=100,
    )
    chi2 = ((counts - 1000.0) ** 2 / 1000.0).sum()
    p = stats.chi2.sf(chi2, df=99)
    assert p > 0.001


def test_omega_serial_pairs_independent(torus2):
    st = OmegaStream(99, torus2)
    ns = np.arange(1, 10**5 + 1)
    x = st.factor_coords(0, ns)
    counts = np.bincount(
        (np.minimum((x[:-1] * 10).astype(int), 9) * 10
         + np.minimum((x[1:] * 10).astype(int), 9)),
        minlength=100,
    )
    expected = (len(ns) - 1) / 100.0
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, df=99) > 0.001


def test_omega_cantor_digit_law():
    # depth-8 cylinder cells hold the first 8 digits, most significant first
    cells = Cantor(1 / 3).stream_cells(31, 0, np.arange(1, 10**5 + 1), (1 / 3) ** 8)
    digits = (cells[:, None] >> np.arange(7, -1, -1)) & 1
    assert np.all(np.abs(digits.mean(axis=0) - 0.5) < 0.01)


@pytest.mark.parametrize("nbits", [1, 36, 64])
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10**5])
def test_bits_equal_one_shot_oracle(n, nbits):
    ns = np.arange(1, n + 1)
    got = crng.bits(11, 3, ns, nbits)
    want = one_shot_bits(crng.words(11, 3, ns), nbits)
    assert got.dtype == want.dtype and got.shape == want.shape == (n, nbits)
    assert np.array_equal(got, want)


@given(hst.data())
@settings(max_examples=60, deadline=None)
def test_counter_words_match_the_array_key_oracle(data):
    # the (seed, lane) key mixed as Python ints and the words mixed in place
    # give the bytes of the 1-element-array key and the step-by-step mix
    seed = data.draw(hst.one_of(hst.sampled_from([0, -5, 2**63, 2**64 - 1]),
                                hst.integers(-(2**70), 2**70)), label="seed")
    lane = data.draw(hst.integers(0, 5), label="lane")
    indices = data.draw(hst.sampled_from(["scalar", "empty", "block"]), label="indices")
    indices = {"scalar": data.draw(hst.integers(0, 2**64 - 1), label="index"),
               "empty": np.arange(0), "block": np.arange(1, 2**16 + 1)}[indices]
    nbits = data.draw(hst.integers(1, 64), label="nbits")
    for got, want in ((crng.words(seed, lane, indices), array_key_words(seed, lane, indices)),
                      (crng.uniform01(seed, lane, indices),
                       array_key_uniform01(seed, lane, indices)),
                      (crng.bits(seed, lane, indices, nbits),
                       array_key_bits(seed, lane, indices, nbits))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("values", [[1, 2, 3], [0, 2**62, 2**63 - 1], [7]])
@pytest.mark.parametrize("shape", ["array", "strided", "scalar"])
def test_words_of_int64_indices_equal_those_of_uint64_and_python_ints(values, shape):
    # an int64 array is read as its uint64 view: the same bits, no copy
    signed = np.array(values, dtype=np.int64)
    if shape == "strided":
        signed = np.repeat(signed, 2)[::2]
    elif shape == "scalar":
        signed = signed[:1].reshape(())
    want = crng.words(5, 2, signed.astype(np.uint64))
    for indices in (signed, signed.tolist()):
        got = crng.words(5, 2, indices)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()
    assert signed.tolist() == (values[0] if shape == "scalar" else values)


@pytest.mark.parametrize("nbits", [0, 65])
def test_bits_rejects_nbits_outside_one_to_64(nbits):
    with pytest.raises(ValueError, match=f"nbits must be in 1..64, got {nbits}"):
        crng.bits(11, 3, np.arange(1, 5), nbits)


def test_bits_peak_memory():
    # the one-shot expression peaked at 33.2 MB here, for a 3.6 MB output
    ns = np.arange(1, 10**5 + 1)
    tracemalloc.start()
    try:
        crng.bits(5, 0, ns, 36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_omega_uniform_marginals(torus2):
    st = OmegaStream(8, torus2)
    x = st.factor_coords(0, np.arange(1, 10**5 + 1))
    counts = np.bincount(np.minimum((x * 20).astype(int), 19), minlength=20)
    chi2 = ((counts - 5000.0) ** 2 / 5000.0).sum()
    assert stats.chi2.sf(chi2, df=19) > 0.001


def test_omega_index_validation(torus2):
    st = OmegaStream(1, torus2)
    with pytest.raises(ValueError):
        st.factor_coords(0, np.array([0]))


@pytest.mark.parametrize("space", [
    ProductSpace((Circle(), Circle())), ProductSpace((Cantor(1 / 3), Interval()))],
    ids=["torus", "cantor-interval"])
@pytest.mark.parametrize("bad", [0, -5, 1.5, 2**63, 2**64, math.nan, math.inf, "3"])
def test_stream_refuses_indices_outside_the_count_rule(space, bad):
    # -5 used to wrap through uint64 and 1.5 to read index 1; 2**63 ended in
    # numpy's OverflowError
    st = OmegaStream(5, space)
    rule = r"^indices must be integers in \[1, 2\*\*63\), got"
    shown = repr(bad) if isinstance(bad, str) else str(bad)
    for i in range(space.dim):
        with pytest.raises(ValueError, match=rf"{rule} {re.escape(shown)}$"):
            st.factor_coords(i, [bad])
        with pytest.raises(ValueError, match=rule):
            st.factor_coords(i, [2, bad, 3])


@pytest.mark.parametrize("ns", [[2.9], [1, 2.5], np.array([0, 4]),
                                np.array([1, 2**63], dtype=np.uint64), np.array([7, -1])])
def test_stream_block_names_the_first_refused_index(torus2, ns):
    st = OmegaStream(5, torus2)
    first = next(n for n in np.asarray(ns).tolist() if not (n == int(n) and 1 <= n < 2**63))
    with pytest.raises(ValueError, match=rf"got {re.escape(str(first))}$"):
        st.factor_coords(0, ns)


def test_stream_reads_integral_floats_and_the_last_index():
    space = ProductSpace((Cantor(1 / 3), Circle()))
    st = OmegaStream(5, space)
    last = omega(st, 2**63 - 1)
    for i, factor in enumerate(space.factors):
        assert st.factor_coords(i, [1e3]) == st.factor_coords(i, [1000])
        assert np.array_equal(st.factor_coords(i, [2.0, 3.0]), st.factor_coords(i, [2, 3]))
        assert st.factor_coords(i, np.array([], dtype=float)).size == 0
        coords = st.factor_coords(i, np.array([1, 2**63 - 1], dtype=np.uint64))
        assert coords[1] == factor.embed(last[i])


# ---------------------------------------------------------------------------
# fiber hit sums
# ---------------------------------------------------------------------------


def _torus_stream(seed):
    return OmegaStream(seed, ProductSpace((Circle(), Circle())))


def test_fiber_sum_divergent_example_in_band():
    res = fiber_hit_sum(_torus_stream(42), PowerLawSchedule((1, 2)), (1, 1),
                        (0.5,), 0.0, [10**5])
    expected = 1.0 + 2.0 * (harmonic_number(10**5) - 1.0)
    assert res.expectation_exact[-1][1] == pytest.approx(expected, rel=1e-12)
    assert 0.25 * expected <= res.partials[-1][1] <= 4.0 * expected


def test_fiber_sum_partials_monotone():
    res = fiber_hit_sum(_torus_stream(3), PowerLawSchedule((1, 2)), (1, 1),
                        (0.5,), 0.5, [10, 100, 1000, 10000])
    vals = [v for _, v in res.partials]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_fiber_sum_expectation_dominates_lower_curve():
    res = fiber_hit_sum(_torus_stream(3), PowerLawSchedule((1, 2)), (1, 1),
                        (0.5,), 0.25, [10, 100, 1000])
    for (_, exact), (_, lower) in zip(res.expectation_exact, res.expectation_lower):
        assert exact >= lower * (1 - 1e-12)


def test_fiber_sum_lower_curve_termwise():
    # per-term inequality: mu(ball) * r_d^u >= (1/c_1) * Phi(s_1 + u)
    sched = PowerLawSchedule((1, 2))
    circle = Circle()
    from limsupdim.svf import log_phi_rows

    ns = np.arange(1, 2001)
    radii = np.exp(sched.log_radii(ns))
    u = 0.3
    exact = circle.ball_measure_array(0.5, radii[:, 0]) * radii[:, 1] ** u
    phi = np.exp(log_phi_rows(np.log(radii), np.array([1.0, 1.0]), 1.0 + u))
    assert np.all(exact >= phi / circle.c * (1 - 1e-12))


def test_fiber_sum_expectation_identity_monte_carlo():
    # fixed n: the mean of the indicator term over many independent streams
    # matches the exact expectation within 3 binomial standard errors
    sched = PowerLawSchedule((1, 2))
    n = 37
    r1 = 1.0 / n
    p_exact = min(2.0 * r1, 1.0)  # anchor ball measure on the circle
    seeds = range(1, 1201)
    hits = 0
    for seed in seeds:
        st = _torus_stream(seed)
        coord = st.factor_coords(0, np.array([n]))[0]
        delta = abs(coord - 0.5) % 1.0
        if min(delta, 1.0 - delta) <= r1:
            hits += 1
    n_seeds = len(list(seeds))
    se = math.sqrt(p_exact * (1 - p_exact) / n_seeds)
    assert abs(hits / n_seeds - p_exact) <= 3 * se


def test_fiber_sum_convergent_increments_small():
    # e(s_1 + u) = 2 + 3u > 1: the hit-sum converges
    res = fiber_hit_sum(_torus_stream(11), PowerLawSchedule((2, 3)), (1, 1),
                        (0.5,), 0.75, [10**4, 10**5])
    s4, s5 = res.partials[0][1], res.partials[1][1]
    assert s4 > 0
    assert (s5 - s4) / s4 < 0.1


def test_fiber_sum_zero_hits_reported():
    sched = ExplicitSchedule(
        ((1e-6, 1e-6),) * 50, tail="constant"
    )
    res = fiber_hit_sum(_torus_stream(1), sched, (1, 1), (0.5,), 0.0, [50])
    assert res.hit_count == 0
    assert res.partials[-1][1] == 0.0


def test_fiber_sum_rejects_one_factor():
    st = OmegaStream(1, ProductSpace((Circle(),)))
    with pytest.raises(ValueError, match="at least two factors"):
        fiber_hit_sum(st, PowerLawSchedule((1,)), (1,), (), 0.5, [10])


def test_fiber_sum_u_out_of_range(torus2):
    with pytest.raises(ValueError):
        fiber_hit_sum(OmegaStream(1, torus2), PowerLawSchedule((1, 2)), (1, 1),
                      (0.5,), 1.5, [10])


def test_fiber_sum_requires_sorted_schedule(torus2):
    with pytest.raises(ValueError):
        fiber_hit_sum(OmegaStream(1, torus2), PowerLawSchedule((2, 1)), (1, 1),
                      (0.5,), 0.0, [10])


def test_fiber_sum_requires_matching_regularity(torus2):
    with pytest.raises(ValueError):
        fiber_hit_sum(OmegaStream(1, torus2), PowerLawSchedule((1, 2)), (1, 0.5),
                      (0.5,), 0.0, [10])


_REGULARITY_CALLERS = {
    "fiber": lambda space, s: fiber_hit_sum(OmegaStream(1, space), PowerLawSchedule((1, 2)),
                                            s, (0.5,), 0.0, [10]),
    "tail-cover": lambda space, s: tail_cover_sum(OmegaStream(1, space),
                                                  PowerLawSchedule((1, 2)), s, 0.5, (1, 4)),
    "verdict": lambda space, s: dimension_verdict(PowerLawSchedule((1, 2)), s, space, [1],
                                                  FAST_VERDICT),
}


@pytest.mark.parametrize("caller", list(_REGULARITY_CALLERS))
def test_regularity_vector_matches_to_a_relative_1e_12(torus2, caller):
    call = _REGULARITY_CALLERS[caller]
    call(torus2, (1.0 + 5e-13, 1.0))
    for s in [(1.0 + 2e-12, 1.0), (1.0, 1.0 - 2e-12), (math.nan, 1.0), (1.0,), (1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError, match=re.escape(
                f"regularity vector {list(s)} does not match the space's [1.0, 1.0]")):
            call(torus2, s)


def test_fiber_sum_anchor_dimension(torus2):
    with pytest.raises(ValueError):
        fiber_hit_sum(OmegaStream(1, torus2), PowerLawSchedule((1, 2)), (1, 1),
                      (0.5, 0.5), 0.0, [10])


def test_fiber_sum_reproducible(torus2):
    a = fiber_hit_sum(OmegaStream(4, torus2), PowerLawSchedule((1, 2)), (1, 1),
                      (0.5,), 0.0, [100, 1000])
    b = fiber_hit_sum(OmegaStream(4, torus2), PowerLawSchedule((1, 2)), (1, 1),
                      (0.5,), 0.0, [100, 1000])
    assert a == b


def test_fiber_partials_count_the_hits_up_to_each_checkpoint(torus2):
    # u = 0 weighs each hit 1, so a partial counts the hits n <= N, found
    # here one index at a time
    sched = PowerLawSchedule((1, 2))
    st = OmegaStream(4, torus2)
    circle = torus2.factors[0]
    radii = definition_radii(sched, range(1, 301))[:, 0]
    hits = [circle.distance(omega(st, n)[0], 0.5) <= r for n, r in enumerate(radii, 1)]
    cps = [1, 2, 50, 137, 300]
    res = fiber_hit_sum(st, sched, (1, 1), (0.5,), 0.0, cps)
    assert res.partials == tuple((N, float(sum(hits[:N]))) for N in cps)


_FIBER_SPACES = {
    "torus": (ProductSpace((Circle(), Circle())), (0.5,), (1, 2)),
    "interval-squared": (ProductSpace((Interval(), Interval())), (0.3,), (1, 2)),
    "cantor-squared": (ProductSpace((Cantor(1 / 3), Cantor(1 / 3))), None, (1, 2)),
    "circle-interval-circle": (ProductSpace((Circle(), Interval(), Circle())),
                               (0.25, 0.5), (1, 1.5, 2)),
}


@pytest.mark.parametrize("half_u", [False, True], ids=["u-zero", "u-half"])
@pytest.mark.parametrize("name", list(_FIBER_SPACES))
def test_streamed_fiber_sum_equals_the_materialised_oracle(name, half_u):
    space, anchor, alphas = _FIBER_SPACES[name]
    anchor = anchor or space.center()[:-1]
    sv = space.s_vector
    u = 0.5 * sv[-1] if half_u else 0.0
    cps = [10, 65535, 65536, 65537, 200000]
    args = (PowerLawSchedule(alphas), sv, anchor, u, cps)
    got = fiber_hit_sum(OmegaStream(7, space), *args)
    want = materialised_fiber_hit_sum(OmegaStream(7, space), *args)
    assert got.hit_count == want.hit_count
    for curve in ("partials", "expectation_exact", "expectation_lower"):
        assert [(N, v.hex()) for N, v in getattr(got, curve)] == [
            (N, v.hex()) for N, v in getattr(want, curve)]
    assert got == want


def test_fiber_sum_clips_prefactor_radii_to_the_whole_factor():
    # a prefactor of 3 puts the first Cantor radii past 2 * diameter = 2,
    # where the ball is the whole factor: the mass kernel takes the clip
    cantor = Cantor(0.25)
    space = ProductSpace((cantor, Interval()))
    sched = PowerLawSchedule((1, 2), (3, 1))
    anchor = (cantor.point(()),)
    got = fiber_hit_sum(OmegaStream(3, space), sched, space.s_vector, anchor, 0.5, [100])
    radii = np.exp(sched.log_radii(np.arange(1, 101)))
    assert radii[0, 0] > 2.0
    terms = radii[:, 1] ** 0.5 * cantor.ball_measure_array(anchor[0], np.minimum(radii[:, 0], 2.0))
    assert got.expectation_exact == ((100, math.fsum(terms.tolist())),)


@pytest.mark.parametrize("chunk", [1, 3])
def test_fiber_sum_in_small_chunks(monkeypatch, torus2, chunk):
    # chunks of a few indices cut the walk between and at the checkpoints
    monkeypatch.setattr(svf, "_CHUNK", chunk)
    args = (PowerLawSchedule((0.5, 1)), (1, 1), (0.5,), 0.5, [1, 2, 50, 137, 300])
    got = fiber_hit_sum(OmegaStream(4, torus2), *args)
    assert got.hit_count > 0
    assert got == materialised_fiber_hit_sum(OmegaStream(4, torus2), *args)


def test_fiber_sum_peak_memory(torus2):
    # six full-length arrays and fsum of each prefix peaked at 80 MB here
    tracemalloc.start()
    try:
        fiber_hit_sum(OmegaStream(9, torus2), PowerLawSchedule((1, 2)), (1, 1),
                      (0.5,), 0.0, [1000, 10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


# ---------------------------------------------------------------------------
# the memo of expectation curves
# ---------------------------------------------------------------------------


def _bits(res):
    """A result's statistics and hit count, every float as its bits."""
    def exact(v):
        if isinstance(v, list):
            return [exact(x) for x in v]
        return v.hex() if isinstance(v, float) else v
    return {k: exact(v) for k, v in res.statistics().items()}, res.hit_count


@settings(max_examples=25, deadline=None)
@given(
    kinds=hst.lists(hst.sampled_from(["interval", "circle", "cantor"]), min_size=2, max_size=3),
    lam=hst.sampled_from([0.25, 1 / 3, 0.45]),
    coords=hst.lists(hst.one_of(hst.just(0.0), hst.just(-0.0), hst.floats(0.0, 1.0)),
                     min_size=2, max_size=2),
    digits=hst.lists(hst.integers(0, 1), max_size=8),
    u_share=hst.one_of(hst.just(0.0), hst.just(-0.0), hst.floats(0.0, 1.0)),
    sched_kind=hst.sampled_from(["power", "prefactors", "explicit", "rising"]),
    cps=hst.lists(hst.one_of(hst.integers(1, 300), hst.sampled_from([65535, 65536, 65537])),
                  min_size=1, max_size=4),
    seeds=hst.lists(hst.integers(0, 40), min_size=1, max_size=3),
)
@example(kinds=["circle", "circle"], lam=0.25, coords=[0.5, 0.5], digits=[], u_share=0.0,
         sched_kind="rising", cps=[100, 65535, 65536, 65537], seeds=[3])
@example(kinds=["cantor", "interval", "circle"], lam=1 / 3, coords=[0.25, 0.7],
         digits=[0, 1, 1], u_share=0.5, sched_kind="prefactors", cps=[65535, 65536, 65537],
         seeds=[5, 6])
@example(kinds=["interval", "cantor"], lam=0.45, coords=[0.0, 0.0], digits=[1, 0],
         u_share=1.0, sched_kind="rising", cps=[70, 65537], seeds=[2])
def test_memoised_fiber_sum_equals_the_unmemoised_oracle(kinds, lam, coords, digits, u_share,
                                                         sched_kind, cps, seeds):
    # cold for a seed of its own, then warm for every drawn seed (repeats too)
    kind = {"interval": Interval, "circle": Circle, "cantor": lambda: Cantor(lam)}
    space = ProductSpace(tuple(kind[k]() for k in kinds))
    d = space.dim
    anchor = tuple(f.point(digits) if f.kind == "cantor" else x
                   for f, x in zip(space.factors[:-1], coords))
    u = u_share * space.factors[-1].s
    alphas = (0.5, 1.0, 2.0)[:d]
    sched = {
        "power": PowerLawSchedule(alphas),
        "prefactors": PowerLawSchedule(alphas, (3.0, 1.0, 0.5)[:d]),
        "explicit": ExplicitSchedule(((0.9, 0.5, 0.5)[:d], (0.4, 0.3, 0.2)[:d]),
                                     PowerLawSchedule(alphas, (2.0, 1.0, 1.0)[:d])),
        # listed radii that rise with n: a bound read at a run's first index
        # would miss the hits of tuples 51 to 100
        "rising": ExplicitSchedule(((1e-3,) * d,) * 50 + ((0.4, 0.3, 0.2)[:d],) * 50,
                                   PowerLawSchedule(alphas)),
    }[sched_kind]
    args = (sched, space.s_vector, anchor, u, cps)
    mc._last_curves, memo = None, None
    for seed in (41, *seeds):
        got = fiber_hit_sum(OmegaStream(seed, space), *args)
        assert _bits(got) == _bits(unmemoised_fiber_hit_sum(OmegaStream(seed, space), *args))
        assert mc._last_curves[1] == (got.expectation_exact, got.expectation_lower)
        # each call after the first is a memo hit, which keeps the entry
        assert memo is None or mc._last_curves is memo
        memo = mc._last_curves


def test_fiber_curves_take_no_stream(monkeypatch, torus2):
    # the curves are a function of the schedule and the fiber alone: walked
    # once with no stream, they serve a later fiber sum from the memo
    sched, cps = PowerLawSchedule((0.5, 1), (3, 1)), [100, 65537]
    curves = mc._fiber_curves(sched, np.array([1.0, 1.0]), torus2, (0.5,), 0.25, cps)
    monkeypatch.setattr(mc, "partial_sums", lambda *a: pytest.fail("a second curve walk"))
    monkeypatch.setattr(Circle, "ball_measure_array", lambda *a: pytest.fail("a ball mass"))
    got = fiber_hit_sum(OmegaStream(1, torus2), sched, (1, 1), (0.5,), 0.25, cps)
    monkeypatch.undo()
    assert (got.expectation_exact, got.expectation_lower) == curves
    assert _bits(got) == _bits(unmemoised_fiber_hit_sum(OmegaStream(1, torus2), sched, (1, 1),
                                                        (0.5,), 0.25, cps))


def test_a_warm_walk_computes_radii_at_candidates_only(monkeypatch, torus2):
    # past the first run, 1..1000, a chunk's bound is r at its first index,
    # and few indices come within twice that of the anchor
    args = (PowerLawSchedule((1, 2)), (1, 1), (0.5,), 0.0, [1000, 10**4, 10**5])
    fiber_hit_sum(OmegaStream(1, torus2), *args)
    rows = []
    real = PowerLawSchedule.log_radii
    monkeypatch.setattr(PowerLawSchedule, "log_radii",
                        lambda self, ns, out=None: rows.append(len(ns)) or real(self, ns, out))
    got = fiber_hit_sum(OmegaStream(2, torus2), *args)
    assert 0 < got.hit_count <= sum(rows) < 2000
    assert _bits(got) == _bits(unmemoised_fiber_hit_sum(OmegaStream(2, torus2), *args))


_BASE_CALL = dict(lam=0.25, sched=PowerLawSchedule((1, 2), (2, 1)), s=None,
                  digits=(1, 0, 1), u=0.25, cps=[100, 1000])


@pytest.mark.parametrize("part, change", [
    ("lam", 0.3),
    ("sched", PowerLawSchedule((1, 2), (2, 0.5))),
    ("digits", (0, 1)),
    ("u", 0.5),
    ("cps", [100, 1001]),
    ("s", (Cantor(0.25).s * (1.0 + 2.0**-52), 1.0)),
], ids=["cantor-lambda", "prefactor", "anchor", "u", "checkpoint", "s"])
def test_a_change_of_one_key_part_misses_the_memo(part, change):
    def call(seed, **parts):
        spec = {**_BASE_CALL, **parts}
        space = ProductSpace((Cantor(spec["lam"]), Interval()))
        anchor = (space.factors[0].point(spec["digits"]),)
        args = (spec["sched"], spec["s"] or space.s_vector, anchor, spec["u"], spec["cps"])
        return (fiber_hit_sum(OmegaStream(seed, space), *args),
                unmemoised_fiber_hit_sum(OmegaStream(seed, space), *args))

    base, _ = call(3)
    got, want = call(4, **{part: change})
    assert _bits(got) == _bits(want)
    # the changed part moves an expectation curve, so a shared entry would show
    assert (got.expectation_exact, got.expectation_lower) != (
        base.expectation_exact, base.expectation_lower)


@pytest.mark.parametrize("first, second", [
    (PowerLawSchedule((1, 2)), PowerLawSchedule((1.0, 2.0))),
    (ExplicitSchedule(((1, 0.5), (0.5, 0.25)), PowerLawSchedule((1, 2))),
     ExplicitSchedule(((1.0, 0.5), (0.5, 0.25)), PowerLawSchedule((1.0, 2.0)))),
], ids=["power-law", "explicit"])
def test_equal_values_share_the_memo(monkeypatch, first, second):
    # a second Cantor(0.25) and the schedule built again with floats are the
    # same values: the second call sums no series
    calls = []
    monkeypatch.setattr(mc, "partial_sums", lambda *a: calls.append(1) or svf.partial_sums(*a))
    for seed, sched in ((1, first), (2, second)):
        space = ProductSpace((Cantor(0.25), Cantor(0.25)))
        args = (sched, space.s_vector, (space.factors[0].point((1, 0, 1)),), 0.0, [500])
        got = fiber_hit_sum(OmegaStream(seed, space), *args)
        assert _bits(got) == _bits(unmemoised_fiber_hit_sum(OmegaStream(seed, space), *args))
    assert len(calls) == 1


def test_memo_keeps_only_the_last_curves(monkeypatch, torus2):
    # two keys in turn each walk their curves again: the memo holds one
    calls = []
    monkeypatch.setattr(mc, "partial_sums", lambda *a: calls.append(1) or svf.partial_sums(*a))
    args = (PowerLawSchedule((1, 2)), (1, 1), (0.5,), 0.0)
    for seed, cps in enumerate([[10], [10], [20], [10], [10]]):
        got = fiber_hit_sum(OmegaStream(seed, torus2), *args, cps)
        assert _bits(got) == _bits(unmemoised_fiber_hit_sum(OmegaStream(seed, torus2), *args, cps))
    assert len(calls) == 3
    assert mc._last_curves[1] == (got.expectation_exact, got.expectation_lower)


def test_verdict_seed_loop_walks_the_curves_once(monkeypatch, torus2):
    # alphas (0.5, 1) put t* = 1.5 above s_1 = 1, so the fiber check runs
    masses = []
    real = Circle.ball_measure_array
    monkeypatch.setattr(Circle, "ball_measure_array",
                        lambda self, x, rs: masses.append(rs.size) or real(self, x, rs))
    rep = dimension_verdict(PowerLawSchedule((0.5, 1)), (1, 1), torus2, [1, 2, 3], FAST_VERDICT)
    fiber = next(c for c in rep.checks if c.name == "fiber-divergence")
    assert fiber.status == "PASS" and ": 0/3 seeds at or below E/2, " in fiber.detail
    # one walk of the exact curve: its ball masses add up to one horizon
    assert sum(masses) == FAST_VERDICT.fiber_checkpoints[-1]


def test_a_returned_result_cannot_change_a_later_one(torus2):
    args = (PowerLawSchedule((1, 2)), (1, 1), (0.5,), 0.5, [10, 100])
    first = fiber_hit_sum(OmegaStream(1, torus2), *args)
    with pytest.raises(TypeError):
        first.expectation_exact[0] = (10, -1.0)
    stats = first.statistics()
    stats["expectation_exact"][0] = -1.0
    stats["expectation_lower"].clear()
    object.__setattr__(first, "expectation_exact", ())
    later = fiber_hit_sum(OmegaStream(2, torus2), *args)
    assert _bits(later) == _bits(unmemoised_fiber_hit_sum(OmegaStream(2, torus2), *args))


@pytest.mark.parametrize("density", [0.0, 1e-4, 0.01, 0.5, 1.0])
def test_hit_partials_equal_zero_filled_fsum(density):
    rng = np.random.default_rng(17)
    n = 20_000
    # weights spanning many binades, so rounding order would show
    weights = rng.random(n) ** 20 * 10.0 ** rng.integers(-8, 8, n)
    cps = [1, 7, 1000, 1024, 19_999, 20_000]
    for _ in range(4):
        hits = rng.random(n) < density
        terms = np.where(hits, weights, 0.0)
        expected = [math.fsum(terms[:N].tolist()) for N in cps]
        # the fiber sum adds the hit terms alone, as here
        hit_index = np.flatnonzero(hits)
        got = prefix_fsums(weights[hit_index], np.searchsorted(hit_index, cps))
        assert [v.hex() for v in got] == [v.hex() for v in expected]


# ---------------------------------------------------------------------------
# divergence tail bound
# ---------------------------------------------------------------------------


def test_divergence_harmonic_bound(rng):
    p = 1.0 / np.arange(1, 10**4 + 1)
    res = divergence_tail_bound_test(p, 2000, rng)
    assert res.rows  # M in 1..4 admissible
    assert {row[1] for row in res.rows} == {1, 2, 3, 4}
    assert res.passed


def test_divergence_deterministic_ones(rng):
    res = divergence_tail_bound_test(np.ones(100), 1000, rng)
    # sums equal N deterministically, so empirical tails are all zero
    assert all(row[4] == 0.0 for row in res.rows)
    assert res.passed


def test_divergence_degenerate_zero_expectations(rng):
    res = divergence_tail_bound_test(np.zeros(100), 1000, rng)
    assert res.rows == ()
    assert res.passed


def test_divergence_validates_inputs(rng):
    with pytest.raises(ValueError):
        divergence_tail_bound_test([0.5, 1.2], 1000, rng)
    with pytest.raises(ValueError):
        divergence_tail_bound_test([0.5], 10, rng)


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.tuples(hst.floats(1e-3, 1e3), hst.floats(0.0, 1.0)),
                 min_size=1, max_size=12))
def test_divergence_lemma_bounds_a_weighted_hit_sum(terms):
    # the verdict's fiber rule: xi_n = w_n X_n / w_max lie in [0, 1], so the
    # lemma gives P{sum w_n X_n <= E/2} <= 4 w_max / E, here in exact rationals
    w, p = zip(*terms)
    expected = sum(Fraction(wn) * Fraction(pn) for wn, pn in terms)
    if expected > 0:
        low = weighted_bernoulli_cdf(w, p, expected / 2)
        assert low <= 4 * Fraction(max(w)) / expected


def test_divergence_lemma_needs_the_largest_weight():
    # one index of weight 100 hit with p = 0.9: E = 90, and the sum is 0, at
    # or below E/2, with probability 0.1: more than 4/E, within 4 w_max/E
    low = weighted_bernoulli_cdf([100.0], [0.9], 45.0)
    expected = 100 * Fraction(0.9)
    assert low == 1 - Fraction(0.9)
    assert 4 / expected < low <= 4 * 100 / expected


def _harmonic(N):
    return 1.0 / np.arange(1, N + 1)


def _mixed_expectations(N=3000):
    p = _harmonic(N)
    p[31:63] = 0.0            # block n in [32, 64): nothing is drawn
    p[63:127] = 1e-300        # [64, 128): thinned at q = 1e-300
    p[127:255:5] = 1.0        # [128, 256): its ones make it dense
    p[255:511:2] = 0.0        # [256, 512): thinned, with zeros inside
    p[511:1023:3] = 1e-300    # [512, 1024): thinned, tiny entries among 1/n
    return p


# checkpoints on block edges (N = 2^j - 1 ends a block, 2^j starts one) and
# off them, with len(p) not a power of two
SAMPLER_CASES = {
    "harmonic": (_harmonic(3000), [1, 100, 127, 128, 1000, 3000]),
    "n^-1.5": (np.arange(1, 5001) ** -1.5, [15, 16, 2047, 5000]),
    "constant-0.03": (np.full(1500, 0.03), [31, 500, 1023, 1500]),
    "constant-0.3": (np.full(700, 0.3), [1, 63, 300, 700]),
    "mixed-0-1-tiny": (_mixed_expectations(), [63, 127, 200, 511, 1023, 3000]),
}


def _chi_square_p(counts, pmf):
    """p-value of the observed counts against the law pmf (k = 0..len-1, the
    rest of the mass in one tail bin), with bins pooled left to right until
    each expects at least 5."""
    trials = counts.size
    observed = np.bincount(np.minimum(counts, pmf.size), minlength=pmf.size + 1)
    expected = trials * np.append(pmf, max(0.0, 1.0 - pmf.sum()))
    obs_bins, exp_bins = [0], [0.0]
    for o, e in zip(observed, expected):
        if exp_bins[-1] >= 5.0:
            obs_bins.append(0)
            exp_bins.append(0.0)
        obs_bins[-1] += o
        exp_bins[-1] += e
    if len(exp_bins) > 1 and exp_bins[-1] < 5.0:
        o, e = obs_bins.pop(), exp_bins.pop()
        obs_bins[-1] += o
        exp_bins[-1] += e
    if len(exp_bins) == 1:
        return 1.0  # one bin: the counts are certain, and all fall in it
    o, e = np.asarray(obs_bins, dtype=float), np.asarray(exp_bins)
    return float(stats.chi2.sf(np.sum((o - e) ** 2 / e), len(e) - 1))


def _check_poisson_binomial_law(monkeypatch, name, seed):
    p, cps = SAMPLER_CASES[name]
    # a small draw budget makes many row chunks; 3001 trials is a multiple
    # of no chunk size
    monkeypatch.setattr(mc, "_DRAW_BYTES", 1 << 16)
    sums = mc._bernoulli_counts(p, 3001, np.random.default_rng(seed), cps)
    for j, N in enumerate(cps):
        mean = math.fsum(p[:N])
        kmax = min(N, int(mean + 10.0 * math.sqrt(mean) + 10))
        pmf = poisson_binomial_pmf(p[:N], kmax)
        assert _chi_square_p(sums[:, j], pmf) > 1e-3, (name, seed, N)


@pytest.mark.parametrize("seed", [3, 41, 505])
@pytest.mark.parametrize("name", list(SAMPLER_CASES))
def test_bernoulli_counts_fit_the_poisson_binomial_law(monkeypatch, name, seed):
    _check_poisson_binomial_law(monkeypatch, name, seed)


@pytest.mark.parametrize("seed", [3, 41, 505])
@pytest.mark.parametrize("name", list(SAMPLER_CASES))
def test_bernoulli_counts_fit_the_law_one_candidate_a_pass(monkeypatch, name, seed):
    # nearly every trial of a thinned block takes many passes, so each pass
    # going on from its trial's last candidate is tested on its own
    monkeypatch.setattr(mc, "_pass_width", lambda q, size: 1)
    _check_poisson_binomial_law(monkeypatch, name, seed)


def test_bernoulli_counts_keep_no_zero_expectation():
    # one thinned block n in [256, 512) with p = 0 below n = 300: the counts
    # up to n = 299 must be exactly zero, whatever the candidates were
    p = np.zeros(600)
    p[299:] = 0.05
    sums = mc._bernoulli_counts(p, 2000, np.random.default_rng(4), [299, 300, 600])
    assert not sums[:, 0].any()
    assert 0 < np.count_nonzero(sums[:, 1]) < 2000


def test_divergence_same_seed_same_table():
    p = _mixed_expectations()
    a = divergence_tail_bound_test(p, 2000, np.random.default_rng(9), [200, 3000])
    b = divergence_tail_bound_test(p, 2000, np.random.default_rng(9), [200, 3000])
    assert a == b and len(a.rows) > 2


def test_divergence_rows_do_not_depend_on_the_checkpoint_set():
    p = _mixed_expectations()
    cps = [200, 3000]
    more = [100, 200, 1500, 2047, 3000]
    base = divergence_tail_bound_test(p, 2000, np.random.default_rng(9), cps)
    added = divergence_tail_bound_test(p, 2000, np.random.default_rng(9), more)
    assert [row for row in added.rows if row[0] in cps] == list(base.rows)
    sums = mc._bernoulli_counts(p, 2000, np.random.default_rng(9), cps)
    sums_more = mc._bernoulli_counts(p, 2000, np.random.default_rng(9), more)
    assert np.array_equal(sums_more[:, [1, 4]], sums)


@pytest.mark.parametrize("value", [0.3, 0.05], ids=["dense", "thinned"])
def test_bernoulli_counts_memory_stays_near_the_draw_budget(monkeypatch, value):
    # blocks up to 2^16 indices: one dense row of the last would be 2.25
    # budgets; numpy's reductions add buffers of their own, up to ~100 KB
    budget = 1 << 18
    monkeypatch.setattr(mc, "_DRAW_BYTES", budget)
    p = np.full(1 << 17, value)
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        mc._bernoulli_counts(p, 200, rng, [1000, 1 << 17])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + (1 << 17)


class _CountingGenerator:
    """A numpy Generator that counts the random numbers that ``random`` and
    ``geometric``, the only methods the divergence kernel calls, return."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self, size=None):
        out = self._rng.random(size)
        self.draws += np.size(out)
        return out

    def geometric(self, p, size=None):
        out = self._rng.geometric(p, size)
        self.draws += np.size(out)
        return out


def test_divergence_draws_about_what_thinning_needs():
    # each thinned block of harmonic p expects about one candidate a trial;
    # passes of a fixed 9 columns took 1.91e6 random numbers here
    p = _harmonic(10**4)
    rng = _CountingGenerator(1)
    res = divergence_tail_bound_test(p, 10**4, rng)
    assert res == divergence_tail_bound_test(p, 10**4, np.random.default_rng(1))
    assert res.passed and rng.draws < 1e6


@pytest.mark.parametrize("p", [_harmonic(10**4), np.full(10**4, 0.05)],
                         ids=["harmonic", "constant-0.05"])
def test_divergence_peak_memory(p):
    # the dense row-blocked draws this kernel replaced peaked at 5.8 MB here
    tracemalloc.start()
    try:
        divergence_tail_bound_test(p, 10**4, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.8e6


def test_divergence_reads_expectations_without_a_list():
    # a list of a million float objects peaked at 40.7 MB here; all-zero p
    # draws nothing, so the peak is the input checks alone
    p = np.zeros(10**6)
    tracemalloc.start()
    try:
        divergence_tail_bound_test(p, 1000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("p", [np.full((10, 10), 0.5), 0.5, np.zeros((0,))],
                         ids=["2-d", "scalar", "empty"])
def test_divergence_rejects_expectations_not_1d(p):
    with pytest.raises(ValueError, match="non-empty 1-d"):
        divergence_tail_bound_test(p, 1000, np.random.default_rng(1))


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_torus_all_cells_hit():
    st = OmegaStream(6, ProductSpace((Circle(),)))
    rep = density_check(st, 0.1, 10**4)
    assert rep.cell_count == 10
    assert min(rep.counts_full) >= 500
    assert rep.passed


@pytest.mark.parametrize("horizon", [0, 1, 7, 1000])
@pytest.mark.parametrize("space", [ProductSpace((Circle(), Circle())),
                                   ProductSpace((Cantor(1 / 3), Cantor(1 / 3)))],
                         ids=["torus", "cantor-square"])
def test_density_half_horizon_is_the_full_count_at_half(space, horizon):
    st = OmegaStream(12, space)
    rep = density_check(st, 0.2, horizon)
    assert rep.counts_half == density_check(st, 0.2, horizon // 2).counts_full


def test_density_zero_horizon_fails():
    st = OmegaStream(6, ProductSpace((Circle(),)))
    rep = density_check(st, 0.1, 0)
    assert not rep.passed
    assert all(c == 0 for c in rep.counts_full)


def test_density_cantor_cylinders():
    st = OmegaStream(6, ProductSpace((Cantor(1 / 3),)))
    rep = density_check(st, (1 / 3) ** 3 + 1e-12, 10**4)
    assert rep.cell_count == 8
    assert min(rep.counts_full) >= 1
    assert rep.passed


def test_density_product_cells():
    st = OmegaStream(6, ProductSpace((Circle(), Interval())))
    rep = density_check(st, 0.25, 2000)
    assert rep.cell_count == 16
    assert rep.passed


DENSITY_SPACES = [ProductSpace((Circle(), Circle())),
                  ProductSpace((Cantor(1 / 3), Cantor(1 / 3))),
                  ProductSpace((Interval(), Cantor(0.25), Circle()))]


@pytest.mark.parametrize("horizon", [0, 1, 2, 3, 65535, 65536, 65537, 131073, 200000])
@pytest.mark.parametrize("space", DENSITY_SPACES,
                         ids=["torus", "cantor-square", "interval-cantor-circle"])
def test_density_equals_whole_horizon_oracle(space, horizon):
    # horizons on both sides of the 2^16 chunk edge, once and twice over
    st = OmegaStream(17, space)
    for delta in (0.3, 0.05):
        assert density_check(st, delta, horizon) == materialised_density_counts(st, delta, horizon)


def test_density_memory_is_o_chunk_plus_cells():
    # the whole-horizon count it replaced traced a 92 MB peak
    st = OmegaStream(3, DENSITY_SPACES[1])
    tracemalloc.start()
    try:
        rep = density_check(st, 0.05, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cell_count == 64 and sum(rep.counts_full) == 10**6
    assert peak < 12e6


def test_density_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        density_check(OmegaStream(6, ProductSpace((Circle(),))), 0.1, -1)


def test_density_rejects_too_many_cells(torus2):
    st = OmegaStream(6, torus2)
    with pytest.raises(ValueError, match=r"100000000 cells over 2 factors.*cap"):
        density_check(st, 1e-4, 10)


def test_density_rejects_delta_below_cantor_sampling_depth():
    can = Cantor(1 / 3)
    st = OmegaStream(6, ProductSpace((can,)))
    delta = can.lam ** (can.default_depth + 1)
    with pytest.raises(ValueError, match=f"more than its sampling depth {can.default_depth}"):
        density_check(st, delta, 10)


@pytest.mark.parametrize("factor, delta", [(Circle(), 1e-320), (Interval(), 5e-324)],
                         ids=["circle", "interval"])
def test_density_rejects_delta_whose_inverse_overflows(factor, delta):
    # 1/delta is inf: a domain error naming delta, raised before the
    # horizon's arrays are made
    st = OmegaStream(6, ProductSpace((factor,)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"delta={delta!r} is too fine"):
            density_check(st, delta, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# ---------------------------------------------------------------------------
# tail cover sums
# ---------------------------------------------------------------------------


def test_tail_cover_single_rectangle_reference(unit_square):
    st = OmegaStream(11, unit_square)
    sched = ExplicitSchedule(((0.4, 0.05),), tail="constant")
    prof = tail_cover_sum(st, sched, (1, 1), 1.5, (1, 1))
    (n, count, rho, contribution, phi) = prof.per_n[0]
    # the side is the exp of the schedule's log-radius, one rounding off
    assert rho == np.exp(np.log(0.05)) == pytest.approx(0.05, rel=1e-15)
    assert count <= 128
    assert contribution <= 128 * 0.1**1.5
    assert phi == pytest.approx(0.05**0.5 * 0.4, rel=1e-12)
    C = (4 * 4) ** 2
    assert prof.reference == pytest.approx(2**1.5 * C * phi, rel=1e-12)
    assert prof.ok


def test_tail_cover_t_zero(unit_square):
    st = OmegaStream(11, unit_square)
    sched = ExplicitSchedule(((0.4, 0.05),), tail="constant")
    prof = tail_cover_sum(st, sched, (1, 1), 0.0, (1, 4))
    assert prof.value == sum(c for _, c, _, _, _ in prof.per_n)
    assert prof.reference == pytest.approx((4 * 4) ** 2 * 4)


def test_tail_cover_monotone_in_window(torus2):
    st = OmegaStream(9, torus2)
    sched = PowerLawSchedule((2, 3))
    small = tail_cover_sum(st, sched, (1, 1), 0.75, (1, 32))
    large = tail_cover_sum(st, sched, (1, 1), 0.75, (1, 64))
    assert large.value >= small.value
    assert small.ok and large.ok


def test_tail_cover_domination_on_t_grid(torus2):
    st = OmegaStream(5, torus2)
    sched = PowerLawSchedule((2, 3))
    for t in np.linspace(0.2, 2.0, 10):
        prof = tail_cover_sum(st, sched, (1, 1), float(t), (1, 48))
        assert prof.ok


def test_tail_cover_late_window_radii_small(torus2):
    st = OmegaStream(5, torus2)
    sched = PowerLawSchedule((2, 3))
    prof = tail_cover_sum(st, sched, (1, 1), 1.2, (50, 60))
    delta = (1.0 / 50.0) ** 2
    assert all(radius <= delta for _, _, radius, _, _ in prof.per_n)
    assert prof.ok


def test_tail_cover_t_out_of_range(torus2):
    st = OmegaStream(5, torus2)
    with pytest.raises(ValueError):
        tail_cover_sum(st, PowerLawSchedule((2, 3)), (1, 1), 2.5, (1, 4))


def test_tail_cover_bad_window(torus2):
    st = OmegaStream(5, torus2)
    with pytest.raises(ValueError):
        tail_cover_sum(st, PowerLawSchedule((2, 3)), (1, 1), 0.5, (5, 4))


def test_tail_cover_window_from_one_with_prefactors(torus2):
    # radii past the circle's diameter cover the whole circle, so windows
    # from n = 1 are built and dominated whatever the prefactors
    st = OmegaStream(5, torus2)
    explicit = ExplicitSchedule(((0.5, 0.25),), PowerLawSchedule((1, 2), (3, 1)))
    for sched in (PowerLawSchedule((1, 2), (2, 1)), explicit):
        for t in (0.5, 1.0, 1.5):
            prof = tail_cover_sum(st, sched, (1, 1), t, (1, 4))
            assert prof.ok and math.isfinite(prof.reference)
            assert prof.per_n == per_n_tail_cover_sum(st, sched, (1, 1), t, (1, 4)).per_n


@pytest.mark.parametrize("factors, s, sched, t", [
    # 2 rho overflows while the reference, 2^0.5 C kappa^0.5, does not
    ((Circle(), Cantor(0.25)), (1, 0.5), PowerLawSchedule((1, 2), (1e308, 1e308)), 0.5),
    # Phi = r_1 r_2^0.5 overflows
    ((Circle(), Circle()), (1, 1), PowerLawSchedule((0.5, 1), (1e300, 1e300)), 1.5),
    # each Phi is finite, and fsum of them overflows
    ((Interval(),), (1,), PowerLawSchedule((0.001,), (1e308,)), 1.0),
], ids=["side", "phi", "fsum"])
def test_tail_cover_past_the_float_range_names_the_window(factors, s, sched, t):
    st = OmegaStream(1, ProductSpace(factors))
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=f"window \\[1, 8\\] at t={t} has cover sums "
                           "past the float range"):
            tail_cover_sum(st, sched, s, t, (1, 8))


_ALL_FACTORS = [Interval(), Circle(), Cantor(1 / 3), Cantor(0.25), Cantor(0.4)]


@given(hst.data())
@settings(max_examples=40, deadline=None)
def test_prefactor_tail_covers_from_one_are_dominated_and_finite(data):
    d = data.draw(hst.integers(1, 3))
    factors = tuple(data.draw(hst.sampled_from(_ALL_FACTORS)) for _ in range(d))
    alphas = sorted(data.draw(hst.floats(0.25, 3.0)) for _ in range(d))
    kappas = sorted((data.draw(hst.floats(0.5, 20.0)) for _ in range(d)), reverse=True)
    space = ProductSpace(factors)
    s = space.s_vector
    t = data.draw(hst.floats(0.0, math.fsum(s)))
    window = (1, data.draw(hst.integers(1, 40)))
    stream = OmegaStream(data.draw(hst.integers(0, 2**32 - 1)), space)
    prof = tail_cover_sum(stream, PowerLawSchedule(tuple(alphas), tuple(kappas)), s, t, window)
    assert prof.ok
    assert math.isfinite(prof.value) and math.isfinite(prof.reference)
    assert all(math.isfinite(row[3]) for row in prof.per_n)


@given(hst.data())
@settings(max_examples=40, deadline=None)
def test_tail_cover_radius_is_the_exp_of_one_log_radius(data):
    # one rectangle per index: each row's cube radius is the exp of one
    # entry of its log_radii row, whatever the schedule, and the covers
    # dominate their reference
    d = data.draw(hst.integers(1, 3), label="d")
    factors = tuple(data.draw(hst.sampled_from(_ALL_FACTORS)) for _ in range(d))
    power = PowerLawSchedule(
        tuple(data.draw(hst.floats(0.25, 3.0)) for _ in range(d)),
        tuple(math.exp(data.draw(hst.floats(-3.0, 3.0))) for _ in range(d)))
    if data.draw(hst.booleans(), label="explicit"):
        k = data.draw(hst.integers(1, 10), label="k")
        rows = [[data.draw(hst.floats(1e-4, 2.0)) for _ in range(d)] for _ in range(k)]
        sched = ExplicitSchedule(rows, data.draw(hst.sampled_from(["constant", power])))
    else:
        sched = power
    space = ProductSpace(factors)
    s = space.s_vector
    t = data.draw(hst.floats(0.0, math.fsum(s)), label="t")
    n0 = data.draw(hst.integers(1, 20), label="n0")
    window = (n0, n0 + data.draw(hst.integers(0, 24), label="length"))
    stream = OmegaStream(data.draw(hst.integers(0, 2**32 - 1)), space)
    prof = tail_cover_sum(stream, sched, s, t, window)
    assert prof.ok
    radii = np.exp(sched.log_radii(range(window[0], window[1] + 1)))
    assert len(prof.per_n) == len(radii)
    for (n, _, rho, _, _), row, want_n in zip(prof.per_n, radii, itertools.count(n0)):
        assert n == want_n and rho in row.tolist()


def test_tail_cover_window_cap(torus2):
    st = OmegaStream(5, torus2)
    sched = PowerLawSchedule((1, 2))
    n1 = mc.MAX_COVER_WINDOW
    with pytest.raises(ValueError, match=f"window \\[1, {n1 + 1}\\] holds {n1 + 1} "
                       f"rectangles, more than the cap of {n1}"):
        tail_cover_sum(st, sched, (1, 1), 0.5, (1, n1 + 1))
    with pytest.raises(ValueError, match="more than the cap"):
        dimension_verdict(sched, (1, 1), torus2, [5],
                          VerdictConfig(cover_window=(1, 10**13)))


_CANTOR_THIRD_S = Cantor(1 / 3).s
_CANTOR_QUARTER_S = Cantor(0.25).s


@pytest.mark.parametrize("factors,s,sched,window", [
    ((Interval(), Interval()), (1, 1), PowerLawSchedule((2, 3)), (1, 40)),
    # n = 2 puts the first circle at R = 1/2, where wrap_clash fires
    ((Circle(), Circle()), (1, 1), PowerLawSchedule((1, 2)), (1, 40)),
    ((Cantor(1 / 3), Cantor(1 / 3)), (_CANTOR_THIRD_S,) * 2,
     PowerLawSchedule((1, 2)), (1, 24)),
    ((Cantor(0.25), Circle()), (_CANTOR_QUARTER_S, 1), PowerLawSchedule((0.5, 1)), (1, 24)),
    ((Circle(), Interval(), Circle()), (1, 1, 1), PowerLawSchedule((1, 1.5, 2)), (1, 24)),
    # the running sum of s in radius order ends one ulp below fsum(s), so at
    # t = fsum(s) the piece is clamped to the last factor
    ((Interval(), Cantor(1 / 3), Cantor(0.15)), (1, _CANTOR_THIRD_S, Cantor(0.15).s),
     PowerLawSchedule((1, 1.5, 2)), (1, 16)),
    # the circle's side 0.8 is clamped to its diameter
    ((Circle(), Interval()), (1, 1),
     ExplicitSchedule(((0.3, 0.1), (0.05, 0.2), (0.8, 0.1), (0.4, 0.4)), tail="constant"),
     (1, 8)),
    ((Circle(), Interval()), (1, 1),
     ExplicitSchedule(((0.5, 0.25), (0.1, 0.3)), PowerLawSchedule((1, 2), (3, 1))), (1, 2)),
    ((Circle(), Interval()), (1, 1),
     ExplicitSchedule(((0.5, 0.25), (0.1, 0.3)), PowerLawSchedule((1, 2), (3, 1))), (3, 30)),
    ((Circle(), Circle()), (1, 1), PowerLawSchedule((1, 2), (2, 1)), (5, 40)),
    # the circle's sides 2 at n = 1 and 1 at n = 2 pass its diameter
    ((Circle(), Circle()), (1, 1), PowerLawSchedule((1, 2), (2, 1)), (1, 40)),
], ids=["interval2", "torus", "cantor-third2", "cantor-quarter-circle",
        "circle-interval-circle", "interval-cantor-cantor", "explicit-constant",
        "explicit-power-head", "explicit-power-tail", "past-n-min", "prefactors-from-one"])
def test_tail_cover_matches_per_n_oracle(factors, s, sched, window):
    sv = np.asarray(s, dtype=float)
    # t = 0, every breakpoint of the s partial sums in any order, the total,
    # and the midpoints between them, where the pieces are open
    breakpoints = {0.0, math.fsum(sv)}
    for perm in itertools.permutations(range(len(sv))):
        breakpoints.update(np.cumsum(sv[list(perm)]).tolist())
    ts = sorted(breakpoints)
    ts += [0.5 * (a + b) for a, b in zip(ts, ts[1:])]
    for seed in (3, 17):
        stream = OmegaStream(seed, ProductSpace(factors))
        for t in ts:
            got = tail_cover_sum(stream, sched, s, t, window)
            want = per_n_tail_cover_sum(stream, sched, s, t, window)
            assert got.per_n == want.per_n
            assert got.value.hex() == want.value.hex()
            assert got.reference.hex() == want.reference.hex()


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
def test_tail_cover_table_sums_are_exact_prefix_sums(torus2, t):
    prof = tail_cover_sum(OmegaStream(9, torus2), PowerLawSchedule((1, 2)), (1, 1), t, (1, 128))
    rows = prof.csv_rows()
    for k, (n, value, phi, ratio) in enumerate(rows):
        assert n == prof.per_n[k][0]
        assert value == math.fsum(row[3] for row in prof.per_n[:k + 1])
        assert phi == math.fsum(row[4] for row in prof.per_n[:k + 1])
        assert ratio == value / phi
    assert rows[-1][1] == prof.value


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

FAST_VERDICT = VerdictConfig(
    fiber_checkpoints=(100, 1000, 10000),
    cover_window=(1, 48),
    slope_blocks=(10**3, 10**4, 10**5),
)


def _fiber_check(report):
    return next(c for c in report.checks if c.name == "fiber-divergence")


def test_verdict_fiber_check_states_the_lemma_bound(torus2):
    # t* = 1.5 and u = 0.25; r_{n,2} = 2/n, so every weight is at most
    # w_max = 2^u and 3 seeds bound the false-FAIL chance by 12 w_max / E
    sched = PowerLawSchedule((0.5, 1), (4, 2))
    rep = dimension_verdict(sched, (1, 1), torus2, [1, 2, 3], FAST_VERDICT)
    res = fiber_hit_sum(OmegaStream(1, torus2), sched, (1, 1), (0.5,), 0.25,
                        FAST_VERDICT.fiber_checkpoints)
    N, expected = res.expectation_exact[-1]
    w_max = math.exp(0.25 * sched.log_radius_bound(range(1, N + 1))[-1])
    assert w_max == pytest.approx(2**0.25, rel=1e-15)
    bound = 4.0 * 3 * w_max / expected
    assert bound < 0.05
    assert _fiber_check(rep) == CheckResult(
        "fiber-divergence", "PASS",
        f"u=0.25 E={expected!r}: 0/3 seeds at or below E/2, false-FAIL bound {bound!r}")


@pytest.mark.parametrize("above, status", [(False, "FAIL"), (True, "PASS")])
def test_verdict_fiber_check_fails_a_seed_at_half_the_expectation(
        monkeypatch, torus2, above, status):
    # seed 2's hit sum at N is set to E/2, or to the next float above it
    real = mc.fiber_hit_sum

    def patched(stream, *args):
        res = real(stream, *args)
        if stream.seed != 2:
            return res
        N, expected = res.expectation_exact[-1]
        value = math.nextafter(0.5 * expected, math.inf) if above else 0.5 * expected
        return dataclasses.replace(res, partials=res.partials[:-1] + ((N, value),))

    monkeypatch.setattr(mc, "fiber_hit_sum", patched)
    rep = dimension_verdict(PowerLawSchedule((0.5, 1)), (1, 1), torus2, [1, 2, 3], FAST_VERDICT)
    fiber = _fiber_check(rep)
    assert fiber.status == status
    assert f": {0 if above else 1}/3 seeds at or below E/2, " in fiber.detail
    assert rep.passed == above


def test_verdict_fiber_check_is_inconclusive_when_the_lemma_bounds_nothing(
        monkeypatch, torus2):
    # to N = 10 the seeds hit 7-10 times, yet 12 w_max / E = 1.98: the
    # lemma bounds nothing, so even hit sums of 0 do not FAIL
    real = mc.fiber_hit_sum

    def no_hits(*args):
        res = real(*args)
        return dataclasses.replace(res, partials=((10, 0.0),))

    cfg = dataclasses.replace(FAST_VERDICT, fiber_checkpoints=(10,))
    rep = dimension_verdict(PowerLawSchedule((0.5, 1)), (1, 1), torus2, [1, 2, 3], cfg)
    assert _fiber_check(rep).status == "INCONCLUSIVE"
    assert _fiber_check(rep).detail.endswith("false-FAIL bound 1.982352541236757")
    monkeypatch.setattr(mc, "fiber_hit_sum", no_hits)
    rep = dimension_verdict(PowerLawSchedule((0.5, 1)), (1, 1), torus2, [1, 2, 3], cfg)
    assert _fiber_check(rep).status == "INCONCLUSIVE"
    assert ": 3/3 seeds at or below E/2, " in _fiber_check(rep).detail
    assert rep.passed


@pytest.mark.parametrize("seeds, repeated", [
    ([1, 1], 1), ([3, 1, 3.0], 3), ([np.int64(5), 4, 5], 5),
])
def test_verdict_refuses_a_repeated_seed_before_its_walks(monkeypatch, torus2, seeds, repeated):
    # one seed twice is one walk counted twice: refused, by the seed as an int
    def walk(*args, **kwargs):
        raise AssertionError("a walk ran before the seed check")

    for name in ("critical_exponent_series", "tail_cover_sum", "_growth_slopes",
                 "fiber_hit_sum"):
        monkeypatch.setattr(mc, name, walk)
    with pytest.raises(ValueError) as refused:
        dimension_verdict(PowerLawSchedule((0.5, 1)), (1, 1), torus2, seeds, FAST_VERDICT)
    assert str(refused.value) == f"seed {repeated} repeats: the seeds must be distinct"


def test_verdict_torus_power_law(torus2):
    rep = dimension_verdict(PowerLawSchedule((2, 3)), (1, 1), torus2,
                            [101, 102, 103], FAST_VERDICT)
    assert rep.predicted_dimension == pytest.approx(0.5, abs=1e-8)
    assert rep.passed
    by_name = {c.name: c.status for c in rep.checks}
    assert by_name["method-agreement"] == "PASS"
    assert by_name["cover-domination"] == "PASS"
    assert by_name["fiber-divergence"] == "SKIPPED"  # t* < s_1


def test_verdict_slopes_walk_the_terms_once(monkeypatch, torus2):
    # both slope probes read one walk's log-radii; their slopes are the bits
    # of one estimate_sum_growth walk per probe
    sched = PowerLawSchedule((2, 3))
    blocks = FAST_VERDICT.slope_blocks
    rows = []
    real = PowerLawSchedule.log_radii
    monkeypatch.setattr(PowerLawSchedule, "log_radii",
                        lambda self, ns, out=None: rows.append(len(ns)) or real(self, ns, out))
    rep = dimension_verdict(sched, (1, 1), torus2, [101], FAST_VERDICT)
    walked = sum(rows)
    # the tail covers read the window's radii once per t probe
    assert walked - 3 * FAST_VERDICT.cover_window[1] == blocks[-1]
    monkeypatch.undo()
    by_name = {c.name: c.detail for c in rep.checks}
    for name, t in (("divergent-slope", 0.25), ("convergent-slope", 1.625)):
        slope = estimate_sum_growth(sched, (1, 1), t, blocks)
        assert by_name[name].startswith(f"t={t!r} slope={slope!r} ")
    probes = [0.25, 1.625, 0.0, 2.0]
    assert [v.hex() for v in svf._growth_slopes(sched, (1, 1), probes, blocks)] == [
        estimate_sum_growth(sched, (1, 1), t, blocks).hex() for t in probes]


def test_verdict_cantor_square():
    can = Cantor(1 / 3)
    space = ProductSpace((can, can))
    s = (can.s, can.s)
    rep = dimension_verdict(PowerLawSchedule((1, 1)), s, space,
                            [7, 8, 9], FAST_VERDICT)
    assert rep.predicted_dimension == pytest.approx(1.0, abs=1e-8)
    by_name = {c.name: c.status for c in rep.checks}
    assert by_name["fiber-divergence"] in ("PASS", "INCONCLUSIVE")
    assert rep.passed


@pytest.mark.parametrize("sched", [
    PowerLawSchedule((1, 0.5), (1, 14.106735979665885)),
    ExplicitSchedule(((0.5, 0.25), (0.1, 0.4)), PowerLawSchedule((0.5, 1))),
], ids=["power", "explicit"])
def test_verdict_refuses_unsorted_radii_before_its_walks(torus2, monkeypatch, sched):
    # the fiber check needs non-increasing radii, and the verdict says so
    # before the tail covers and the slope walk, not after them
    def walk(*args, **kwargs):
        raise AssertionError("a walk ran before the order check")

    monkeypatch.setattr(mc, "tail_cover_sum", walk)
    monkeypatch.setattr(mc, "_growth_slopes", walk)
    with pytest.raises(ValueError) as refused:
        dimension_verdict(sched, (1, 1), torus2, [1], FAST_VERDICT)
    with pytest.raises(ValueError) as checked:
        sched.check_non_increasing()
    assert str(refused.value) == str(checked.value)


def test_verdict_constant_radius_schedule(torus2):
    sched = ExplicitSchedule(((0.25, 0.25),), tail="constant")
    rep = dimension_verdict(sched, (1, 1), torus2, [3, 4], FAST_VERDICT)
    assert rep.predicted_dimension == 2.0
    assert rep.passed


def test_verdict_fiber_inconclusive_on_zero_hits(torus2):
    sched = ExplicitSchedule(
        ((1e-9, 1e-9),) * 4, tail="constant"
    )
    cfg = VerdictConfig(fiber_checkpoints=(4,), cover_window=(1, 4),
                        slope_blocks=(10, 100, 1000))
    rep = dimension_verdict(sched, (1, 1), torus2, [1, 2], cfg)
    by_name = {c.name: c.status for c in rep.checks}
    assert by_name["fiber-divergence"] == "INCONCLUSIVE"


def test_verdict_projection_inequality_reported(torus2):
    rep = dimension_verdict(PowerLawSchedule((1, 2)), (1, 1), torus2,
                            [5], FAST_VERDICT)
    by_name = {c.name: c.status for c in rep.checks}
    assert by_name["projection-inequality"] == "PASS"


def test_verdict_statistics_reproducible(torus2):
    a = dimension_verdict(PowerLawSchedule((2, 3)), (1, 1), torus2, [42], FAST_VERDICT)
    b = dimension_verdict(PowerLawSchedule((2, 3)), (1, 1), torus2, [42], FAST_VERDICT)
    assert a.statistics() == b.statistics()


@pytest.mark.parametrize("sched", [
    PowerLawSchedule((1, 2), (2, 1)),
    ExplicitSchedule(((0.5, 0.25),), PowerLawSchedule((1, 2), (3, 1))),
], ids=["power-prefactors", "explicit-power-tail"])
def test_verdict_cover_window_starts_at_one(torus2, sched):
    # radii past 1 (2 at n = 1, 1.5 at n = 2) stay in the configured window
    rep = dimension_verdict(sched, (1, 1), torus2, [1, 2, 3], FAST_VERDICT)
    assert rep.predicted_dimension == pytest.approx(1.0, abs=1e-8)
    assert rep.passed
    cover = next(c for c in rep.checks if c.name == "cover-domination")
    assert cover.status == "PASS"
    assert "window=[1, 48]" in cover.detail


def test_verdict_cover_domination_fails_on_a_violation(monkeypatch, torus2):
    def over_reference(stream, sched, s, t, window):
        return mc.TailCoverProfile(t=t, window=window, value=2.0, reference=1.0, per_n=())

    monkeypatch.setattr(mc, "tail_cover_sum", over_reference)
    rep = dimension_verdict(PowerLawSchedule((2, 3)), (1, 1), torus2, [101], FAST_VERDICT)
    cover = next(c for c in rep.checks if c.name == "cover-domination")
    assert cover.status == "FAIL"
    assert "violations=[(0.25, 2.0, 1.0), (0.5, 2.0, 1.0), (1.25, 2.0, 1.0)]" in cover.detail
    assert not rep.passed


def test_verdict_rejects_no_seeds(torus2):
    with pytest.raises(ValueError, match="seeds must hold at least one seed"):
        dimension_verdict(PowerLawSchedule((1, 2)), (1, 1), torus2, [], FAST_VERDICT)


@pytest.mark.parametrize("kappa, status", [
    (1e-300, "INCONCLUSIVE"), (1e-250, "INCONCLUSIVE"), (1e-180, "PASS"),
    (1e175, "PASS"), (1e180, "INCONCLUSIVE"), (1e200, "INCONCLUSIVE"),
])
def test_verdict_slope_sums_past_the_float_range_are_inconclusive(torus2, kappa, status):
    # the convergent probe's terms at t = 1.75 are kappa^1.75 * n^-2.5: the
    # small prefactors round every one to 0 and the large ones overflow the
    # first ones, where the slope was nan: a FAIL under a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = dimension_verdict(PowerLawSchedule((1, 2), (kappa, kappa)), (1, 1), torus2, [1])
    by_name = {c.name: c for c in rep.checks}
    assert by_name["divergent-slope"].status == "PASS"
    assert by_name["convergent-slope"].status == status
    if status == "INCONCLUSIVE":
        assert by_name["convergent-slope"].detail == (
            "t=1.75: a block sum is 0 or inf, outside the float range")
    assert rep.passed


def test_verdict_when_the_series_diverges_up_to_the_total(torus2):
    # e(total) = 0.4 <= 1: t* is the total, e never reaches 1/2, so the
    # divergent slope is taken at half the total and there is no convergent side
    rep = dimension_verdict(PowerLawSchedule((0.2, 0.2)), (1, 1), torus2, [3], FAST_VERDICT)
    assert rep.predicted_dimension == 2.0
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    divergent = by_name["divergent-slope"]
    assert divergent.status == "PASS"
    assert divergent.detail.startswith("t=1.0 ") and divergent.detail.endswith("target=0.8")
    assert by_name["convergent-slope"].status == "SKIPPED"
    assert by_name["convergent-slope"].detail == (
        "series diverges up to total(s); no convergent side")


# ---------------------------------------------------------------------------
# counts: one integer rule
# ---------------------------------------------------------------------------


def _torus_density(seed, horizon):
    return density_check(_torus_stream(seed), 0.25, horizon).statistics()


def _window_verdict(n0):
    config = VerdictConfig(FAST_VERDICT.tol, FAST_VERDICT.fiber_checkpoints, (n0, 1015),
                           FAST_VERDICT.slope_blocks)
    return dimension_verdict(PowerLawSchedule((0.5, 1)), (1, 1), _torus_stream(1).space,
                             [3], config).statistics()


# each count, as a function of one value, and the name its error gives
COUNTS = {
    "horizon": (lambda n: _torus_density(3, n), "horizon"),
    "trials": (lambda n: divergence_tail_bound_test(
        np.full(100, 0.5), n, np.random.default_rng(1)).statistics(), "trials"),
    "window": (lambda n: tail_cover_sum(_torus_stream(3), PowerLawSchedule((1, 2)), (1, 1),
                                        0.5, (n, 1015)).statistics(), "window"),
    "blocks": (lambda n: svf.estimate_sum_growth(PowerLawSchedule((1, 2)), (1, 1), 0.5,
                                                 [10, 100, n]), "blocks"),
    "stream-seed": (lambda n: _torus_density(n, 1000), "seed"),
    "verdict-seeds": (lambda n: dimension_verdict(
        PowerLawSchedule((0.5, 1)), (1, 1), _torus_stream(1).space, [n],
        FAST_VERDICT).statistics(), "seed"),
    "verdict-window": (_window_verdict, "window"),
}


@pytest.mark.parametrize("bad", [10.5, math.nan, math.inf, "5"],
                         ids=["fraction", "nan", "inf", "text"])
@pytest.mark.parametrize("name", list(COUNTS))
def test_count_refuses_a_non_integer_naming_its_field(name, bad):
    call, field = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{field}.* must be .*integer"):
        call(bad)


@pytest.mark.parametrize("name", list(COUNTS))
def test_count_takes_an_integral_float_as_its_int(name):
    call, _ = COUNTS[name]
    assert call(1e3) == call(1000)
