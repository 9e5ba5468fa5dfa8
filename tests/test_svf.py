import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsupdim import (
    Cantor,
    Circle,
    ExplicitSchedule,
    Interval,
    OmegaStream,
    PowerLawSchedule,
    ProductSpace,
    RadiusTuple,
    closed_form_dimension,
    cover_rectangle,
    critical_exponent_series,
    estimate_sum_growth,
    exponent_profile,
    partial_sum,
    partial_sums,
    singular_value,
    svf_profile,
)

from limsupdim import svf
from limsupdim.svf import log_phi_rows, prefix_fsums

from oracles import (
    allocation_oracle,
    argsort_log_phi_rows,
    broadcast_log_radii,
    dyadic_block_divergence,
    materialised_partial_sums,
    memoryview_prefix_fsums,
    powerlaw_phi_term,
)


# ---------------------------------------------------------------------------
# singular_value
# ---------------------------------------------------------------------------


def test_worked_value_two_radii():
    assert singular_value((0.5, 0.25), (1, 1), 1.5) == pytest.approx(0.25, abs=1e-15)


def test_t_zero_is_one():
    assert singular_value((0.3, 0.7, 0.01), (1.2, 0.4, 2.0), 0.0) == 1.0


def test_single_radius_is_power():
    for t in (0.0, 0.3, 1.0):
        assert singular_value((0.5,), (1.0,), t) == pytest.approx(0.5**t, rel=1e-15)


def test_unsorted_input_sorted_internally():
    # largest radius absorbs the exponent first
    assert singular_value((0.25, 0.5), (1, 1), 0.5) == pytest.approx(
        0.5**0.5, rel=1e-12
    )


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        singular_value((0.5, 0.25), (1,), 0.5)


def test_t_out_of_range_raises():
    with pytest.raises(ValueError):
        singular_value((0.5,), (1,), 1.5)
    with pytest.raises(ValueError):
        singular_value((0.5,), (1,), -0.1)


def test_nonpositive_radius_raises():
    with pytest.raises(ValueError):
        singular_value((0.5, 0.0), (1, 1), 0.5)
    with pytest.raises(ValueError):
        RadiusTuple((0.5, -1.0))


def test_radius_above_one_accepted_in_tuple():
    # a side past its factor's diameter covers the whole factor: any finite
    # radius > 0 is a side
    assert RadiusTuple((1.5, 3e300)).values == (1.5, 3e300)
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"all radii must be finite and > 0, got {bad}"):
            RadiusTuple((0.5, bad))


def test_prefactors_reach_tuples_from_n_one():
    # prefactors past 1 give radii past 1 at small n, not a missing tuple
    sched = PowerLawSchedule((1.0, 2.0), (3.0, 1.0))
    assert sched.radius_tuple(1).values == (3.0, 1.0)
    assert sched.radius_tuple(2).values == (1.5, 0.25)
    assert max(sched.radius_tuple(3).values) <= 1.0


@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(radii, data):
    s = data.draw(
        st.lists(st.floats(0.0, 2.0), min_size=len(radii), max_size=len(radii))
    )
    total = math.fsum(s)
    t = data.draw(st.floats(0.0, total)) if total > 0 else 0.0
    perm = data.draw(st.permutations(range(len(radii))))
    base = singular_value(radii, s, t)
    permuted = singular_value([radii[i] for i in perm], [s[i] for i in perm], t)
    assert permuted == pytest.approx(base, rel=1e-12, abs=1e-300)


@given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_strictly_decreasing_in_t_when_radii_below_one(radii, data):
    s = [1.0] * len(radii)
    total = float(len(radii))
    t1 = data.draw(st.floats(0.0, total - 0.01))
    t2 = data.draw(st.floats(t1 + 0.01, total))
    assert singular_value(radii, s, t2) < singular_value(radii, s, t1)


def test_truncation_identity():
    # with radii sorted non-increasingly, dropping the last coordinate does
    # not change the value below the reduced total
    radii = (0.8, 0.3, 0.1)
    s = (1.0, 0.7, 0.5)
    for t in np.linspace(0.0, 1.7, 12):
        assert singular_value(radii, s, t) == pytest.approx(
            singular_value(radii[:2], s[:2], t), rel=1e-12
        )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_allocation_oracle_agreement(data):
    d = data.draw(st.integers(1, 3))
    grid = 1000
    radii = [data.draw(st.floats(0.05, 1.0)) for _ in range(d)]
    s_units = [data.draw(st.integers(1, 1000 if d == 3 else 2000)) for _ in range(d)]
    s = [u / grid for u in s_units]
    t_units = data.draw(st.integers(0, sum(s_units)))
    # t_units / grid at the top can round one ulp above fsum(s), outside the
    # domain [0, fsum(s)] that singular_value accepts
    t = min(t_units / grid, math.fsum(s))
    expected = allocation_oracle(radii, s, t)
    assert singular_value(radii, s, t) == pytest.approx(expected, rel=1e-6)


# a few values drawn over and over, so rows carry many ties and signed zeros
_TIED_LOG_RADII = st.sampled_from([0.0, -0.0, -0.5, -1.0, -2.0, -1e-300, -40.0])
_TIED_EXPONENTS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_log_phi_rows_bit_identical_to_argsort_oracle(data):
    d = data.draw(st.integers(1, 5))
    rows = data.draw(st.integers(1, 40))
    value = st.one_of(_TIED_LOG_RADII, st.floats(-50.0, 0.0))
    log_r = np.array(data.draw(
        st.lists(st.lists(value, min_size=d, max_size=d), min_size=rows, max_size=rows)
    ))
    s = np.array(data.draw(st.lists(
        st.one_of(_TIED_EXPONENTS, st.floats(0.0, 2.0)), min_size=d, max_size=d
    )))
    total = math.fsum(s)
    # a cumsum can round one ulp past the exactly rounded total, which lies
    # outside the kernel's domain [0, total]
    breaks = [min(float(v), total) for v in np.cumsum(s)]
    t = data.draw(st.one_of(
        st.just(0.0), st.just(total), st.sampled_from(breaks),
        st.floats(0.0, total),
    ))
    got = log_phi_rows(log_r, s, t)
    want = argsort_log_phi_rows(log_r, s, t)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_kernel_matches_oracle(log_r, s, ts):
    for t in ts:
        got = log_phi_rows(log_r, s, t)
        want = argsort_log_phi_rows(log_r, s, t)
        assert got.shape == want.shape == (log_r.shape[0],)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _every_t(s):
    """0, every breakpoint of the running sums of s, the total and points
    between them."""
    total = math.fsum(s)
    ts = [0.0, total] + [min(float(v), total) for v in np.cumsum(s)]
    return ts + [total * f for f in (0.1, 0.45, 0.9)]


def _one_order_schedules(d, seed):
    """A power law and an explicit schedule with a power tail whose every
    tuple is non-increasing, so every row has the identity order."""
    rng = np.random.default_rng(seed)
    power = PowerLawSchedule(tuple(np.sort(rng.uniform(0.2, 4.0, d))),
                             tuple(np.sort(rng.uniform(0.2, 1.0, d))[::-1]))
    head = [np.sort(row)[::-1] for row in rng.uniform(0.05, 1.0, (50, d))]
    return power, ExplicitSchedule(head, tail=power)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("n0", [1, 40, 2**20 + 3, 2**40])
def test_log_phi_rows_one_order_path_matches_argsort_oracle(d, n0):
    # with one order in every row the piece is one int for the whole batch;
    # t runs over 0, every breakpoint and the total
    s = np.random.default_rng(d).choice([0.0, 0.25, 0.5, 1.0, 1.5], d)
    for sched in _one_order_schedules(d, seed=d + n0):
        log_r = sched.log_radii(np.arange(n0, n0 + 3000))
        assert (np.diff(log_r, axis=1) <= 0.0).all()
        _assert_kernel_matches_oracle(log_r, s, _every_t(s))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_log_phi_rows_shared_non_identity_order_matches_argsort_oracle(d):
    # rows drawn from a few values, signed zeros among them, kept when their
    # stable order is the most common non-identity order that leaves room
    # for a tie (two neighbours in input order; none for d = 2): every row
    # then shares it, ties included
    rng = np.random.default_rng(d)
    pool = rng.choice([0.0, -0.0, -0.5, -1.0, -2.0, -1e-300, -40.0], (20000, d))
    orders = np.argsort(-pool, axis=1, kind="stable")
    keys, counts = np.unique(orders, axis=0, return_counts=True)
    counts[(keys == np.arange(d)).all(axis=1)] = 0
    if d > 2:
        counts[~(np.diff(keys, axis=1) > 0).any(axis=1)] = 0
    perm = keys[np.argmax(counts)]
    log_r = pool[(orders == perm).all(axis=1)]
    assert (np.diff(np.sort(log_r, axis=1), axis=1) == 0.0).any() == (d > 2)
    zeros = log_r == 0.0
    assert (zeros & np.signbit(log_r)).any() and (zeros & ~np.signbit(log_r)).any()
    for s in (rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, 1.5], d), rng.uniform(0.0, 2.0, d)):
        _assert_kernel_matches_oracle(log_r, s, _every_t(s))


@pytest.mark.parametrize("alphas", [(2, 1), (3, 1, 2)])
def test_log_phi_rows_tied_first_row_matches_argsort_oracle(alphas):
    # the first chunk of a power law whose decay exponents are not
    # ascending: n = 1 gives a row of equal log-radii, whose stable order is
    # the identity, while every later row puts the slowest decay first
    log_r = PowerLawSchedule(alphas).log_radii(np.arange(1, svf._CHUNK + 1))
    assert (log_r[0] == 0.0).all()
    orders = np.argsort(-log_r, axis=1, kind="stable")
    assert (orders[0] == np.arange(len(alphas))).all()
    assert (orders[1:] == np.argsort(alphas, kind="stable")).all()
    for s in ((1.0,) * len(alphas), (0.5, 1.5, 0.25)[:len(alphas)]):
        _assert_kernel_matches_oracle(log_r, np.array(s), _every_t(s))


def test_log_phi_rows_tie_against_the_batch_order_matches_argsort_oracle():
    # the last row puts column 1 first; a tie keeps column 0 first, which
    # changes the order of the running sums and so their rounding
    rng = np.random.default_rng(5)
    log_r = np.vstack([np.repeat(-rng.uniform(0.0, 3.0, (200, 1)), 2, axis=1), [-1.0, 0.0]])
    for _ in range(20):
        s = rng.uniform(0.0, 2.0, 2)
        _assert_kernel_matches_oracle(log_r, s, _every_t(s) + list(rng.uniform(0.0, s.sum(), 5)))


@pytest.mark.parametrize("d", [1, 3])
def test_log_phi_rows_zero_rows(d):
    s = np.full(d, 0.5)
    _assert_kernel_matches_oracle(np.empty((0, d)), s, _every_t(s))


def test_log_phi_rows_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        log_phi_rows(np.zeros((3, 2)), np.array([1.0, 1.0, 1.0]), 1.0)


# ---------------------------------------------------------------------------
# svf_profile
# ---------------------------------------------------------------------------


def test_profile_breakpoints_worked_example():
    prof = svf_profile((0.5, 0.25), (1, 1))
    ts = [b[0] for b in prof.breakpoints]
    ys = [b[1] for b in prof.breakpoints]
    assert ts == [0.0, 1.0, 2.0]
    assert ys[0] == 0.0
    assert ys[1] == pytest.approx(math.log(0.5), rel=1e-15)
    assert ys[2] == pytest.approx(math.log(0.125), rel=1e-15)


def test_profile_single_piece_d1():
    prof = svf_profile((0.3,), (1.5,))
    assert len(prof.breakpoints) == 2
    slope = (prof.breakpoints[1][1] - prof.breakpoints[0][1]) / 1.5
    assert slope == pytest.approx(math.log(0.3), rel=1e-14)


def test_profile_tie_symmetric():
    a = svf_profile((0.5, 0.5), (1.0, 0.7))
    b = svf_profile((0.5, 0.5), (0.7, 1.0))
    for t in np.linspace(0, 1.7, 9):
        assert a.value(t) == pytest.approx(b.value(t), rel=1e-13)


def test_profile_matches_singular_value_everywhere():
    radii = (0.9, 0.2, 0.35)
    s = (0.8, 1.1, 0.5)
    prof = svf_profile(radii, s)
    for t in np.linspace(0.0, prof.total, 41):
        assert prof.value(float(t)) == pytest.approx(
            singular_value(radii, s, float(t)), rel=1e-12
        )


def test_profile_total_is_in_the_evaluator_domain():
    # the running sum of these exponents rounds one ulp above math.fsum(s),
    # which singular_value rejected as outside its domain
    r, s = (0.5, 0.25, 0.125, 0.0625), (0, 1, 1e-5, 1.81793365278356)
    prof = svf_profile(r, s)
    assert prof.total == math.fsum(s)
    assert singular_value(r, s, prof.total) == prof.value(prof.total)
    for t, _ in prof.breakpoints:
        assert singular_value(r, s, t) == prof.value(t)


def test_profile_breakpoint_continuity_within_4_ulp():
    radii = (0.9, 0.2, 0.35)
    s = (0.8, 1.1, 0.5)
    prof = svf_profile(radii, s)
    ts = [b[0] for b in prof.breakpoints]
    ys = [b[1] for b in prof.breakpoints]
    for i in range(1, len(ts)):
        width = ts[i] - ts[i - 1]
        slope = (ys[i] - ys[i - 1]) / width
        from_left = ys[i - 1] + width * slope
        assert abs(from_left - ys[i]) <= 4 * math.ulp(max(abs(ys[i]), 1.0))


def test_profile_slopes_non_increasing():
    # the largest radii load first, so log Phi decays faster and faster
    radii = (0.9, 0.2, 0.35, 0.5)
    s = (0.8, 1.1, 0.5, 0.3)
    prof = svf_profile(radii, s)
    slopes = []
    for (t0, y0), (t1, y1) in zip(prof.breakpoints, prof.breakpoints[1:]):
        if t1 > t0:
            slopes.append((y1 - y0) / (t1 - t0))
    assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


# ---------------------------------------------------------------------------
# exponent profile and critical exponents
# ---------------------------------------------------------------------------


def test_exponent_profile_worked_example():
    prof = exponent_profile(PowerLawSchedule((2, 3)), (1, 1))
    assert prof.value(0.0) == 0.0
    assert prof.value(0.5) == pytest.approx(1.0)
    assert prof.value(1.0) == pytest.approx(2.0)
    assert prof.value(1.5) == pytest.approx(2.0 + 3.0 * 0.5)
    assert prof.slopes == (2.0, 3.0)


def test_exponent_profile_identity_d1():
    prof = exponent_profile(PowerLawSchedule((1,)), (1,))
    for t in (0.0, 0.25, 1.0):
        assert prof.value(t) == pytest.approx(t)


def test_exponent_profile_permutation_invariant():
    a = exponent_profile(PowerLawSchedule((3, 2)), (0.5, 1.5))
    b = exponent_profile(PowerLawSchedule((2, 3)), (1.5, 0.5))
    for t in np.linspace(0, 2.0, 9):
        assert a.value(float(t)) == pytest.approx(b.value(float(t)), rel=1e-14)


def test_exponent_profile_convex():
    prof = exponent_profile(PowerLawSchedule((0.7, 2.5, 1.1)), (0.4, 1.0, 0.9))
    assert all(s2 >= s1 for s1, s2 in zip(prof.slopes, prof.slopes[1:]))


def test_exponent_profile_rejects_bad_alpha():
    with pytest.raises(ValueError):
        PowerLawSchedule((2.0, -1.0))
    with pytest.raises(ValueError):
        PowerLawSchedule((0.0,))


def test_critical_exponent_worked_values():
    assert critical_exponent_series(PowerLawSchedule((2, 3)), (1, 1)) == pytest.approx(
        0.5, abs=1e-8
    )
    assert critical_exponent_series(PowerLawSchedule((1, 2)), (1, 1)) == pytest.approx(
        1.0, abs=1e-8
    )


def test_critical_exponent_constant_tail_gives_total():
    sched = ExplicitSchedule((RadiusTuple((0.5, 0.5)),), tail="constant")
    assert critical_exponent_series(sched, (1, 1)) == 2.0


def test_critical_exponent_no_tail_raises():
    sched = ExplicitSchedule((RadiusTuple((0.5, 0.5)),))
    with pytest.raises(ValueError):
        critical_exponent_series(sched, (1, 1))


def test_critical_exponent_power_tail_uses_tail():
    sched = ExplicitSchedule(
        (RadiusTuple((0.9, 0.9)),), tail=PowerLawSchedule((2, 3))
    )
    assert critical_exponent_series(sched, (1, 1)) == pytest.approx(0.5, abs=1e-8)


def test_series_oracle_blocks():
    # dyadic-block growth of raw partial sums locates t* between probes
    term = powerlaw_phi_term((2, 3), (1, 1))
    assert dyadic_block_divergence(term, 0.45)
    assert not dyadic_block_divergence(term, 0.55)


def test_closed_form_worked_values():
    assert closed_form_dimension(PowerLawSchedule((2, 3)), (1, 1)) == pytest.approx(0.5)
    assert closed_form_dimension(PowerLawSchedule((1, 2)), (1, 1)) == pytest.approx(1.0)


def test_closed_form_d1_is_min():
    for a in (0.5, 1.0, 2.0, 4.0):
        for sigma in (0.4, 1.0, 1.7):
            expected = min(1.0 / a, sigma)
            assert closed_form_dimension(PowerLawSchedule((a,)), (sigma,)) == pytest.approx(
                expected
            )


def test_closed_form_unsorted_alphas_relabelled():
    assert closed_form_dimension(PowerLawSchedule((3, 2)), (1, 1)) == pytest.approx(
        closed_form_dimension(PowerLawSchedule((2, 3)), (1, 1))
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_methods_agree_on_random_schedules(data):
    d = data.draw(st.integers(1, 4))
    alphas = [data.draw(st.floats(0.5, 5.0)) for _ in range(d)]
    s = [data.draw(st.floats(0.01, 2.0)) for _ in range(d)]
    cf = closed_form_dimension(PowerLawSchedule(tuple(alphas)), s)
    series = critical_exponent_series(PowerLawSchedule(tuple(alphas)), s, tol=1e-10)
    assert series == pytest.approx(cf, abs=1e-8)


def test_prefactors_do_not_move_critical_exponent():
    base = critical_exponent_series(PowerLawSchedule((2, 3)), (1, 1))
    shifted = critical_exponent_series(
        PowerLawSchedule((2, 3), (0.25, 3.0)), (1, 1)
    )
    assert shifted == pytest.approx(base, abs=1e-9)


def test_prefactor_past_the_float_range_builds_its_schedule():
    # 3^1000, once the first index with radius <= 1, overflows a float; the
    # schedule needs no such index, and t* never reads the prefactors
    sched = PowerLawSchedule((0.001,), (3.0,))
    assert sched.radius_tuple(1).values == (3.0,)
    assert critical_exponent_series(sched, (1,)) == critical_exponent_series(
        PowerLawSchedule((0.001,)), (1,))


_TAIL = PowerLawSchedule((1.0, 2.0), (3.0, 1.0))


@pytest.mark.parametrize("sched, power, last", [
    (_TAIL, _TAIL, 5),
    (ExplicitSchedule(((0.5, 0.25),), _TAIL), _TAIL, 5),
    (ExplicitSchedule(((0.5, 0.25),), "constant"), None, 5),
    (ExplicitSchedule(((0.5, 0.25), (0.4, 0.1))), None, 2),
], ids=["power-prefactors", "explicit-power-tail", "explicit-constant-tail",
        "explicit-no-tail"])
def test_schedule_answers_unbuildable_and_power_model(sched, power, last):
    # no index is unbuildable any more: each n >= 1 has its tuple, radii
    # past 1 included, up to the last listed tuple of a schedule without a
    # tail
    assert not hasattr(sched, "unbuildable")
    assert sched.power_model is power
    sched.check_non_increasing()
    for n in range(1, last + 1):
        got = np.log(sched.radius_tuple(n).values)
        assert got == pytest.approx(sched.log_radii(np.array([n]))[0], rel=1e-12, abs=1e-12)
    if last < 5:
        with pytest.raises(ValueError, match="no tail model"):
            sched.radius_tuple(last + 1)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_constant_tail_is_the_last_row_repeated(k, d, seed):
    # the clamped index reads the table's last row, np.log of the whole
    # table, which equals np.log of the last tuple alone bit for bit
    table = np.random.default_rng(seed).uniform(1e-3, 3.0, size=(k, d)).tolist()
    sched = ExplicitSchedule(table, "constant")
    tail = sched.log_radii(np.array([k + 1, k + 5, 2**40]))
    want = np.log(np.array(table[-1]))
    assert all(row.tobytes() == want.tobytes() for row in tail)
    assert sched.radius_tuple(k + 3) is sched.tuples[-1]


@pytest.mark.parametrize("sched, message", [
    (PowerLawSchedule((3.0, 2.0)), "sort decay exponents ascending"),
    (PowerLawSchedule((1.0, 2.0), (0.5, 1.0)), "coefficients non-increasing"),
    (ExplicitSchedule(((0.5, 0.25), (0.1, 0.4)), "constant"), "tuple #2 is not non-increasing"),
    (ExplicitSchedule(((0.5, 0.25),), PowerLawSchedule((2.0, 1.0))),
     "sort decay exponents ascending"),
], ids=["alphas", "coefficients", "explicit-tuple", "explicit-power-tail"])
def test_check_non_increasing_names_the_order_rule(sched, message):
    with pytest.raises(ValueError, match=message):
        sched.check_non_increasing()


def test_check_non_increasing_names_the_first_of_two_bad_tuples():
    sched = ExplicitSchedule(((0.5, 0.25), (0.1, 0.4), (0.3, 0.3), (0.2, 0.6)), "constant")
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^tuple #2 is not non-increasing; relabel first$"):
            sched.check_non_increasing()


def test_check_non_increasing_compares_radii_not_their_logs():
    # the two radii are one ulp apart, and np.log rounds them to one float
    low = 1e300
    high = math.nextafter(low, math.inf)
    sched = ExplicitSchedule(((0.5, 0.5), (low, high)), "constant")
    assert sched.log_radii(np.array([2]))[0].tolist() == [np.log(low)] * 2
    with pytest.raises(ValueError, match="tuple #2 is not non-increasing"):
        sched.check_non_increasing()
    ExplicitSchedule(((high, low),), "constant").check_non_increasing()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_log_radius_bound_is_the_largest_log_radius_of_a_run(data):
    # listed radii rise and fall at random, and runs straddle the last listed
    # tuple: the bound is the run's greatest log_radii row, so its exp is at
    # least every radius of the run
    kind = data.draw(st.sampled_from(["power", "prefactors", "power-tail", "constant"]),
                     label="kind")
    d = data.draw(st.integers(1, 3), label="d")
    coefficients = () if kind == "power" else (1.0, 3.0, 0.25)[:d]
    tail = PowerLawSchedule((0.5, 1.0, 2.0)[:d], coefficients)
    k = data.draw(st.integers(1, 40), label="listed")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    table = np.random.default_rng(seed).uniform(1e-4, 3.0, size=(k, d)).tolist()
    sched = {"power": tail, "prefactors": tail,
             "power-tail": ExplicitSchedule(table, tail),
             "constant": ExplicitSchedule(table, "constant")}[kind]
    ends = st.one_of(st.integers(1, 3 * k + 20), st.sampled_from([k, k + 1, k + 2]))
    lo, hi = sorted(data.draw(st.sets(ends, min_size=2, max_size=2), label="run"))
    bound = sched.log_radius_bound(range(lo, hi))
    log_r = sched.log_radii(np.arange(lo, hi))
    assert bound.shape == (d,)
    assert bound.tobytes() == log_r.max(axis=0).tobytes()
    assert np.all(np.exp(log_r) <= np.exp(bound))


def test_log_radius_bound_past_the_tuples_needs_a_tail():
    sched = ExplicitSchedule(((0.5, 0.25), (0.4, 0.1)))
    assert sched.log_radius_bound(range(2, 3)).tolist() == np.log([0.4, 0.1]).tolist()
    with pytest.raises(ValueError, match="index beyond the 2 explicit tuples"):
        sched.log_radius_bound(range(2, 4))


# ---------------------------------------------------------------------------
# partial sums and growth
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_log_radii_bit_identical_to_broadcast_oracle(data):
    d = data.draw(st.integers(1, 6))
    alphas = data.draw(st.lists(st.floats(0.05, 50.0), min_size=d, max_size=d))
    kappas = data.draw(st.lists(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
                                min_size=d, max_size=d))
    ns = np.array(data.draw(st.lists(st.one_of(st.just(1), st.integers(1, 2**53)),
                                     min_size=1, max_size=40)), dtype=np.int64)
    sched = PowerLawSchedule(tuple(alphas), tuple(kappas))
    for idx in (ns, ns.astype(float)):
        got = sched.log_radii(idx)
        want = broadcast_log_radii(sched, idx)
        assert got.flags.f_contiguous and got.flags.writeable
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("sched", [
    PowerLawSchedule((1.5,)), PowerLawSchedule((1, 2), (3.0, 1.0)),
    PowerLawSchedule((0.5, 1.5, 2.0, 2.5, 3.0, 7.25), (5.0, 1.5, 1.0, 1.0, 0.3, 1e-3)),
], ids=["d1", "d2", "d6"])
@pytest.mark.parametrize("n0", [1, 2**53 - 70_000])
def test_log_radii_of_a_full_chunk_match_the_broadcast_oracle(sched, n0):
    # a full chunk and a few more indices, past numpy's casting buffers
    ns = np.arange(n0, n0 + svf._CHUNK + 5, dtype=np.int64)
    got = sched.log_radii(ns)
    assert got.flags.f_contiguous and got.flags.writeable
    assert np.array_equal(got, broadcast_log_radii(sched, ns))


def test_partial_sum_t_zero_counts_terms():
    assert partial_sum(PowerLawSchedule((2, 3)), (1, 1), 0.0, 5) == 5.0


def test_partial_sum_harmonic():
    got = partial_sum(PowerLawSchedule((1,)), (1,), 1.0, 4)
    assert got == pytest.approx(1 + 0.5 + 1 / 3 + 0.25, rel=1e-15)


def test_partial_sum_explicit_single_tuple():
    sched = ExplicitSchedule((RadiusTuple((0.5, 0.25)),))
    assert partial_sum(sched, (1, 1), 1.5, 1) == pytest.approx(0.25, rel=1e-14)


def test_partial_sum_beyond_explicit_requires_tail():
    sched = ExplicitSchedule((RadiusTuple((0.5, 0.25)),))
    with pytest.raises(ValueError):
        partial_sum(sched, (1, 1), 1.5, 2)


def test_partial_sums_checkpoints_match_single_calls():
    sched = PowerLawSchedule((2, 3))
    many = partial_sums(sched, (1, 1), 0.7, [10, 100, 1000])
    singles = [partial_sum(sched, (1, 1), 0.7, N) for N in (10, 100, 1000)]
    assert many == singles  # bit-identical: same terms, same exact summation


# explicit tuples: both routes take the log of the same radii, so every term
# is the same float and the exactly rounded sums must be equal
_TUPLES = tuple(
    RadiusTuple(r) for r in np.random.default_rng(7).choice(
        [1.0, 0.77, 0.5, 0.3, 0.01, 1e-5], size=(60, 3))
)


@pytest.mark.parametrize("s, t", [
    ((1.0, 1.0, 1.0), 1.3), ((0.5, 0.0, 2.0), 2.5), ((1.0, 1.0, 1.0), 0.0),
    ((0.3, 0.3, 0.3), 0.45),
])
def test_partial_sums_match_fsum_of_singular_values(s, t):
    sched = ExplicitSchedule(_TUPLES, tail="constant")
    Ns = [1, 2, 7, 60, 80]
    terms = [singular_value(sched.radius_tuple(n), s, t) for n in range(1, Ns[-1] + 1)]
    assert partial_sums(sched, s, t, Ns) == [math.fsum(terms[:N]) for N in Ns]
    assert partial_sum(sched, s, t, Ns[-1]) == math.fsum(terms)


# checkpoints on both sides of 2^16, a chunk boundary
_CHUNK_CHECKPOINTS = [65535, 65536, 65537, 200000]
_HEAD = tuple(RadiusTuple(r) for r in
              np.random.default_rng(3).uniform(0.05, 0.95, size=(70_000, 2)))


@pytest.mark.parametrize("sched, s, t", [
    (PowerLawSchedule((1, 2), (3.0, 2.0)), (1, 1), 0.7),
    (PowerLawSchedule((0.5, 1.5, 2.0), (5.0, 1.5, 1.2)), (1, 1, 1), 1.9),
    (ExplicitSchedule(_HEAD, tail=PowerLawSchedule((1, 2), (1.5, 1.0))), (1, 1), 1.2),
    (ExplicitSchedule(_HEAD[:100], tail="constant"), (1, 1), 1.2),
], ids=["power-2d", "power-3d", "explicit-power-tail", "explicit-constant-tail"])
def test_streamed_partial_sums_equal_the_materialised_oracle(sched, s, t):
    Ns = _CHUNK_CHECKPOINTS + [1, 10]
    got = partial_sums(sched, s, t, Ns)
    assert [v.hex() for v in got] == [
        v.hex() for v in materialised_partial_sums(sched, s, t, Ns)]


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_partial_sums_in_small_chunks(monkeypatch, chunk):
    # chunks of a few indices cut the walk between and at the checkpoints
    monkeypatch.setattr(svf, "_CHUNK", chunk)
    sched = ExplicitSchedule(_TUPLES, tail=PowerLawSchedule((1, 2, 3)))
    Ns = [1, 2, 7, 60, 80, 81]
    got = partial_sums(sched, (1, 1, 1), 1.3, Ns)
    assert [v.hex() for v in got] == [
        v.hex() for v in materialised_partial_sums(sched, (1, 1, 1), 1.3, Ns)]


# one schedule per dimension, an explicit head with a power tail, and a
# power law whose rows change order at n = 3 (r = 3/n^2 against 1/n), so
# its first chunk holds rows in both orders and takes the stray path
_WALKS = {
    "d1": (PowerLawSchedule((1.5,)), (1,), (0.0, 0.4, 1.0)),
    "d2": (PowerLawSchedule((1, 2)), (1, 1), (0.5, 1.5, 2.0)),
    "d3": (PowerLawSchedule((0.5, 1, 2), (2, 1, 0.5)), (1, 1, 1), (0.7, 1.9, 2.5)),
    "explicit-power-tail": (ExplicitSchedule(_TUPLES, tail=PowerLawSchedule((1, 2, 3))),
                            (1, 1, 1), (0.3, 1.3)),
    "both-orders": (PowerLawSchedule((2, 1), (3, 1)), (1, 1), (0.5, 1.5)),
}


def _fsum_of_materialised_terms(sched, s, t, Ns):
    terms = svf._phi_terms(sched.log_radii(np.arange(1, max(Ns) + 1)), svf._exponents(s), t)
    return [math.fsum(terms[:N].tolist()).hex() for N in Ns]


@pytest.mark.parametrize("chunk", [8, 64, None])
@pytest.mark.parametrize("name", list(_WALKS))
def test_walk_reusing_its_buffers_equals_fsum_of_materialised_terms(monkeypatch, name, chunk):
    # every probe of a walk refills one terms block, and a full chunk is
    # followed by a short one: a stale tail of a buffer would be summed
    if chunk is not None:
        monkeypatch.setattr(svf, "_CHUNK", chunk)
    sched, s, ts = _WALKS[name]
    full = svf._CHUNK
    Ns = [1, full - 1, full, full + full // 2 + 3]
    got = svf._probe_sums(sched, s, ts, Ns)
    assert [[v.hex() for v in sums] for sums in got] == [
        _fsum_of_materialised_terms(sched, s, t, Ns) for t in ts]


def test_back_to_back_walks_each_equal_the_walk_alone(monkeypatch):
    monkeypatch.setattr(svf, "_CHUNK", 64)
    long_3d = (*_WALKS["d3"], [200])
    short_2d = (*_WALKS["both-orders"], [37])
    alone = [svf._probe_sums(*short_2d), svf._probe_sums(*long_3d)]
    assert [svf._probe_sums(*long_3d), svf._probe_sums(*short_2d)] == alone[::-1]
    assert [v.hex() for v in alone[0][1]] == _fsum_of_materialised_terms(
        _WALKS["both-orders"][0], (1, 1), 1.5, [37])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor faults are read from Linux rusage")
def test_verdict_walk_takes_few_page_faults_in_a_warm_process():
    # arrays made afresh per chunk were handed back to the kernel and
    # faulted in again: 8,512 minor faults a walk, where the walk's own
    # buffers take none once warm.  A fresh interpreter, since what this
    # process allocated before moves glibc's trim thresholds.
    code = (
        "import resource\n"
        "from limsupdim.svf import PowerLawSchedule, _growth_slopes\n"
        "args = (PowerLawSchedule((1, 2)), (1, 1), (0.5, 1.5), (10**4, 10**5, 10**6))\n"
        "_growth_slopes(*args)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "_growth_slopes(*args)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(svf.__file__)))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env, timeout=120)
    faults = int(out.stdout)
    assert faults <= 2500, faults


def test_partial_sums_peak_memory():
    # the materialised terms and fsum of each prefix peaked at 48.5 MB here
    tracemalloc.start()
    try:
        partial_sums(PowerLawSchedule((1, 2)), (1, 1), 1.0, [10, 4_000_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_growth_slope_divergent():
    slope = estimate_sum_growth(
        PowerLawSchedule((2, 3)), (1, 1), 0.25, (10**3, 10**4, 10**5)
    )
    assert slope == pytest.approx(0.5, abs=0.05)


def test_growth_slope_convergent():
    slope = estimate_sum_growth(
        PowerLawSchedule((2, 3)), (1, 1), 1.0, (10**3, 10**4, 10**5)
    )
    assert abs(slope) <= 0.05


def test_growth_slope_at_zero_is_one():
    slope = estimate_sum_growth(
        PowerLawSchedule((2, 3)), (1, 1), 0.0, (10**3, 10**4, 10**5)
    )
    assert slope == pytest.approx(1.0, abs=1e-9)


def test_growth_requires_increasing_blocks():
    with pytest.raises(ValueError):
        estimate_sum_growth(PowerLawSchedule((2,)), (1,), 0.1, (100, 100, 200))
    with pytest.raises(ValueError):
        estimate_sum_growth(PowerLawSchedule((2,)), (1,), 0.1, (100, 200))


# values over many binades, zeros of both signs, negatives and subnormals,
# with no sum past the float range
_FSUM_VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
              st.integers(min_value=-1074, max_value=990)),
)


@st.composite
def _values_and_ends(draw):
    values = draw(st.lists(_FSUM_VALUES, max_size=60))
    ends = draw(st.lists(st.integers(min_value=0, max_value=len(values)), max_size=6))
    return np.asarray(values, dtype=float), ends + [0, len(values)]


@settings(max_examples=300, deadline=None)
@given(_values_and_ends())
def test_prefix_fsums_equal_fsum_of_each_prefix(case):
    values, ends = case
    want = [math.fsum(values[:end].tolist()).hex() for end in ends]
    assert [v.hex() for v in prefix_fsums(values, ends)] == want
    # a strided view sums the same
    strided = np.repeat(values, 2)[::2]
    assert [v.hex() for v in prefix_fsums(strided, ends)] == want


@settings(max_examples=300, deadline=None)
@given(st.lists(_FSUM_VALUES, max_size=60))
def test_running_fsums_are_prefix_fsums_at_every_end(values):
    want = [v.hex() for v in prefix_fsums(np.asarray(values, dtype=float),
                                          range(1, len(values) + 1))]
    assert [v.hex() for v in svf.running_fsums(values)] == want


# chunks of 1, 2, 3 and 7 values put the accumulator's chunk boundaries
# everywhere, the ends included
@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@settings(max_examples=300, deadline=None)
@given(case=_values_and_ends())
def test_prefix_fsums_across_chunk_boundaries(chunk, case):
    values, ends = case
    want = [v.hex() for v in memoryview_prefix_fsums(values, ends)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svf, "_CHUNK", chunk)
        assert [v.hex() for v in prefix_fsums(values, ends)] == want


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("values", [
    [_INF, 1.0], [-_INF, 2.0, -_INF], [1.0, _NAN], [_INF, _NAN, 3.0],
    [-_INF, _NAN], [_INF, -_INF], [_INF, _NAN, -_INF], [1e308, 1e308],
    [-1e308, -1e308, 1.0],
    [1.5] * 1000 + [_INF] + [1.5] * 1000 + [-_INF] + [1.5] * 1000,
    [1e308] * 1500 + [1.0] + [1e308] * 1500,
], ids=["inf", "minus-inf", "nan", "inf-nan", "minus-inf-nan", "inf-minus-inf",
        "inf-nan-minus-inf", "overflow", "minus-overflow", "inf-minus-inf-in-a-run",
        "overflow-in-a-run"])
def test_prefix_fsums_keep_fsum_on_non_finite_and_overflowing_input(monkeypatch, values,
                                                                    chunk):
    if chunk is not None:
        monkeypatch.setattr(svf, "_CHUNK", chunk)
    try:
        want = math.fsum(values).hex()
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            prefix_fsums(np.array(values), [len(values)])
    else:
        assert prefix_fsums(np.array(values), [len(values)])[0].hex() == want


def test_prefix_fsums_sum_past_fsum_intermediate_overflow():
    # the one deviation from math.fsum: a mixed-sign running sum that leaves
    # the float range makes fsum raise, while the exact sum is in range
    values = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(values)
    assert prefix_fsums(np.array(values), [3]) == [1e308]


_FULL = 1 << 16


def _inside_a_run(base, inside):
    values = np.full(_FULL, base)
    values[[1000, 30000, 60000][:len(inside)]] = inside
    return values


# one full chunk of a value with all significand bits set is one bin with
# the largest run and per-bin sums; zeros and subnormals add no implicit
# bit; a few other values inside a run of one split it; a shuffled chunk
# over 600 binades is nearly all runs of one value
_FULL_CHUNKS = {
    "all-bits-set": np.full(_FULL, np.nextafter(2.0, 0.0)),
    "minus-all-bits-set": np.full(_FULL, -np.nextafter(2.0, 0.0)),
    "largest-subnormal": np.full(_FULL, np.nextafter(2.2250738585072014e-308, 0.0)),
    "signed-zeros-and-tiniest": np.random.default_rng(5).choice(
        [0.0, -0.0, 5e-324, -5e-324, 5e-324], _FULL),
    "minus-zeros": np.full(_FULL, -0.0),
    "one-inf": np.where(np.arange(_FULL) == 123, math.inf, np.nextafter(2.0, 0.0)),
    "one-nan": np.where(np.arange(_FULL) == 7, math.nan, 5e-324),
    "minus-zero-in-zeros": _inside_a_run(0.0, [-0.0]),
    "zeros-in-minus-zeros": _inside_a_run(-0.0, [0.0, -0.0]),
    "tiniest-in-minus-zeros": _inside_a_run(-0.0, [-5e-324]),
    "zeros-in-subnormals": _inside_a_run(5e-324, [0.0, -0.0, -5e-324]),
    "normal-and-zero-in-subnormals": _inside_a_run(
        np.nextafter(2.2250738585072014e-308, 0.0), [2.2250738585072014e-308, 0.0]),
    "minus-infs-in-a-run": _inside_a_run(-1.5, [-math.inf, -math.inf]),
    "inf-and-nan-in-subnormals": _inside_a_run(5e-324, [math.inf, math.nan]),
    "shuffled-binades": np.random.default_rng(7).permutation(
        np.ldexp(np.linspace(-2.0, 2.0, _FULL), np.arange(_FULL) % 600 - 300)),
}


@pytest.mark.parametrize("name", list(_FULL_CHUNKS))
def test_exact_sum_of_a_full_chunk_equals_fsum(name):
    values = _FULL_CHUNKS[name]
    assert values.size == svf._CHUNK
    acc = svf._ExactSum()
    acc.add(values)
    assert acc.value().hex() == math.fsum(values.tolist()).hex()


@st.composite
def _binned_arrays(draw):
    """Arrays whose consecutive values share an exponent bin in runs:
    monotone, reverse-sorted, piecewise constant in the exponent (runs of
    one sign and binade) and the last shuffled, over many binades."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = draw(st.integers(min_value=1, max_value=6000))
    lo = draw(st.integers(min_value=-1100, max_value=980))
    hi = draw(st.integers(min_value=lo, max_value=990))
    kind = draw(st.sampled_from(["monotone", "reversed", "piecewise", "shuffled"]))
    if kind in ("monotone", "reversed"):
        values = np.sort(np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(lo, hi + 1, size)))
        return values[::-1] if kind == "reversed" else values
    runs = draw(st.integers(min_value=1, max_value=min(size, 40)))
    lengths = rng.multinomial(size - runs, np.ones(runs) / runs) + 1
    signs = rng.choice([-1.0, 1.0], runs)
    exps = rng.integers(lo, hi + 1, runs)
    values = np.ldexp(np.repeat(signs, lengths) * rng.uniform(1.0, 2.0, size) / 2,
                      np.repeat(exps, lengths))
    return rng.permutation(values) if kind == "shuffled" else values


@settings(max_examples=200, deadline=None)
@given(_binned_arrays())
def test_exact_sum_of_runs_of_one_bin_equals_fsum(values):
    acc = svf._ExactSum()
    acc.add(values)
    assert acc.value().hex() == math.fsum(values.tolist()).hex()


# 20 runs of 200 values of one bin (one sign and binade), which chunks of
# 1, 3, 7, 64 and 1000 values cut inside runs, as do the pieces
_LONG_RUNS = np.ldexp(
    np.repeat(np.random.default_rng(11).choice([-1.0, 1.0], 20), 200)
    * np.random.default_rng(12).uniform(0.5, 1.0, 4000),
    np.repeat(np.random.default_rng(13).integers(-1074, 900, 20), 200))
_RUNS_CUT = np.split(_LONG_RUNS, [50, 450, 500, 1300, 1700, 2100, 3000])


@pytest.mark.parametrize("chunk", [1, 3, 7, 64, 1000])
def test_exact_sum_of_runs_across_chunk_boundaries(monkeypatch, chunk):
    values = np.concatenate(_RUNS_CUT)
    monkeypatch.setattr(svf, "_CHUNK", chunk)
    acc = svf._ExactSum()
    acc.add(values)
    assert acc.value().hex() == math.fsum(values.tolist()).hex()
    # added piece by piece, each cut inside a run, the sum is the same
    acc = svf._ExactSum()
    for piece in _RUNS_CUT:
        acc.add(piece)
    assert acc.value().hex() == math.fsum(values.tolist()).hex()


def test_exact_sum_of_a_2d_array_is_that_of_its_ravel():
    values = np.random.default_rng(4).standard_normal((300, 7)) * 1e10
    want = math.fsum(values.ravel().tolist()).hex()
    for view in (values, values.T, values[::2, ::3]):
        acc = svf._ExactSum()
        acc.add(view)
        assert acc.value().hex() == math.fsum(view.ravel().tolist()).hex()
    assert prefix_fsums(values, [300])[0].hex() == want
    assert prefix_fsums(np.ones((2, 3)), [2]) == [6.0]


def test_exact_sum_copies_a_strided_view_chunk_by_chunk():
    # a whole copy of the view would take 8 MB
    values = np.ones(2_000_000)[::2]
    tracemalloc.start()
    try:
        acc = svf._ExactSum()
        acc.add(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc.value() == 1e6
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# one index rule for schedules and streams
# ---------------------------------------------------------------------------

_RULE = r"^indices must be integers in \[1, 2\*\*63\), got"
_SCHEDULES = [
    PowerLawSchedule((1, 2), (3, 1)),
    ExplicitSchedule((RadiusTuple((0.5, 0.25)),), tail=PowerLawSchedule((1, 2))),
    ExplicitSchedule((RadiusTuple((0.5, 0.25)), RadiusTuple((0.4, 0.1))), tail="constant"),
]


@pytest.mark.parametrize("sched", _SCHEDULES, ids=["power", "explicit-power", "explicit-constant"])
@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.5, math.nan, math.inf, 2**63])
def test_schedules_and_streams_refuse_indices_by_one_rule(sched, bad):
    # radius_tuple(0) on a power law ended in ZeroDivisionError, 1.5 gave a
    # tuple for an index that does not exist, and an explicit schedule's
    # log_radii read the tail at 2 for 2.5 where its radius_tuple read 2.5
    with pytest.raises(ValueError, match=rf"{_RULE} {re.escape(str(bad))}$"):
        sched.radius_tuple(bad)
    for ns in ([bad], np.array([3, bad]), [2.0, bad]):
        with pytest.raises(ValueError, match=_RULE):
            sched.log_radii(ns)
    stream = OmegaStream(5, ProductSpace((Circle(), Cantor(0.25))))
    with pytest.raises(ValueError, match=rf"{_RULE} {re.escape(str(bad))}$"):
        stream.factor_coords(0, [bad])
    with pytest.raises(ValueError, match=_RULE):
        stream.factor_coords(1, [1, bad])


@pytest.mark.parametrize("sched", _SCHEDULES, ids=["power", "explicit-power", "explicit-constant"])
def test_schedules_take_int_uint64_and_integral_float_indices(sched):
    ns = [1, 2, 3, 7, 2**40]
    want = sched.log_radii(np.array(ns, dtype=np.int64))
    for given_ns in (ns, np.array(ns, dtype=np.uint64), np.array(ns, dtype=float)):
        assert sched.log_radii(given_ns).tobytes() == want.tobytes()
    for n in ns:
        tup = sched.radius_tuple(n)
        assert sched.radius_tuple(float(n)) == tup == sched.radius_tuple(np.uint64(n))


def _cover_rect(center, radii, r):
    return cover_rectangle(ProductSpace((Interval(), Interval())), center, radii, r)


@pytest.mark.parametrize("build, message", [
    (lambda: Cantor(0.7), "contraction ratio must be in (0, 1/2), got 0.7"),
    (lambda: ProductSpace(()), "product space needs at least one factor"),
    (lambda: _cover_rect((0.5, 0.5), (0.1, 0.1), 0.0),
     "cube radius must be positive and finite, got 0.0"),
    (lambda: _cover_rect((0.5,), (0.1, 0.1), 0.01),
     "center/radii dimension mismatch with the product space"),
    (lambda: _cover_rect((0.5, 0.5), (0.1, math.inf), 0.01),
     "rectangle side radii must be positive and finite, got inf"),
    (lambda: RadiusTuple(()), "radius tuple must be non-empty"),
    (lambda: PowerLawSchedule(()), "decay exponents must form a non-empty 1-d sequence"),
    (lambda: PowerLawSchedule((1, -2.0)), "all decay exponents must be finite and > 0, got -2.0"),
    (lambda: PowerLawSchedule((1, 2), (1,)), "coefficients and alphas must have equal length"),
    (lambda: PowerLawSchedule((1, 2), (1, math.nan)),
     "all coefficients must be finite and > 0, got nan"),
    (lambda: ExplicitSchedule(()), "explicit schedule needs at least one tuple"),
    (lambda: ExplicitSchedule(((0.5, 0.25), (0.5,))),
     "all radius tuples must have the same dimension"),
    (lambda: ExplicitSchedule(((0.5,),), tail="linear"), "unknown tail model 'linear'"),
    (lambda: ExplicitSchedule(((0.5,),), tail=PowerLawSchedule((1, 2))),
     "tail model dimension mismatch"),
    (lambda: closed_form_dimension(PowerLawSchedule((1, 2)), (1,)),
     "dimension mismatch: 2 alphas vs 1 exponents"),
    (lambda: critical_exponent_series(PowerLawSchedule((1, 2)), (1, 1), tol=0),
     "tol must be positive and finite, got 0"),
], ids=["cantor-ratio", "empty-product", "cube-radius", "rect-dimension", "side-radius",
        "empty-tuple", "no-alphas", "alpha", "coefficient-count", "coefficient",
        "no-tuples", "tuple-dimension", "tail-kind", "tail-dimension", "closed-form-dimension",
        "bisection-tol"])
def test_library_domain_errors_name_the_input(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
