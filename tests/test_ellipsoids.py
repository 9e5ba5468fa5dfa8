import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limsupdim import EllipsoidSchedule, convex_body_dimension


def test_worked_example_two_axes():
    sched = EllipsoidSchedule((2.0, 3.0))
    assert convex_body_dimension(sched) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_spherical_bodies(a, d):
    sched = EllipsoidSchedule((a,) * d)
    assert convex_body_dimension(sched) == pytest.approx(min(1.0 / a, d), abs=1e-8)


def test_dilation_invariance_exact():
    inner = EllipsoidSchedule((2.0, 3.0), (0.5, 0.25))
    dilated = EllipsoidSchedule(
        inner.alphas, tuple(k * inner.dim for k in inner.coefficients)
    )
    assert convex_body_dimension(inner) == convex_body_dimension(dilated)
    sched = EllipsoidSchedule((1.0, 2.0), (1.0, 0.5))
    assert convex_body_dimension(sched) == pytest.approx(1.0, abs=1e-8)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_global_rescaling_invariance(data):
    d = data.draw(st.integers(1, 4))
    alphas = sorted(data.draw(st.floats(0.5, 4.0)) for _ in range(d))
    scale = data.draw(st.floats(0.1, 5.0))
    base = EllipsoidSchedule(tuple(alphas))
    scaled = EllipsoidSchedule(tuple(alphas), (scale,) * d)
    v1 = convex_body_dimension(base)
    v2 = convex_body_dimension(scaled)
    assert v2 == pytest.approx(v1, abs=1e-8)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sandwich_monotonicity(data):
    # entrywise larger semiaxes (smaller decay exponents) never shrink the
    # predicted dimension
    d = data.draw(st.integers(1, 4))
    alphas = sorted(data.draw(st.floats(0.6, 4.0)) for _ in range(d))
    shrink = [data.draw(st.floats(0.0, 0.4)) for _ in range(d)]
    bigger = sorted(a - delta for a, delta in zip(alphas, shrink))
    t_small = convex_body_dimension(EllipsoidSchedule(tuple(alphas)))
    t_big = convex_body_dimension(EllipsoidSchedule(tuple(bigger)))
    assert t_big >= t_small - 1e-9


def test_validation_rejects_increasing_semiaxes():
    with pytest.raises(ValueError):
        EllipsoidSchedule((3.0, 2.0))  # radii increasing in i
    with pytest.raises(ValueError):
        EllipsoidSchedule((1.0, 2.0), (0.5, 1.0))  # coefficients increasing
