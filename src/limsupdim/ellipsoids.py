"""Predicted dimension for limsup sets of convex bodies in the unit cube.

A convex body sequence is summarised by the semiaxis lengths of inscribed
ellipsoids whose dilation by the ambient dimension contains the body; the
limsup set's almost-sure dimension under the uniform measure is the critical
exponent of the singular value function with unit regularity exponents,
capped at the ambient dimension.  Dilation multiplies every semiaxis by a
constant and therefore never moves the critical exponent, so the inner
ellipsoids and their dilations give the same answer; the semiaxis data is an
input here, not computed from body geometry.  Outputs are exact for
axis-aligned semiaxis data; alignment arguments affect constants only.
"""

from __future__ import annotations

from .svf import DEFAULT_BISECTION_TOL, PowerLawSchedule, critical_exponent_series

__all__ = ["EllipsoidSchedule", "convex_body_dimension"]


class EllipsoidSchedule(PowerLawSchedule):
    """Power-law semiaxis model: the n-th ellipsoid has semiaxes
    kappa_i * n^{-alpha_i}, listed in non-increasing order (alphas
    non-decreasing, coefficients non-increasing), which
    ``check_non_increasing()`` enforces at construction.
    """

    def __post_init__(self):
        super().__post_init__()
        self.check_non_increasing()


def convex_body_dimension(sched: EllipsoidSchedule,
                          tol: float = DEFAULT_BISECTION_TOL) -> float:
    """Critical exponent with unit regularity exponents, capped at d.

    Identical for the inner ellipsoids and their dilations, since constant
    factors on the radii do not affect series convergence.
    """
    ones = tuple(1.0 for _ in range(sched.dim))
    return critical_exponent_series(sched, ones, tol)
