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

from dataclasses import dataclass

from .svf import DEFAULT_BISECTION_TOL, PowerLawSchedule, critical_exponent_series

__all__ = ["EllipsoidSchedule", "convex_body_dimension"]


@dataclass(frozen=True)
class EllipsoidSchedule:
    """Power-law semiaxis model: the n-th ellipsoid has semiaxes
    kappa_i * n^{-alpha_i}, listed in non-increasing order (alphas
    non-decreasing, coefficients non-increasing).  ``dilation`` is the factor
    by which the circumscribed copy is scaled and must equal the ambient
    dimension.
    """

    alphas: tuple[float, ...]
    coefficients: tuple[float, ...] = ()
    dilation: int | None = None

    def __post_init__(self):
        sched = PowerLawSchedule(self.alphas, self.coefficients)  # validates entries
        object.__setattr__(self, "alphas", sched.alphas)
        object.__setattr__(self, "coefficients", sched.coefficients)
        d = len(self.alphas)
        if any(a2 < a1 for a1, a2 in zip(self.alphas, self.alphas[1:])):
            raise ValueError("semiaxes must be non-increasing: sort alphas ascending")
        if any(k2 > k1 for k1, k2 in zip(self.coefficients, self.coefficients[1:])):
            raise ValueError("semiaxes must be non-increasing: coefficients non-increasing")
        dil = d if self.dilation is None else int(self.dilation)
        if dil != d:
            raise ValueError(f"dilation must equal the ambient dimension {d}, got {dil}")
        object.__setattr__(self, "dilation", dil)

    @property
    def dim(self) -> int:
        return len(self.alphas)

    def inner_schedule(self) -> PowerLawSchedule:
        return PowerLawSchedule(self.alphas, self.coefficients)


def convex_body_dimension(sched: EllipsoidSchedule,
                          tol: float = DEFAULT_BISECTION_TOL) -> float:
    """Critical exponent with unit regularity exponents, capped at d.

    Identical for the inner ellipsoids and their dilations, since constant
    factors on the radii do not affect series convergence.
    """
    ones = tuple(1.0 for _ in range(sched.dim))
    return min(critical_exponent_series(sched.inner_schedule(), ones, tol),
               float(sched.dim))
