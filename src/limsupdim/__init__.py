"""Almost-sure Hausdorff dimension of random limsup sets of rectangles.

The library evaluates the singular value function of rectangle side radii,
computes the critical exponent that predicts the almost-sure dimension of
the random limsup set (two independent methods), builds explicit sparse sets
and covers in desk-scale regular spaces, and runs seeded Monte Carlo
experiments that check the covering and divergence ingredients behind the
prediction.  See the CLI (``limsupdim --help``) for the experiment harness.
"""

from .ellipsoids import EllipsoidSchedule, convex_body_dimension
from .manifests import RunManifest
from .mc import (
    DensityReport,
    DivergenceTestResult,
    FiberSumResult,
    OmegaStream,
    TailCoverProfile,
    VerdictConfig,
    VerdictReport,
    density_check,
    dimension_verdict,
    divergence_tail_bound_test,
    fiber_hit_sum,
    tail_cover_sum,
)
from .spaces import (
    Cantor,
    CantorPoint,
    Circle,
    CoverReport,
    Interval,
    ProductSpace,
    cover_ball,
    cover_rectangle,
    max_sparse_subset,
    sparse_bounds,
    verify_cover,
)
from .svf import (
    ExplicitSchedule,
    ExponentProfile,
    PowerLawSchedule,
    RadiusTuple,
    SingularValueProfile,
    closed_form_dimension,
    critical_exponent_series,
    estimate_sum_growth,
    exponent_profile,
    partial_sum,
    partial_sums,
    singular_value,
    svf_profile,
)

__version__ = "0.1.0"

__all__ = [
    "RadiusTuple",
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
    "Interval",
    "Circle",
    "Cantor",
    "CantorPoint",
    "ProductSpace",
    "CoverReport",
    "max_sparse_subset",
    "sparse_bounds",
    "cover_ball",
    "cover_rectangle",
    "verify_cover",
    "OmegaStream",
    "FiberSumResult",
    "DivergenceTestResult",
    "DensityReport",
    "TailCoverProfile",
    "VerdictConfig",
    "VerdictReport",
    "fiber_hit_sum",
    "divergence_tail_bound_test",
    "density_check",
    "tail_cover_sum",
    "dimension_verdict",
    "EllipsoidSchedule",
    "convex_body_dimension",
    "RunManifest",
    "__version__",
]
