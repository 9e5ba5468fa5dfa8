"""Almost-sure Hausdorff dimension of random limsup sets of rectangles.

The library evaluates the singular value function of rectangle side radii,
computes the critical exponent that predicts the almost-sure dimension of
the random limsup set (two independent methods), builds explicit sparse sets
and covers in desk-scale regular spaces, and runs seeded Monte Carlo
experiments that check the covering and divergence ingredients behind the
prediction.  See the CLI (``limsupdim --help``) for the experiment harness.
"""

from . import ellipsoids, mc, spaces, svf
from .ellipsoids import *
from .manifests import RunManifest
from .mc import *
from .spaces import *
from .svf import *

__version__ = "0.1.0"

# each module's __all__ is its one list of public names
__all__ = [*svf.__all__, *spaces.__all__, *mc.__all__, *ellipsoids.__all__,
           "RunManifest", "__version__"]
