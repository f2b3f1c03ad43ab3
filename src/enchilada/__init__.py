"""Desk-scale computations in the category whose objects are C*-algebras and
whose morphisms are isomorphism classes of nondegenerate correspondences.

Objects are finite-dimensional (direct sums of matrix blocks), so morphisms
are multiplicity matrices over N ∪ {INF}: composition is matrix
multiplication, kernels and cokernels are ideal inclusions and quotient
maps, and Schubert images fall out of their composites.  A numeric layer
realizes finite classes as block-matrix Hilbert bimodules and recomputes
composition through an explicit Gram quotient.  On realized factors its
traces and axiom checks are bookkeeping; what it checks numerically is the
Gram spectra, and any action a caller builds.
"""

from . import algebras, cardinal, checks, concrete, corr, errors, exactness, quirks
from .algebras import *
from .cardinal import *
from .checks import *
from .concrete import *
from .corr import *
from .errors import *
from .exactness import *
from .quirks import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    name
    for module in (algebras, cardinal, corr, concrete, exactness, checks, quirks, errors)
    for name in module.__all__
]
