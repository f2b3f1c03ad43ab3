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

The symbolic modules import no numpy and load with the package.  The numpy
modules, `concrete`, `checks` and `quirks`, load on first use of one of
their names, so a symbolic CLI verb never imports numpy.
"""

from . import algebras, cardinal, corr, errors, exactness
from .algebras import *
from .cardinal import *
from .corr import *
from .errors import *
from .exactness import *

__version__ = "0.1.0"

# The numpy modules in import order: each imports only those before it, so
# searching them in turn for a name imports no module the name does not need.
_NUMERIC = ("concrete", "checks", "quirks")


def __getattr__(name):
    if name in _NUMERIC:
        # Through __import__, which -X importtime reports; importlib's
        # import_module bypasses it.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name == "__all__":
        concrete, checks, quirks = map(__getattr__, _NUMERIC)
        # Each module's __all__ is the one list of its public names.
        modules = (algebras, cardinal, corr, concrete, exactness, checks, quirks, errors)
        value = [public for module in modules for public in module.__all__]
    else:
        module = next((m for m in map(__getattr__, _NUMERIC) if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
