"""holoball: modulus-gradient Schwarz-Pick bounds for holomorphic maps
between complex unit balls.

The gradient of |f| for a holomorphic map f between unit balls satisfies
the sharp bound (1 - |f(z)|^2) / (1 - |z|^2); this package computes that
gradient in closed form, checks the bound, constructs and diagnoses the
equality cases, and stress-tests everything against a finite-difference
oracle over randomized certified maps.

The package re-exports the public names of each library module (each
module's ``__all__``); the command line lives in ``holoball.cli``, which
is not imported here.
"""

from . import complexcore, errors, extremal, geometry, harness, holomap, schwarzpick
from .complexcore import *
from .errors import *
from .extremal import *
from .geometry import *
from .harness import *
from .holomap import *
from .schwarzpick import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (complexcore, errors, holomap, geometry, schwarzpick, extremal, harness)
    for name in module.__all__
]
