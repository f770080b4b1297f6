"""Analytical solution and brute-force validation of a damped two-mode
bosonic system: a trapped ion's motion coupled to a lossy cavity mode by two
laser-engineered rates.

The package evaluates the closed-form density operator of the model, its
squeezed-thermal reduced states, quadrature variances and revival schedule,
and cross-checks everything against an exact propagator of the Lindblad
master equation on truncated Fock spaces.

Each module's ``__all__`` is its list of public names; the package
re-exports exactly those.  The command-line front end, ``ioncavity.cli``,
is not re-exported.
"""

from . import errors, fock, lindblad, observables, params
from .errors import *  # noqa: F403
from .fock import *  # noqa: F403
from .lindblad import *  # noqa: F403
from .observables import *  # noqa: F403
from .params import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *params.__all__, *observables.__all__, *fock.__all__, *lindblad.__all__]
