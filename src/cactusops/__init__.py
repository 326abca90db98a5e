"""Exact chain-level calculator for the surjection operad and spineless cacti.

Everything is computed with exact integer coefficients: operadic
composition with Koszul signs, the differential, the cactus filtration
and lobe trees, and the homotopy-associative structure on the
symmetrized product, together with verifiers for each identity the
structure rests on.
"""

from . import ainfty, cacti, elements, errors, formats, operad, reports, surjections
from .ainfty import *  # noqa: F401,F403
from .cacti import *  # noqa: F401,F403
from .elements import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .formats import *  # noqa: F401,F403
from .operad import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403
from .surjections import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = ["__version__"] + [
    name
    for module in (ainfty, cacti, elements, errors, formats, operad, reports, surjections)
    for name in module.__all__
]
