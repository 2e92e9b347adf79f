"""Exact evaluation toolkit for multiple zeta-star values.

The package provides the word algebra with the harmonic (stuffle) product,
the expansion of star values into plain zeta words, exact closed forms for
the classical repeated-index families as rational multiples of pi powers,
cyclotomic and power-series machinery backing them, certified numeric
evaluation of the nested series, and executable verification of all the
identities tying those pieces together.

The public names are those of the submodules' ``__all__`` lists.
"""

from . import closed_forms, cyclotomic, exact, numeric, series, verify, words
from .closed_forms import *  # noqa: F401,F403
from .cyclotomic import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .numeric import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .words import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (closed_forms, cyclotomic, exact, numeric, series, verify, words)
    for name in module.__all__
)
