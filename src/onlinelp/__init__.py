"""Online linear programming under random arrival order.

A stream of columns (reward, consumption vector) arrives in uniformly random
order against fixed row capacities.  The engine learns dual prices from an
early prefix LP — once (``run_ola``) or at geometrically spaced checkpoints
(``run_dpa``) — and accepts a column exactly when its reward strictly beats
the priced consumption and the column still fits.  Ships with a
bounded dual simplex solver that keeps each arrival's "pick at most one"
constraint implicit (generalized upper bounds, Dantzig & Van Slyke 1967), so
it works on an m-by-m basis, and passes many bound flips per iteration (a
long-step ratio test), so its iterations grow with m; a multi-choice
extension (one of k options per arrival, adwords-style budgeted
allocation); instance generators; and a benchmark harness for empirical
competitive ratios.
"""

from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .lp import *  # noqa: F403
from .engine import *  # noqa: F403
from .multi import *  # noqa: F403
from .generators import *  # noqa: F403
from .harness import *  # noqa: F403
from . import engine, errors, generators, harness, lp, model, multi

__version__ = "0.1.0"

# The public surface: each module's __all__, in import order.
__all__ = [name for module in (errors, model, lp, engine, multi, generators, harness)
           for name in module.__all__]
