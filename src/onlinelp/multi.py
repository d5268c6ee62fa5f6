"""Multi-choice names of the one policy: pick one of k options per arrival.

Arrival ``t`` offers option rewards ``f_t`` (length k) and a consumption
matrix ``G_t`` (m rows by k options); at most one option may be taken.
``engine`` runs such an instance as it runs a scalar one (k = 1): the
schedule, the walk, the price rule, the capacity guard, the prefix LP
builder and ``multi_allocation_rule`` are written there once.

``run_dpa_multi`` is the one public name here: the same ``RunResult`` as
``engine.run_dpa``, choice for choice.  The module also keeps the
attributes the benchmark traces and calls the program at, off the public
surface: ``flatten_lp`` (the multi-choice name of ``engine.sample_lp``),
``learn_price_multi`` and the ``solve_boxed_lp`` that it looks up here at
each call.  Each stays until the benchmark moves to the ``engine`` names.
"""

from __future__ import annotations

from .engine import run_epochs, sample_lp
from .lp import LpSolution, solve_boxed_lp
from .model import MultiInstance, RunResult

__all__ = ["run_dpa_multi"]

# The multi-choice name of the one prefix/offline LP builder, which takes
# either instance kind.
flatten_lp = sample_lp


def learn_price_multi(
    minst: MultiInstance, ell: int, shrink: float, start: LpSolution | None = None
) -> LpSolution:
    """The solved flattened prefix LP, from ``start``: the body of ``engine.learn_price``."""
    return solve_boxed_lp(flatten_lp(minst, ell, shrink), start)


def run_dpa_multi(minst: MultiInstance, eps: float) -> RunResult:
    """Dynamic pricing over multi-choice arrivals.

    Same protocol as run_dpa: decline the first ceil(n*eps) arrivals,
    re-learn prices at geometrically spaced points with the h_factor
    shrink, and between updates pick each arrival's best surplus option if
    it is positive and fits the remaining capacity in every row.
    """
    return run_epochs(minst, eps, "dpa", learn_price_multi)
