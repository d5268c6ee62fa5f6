"""Multi-choice online allocation: pick one of k options per arrival.

Arrival ``t`` offers option rewards ``f_t`` (length k) and a consumption
matrix ``G_t`` (m rows by k options); at most one option may be taken.  The
pricing policy is the scalar one: learn row prices from a prefix LP, then
take the option with the largest priced surplus ``f_j - p' G[:, j]`` when
that surplus is positive, subject to the exact capacity guard.  The
schedule, its walk, the rule and the guard are written once in ``engine``,
whose policies run a scalar instance as k = 1; this module supplies the
multi-choice learn step, ``learn_price_multi``.  ``run_dpa_multi`` returns
the same ``RunResult`` as ``engine.run_dpa``, choice for choice.

The prefix LP, ``flatten_lp`` (the multi-choice name of ``engine.sample_lp``),
flattens the first ``ell`` arrivals into one boxed LP: one scalar variable
per (arrival, option) pair and the m resource rows, scaled and shrunk
exactly as in the scalar case.  Each arrival's k options form one
group that sums to at most 1; the solver keeps these groups implicit
(generalized upper bounds, Dantzig & Van Slyke 1967), so its basis is m by m
however many arrivals there are, and its duals are the m row prices the
allocation rule reads.
"""

from __future__ import annotations

import numpy as np

from .engine import dual_price, price_rule, run_epochs, sample_lp
from .errors import DimensionMismatch
from .lp import solve_boxed_lp
from .model import DualPrice, MultiColumn, MultiInstance, RunResult

__all__ = [
    "multi_allocation_rule",
    "flatten_lp",
    "learn_price_multi",
    "run_dpa_multi",
]

def multi_allocation_rule(price: DualPrice, col: MultiColumn) -> int | None:
    """Option with the largest positive priced surplus, or None if there is none.

    Ties on the surplus go to the lowest option index; an option priced
    exactly at its reward never wins.
    """
    if price.m != col.G.shape[0]:
        raise DimensionMismatch(
            f"price has {price.m} rows, column consumption has {col.G.shape[0]}"
        )
    r = int(price_rule(price.p, [col.f.tolist()], np.ascontiguousarray(col.G.T)[None])[0])
    return None if r < 0 else r


# The multi-choice name of the one prefix/offline LP builder, which takes
# either instance kind.
flatten_lp = sample_lp


def learn_price_multi(minst: MultiInstance, ell: int, shrink: float) -> DualPrice:
    """Row prices of the flattened prefix LP (negatives from roundoff clipped to zero)."""
    return dual_price(solve_boxed_lp(flatten_lp(minst, ell, shrink)))


def run_dpa_multi(minst: MultiInstance, eps: float) -> RunResult:
    """Dynamic pricing over multi-choice arrivals.

    Same protocol as run_dpa: decline the first ceil(n*eps) arrivals,
    re-learn prices at geometrically spaced points with the h_factor
    shrink, and between updates pick each arrival's best surplus option if
    it is positive and fits the remaining capacity in every row.
    """
    return run_epochs(minst, eps, "dpa", learn_price_multi)
