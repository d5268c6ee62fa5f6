"""Multi-choice online allocation: pick one of k options per arrival.

Arrival ``t`` offers option rewards ``f_t`` (length k) and a consumption
matrix ``G_t`` (m rows by k options); at most one option may be taken.  The
pricing policy is the scalar one: learn row prices from a prefix LP, then
take the option with the largest priced surplus ``f_j - p' G[:, j]`` when
that surplus is positive, subject to the exact capacity guard.  The rule,
the guard and the schedule loop are the decision kernel in ``_core``, which
the scalar policies run as k = 1.

The prefix LP flattens the first ``ell`` arrivals into one boxed LP: one
scalar variable per (arrival, option) pair, the m resource rows scaled and
shrunk exactly as in the scalar case, plus one "pick at most one" row per
arrival.  Only the m resource-row duals feed the allocation rule.  For
k = 1 the pick-one rows literally restate the 0..1 box and are omitted, so
the k = 1 prefix LP is the scalar one and learns the same prices.
"""

from __future__ import annotations

import numpy as np

from ._core import options, price_rule, run_epochs
from .errors import AllZeroBids, DimensionMismatch
from .engine import geometric_schedule, h_factor
from .lp import BoxedLp, solve_boxed_lp
from .model import DualPrice, MultiColumn, MultiInstance, MultiRunResult

__all__ = [
    "MultiDecision",
    "multi_allocation_rule",
    "flatten_lp",
    "learn_price_multi",
    "run_dpa_multi",
    "adwords_to_multi",
]

# A multi-choice decision: the chosen option index, or None to decline.
MultiDecision = int | None


def multi_allocation_rule(price: DualPrice, col: MultiColumn) -> MultiDecision:
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


def _flatten(rewards: np.ndarray, consumption: np.ndarray, d_res: np.ndarray) -> BoxedLp:
    ell, m, k = consumption.shape[0], consumption.shape[1], consumption.shape[2]
    c = rewards.reshape(-1)  # variable (t, j) lands at position t*k + j
    if k == 1:
        return BoxedLp(
            c=c, A=np.ascontiguousarray(consumption[:, :, 0].T), d=d_res
        )
    A = np.zeros((m + ell, ell * k))
    A[:m, :] = np.transpose(consumption, (1, 0, 2)).reshape(m, ell * k)
    rows = np.repeat(np.arange(ell), k)
    A[m + rows, np.arange(ell * k)] = 1.0
    d = np.concatenate([d_res, np.ones(ell)])
    return BoxedLp(c=c, A=A, d=d)


def flatten_lp(minst: MultiInstance, ell: int | None = None, shrink: float = 0.0) -> BoxedLp:
    """Flatten the first ``ell`` arrivals (default all) into one boxed LP.

    The resource rows get capacities (1 - shrink) * (ell / n) * b; with
    ``ell = n`` and ``shrink = 0`` this is the full offline LP.
    """
    if ell is None:
        ell = minst.n
    if not 1 <= ell <= minst.n:
        raise ValueError(f"ell must be in [1, n], got ell={ell}, n={minst.n}")
    if not 0.0 <= shrink < 1.0:
        raise ValueError(f"shrink must be in [0, 1), got {shrink}")
    d_res = (1.0 - shrink) * (ell / minst.n) * minst.b
    return _flatten(minst.rewards[:ell], minst.consumption[:ell], d_res)


def learn_price_multi(minst: MultiInstance, ell: int, shrink: float) -> DualPrice:
    """Resource-row duals of the flattened prefix LP (pick-one rows not priced)."""
    sol = solve_boxed_lp(flatten_lp(minst, ell, shrink))
    return DualPrice(p=np.maximum(sol.dual[: minst.m], 0.0))


def run_dpa_multi(minst: MultiInstance, eps: float) -> MultiRunResult:
    """Dynamic pricing over multi-choice arrivals.

    Same protocol as run_dpa: decline the first ceil(n*eps) arrivals,
    re-learn prices at geometrically spaced points with the h_factor
    shrink, and between updates pick each arrival's best surplus option if
    it is positive and fits the remaining capacity in every row.
    """
    n = minst.n
    return MultiRunResult(*run_epochs(
        *options(minst), minst.b, geometric_schedule(n, eps),
        lambda ell: learn_price_multi(minst, ell, h_factor(ell, n, eps)),
    ))


def adwords_to_multi(bids, budgets) -> MultiInstance:
    """Map an n-by-m bid table with per-bidder budgets to a multi-choice instance.

    Query ``t`` becomes an arrival with k = m options (one per bidder):
    option ``i`` pays ``bids[t, i]`` in original units and consumes
    ``bids[t, i] / max_bid_i`` of bidder i's budget row, where ``max_bid_i``
    is bidder i's largest bid anywhere in the table.  Budget rows are scaled
    by the same factor so all consumption lands in [0, 1].  The scale
    factors are recorded in the instance metadata.

    Raises AllZeroBids if the whole table is zero.  Bidders who never bid
    keep their budget row unscaled (their options are never worth taking).
    """
    bids = np.asarray(bids, dtype=np.float64)
    budgets = np.asarray(budgets, dtype=np.float64)
    if bids.ndim != 2:
        raise ValueError(f"bids must be an n-by-m table, got shape {bids.shape}")
    n, m = bids.shape
    if budgets.shape != (m,):
        raise ValueError(f"budgets has shape {budgets.shape}, expected ({m},)")
    if not np.all(np.isfinite(bids)) or bids.min() < 0.0:
        raise ValueError("bids must be finite and nonnegative")
    if bids.max() <= 0.0:
        raise AllZeroBids("every bid in the table is zero")
    scale = bids.max(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    consumption = np.zeros((n, m, m))
    idx = np.arange(m)
    consumption[:, idx, idx] = bids / scale
    return MultiInstance(
        m=m, n=n, k=m, b=budgets / scale,
        rewards=bids.copy(), consumption=consumption,
        meta={
            "kind": "adwords",
            "row_scale": [float(v) for v in scale],
            "budgets_original": [float(v) for v in budgets],
        },
    )
