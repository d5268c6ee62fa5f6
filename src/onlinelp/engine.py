"""Threshold policies for online allocation with learned dual prices.

Two policies are provided, both operating under a random-arrival-order
model and both keeping every capacity constraint satisfied at every step:

* ``run_ola``: learn a price vector once, from the first ``ceil(n*eps)``
  arrivals (all declined), by solving a scaled-down LP over that prefix,
  then accept any later arrival whose reward beats its priced consumption
  and still fits in the remaining capacity.
* ``run_dpa``: re-learn the price at geometrically spaced points
  ``ceil(2^r * n * eps)``, shrinking the prefix LP's capacities by
  ``h = eps * sqrt(n / ell)`` so early, noisier prices are more
  conservative.

``step`` exposes the same logic one arrival at a time for streaming use;
folding it over a column sequence reproduces the batch runs exactly.

The schedule (where prices are learned and with what capacity shrink), its
walk, the prefix LP and the decision kernel are written once in ``_core``
and shared with the multi-choice policy; ``h_factor`` and
``geometric_schedule`` are re-exported from there.  This module supplies
the learn step, ``sample_lp`` and ``learn_price``, which take either
instance kind: the batch runs walk the schedule one price epoch at a time
and return a ``RunResult`` with the option each arrival took, ``step``
walks it one scalar arrival at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._core import (
    decide, dual_price, geometric_schedule, h_factor, learn_until, options, packing_lp,
    price_rule, run_epochs, schedule,
)
from .errors import DimensionMismatch, NonpositiveReward, StreamExhausted
from .lp import BoxedLp, solve_boxed_lp
from .model import Column, DualPrice, Instance, MultiInstance, RunResult

__all__ = [
    "allocation_rule",
    "h_factor",
    "geometric_schedule",
    "sample_lp",
    "learn_price",
    "run_ola",
    "run_dpa",
    "OnlineState",
    "step",
    "ConditionReport",
    "CONDITION_VARIANTS",
    "check_input_condition",
]

# The capacity-size checks of check_input_condition, in report order.
CONDITION_VARIANTS = ("ola", "dpa", "corollary", "per_row")


def allocation_rule(price: DualPrice, col: Column) -> int:
    """1 if the column's reward strictly beats its consumption priced at ``price``."""
    if price.m != col.a.size:
        raise DimensionMismatch(
            f"price has {price.m} rows, column consumption has {col.a.size}"
        )
    return int(price_rule(price.p, [[col.pi]], col.a[None, None, :])[0] >= 0)


def sample_lp(
    inst: Instance | MultiInstance, ell: int | None = None, shrink: float = 0.0
) -> BoxedLp:
    """The prefix LP over arrivals 1..ell (default all), capacities (1-shrink)*(ell/n)*b.

    With ``ell = n`` and ``shrink = 0`` this is the full offline LP.  Either
    instance kind: a multi-choice arrival's k options form one group of the
    LP (``BoxedLp.k``), summing to at most 1, and a scalar arrival is a
    group of one.
    """
    ell = inst.n if ell is None else ell
    if not 1 <= ell <= inst.n:
        raise ValueError(f"ell must be in [1, n], got ell={ell}, n={inst.n}")
    if not 0.0 <= shrink < 1.0:
        raise ValueError(f"shrink must be in [0, 1), got {shrink}")
    rewards, consumption = options(inst)
    return packing_lp(rewards[:ell], consumption[:ell], inst.b, inst.n, shrink)


def learn_price(inst: Instance | MultiInstance, ell: int, shrink: float) -> DualPrice:
    """Dual prices of the prefix LP (negatives from roundoff clipped to zero).

    Args:
        inst: the instance, of either kind, whose first ``ell`` arrivals are
            visible.
        ell: prefix length, 1 <= ell <= n.
        shrink: capacity shrink factor in [0, 1); the prefix LP right-hand
            side is (1 - shrink) * (ell / n) * b.
    """
    return dual_price(solve_boxed_lp(sample_lp(inst, ell, shrink)))


def run_ola(inst: Instance | MultiInstance, eps: float) -> RunResult:
    """One-time learning: a single price from the first ceil(n*eps) columns.

    Those columns are declined; each later column is accepted when the rule
    fires and its consumption fits every row's remaining capacity (checked
    exactly, so the fill can never exceed b).
    """
    return run_epochs(inst, eps, "ola", learn_price)


def run_dpa(inst: Instance | MultiInstance, eps: float) -> RunResult:
    """Dynamic pricing: prices re-learned at geometrically spaced points.

    The price learned from the first ``ell`` columns governs arrivals
    ``ell+1 .. 2*ell`` (the last one up to n); the prefix LP's capacities
    carry the h_factor shrink, so early prices over-protect capacity while
    little has been observed.
    """
    return run_epochs(inst, eps, "dpa", learn_price)


@dataclass
class OnlineState:
    """Mutable state for the streaming API; single-owner, advance with step().

    Holds the arrival count ``t``, the remaining capacity, the decisions so
    far, the ``schedule`` of ``(ell, shrink)`` checkpoints with the prices
    learned at those passed so far (``prices_used``), and the arrivals up to
    the last checkpoint (the window alone under OLA), which are all that
    re-learning prices needs.  The row count is ``b.size``.
    """

    n: int
    b: np.ndarray
    schedule: list[tuple[int, float]]
    remaining: np.ndarray
    t: int = 0
    decisions: list[int] = field(default_factory=list)
    prices_used: list[tuple[int, DualPrice]] = field(default_factory=list)
    _seen_pi: np.ndarray = field(init=False, repr=False)
    _seen_a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        last = self.schedule[-1][0]
        self._seen_pi = np.empty(last)
        self._seen_a = np.empty((last, self.b.size))

    @classmethod
    def start(cls, m: int, n: int, b, eps: float, mode: str = "dpa") -> "OnlineState":
        points = schedule(n, eps, mode)
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (m,):
            raise DimensionMismatch(f"b has shape {b.shape}, expected ({m},)")
        return cls(n=n, b=b.copy(), schedule=points, remaining=b.copy())

    def _learn(self, ell: int, shrink: float) -> DualPrice:
        pi, a = self._seen_pi[:ell, None], self._seen_a[:ell, None]
        return dual_price(solve_boxed_lp(packing_lp(pi, a, self.b, self.n, shrink)))


def step(state: OnlineState, col: Column) -> tuple[int, OnlineState]:
    """Process one arrival and return (decision, state).

    The state is advanced in place and returned for convenience.  Raises
    StreamExhausted once n arrivals have been processed.  The price comes
    from the same schedule walk as the batch runs, so folding step over an
    instance's columns reproduces run_ola / run_dpa decision for decision.
    """
    t = state.t
    if t >= state.n:
        raise StreamExhausted(f"all {state.n} arrivals already processed")
    if col.a.size != state.b.size:
        raise DimensionMismatch(f"column has {col.a.size} rows, state has {state.b.size}")
    if t < state._seen_pi.size:
        state._seen_pi[t] = col.pi
        state._seen_a[t] = col.a
    price = learn_until(t, state.schedule, state.prices_used, state._learn)
    choice = [-1]
    if price is not None:
        decide(price.p, [[col.pi]], col.a[None, None, :], 0, 1, state.remaining, choice)
    decision = int(choice[0] >= 0)
    state.t = t + 1
    state.decisions.append(decision)
    return decision, state


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a capacity-size check: advisory only, never blocks a run."""

    variant: str
    satisfied: bool
    lhs: float
    rhs: float


def check_input_condition(
    inst: Instance | MultiInstance, eps: float, variant: str = "dpa"
) -> ConditionReport:
    """Compare capacities against the size the guarantees ask for.

    Variants (all use natural log; B = min_i b_i except per_row):

    * ``ola``:       B >= 6 m log(n/eps) / eps^3
    * ``dpa``:       B >= 20 m log(n) / eps^2
    * ``corollary``: B >= 20 (m L + m^2 log(1/eps)) / eps^2 with
      L = log log(max reward / min reward), inner log clamped at 1; all
      rewards must be strictly positive (NonpositiveReward otherwise).
    * ``per_row``:   b_i / abar_i >= 20 m log(n/eps) / eps^2 for every row,
      where abar_i is the row's largest consumption entry; rows that are
      never consumed pass trivially.  lhs reports the worst row.

    The report is diagnostic: runs proceed regardless of the outcome.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    m, n = inst.m, inst.n
    lhs = float(inst.b.min())
    if variant == "ola":
        rhs = 6.0 * m * math.log(n / eps) / eps**3
    elif variant == "dpa":
        rhs = 20.0 * m * math.log(n) / eps**2
    elif variant == "corollary":
        if float(inst.rewards.min()) <= 0.0:
            raise NonpositiveReward("corollary check needs strictly positive rewards")
        ratio = float(inst.rewards.max() / inst.rewards.min())
        lam = math.log(max(math.log(ratio), 1.0))
        rhs = 20.0 * (m * lam + m * m * math.log(1.0 / eps)) / eps**2
    elif variant == "per_row":
        abar = options(inst)[1].max(axis=(0, 1))
        with np.errstate(divide="ignore"):
            per_row = np.where(abar > 0.0, inst.b / np.where(abar > 0.0, abar, 1.0), np.inf)
        lhs = float(per_row.min())
        # The option count folds into the log term; it is pinned at 1 here.
        rhs = 20.0 * m * math.log(n / eps) / eps**2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ConditionReport(variant, bool(lhs >= rhs), lhs, rhs)
