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

Both are one loop, written once here and shared with the multi-choice
policy and the harness.  ``schedule`` lists the checkpoints at which prices
are learned and the capacity shrink of each, ``learn_until`` walks that list
up to an arrival and returns the price that governs it, and ``decide``
applies the price rule and the capacity guard to a range of arrivals under
one price.  ``run_epochs`` is the batch walk, one price epoch at a time, and
``step`` the one-arrival walk for streaming use, so folding ``step`` over an
instance's columns reproduces the batch runs exactly.  ``packing_lp`` builds
every LP the package solves (prefix, offline and sampled), ``sample_lp`` is
its prefix/offline front end and ``dual_price`` reads the row prices off a
solution.  All of them read the k-option view of ``options``, in which a
scalar instance is a multi-choice one with k = 1, so every policy takes
either instance kind and returns a ``RunResult`` with the option each
arrival took.  ``allocation_rule`` and ``multi_allocation_rule`` apply the
price rule to one ``Column`` or ``MultiColumn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DegenerateWindow, DimensionMismatch, NonpositiveReward, StreamExhausted
from .lp import BoxedLp, solve_boxed_lp
from .model import Column, DualPrice, Instance, MultiColumn, MultiInstance, RunResult, onehot

__all__ = [
    "allocation_rule",
    "multi_allocation_rule",
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


def ceil_snap(x: float) -> int:
    """Ceiling with a 1e-9 relative snap toward the nearest integer.

    Guards schedule arithmetic against one-ulp drift in products like
    n * eps (e.g. 100 * 0.07) without changing any exactly-representable
    case.
    """
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def sample_size(n: int, eps: float) -> int:
    """ceil(n*eps), the number of columns learned from; at least one.

    Raises ValueError unless 0 < eps < 1, and DegenerateWindow when
    n*eps < 1 leaves no column to learn from.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    prod = n * eps
    if prod < 1.0 - 1e-9:
        raise DegenerateWindow(f"n*eps = {prod:.6g} < 1 leaves no columns to learn from")
    return ceil_snap(prod)


def h_factor(ell: int, n: int, eps: float) -> float:
    """Capacity shrink used when learning from the first ``ell`` of ``n`` columns.

    Equal to eps * sqrt(n / ell): largest (sqrt(1/eps) * eps) at the first
    update point ell = n*eps, decaying to eps at ell = n.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"ell must be in [1, n], got ell={ell}, n={n}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return eps * math.sqrt(n / ell)


def geometric_schedule(n: int, eps: float) -> list[int]:
    """Price-update points ceil(2^r * n * eps) for r = 0, 1, ... while < n."""
    points = [sample_size(n, eps)]
    if points[0] >= n:
        raise DegenerateWindow(f"ceil(n*eps) = {points[0]} >= n = {n} leaves no decisions to make")
    base = n * eps
    while True:
        ell = ceil_snap(base * (1 << len(points)))
        if ell >= n:
            return points
        points.append(ell)


def schedule(n: int, eps: float, mode: str) -> list[tuple[int, float]]:
    """The checkpoints ``(ell, shrink)`` of a policy over n arrivals.

    ``ola`` learns once, from the window ceil(n*eps) (the first
    ``geometric_schedule`` point), with shrink eps; ``dpa`` learns at every
    point with the ``h_factor`` shrink.  The price learned at ``ell``
    governs arrivals ``ell+1`` up to the next checkpoint.
    """
    points = geometric_schedule(n, eps)
    if mode == "ola":
        return [(points[0], eps)]
    if mode == "dpa":
        return [(ell, h_factor(ell, n, eps)) for ell in points]
    raise ValueError(f"mode must be 'ola' or 'dpa', got {mode!r}")


def learn_until(t: int, points, prices_used: list, learn):
    """The price governing arrival ``t`` (0-based), or None in the first window.

    Learns, in order, every checkpoint ``(ell, shrink)`` of ``points`` with
    ``ell <= t`` that ``prices_used`` does not log yet, calling
    ``learn(ell, shrink)`` and appending ``(ell, price)``.  The batch runs
    call it once per price epoch, ``step`` once per arrival.
    """
    while len(prices_used) < len(points) and points[len(prices_used)][0] <= t:
        ell, shrink = points[len(prices_used)]
        prices_used.append((ell, learn(ell, shrink)))
    return prices_used[-1][1] if prices_used else None


def options(inst) -> tuple[np.ndarray, np.ndarray]:
    """The k-option view: rewards (n, k) and consumption (n, k, m).

    The contiguous row ``consumption[t, j]`` is option j of arrival t.  Scalar
    instances give zero-copy views with k = 1, multi-choice ones a copy.
    """
    if inst.rewards.ndim == 1:
        return inst.rewards[:, None], inst.consumption[:, None, :]
    return inst.rewards, np.ascontiguousarray(inst.consumption.transpose(0, 2, 1))


def packing_lp(rewards, consumption, b, n: int, shrink: float) -> BoxedLp:
    """The LP over the given arrivals with capacities (1-shrink)*(ell/n)*b.

    ``rewards`` (ell, k) and ``consumption`` (ell, k, m) are arrivals in the
    k-option view.  The LP has one variable per (arrival, option) pair, at
    position t*k + j, and the m resource rows; each arrival's k options form
    one pick-at-most-one group, which the solver handles implicitly, so a
    scalar instance's LP is its k = 1 embedding.
    """
    ell, k, m = consumption.shape
    d = (1.0 - shrink) * (ell / n) * b
    A = np.ascontiguousarray(consumption.reshape(ell * k, m).T)
    return BoxedLp(c=rewards.reshape(-1), A=A, d=d, k=k)


def dual_price(sol) -> DualPrice:
    """The DualPrice of an LP solution's row prices, roundoff negatives clipped."""
    return DualPrice(p=np.maximum(sol.dual, 0.0))


def decide(p, rewards, consumption, lo: int, hi: int, remaining, choices) -> int:
    """Apply the price rule and the capacity guard to arrivals ``lo .. hi-1``.

    ``rewards[t][j]`` and ``consumption[t, j]`` are option j of arrival t in
    the k-option view (see ``options``); rewards read fastest as nested
    lists.  Arrival t takes the option with the largest surplus
    ``f_j - p . G[:, j]`` when that surplus is positive and the option's
    consumption fits ``remaining`` in every row; the choice is written to
    ``choices[t]`` and subtracted from ``remaining`` in place.  Entries of
    ``choices`` for declined arrivals are left untouched.  Returns the number
    of guard rejections: arrivals the rule accepted that did not fit.

    Tie conventions, shared by every policy:

    * the comparison is strict, so an option priced exactly at its reward is
      declined;
    * equal surpluses go to the lowest option index;
    * the guard is all-or-nothing: an option is committed only if it fits
      every row, and a rejected arrival falls back to no option, never to
      the next-best one;
    * ``greedy_baseline``, which ignores prices, takes the highest-reward
      option that fits, the lowest index on equal reward.
    """
    k = consumption.shape[1]
    rejected = 0
    for t in range(lo, hi):
        f = rewards[t]
        best, r, a = 0.0, -1, None
        for j in range(k):
            # One dot product per option on its contiguous row (ndarray.dot
            # is np.dot without the dispatch) keeps decisions bitwise with
            # the per-column rule: a batched product rounds differently, and
            # adwords decisions hang on that last bit.
            col = consumption[t, j]
            surplus = f[j] - float(p.dot(col))
            if surplus > best:
                best, r, a = surplus, j, col
        if r < 0:
            continue
        if (a <= remaining).all():
            remaining -= a
            choices[t] = r
        else:
            rejected += 1
    return rejected


def price_rule(p, rewards, consumption) -> np.ndarray:
    """Each arrival's choice under price ``p`` with no capacity limit (-1: none)."""
    choices = np.full(consumption.shape[0], -1, dtype=np.int64)
    unlimited = np.full(p.size, np.inf)
    decide(p, rewards, consumption, 0, consumption.shape[0], unlimited, choices)
    return choices


def run_epochs(inst, eps: float, mode: str, learn) -> RunResult:
    """The policy ``mode`` over a whole instance, one price epoch at a time.

    The checkpoints are ``schedule(n, eps, mode)``, and ``learn(inst, ell,
    shrink)`` returns the DualPrice learned from the first ``ell`` arrivals
    with that shrink; it governs arrivals ``ell+1 .. next checkpoint`` (the
    last one up to n).  Arrivals up to the first checkpoint are declined.
    """
    rewards, consumption = options(inst)
    points = schedule(inst.n, eps, mode)
    remaining = np.array(inst.b, dtype=np.float64)
    choices = np.full(inst.n, -1, dtype=np.int64)
    f = rewards.tolist()
    prices_used = []
    ends = [ell for ell, _ in points[1:]] + [inst.n]
    for (ell, _), end in zip(points, ends):
        price = learn_until(ell, points, prices_used, partial(learn, inst))
        decide(price.p, f, consumption, ell, end, remaining, choices)
    return RunResult(choices, objective(rewards, choices), inst.b - remaining, prices_used)


def objective(rewards, choices) -> float:
    """Summed reward of the chosen options (rewards in the k-option view)."""
    return float(np.dot(rewards.reshape(-1), onehot(choices, rewards.shape[1]).reshape(-1)))


def allocation_rule(price: DualPrice, col: Column) -> int:
    """1 if the column's reward strictly beats its consumption priced at ``price``."""
    if price.m != col.a.size:
        raise DimensionMismatch(
            f"price has {price.m} rows, column consumption has {col.a.size}"
        )
    return int(price_rule(price.p, [[col.pi]], col.a[None, None, :])[0] >= 0)


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
