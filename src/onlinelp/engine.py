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
are learned and the capacity shrink of each, and ``learn_until`` walks that
list up to an arrival and returns the price that governs it.  Each
checkpoint's prefix LP is solved by ``learn_price`` from the previous
checkpoint's solution, whose basis the solver takes as its warm start, and
its ``LpSolution`` is kept beside the logged price.  ``choose`` is
the price rule for one arrival, one dot product per option, and ``decide``
applies it and the capacity guard to a range of arrivals under one price:
one stacked matrix product prices the range with the same dot kernel, and
the guard subtracts the accepted columns with ``np.subtract.accumulate``, so
every decision, rounding ties included, is bitwise that of ``choose`` and a
one-at-a-time guard.
``run_epochs`` is the batch walk, one price epoch at a time, and ``step``
the one-arrival walk, which applies ``choose`` and the guard directly and
keeps a stream's arrivals in an ``Instance``; both learn through
``learn_price`` from the same chain of solutions, so folding ``step`` over
an instance's columns reproduces the batch runs exactly, prices included.
``packing_lp`` builds every LP the package solves (prefix, offline and
sampled) from an instance's stored rows; ``sample_lp`` is its front end.
The walks decide on the k-option view of ``options``, in which a scalar
instance is a multi-choice one with k = 1, so every policy takes either
instance kind and returns a ``RunResult`` with the option each arrival took.
``allocation_rule`` and ``multi_allocation_rule`` apply ``choose`` to one
``Column`` or ``MultiColumn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWindow, DimensionMismatch, NonpositiveReward, StreamExhausted
from .lp import BoxedLp, LpSolution, solve_boxed_lp
from .model import (
    Column, DualPrice, Instance, MultiColumn, MultiInstance, RunResult, check_count, onehot,
)

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


def check_eps(eps: float) -> None:
    """Raise ValueError unless 0 < eps < 1 (NaN fails it too)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")


def sample_size(n: int, eps: float) -> int:
    """ceil(n*eps), the number of columns learned from; at least one.

    Raises ValueError unless 0 < eps < 1, and DegenerateWindow when
    n*eps < 1 leaves no column to learn from.
    """
    check_eps(eps)
    prod = n * eps
    if prod < 1.0 - 1e-9:
        raise DegenerateWindow(f"n*eps = {prod:.6g} < 1 leaves no columns to learn from")
    return ceil_snap(prod)


def h_factor(ell: int, n: int, eps: float) -> float:
    """Capacity shrink used when learning from the first ``ell`` of ``n`` columns.

    Equal to eps * sqrt(n / ell): largest (sqrt(1/eps) * eps) at the first
    update point ell = n*eps, decaying to eps at ell = n.
    """
    check_count("ell", ell)
    if ell > n:
        raise ValueError(f"ell must be in [1, n], got ell={ell}, n={n}")
    check_eps(eps)
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


def learn_until(t: int, points, prices_used: list, solves: list, learn, inst):
    """The price governing arrival ``t`` (0-based), or None in the first window.

    Learns, in order, every checkpoint ``(ell, shrink)`` of ``points`` with
    ``ell <= t`` that ``prices_used`` does not log yet.  It calls
    ``learn(inst, ell, shrink, start)``, which solves the prefix LP over the
    first ``ell`` arrivals from ``start``, the last solution in ``solves``
    (None before the first), and returns its ``LpSolution``.  The solution
    is appended to ``solves`` and ``(ell, DualPrice(sol.dual))`` to
    ``prices_used``.  Each prefix LP extends the one before it by more
    arrivals, so the previous checkpoint's basis is a warm start.  The batch
    runs call it once per price epoch, ``step`` once per arrival, with the
    same solutions, so both learn the same prices.
    """
    while len(prices_used) < len(points) and points[len(prices_used)][0] <= t:
        ell, shrink = points[len(prices_used)]
        sol = learn(inst, ell, shrink, solves[-1] if solves else None)
        solves.append(sol)
        prices_used.append((ell, DualPrice(sol.dual)))
    return prices_used[-1][1] if prices_used else None


def options(inst) -> tuple[np.ndarray, np.ndarray]:
    """The k-option view the walks decide on: rewards (n, k), consumption (n, k, m).

    The contiguous row ``consumption[t, j]`` is option j of arrival t.  Only
    k > 1 makes a copy; scalar and k = 1 instances give zero-copy views.
    """
    return (inst.rewards.reshape(inst.n, -1),
            np.ascontiguousarray(inst.consumption.reshape(inst.n, inst.m, -1).transpose(0, 2, 1)))


def packing_lp(rewards, consumption, b, n: int, shrink: float) -> BoxedLp:
    """The LP over the given arrivals with capacities (1-shrink)*(ell/n)*b.

    ``rewards`` and ``consumption`` are stored rows: (ell,) and (ell, m) of a
    scalar instance, (ell, k) and (ell, m, k) of a multi-choice one.  The LP
    has one variable per (arrival, option) pair, at position t*k + j, and the
    m resource rows, copied t-major once; each arrival's k options form one
    implicit pick-at-most-one group, so a scalar LP is its k = 1 embedding.
    """
    ell, m = consumption.shape[:2]
    d = (1.0 - shrink) * (ell / n) * b
    A = np.ascontiguousarray(consumption.reshape(ell, m, -1).transpose(1, 0, 2)).reshape(m, -1)
    return BoxedLp(c=rewards.reshape(-1), A=A, d=d, k=A.shape[1] // ell)


def choose(p, f, cols) -> int:
    """The price rule for one arrival: its option with the largest positive surplus, or -1.

    ``f[j]`` and ``cols[j]`` are option j's reward and consumption.  The
    surplus ``f[j] - p . cols[j]`` takes one dot product per option on its
    contiguous row (``ndarray.dot`` is ``np.dot`` without the dispatch).
    Every decision of every policy is this rule's, bit for bit: ``step`` and
    the allocation rules call it, and ``decide`` prices a whole range with a
    stacked matrix product that numpy computes, item by item, with this same
    dot kernel.
    """
    best, r = 0.0, -1
    for j in range(len(f)):
        surplus = f[j] - float(p.dot(cols[j]))
        if surplus > best:
            best, r = surplus, j
    return r


def decide(p, rewards, consumption, lo: int, hi: int, remaining, choices) -> int:
    """Apply the price rule and the capacity guard to arrivals ``lo .. hi-1``.

    ``rewards[t, j]`` and ``consumption[t, j]`` are option j of arrival t in
    the k-option view (see ``options``).  Arrival t takes the option with
    the largest surplus ``f_j - p . G[:, j]`` when that surplus is positive
    and the option's consumption fits ``remaining`` in every row; the choice
    is written to ``choices[t]`` and subtracted from ``remaining`` in place.
    Entries of ``choices`` for declined arrivals are left untouched.
    Returns the number of guard rejections: arrivals the rule accepted that
    did not fit.

    The whole range is priced with one stacked matrix product, whose every
    (1 x m)(m x 1) item numpy computes with the dot kernel of ``ndarray.dot``,
    so each surplus is bitwise that of ``choose`` and each arrival, rounding
    ties included, gets ``choose``'s decision.  The guard walks the accepted
    arrivals in order with ``np.subtract.accumulate``, the same sequential
    subtractions as ``remaining -= a``, up to the first that does not fit.
    It rejects that one, and every later candidate of the window that no
    longer fits (``remaining`` only shrinks, so it never will); the next
    window is twice the stretch just walked, so the work stays linear in the
    range however the rejections fall.

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
    f, G = rewards[lo:hi], consumption[lo:hi]
    # A priced column that overflows gives a surplus of -inf (NaN against an
    # infinite reward); ``fmax`` sends both to 0, no positive surplus, so the
    # option never wins, as in ``choose``.
    with np.errstate(over="ignore", invalid="ignore"):
        surplus = np.fmax(f - (G[:, :, None, :] @ p[:, None])[:, :, 0, 0], 0.0)
    pick = surplus.argmax(axis=1)
    pick[surplus[np.arange(f.shape[0]), pick] == 0.0] = -1
    cand = np.flatnonzero(pick >= 0)
    cols = G[cand, pick[cand]]
    kept, start, width = [cand[:0]], 0, cand.size
    while start < cand.size:
        block = cols[start:start + width]
        live = np.flatnonzero((block <= remaining).all(axis=1))
        run = np.subtract.accumulate(np.concatenate((remaining[None], block[live])))
        fits = (block[live] <= run[:-1]).all(axis=1)
        c = live.size if fits.all() else int(fits.argmin())
        kept.append(start + live[:c])
        remaining[:] = run[c]
        stop = int(live[c]) + 1 if c < live.size else block.shape[0]
        start, width = start + stop, 2 * stop
    taken = cand[np.concatenate(kept)]
    choices[lo + taken] = pick[taken]
    return cand.size - taken.size


def price_rule(p, rewards, consumption) -> np.ndarray:
    """Each arrival's choice under price ``p`` with no capacity limit (-1: none)."""
    choices = np.full(consumption.shape[0], -1, dtype=np.int64)
    unlimited = np.full(p.size, np.inf)
    decide(p, rewards, consumption, 0, consumption.shape[0], unlimited, choices)
    return choices


def run_epochs(inst, eps: float, mode: str, learn) -> RunResult:
    """The policy ``mode`` over a whole instance, one price epoch at a time.

    The checkpoints are ``schedule(n, eps, mode)``, and ``learn`` is called
    as ``learn_until`` says: the price learned from the first ``ell``
    arrivals with that shrink governs arrivals ``ell+1 .. next checkpoint``
    (the last one up to n).  Arrivals up to the first checkpoint are
    declined.
    """
    rewards, consumption = options(inst)
    points = schedule(inst.n, eps, mode)
    remaining = np.array(inst.b, dtype=np.float64)
    choices = np.full(inst.n, -1, dtype=np.int64)
    prices_used, solves = [], []
    ends = [ell for ell, _ in points[1:]] + [inst.n]
    for (ell, _), end in zip(points, ends):
        price = learn_until(ell, points, prices_used, solves, learn, inst)
        decide(price.p, rewards, consumption, ell, end, remaining, choices)
    return RunResult(choices, objective(rewards, choices), inst.b - remaining, prices_used)


def objective(rewards, choices) -> float:
    """Summed reward of the chosen options (rewards in the k-option view)."""
    return float(np.dot(rewards.reshape(-1), onehot(choices, rewards.shape[1]).reshape(-1)))


def allocation_rule(price: DualPrice, col: Column) -> int:
    """1 if the column's reward strictly beats its consumption priced at ``price``."""
    return int(multi_allocation_rule(price, MultiColumn(f=[col.pi], G=col.a[:, None])) is not None)


def multi_allocation_rule(price: DualPrice, col: MultiColumn) -> int | None:
    """Option with the largest positive priced surplus, or None if there is none.

    Ties on the surplus go to the lowest option index; an option priced
    exactly at its reward never wins.
    """
    if price.p.size != col.G.shape[0]:
        raise DimensionMismatch(
            f"price has {price.p.size} rows, column consumption has {col.G.shape[0]}"
        )
    r = choose(price.p, col.f, np.ascontiguousarray(col.G.T))
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
    check_count("ell", ell)
    if ell > inst.n:
        raise ValueError(f"ell must be in [1, n], got ell={ell}, n={inst.n}")
    if not 0.0 <= shrink < 1.0:
        raise ValueError(f"shrink must be in [0, 1), got {shrink}")
    return packing_lp(inst.rewards[:ell], inst.consumption[:ell], inst.b, inst.n, shrink)


def learn_price(
    inst: Instance | MultiInstance, ell: int, shrink: float, start: LpSolution | None = None
) -> LpSolution:
    """The solved prefix LP; its ``dual`` holds the row prices.

    Args:
        inst: the instance, of either kind, whose first ``ell`` arrivals are
            visible.
        ell: prefix length, 1 <= ell <= n.
        shrink: capacity shrink factor in [0, 1); the prefix LP right-hand
            side is (1 - shrink) * (ell / n) * b.
        start: the solution of a shorter prefix LP of the same instance, the
            solver's warm start (``solve_boxed_lp``), or None.
    """
    return solve_boxed_lp(sample_lp(inst, ell, shrink), start)


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

    ``inst`` has the stream's m, n and b, and ``step`` writes into it the
    arrivals before the last ``schedule`` checkpoint, all that learning
    reads; later rows stay zero.  Also holds the remaining capacity, the
    decisions so far, the prices learned so far (``prices_used``) and the
    solved prefix LPs they came from (``solves``), the last of which is the
    next checkpoint's warm start.
    """

    inst: Instance
    schedule: list[tuple[int, float]]
    remaining: np.ndarray
    decisions: list[int] = field(default_factory=list)
    prices_used: list[tuple[int, DualPrice]] = field(default_factory=list)
    solves: list[LpSolution] = field(default_factory=list)

    @classmethod
    def start(cls, m: int, n: int, b, eps: float, mode: str = "dpa") -> "OnlineState":
        """A new stream; m, n and a copy of b are checked exactly as an Instance checks them."""
        # Checked before np.zeros sees them, with the messages Instance gives.
        check_count("row count m", m)
        check_count("arrival count n", n)
        points = schedule(n, eps, mode)
        inst = Instance(m, n, np.array(b, dtype=np.float64), np.zeros(n), np.zeros((n, m)))
        return cls(inst=inst, schedule=points, remaining=inst.b.copy())


def step(state: OnlineState, col: Column) -> tuple[int, OnlineState]:
    """Process one arrival and return (decision, state).

    The state is advanced in place and returned for convenience.  Raises
    TypeError for an arrival that is not a Column, and StreamExhausted once
    n arrivals have been processed.  ``learn_price`` learns from
    ``state.inst`` in the same schedule walk as the batch runs, each
    checkpoint warm-started from ``state.solves``, so folding step over an
    instance's columns reproduces run_ola / run_dpa exactly.
    """
    if not isinstance(col, Column):
        raise TypeError(f"step takes a Column, got {type(col).__name__}")
    inst, t = state.inst, len(state.decisions)
    if t >= inst.n:
        raise StreamExhausted(f"all {inst.n} arrivals already processed")
    if col.a.size != inst.m:
        raise DimensionMismatch(f"column has {col.a.size} rows, state has {inst.m}")
    if t < state.schedule[-1][0]:
        inst.rewards[t] = col.pi
        inst.consumption[t] = col.a
    price = learn_until(t, state.schedule, state.prices_used, state.solves, learn_price, inst)
    decision = 0
    if (price is not None and choose(price.p, (col.pi,), (col.a,)) == 0
            and (col.a <= state.remaining).all()):
        state.remaining -= col.a
        decision = 1
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
    check_eps(eps)
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
        abar = inst.consumption.reshape(n, m, -1).max(axis=(0, 2))
        lhs = float(np.divide(inst.b, abar, out=np.full(m, np.inf), where=abar > 0.0).min())
        # The option count folds into the log term; it is pinned at 1 here.
        rhs = 20.0 * m * math.log(n / eps) / eps**2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ConditionReport(variant, bool(lhs >= rhs), lhs, rhs)
