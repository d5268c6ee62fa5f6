"""Private helpers shared by the package's modules.

The policy loop lives here.  ``schedule`` lists the checkpoints at which
prices are learned and the capacity shrink of each, ``learn_until`` walks
that list up to an arrival and returns the price that governs it, and
``decide`` applies the price rule and the capacity guard to a range of
arrivals under one price; ``run_epochs`` is the batch walk and
``engine.step`` the one-arrival walk.  ``packing_lp`` builds every LP the
package solves (prefix, offline and sampled) and ``dual_price`` reads the
row prices off its solution.  All of them read the k-option view of
``options``, in which a scalar instance is a multi-choice one with k = 1.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import DegenerateWindow
from .lp import BoxedLp
from .model import DualPrice, RunResult, onehot


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
