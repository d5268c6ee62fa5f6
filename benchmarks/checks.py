"""Output checks computed apart from the program.

Nothing here imports ``onlinelp``.  Each check recomputes what it asserts
from the inputs and the program's outputs, with numpy and exact arithmetic
(``fractions.Fraction``, ``math.fsum``), so a fault in the program cannot
hide by being repeated in its own check.

* ``certify_offline``: weak-duality certificate for the offline LP.
* ``referee``: replays every online decision from the logged prices.
* ``check_bench_csv``: properties of the ``onlinelp bench`` CSV.

Data come in the k-option layout of the multi-choice model: rewards (n, k),
consumption (n, m, k), choices (n,) with -1 for a declined arrival.  Scalar
data, rewards (n,) and consumption (n, m), are read as k = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
GAP_RTOL = 1e-7    # largest relative weak-duality gap of a certified offline optimum
FEAS_RTOL = 1e-9   # slack allowed on the fractional offline x: rows, pick-one, value
BENCH_CSV_HEADER = "algo,eps,trial,seed,objective,opt,ratio,violations,runtime_ms"


class CheckError(Exception):
    """An output of the program failed a check."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def as_options(rewards, consumption) -> tuple[np.ndarray, np.ndarray]:
    """Rewards (n, k) and consumption (n, m, k); scalar data become k = 1."""
    f = np.asarray(rewards, dtype=np.float64)
    G = np.asarray(consumption, dtype=np.float64)
    if f.ndim == 1:
        f, G = f[:, None], G[:, :, None]
    _require(f.ndim == 2 and G.ndim == 3 and G.shape[0] == f.shape[0]
             and G.shape[2] == f.shape[1], f"bad shapes {f.shape} and {G.shape}")
    return f, G


def _prices(p, m: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    _require(p.shape == (m,), f"price has shape {p.shape}, expected ({m},)")
    _require(bool(np.all(np.isfinite(p))) and float(p.min()) >= 0.0,
             "prices must be finite and nonnegative")
    return p


def certify_offline(rewards, consumption, b, value: float, x, prices) -> tuple[float, float]:
    """Certify the offline LP optimum by weak duality; return (primal, dual bound).

    For prices p >= 0, D(p) = b.p + sum_t max(0, max_j (f_tj - p.G_tj)) bounds
    every feasible x from above.  The returned x must be feasible (0 <= x <= 1,
    A x <= b, sum_j x_tj <= 1, each up to FEAS_RTOL), its objective must equal
    the returned value, and D(p) may exceed it by at most GAP_RTOL relative.
    Any optimal solver passes, whichever optimal dual it picks.
    """
    f, G = as_options(rewards, consumption)
    n, m, k = G.shape
    b = np.asarray(b, dtype=np.float64)
    p = _prices(prices, m)
    x = np.asarray(x, dtype=np.float64).reshape(n, k)
    _require(bool(np.all(x >= 0.0)) and bool(np.all(x <= 1.0)), "offline x leaves [0, 1]")
    scale_b = max(1.0, float(np.abs(b).max()))
    rows = np.einsum("tik,tk->i", G, x)
    excess = float((rows - b).max())
    _require(excess <= FEAS_RTOL * scale_b, f"offline x exceeds a capacity by {excess:.3e}")
    over = float(x.sum(axis=1).max()) - 1.0
    _require(over <= FEAS_RTOL, f"offline x takes {1.0 + over!r} options of one arrival")
    primal = math.fsum((f * x).ravel().tolist())
    scale = max(1.0, abs(primal))
    _require(abs(float(value) - primal) <= FEAS_RTOL * scale,
             f"offline value {value!r} differs from the objective of x, {primal!r}")
    best = (f - np.einsum("i,tik->tk", p, G)).max(axis=1)
    dual = math.fsum((b * p).tolist()) + math.fsum(np.maximum(best, 0.0).tolist())
    gap = dual - primal
    _require(gap <= GAP_RTOL * scale,
             f"duality gap {gap:.3e} exceeds {GAP_RTOL:g} of the offline value {primal!r}")
    return primal, dual


def schedule(n: int, eps: float, mode: str) -> list[int]:
    """The paper's learning points ceil(2^r * n * eps) < n (OLA: r = 0 only).

    eps is taken as the decimal it prints as (0.05 is 1/20), so the points
    are exact integers with no floating-point rounding.
    """
    e = Fraction(repr(float(eps)))
    if mode == "ola":
        return [math.ceil(n * e)]
    points = []
    for r in itertools.count():
        ell = math.ceil(2**r * n * e)
        if ell >= n:
            return points
        points.append(ell)


@dataclass(frozen=True)
class RefereeReport:
    """What the replay found: deterministic counts for one policy run."""

    checkpoints: int
    arrivals: int
    accepts: int
    guard_rejections: int   # the rule fired but the option did not fit
    tie_decisions: int      # a surplus within rounding of zero or of another option's


def referee(rewards, consumption, b, choices, objective: float, fill,
            prices_used, eps: float, mode: str) -> RefereeReport:
    """Replay every online decision of an OLA/DPA run from its logged prices.

    The paper's rule: arrival t, priced by the last checkpoint ell < t, takes
    the option with the largest surplus f_j - p.G_j if that surplus is
    strictly positive (lowest index on ties), and only if the option fits the
    remaining capacity in every row; otherwise it is declined.  Arrivals in
    the learning window are declined.  Where a surplus lies within rounding
    of zero, or of the best surplus, the program's choice is followed and
    counted as a tie, except that a decline is rejected when every option
    the rule may pick is clearly positive and fits; every other decision is
    asserted.  The fill is
    recomputed by the same sequential subtraction and must match bit for
    bit, with fill <= b and no tolerance; the objective must match an exact
    sum of the chosen rewards up to the rounding of any summation order.
    """
    f, G = as_options(rewards, consumption)
    n, m, k = G.shape
    b = np.asarray(b, dtype=np.float64)
    choices = np.asarray(choices).astype(np.int64).reshape(n)
    _require(bool(np.all((choices >= -1) & (choices < k))), "choice index out of range")
    points = schedule(n, eps, mode)
    logged = [int(ell) for ell, _ in prices_used]
    _require(logged == points, f"checkpoints {logged} differ from ceil(2^r n eps) = {points}")
    _require(bool(np.all(choices[: points[0]] == -1)), "accepted an arrival in the learning window")

    remaining = b.copy()
    accepts = guard_rejections = ties = 0
    for (ell, p), end in zip(prices_used, points[1:] + [n]):
        p = _prices(p, m)
        fs, Gs, prog = f[ell:end], G[ell:end], choices[ell:end]
        surplus = fs - np.einsum("i,tik->tk", p, Gs)
        tol = 16.0 * (m + 1) * UNIT_ROUNDOFF * (
            np.abs(fs) + np.einsum("i,tik->tk", p, np.abs(Gs)))
        possible = surplus > -tol
        declines = ~possible.any(axis=1)
        _require(bool(np.all(prog[declines] == -1)),
                 "accepted an arrival whose reward does not beat its price")
        masked = np.where(possible, surplus, -np.inf)
        top = masked.argmax(axis=1)
        rows = np.arange(top.size)
        best, best_tol = masked[rows, top], tol[rows, top]
        near = possible & (surplus >= (best - best_tol)[:, None] - tol)
        clear = (near.sum(axis=1) == 1) & (best > best_tol)
        for i in np.flatnonzero(~declines).tolist():
            c = int(prog[i])
            if clear[i]:
                j = int(top[i])
                use = Gs[i, :, j]
                if bool(np.all(use <= remaining)):
                    _require(c == j, f"arrival {ell + i + 1}: rule and guard take option {j}, "
                                     f"the program took {c}")
                    remaining -= use
                    accepts += 1
                else:
                    _require(c == -1, f"arrival {ell + i + 1}: option {j} does not fit "
                                      f"but the program took {c}")
                    guard_rejections += 1
                continue
            ties += 1
            if c >= 0:
                _require(bool(near[i, c]), f"arrival {ell + i + 1}: option {c} cannot win the rule")
                use = Gs[i, :, c]
                _require(bool(np.all(use <= remaining)),
                         f"arrival {ell + i + 1}: accepted option {c} does not fit")
                remaining -= use
                accepts += 1
            else:
                # Whichever near option the rule picks, it is clearly positive
                # and fits, so the arrival cannot be declined.
                options = np.flatnonzero(near[i])
                _require(not (bool(np.all(surplus[i, options] > tol[i, options]))
                              and bool(np.all(Gs[i][:, options] <= remaining[:, None]))),
                         f"arrival {ell + i + 1}: declined although every option the rule "
                         f"may pick beats its price and fits")

    fill = np.asarray(fill, dtype=np.float64)
    _require(np.array_equal(fill, b - remaining), "fill differs from the replayed fill")
    _require(bool(np.all(fill <= b)), "fill exceeds a capacity")
    _require(accepts == int((choices >= 0).sum()), "replayed accept count differs")
    taken = np.flatnonzero(choices >= 0)
    chosen = f[taken, choices[taken]].tolist()
    exact = math.fsum(chosen)
    bound = n * UNIT_ROUNDOFF * math.fsum(abs(v) for v in chosen)
    _require(abs(float(objective) - exact) <= bound,
             f"objective {objective!r} differs from the sum of chosen rewards {exact!r}")
    return RefereeReport(len(points), n, accepts, guard_rejections, ties)


def check_bench_csv(text: str, algos, eps_grid, trials: int, base_seed: int,
                    opt_low: float, opt_high: float) -> list[float]:
    """Check the CSV of ``onlinelp bench`` and return its ratio column.

    The header is exact; there is one row per (algo, eps, trial) in that
    order with seed = base_seed + trial; violations are 0; ratio equals
    objective / opt exactly, objective <= opt; runtime_ms is 0 (no
    --timings); and opt lies in the certified interval [opt_low, opt_high].
    """
    _require(text.endswith("\n"), "CSV does not end with a newline")
    lines = text[:-1].split("\n")
    _require(lines[0] == BENCH_CSV_HEADER, f"CSV header is {lines[0]!r}")
    expected = list(itertools.product(algos, eps_grid, range(1, trials + 1)))
    _require(len(lines) - 1 == len(expected),
             f"CSV has {len(lines) - 1} rows, expected {len(expected)}")
    ratios = []
    for line, (algo, eps, trial) in zip(lines[1:], expected):
        row = line.split(",")
        _require(len(row) == 9, f"CSV row {line!r} has {len(row)} fields")
        _require(row[0] == algo and float(row[1]) == eps and int(row[2]) == trial
                 and int(row[3]) == base_seed + trial, f"CSV row {line!r} out of place")
        objective, opt, ratio = float(row[4]), float(row[5]), float(row[6])
        _require(int(row[7]) == 0, f"CSV row {line!r} reports capacity violations")
        _require(row[8] == "0", f"CSV row {line!r} carries a timing")
        _require(ratio == objective / opt, f"CSV row {line!r}: ratio != objective / opt")
        _require(0.0 <= objective <= opt, f"CSV row {line!r}: objective exceeds opt")
        _require(opt_low <= opt <= opt_high,
                 f"CSV opt {opt!r} outside the certified [{opt_low!r}, {opt_high!r}]")
        ratios.append(ratio)
    return ratios
