"""Dense bounded-variable primal simplex for box-constrained packing LPs.

Solves

    maximize    c' x
    subject to  A x <= d,   0 <= x <= 1

with ``A`` an (m, s) matrix, returning both the optimal primal point and the
row prices (dual multipliers) taken from the final basis.  Columns of ``A``
may hold arbitrary finite reals; the intended regime is nonnegative data
where ``x = 0`` is feasible, and the solver requires ``d >= 0`` so the slack
basis is a valid start.

Implementation notes, since the details matter for reproducibility:

* Variables carry explicit bounds (structurals in [0, 1], slacks in
  [0, inf)).  Nonbasic variables sit at a bound; the ratio test allows a
  "bound flip" where the entering variable crosses its own span without a
  basis exchange.  Ties between a flip and a basis exchange resolve in favor
  of the flip, which pins down which of the degenerate dual solutions is
  reported.
* Pricing starts with Dantzig's rule (most violating reduced cost, lowest
  index on ties) and switches to Bland's rule after ``10 * (m + s)``
  iterations so termination is guaranteed; every choice is deterministic,
  so identical inputs take identical pivot paths.
* The basis inverse is maintained explicitly with rank-one pivot updates and
  refactorized from scratch periodically (and once more at termination)
  to keep drift out of the reported solution.

The module depends only on numpy and ``errors``, so ``_core`` can build its
LPs on ``BoxedLp``.  ``perturb_rewards`` copies either instance kind with
``dataclasses.replace`` rather than naming the classes of ``model``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import CycleLimitExceeded, DimensionMismatch, InternalError

if TYPE_CHECKING:
    from .model import Instance, MultiInstance

__all__ = [
    "AT_LOWER",
    "BASIC",
    "AT_UPPER",
    "BoxedLp",
    "LpSolution",
    "CsViolation",
    "solve_boxed_lp",
    "verify_complementary_slackness",
    "perturb_rewards",
    "perturb_rewards_multi",
]

# Per-column classification codes in LpSolution.reduced_info.
AT_LOWER = np.int8(0)
BASIC = np.int8(1)
AT_UPPER = np.int8(2)

_FEAS_TOL = 1e-7     # row-violation slop, scaled by max(1, ||d||_inf)
_GAP_TOL = 1e-7      # relative duality-gap tolerance
_PIVOT_TOL = 1e-11   # entries smaller than this (scaled) are treated as zero
_REFACTOR_EVERY = 200


@dataclass(frozen=True)
class BoxedLp:
    """Problem data: maximize c'x subject to A x <= d, 0 <= x <= 1."""

    c: np.ndarray
    A: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        A = np.asarray(self.A, dtype=np.float64)
        d = np.atleast_1d(np.asarray(self.d, dtype=np.float64))
        if A.ndim != 2:
            raise DimensionMismatch(f"A must be a matrix, got shape {A.shape}")
        m, s = A.shape
        if c.shape != (s,):
            raise DimensionMismatch(f"c has shape {c.shape}, A has {s} columns")
        if d.shape != (m,):
            raise DimensionMismatch(f"d has shape {d.shape}, A has {m} rows")
        if m < 1 or s < 1:
            raise DimensionMismatch("need at least one row and one column")
        for name, arr in (("c", c), ("A", A), ("d", d)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if d.min() < 0.0:
            raise ValueError("capacities d must be nonnegative")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]


@dataclass
class LpSolution:
    """Optimal point, row prices, per-column status, and objective value."""

    x: np.ndarray
    dual: np.ndarray
    reduced_info: np.ndarray
    objective: float

    def dual_objective(self, lp: BoxedLp) -> float:
        """Value of the dual: d'p plus the upper-bound charges max(0, c_j - p'A_j)."""
        rc = lp.c - self.dual @ lp.A
        return float(lp.d @ self.dual + np.maximum(rc, 0.0).sum())


def solve_boxed_lp(lp: BoxedLp, pivot_cap: int | None = None) -> LpSolution:
    """Solve the boxed LP to optimality.

    Args:
        lp: problem data.
        pivot_cap: iteration cap; defaults to 50 * (m + s).  Exceeding it
            raises CycleLimitExceeded.

    Returns:
        LpSolution with primal x in [0, 1]^s, nonnegative-within-tolerance
        row prices, per-column bound classification, and the objective.
    """
    m, s = lp.num_rows, lp.num_cols
    nvar = s + m
    A = np.hstack([lp.A, np.eye(m)])
    c = np.concatenate([lp.c, np.zeros(m)])
    upper = np.concatenate([np.ones(s), np.full(m, np.inf)])

    status = np.full(nvar, AT_LOWER, dtype=np.int8)
    basis = np.arange(s, nvar)
    status[basis] = BASIC
    binv = np.eye(m)
    xb = lp.d.copy()

    if pivot_cap is None:
        pivot_cap = 50 * (m + s)
    bland_after = 10 * (m + s)
    cost_scale = max(1.0, float(np.abs(lp.c).max()))
    tol_rc = 1e-9 * cost_scale
    piv_tol = _PIVOT_TOL * max(1.0, float(np.abs(A).max()))

    def recompute_xb():
        up = status == AT_UPPER
        rhs = lp.d - A[:, up] @ upper[up] if up.any() else lp.d.copy()
        return binv @ rhs

    it = 0
    while True:
        it += 1
        if it > pivot_cap:
            raise CycleLimitExceeded(
                f"no optimum within {pivot_cap} pivots (m={m}, s={s})"
            )
        if it % _REFACTOR_EVERY == 0:
            try:
                binv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError as exc:
                raise InternalError("basis matrix became singular") from exc
            xb = recompute_xb()

        y = c[basis] @ binv
        rc = c - y @ A
        elig_low = (status == AT_LOWER) & (rc > tol_rc)
        elig_up = (status == AT_UPPER) & (rc < -tol_rc)
        if not (elig_low.any() or elig_up.any()):
            break

        if it <= bland_after:
            score = np.where(elig_low, rc, np.where(elig_up, -rc, -np.inf))
            j = int(np.argmax(score))
        else:
            j = int(np.flatnonzero(elig_low | elig_up)[0])

        sigma = 1.0 if status[j] == AT_LOWER else -1.0
        step_dir = sigma * (binv @ A[:, j])

        # Ratio test: basic variables move by -step_dir per unit of t.
        ratios = np.full(m, np.inf)
        dec = step_dir > piv_tol            # basic heads toward its lower bound 0
        inc = step_dir < -piv_tol           # basic heads toward its upper bound
        if dec.any():
            ratios[dec] = xb[dec] / step_dir[dec]
        ub_b = upper[basis]
        inc &= np.isfinite(ub_b)
        if inc.any():
            ratios[inc] = (ub_b[inc] - xb[inc]) / (-step_dir[inc])
        np.maximum(ratios, 0.0, out=ratios)  # degeneracy can leave tiny negatives
        t_basic = float(ratios.min()) if m else np.inf
        span = upper[j]  # lower bounds are all zero, so the span is the upper bound

        if span <= t_basic:
            if not np.isfinite(span):
                raise InternalError("unbounded improving direction")
            xb -= step_dir * span
            status[j] = AT_UPPER if status[j] == AT_LOWER else AT_LOWER
            continue
        if not np.isfinite(t_basic):
            raise InternalError("unbounded improving direction")

        tie_rows = np.flatnonzero(ratios <= t_basic)
        r = int(tie_rows[np.argmin(basis[tie_rows])])
        piv = step_dir[r] / sigma
        if abs(piv) <= piv_tol:
            raise InternalError("vanishing pivot element")

        leaving = int(basis[r])
        leaves_to_upper = step_dir[r] < 0.0
        xb -= step_dir * t_basic
        enter_from = 0.0 if status[j] == AT_LOWER else upper[j]
        xb[r] = enter_from + sigma * t_basic

        # Rank-one update of the basis inverse.
        dcol = sigma * step_dir  # = binv @ A[:, j]
        binv[r, :] /= piv
        other = np.arange(m) != r
        binv[other, :] -= np.outer(dcol[other], binv[r, :])

        basis[r] = j
        status[j] = BASIC
        status[leaving] = AT_UPPER if leaves_to_upper else AT_LOWER

    # Clean recompute from a fresh factorization for the reported solution.
    try:
        binv = np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError as exc:
        raise InternalError("basis matrix became singular") from exc
    xb = recompute_xb()
    y = c[basis] @ binv

    full = np.where(status == AT_UPPER, upper, 0.0)
    full[basis] = xb
    x = np.clip(full[:s], 0.0, 1.0)

    worst = float((lp.A @ x - lp.d).max())
    if worst > _FEAS_TOL * max(1.0, float(np.abs(lp.d).max())):
        raise InternalError(f"row violation {worst:.3e} after termination")

    objective = float(lp.c @ x)
    return LpSolution(
        x=x,
        dual=y.copy(),
        reduced_info=status[:s].copy(),
        objective=objective,
    )


@dataclass(frozen=True)
class CsViolation:
    """One complementary-slackness violation: kind, index, magnitude."""

    kind: str   # "price_slack", "reduced_cost_upper", or "reduced_cost_lower"
    index: int
    amount: float


def verify_complementary_slackness(lp: BoxedLp, sol: LpSolution) -> list[CsViolation]:
    """Check the optimality certificate and report violations.

    Three conditions are checked, each scaled by the data magnitude:
    a positive price on a row with positive slack, a positive reduced cost
    on a column not at its upper bound, and a negative reduced cost on a
    column not at its lower bound.  An empty report means (x, p) form a
    certified optimal pair at the relative tolerance ``_GAP_TOL``.
    """
    tol_price = _GAP_TOL * max(1.0, float(np.abs(lp.c).max()))
    tol_slack = _GAP_TOL * max(1.0, float(np.abs(lp.d).max()))

    out: list[CsViolation] = []
    slack = lp.d - lp.A @ sol.x
    for i in range(lp.num_rows):
        if sol.dual[i] > tol_price and slack[i] > tol_slack:
            out.append(CsViolation("price_slack", i, float(sol.dual[i] * slack[i])))
    rc = lp.c - sol.dual @ lp.A
    for j in range(lp.num_cols):
        if rc[j] > tol_price and sol.x[j] < 1.0 - _GAP_TOL:
            out.append(CsViolation("reduced_cost_upper", j, float(rc[j] * (1.0 - sol.x[j]))))
        elif rc[j] < -tol_price and sol.x[j] > _GAP_TOL:
            out.append(CsViolation("reduced_cost_lower", j, float(-rc[j] * sol.x[j])))
    return out


def perturb_rewards(
    inst: Instance | MultiInstance, eta: float | None = None, seed: int = 0
) -> Instance | MultiInstance:
    """Add independent Uniform[0, eta) noise to every reward (every option's).

    Breaks reward ties so that, with probability one, at most m columns sit
    exactly on the price hyperplane of any fixed dual vector.  ``eta=None``
    picks 1e-9 times the largest reward; ``eta=0`` returns an unmodified
    copy.  Deterministic for a fixed seed.
    """
    rewards = inst.rewards
    if eta is None:
        eta = 1e-9 * (float(rewards.max()) if rewards.size else 0.0)
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if eta == 0.0:
        rewards, eta = rewards.copy(), 0.0
    else:
        rewards = rewards + np.random.default_rng(seed).uniform(0.0, eta, size=rewards.shape)
    meta = dict(inst.meta or {})
    meta["perturbation"] = {"eta": eta, "seed": seed}
    return replace(
        inst, b=inst.b.copy(), rewards=rewards, consumption=inst.consumption.copy(), meta=meta
    )


# The multi-choice name, kept for callers: perturb_rewards takes either kind.
perturb_rewards_multi = perturb_rewards
