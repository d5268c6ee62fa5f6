"""Bounded primal simplex for packing LPs with pick-one groups.

Solves

    maximize    c' x
    subject to  A x <= d,   x >= 0,
                x summed over each group <= 1

with ``A`` an (m, s) matrix whose s columns form consecutive groups of
``k``, returning both the optimal primal point and the row prices (dual
multipliers) taken from the final basis.  At k = 1 a group is the box
0 <= x_j <= 1.  Columns of ``A`` may hold arbitrary finite reals; the
intended regime is nonnegative data where ``x = 0`` is feasible, and the
solver requires ``d >= 0`` so the slack basis is a valid start.

Implementation notes, since the details matter for reproducibility:

* The group rows are never written out: they are generalized upper bounds
  (GUB; Dantzig & Van Slyke, J. Comput. Syst. Sci. 1, 1967).  Each group
  keeps one basic "key": its slack whenever the slack is basic, otherwise
  one of its options.  The other m basic variables (options or row slacks)
  form the working basis, in which an option v has the column
  a_v - a_key, so the solver carries an m-by-m inverse however many groups
  there are.  The row prices are y = c_W B^-1, and group t's dual is
  u_t = c_key - y'a_key.
* A key leaving while its group has working members rewrites those
  members' columns, and the basis is refactorized at that point.  At k = 1
  this never happens: an option replacing its group's key is the classic
  bound flip, and a slack key leaving is a basic x reaching 1.  So the
  scalar LP takes the classic bounded-simplex pivots with the same
  arithmetic.
* Variables are ordered: each group's options, then its slack; the row
  slacks last.  Pricing starts with Dantzig's rule (most violating reduced
  cost, earliest variable on ties) and switches to Bland's rule after
  ``_DANTZIG_PIVOTS_PER_VARIABLE * (m + s)`` iterations so termination is
  guaranteed.  In the ratio test the entering variable's own key wins a
  tie (the bound flip), then the earliest variable; this pins down which
  of the degenerate dual solutions is reported, and identical inputs take
  identical pivot paths.
* The basis inverse is maintained explicitly with rank-one pivot updates and
  refactorized from scratch periodically (and once more at termination)
  to keep drift out of the reported solution.
* Before returning, the solver certifies its answer: rows and groups are
  feasible and the duality gap is small.  With rc = c - y'A, group duals
  u_t = max(0, max_j rc_j) and fill_t the sum of group t's x, the gap
  d'y + sum_t u_t - c'x = y'(d - Ax) + sum_t u_t (1 - fill_t) +
  sum_j (u_t - rc_j) x_j is a sum of complementary-slackness (CS) products,
  each >= 0 when y >= 0 and x is feasible: the gap check is the CS check.

The module depends only on numpy and ``errors``, so ``engine`` can build its
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
_KEY = np.int8(3)    # solver state only: the option is its group's key

_FEAS_TOL = 1e-7     # row-violation slop, scaled by max(1, ||d||_inf)
_GAP_TOL = 1e-7      # relative duality-gap tolerance
_PIVOT_TOL = 1e-11   # entries smaller than this (scaled) are treated as zero
_REFACTOR_EVERY = 200
_PIVOTS_PER_VARIABLE = 50  # iteration cap: this many per variable, m + s in all
_DANTZIG_PIVOTS_PER_VARIABLE = 10  # then Bland's rule, which cannot cycle


@dataclass(frozen=True)
class BoxedLp:
    """Problem data: maximize c'x subject to A x <= d, x >= 0, and each
    consecutive group of ``k`` columns summing to at most 1.

    ``A`` and ``d`` hold only the resource rows; at k = 1 every column is
    boxed in [0, 1].
    """

    c: np.ndarray
    A: np.ndarray
    d: np.ndarray
    k: int = 1

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
        k = self.k
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1 or s % k:
            raise DimensionMismatch(f"k={k!r} does not split {s} columns into groups")
        for name, arr in (("c", c), ("A", A), ("d", d)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if d.min() < 0.0:
            raise ValueError("capacities d must be nonnegative")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", int(k))

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]


@dataclass
class LpSolution:
    """Optimal point, row prices, per-column status, objective, and pivot count.

    ``pivots`` counts the bound flips and basis exchanges the solve took.
    """

    x: np.ndarray
    dual: np.ndarray
    reduced_info: np.ndarray
    objective: float
    pivots: int = 0

    def dual_objective(self, lp: BoxedLp) -> float:
        """Value of the dual: d'p plus each group's charge max(0, max_j c_j - p'A_j)."""
        return float(lp.d @ self.dual + _residuals(lp, self)[2].sum())


# The one residual computation: the exit check, dual_objective and
# verify_complementary_slackness all read it, so the certificate the solver
# checks and the report a caller gets cannot drift apart.
def _residuals(lp: BoxedLp, sol: LpSolution):
    """Row slack d - Ax, reduced costs c - p'A, group duals max(0, max_j rc_j), group fill."""
    rc = lp.c - sol.dual @ lp.A
    u = np.maximum(rc.reshape(-1, lp.k).max(axis=1), 0.0)
    return lp.d - lp.A @ sol.x, rc, u, sol.x.reshape(-1, lp.k).sum(axis=1)


def solve_boxed_lp(lp: BoxedLp) -> LpSolution:
    """Solve the grouped LP to optimality.

    Args:
        lp: problem data.

    Returns:
        LpSolution with primal x >= 0 whose groups sum to at most 1, the m
        row prices (nonnegative within tolerance), per-column status, the
        objective and the pivot count.  A column is AT_UPPER when it holds
        its whole group (x = 1).

    Raises:
        CycleLimitExceeded: if no optimum is reached within
            ``_PIVOTS_PER_VARIABLE * (m + s)`` iterations.
        InternalError: if the answer fails its own certificate (a row or
            group violated, or a duality gap).
    """
    m, s, k = lp.num_rows, lp.num_cols, lp.k
    ell, nvar = s // k, s + m
    # Variables 0..s-1 are the options and s..nvar-1 the row slacks, with
    # the columns of A and c below; nvar + t is group t's slack, whose
    # column is zero.
    A = np.hstack([lp.A, np.eye(m)])
    c = np.concatenate([lp.c, np.zeros(m)])

    status = np.full(nvar, AT_LOWER, dtype=np.int8)
    basis = np.arange(s, nvar)
    status[basis] = BASIC
    key = np.full(ell, -1)   # each group's key option, -1 while its slack is key
    binv = np.eye(m)
    xb = lp.d.copy()
    cw = np.zeros(m)         # cost of each working column, c_v - c_key

    pivot_cap = _PIVOTS_PER_VARIABLE * (m + s)
    bland_after = _DANTZIG_PIVOTS_PER_VARIABLE * (m + s)
    cost_scale = max(1.0, float(np.abs(lp.c).max()))
    tol_rc = 1e-9 * cost_scale
    piv_tol = _PIVOT_TOL * max(1.0, float(np.abs(A).max()))

    def rank(v: int) -> int:
        """Place of variable v in the order: each group's options then its slack, row slacks last."""
        if v < s:
            return v + v // k
        return v + ell if v < nvar else (v - nvar + 1) * (k + 1) - 1

    def groups(v):
        """The group of each variable in v, -1 for a row slack."""
        return np.where(v < s, v // k, -1)

    def refactor():
        """Working basis inverse, basic values and column costs, freshly computed."""
        keyed = key[groups(basis)]
        keyed[basis >= s] = -1
        B, cost = A[:, basis], c[basis]
        rows = np.flatnonzero(keyed >= 0)
        if rows.size:
            B[:, rows] -= A[:, keyed[rows]]
            cost[rows] -= c[keyed[rows]]
        try:
            inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise InternalError("basis matrix became singular") from exc
        up = status == _KEY
        rhs = lp.d - A[:, up] @ np.ones(int(up.sum())) if up.any() else lp.d.copy()
        return inv, inv @ rhs, cost

    it = 0
    while True:
        it += 1
        if it > pivot_cap:
            raise CycleLimitExceeded(
                f"no optimum within {pivot_cap} pivots (m={m}, s={s}, k={k})"
            )
        if it % _REFACTOR_EVERY == 0:
            binv, xb, cw = refactor()

        # Reduced costs: an option's net of its group's dual u, and a group
        # slack's -u, which is positive when the key option pays less than
        # nothing at these prices.
        y = cw @ binv
        rc = c - y @ A
        u = np.where(key >= 0, rc[key], 0.0)
        opt_rc = rc[:s].reshape(ell, k)
        opt_rc -= u[:, None]
        if it <= bland_after:
            score = np.where(status == AT_LOWER, rc, -np.inf)
            j = int(np.argmax(score))
            t = int(np.argmin(u))
            if score[j] <= tol_rc and -u[t] <= tol_rc:
                break
            if -u[t] > score[j] or (-u[t] == score[j] and rank(nvar + t) < rank(j)):
                j = nvar + t
        else:
            firsts = [int(np.flatnonzero(e)[0]) + off for e, off in (
                ((status == AT_LOWER) & (rc > tol_rc), 0), (u < -tol_rc, nvar)) if e.any()]
            if not firsts:
                break
            j = min(firsts, key=rank)

        # The entering variable rises from 0.  A group slack pushes its key
        # option down, so the working basis sees that option's column negated.
        if j >= nvar:
            gj = j - nvar
            kj = int(key[gj])
            sigma, col = -1.0, A[:, kj]
        else:
            gj = j // k if j < s else -1
            kj = int(key[gj]) if gj >= 0 else -1
            sigma, col = 1.0, A[:, j] - A[:, kj] if kj >= 0 else A[:, j]
        step_dir = sigma * (binv @ col)

        # Ratio test: basic variables move by -step_dir per unit of t.  A
        # working variable can fall to 0, and so can the key of each group
        # the step touches (a working variable's or the entering one's): the
        # key is 1 minus its group's working members.
        xs, ds = xb.tolist(), step_dir.tolist()
        row_group = groups(basis).tolist()
        falling = {gj: [1.0, 1.0]} if gj >= 0 else {}  # group: [key value, rate of fall]
        for r, g in enumerate(row_group):
            if g >= 0:
                fall = falling.setdefault(g, [1.0, 0.0])
                fall[0] -= xs[r]
                fall[1] -= ds[r]
        # Candidates (t, place in the order, row, group): the smallest t
        # leaves, and on a tie the entering variable's own key, then the
        # earliest variable.  Degeneracy can leave tiny negative ratios,
        # read as 0.
        leaving = [(max(0.0, xs[r] / ds[r]), rank(int(basis[r])), r, -1)
                   for r in range(m) if ds[r] > piv_tol]
        leaving += [(max(0.0, val / rate),
                     -1 if g == gj else rank(int(key[g]) if key[g] >= 0 else nvar + g), -1, g)
                    for g, (val, rate) in falling.items() if rate > piv_tol]
        if not leaving:
            raise InternalError("unbounded improving direction")
        t_step, _, r, g = min(leaving)
        xb -= step_dir * t_step

        if g >= 0 and g == gj:
            # The entering variable replaces its own group's key: the bound flip.
            if kj >= 0:
                status[kj] = AT_LOWER
            key[gj] = j if j < nvar else -1
            if j < nvar:
                status[j] = _KEY
            if gj in row_group:
                binv, xb, cw = refactor()
            continue

        rewrite = False
        if g < 0:
            # A working variable falls to 0 and leaves.
            status[basis[r]] = AT_LOWER
        else:
            # A key falls to 0; a working member of its group becomes key.
            rows = [q for q in range(m) if row_group[q] == g]
            r = rows[0]
            if key[g] >= 0:
                status[key[g]] = AT_LOWER
            key[g] = basis[r]
            status[basis[r]] = _KEY
            rewrite = len(rows) > 1
        if j >= nvar:
            # The group slack becomes key; its old key option takes row r.
            key[gj] = -1
            val, rate = falling[gj]
            enter, value, cost = kj, val - rate * t_step, c[kj]
            rewrite = rewrite or any(row_group[q] == gj for q in range(m) if q != r)
        else:
            enter, value, cost = j, t_step, c[j] - c[kj] if kj >= 0 else c[j]
        basis[r] = enter
        status[enter] = BASIC
        if rewrite:
            binv, xb, cw = refactor()
            continue

        piv = step_dir[r] / sigma
        if abs(piv) <= piv_tol:
            raise InternalError("vanishing pivot element")
        xb[r] = value
        cw[r] = cost

        # Rank-one update of the basis inverse.
        dcol = sigma * step_dir  # = binv @ (column entering row r)
        binv[r, :] /= piv
        other = np.arange(m) != r
        binv[other, :] -= np.outer(dcol[other], binv[r, :])

    # Clean recompute from a fresh factorization for the reported solution.
    binv, xb, cw = refactor()
    y = cw @ binv

    grp = groups(basis)
    opt_rows = grp >= 0
    filled = np.bincount(grp[opt_rows], weights=xb[opt_rows], minlength=ell)
    has_members = np.bincount(grp[opt_rows], minlength=ell) > 0
    keyed = np.flatnonzero(key >= 0)
    full = np.zeros(nvar)
    full[basis] = xb
    full[key[keyed]] = 1.0 - filled[keyed]
    x = np.clip(full[:s], 0.0, 1.0)
    info = status[:s].copy()
    info[key[keyed]] = np.where(has_members[keyed], BASIC, AT_UPPER)

    sol = LpSolution(
        x=x,
        dual=y.copy(),
        reduced_info=info,
        objective=float(lp.c @ x),
        pivots=it - 1,
    )
    slack, _, _, fill = _residuals(lp, sol)
    if -slack.min() > _FEAS_TOL * max(1.0, float(np.abs(lp.d).max())):
        raise InternalError(f"row violation {-slack.min():.3e} after termination")
    if fill.max() - 1.0 > _FEAS_TOL:
        raise InternalError(f"group sum exceeds 1 by {fill.max() - 1.0:.3e} after termination")
    gap = abs(sol.objective - sol.dual_objective(lp))
    if gap > _GAP_TOL * max(abs(sol.objective), cost_scale):
        raise InternalError(
            f"duality gap {gap:.3e} after {sol.pivots} pivots (objective {sol.objective:.6g})"
        )
    return sol


@dataclass(frozen=True)
class CsViolation:
    """One complementary-slackness violation: kind, index, magnitude."""

    kind: str   # "price_slack", "reduced_cost_upper", or "reduced_cost_lower"
    index: int
    amount: float


def verify_complementary_slackness(lp: BoxedLp, sol: LpSolution) -> list[CsViolation]:
    """Check the optimality certificate and report violations.

    With group duals u_t = max(0, max_j rc_j) over group t's reduced costs
    rc = c - p'A, three conditions are checked, each scaled by the data
    magnitude: a positive price on a row with positive slack
    (``price_slack``, by row), a positive u_t on a group that is not full
    (``reduced_cost_upper``, by group), and a positive x_j whose reduced cost
    falls short of its group's u_t (``reduced_cost_lower``, by column).  An
    empty report certifies (x, p) at the relative tolerance ``_GAP_TOL``;
    each amount is a term of the duality gap (module docstring).
    """
    tol_price = _GAP_TOL * max(1.0, float(np.abs(lp.c).max()))
    tol_slack = _GAP_TOL * max(1.0, float(np.abs(lp.d).max()))

    slack, rc, u, fill = _residuals(lp, sol)
    out = [CsViolation("price_slack", i, float(sol.dual[i] * slack[i]))
           for i in np.flatnonzero((sol.dual > tol_price) & (slack > tol_slack)).tolist()]
    # Row t of the grid is group t: its reduced_cost_upper cell, then its
    # columns' reduced_cost_lower cells, so the report reads group by group.
    x, rc = sol.x.reshape(-1, lp.k), rc.reshape(-1, lp.k)
    t, q = np.nonzero(np.hstack([((u > tol_price) & (fill < 1.0 - _GAP_TOL))[:, None],
                                 (rc < (u - tol_price)[:, None]) & (x > _GAP_TOL)]))
    amount = np.hstack([(u * (1.0 - fill))[:, None], (u[:, None] - rc) * x])[t, q]
    return out + [
        CsViolation("reduced_cost_lower", g * lp.k + c - 1, a) if c
        else CsViolation("reduced_cost_upper", g, a)
        for g, c, a in zip(t.tolist(), q.tolist(), amount.tolist())]


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
