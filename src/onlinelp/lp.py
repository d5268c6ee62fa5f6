"""Bounded dual simplex for packing LPs with pick-one groups.

Solves

    maximize    c' x
    subject to  A x <= d,   x >= 0,
                x summed over each group <= 1

with ``A`` an (m, s) matrix whose s columns form consecutive groups of
``k``, returning both the optimal primal point and the row prices (dual
multipliers) taken from the final basis.  At k = 1 a group is the box
0 <= x_j <= 1.  Columns of ``A`` may hold arbitrary finite reals; the
intended regime is nonnegative data where ``x = 0`` is feasible, and the
solver requires ``d >= 0``.

Implementation notes, since the details matter for reproducibility:

* The dual is m-dimensional: minimize d'y + sum_t max(0, max_j (c_j -
  y'a_j)) over y >= 0, one term per group.  The solver is a dual simplex:
  every basis it visits is dual feasible, and each iteration repairs one
  primal infeasibility, so the iteration count grows with m rather than
  with the number of columns.
* The group rows are never written out: they are generalized upper bounds
  (GUB; Dantzig & Van Slyke, J. Comput. Syst. Sci. 1, 1967).  Each group
  keeps one basic "key", one of its options or its slack.  The other m
  basic variables (options, group slacks or row slacks) form the working
  basis, in which a grouped variable v has the column a_v - a_key (a
  group slack's own column is zero), so the solver carries an m-by-m
  inverse however many groups there are.  The row prices are
  y = c_W B^-1, and group t's dual is u_t = c_key - y'a_key.
* Start: a final basis (``LpSolution.basis``) of an LP whose groups this
  LP's extend, such as the previous DPA checkpoint's prefix LP, or else the
  empty prefix: the row slacks as the working basis and y = 0.  The basis
  fixes y; every group the start does not know takes as key its best
  option of positive reduced cost (the earliest on ties) or, if none pays,
  its slack.  Only the capacities d and the new groups differ from the
  start's LP, so the basis stays dual feasible and the dual simplex
  repairs the primal side (Koberstein, PhD thesis 2005).  From the empty
  prefix every reduced cost is <= 0.  A start is replaced by the empty
  prefix when its basis is singular, when more than m new groups have
  their top line tied within ``_DUAL_TOL`` (a dual-degenerate start: on
  plain adwords every new group ties, and warm DPA runs there took 13%
  more iterations than cold ones over a 32-run sweep), or when one pricing
  pass finds a reduced cost above ``_DUAL_TOL``.  ``LpSolution.basis``
  numbers the row slacks -1-i, so an LP with more groups reads every
  number unchanged.
* Leaving: the most negative basic value below 0 (a key's is 1 minus its
  group's working sum), the earliest on ties.  Weighted by the rows of
  B^-1 (DSE; Forrest & Goldfarb 1992), the choice stalled or failed on 4
  of 128 plain adwords solves and DPA runs with 5 to 50 bidders, where raw
  values finish all.  A key that leaves first trades places with a working
  member of its group, which changes one row of the inverse.
* Long step (the bound-flipping ratio test; Maros, EJOR 2003; Koberstein,
  PhD thesis 2005): along the leaving row's dual ray the objective is
  convex and piecewise linear.  Each group contributes the upper envelope
  of its lines, one per nonbasic option or slack; one sort orders the
  breakpoints, one cumulative sum gives the slope after each, and the
  step passes every breakpoint while the slope stays negative.  Passing a
  breakpoint changes the group's key, which at k = 1 is a bound flip of
  the option between 0 and 1.  A row slack, or a variable whose group has
  a working member, cannot be passed: its first breakpoint ends the step.
  The breakpoint where the step ends enters the working basis.  Reduced
  costs within ``_DUAL_TOL`` of zero count as zero, so that rounding does
  not order the ties of a degenerate LP.
* Ties follow one order, the variables' numbering: each group's options,
  then its slack; the row slacks last.  It breaks ties in the start's
  keys, in the leaving choice and among breakpoints at one crossing point
  (after the rule that blocked breakpoints come last and, within a group,
  the steeper line first).  From the empty prefix y starts at 0, and each
  long step stops at the first breakpoint where the slope reaches 0, so
  prices rise only as far as feasibility forces: at m = 1 the solver
  returns the smallest optimal price (unit columns paying 4, 3, 2, 1 under
  capacity 1 are priced at 3, the reward of the best column left out,
  although any price in [3, 4] is optimal).  A warm start begins at its
  own prices, so where the optimal price is not unique it may end at
  another one.
* The long step is the one pivoting rule; a run of zero dual steps on a
  dual-degenerate LP (a stall) is bounded only by the iteration cap.
* The basis inverse is maintained explicitly with rank-one pivot updates and
  refactorized from scratch periodically (and once more at termination)
  to keep drift out of the reported solution.
* Before returning, the solver certifies its answer: rows and groups are
  feasible and the duality gap is small, a non-finite gap or residual
  counting as a failure.  The row prices lose their roundoff negatives
  (about -1e-16) first, so the certificate is that of the nonnegative
  prices returned.  With rc = c - y'A, group duals
  u_t = max(0, max_j rc_j) and fill_t the sum of group t's x, the gap
  d'y + sum_t u_t - c'x = y'(d - Ax) + sum_t u_t (1 - fill_t) +
  sum_j (u_t - rc_j) x_j is a sum of complementary-slackness (CS) products,
  each >= 0 when y >= 0 and x is feasible: the gap check is the CS check.
  ``LpSolution.stats`` reports the iterations, flips, refactorizations,
  largest primal residual and gap, and every solver error carries them.

The module depends only on numpy, ``errors`` and ``model`` (which imports
only ``errors``), so ``engine`` can build its LPs on ``BoxedLp``.
``perturb_rewards`` checks its seed with ``model.check_seed`` and copies
either instance kind with ``dataclasses.replace``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import CycleLimitExceeded, DimensionMismatch, InternalError
from .model import Instance, MultiInstance, check_seed

__all__ = [
    "BoxedLp",
    "LpSolution",
    "SolveStats",
    "CsViolation",
    "solve_boxed_lp",
    "verify_complementary_slackness",
    "perturb_rewards",
]

_FEAS_TOL = 1e-7     # row-violation slop, scaled by max(1, ||d||_inf)
_GAP_TOL = 1e-7      # relative duality-gap tolerance
_PRIMAL_TOL = 1e-9   # basic values below -this leave (a row slack's scaled by max(1, ||d||_inf))
_DUAL_TOL = 1e-12    # reduced costs within this of 0 (scaled by max(1, max |c|)) count as 0
_PIVOT_TOL = 1e-11   # entries smaller than this (scaled) are treated as zero
_REFACTOR_EVERY = 200
_ITERATIONS_PER_VARIABLE = 50  # iteration cap: this many per variable, m + s in all


@dataclass(frozen=True)
class BoxedLp:
    """Problem data: maximize c'x subject to A x <= d, x >= 0, and each
    consecutive group of ``k`` columns summing to at most 1.

    ``A`` and ``d`` hold only the resource rows; at k = 1 every column is
    boxed in [0, 1].  Data whose objective or row activity can overflow
    (``sum |c|`` or a row's ``sum |A|`` is not finite) is rejected.
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
        with np.errstate(over="ignore"):
            if not (np.isfinite(np.abs(c).sum()) and np.isfinite(np.abs(A).sum(axis=1)).all()):
                raise ValueError("c or a row of A overflows when summed; rescale the data")
        if d.min() < 0.0:
            raise ValueError("capacities d must be nonnegative")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", int(k))


@dataclass(frozen=True)
class SolveStats:
    """What one solve did.

    ``iterations`` counts basis exchanges, one per iteration, and ``flips``
    the bound flips passed in long steps.  ``max_residual`` is the returned
    x's largest row violation or group excess (0 when feasible) and ``gap``
    the absolute duality gap; both are NaN in the message of an error
    raised before the solve reached its certificate.
    """

    iterations: int
    flips: int
    refactorizations: int
    max_residual: float
    gap: float

    def __str__(self) -> str:
        return (f"{self.iterations} iterations, {self.flips} flips, "
                f"{self.refactorizations} refactorizations, "
                f"residual {self.max_residual:.3e}, gap {self.gap:.3e}")


@dataclass
class LpSolution:
    """Optimal point, nonnegative row prices, objective and solve stats, certified as returned.

    ``basis`` is the final basis, the start ``solve_boxed_lp`` takes: the m
    working variables and each group's key.  Group t's option j is variable
    t*(k+1) + j and its slack t*(k+1) + k, and row i's slack is -1-i, so an
    LP whose groups extend these groups reads the numbers unchanged.
    """

    x: np.ndarray
    dual: np.ndarray
    objective: float
    stats: SolveStats
    basis: tuple[np.ndarray, np.ndarray]

    def dual_objective(self, lp: BoxedLp) -> float:
        """Value of the dual: d'p plus each group's charge max(0, max_j c_j - p'A_j)."""
        return _dual_bound(lp, self.dual, _residuals(lp, self.x, self.dual)[2])


# The one residual computation and the one dual bound: the exit check,
# dual_objective and verify_complementary_slackness all read them, so the
# certificate the solver checks and the report a caller gets cannot drift apart.
def _residuals(lp: BoxedLp, x: np.ndarray, dual: np.ndarray):
    """Row slack d - Ax, reduced costs c - p'A, group duals max(0, max_j rc_j), group fill."""
    rc = lp.c - dual @ lp.A
    u = np.maximum(rc.reshape(-1, lp.k).max(axis=1), 0.0)
    return lp.d - lp.A @ x, rc, u, x.reshape(-1, lp.k).sum(axis=1)


def _dual_bound(lp: BoxedLp, dual: np.ndarray, u: np.ndarray) -> float:
    """d'p + sum_t u_t: the dual objective at prices p whose group duals are u."""
    return float(lp.d @ dual + u.sum())


def solve_boxed_lp(lp: BoxedLp, start: LpSolution | None = None) -> LpSolution:
    """Solve the grouped LP to optimality.

    Args:
        lp: problem data.
        start: the solution of an LP with the same m and k whose groups are
            the first groups of ``lp`` (the columns may carry other data);
            its final basis is where the solve starts, when it passes the
            start's checks (module docstring).  None starts from y = 0.

    Returns:
        LpSolution with primal x >= 0 whose groups sum to at most 1, the m
        nonnegative row prices, the objective and the solve stats; the
        certificate checks exactly this x and these prices.

    Raises:
        DimensionMismatch: if ``start`` has another m or k, or more groups.
        CycleLimitExceeded: if no optimum is reached within
            ``_ITERATIONS_PER_VARIABLE * (m + s)`` iterations.
        InternalError: if the answer fails its own certificate (a row or
            group violated, or a duality gap that is large or not finite).
    """
    (m, s), k = lp.A.shape, lp.k
    ell, width = s // k, k + 1
    grouped = ell * width
    nvar = grouped + m
    # Variables are numbered in the tie order: group t's options are
    # t*width .. t*width + k - 1 and its slack (a zero column) t*width + k;
    # row i's slack is grouped + i.  gid[v] is v's group, or ell + i for row
    # slack i, which is in none.  keys[t] is group t's key, and keys[ell + i]
    # the zero column k, so that every working column is
    # A[:, v] - A[:, keys[gid[v]]].
    option = np.arange(s) + np.arange(s) // k  # each column's variable
    A, c = np.zeros((m, nvar)), np.zeros(nvar)
    A[:, option], c[option] = lp.A, lp.c
    A[:, grouped:] = np.eye(m)
    gid = np.concatenate([np.arange(grouped) // width, np.arange(ell, ell + m)])
    dscale = max(1.0, float(np.abs(lp.d).max()))
    row_tol = _PRIMAL_TOL * dscale  # a row slack's primal tolerance; 1 is every other's scale

    cap = _ITERATIONS_PER_VARIABLE * (m + s)
    piv_tol = _PIVOT_TOL * max(1.0, float(np.abs(lp.A).max()))
    cost_scale = max(1.0, float(np.abs(lp.c).max()))
    dual_tol = _DUAL_TOL * cost_scale
    it = flips = refactors = 0

    def fail(exc, message, residual=np.nan, gap=np.nan):
        return exc(f"{message} (m={m}, s={s}, k={k}; "
                   f"{SolveStats(it, flips, refactors, residual, gap)})")

    def colsum(cols):
        return A.take(cols, axis=1).sum(axis=1)

    def invert():
        """Working basis inverse and column costs, or None when the basis is singular."""
        ref = keys[gid[basis]]
        try:
            return np.linalg.inv(A.take(basis, axis=1) - A.take(ref, axis=1)), c[basis] - c[ref]
        except np.linalg.LinAlgError:
            return None

    def refactor():
        """Working basis inverse, basic values and column costs, freshly computed."""
        nonlocal refactors
        refactors += 1
        fresh = invert()
        if fresh is None:
            raise fail(InternalError, "basis matrix became singular")
        inv, cw = fresh
        return inv, inv @ (lp.d - colsum(key)), cw

    # The start (module docstring): the given start, then the empty prefix,
    # which always passes.  Groups the start does not know are keyed by
    # their reduced costs; a start whose new groups tie in more than m
    # places, or that one pricing pass finds dual infeasible, is dropped.
    keys = np.full(ell + m, k)
    key = keys[:ell]
    starts = [(np.arange(grouped, nvar), keys[:0])]
    if start is not None:
        starts.insert(0, _start_basis(start, m, k, ell, grouped))
    for basis, known in starts:
        key[:known.size] = known
        fresh = invert()
        if fresh is None:
            continue
        binv, cw = fresh
        rc = c - (cw @ binv) @ A
        new = rc[known.size * width:grouped].reshape(-1, width)[:, :k]
        best = new.max(axis=1)
        key[known.size:] = (np.arange(known.size * width, grouped, width)
                            + np.where(best > 0.0, new.argmax(axis=1), k))
        free = np.ones(nvar, dtype=bool)  # nonbasic: neither working nor a key
        free[basis] = free[key] = False
        if not known.size:
            break
        top = np.maximum(best, 0.0) - dual_tol
        ties = np.count_nonzero((new >= top[:, None]).sum(axis=1) + (top <= 0.0) > 1)
        rc -= rc.take(keys[gid])
        if ties <= m and not (rc[free] > dual_tol).any():
            break
    xb = binv @ (lp.d - colsum(key))
    row_slacks = np.arange(ell + m) >= ell
    prices = np.empty((2, m))
    while True:
        # Primal values, in Python since there are about m of them: each
        # working variable, and each key whose group has working members, at
        # 1 minus their sum (any other key sits at 1).  An entry is (value,
        # variable, its row, and for a key its group's rows).
        xs, members, bad = xb.tolist(), {}, []
        for i, (v, x) in enumerate(zip(basis.tolist(), xs)):
            if v < grouped:
                members.setdefault(v // width, []).append(i)
            if x < -(row_tol if v >= grouped else _PRIMAL_TOL):
                bad.append((x, v, i, None))
        for t, rows in members.items():
            x = 1.0 - sum(xs[i] for i in rows)
            if x < -_PRIMAL_TOL:
                bad.append((x, int(key[t]), rows[0], rows))
        if not bad:
            break
        if it >= cap:
            raise fail(CycleLimitExceeded, f"no optimum within {cap} iterations")
        it += 1
        # Leaving: the most negative value, the earliest on ties (entries
        # start with (value, variable), and no two share a variable).
        x, v, r, rows = min(bad)
        if rows is not None:
            # A key leaves.  A working member of its group becomes key and the
            # old key takes that member's row: every working column of the
            # group shifts by the same vector, so the inverse changes in that
            # row alone, to minus the sum of the group's rows.
            binv[r] = -binv[rows].sum(axis=0)
            shift = cw[r]
            cw[rows] -= shift
            cw[r] = -shift
            xb[r] = x
            basis[r], key[v // width] = v, basis[r]
        need = -x - (row_tol if v >= grouped else _PRIMAL_TOL)

        # Row r of B^-1 [A | I] and the reduced costs, both net of the key of
        # each variable's group.  Entering j moves x_r by rise_j per unit, so
        # x_r < 0 rises only on rise_j > 0.
        np.dot(cw, binv, out=prices[0])
        np.negative(binv[r], out=prices[1])
        both = prices @ A
        np.subtract(c, both[0], out=both[0])
        both -= both.take(keys[gid], axis=1)
        rc, rise = both
        cand = ((rise > piv_tol) & free).nonzero()[0]
        drop, rise = rc[cand], rise[cand]
        drop[drop > -dual_tol] = 0.0  # so rounding does not order degenerate ties

        # Long step.  Along the ray the dual objective is convex and
        # piecewise linear with slope x_r < 0 at the start.  A group's
        # share is the upper envelope of its lines rc_j + theta*rise_j
        # (the key's is 0), and passing one of its breakpoints makes that
        # line the group's key (at k = 1, a flip between an option and its
        # slack) and raises the slope by the steepness gained.  A row
        # slack, or a variable of a group with working members, cannot be
        # passed: its first breakpoint ends the step.  The leaving variable
        # v's group is free when v is its only working member, since v's
        # column leaves the basis with it.
        groups = gid[cand]
        blocked = row_slacks.copy()
        blocked[[t for t, ws in members.items() if len(ws) > 1 or t != v // width]] = True
        step = (_long_step(cand, groups, keys, drop, rise, blocked, k, piv_tol, need)
                if cand.size else None)
        if step is None:
            raise fail(InternalError, f"no entering variable repairs row {r}")
        passed, before, q = step
        if passed.size:
            # Each group's key becomes the last line it passed.
            xb -= binv @ (colsum(passed) - colsum(before))
            free[passed] = False
            free[before] = True
            last = passed[~free[passed]]
            key[gid[last]] = last
            flips += passed.size

        # Exchange: q enters row r.
        ref = int(keys[gid[q]])
        dcol = binv @ (A[:, q] - A[:, ref])
        piv = float(dcol[r])
        if abs(piv) <= piv_tol:
            raise fail(InternalError, "vanishing pivot element")
        step = xb[r] / piv
        xb -= step * dcol
        xb[r] = step
        free[basis[r]], free[q] = True, False
        cw[r] = c[q] - c[ref]
        basis[r] = q
        row = binv[r] / piv
        binv -= np.outer(dcol, row)
        binv[r] = row
        if it % _REFACTOR_EVERY == 0:
            binv, xb, cw = refactor()

    # Clean recompute from a fresh factorization for the reported solution;
    # the prices lose their roundoff negatives before the certificate, so it
    # certifies the vector returned.
    binv, xb, cw = refactor()
    full, working = np.zeros(nvar), basis < grouped
    full[basis] = xb
    full[key] = 1.0 - np.bincount(basis[working] // width, weights=xb[working], minlength=ell)
    x, dual = full[option].clip(0.0, 1.0), np.maximum(cw @ binv, 0.0)
    objective = float(lp.c @ x)
    slack, _, u, fill = _residuals(lp, x, dual)
    violation, excess = -slack.min(), fill.max() - 1.0
    residual = float(np.max([0.0, violation, excess]))
    gap = abs(objective - _dual_bound(lp, dual, u))
    if not violation <= _FEAS_TOL * dscale:
        raise fail(InternalError, f"row violation {violation:.3e} after termination", residual, gap)
    if not excess <= _FEAS_TOL:
        raise fail(InternalError, f"group sum exceeds 1 by {excess:.3e} after termination",
                   residual, gap)
    if not gap <= _GAP_TOL * max(abs(objective), cost_scale):
        raise fail(InternalError, f"duality gap {gap:.3e} (objective {objective:.6g})",
                   residual, gap)
    working = np.where(basis < grouped, basis, grouped - 1 - basis)
    return LpSolution(x, dual, objective, SolveStats(it, flips, refactors, residual, gap),
                      (working, key.copy()))


def _start_basis(start: LpSolution, m: int, k: int, ell: int, grouped: int):
    """The start's working variables in this LP's numbering, and its groups' keys."""
    working, keys = start.basis
    if start.dual.size != m or start.x.size != keys.size * k or keys.size > ell:
        raise DimensionMismatch(
            f"the start has {start.dual.size} rows and {start.x.size} columns in "
            f"{keys.size} groups; the LP has {m} rows and {ell} groups of {k}")
    return np.where(working < 0, grouped - 1 - working, working), keys


def _long_step(cand, groups, keys, drop, rise, blocked, k, tol, need):
    """The long step along a dual ray: the breakpoints it passes and the one it ends at.

    Candidate j is the line ``drop[j] + theta * rise[j]`` (``drop`` <= 0,
    ``rise`` > 0) in group ``groups[j]``, whose key ``keys[groups[j]]`` has
    the line 0; ``cand`` is ascending, so each group's candidates are
    adjacent and in tie order.  The breakpoints are those of each group's
    upper envelope, kept in one record of lines: variable, line replaced,
    crossing point, gain, blocked.  At k = 1 every candidate is a
    breakpoint.  Otherwise, round by round, each group's next envelope line
    is the one that crosses its current line first (the steepest on ties,
    then the earliest); a blocked group stops after its first.  Each
    envelope line is at least as steep as the one before, so later rounds
    look only at lines that cross before the first round's step ends.

    Returns the passed variables, the lines they replace and the variable
    that enters, or None when no breakpoint ends the step.
    """
    cross, late = -drop / rise, blocked[groups]
    lines = cand, keys[groups], cross, rise, late
    if k > 1:
        at, run = _first_crossings(groups, cross, rise)
        lines = tuple(part[at] for part in lines)
    order, p = _passing_order(*lines[2:], need)
    # Later rounds: lines of unblocked groups, steeper than their group's
    # first line, that cross their key before the first round's step ends.
    if k > 1 and at.size < cand.size:  # some group has more than one line
        bound = lines[2][order[p]] if p < order.size else np.inf
        live = ~late & (rise > lines[3][run] + tol) & (cross <= bound)
        if live.any():
            lines = _later_rounds(lines, live, at, cand, groups, drop, rise, blocked, k,
                                  tol, bound)
            order, p = _passing_order(*lines[2:], need)
    if p == order.size:
        return None
    head = order[:p + 1]
    var = lines[0][head]
    return var[:p], lines[1][head[:p]], int(var[p])


def _later_rounds(lines, live, at, cand, groups, drop, rise, blocked, k, tol, bound):
    """The first round's breakpoints with the later rounds' appended.

    ``lines`` holds the first round (variable, line replaced, crossing point,
    gain, blocked), ``at`` its positions among the candidates and ``live``
    the candidates that may still join an envelope before ``bound``.
    """
    found = [lines]
    g = groups[at]
    top = np.zeros((3, blocked.size))  # each group's current line: drop, rise, start
    top[:, g] = drop[at], rise[at], lines[2]
    line = np.zeros(blocked.size, dtype=np.int64)
    line[g] = lines[0]
    for _ in range(k - 1):
        idx = live.nonzero()[0]
        g = groups[idx]
        cross = np.maximum((top[0, g] - drop[idx]) / (rise[idx] - top[1, g]), top[2, g])
        near = (cross <= bound).nonzero()[0]  # the others cross past the step's end
        if not near.size:
            break
        idx, g, cross = idx[near], g[near], cross[near]
        first = _first_crossings(g, cross, rise[idx])[0]
        idx, g, cross = idx[first], g[first], cross[first]
        found.append((cand[idx], line[g], cross, rise[idx] - top[1, g], blocked[g]))
        top[:, g], line[g] = (drop[idx], rise[idx], cross), cand[idx]
        live &= rise > top[1, groups] + tol
        if not live.any():
            break
    return tuple(np.concatenate(part) for part in zip(*found))


def _passing_order(cross, gain, late, need):
    """The breakpoints' passing order and the position in it of the one that ends the step.

    The order is by crossing point, the blocked (``late``) last on ties,
    then as given.  The step ends at the first breakpoint whose cumulative
    gain reaches ``need``, or at the first blocked one; the position is the
    number of breakpoints when neither comes.
    """
    order = np.lexsort((late, cross))
    p = int(gain[order].cumsum().searchsorted(need))
    hit = late[order]
    first = int(hit.argmax())
    return order, min(p, first) if hit[first] else p


def _first_crossings(groups, cross, rise):
    """Each run of equal ``groups``' smallest crossing, the steepest on ties, then the first.

    Returns the positions of those crossings and each entry's run.
    """
    change = np.empty(groups.size, dtype=bool)
    change[0] = True
    np.not_equal(groups[1:], groups[:-1], out=change[1:])
    start, run = change.nonzero()[0], change.cumsum() - 1
    low = cross == np.minimum.reduceat(cross, start)[run]
    if np.count_nonzero(low) == start.size:  # no run has a tie
        return low.nonzero()[0], run
    steep = np.where(low, rise, -np.inf)
    first = np.where(steep == np.maximum.reduceat(steep, start)[run], np.arange(groups.size),
                     groups.size)
    return np.minimum.reduceat(first, start), run


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

    slack, rc, u, fill = _residuals(lp, sol.x, sol.dual)
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
    picks 1e-9 times the largest reward; ``eta=0`` adds zero noise, so the
    rewards come back equal.  Deterministic for a fixed seed, an integer >= 0.
    """
    check_seed("seed", seed)
    rewards = inst.rewards
    if eta is None:
        eta = 1e-9 * (float(rewards.max()) if rewards.size else 0.0)
    if isinstance(eta, bool) or not isinstance(eta, numbers.Real):  # np.bool_ is no Real either
        raise ValueError(f"eta must be a number, not a {type(eta).__name__}, got {eta!r}")
    if not 0.0 <= eta < np.inf:  # NaN fails it too
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")
    rewards = rewards + np.random.default_rng(seed).uniform(0.0, eta, size=rewards.shape)
    meta = dict(inst.meta or {})
    meta["perturbation"] = {"eta": abs(float(eta)), "seed": int(seed)}
    return replace(
        inst, b=inst.b.copy(), rewards=rewards, consumption=inst.consumption.copy(), meta=meta
    )


# Benchmark-only: the multi-choice name of perturb_rewards, which takes either
# instance kind.
perturb_rewards_multi = perturb_rewards
