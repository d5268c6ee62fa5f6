"""Brute-force reference optimum for small boxed LPs.

Used by the solver tests: max c'x over A x <= d, 0 <= x <= 1 attains its
optimum at a vertex, and every vertex pins each column at a bound except for
a "free" set F matched by an equally sized set T of tight rows with
A[T, F] nonsingular.  Sweeping all (F, T) pairs and all bound patterns of
the pinned columns is exponential, but exact — fine for m <= 3, s <= 6.
``cs_report_loop`` is the complementary-slackness report written as plain
loops, the reference for ``verify_complementary_slackness``, and
``decide_loop`` is the price rule and capacity guard one arrival at a time,
the reference for ``engine.decide``.
"""

import itertools

import numpy as np

from onlinelp import CsViolation


def enumerate_boxed_opt(c, A, d, tol=1e-9) -> float:
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    m, s = A.shape
    best = -np.inf
    for j in range(0, min(m, s) + 1):
        for free in itertools.combinations(range(s), j):
            pinned = [q for q in range(s) if q not in free]
            if pinned:
                patterns = np.array(
                    list(itertools.product((0.0, 1.0), repeat=len(pinned)))
                )
            else:
                patterns = np.zeros((1, 0))
            for tight in itertools.combinations(range(m), j):
                if j:
                    square = A[np.ix_(tight, free)]
                    rhs = d[list(tight)][:, None]
                    if pinned:
                        rhs = rhs - A[np.ix_(tight, pinned)] @ patterns.T
                    else:
                        rhs = np.repeat(rhs, patterns.shape[0], axis=1)
                    try:
                        x_free = np.linalg.solve(square, rhs)
                    except np.linalg.LinAlgError:
                        continue
                else:
                    x_free = np.zeros((0, patterns.shape[0]))
                candidates = np.empty((patterns.shape[0], s))
                if pinned:
                    candidates[:, pinned] = patterns
                candidates[:, list(free)] = x_free.T
                ok = (candidates >= -tol).all(axis=1)
                ok &= (candidates <= 1.0 + tol).all(axis=1)
                ok &= (A @ candidates.T <= d[:, None] + tol).all(axis=0)
                if ok.any():
                    best = max(best, float((candidates[ok] @ c).max()))
    return best


def random_boxed_lp(seed: int):
    """A seeded small LP with deliberate degeneracy: exact 0/1 entries, ties."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    s = int(rng.integers(1, 7))
    A = rng.uniform(0.0, 1.0, (m, s))
    spike = rng.random((m, s)) < 0.15
    A[spike] = rng.integers(0, 2, int(spike.sum())).astype(np.float64)
    c = rng.uniform(0.0, 2.0, s)
    c[rng.random(s) < 0.1] = 0.0
    d = rng.uniform(0.0, 3.0, m)
    return c, A, d


def random_grouped_lp(seed: int):
    """A seeded LP whose columns form groups of k = 2..4, as (c, A, d, k).

    Seeds cycle through six cases: plain data, duplicated options, all-zero
    columns, a zero-capacity row, more rows than groups, and rewards spread
    over twelve orders of magnitude (the range ``heavy_tail`` produces).
    """
    rng = np.random.default_rng(seed)
    case = seed % 6
    k = int(rng.integers(2, 5))
    ell = int(rng.integers(1, 4)) if case == 4 else int(rng.integers(1, 25))
    m = ell + int(rng.integers(1, 4)) if case == 4 else int(rng.integers(1, 6))
    s = ell * k
    A = rng.uniform(0.0, 1.0, (m, s))
    A[rng.random((m, s)) < 0.2] = 0.0
    A[rng.random((m, s)) < 0.1] = 1.0
    c = rng.uniform(0.0, 2.0, s)
    d = rng.uniform(0.0, 0.4 * ell, m)
    if case == 1:
        for _ in range(max(1, s // 3)):
            src, dst = rng.integers(0, s, 2)
            A[:, dst], c[dst] = A[:, src], c[src]
    elif case == 2:
        A[:, rng.random(s) < 0.3] = 0.0
    elif case == 3:
        d[rng.integers(0, m)] = 0.0
    elif case == 5:
        c *= 10.0 ** rng.integers(0, 13, s)
    return c, A, d, k


def explicit_groups(c, A, d, k):
    """The same LP as (c, A, d) for k = 1, with one pick-one row per group written out."""
    ell = A.shape[1] // k
    return c, np.vstack([A, np.kron(np.eye(ell), np.ones((1, k)))]), np.concatenate([d, np.ones(ell)])


def cs_report_loop(lp, sol, tol=1e-7):
    """Reference complementary-slackness report, one Python loop per row, group and column.

    The entries, amounts and order ``lp.verify_complementary_slackness``
    must reproduce: ``price_slack`` by row, then each group's
    ``reduced_cost_upper`` before its columns' ``reduced_cost_lower``.  The
    residuals are computed here from the problem data, not by the solver.
    """
    tol_price = tol * max(1.0, float(np.abs(lp.c).max()))
    tol_slack = tol * max(1.0, float(np.abs(lp.d).max()))
    out = []
    slack = lp.d - lp.A @ sol.x
    for i in range(lp.A.shape[0]):
        if sol.dual[i] > tol_price and slack[i] > tol_slack:
            out.append(CsViolation("price_slack", i, float(sol.dual[i] * slack[i])))
    rc = lp.c - sol.dual @ lp.A
    u = np.maximum(rc.reshape(-1, lp.k).max(axis=1), 0.0)
    fill = sol.x.reshape(-1, lp.k).sum(axis=1)
    for t in range(u.size):
        if u[t] > tol_price and fill[t] < 1.0 - tol:
            out.append(CsViolation("reduced_cost_upper", t, float(u[t] * (1.0 - fill[t]))))
        for j in range(t * lp.k, (t + 1) * lp.k):
            if rc[j] < u[t] - tol_price and sol.x[j] > tol:
                out.append(CsViolation("reduced_cost_lower", j, float((u[t] - rc[j]) * sol.x[j])))
    return out


def decide_loop(p, rewards, consumption, lo, hi, remaining, choices):
    """Reference decide loop: ``engine.decide``'s contract, one arrival and one option at a time.

    Arguments, effects and return value are ``decide``'s.  Each surplus is
    one dot product on the option's contiguous row, and the guard subtracts
    one accepted column at a time.
    """
    k = consumption.shape[1]
    rejected = 0
    for t in range(lo, hi):
        f = rewards[t]
        best, r, a = 0.0, -1, None
        for j in range(k):
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
