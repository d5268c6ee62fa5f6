#!/usr/bin/env python3
"""One sha256 over the solver's answers and the policies' decisions on a fixed set.

    PYTHONPATH=src python tools/solver_digest.py

A refactor that must not change any answer prints the same digest before and
after.  The digest covers x, dual, stats and basis of

* 400 seeded random grouped LPs (m <= 5, k <= 3, at most 30 groups, half of
  them on a coarse grid so that ties and degeneracy are common), each solved
  from y = 0 and then used as the warm start of the same LP with one more
  group and larger capacities;
* the offline LPs of routing m in {1, 2, 5} x n in {500, 3000} (q = 0.5,
  capacity n/10), adwords m in {3, 10, 20} x n in {400, 1000} and secretary
  n=2000 k=100, seeds 0-2;

and, on each of those instances after shuffle 1, the prices and choices of
``run_dpa`` and ``run_ola`` at eps 0.05, 0.1 and 0.2, the choices, objective
and fill of ``greedy_baseline``, and the x, objective, guard rejections, fill
and price of ``column_sample_solve(inst, 0.1, seed=1)``.  A solve or run that
raises ends the script with its traceback instead of a digest.  It takes a few
seconds.
"""

from __future__ import annotations

import hashlib

import numpy as np

from onlinelp.engine import run_dpa, run_ola, sample_lp
from onlinelp.generators import GenSpec, generate, shuffle
from onlinelp.harness import column_sample_solve, greedy_baseline
from onlinelp.lp import BoxedLp, solve_boxed_lp


def instances():
    """The offline instances: routing, adwords and secretary, seeds 0-2."""
    for seed in range(3):
        for m in (1, 2, 5):
            for n in (500, 3000):
                yield GenSpec("routing", seed, dict(m=m, n=n, q=0.5, capacity=n / 10))
        for m in (3, 10, 20):
            for n in (400, 1000):
                yield GenSpec("adwords", seed, dict(n=n, m=m))
        yield GenSpec("secretary", seed, dict(n=2000, k=100))


def random_lps(seed):
    """A grouped LP and the same LP with one more group and larger capacities."""
    rng = np.random.default_rng(seed)
    m, k, ell = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 30))
    s = (ell + 1) * k
    if seed % 2:  # a coarse grid: ties in rewards, columns and capacities
        c, A = rng.integers(0, 5, s) / 4.0, rng.integers(0, 3, (m, s)) / 2.0
        d = rng.integers(0, ell + 1, m) / 2.0
    else:
        c, A = rng.uniform(0.0, 1.0, s), rng.uniform(0.0, 1.0, (m, s))
        d = rng.uniform(0.0, ell / 2, m)
    return BoxedLp(c[:ell * k], A[:, :ell * k], d, k), BoxedLp(c, A, d * (ell + 1) / ell, k)


def feed(h, *arrays):
    """Hash each array's dtype, shape and bytes."""
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def solve(h, lp, start=None):
    """Solve from ``start`` and hash x, dual, stats and basis."""
    sol = solve_boxed_lp(lp, start)
    st = sol.stats
    feed(h, sol.x, sol.dual, np.array([st.iterations, st.flips, st.refactorizations]),
         np.array([st.max_residual, st.gap]), *sol.basis)
    return sol


def run(h, policy, inst, eps):
    """Run the policy and hash its choices and each (checkpoint, price)."""
    result = policy(inst, eps)
    feed(h, result.choices)
    for ell, price in result.prices_used:
        feed(h, np.array([ell]), price.p)


def main() -> None:
    h, lps, runs = hashlib.sha256(), 0, 0
    for seed in range(400):
        small, large = random_lps(seed)
        solve(h, large, solve(h, small))
        lps += 2
    for spec in instances():
        inst = generate(spec)
        solve(h, sample_lp(inst))
        lps += 1
        inst = shuffle(inst, 1)
        for eps in (0.05, 0.1, 0.2):
            for policy in (run_dpa, run_ola):
                run(h, policy, inst, eps)
                runs += 1
        greedy = greedy_baseline(inst)
        feed(h, greedy.choices, np.array([greedy.objective]), greedy.fill)
        sampled = column_sample_solve(inst, 0.1, seed=1)
        feed(h, sampled.x, np.array([sampled.objective, sampled.guard_rejections]),
             sampled.fill, sampled.price.p)
        runs += 2
    print(f"sha256 {h.hexdigest()} over {lps} LPs and {runs} runs")


if __name__ == "__main__":
    main()
