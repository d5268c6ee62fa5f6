"""Benchmarks, baselines, and verification oracles.

``run_grid`` shuffles an instance R times with consecutive seeds, runs every
(policy, eps) cell of a grid on each shuffle, and aggregates each cell's
ratios against the offline LP optimum.  The optimum is solved once per grid,
since it is permutation invariant, and every (cell, trial) task goes to one
process pool; ``run_trials`` is the grid of one cell.  The two lemma oracles
back the structural claims the policies rest on: the KKT oracle counts
columns where the offline optimum and the price rule disagree (at most m
after reward perturbation), and the sample-OPT oracle averages the prefix
LP's value over shuffles (at most eps times the full optimum in expectation).
``column_sample_solve`` is the offline cousin of one-time learning: price
every column with a dual learned from a random sample.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    decide, dual_price, objective, options, packing_lp, price_rule, run_dpa, run_ola,
    sample_size,
)
from .generators import shuffle
from .lp import perturb_rewards, solve_boxed_lp
from .model import DualPrice, Instance, MultiInstance, RunResult, onehot
from .multi import flatten_lp, run_dpa_multi

__all__ = [
    "TrialRecord",
    "TrialStats",
    "offline_opt",
    "greedy_baseline",
    "run_grid",
    "run_trials",
    "lemma_kkt_oracle",
    "lemma_sample_opt_oracle",
    "ColumnSampleResult",
    "column_sample_solve",
]

ALGORITHMS = ("ola", "dpa", "dpa_multi", "greedy_baseline")


def dispatch(inst: Instance | MultiInstance, algo: str, eps: float) -> RunResult:
    """Run the policy named ``algo``, one of ``ALGORITHMS``, on either instance kind."""
    if algo == "ola":
        return run_ola(inst, eps)
    if algo == "dpa":
        return run_dpa(inst, eps)
    if algo == "dpa_multi":
        return run_dpa_multi(inst, eps)
    if algo == "greedy_baseline":
        return greedy_baseline(inst)
    raise _unknown(algo)


def _unknown(algo: str) -> ValueError:
    return ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")


def offline_opt(inst: Instance | MultiInstance) -> tuple[float, np.ndarray, DualPrice]:
    """Full-information LP optimum: (value, optimal x, row prices).

    For multi-choice instances x comes back with shape (n, k); scalar
    instances get shape (n,).  The LP relaxation allows fractional x, so the
    value upper-bounds every feasible integral allocation.
    """
    sol = solve_boxed_lp(flatten_lp(inst))
    return sol.objective, sol.x.reshape(inst.rewards.shape), dual_price(sol)


def greedy_baseline(inst: Instance | MultiInstance) -> RunResult:
    """First-come allocation with no prices: take whatever still fits.

    Each arrival takes its best-paying option that fits the remaining
    capacity, if any (a scalar arrival: its one column).  A deliberately
    weak yardstick for the priced policies.
    """
    rewards, consumption = options(inst)
    remaining = inst.b.copy()
    choices = np.full(inst.n, -1, dtype=np.int64)
    for t, f in enumerate(rewards.tolist()):
        best, r = -1.0, -1  # rewards are nonnegative: any fitting option beats -1
        for j in range(len(f)):
            if f[j] > best and (consumption[t, j] <= remaining).all():
                best, r = f[j], j
        if r >= 0:
            choices[t] = r
            remaining -= consumption[t, r]
    return RunResult(choices, objective(rewards, choices), inst.b - remaining)


@dataclass(frozen=True)
class TrialRecord:
    """One shuffled run: seed, value, optimum, ratio, violations, wall time."""

    trial: int
    seed: int
    objective: float
    opt: float
    ratio: float
    violations: int
    runtime_ms: float


@dataclass
class TrialStats:
    """One cell of run_grid: per-trial records plus summary statistics."""

    algo: str
    eps: float
    opt: float
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def ratios(self) -> np.ndarray:
        return np.array([r.ratio for r in self.records])

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean()) if self.records else float("nan")

    @property
    def std_ratio(self) -> float:
        return float(self.ratios.std()) if self.records else float("nan")

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.records)


def _one_trial(inst, algo: str, eps: float, trial: int, seed: int, opt: float) -> TrialRecord:
    shuffled = shuffle(inst, seed)
    t0 = time.perf_counter()
    result = dispatch(shuffled, algo, eps)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    violations = int(np.sum(result.fill > shuffled.b))
    ratio = result.objective / opt if opt > 0.0 else 0.0
    return TrialRecord(
        trial=trial, seed=seed, objective=result.objective, opt=opt,
        ratio=ratio, violations=violations, runtime_ms=elapsed_ms,
    )


def run_grid(
    inst: Instance | MultiInstance,
    cells: list[tuple[str, float]],
    trials: int,
    base_seed: int = 0,
    jobs: int = 1,
) -> list[TrialStats]:
    """Run ``trials`` shuffled replays of every (algo, eps) cell; one TrialStats per cell.

    Trial r of every cell shuffles with seed ``base_seed + r`` (r = 1..trials),
    so results are reproducible and the cells compare policies on identical
    arrival orders.  The offline optimum is solved once for the whole grid.
    ``jobs > 1`` runs the (cell, trial) tasks in one pool of up to ``jobs``
    worker processes, never more than there are tasks; each cell's records
    come back in trial order either way.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for algo, _ in cells:
        if algo not in ALGORITHMS:
            raise _unknown(algo)
    opt, _, _ = offline_opt(inst)
    grid = [TrialStats(algo=algo, eps=eps, opt=opt) for algo, eps in cells]
    tasks = [(stats, r, base_seed + r) for stats in grid for r in range(1, trials + 1)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_one_trial, inst, stats.algo, stats.eps, r, seed, opt)
                       for stats, r, seed in tasks]
            try:
                records = [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)  # a failed task ends the grid
                raise
    else:
        records = [_one_trial(inst, stats.algo, stats.eps, r, seed, opt)
                   for stats, r, seed in tasks]
    for (stats, _, _), record in zip(tasks, records):
        stats.records.append(record)
    return grid


def run_trials(
    inst: Instance | MultiInstance,
    algo: str,
    eps: float,
    trials: int,
    base_seed: int = 0,
    jobs: int = 1,
) -> TrialStats:
    """Run ``trials`` shuffled replays of one policy: ``run_grid`` on the one cell (algo, eps)."""
    return run_grid(inst, [(algo, eps)], trials, base_seed, jobs)[0]


def lemma_kkt_oracle(
    inst: Instance | MultiInstance, eta: float | None = None, seed: int = 0
) -> int:
    """Count arrivals where the offline optimum and the price rule disagree.

    Perturbs rewards by Uniform[0, eta) (eta=0 skips perturbation), solves
    the offline LP, prices every column with the optimal duals, and counts
    positions where the rule's 0/1 (or one-hot) decision differs from the
    LP's x by more than 1e-9.  With a generic perturbation the count is at
    most m: only columns priced exactly at their reward, or left fractional
    by the basis, can disagree.
    """
    pert = perturb_rewards(inst, eta, seed)
    _, x, price = offline_opt(pert)
    rewards, consumption = options(pert)
    ruled = onehot(price_rule(price.p, rewards.tolist(), consumption), rewards.shape[1])
    return int(np.sum(np.any(np.abs(x.reshape(ruled.shape) - ruled) > 1e-9, axis=1)))


def lemma_sample_opt_oracle(
    inst: Instance | MultiInstance, eps: float, trials: int, base_seed: int = 0
) -> tuple[float, float]:
    """Mean prefix-LP value over shuffles versus the eps * OPT ceiling.

    Returns (mean over ``trials`` shuffles of the value of the sampled LP on
    the first ceil(n*eps) columns with shrunk capacities, eps * OPT).  The
    expectation of the first term never exceeds the second; the caller
    chooses how much sampling slack to allow on top.  Raises ValueError
    unless 0 < eps < 1 and DegenerateWindow when n*eps < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    s = sample_size(inst.n, eps)
    opt, _, _ = offline_opt(inst)
    values = []
    for r in range(1, trials + 1):
        shuffled = shuffle(inst, base_seed + r)
        values.append(solve_boxed_lp(flatten_lp(shuffled, s, eps)).objective)
    return float(np.mean(values)), eps * opt


@dataclass
class ColumnSampleResult:
    """Outcome of column_sample_solve: integral x plus a feasibility report."""

    x: np.ndarray
    objective: float
    fill: np.ndarray
    guard_rejections: int
    price: DualPrice
    sample_indices: np.ndarray


def column_sample_solve(
    inst: Instance | MultiInstance, eps: float, seed: int = 0
) -> ColumnSampleResult:
    """Approximate the offline LP by pricing all columns with a sampled dual.

    Draws ceil(n*eps) columns without replacement, learns the dual of their
    LP with capacities (1-eps)*(s/n)*b, then walks all n columns in input
    order applying the threshold rule with the exact capacity guard, so the
    output is integral and feasible no matter how rough the dual is.  ``x``
    has the shape of ``inst.rewards``: 0/1 per column, or one one-hot row per
    multi-choice arrival.  ``guard_rejections`` counts columns the rule
    accepted but the guard blocked.
    """
    rng = np.random.default_rng(seed)
    idx = rng.choice(inst.n, size=sample_size(inst.n, eps), replace=False)
    rewards, consumption = options(inst)
    lp = packing_lp(rewards[idx], consumption[idx], inst.b, inst.n, eps)
    price = dual_price(solve_boxed_lp(lp))
    remaining = inst.b.copy()
    choices = np.full(inst.n, -1, dtype=np.int64)
    blocked = decide(price.p, rewards.tolist(), consumption, 0, inst.n, remaining, choices)
    return ColumnSampleResult(
        x=onehot(choices, rewards.shape[1]).astype(np.int8).reshape(inst.rewards.shape),
        objective=objective(rewards, choices),
        fill=inst.b - remaining, guard_rejections=blocked, price=price, sample_indices=idx,
    )
