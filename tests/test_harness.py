from concurrent.futures import Executor, Future

import numpy as np
import pytest

from onlinelp import harness
from onlinelp import (
    DegenerateWindow,
    Instance,
    column_sample_solve,
    gen_routing,
    gen_secretary,
    generate,
    GenSpec,
    RunResult,
    greedy_baseline,
    lemma_kkt_oracle,
    lemma_sample_opt_oracle,
    offline_opt,
    run_grid,
    run_trials,
    sample_lp,
    shuffle,
    solve_boxed_lp,
)


def routing(seed=0, m=3, n=120, capacity=12.0):
    return gen_routing(m=m, n=n, q=0.5, capacity=capacity, seed=seed)


class TestOfflineOpt:
    def test_secretary_opt_is_topk_sum(self):
        inst = gen_secretary(n=100, k=10, seed=1)
        opt, x, price = offline_opt(inst)
        assert opt == pytest.approx(np.sort(inst.rewards)[-10:].sum())
        assert price.p[0] > 0.0

    def test_single_column_box_bound(self):
        inst = Instance(m=1, n=1, b=np.array([1.0]),
                        rewards=np.array([2.0]),
                        consumption=np.array([[0.5]]))
        opt, x, _ = offline_opt(inst)
        assert opt == pytest.approx(2.0)
        assert x[0] == pytest.approx(1.0)

    def test_permutation_invariant(self):
        inst = routing(seed=4)
        opt, _, _ = offline_opt(inst)
        for seed in (1, 2, 3):
            opt_s, _, _ = offline_opt(shuffle(inst, seed))
            assert opt_s == pytest.approx(opt, rel=1e-10)

    def test_price_is_the_solvers_dual(self):
        """The row prices come back as the solver certified them, bit for bit."""
        for inst in (routing(seed=2), generate(GenSpec("adwords", 3, dict(n=120, m=3)))):
            sol = solve_boxed_lp(sample_lp(inst))
            assert offline_opt(inst)[2].p.tobytes() == sol.dual.tobytes()

    def test_multi_shape(self):
        inst = generate(GenSpec(kind="adwords", seed=2, params={"n": 30, "m": 2}))
        opt, x, price = offline_opt(inst)
        assert x.shape == (30, 2)
        assert price.p.shape == (2,)
        assert opt > 0.0


class TestGreedyBaseline:
    def test_takes_everything_when_capacity_ample(self):
        inst = routing(capacity=1000.0)
        res = greedy_baseline(inst)
        assert res.accepted == inst.n
        assert res.objective == pytest.approx(inst.rewards.sum())

    def test_never_violates(self):
        for seed in range(5):
            inst = routing(seed=seed, capacity=6.0)
            res = greedy_baseline(inst)
            assert np.all(res.fill <= inst.b + 1e-12)

    def test_multi_takes_best_fitting_option(self):
        inst = generate(GenSpec(kind="adwords", seed=3, params={"n": 25, "m": 2}))
        res = greedy_baseline(inst)
        assert np.all(res.fill <= inst.b)
        taken = res.choices >= 0
        assert res.objective == pytest.approx(
            inst.rewards[np.flatnonzero(taken), res.choices[taken]].sum()
        )


def inline_pool(monkeypatch, cpus=8) -> list[int]:
    """Replace the process pool by one that runs each task inline; returns the sizes asked for.

    The usable CPU count is pinned to ``cpus``, so the sizes hold on any machine.
    """
    sizes = []
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)

    class InlinePool(Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestRunTrials:
    def test_single_trial_stats_collapse(self):
        stats = run_trials(routing(), "dpa", 0.15, trials=1, base_seed=5)
        assert len(stats.records) == 1
        r = stats.records[0]
        assert stats.mean_ratio == pytest.approx(r.ratio)
        assert r.seed == 6  # base_seed + trial index
        assert r.opt == pytest.approx(stats.opt)

    def test_ratios_bounded_by_opt(self):
        stats = run_trials(routing(seed=2), "dpa", 0.1, trials=8)
        assert np.all(stats.ratios <= 1.0 + 1e-7)
        assert np.all(stats.ratios >= 0.0)
        assert stats.violations == 0

    def test_deterministic_given_seed(self):
        a = run_trials(routing(), "ola", 0.2, trials=4, base_seed=9)
        b = run_trials(routing(), "ola", 0.2, trials=4, base_seed=9)
        assert [r.objective for r in a.records] == [r.objective for r in b.records]

    def test_parallel_equals_serial(self):
        inst = routing(seed=7, n=60)
        serial = run_trials(inst, "dpa", 0.2, trials=4, base_seed=1, jobs=1)
        parallel = run_trials(inst, "dpa", 0.2, trials=4, base_seed=1, jobs=2)
        key = lambda recs: [(r.trial, r.seed, r.objective, r.ratio, r.violations)
                            for r in recs]
        assert key(serial.records) == key(parallel.records)

    def test_pool_never_larger_than_trials(self, monkeypatch):
        sizes = inline_pool(monkeypatch)
        stats = run_trials(routing(n=60), "ola", 0.2, trials=3, jobs=64)
        assert sizes == [3]
        assert [r.trial for r in stats.records] == [1, 2, 3]

    def test_greedy_works_on_both_kinds(self):
        scalar = run_trials(routing(), "greedy_baseline", 0.1, trials=2)
        assert scalar.violations == 0
        multi_inst = generate(GenSpec(kind="adwords", seed=1, params={"n": 20, "m": 2}))
        multi = run_trials(multi_inst, "greedy_baseline", 0.1, trials=2)
        assert multi.violations == 0

    @pytest.mark.parametrize("kind", ["routing", "adwords"])
    def test_every_algorithm_runs_on_either_kind(self, kind):
        inst = routing() if kind == "routing" else generate(
            GenSpec(kind="adwords", seed=1, params={"n": 120, "m": 3}))
        runs = {algo: harness.dispatch(inst, algo, 0.1) for algo in harness.ALGORITHMS}
        for res in runs.values():
            assert res.choices.shape == (inst.n,)
            assert np.all(res.fill <= inst.b)
        assert runs["dpa"].choices.tobytes() == runs["dpa_multi"].choices.tobytes()
        assert runs["dpa"].objective == runs["dpa_multi"].objective

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            run_trials(routing(), "magic", 0.1, trials=1)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_trials(routing(), "dpa", 0.1, trials=0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_must_be_positive(self, jobs):
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            run_trials(routing(), "dpa", 0.1, trials=1, jobs=jobs)

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_counts_must_be_integers(self, count):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            run_trials(routing(), "ola", 0.1, count)
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            run_trials(routing(), "ola", 0.1, trials=1, jobs=count)


class TestRunGrid:
    CELLS = [("ola", 0.2), ("dpa", 0.1), ("greedy_baseline", 0.1)]

    @staticmethod
    def key(stats):
        return (stats.algo, stats.eps, stats.opt,
                [(r.trial, r.seed, r.objective, r.opt, r.ratio, r.violations)
                 for r in stats.records])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_equal_their_own_run_trials(self, jobs):
        inst = routing(seed=5, n=80, capacity=10.0)
        grid = run_grid(inst, self.CELLS, trials=3, base_seed=11, jobs=jobs)
        alone = [run_trials(inst, algo, eps, trials=3, base_seed=11) for algo, eps in self.CELLS]
        assert [self.key(s) for s in grid] == [self.key(s) for s in alone]

    @pytest.mark.parametrize("jobs, cpus, size", [  # ids read jobs-size
        pytest.param(2, 8, 2, id="2-2"),
        pytest.param(4, 8, 4, id="4-4"),
        pytest.param(64, 8, 6, id="64-6"),
        pytest.param(64, 2, 2, id="64-2"),
    ])
    def test_one_pool_for_the_whole_grid(self, monkeypatch, jobs, cpus, size):
        sizes = inline_pool(monkeypatch, cpus)
        grid = run_grid(routing(n=60), self.CELLS[:2], trials=3, jobs=jobs)
        assert sizes == [size]  # min(jobs, cells * trials, cpus)
        assert [[r.trial for r in s.records] for s in grid] == [[1, 2, 3], [1, 2, 3]]

    def test_bad_grid_fails_before_solving(self, monkeypatch):
        monkeypatch.setattr(harness, "offline_opt", None)  # calling it would raise TypeError
        with pytest.raises(ValueError, match="unknown algorithm 'magic'"):
            run_grid(routing(), [("ola", 0.1), ("magic", 0.1)], trials=1)
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            run_grid(routing(), self.CELLS, trials=0)
        for count in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                run_grid(routing(), self.CELLS, trials=count)
            with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
                run_grid(routing(), self.CELLS, trials=1, jobs=count)
        with pytest.raises(ValueError, match="eps must be in"):
            run_grid(routing(), [("dpa", 1.5)], trials=2)
        with pytest.raises(ValueError, match="eps must be in"):
            run_grid(routing(), [("greedy_baseline", 7.0)], trials=2)
        for seed in (-5, 1.5, True):
            with pytest.raises(ValueError, match=f"base_seed must be an integer >= 0, got {seed}"):
                run_grid(routing(), self.CELLS, trials=1, base_seed=seed)
            with pytest.raises(ValueError, match=f"base_seed must be an integer >= 0, got {seed}"):
                lemma_sample_opt_oracle(routing(), 0.1, trials=1, base_seed=seed)

    def test_a_failing_task_fails_the_grid(self):
        # n * eps = 0.06 < 1: every dpa trial raises in its worker
        with pytest.raises(DegenerateWindow):
            run_grid(routing(n=60), [("ola", 0.2), ("dpa", 0.001)], trials=2, jobs=2)

    def test_empty_grid(self):
        assert run_grid(routing(), [], trials=2, jobs=2) == []


def test_every_algorithm_returns_a_run_result():
    scalar = routing()
    multi_inst = generate(GenSpec(kind="adwords", seed=1, params={"n": 40, "m": 2}))
    for algo in harness.ALGORITHMS:
        inst = multi_inst if algo == "dpa_multi" else scalar
        res = harness.dispatch(inst, algo, 0.1)
        assert type(res) is RunResult
        assert res.choices.dtype == np.int64 and res.choices.shape == (inst.n,)
    assert type(harness.dispatch(multi_inst, "greedy_baseline", 0.1)) is RunResult


class TestLemmaKkt:
    def test_perturbed_instances_disagree_on_at_most_m(self):
        for seed in range(10):
            inst = routing(seed=seed, n=80, capacity=10.0)
            assert lemma_kkt_oracle(inst, seed=seed) <= inst.m

    def test_degenerate_ties_without_perturbation_exceed_m(self):
        # Identical unit columns make the dual price ambiguous; with eta=0
        # the rule must disagree with the fractional offline pattern on far
        # more than m columns — the perturbation is what restores Lemma 2.
        inst = Instance(m=1, n=6, b=np.array([3.0]),
                        rewards=np.ones(6), consumption=np.ones((6, 1)))
        assert lemma_kkt_oracle(inst, eta=0.0) > inst.m

    def test_multi_instance_supported(self):
        # Adwords consumption is proportional to rewards, so at the optimal
        # dual every column's surplus lives at the perturbation scale; eta
        # must dominate the solver's optimality tolerance for the comparison
        # to mean anything.  At eta = 1e-4 the bound is tight.
        inst = generate(GenSpec(kind="adwords", seed=5, params={"n": 40, "m": 2}))
        for seed in range(4):
            assert lemma_kkt_oracle(inst, eta=1e-4, seed=seed) <= inst.m

    def test_validation(self):
        for seed in (True, 1.5, -1):
            with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
                lemma_kkt_oracle(routing(n=40), seed=seed)


class TestLemmaSampleOpt:
    def test_mean_sample_value_below_scaled_opt(self):
        inst = routing(seed=3, n=400, capacity=30.0)
        mean, bound = lemma_sample_opt_oracle(inst, 0.1, trials=20, base_seed=2)
        # Lemma bound holds in expectation; allow sampling slack at R=20
        assert mean <= bound * (1.0 + 3.0 / np.sqrt(20))

    def test_returns_pair(self):
        inst = routing(n=100, capacity=10.0)
        mean, bound = lemma_sample_opt_oracle(inst, 0.2, trials=3)
        opt, _, _ = offline_opt(inst)
        assert bound == pytest.approx(0.2 * opt)
        assert mean >= 0.0

    def test_validation(self):
        # the same window check as column_sample_solve and run_ola
        inst = routing(n=100)
        with pytest.raises(DegenerateWindow):
            lemma_sample_opt_oracle(inst, 0.001, trials=1)  # n*eps = 0.1
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="eps must be in"):
                lemma_sample_opt_oracle(inst, eps, trials=1)
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            lemma_sample_opt_oracle(inst, 0.1, trials=0)
        for count in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                lemma_sample_opt_oracle(inst, 0.1, trials=count)


class TestColumnSampling:
    def test_feasible_and_integral(self):
        inst = routing(seed=6, n=300, capacity=20.0)
        res = column_sample_solve(inst, 0.15, seed=1)
        assert np.isin(res.x, [0, 1]).all()
        assert np.all(res.fill <= inst.b)
        assert res.objective == pytest.approx(inst.rewards @ res.x)

    def test_sample_size_and_indices(self):
        inst = routing(n=200)
        res = column_sample_solve(inst, 0.1, seed=4)
        assert res.sample_indices.shape == (20,)
        assert len(set(res.sample_indices.tolist())) == 20

    def test_guard_rejections_account_for_every_rule_accept(self):
        # capacity 1, every column consumes 0.6: at most one fits, so any
        # further column passing the price rule must be guard-blocked
        inst = Instance(m=1, n=10, b=np.array([1.0]),
                        rewards=np.linspace(1.0, 2.0, 10),
                        consumption=np.full((10, 1), 0.6))
        res = column_sample_solve(inst, 0.3, seed=0)
        assert res.x.sum() <= 1
        rule_accepts = sum(
            1 for t in range(inst.n)
            if inst.rewards[t] > float(res.price.p @ inst.consumption[t])
        )
        assert res.guard_rejections == rule_accepts - int(res.x.sum())

    def test_eps_near_one_samples_everything(self):
        inst = routing(n=40, capacity=8.0)
        res = column_sample_solve(inst, 0.99, seed=2)
        assert res.sample_indices.shape == (40,)

    def test_scalar_x_is_one_flag_per_column(self):
        inst = routing(seed=3, n=150)
        res = column_sample_solve(inst, 0.2, seed=1)
        assert res.x.shape == (150,) and res.x.dtype == np.int8

    def test_multi_x_is_one_hot_per_arrival(self):
        inst = generate(GenSpec("adwords", 1, dict(n=60, m=3)))
        res = column_sample_solve(inst, 0.2, seed=1)
        assert res.x.shape == inst.rewards.shape == (60, 3)
        assert np.isin(res.x, [0, 1]).all() and res.x.sum(axis=1).max() <= 1
        assert res.objective == pytest.approx(float((inst.rewards * res.x).sum()))
        np.testing.assert_allclose(res.fill, np.einsum("tik,tk->i", inst.consumption, res.x))
        assert np.all(res.fill <= inst.b)

    def test_deterministic_in_seed(self):
        inst = routing(seed=8, n=150)
        a = column_sample_solve(inst, 0.2, seed=3)
        b = column_sample_solve(inst, 0.2, seed=3)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective

    def test_validation(self):
        inst = routing(n=50)
        for eps in (0.0, -0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="eps must be in"):
                column_sample_solve(inst, eps)
        with pytest.raises(DegenerateWindow):
            column_sample_solve(routing(n=5), 0.1)
        for seed in (True, 1.5, -1):
            with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
                column_sample_solve(inst, 0.2, seed=seed)
