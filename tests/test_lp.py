"""Solver tests: hand cases, duality, statuses, and the enumeration oracle."""

from dataclasses import replace

import numpy as np
import pytest

from onlinelp import (
    BoxedLp,
    CsViolation,
    CycleLimitExceeded,
    DimensionMismatch,
    GenSpec,
    Instance,
    InternalError,
    generate,
    perturb_rewards,
    sample_lp,
    solve_boxed_lp,
    verify_complementary_slackness,
)
from onlinelp import lp as lp_module
from onlinelp.lp import AT_LOWER, AT_UPPER, BASIC

from _oracles import (
    cs_report_loop,
    enumerate_boxed_opt,
    explicit_groups,
    random_boxed_lp,
    random_grouped_lp,
)


def _lp(c, A, d):
    return BoxedLp(c=np.asarray(c, float), A=np.asarray(A, float),
                   d=np.asarray(d, float))


def test_capacity_binds_single_column():
    sol = solve_boxed_lp(_lp([1.0], [[1.0]], [0.5]))
    assert sol.x[0] == pytest.approx(0.5)
    assert sol.dual[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(0.5)


def test_box_binds_single_column():
    sol = solve_boxed_lp(_lp([1.0], [[1.0]], [2.0]))
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.dual[0] == pytest.approx(0.0)
    assert sol.objective == pytest.approx(1.0)


def test_fractional_vertex_prices_marginal_column():
    # Capacity 1.5 takes all of the best column and half of the next; the
    # dual price equals the reward of the fractional (basic) column.
    sol = solve_boxed_lp(_lp([4.0, 3.0, 2.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.5]))
    np.testing.assert_allclose(sol.x, [1.0, 0.5, 0.0, 0.0], atol=1e-12)
    assert sol.dual[0] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(5.5)


def test_zero_capacity_row_forces_zero():
    sol = solve_boxed_lp(_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0]))
    assert sol.x[0] == pytest.approx(0.0)
    assert sol.x[1] == pytest.approx(1.0)


def test_oracle_agrees_on_hand_cases():
    assert enumerate_boxed_opt([1.0], [[1.0]], [0.5]) == pytest.approx(0.5)
    assert enumerate_boxed_opt(
        [4.0, 3.0, 2.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.5]
    ) == pytest.approx(5.5)
    # two rows, interior vertex: x = (0.5, 0.5) worth 2*0.5 + 0.5
    assert enumerate_boxed_opt(
        [2.0, 1.0], [[1.0, 0.0], [1.0, 1.0]], [0.5, 1.0]
    ) == pytest.approx(1.5)


def test_matches_enumeration_on_random_instances():
    for seed in range(60):
        c, A, d = random_boxed_lp(seed)
        sol = solve_boxed_lp(BoxedLp(c=c, A=A, d=d))
        ref = enumerate_boxed_opt(c, A, d)
        assert sol.objective == pytest.approx(ref, abs=1e-8), f"seed {seed}"


def test_strong_duality_on_random_instances():
    for seed in range(40):
        c, A, d = random_boxed_lp(seed + 1000)
        lp = BoxedLp(c=c, A=A, d=d)
        sol = solve_boxed_lp(lp)
        gap = abs(sol.objective - sol.dual_objective(lp))
        assert gap <= 1e-7 * max(1.0, abs(sol.objective)), f"seed {seed}"


def test_reduced_info_matches_primal_values():
    for seed in range(25):
        c, A, d = random_boxed_lp(seed + 2000)
        sol = solve_boxed_lp(BoxedLp(c=c, A=A, d=d))
        assert np.all(sol.x[sol.reduced_info == AT_LOWER] == 0.0)
        assert np.all(sol.x[sol.reduced_info == AT_UPPER] == 1.0)
        assert np.isin(sol.reduced_info, [AT_LOWER, BASIC, AT_UPPER]).all()


def test_dual_prices_never_meaningfully_negative():
    for seed in range(25):
        c, A, d = random_boxed_lp(seed + 3000)
        sol = solve_boxed_lp(BoxedLp(c=c, A=A, d=d))
        assert sol.dual.min() >= -1e-9


def test_complementary_slackness_clean_on_solved_lp():
    for seed in (0, 7, 23):
        c, A, d = random_boxed_lp(seed)
        lp = BoxedLp(c=c, A=A, d=d)
        assert verify_complementary_slackness(lp, solve_boxed_lp(lp)) == []


def test_complementary_slackness_flags_corrupted_solution():
    lp = _lp([4.0, 3.0, 2.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.5])
    sol = solve_boxed_lp(lp)
    sol.x = np.array([0.0, 0.0, 0.0, 0.0])  # price > 0 but row now slack
    report = verify_complementary_slackness(lp, sol)
    assert report
    assert all(isinstance(v, CsViolation) for v in report)


def _solved_lps():
    """Solved LPs at k = 1 (100) and in groups of k = 2..4 (300)."""
    for seed in range(100):
        lp = BoxedLp(*random_boxed_lp(seed + 5000))
        yield lp, solve_boxed_lp(lp)
    for seed in range(300):
        lp = BoxedLp(*random_grouped_lp(seed))
        yield lp, solve_boxed_lp(lp)


def _perturbed(sol, rng):
    """The solution with about half its x and half its prices moved at random."""
    x = sol.x + rng.normal(0.0, 0.3, sol.x.size) * (rng.random(sol.x.size) < 0.5)
    dual = sol.dual + rng.normal(0.0, 0.5, sol.dual.size) * (rng.random(sol.dual.size) < 0.5)
    return replace(sol, x=np.clip(x, 0.0, 1.0), dual=np.maximum(dual, 0.0))


def test_complementary_slackness_report_matches_loop_oracle():
    """Entry for entry (kind, index, amount, order) on perturbed solutions."""
    rng = np.random.default_rng(0)
    kinds, ks = set(), set()
    for lp, sol in _solved_lps():
        for cand in (sol, _perturbed(sol, rng)):
            report = verify_complementary_slackness(lp, cand)
            assert report == cs_report_loop(lp, cand), (lp.k, cand)
            kinds.update(v.kind for v in report)
        ks.add(lp.k)
    assert kinds == {"price_slack", "reduced_cost_upper", "reduced_cost_lower"}
    assert ks >= {1, 2, 3}


def _cs_identity_sides(lp, sol):
    """The gap the solver checks, and the sum of the CS products, from the raw data."""
    slack = lp.d - lp.A @ sol.x
    rc = (lp.c - sol.dual @ lp.A).reshape(-1, lp.k)
    u = np.maximum(rc.max(axis=1), 0.0)
    x = sol.x.reshape(-1, lp.k)
    products = (sol.dual @ slack + (u * (1.0 - x.sum(axis=1))).sum()
                + ((u[:, None] - rc) * x).sum())
    scale = max(1.0, float(np.abs(lp.d) @ np.abs(sol.dual) + u.sum() + np.abs(lp.c) @ sol.x))
    return sol.dual_objective(lp) - float(lp.c @ sol.x), products, scale


def test_duality_gap_is_the_sum_of_cs_products():
    """d'y + sum u - c'x = y'slack + sum_t u_t (1 - fill_t) + sum_j (u_t - rc_j) x_j."""
    rng = np.random.default_rng(1)
    offline = [sample_lp(generate(GenSpec("routing", 0, dict(m=5, n=2000, q=0.5, capacity=200.0)))),
               sample_lp(generate(GenSpec("adwords", 0, dict(n=800, m=3))))]
    cases = list(_solved_lps()) + [(lp, solve_boxed_lp(lp)) for lp in offline]
    for lp, sol in cases:
        for cand in (sol, _perturbed(sol, rng)):
            gap, products, scale = _cs_identity_sides(lp, cand)
            assert abs(gap - products) <= 1e-12 * scale, (lp.k, gap, products)
            if cand is sol:
                assert abs(gap) <= 1e-7 * max(1.0, float(np.abs(lp.c).max()), abs(sol.objective))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        BoxedLp(c=np.ones(3), A=np.ones((2, 2)), d=np.ones(2))
    with pytest.raises(DimensionMismatch):
        BoxedLp(c=np.ones(2), A=np.ones((2, 2)), d=np.ones(3))


def test_invalid_data_rejected():
    with pytest.raises(ValueError):
        BoxedLp(c=np.ones(1), A=np.ones((1, 1)), d=np.array([-0.5]))
    with pytest.raises(ValueError):
        BoxedLp(c=np.array([np.nan]), A=np.ones((1, 1)), d=np.ones(1))


@pytest.mark.parametrize("c, A", [
    ([1e308, 1e308], [[1.0, 1.0]]),
    ([1.0, 1.0], [[1e308, 1e308]]),
], ids=["objective", "row activity"])
def test_overflowing_data_rejected(c, A):
    with pytest.raises(ValueError, match="overflows"):
        BoxedLp(c=np.array(c), A=np.array(A), d=np.ones(1))


def test_non_finite_gap_fails_the_certificate(monkeypatch):
    residuals = lp_module._residuals

    def nan_group_duals(lp, sol):
        slack, rc, u, fill = residuals(lp, sol)
        return slack, rc, np.full_like(u, np.nan), fill

    monkeypatch.setattr(lp_module, "_residuals", nan_group_duals)
    with pytest.raises(InternalError, match="duality gap nan"):
        solve_boxed_lp(_lp([4.0, 3.0], [[1.0, 1.0]], [1.5]))


@pytest.mark.parametrize("make, exc, match", [
    (lambda: BoxedLp(c=np.ones(2), A=np.ones(2), d=np.ones(1)), DimensionMismatch, "A must be a matrix"),
    (lambda: BoxedLp(c=np.zeros(0), A=np.zeros((1, 0)), d=np.ones(1)), DimensionMismatch,
     "at least one row and one column"),
    (lambda: perturb_rewards(Instance(m=1, n=1, b=np.ones(1), rewards=np.ones(1),
                                      consumption=np.ones((1, 1))), eta=-1e-9),
     ValueError, "eta must be nonnegative"),
], ids=["one-dimensional A", "empty A", "negative eta"])
def test_rejected_input(make, exc, match):
    with pytest.raises(exc, match=match):
        make()


def test_pivot_cap_raises_cycle_limit(monkeypatch):
    monkeypatch.setattr(lp_module, "_ITERATIONS_PER_VARIABLE", 0)  # no iteration allowed
    lp = _lp([4.0, 3.0, 2.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.5])
    with pytest.raises(CycleLimitExceeded, match="0 iterations, 0 flips, 0 refactorizations"):
        solve_boxed_lp(lp)


def test_rank_rule_from_the_first_iteration(monkeypatch):
    """The dual's anti-cycling fallback, reached at once, still finds the optimum.

    With no degenerate iteration allowed, every iteration takes the
    earliest infeasible variable in rank and the earliest minimum-ratio
    entering one, without long steps.
    """
    grouped = [random_grouped_lp(seed) for seed in range(100)]
    refs = [solve_boxed_lp(BoxedLp(*explicit_groups(c, A, d, k))).objective
            for c, A, d, k in grouped]
    long_step = solve_boxed_lp(BoxedLp(*random_boxed_lp(0))).stats
    monkeypatch.setattr(lp_module, "_DEGENERATE_ITERATIONS", 0)
    fallback = solve_boxed_lp(BoxedLp(*random_boxed_lp(0))).stats
    assert fallback.flips == 0 and long_step.flips > 0
    for seed in range(60):
        c, A, d = random_boxed_lp(seed)
        lp = BoxedLp(c=c, A=A, d=d)
        sol = solve_boxed_lp(lp)
        assert sol.objective == pytest.approx(enumerate_boxed_opt(c, A, d), abs=1e-8), seed
        assert verify_complementary_slackness(lp, sol) == [], seed
        assert sol.stats.flips == 0, seed
    for seed, ((c, A, d, k), ref) in enumerate(zip(grouped, refs)):
        lp = BoxedLp(c=c, A=A, d=d, k=k)
        sol = solve_boxed_lp(lp)
        assert abs(sol.objective - ref) <= 1e-8 * max(1.0, float(np.abs(c).max())), seed
        assert verify_complementary_slackness(lp, sol) == [], seed
        assert sol.stats.flips == 0, seed


def test_dual_objective_is_the_box_formula_at_k1():
    for seed in range(25):
        c, A, d = random_boxed_lp(seed + 4000)
        lp = BoxedLp(c=c, A=A, d=d)
        sol = solve_boxed_lp(lp)
        box = float(lp.d @ sol.dual + np.maximum(lp.c - sol.dual @ lp.A, 0.0).sum())
        assert sol.dual_objective(lp) == box


def test_failed_certificate_raises(monkeypatch):
    monkeypatch.setattr(lp_module, "_GAP_TOL", -1.0)  # no gap can pass
    stats = r"duality gap .* iterations, .* residual 0\.000e\+00, gap"
    with pytest.raises(InternalError, match=stats):
        solve_boxed_lp(_lp([4.0, 3.0], [[1.0, 1.0]], [1.5]))


def test_iterations_bounded_on_offline_routing():
    """Iterations grow with m, not n: at most 10 m on 4000 columns."""
    inst = generate(GenSpec("routing", 0, dict(m=5, n=4000, q=0.5, capacity=400.0)))
    lp = sample_lp(inst)
    sol = solve_boxed_lp(lp)
    assert sol.stats.iterations <= 10 * inst.m
    assert sol.pivots == sol.stats.iterations + sol.stats.flips
    assert sol.stats.refactorizations >= 1
    assert sol.stats.max_residual <= 1e-7 * float(lp.d.max())
    assert sol.stats.gap == abs(sol.objective - sol.dual_objective(lp))


def test_one_long_step_solves_the_secretary_lp():
    """m = 1: one sort of the breakpoints passes every flip the slope allows."""
    inst = generate(GenSpec("secretary", 101, dict(n=10_000, k=400, reward_dist="heavy_tail",
                                                   sigma=3.0)))
    assert solve_boxed_lp(sample_lp(inst)).stats.iterations <= 3


def test_pivot_count_bounded_on_offline_adwords():
    """At most 200 basis exchanges on 800 groups of three (flips count apart)."""
    inst = generate(GenSpec("adwords", 0, dict(n=800, m=3)))
    assert solve_boxed_lp(sample_lp(inst)).stats.iterations <= 200


class TestGroupedLp:
    def test_k_must_split_the_columns(self):
        for k in (0, 2, 2.0, True):
            with pytest.raises(DimensionMismatch):
                BoxedLp(c=np.ones(5), A=np.ones((1, 5)), d=np.ones(1), k=k)

    def test_one_row_two_groups(self):
        # Group 0 takes its best option whole; the capacity left goes to
        # group 1, whose options tie, so the price is 1 and the lower index
        # is taken.
        lp = BoxedLp(c=np.array([3.0, 2.0, 1.0, 1.0]), A=np.ones((1, 4)),
                     d=np.array([1.5]), k=2)
        sol = solve_boxed_lp(lp)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.5, 0.0], atol=1e-12)
        assert sol.dual[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(3.5)
        assert sol.dual_objective(lp) == pytest.approx(3.5)
        assert sol.reduced_info[0] == AT_UPPER and sol.reduced_info[2] == BASIC

    def test_matches_explicit_pick_one_rows(self):
        for seed in range(300):
            c, A, d, k = random_grouped_lp(seed)
            lp = BoxedLp(c=c, A=A, d=d, k=k)
            sol = solve_boxed_lp(lp)
            ref = solve_boxed_lp(BoxedLp(*explicit_groups(c, A, d, k)))
            scale = max(1.0, float(np.abs(c).max()))
            assert abs(sol.objective - ref.objective) <= 1e-8 * scale, f"seed {seed}"
            assert verify_complementary_slackness(lp, sol) == [], f"seed {seed}"
            assert sol.x.reshape(-1, k).sum(axis=1).max() <= 1.0 + 1e-9, f"seed {seed}"
            assert np.all(sol.x[sol.reduced_info == AT_LOWER] == 0.0), f"seed {seed}"
            assert np.all(sol.x[sol.reduced_info == AT_UPPER] == 1.0), f"seed {seed}"

    def test_matches_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        compared = 0
        for seed in range(300):
            c, A, d, k = random_grouped_lp(seed)
            c2, A2, d2 = explicit_groups(c, A, d, k)
            ref = linprog(-c2, A_ub=A2, b_ub=d2, bounds=(0, None), method="highs")
            if ref.status != 0:
                continue  # HiGHS reports numerical trouble on a few badly scaled LPs
            sol = solve_boxed_lp(BoxedLp(c=c, A=A, d=d, k=k))
            scale = max(1.0, float(np.abs(c).max()))
            assert abs(sol.objective + ref.fun) <= 1e-8 * scale, f"seed {seed}"
            compared += 1
        assert compared >= 250


class TestPerturbRewards:
    def _inst(self):
        rng = np.random.default_rng(5)
        return Instance(m=2, n=8, b=np.array([2.0, 3.0]),
                        rewards=rng.uniform(0.5, 2.0, 8),
                        consumption=rng.uniform(0, 1, (8, 2)))

    def test_objective_shift_is_negligible(self):
        inst = self._inst()
        pert = perturb_rewards(inst)
        delta = np.abs(pert.rewards - inst.rewards)
        assert delta.max() <= 1e-9 * inst.rewards.max()
        assert np.all(pert.rewards >= inst.rewards)  # one-sided noise

    def test_deterministic_in_seed(self):
        inst = self._inst()
        a = perturb_rewards(inst, seed=3)
        b = perturb_rewards(inst, seed=3)
        c = perturb_rewards(inst, seed=4)
        assert np.array_equal(a.rewards, b.rewards)
        assert not np.array_equal(a.rewards, c.rewards)

    def test_eta_zero_is_identity_on_values(self):
        inst = self._inst()
        pert = perturb_rewards(inst, eta=0.0)
        assert np.array_equal(pert.rewards, inst.rewards)

    def test_ties_are_broken(self):
        inst = Instance(m=1, n=4, b=np.array([2.0]),
                        rewards=np.ones(4),
                        consumption=np.ones((4, 1)))
        pert = perturb_rewards(inst, eta=1e-6, seed=0)
        assert len(np.unique(pert.rewards)) == 4
