"""Solver tests: hand cases, duality, the certificate, and the enumeration oracle."""

import tracemalloc
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
    offline_opt,
    perturb_rewards,
    run_dpa,
    run_ola,
    sample_lp,
    shuffle,
    solve_boxed_lp,
    verify_complementary_slackness,
)
from onlinelp import lp as lp_module
from onlinelp.engine import schedule

from _oracles import (
    cs_report_loop,
    enumerate_boxed_opt,
    explicit_groups,
    random_boxed_lp,
    random_grouped_lp,
)

try:  # scipy is a test-only oracle: without it the HiGHS cross-checks are skipped
    from scipy import sparse
    from scipy.optimize import linprog
except ImportError:
    linprog = None


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


def test_dual_prices_never_meaningfully_negative():
    """The prices are returned nonnegative, roundoff included (grouped seeds 13, 68, ...)."""
    lps = [BoxedLp(*random_boxed_lp(seed + 3000)) for seed in range(25)]
    lps += [BoxedLp(*random_grouped_lp(seed)) for seed in range(300)]
    for i, lp in enumerate(lps):
        assert solve_boxed_lp(lp).dual.min() >= 0.0, i


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
                # The exit certified the solution returned: its gap, bit for bit.
                assert sol.stats.gap == abs(sol.objective - sol.dual_objective(lp)), lp.k


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
    ([1.0, 1.0], [[1e308, -1e308]]),
], ids=["objective", "row activity", "mixed-sign row activity"])
def test_overflowing_data_rejected(c, A):
    with pytest.raises(ValueError, match="overflows"):
        BoxedLp(c=np.array(c), A=np.array(A), d=np.ones(1))


def test_nonnegative_data_is_checked_without_a_copy():
    """The overflow check sums a nonnegative A as it is, with no temporary the size of A."""
    A = np.ones((4, 250_000))
    c, d = np.ones(A.shape[1]), np.ones(4)
    tracemalloc.start()
    try:
        BoxedLp(c=c, A=A, d=d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A.nbytes / 2


def test_non_finite_gap_fails_the_certificate(monkeypatch):
    residuals = lp_module._residuals

    def nan_group_duals(lp, x, dual):
        slack, rc, u, fill = residuals(lp, x, dual)
        return slack, rc, np.full_like(u, np.nan), fill

    monkeypatch.setattr(lp_module, "_residuals", nan_group_duals)
    with pytest.raises(InternalError, match="duality gap nan"):
        solve_boxed_lp(_lp([4.0, 3.0], [[1.0, 1.0]], [1.5]))


def _one_column() -> Instance:
    return Instance(m=1, n=1, b=np.ones(1), rewards=np.ones(1), consumption=np.ones((1, 1)))


@pytest.mark.parametrize("make, exc, match", [
    (lambda: BoxedLp(c=np.ones(2), A=np.ones(2), d=np.ones(1)), DimensionMismatch, "A must be a matrix"),
    (lambda: BoxedLp(c=np.zeros(0), A=np.zeros((1, 0)), d=np.ones(1)), DimensionMismatch,
     "at least one row and one column"),
    (lambda: perturb_rewards(_one_column(), eta=-1e-9), ValueError, "eta must be finite"),
    (lambda: perturb_rewards(_one_column(), eta=np.nan), ValueError, "eta must be finite"),
    (lambda: perturb_rewards(_one_column(), eta=np.inf), ValueError, "eta must be finite"),
    (lambda: perturb_rewards(_one_column(), eta=True), ValueError, "eta must be a number, not"),
    (lambda: perturb_rewards(_one_column(), eta="1e-9"), ValueError, "eta must be a number, not"),
    (lambda: perturb_rewards(_one_column(), eta=np.array([1e-9, 2e-9])), ValueError,
     "eta must be a number, not"),
    (lambda: perturb_rewards(_one_column(), seed=True), ValueError, "seed must be an integer >= 0"),
    (lambda: perturb_rewards(_one_column(), seed=1.5), ValueError, "seed must be an integer >= 0"),
    (lambda: perturb_rewards(_one_column(), seed=-1), ValueError, "seed must be an integer >= 0"),
], ids=["one-dimensional A", "empty A", "negative eta", "nan eta", "infinite eta", "bool eta",
        "string eta", "array eta", "bool seed", "fractional seed", "negative seed"])
def test_rejected_input(make, exc, match):
    with pytest.raises(exc, match=match):
        make()


def test_pivot_cap_raises_cycle_limit(monkeypatch):
    monkeypatch.setattr(lp_module, "_ITERATIONS_PER_VARIABLE", 0)  # no iteration allowed
    lp = _lp([4.0, 3.0, 2.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.5])
    with pytest.raises(CycleLimitExceeded, match="0 iterations, 0 flips, 0 refactorizations"):
        solve_boxed_lp(lp)


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
    assert sol.stats.refactorizations >= 1
    assert sol.stats.max_residual <= 1e-7 * float(lp.d.max())
    assert sol.stats.gap == abs(sol.objective - sol.dual_objective(lp))


def test_one_long_step_solves_the_secretary_lp():
    """m = 1: one sort of the breakpoints passes every flip the slope allows."""
    inst = generate(GenSpec("secretary", 101, dict(n=10_000, k=400, reward_dist="heavy_tail",
                                                   sigma=3.0)))
    assert solve_boxed_lp(sample_lp(inst)).stats.iterations <= 3


F, T = False, True


@pytest.mark.parametrize("cross, late, gain, need, order, end", [
    # k = 1: the only blocked breakpoints, row slacks, come last by index.
    ([.5, 0., .5, 0., .5, .5], [F, F, F, F, T, T], [1] * 6, 2.5, [1, 3, 0, 2, 4, 5], 2),
    ([.5, 0., .5, 0., .5, .5], [F, F, F, F, T, T], [1] * 6, 2.0, [1, 3, 0, 2, 4, 5], 1),
    ([.5, 0., .5, 0., .5, .5], [F, F, F, F, T, T], [1] * 6, 10., [1, 3, 0, 2, 4, 5], 4),
    ([.5, 0., .5, 0., .5, .5], [F] * 6, [1] * 6, 10., [1, 3, 0, 2, 4, 5], 6),
    # k > 1: blocked and unblocked breakpoints interleave by index.
    ([.5, .5, 0., .5, 0., .5, .2], [T, F, T, F, F, T, F], [1] * 7, 0.5,
     [4, 2, 6, 1, 3, 0, 5], 0),
    ([.5, .5, 0., .5, 0., .5, .2], [T, F, T, F, F, T, F], [1] * 7, 3.0,
     [4, 2, 6, 1, 3, 0, 5], 1),
    ([.3, .1, .3, .1, .2], [T, F, F, F, F], [1, 2, 1, 1, 3], 5.0, [1, 3, 4, 2, 0], 2),
    ([.3, .1, .3, .1, .2], [T, F, F, F, F], [1, 2, 1, 1, 3], 7.5, [1, 3, 4, 2, 0], 4),
    ([.3, .1, .3, .1, .2], [T, F, F, F, F], [1, 2, 1, 1, 3], 100., [1, 3, 4, 2, 0], 4),
    ([.3, .1, .3, .1, .2], [F] * 5, [1, 2, 1, 1, 3], 100., [1, 3, 4, 0, 2], 5),
], ids=["k1-gain", "k1-gain-exact", "k1-blocked", "k1-neither", "kn-gain", "kn-blocked",
       "kn-gain-late", "kn-gain-at-blocked", "kn-blocked-late", "kn-neither"])
def test_breakpoints_pass_in_one_order(cross, late, gain, need, order, end):
    """By crossing point, then unblocked before blocked, then index.

    The step ends at the first blocked breakpoint or where the cumulative gain
    reaches ``need``, whichever comes first, and at the number of breakpoints
    when neither comes.
    """
    cross, late, gain = np.array(cross), np.array(late), np.array(gain, dtype=float)
    assert order == sorted(range(cross.size), key=lambda i: (cross[i], late[i], i))
    got, p = lp_module._passing_order(cross, gain, late, need)
    assert got.tolist() == order
    assert p == end


# Hand-made candidate lines drop + theta * rise at k = 3: groups 0-2 (group t's
# options are variables 4t .. 4t + 2, its slack 4t + 3) and row slack 0
# (variable 12, label 3).  Against its key, the slack, group 0's envelope is
# option 0 from theta = 1, option 1 from 2 and option 2 from 7.  Group 1 is
# blocked; its first line crosses at 5.  Group 2's option 2 is flatter than
# its option 0 and never on the envelope.
LINES = {  # variable: (label, drop, rise)
    0: (0, -1.0, 1.0), 1: (0, -3.0, 2.0), 2: (0, -10.0, 3.0),
    4: (1, -5.0, 1.0), 6: (1, -12.0, 2.0),
    8: (2, -3.0, 1.0), 10: (2, -1.0, 0.25),
    12: (3, -8.0, 1.0),
}


@pytest.mark.parametrize("cand, need, step, later", [
    # The step ends at group 1's blocked line (5); group 0's second line
    # (2) passes, and its third (7) lies past that end and is not visited.
    ([0, 1, 2, 4, 6, 8, 10, 12], 10.0, ([0, 1, 8], [3, 0, 11], 4), [[2.0, 4.5]]),
    ([0, 1, 2, 4, 6, 8, 10, 12], 2.5, ([0, 1], [3, 0], 8), [[2.0, 4.5]]),
    # The first round ends at 3, which option 2 crosses only at 3.33.
    ([0, 1, 2, 4, 6, 8, 10, 12], 1.5, ([0], [3], 1), [[2.0]]),
    # Nothing is blocked and the three lines gain 3 < need: no end.
    ([0, 1, 2], 10.0, None, [[2.0, 4.5], [7.0]]),
], ids=["blocked-end", "gain-end", "second-line-enters", "no-end"])
def test_long_step_walks_each_envelope(monkeypatch, cand, need, step, later):
    """k = 3: each group's envelope, one line a round, up to the first round's end.

    ``later`` lists the crossing points each later round hands to
    ``_first_crossings``: a blocked group's lines and lines that cross past
    the first round's end are never among them.
    """
    seen = []
    first_crossings = lp_module._first_crossings

    def record(groups, cross, rise):
        seen.append(cross.tolist())
        return first_crossings(groups, cross, rise)

    monkeypatch.setattr(lp_module, "_first_crossings", record)
    groups, drop, rise = (np.array(part) for part in zip(*(LINES[v] for v in cand)))
    keys = np.array([3, 5, 11, 3])  # each group's key; a row slack's is the zero column k
    blocked = np.array([False, True, False, True])
    got = lp_module._long_step(np.array(cand), groups, keys, drop, rise, blocked, 3, 1e-11,
                               need)
    if step is None:
        assert got is None
    else:
        passed, before, q = got
        assert (passed.tolist(), before.tolist(), q) == step
    assert seen[1:] == later


def test_pivot_count_bounded_on_offline_adwords():
    """At most 200 basis exchanges on 800 groups of three (flips count apart)."""
    inst = generate(GenSpec("adwords", 0, dict(n=800, m=3)))
    assert solve_boxed_lp(sample_lp(inst)).stats.iterations <= 200


def test_refactoring_after_every_iteration_keeps_the_optimum(monkeypatch):
    """The periodic refactorization, run after each iteration, leaves the objective.

    Only objectives are compared: a dual may move along a degenerate optimal face.
    """
    lps = [sample_lp(generate(GenSpec("routing", seed, dict(m=5, n=2000, q=0.5, capacity=200.0))))
           for seed in range(3)]
    lps += [sample_lp(generate(GenSpec("adwords", seed, dict(n=800, m=3)))) for seed in range(3)]
    default = [solve_boxed_lp(lp).objective for lp in lps]
    monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", 1)
    for seed, (lp, objective) in enumerate(zip(lps, default)):
        sol = solve_boxed_lp(lp)
        assert sol.stats.refactorizations == sol.stats.iterations + 1, seed
        assert sol.objective == objective, seed


# Offline LPs of plain adwords (budget_rule "fraction") with 5 or more
# bidders, whose dual is heavily degenerate: every option of a bidder pays the
# same per unit of its budget.  The optima are HiGHS's (scipy 1.17.1).
ADWORDS_OPTIMA = {  # (n, m, seed): optimum
    (500, 20, 0): 82.42043910820917,
    (500, 20, 1): 82.77596284622553,
    (1000, 20, 0): 165.70454855574746,
    (1000, 20, 1): 164.64821909614787,
    (1000, 20, 2): 164.98618022263992,
    (1000, 20, 3): 164.65804602826455,
    (2000, 5, 2): 330.00928864467755,
    (2000, 10, 0): 331.409097111495,
    (2000, 20, 0): 330.66535702223075,
}


def _adwords(n, m, seed):
    return generate(GenSpec("adwords", seed, dict(n=n, m=m)))


def _highs_optimum(lp):
    """HiGHS's optimum of ``lp`` with its pick-one rows written out, or None without scipy."""
    if linprog is None:
        return None
    groups = sparse.kron(sparse.eye_array(lp.c.size // lp.k), np.ones((1, lp.k)))
    A = sparse.vstack([sparse.csr_array(lp.A), groups], format="csr")
    ref = linprog(-lp.c, A_ub=A, b_ub=np.concatenate([lp.d, np.ones(groups.shape[0])]),
                  bounds=(0, None), method="highs")
    assert ref.status == 0, ref.message
    return -ref.fun


@pytest.mark.parametrize("n, m, seed", list(ADWORDS_OPTIMA))
def test_dual_degenerate_adwords_lp_solves(n, m, seed):
    """The dual simplex solves LPs on which the basis once went singular or stalled.

    The leaving choice by steepest edge took up to 14139 iterations here.
    """
    lp = sample_lp(_adwords(n, m, seed))
    sol = solve_boxed_lp(lp)
    objective = sol.objective
    assert sol.stats.iterations <= 20 * m
    assert objective == pytest.approx(ADWORDS_OPTIMA[n, m, seed], rel=1e-8)
    highs = _highs_optimum(lp)
    if highs is not None:
        assert objective == pytest.approx(highs, rel=1e-8)


@pytest.mark.parametrize("n, m, seed", [(1000, 20, 1), (1000, 20, 3), (1000, 10, 2), (2000, 10, 0),
                                        (1000, 50, 3)])
def test_dpa_on_dual_degenerate_adwords(n, m, seed):
    """DPA's prefix LPs on these instances solve, and the run keeps every budget."""
    inst = shuffle(_adwords(n, m, seed), 1)
    assert not (run_dpa(inst, 0.1).fill > inst.b).any()


# One seeded instance per row of every generate family: routing up to m = 20,
# secretary with uniform and heavy-tailed rewards, yield with two products
# (duplicate columns), and adwords "fraction" with 5, 10 and 20 bidders.
SWEEP = [GenSpec("routing", 0, dict(m=m, n=2000, q=0.5, capacity=200.0)) for m in (2, 5, 10, 20)]
SWEEP += [GenSpec("secretary", 0, dict(n=2000, k=100, reward_dist=dist))
          for dist in ("uniform", "heavy_tail")]
SWEEP += [GenSpec("yield", 0, dict(horizon=100.0, rate=20.0, n_products=2))]
SWEEP += [GenSpec("adwords", seed, dict(n=n, m=m))
          for n, m, seed in [(1000, 5, 0), (1000, 10, 2), *(c for c in ADWORDS_OPTIMA if c[0] <= 1000)]]


def _spec_id(spec):
    return "-".join([spec.kind, f"seed={spec.seed}",
                     *(f"{key}={value}" for key, value in spec.params.items())])


@pytest.mark.parametrize("spec", SWEEP, ids=_spec_id)
def test_every_family_solves(spec):
    """offline_opt, run_ola and run_dpa finish within their budgets; the optimum is HiGHS's."""
    inst = generate(spec)
    opt, _, _ = offline_opt(inst)
    shuffled = shuffle(inst, 1)
    for run in (run_ola, run_dpa):
        assert not (run(shuffled, 0.1).fill > inst.b).any(), run.__name__
    highs = _highs_optimum(sample_lp(inst))
    if highs is not None:
        assert opt == pytest.approx(highs, rel=1e-8)


def dpa_walk(inst, warm, eps=0.1):
    """DPA's checkpoint LPs of ``inst`` and their solutions, each from the one before when warm."""
    lps, sols = [], []
    for ell, shrink in schedule(inst.n, eps, "dpa"):
        lps.append(sample_lp(inst, ell, shrink))
        sols.append(solve_boxed_lp(lps[-1], sols[-1] if warm and sols else None))
    return lps, sols


@pytest.mark.parametrize("spec", SWEEP, ids=_spec_id)
def test_warm_started_checkpoints_reach_the_cold_optimum(spec):
    """Each DPA checkpoint LP, solved from the previous one's solution, has the cold optimum."""
    inst = shuffle(generate(spec), 1)
    for case in (inst, perturb_rewards(inst, seed=7)):
        lps, warm = dpa_walk(case, warm=True)
        for lp, cold, sol in zip(lps, dpa_walk(case, warm=False)[1], warm):
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
            assert verify_complementary_slackness(lp, sol) == []


@pytest.mark.parametrize("m", [5, 10, 30])
def test_tied_start_on_plain_adwords_solves_cold(m):
    """Plain adwords' new groups all tie at the previous price, so every checkpoint starts cold."""
    lps, warm = dpa_walk(shuffle(_adwords(1000, m, 0), 1), warm=True)
    for lp, sol in zip(lps, warm):
        cold = solve_boxed_lp(lp)
        assert sol.stats.iterations == cold.stats.iterations
        assert sol.dual.tobytes() == cold.dual.tobytes()


def test_warm_start_saves_iterations_on_jittered_adwords():
    """Jittered rewards break the ties: the later checkpoints start warm, at under 60% of cold."""
    inst = perturb_rewards(shuffle(_adwords(2000, 30, 0), 1), seed=7)
    warm, cold = (sum(sol.stats.iterations for sol in dpa_walk(inst, flag)[1])
                  for flag in (True, False))
    assert warm <= 0.6 * cold, (warm, cold)


def test_start_from_an_unrelated_lp_returns_the_optimum():
    """A start of the same shape but other data falls back or repairs; the answer is certified.

    The other LPs have random data (more groups, or as many), or the
    start's own columns under other capacities, where the start is dual
    feasible and the dual simplex repairs it.
    """
    rng = np.random.default_rng(3)
    for seed in range(40):
        c, A, d, k = random_grouped_lp(seed)
        source = solve_boxed_lp(BoxedLp(c, A, d, k))
        m = A.shape[0]
        others = [BoxedLp(rng.uniform(-0.2, 1.0, c.size + grow * k),
                          rng.uniform(0.0, 1.0, (m, c.size + grow * k)),
                          rng.uniform(0.0, 2.0, m), k) for grow in (0, 3)]
        others.append(BoxedLp(c, A, rng.uniform(0.0, 2.0 * d.max() + 1.0, m), k))
        for lp in others:
            sol, cold = solve_boxed_lp(lp, source), solve_boxed_lp(lp)
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
            assert verify_complementary_slackness(lp, sol) == []
    # A start whose working column is the zero vector in the new LP: the basis
    # is singular there, and the solve starts from the empty prefix instead.
    source = solve_boxed_lp(_lp([2.0, 1.0], [[1.0, 1.0]], [1.5]))
    assert source.basis[0].tolist() == [3]  # column 1's slack, beside its key, column 1
    lp = _lp([2.0, 1.0], [[1.0, 0.0]], [1.5])
    sol = solve_boxed_lp(lp, source)
    assert sol.objective == pytest.approx(3.0)
    assert sol.stats == solve_boxed_lp(lp).stats


def test_start_of_another_shape_is_rejected():
    lp = BoxedLp(np.ones(6), np.ones((2, 6)), np.ones(2), k=2)
    for other in (BoxedLp(np.ones(6), np.ones((1, 6)), np.ones(1), k=2),   # another m
                  BoxedLp(np.ones(3), np.ones((2, 3)), np.ones(2), k=1),   # another k
                  BoxedLp(np.ones(8), np.ones((2, 8)), np.ones(2), k=2)):  # more groups
        with pytest.raises(DimensionMismatch, match="start"):
            solve_boxed_lp(lp, solve_boxed_lp(other))


def test_basis_numbers_row_slacks_below_zero():
    """Group t's variables are t*(k+1) + j, and row i's slack is -1-i."""
    sol = solve_boxed_lp(_lp([1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]], [0.5, 1.0]))
    working, keys = sol.basis
    # Column 0 is half taken: its slack (variable 1) works beside its key,
    # column 0; column 1 is whole, its key; row 1's slack stays basic.
    assert sorted(working.tolist()) == [-2, 1]
    assert keys.tolist() == [0, 2]


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
