import math
import warnings

import numpy as np
import pytest

from onlinelp import (
    Column,
    DegenerateWindow,
    DimensionMismatch,
    DualPrice,
    GenSpec,
    Instance,
    MultiColumn,
    MultiInstance,
    NonpositiveReward,
    OnlineState,
    StreamExhausted,
    allocation_rule,
    check_input_condition,
    generate,
    geometric_schedule,
    h_factor,
    learn_price,
    multi_allocation_rule,
    run_dpa,
    run_ola,
    sample_lp,
    shuffle,
    solve_boxed_lp,
    step,
)
from onlinelp import engine
from onlinelp.engine import decide, options, price_rule, run_epochs, schedule

from _oracles import decide_loop


def unit_instance(rewards, b):
    """m=1 instance where every column consumes exactly one unit."""
    rewards = np.asarray(rewards, dtype=np.float64)
    return Instance(m=1, n=rewards.size, b=np.array([float(b)]),
                    rewards=rewards, consumption=np.ones((rewards.size, 1)))


class TestSchedule:
    def test_exact_cases(self):
        assert geometric_schedule(64, 0.25) == [16, 32]
        assert geometric_schedule(100, 0.1) == [10, 20, 40, 80]
        assert geometric_schedule(1000, 1 / 128) == [8, 16, 32, 63, 125, 250, 500]

    def test_points_are_ceil_of_doubling_base(self):
        for n, eps in [(777, 0.03), (50, 0.21), (4096, 1 / 64)]:
            points = geometric_schedule(n, eps)
            base = n * eps
            assert points[0] == math.ceil(base - 1e-9)
            for r, ell in enumerate(points):
                assert ell == math.ceil(2 ** r * base - 1e-9)
                assert ell < n
            assert math.ceil(2 ** len(points) * base - 1e-9) >= n

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindow):
            geometric_schedule(5, 0.1)  # n*eps < 1
        with pytest.raises(DegenerateWindow):
            geometric_schedule(4, 0.9)  # window swallows the whole stream

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            geometric_schedule(100, 0.0)
        with pytest.raises(ValueError):
            geometric_schedule(100, -0.2)


class TestHFactor:
    def test_exact_cases(self):
        assert h_factor(16, 64, 0.125) == pytest.approx(0.25)
        assert h_factor(400, 400, 0.04) == pytest.approx(0.04)
        # at the first update point ell = n*eps the slack is sqrt(eps)
        assert h_factor(16, 400, 0.04) == pytest.approx(math.sqrt(0.04))
        assert h_factor(40, 400, 0.1) == pytest.approx(math.sqrt(0.1))

    def test_decreases_toward_eps(self):
        values = [h_factor(ell, 1000, 0.05) for ell in (50, 100, 200, 400, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            h_factor(0, 100, 0.1)
        with pytest.raises(ValueError):
            h_factor(101, 100, 0.1)


@pytest.mark.parametrize("make, exc, match", [
    (lambda: step(OnlineState.start(2, 10, np.ones(2), 0.2), Column(pi=1.0, a=np.ones(1))),
     DimensionMismatch, "column has 1 rows, state has 2"),
    (lambda: step(OnlineState.start(2, 10, np.ones(2), 0.2),
                  MultiColumn(f=[1.0], G=np.ones((2, 1)))),
     TypeError, "step takes a Column, got MultiColumn"),
    (lambda: OnlineState.start(2, 10, np.ones(3), 0.2), DimensionMismatch, "b has shape"),
    (lambda: OnlineState.start(2, 50, [-1.0, 1.0], 0.2), ValueError,
     "capacities must be strictly positive"),
    (lambda: OnlineState.start(2, 50, [np.nan, 1.0], 0.2), ValueError,
     "b contains non-finite entries"),
    (lambda: OnlineState.start(2, 50, [np.inf, 1.0], 0.2), ValueError,
     "b contains non-finite entries"),
    (lambda: OnlineState.start(2, 50, [0.0, 1.0], 0.2), ValueError,
     "capacities must be strictly positive"),
    (lambda: OnlineState.start(0, 50, [], 0.2), ValueError, "row count m must be an integer"),
    (lambda: OnlineState.start(2.0, 50, np.ones(2), 0.2), ValueError,
     "row count m must be an integer"),
    (lambda: OnlineState.start(True, 50, np.ones(1), 0.2), ValueError,
     "row count m must be an integer"),
    (lambda: OnlineState.start(2, 50.5, np.ones(2), 0.2), ValueError, "n must be an integer"),
    (lambda: OnlineState.start(2, 0, np.ones(2), 0.2), ValueError, "n must be an integer"),
    (lambda: OnlineState.start(2, True, np.ones(2), 0.2), ValueError, "n must be an integer"),
    (lambda: h_factor(10, 100, 0.0), ValueError, "eps must be in"),
    (lambda: h_factor(10, 100, 1.0), ValueError, "eps must be in"),
    (lambda: h_factor(True, 100, 0.1), ValueError, "ell must be an integer >= 1, got True"),
    (lambda: h_factor(10.0, 100, 0.1), ValueError, "ell must be an integer >= 1, got 10.0"),
    (lambda: sample_lp(unit_instance([3.0, 2.0, 1.0], 1.0), True), ValueError,
     "ell must be an integer >= 1, got True"),
    (lambda: sample_lp(unit_instance([3.0, 2.0, 1.0], 1.0), 2.0), ValueError,
     "ell must be an integer >= 1, got 2.0"),
    (lambda: sample_lp(unit_instance([3.0, 2.0, 1.0], 1.0), 4), ValueError,
     r"ell must be in \[1, n\], got ell=4, n=3"),
    (lambda: learn_price(unit_instance([3.0, 2.0, 1.0], 1.0), 1.0, 0.1), ValueError,
     "ell must be an integer >= 1, got 1.0"),
], ids=["step column size", "step multi column", "start b shape", "start b negative",
        "start b nan", "start b inf", "start b zero", "start no rows", "start m fractional",
        "start m bool", "start n fractional", "start n zero", "start n bool", "h_factor eps 0",
        "h_factor eps 1", "h_factor ell bool", "h_factor ell float", "sample_lp ell bool",
        "sample_lp ell float", "sample_lp ell past n", "learn_price ell float"])
def test_rejected_input(make, exc, match):
    with pytest.raises(exc, match=match):
        make()


class TestAllocationRule:
    def test_strict_threshold(self):
        price = DualPrice(p=np.array([2.0]))
        assert allocation_rule(price, Column(pi=2.1, a=np.array([1.0]))) == 1
        assert allocation_rule(price, Column(pi=2.0, a=np.array([1.0]))) == 0
        assert allocation_rule(price, Column(pi=1.9, a=np.array([1.0]))) == 0

    def test_zero_price_takes_any_paying_column(self):
        price = DualPrice(p=np.zeros(2))
        assert allocation_rule(price, Column(pi=0.01, a=np.array([1.0, 1.0]))) == 1
        assert allocation_rule(price, Column(pi=0.0, a=np.array([0.5, 0.5]))) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            allocation_rule(DualPrice(p=np.zeros(2)), Column(pi=1.0, a=np.array([1.0])))

    def test_largest_admissible_price_decides_silently(self):
        """At a price whose total is just finite, the one-arrival paths decide as price_rule."""
        price = DualPrice(p=np.array([1e308, 0.7e308]))
        rewards = np.array([1.0, 1.6e308, 1.7e308, 1.75e308, 1.79e308])
        want = price_rule(price.p, rewards[:, None], np.ones((rewards.size, 1, 2)))
        assert (want == 0).any() and (want == -1).any()
        state = OnlineState.start(2, rewards.size, np.full(2, 10.0), 0.4, "ola")
        state.prices_used.append((state.schedule[0][0], price))  # every arrival meets this price
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pi, r in zip(rewards.tolist(), want.tolist()):
                col = Column(pi=pi, a=np.ones(2))
                assert allocation_rule(price, col) == int(r == 0)
                assert multi_allocation_rule(price, MultiColumn(f=[pi], G=np.ones((2, 1)))) == (
                    0 if r == 0 else None)
                assert step(state, col)[0] == int(r == 0)


def assert_decide_matches_loop(p, rewards, consumption, lo, hi, remaining):
    """``decide`` and the one-arrival loop give the same choices, remaining and rejections."""
    got_left, want_left = remaining.copy(), remaining.copy()
    got, want = np.full(rewards.shape[0], -1), np.full(rewards.shape[0], -1)
    got_rejected = decide(p, rewards, consumption, lo, hi, got_left, got)
    # ``decide`` runs outside any errstate, so an overflow warning it lets out
    # fails the test; the reference loop's own warnings are not its concern.
    with np.errstate(over="ignore", invalid="ignore"):
        want_rejected = decide_loop(p, rewards.tolist(), consumption, lo, hi, want_left, want)
    assert got_rejected == want_rejected
    assert np.array_equal(got, want)
    assert got_left.tobytes() == want_left.tobytes()
    return got, got_rejected


def numpy_build() -> str:
    """numpy's version and the BLAS it was built with, for failure messages."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 prints its config and returns None
        return f"numpy {np.__version__}"
    return f"numpy {np.__version__} with BLAS {blas.get('name')} {blas.get('version')}"


DECIDE_SPECS = {
    "routing": GenSpec("routing", 3, dict(m=5, n=400, q=0.5, capacity=20.0)),
    "secretary heavy tail": GenSpec("secretary", 4, dict(
        n=400, k=20, reward_dist="heavy_tail", sigma=7.0)),
    "adwords k=3": GenSpec("adwords", 2, dict(n=400, m=3)),
    "yield": GenSpec("yield", 5, dict(horizon=100.0, rate=6.0)),
}


class TestDecide:
    """The vector ``decide`` against the one-arrival loop of ``_oracles``, bit for bit."""

    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_stacked_product_is_the_per_option_dot(self, k):
        """``decide``'s premise: each stacked product item is ``choose``'s ``p.dot``, bitwise."""
        rng = np.random.default_rng(k)
        h, products = 12, []
        for m in range(1, 51):
            # Entries over 400 decades, some zero: products under- and overflow.
            p = rng.random(m) * 10.0 ** rng.integers(-200, 200, m)
            G = rng.random((h, k, m)) * 10.0 ** rng.integers(-200, 200, (h, k, m))
            p[rng.random(m) < 0.1], G[rng.random(G.shape) < 0.1] = 0.0, 0.0
            wide = np.zeros((h, k, 2 * m))
            wide[..., ::2] = G
            for layout, C in (("C", G), ("Fortran", np.asfortranarray(G)),
                              ("strided", wide[..., ::2])):
                with np.errstate(over="ignore"):
                    got = (C[..., None, :] @ p[:, None])[..., 0, 0]
                    want = np.array([[float(p.dot(C[i, j])) for j in range(k)] for i in range(h)])
                differ = int((got.view(np.int64) != want.view(np.int64)).sum())
                assert differ == 0, (
                    f"m={m} k={k} {layout}: {differ} of {got.size} stacked products differ "
                    f"from p.dot under {numpy_build()}")
                products.append(got)
        products = np.concatenate([q.reshape(-1) for q in products])
        finite = products[np.isfinite(products)]
        assert finite.size < products.size and (finite > 1e200).any() and (finite < 1e-200).any()

    @pytest.mark.parametrize("kind", DECIDE_SPECS)
    def test_matches_loop(self, kind):
        inst = generate(DECIDE_SPECS[kind])
        rewards, consumption = options(inst)
        n, m = inst.n, inst.m
        if kind == "secretary heavy tail":
            assert rewards.max() / rewards.min() > 1e12
        prices = [learn_price(inst, n // 10, 0.1).dual, learn_price(inst, n // 2, 0.05).dual,
                  np.zeros(m)]
        for p in prices:
            for remaining in (inst.b, 0.05 * inst.b, np.full(m, np.inf)):
                for lo, hi in ((0, n), (n // 10, n), (n // 3, n // 2), (n // 2, n // 2),
                               (n - 1, n)):
                    assert_decide_matches_loop(p, rewards, consumption, lo, hi, remaining)

    @pytest.mark.parametrize("kind", DECIDE_SPECS)
    def test_price_rule_is_the_unlimited_loop(self, kind):
        inst = generate(DECIDE_SPECS[kind])
        rewards, consumption = options(inst)
        p = learn_price(inst, inst.n // 10, 0.1).dual
        want, rejected = assert_decide_matches_loop(
            p, rewards, consumption, 0, inst.n, np.full(inst.m, np.inf))
        assert rejected == 0
        assert np.array_equal(price_rule(p, rewards, consumption), want)

    def test_rounding_ties_are_decided_without_choose(self, monkeypatch):
        """Adwords has surpluses zero up to rounding, routing none; neither calls ``choose``."""
        calls = []
        choose = engine.choose
        monkeypatch.setattr(engine, "choose", lambda *a: calls.append(1) or choose(*a))
        for kind, ties in (("routing", False), ("adwords k=3", True)):
            inst = generate(DECIDE_SPECS[kind])
            rewards, consumption = options(inst)
            ell = inst.n // 10
            p = learn_price(inst, ell, 0.1).dual
            f = rewards[ell:]
            priced = np.array([[float(p.dot(a)) for a in arrival] for arrival in consumption[ell:]])
            rounding = 4 * (inst.m + 2) * 2.0**-53 * (f + priced)
            assert bool((np.abs(f - priced) <= rounding).any()) == ties, kind
            assert_decide_matches_loop(p, rewards, consumption, ell, inst.n, inst.b)
        assert calls == []

    def test_hand_made_near_ties(self):
        one, up = 1.0, np.nextafter(1.0, 2.0)
        cases = [
            # (price, rewards of the k = 2 options, their consumption, expected option)
            ([0.0], [one, up], [[0.5], [0.5]], 1),        # one ulp apart
            ([0.0], [up, one], [[0.5], [0.5]], 0),
            ([0.0], [one, one], [[0.5], [0.5]], 0),       # equal: the lowest index
            ([2.0], [1.0, 0.5], [[0.5], [0.25]], -1),     # both priced exactly at their reward
            ([2.0], [1.0, up / 2], [[0.5], [0.25]], 1),   # the first priced exactly
            ([2.0], [np.nextafter(1.0, 0.0), 1.0], [[0.5], [0.5]], -1),
            ([1.0, 1.0], [0.3, 0.3], [[0.1, 0.2], [0.2, 0.1]], None),
            ([0.1, 0.7], [0.3, 0.3], [[0.3, 0.3], [0.6, 0.0]], None),
        ]
        for p, f, cols, expected in cases:
            rewards = np.array([f])
            consumption = np.array([cols], dtype=np.float64)
            p = np.array(p)
            got, _ = assert_decide_matches_loop(p, rewards, consumption, 0, 1, np.ones(p.size))
            if expected is not None:
                assert got[0] == expected, (p, f, cols)

    def test_ties_where_the_product_rounds_differently(self):
        """Rewards set to the per-option dot itself, where the matrix product differs in the last bit."""
        rng = np.random.default_rng(0)
        p, consumption = rng.random(5), rng.random((400, 2, 5))
        dots = np.array([[float(p.dot(col)) for col in arrival] for arrival in consumption])
        assert (consumption.reshape(-1, 5) @ p != dots.reshape(-1)).sum() > 100
        # priced exactly at its reward: every arrival is declined
        got, _ = assert_decide_matches_loop(p, dots[:, :1], consumption[:, :1], 0, 400,
                                            np.full(5, np.inf))
        assert (got == -1).all()
        # two options whose surpluses tie or differ in the last bits
        assert_decide_matches_loop(p, dots + 0.5, consumption, 0, 400, np.full(5, np.inf))
        assert_decide_matches_loop(p, dots + 0.5, consumption, 0, 400, np.full(5, 20.0))

    def test_overflowing_prices(self):
        """Prices near the largest double: surpluses of -inf, and NaN against an infinite reward."""
        rng = np.random.default_rng(1)
        p = np.array([1e308, 0.0, 0.5e308])
        consumption = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=(300, 3, 3))
        rewards = rng.choice([0.0, 1.0, 1e307, 1.7e308, np.inf], size=(300, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            priced = consumption @ p
            assert np.isinf(priced).any() and np.isnan(rewards - priced).any()
        for remaining in (np.full(3, np.inf), np.full(3, 20.0)):
            got, _ = assert_decide_matches_loop(p, rewards, consumption, 0, 300, remaining)
        assert (got >= 0).any() and (got == -1).any()

    @pytest.mark.parametrize("kind", ["routing", "adwords k=3"])
    def test_consumption_that_is_not_c_contiguous(self, kind):
        inst = generate(DECIDE_SPECS[kind])
        rewards, consumption = options(inst)
        wide = np.zeros(consumption.shape[:2] + (2 * inst.m,))
        wide[..., ::2] = consumption
        # Fortran order, a strided slice, and a transposed copy (rows strided by k)
        layouts = [np.asfortranarray(consumption), wide[..., ::2],
                   np.ascontiguousarray(consumption.transpose(0, 2, 1)).transpose(0, 2, 1)]
        assert not any(G.flags.c_contiguous for G in layouts[:2])
        p = learn_price(inst, inst.n // 10, 0.1).dual
        for G in layouts:
            for remaining in (inst.b, np.full(inst.m, np.inf)):
                assert_decide_matches_loop(p, rewards, G, inst.n // 10, inst.n, remaining)

    def test_rejection_dense_guard(self):
        """Capacity 40 and a zero price: nearly every one of 20000 arrivals is a guard rejection."""
        inst = generate(GenSpec("routing", 0, dict(m=5, n=20000, q=0.5, capacity=40.0)))
        rewards, consumption = options(inst)
        _, rejected = assert_decide_matches_loop(
            np.zeros(inst.m), rewards, consumption, 0, inst.n, inst.b)
        assert rejected > 19000

    def test_guard_with_a_rejection_after_every_accept(self):
        """Each small column makes the next large one miss by half a small one."""
        n = 2000
        small = 0.5 / n
        a = np.empty(n)
        a[0::2] = small
        a[1::2] = 1.0 - (np.arange(n // 2) + 0.5) * small
        _, rejected = assert_decide_matches_loop(
            np.zeros(1), np.ones((n, 1)), a[:, None, None].copy(), 0, n, np.ones(1))
        assert rejected == n // 2


class TestLearnPrice:
    def test_degenerate_tie_uses_bound_flip_convention(self):
        # Four unit columns, b=2, prefix of two with no shrink: the prefix
        # capacity (2/4)*2 = 1 takes exactly the best column, and the price
        # lands on the reward of the next column entering at value zero.
        inst = unit_instance([4.0, 3.0, 2.0, 1.0], 2.0)
        price = learn_price(inst, 2, 0.0).dual
        assert price[0] == pytest.approx(3.0)

    def test_price_of_fractional_column(self):
        inst = unit_instance([5.0, 1.0], 3.0)
        # ell=2, shrink=0: capacity 3, two columns -> both fit, price 0.
        assert learn_price(inst, 2, 0.0).dual[0] == pytest.approx(0.0)

    def test_shrink_tightens_capacity(self):
        inst = unit_instance([5.0, 1.0], 2.0)
        # capacity (1-0.5)*(2/2)*2 = 1, so only the 5 fits; its box binds
        # and the next column (reward 1) sets the price.
        assert learn_price(inst, 2, 0.5).dual[0] == pytest.approx(1.0)

    def test_sample_lp_shape_and_rhs(self):
        rng = np.random.default_rng(0)
        inst = Instance(m=2, n=10, b=np.array([3.0, 4.0]),
                        rewards=rng.uniform(0, 1, 10),
                        consumption=rng.uniform(0, 1, (10, 2)))
        lp = sample_lp(inst, 4, 0.25)
        assert lp.A.shape == (2, 4)
        np.testing.assert_allclose(lp.d, 0.75 * 0.4 * inst.b)
        sol = solve_boxed_lp(lp)
        assert sol.objective >= 0.0

    def test_price_is_the_solvers_dual(self):
        """The row prices come back as the solver certified them, bit for bit."""
        for inst in (generate(GenSpec("routing", 1, dict(m=5, n=400, q=0.5, capacity=40.0))),
                     generate(GenSpec("adwords", 1, dict(n=200, m=3)))):
            for ell, shrink in ((20, 0.3), (100, 0.1), (inst.n, 0.0)):
                sol = solve_boxed_lp(sample_lp(inst, ell, shrink))
                assert learn_price(inst, ell, shrink).dual.tobytes() == sol.dual.tobytes()

    def test_validation(self):
        inst = unit_instance([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            learn_price(inst, 0, 0.1)
        with pytest.raises(ValueError):
            learn_price(inst, 3, 0.1)
        with pytest.raises(ValueError):
            learn_price(inst, 2, 1.0)


class TestRunOla:
    def test_hand_replay(self):
        # n=10, b=3, eps=0.2: window=2, price = max of the first two rewards
        # (the larger one is basic at the fractional capacity 0.48).
        inst = unit_instance([5, 7, 9, 6, 8, 10, 3, 11, 12, 4], 3.0)
        res = run_ola(inst, 0.2)
        assert len(res.prices_used) == 1
        ell, price = res.prices_used[0]
        assert ell == 2
        assert price.p[0] == pytest.approx(7.0)
        # accepts 9, 8, 10; then capacity is gone and the guard declines 11, 12
        np.testing.assert_array_equal(
            res.decisions, [0, 0, 1, 0, 1, 1, 0, 0, 0, 0]
        )
        assert res.objective == pytest.approx(27.0)
        np.testing.assert_allclose(res.fill, [3.0])

    def test_learning_window_always_declines(self):
        rng = np.random.default_rng(1)
        inst = Instance(m=2, n=40, b=np.array([5.0, 6.0]),
                        rewards=rng.uniform(0, 2, 40),
                        consumption=rng.uniform(0, 1, (40, 2)))
        res = run_ola(inst, 0.2)
        assert np.all(res.decisions[:8] == 0)

    def test_guard_blocks_partial_fit(self):
        # Learned price is low, capacity 1, columns consume 0.6: the second
        # paying column would overfill, so the guard declines it.
        inst = Instance(m=1, n=5, b=np.array([1.0]),
                        rewards=np.array([0.1, 1.0, 1.0, 1.0, 1.0]),
                        consumption=np.full((5, 1), 0.6))
        res = run_ola(inst, 0.2)
        np.testing.assert_array_equal(res.decisions, [0, 1, 0, 0, 0])
        assert res.fill[0] == pytest.approx(0.6)

    def test_degenerate_window_raises(self):
        inst = unit_instance([1.0, 2.0, 3.0], 1.0)
        with pytest.raises(DegenerateWindow):
            run_ola(inst, 0.05)


class TestRunDpa:
    def test_price_updates_follow_schedule(self):
        rng = np.random.default_rng(3)
        inst = Instance(m=1, n=64, b=np.array([12.0]),
                        rewards=rng.uniform(0, 1, 64),
                        consumption=rng.uniform(0.1, 1, (64, 1)))
        res = run_dpa(inst, 0.25)
        assert [ell for ell, _ in res.prices_used] == [16, 32]
        assert np.all(res.decisions[:16] == 0)
        assert np.all(res.fill <= inst.b)

    def test_uses_h_factor_shrink(self):
        inst = unit_instance([4.0, 3.0, 2.0, 1.0] * 4, 8.0)
        res = run_dpa(inst, 0.25)
        ell0, price0 = res.prices_used[0]
        assert ell0 == 4
        expected = learn_price(inst, 4, h_factor(4, 16, 0.25))
        assert np.array_equal(price0.p, expected.dual)

    def test_feasible_on_random_instances(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(30, 90))
            m = int(rng.integers(1, 4))
            inst = Instance(m=m, n=n, b=rng.uniform(2, 6, m),
                            rewards=rng.uniform(0, 3, n),
                            consumption=rng.uniform(0, 1, (n, m)))
            res = run_dpa(inst, 0.15)
            assert np.all(res.fill <= inst.b)
            assert np.isin(res.decisions, [0, 1]).all()


def cold_learn(inst, ell, shrink, start):
    """The learner with the warm start left out: every checkpoint solves from y = 0."""
    return learn_price(inst, ell, shrink)


class TestWarmStart:
    @pytest.mark.parametrize("kind, params", [
        ("secretary", dict(n=2000, k=100, reward_dist="uniform")),
        ("secretary", dict(n=2000, k=100, reward_dist="heavy_tail")),
        ("routing", dict(m=1, n=2000, q=0.5, capacity=200.0))])
    def test_one_row_runs_are_the_cold_walks(self, kind, params):
        """At m = 1 the warm start keeps the smallest optimal price: prices and choices bitwise."""
        for seed in range(6):
            inst = generate(GenSpec(kind, seed, params))
            for eps in (0.05, 0.1, 0.2):
                warm, cold = run_dpa(inst, eps), run_epochs(inst, eps, "dpa", cold_learn)
                assert np.array_equal(warm.choices, cold.choices), (seed, eps)
                assert [(ell, p.p.tobytes()) for ell, p in warm.prices_used] == [
                    (ell, p.p.tobytes()) for ell, p in cold.prices_used], (seed, eps)

    def test_stream_solves_start_warm_on_routing(self):
        """The stream keeps each checkpoint's solution; warm, DPA takes <= 0.8x the iterations."""
        spec = GenSpec("routing", 0, dict(m=5, n=2000, q=0.5, capacity=200.0))
        inst = shuffle(generate(spec), 1)
        state = OnlineState.start(inst.m, inst.n, inst.b, 0.1, "dpa")
        for col in inst.columns():
            step(state, col)
        points = schedule(inst.n, 0.1, "dpa")
        assert len(state.solves) == len(points)
        for (ell, price), sol in zip(state.prices_used, state.solves):
            assert price.p.tobytes() == sol.dual.tobytes()
        cold = [learn_price(inst, ell, shrink) for ell, shrink in points]
        assert state.solves[0].stats == cold[0].stats  # the first checkpoint has no start
        warm_total = sum(sol.stats.iterations for sol in state.solves)
        cold_total = sum(sol.stats.iterations for sol in cold)
        assert warm_total <= 0.8 * cold_total, (warm_total, cold_total)


class TestStreaming:
    def test_matches_batch_replay(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 60))
            m = int(rng.integers(1, 4))
            inst = Instance(m=m, n=n, b=rng.uniform(1.5, 5, m),
                            rewards=rng.uniform(0, 2, n),
                            consumption=rng.uniform(0, 1, (n, m)))
            batch = run_dpa(inst, 0.2)
            state = OnlineState.start(m, n, inst.b, 0.2, mode="dpa")
            stream = []
            for col in inst.columns():
                decision, state = step(state, col)
                stream.append(decision)
            assert np.array_equal(np.array(stream, dtype=np.int8), batch.decisions)
            # both sides derive fill as b - remaining, so this is bitwise
            assert np.array_equal(inst.b - state.remaining, batch.fill)
            assert [ell for ell, _ in state.prices_used] == [ell for ell, _ in batch.prices_used]
            for (_, ps), (_, pb) in zip(state.prices_used, batch.prices_used):
                assert np.array_equal(ps.p, pb.p)

    def test_ola_mode_matches_run_ola(self):
        cases = [(unit_instance([5, 7, 9, 6, 8, 10, 3, 11, 12, 4], 3.0), 0.2)]
        for seed in range(12):
            inst = generate(GenSpec(kind="routing", seed=60 + seed, params=dict(
                m=1 + seed % 3, n=120 + 20 * seed, q=0.5, capacity=3.0)))
            cases.append((inst, (0.05, 0.1, 0.2)[seed % 3]))
        for inst, eps in cases:
            batch = run_ola(inst, eps)
            state = OnlineState.start(inst.m, inst.n, inst.b, eps, mode="ola")
            stream = [step(state, col)[0] for col in inst.columns()]
            assert np.array_equal(np.array(stream, dtype=np.int8), batch.decisions)
            assert np.array_equal(inst.b - state.remaining, batch.fill)
            assert [ell for ell, _ in state.prices_used] == [ell for ell, _ in batch.prices_used]
            for (_, ps), (_, pb) in zip(state.prices_used, batch.prices_used):
                assert np.array_equal(ps.p, pb.p)
            # the guard must have blocked a column the rule accepted
            (window, price), = batch.prices_used
            blocked = [
                t for t, col in enumerate(inst.columns())
                if t >= window and allocation_rule(price, col) and not stream[t]
            ]
            assert blocked, (inst.meta, eps)

    @pytest.mark.parametrize("mode", ["dpa", "ola"])
    def test_arrivals_after_the_last_checkpoint_are_not_stored(self, mode):
        inst = generate(GenSpec(kind="routing", seed=5, params=dict(
            m=3, n=200, q=0.5, capacity=5.0)))
        state = OnlineState.start(inst.m, inst.n, inst.b, 0.1, mode=mode)
        for col in inst.columns():
            step(state, col)
        last = state.schedule[-1][0]
        assert np.array_equal(state.inst.rewards[:last], inst.rewards[:last])
        assert np.array_equal(state.inst.consumption[:last], inst.consumption[:last])
        assert not state.inst.rewards[last:].any()
        assert not state.inst.consumption[last:].any()

    def test_stream_exhausted(self):
        inst = unit_instance([1.0, 2.0], 1.0)
        state = OnlineState.start(1, 2, inst.b, 0.5)
        for col in inst.columns():
            _, state = step(state, col)
        with pytest.raises(StreamExhausted):
            step(state, Column(pi=1.0, a=np.array([1.0])))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            OnlineState.start(1, 10, np.array([2.0]), 0.2, mode="other")


class TestCheckInputCondition:
    def _inst(self, b0=1000.0, n=128):
        rng = np.random.default_rng(2)
        return Instance(m=2, n=n, b=np.array([b0, b0 * 2]),
                        rewards=rng.uniform(0.5, 1.5, n),
                        consumption=rng.uniform(0.1, 1, (n, 2)))

    def test_dpa_formula(self):
        inst = self._inst()
        rep = check_input_condition(inst, 0.25, "dpa")
        assert rep.rhs == pytest.approx(20 * 2 * math.log(128) / 0.25 ** 2)
        assert rep.lhs == pytest.approx(1000.0)
        assert rep.satisfied == (rep.lhs >= rep.rhs)

    def test_ola_formula(self):
        rep = check_input_condition(self._inst(), 0.25, "ola")
        assert rep.rhs == pytest.approx(6 * 2 * math.log(128 / 0.25) / 0.25 ** 3)

    def test_ola_needs_more_capacity_than_dpa(self):
        inst = self._inst()
        for eps in (0.05, 0.1, 0.2):
            ola = check_input_condition(inst, eps, "ola")
            dpa = check_input_condition(inst, eps, "dpa")
            assert ola.rhs > dpa.rhs

    def test_satisfied_flips_with_capacity(self):
        big = check_input_condition(self._inst(b0=1e6), 0.3, "dpa")
        small = check_input_condition(self._inst(b0=5.0), 0.3, "dpa")
        assert big.satisfied and not small.satisfied

    def test_corollary_needs_positive_rewards(self):
        inst = self._inst()
        inst.rewards[0] = 0.0
        with pytest.raises(NonpositiveReward):
            check_input_condition(inst, 0.2, "corollary")

    def test_corollary_formula_with_clamp(self):
        inst = self._inst()
        rep = check_input_condition(inst, 0.2, "corollary")
        ratio = inst.rewards.max() / inst.rewards.min()
        lam = math.log(max(math.log(ratio), 1.0))
        assert rep.rhs == pytest.approx(
            20 * (2 * lam + 4 * math.log(5.0)) / 0.04
        )

    def test_corollary_clamps_small_reward_spread(self):
        # max/min reward below e makes the inner log < 1; it clamps to 1,
        # so lambda = 0 and only the m^2 log(1/eps) term remains.
        inst = Instance(m=1, n=4, b=np.array([3.0]),
                        rewards=np.array([1.0, 1.2, 1.4, 1.5]),
                        consumption=np.full((4, 1), 0.5))
        rep = check_input_condition(inst, 0.2, "corollary")
        assert rep.rhs == pytest.approx(20 * math.log(5.0) / 0.04)

    def test_per_row_ignores_unconsumed_rows(self):
        inst = self._inst()
        inst.consumption[:, 1] = 0.0  # row 1 never consumed
        rep = check_input_condition(inst, 0.2, "per_row")
        abar0 = inst.consumption[:, 0].max()
        assert rep.lhs == pytest.approx(inst.b[0] / abar0)

    def test_per_row_reads_every_option_of_a_multi_choice_instance(self):
        consumption = np.full((4, 2, 3), 0.1)
        consumption[2, 0, 2] = 0.5  # row 0's largest entry: option 2 of a later arrival
        consumption[1, 1, 0] = 0.25  # row 1's largest entry
        inst = MultiInstance(m=2, n=4, k=3, b=np.array([1.0, 3.0]),
                             rewards=np.ones((4, 3)), consumption=consumption)
        # b / abar = (2, 12): row 0 is the worst
        assert check_input_condition(inst, 0.2, "per_row").lhs == 2.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            check_input_condition(self._inst(), 0.2, "bogus")

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            check_input_condition(self._inst(), 1.0, "dpa")
