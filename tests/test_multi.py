import numpy as np
import pytest

from onlinelp import (
    AllZeroBids,
    DimensionMismatch,
    DualPrice,
    GenSpec,
    Instance,
    MultiColumn,
    MultiInstance,
    adwords_to_multi,
    generate,
    greedy_baseline,
    lemma_kkt_oracle,
    multi_allocation_rule,
    offline_opt,
    perturb_rewards,
    run_dpa,
    run_dpa_multi,
    sample_lp,
    shuffle,
    solve_boxed_lp,
)
from onlinelp.multi import learn_price_multi


def random_multi(seed, n=40, m=2, k=3, b_scale=4.0):
    rng = np.random.default_rng(seed)
    return MultiInstance(
        m=m, n=n, k=k,
        b=rng.uniform(0.5, 1.0, m) * b_scale,
        rewards=rng.uniform(0, 2, (n, k)),
        consumption=rng.uniform(0, 1, (n, m, k)),
    )


def as_multi(inst: Instance) -> MultiInstance:
    """Embed a scalar instance as k=1 (one real option per arrival)."""
    return MultiInstance(
        m=inst.m, n=inst.n, k=1, b=inst.b.copy(),
        rewards=inst.rewards.reshape(-1, 1).copy(),
        consumption=inst.consumption.reshape(inst.n, inst.m, 1).copy(),
    )


class TestRule:
    def test_all_scores_nonpositive_declines(self):
        price = DualPrice(p=np.zeros(1))
        col = MultiColumn(f=np.zeros(3), G=np.zeros((1, 3)))
        assert multi_allocation_rule(price, col) is None

    def test_picks_largest_surplus(self):
        price = DualPrice(p=np.array([0.5]))
        col = MultiColumn(f=np.array([3.0, 1.0]), G=np.array([[1.0, 0.2]]))
        # surpluses 2.5 and 0.9
        assert multi_allocation_rule(price, col) == 0

    def test_tie_breaks_to_lowest_index(self):
        price = DualPrice(p=np.array([1.0]))
        col = MultiColumn(f=np.array([0.5, 2.0, 2.0]),
                          G=np.array([[1.0, 1.0, 1.0]]))
        # surpluses -0.5, 1.0, 1.0: options 1 and 2 tie, lowest wins
        assert multi_allocation_rule(price, col) == 1

    def test_priced_out_option_never_wins(self):
        # The best raw reward is exactly priced (surplus 0): not strictly
        # positive, so the other option wins despite the smaller surplus.
        price = DualPrice(p=np.array([2.0]))
        col = MultiColumn(f=np.array([2.0, 0.5]), G=np.array([[1.0, 0.1]]))
        assert multi_allocation_rule(price, col) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multi_allocation_rule(DualPrice(p=np.zeros(2)),
                                  MultiColumn(f=np.ones(2), G=np.ones((1, 2))))


class TestFlatten:
    def test_k1_has_no_simplex_rows(self):
        inst = random_multi(0, k=1)
        lp = sample_lp(inst)
        assert lp.A.shape == (inst.m, inst.n)
        assert lp.k == 1

    def test_k3_groups_options_per_arrival(self):
        inst = random_multi(1, n=12, k=3)
        lp = sample_lp(inst)
        # only the resource rows: each arrival's options form one implicit group
        assert lp.A.shape == (inst.m, 12 * 3)
        assert lp.k == 3
        # the consumption tensor laid out t-major
        np.testing.assert_array_equal(
            lp.A, np.transpose(inst.consumption, (1, 0, 2)).reshape(inst.m, -1)
        )
        np.testing.assert_array_equal(lp.c, inst.rewards.reshape(-1))
        np.testing.assert_array_equal(lp.d, inst.b)

    def test_prefix_rhs_shrinks(self):
        inst = random_multi(2, n=20, k=2)
        lp = sample_lp(inst, ell=5, shrink=0.2)
        np.testing.assert_allclose(lp.d, 0.8 * 0.25 * inst.b)
        assert lp.A.shape == (inst.m, 10)
        assert lp.k == 2

    def test_simplex_rows_bind_at_most_one_per_arrival(self):
        inst = random_multi(3, n=15, k=3, b_scale=30.0)  # loose resources
        sol = solve_boxed_lp(sample_lp(inst))
        x = sol.x.reshape(15, 3)
        assert np.all(x.sum(axis=1) <= 1.0 + 1e-9)

    def test_learn_price_multi_returns_resource_prices_only(self):
        inst = random_multi(4, n=30, k=2)
        price = learn_price_multi(inst, 10, 0.3)
        assert price.p.shape == (inst.m,)
        assert price.p.min() >= 0.0


class TestRunDpaMulti:
    def test_feasible_and_one_hot(self):
        for seed in range(8):
            inst = random_multi(seed, n=60, k=3)
            res = run_dpa_multi(inst, 0.15)
            assert np.all(res.fill <= inst.b)
            assert res.choices.min() >= -1 and res.choices.max() < inst.k
            chosen = res.choices >= 0
            expect = inst.rewards[np.flatnonzero(chosen),
                                  res.choices[chosen]].sum()
            assert res.objective == pytest.approx(expect)

    def test_window_declines(self):
        inst = random_multi(11, n=50, k=2)
        res = run_dpa_multi(inst, 0.2)
        assert np.all(res.choices[:10] == -1)

    def test_k1_reduction_is_exact(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 70))
            m = int(rng.integers(1, 4))
            inst = Instance(m=m, n=n, b=rng.uniform(2, 7, m),
                            rewards=rng.uniform(0, 2, n),
                            consumption=rng.uniform(0, 1, (n, m)))
            minst = as_multi(inst)
            pairs = [
                (run_dpa(inst, 0.2), run_dpa_multi(minst, 0.2)),
                (greedy_baseline(inst), greedy_baseline(minst)),
            ]
            for scalar, multi in pairs:
                np.testing.assert_array_equal(
                    scalar.decisions.astype(np.int64),
                    (multi.choices == 0).astype(np.int64),
                )
                assert multi.objective == scalar.objective  # bitwise
                assert np.array_equal(multi.fill, scalar.fill)
                for (ls, ps), (lm, pm) in zip(scalar.prices_used, multi.prices_used):
                    assert ls == lm
                    assert np.array_equal(ps.p, pm.p)
            for eta in (0.0, None):
                assert lemma_kkt_oracle(inst, eta, seed) == lemma_kkt_oracle(minst, eta, seed)
            for ell, shrink in ((n, 0.0), (n // 3, 0.3)):
                lp, flat = sample_lp(inst, ell, shrink), sample_lp(minst, ell, shrink)
                for name in ("c", "A", "d"):
                    assert getattr(lp, name).tobytes() == getattr(flat, name).tobytes()
            (v, x, p), (vm, xm, pm) = offline_opt(inst), offline_opt(minst)
            assert v == vm and np.array_equal(p.p, pm.p)
            assert x.shape == (n,) and xm.shape == (n, 1)
            assert np.array_equal(x, xm[:, 0])
            copies = [(shuffle(inst, seed), shuffle(minst, seed))] + [
                (perturb_rewards(inst, eta, seed), perturb_rewards(minst, eta, seed))
                for eta in (0.0, None)
            ]
            for scalar, multi in copies:
                assert np.array_equal(scalar.rewards, multi.rewards[:, 0])
                assert np.array_equal(scalar.consumption, multi.consumption[:, :, 0])

    def test_run_dpa_keeps_the_option_index(self):
        minst = generate(GenSpec(kind="adwords", seed=4, params={"n": 200, "m": 3}))
        via_scalar_name, via_multi = run_dpa(minst, 0.1), run_dpa_multi(minst, 0.1)
        assert via_multi.choices.max() > 0  # some arrival took an option past the first
        assert via_scalar_name.choices.tobytes() == via_multi.choices.tobytes()
        assert via_scalar_name.objective == via_multi.objective


class TestAdwords:
    def test_hand_mapping(self):
        bids = np.array([[1.0, 2.0], [3.0, 4.0]])
        inst = adwords_to_multi(bids, np.array([4.0, 8.0]))
        assert inst.m == 2 and inst.k == 2 and inst.n == 2
        np.testing.assert_allclose(inst.b, [4 / 3, 2.0])
        np.testing.assert_array_equal(inst.rewards, bids)
        np.testing.assert_allclose(
            inst.consumption[0], [[1 / 3, 0.0], [0.0, 0.5]]
        )
        np.testing.assert_allclose(
            inst.consumption[1], [[1.0, 0.0], [0.0, 1.0]]
        )
        assert inst.meta["row_scale"] == [3.0, 4.0]
        assert inst.meta["budgets_original"] == [4.0, 8.0]

    def test_objective_is_in_original_bid_units(self):
        rng = np.random.default_rng(9)
        bids = rng.uniform(0.1, 1.0, (80, 2))
        budgets = np.array([6.0, 7.0])
        inst = adwords_to_multi(bids, budgets)
        res = run_dpa_multi(inst, 0.2)
        taken = res.choices >= 0
        spent = bids[np.flatnonzero(taken), res.choices[taken]]
        assert res.objective == pytest.approx(spent.sum())
        # scaled fill within scaled budgets <=> spend within budgets
        assert np.all(res.fill <= inst.b)

    def test_bidder_with_no_bids_is_priced_out(self):
        bids = np.array([[0.5, 0.0], [0.7, 0.0], [0.2, 0.0]])
        inst = adwords_to_multi(bids, np.array([1.0, 1.0]))
        # option 1 pays zero always; the rule never strictly prefers it
        res = run_dpa_multi(inst, 0.4)
        assert not np.any(res.choices == 1)

    def test_all_zero_bids_rejected(self):
        with pytest.raises(AllZeroBids):
            adwords_to_multi(np.zeros((3, 2)), np.ones(2))

    def test_shape_checks(self):
        with pytest.raises(Exception):
            adwords_to_multi(np.ones((3, 2)), np.ones(3))
