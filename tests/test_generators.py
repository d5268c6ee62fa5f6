import math

import numpy as np
import pytest

from onlinelp import (
    BadSpec,
    GenSpec,
    Instance,
    MultiInstance,
    adwords_to_multi,
    check_input_condition,
    gen_adwords,
    gen_routing,
    gen_secretary,
    gen_yield,
    generate,
    instance_from_json,
    instance_to_json,
    load_instance,
    perturb_rewards,
    save_instance,
    shuffle,
)
from onlinelp.generators import GENERATORS


class TestRouting:
    def test_shapes_and_ranges(self):
        inst = gen_routing(m=4, n=200, q=0.4, capacity=15.0, seed=0)
        assert isinstance(inst, Instance)
        assert inst.consumption.shape == (200, 4)
        assert set(np.unique(inst.consumption)) <= {0.0, 1.0}
        assert np.all((inst.rewards >= 0.5) & (inst.rewards < 1.5))
        np.testing.assert_array_equal(inst.b, np.full(4, 15.0))

    def test_no_empty_paths(self):
        # all-zero rows are redrawn, so every request uses at least one edge
        for seed in range(5):
            inst = gen_routing(m=3, n=150, q=0.2, capacity=10.0, seed=seed)
            assert inst.consumption.sum(axis=1).min() >= 1.0

    def test_edge_usage_matches_conditional_mean(self):
        # Entries are Bernoulli(q) conditioned on a nonzero row, so the
        # entry mean is q / (1 - (1-q)^m): 0.5333... at q=0.5, m=4.
        inst = gen_routing(m=4, n=5000, q=0.5, capacity=50.0, seed=3)
        target = 0.5 / (1.0 - 0.5 ** 4)
        assert inst.consumption.mean() == pytest.approx(target, abs=0.012)

    def test_deterministic(self):
        a = gen_routing(m=3, n=80, q=0.5, capacity=8.0, seed=11)
        b = gen_routing(m=3, n=80, q=0.5, capacity=8.0, seed=11)
        c = gen_routing(m=3, n=80, q=0.5, capacity=8.0, seed=12)
        assert np.array_equal(a.consumption, b.consumption)
        assert np.array_equal(a.rewards, b.rewards)
        assert not np.array_equal(a.rewards, c.rewards)

    def test_rejects_bad_params(self):
        with pytest.raises(BadSpec):
            gen_routing(m=0, n=10, q=0.5, capacity=5.0)
        with pytest.raises(BadSpec):
            gen_routing(m=2, n=10, q=0.0, capacity=5.0)
        with pytest.raises(BadSpec):
            gen_routing(m=2, n=10, q=0.5, capacity=-1.0)


class TestSecretary:
    def test_unit_consumption_and_budget(self):
        inst = gen_secretary(n=300, k=25, seed=1)
        np.testing.assert_array_equal(inst.b, [25.0])
        assert np.all(inst.consumption == 1.0)
        assert inst.m == 1

    def test_uniform_rewards_in_range(self):
        inst = gen_secretary(n=500, k=10, reward_lo=2.0, reward_hi=5.0, seed=2)
        assert inst.rewards.min() >= 2.0
        assert inst.rewards.max() < 5.0

    def test_heavy_tail_is_skewed(self):
        inst = gen_secretary(n=4000, k=10, reward_dist="heavy_tail",
                             sigma=3.0, seed=3)
        assert inst.rewards.min() > 0.0
        # lognormal(0, 3): mean far above median
        assert inst.rewards.mean() > 5 * np.median(inst.rewards)

    def test_unknown_distribution(self):
        with pytest.raises(BadSpec):
            gen_secretary(n=10, k=2, reward_dist="cauchy")

    def test_k_bounded_by_n(self):
        with pytest.raises(BadSpec):
            gen_secretary(n=10, k=11)


class TestAdwords:
    def test_fraction_budget_rule(self):
        inst = gen_adwords(n=400, m=4, budget_rule="fraction", budget=0.3, seed=4)
        bids, budgets = inst.rewards, inst.meta["budgets_original"]
        assert bids.shape == (400, 4)
        np.testing.assert_allclose(
            budgets, 0.3 * (400 / 4) * bids.mean(axis=0)
        )

    def test_meet_satisfies_per_row_condition(self):
        inst = gen_adwords(n=250, m=2, budget_rule="meet", condition_eps=0.3, seed=5)
        rep = check_input_condition(inst, 0.3, "per_row")
        assert rep.satisfied

    def test_miss_fails_per_row_condition(self):
        inst = gen_adwords(n=250, m=2, budget_rule="miss", condition_eps=0.3, seed=5)
        rep = check_input_condition(inst, 0.3, "per_row")
        assert not rep.satisfied

    def test_bids_in_range(self):
        bids = gen_adwords(n=100, m=3, bid_lo=0.2, bid_hi=0.9, seed=6).rewards
        assert bids.min() >= 0.2 and bids.max() < 0.9


class TestYield:
    def test_poisson_arrival_count(self):
        for seed in range(4):
            inst = gen_yield(horizon=40.0, rate=20.0, seed=seed)
            mean = 40.0 * 20.0
            assert abs(inst.n - mean) < 4 * math.sqrt(mean)
            assert inst.meta["realized_n"] == inst.n

    def test_product_structure(self):
        inst = gen_yield(horizon=10.0, rate=15.0, n_products=4,
                         n_resources=3, capacity=30.0, seed=7)
        assert inst.m == 3
        np.testing.assert_array_equal(inst.b, np.full(3, 30.0))
        # every arrival consumes one of at most n_products fixed bundles
        bundles = np.unique(inst.consumption, axis=0)
        assert bundles.shape[0] <= 4

    def test_rewards_scale_with_base_price(self):
        inst = gen_yield(horizon=20.0, rate=10.0, price_lo=5.0, price_hi=6.0,
                         seed=8)
        # base in [5,6), jitter in [0.8, 1.2)
        assert inst.rewards.min() >= 4.0
        assert inst.rewards.max() < 7.2

    def test_zero_poisson_count_is_redrawn(self):
        # Poisson(1) draws 0 first at seed 2; the count is drawn again.
        inst = gen_yield(horizon=1.0, rate=1.0, seed=2)
        assert inst.n >= 1
        assert inst.meta["realized_n"] == inst.n

    def test_rejects_bad_params(self):
        with pytest.raises(BadSpec):
            gen_yield(horizon=0.0, rate=10.0)
        with pytest.raises(BadSpec):
            gen_yield(horizon=10.0, rate=-1.0)


# Each family's uniform bounds, as (kind, required parameters, upper bound);
# the lower bound is its "_lo" twin.
UNIFORM_BOUNDS = [
    ("routing", dict(m=2, n=5, q=0.5, capacity=1.0), "reward_hi"),
    ("secretary", dict(n=5, k=2), "reward_hi"),
    ("adwords", dict(n=5, m=2), "bid_hi"),
    ("yield", dict(horizon=5.0, rate=2.0), "price_hi"),
]


@pytest.mark.parametrize("kind, params, hi", UNIFORM_BOUNDS, ids=[b[0] for b in UNIFORM_BOUNDS])
@pytest.mark.parametrize("both", [False, True], ids=["hi", "lo and hi"])
def test_infinite_uniform_bound_is_bad_spec(kind, params, hi, both):
    lo = hi.replace("_hi", "_lo")
    bounds = {hi: math.inf, lo: math.inf} if both else {hi: math.inf}
    # The signature lists the lower bound first, so it is the one named.
    with pytest.raises(BadSpec, match=f"^{lo if both else hi} must be a real number"):
        GENERATORS[kind](**params, **bounds)


@pytest.mark.parametrize("make, exc, match", [
    (lambda: gen_adwords(n=5, m=2, budget_rule="other"), BadSpec, "unknown budget_rule"),
    (lambda: adwords_to_multi(np.ones(3), np.ones(3)), ValueError, "n-by-m table"),
    (lambda: adwords_to_multi([[-0.5, 1.0]], np.ones(2)), ValueError, "finite and nonnegative"),
    (lambda: shuffle(gen_secretary(n=5, k=1), True), ValueError, "seed must be an integer >= 0"),
    (lambda: shuffle(gen_secretary(n=5, k=1), 1.5), ValueError, "seed must be an integer >= 0"),
    (lambda: shuffle(gen_secretary(n=5, k=1), -1), ValueError, "seed must be an integer >= 0"),
    *[(lambda kind=kind, params=params, seed=seed: generate(GenSpec(kind, seed, params)),
       ValueError, "seed must be an integer >= 0")
      for kind, params, _ in UNIFORM_BOUNDS for seed in (True, 1.5, -1)],
    (lambda: gen_adwords(10, 2, seed=True), ValueError, "seed must be an integer >= 0"),
    (lambda: gen_secretary(n=10, k=2.5), BadSpec, "k must be an integer >= 1"),
    (lambda: gen_secretary(n=10, k=True), BadSpec, "k must be an integer >= 1"),
    (lambda: gen_routing(m=2.5, n=10, q=0.5, capacity=5.0), BadSpec, "m must be an integer >= 1"),
    (lambda: gen_routing(m=0, n=10, q=0.5, capacity=5.0), BadSpec, "m must be an integer >= 1"),
    (lambda: gen_routing(m=2, n=True, q=0.5, capacity=5.0), BadSpec, "n must be an integer >= 1"),
    (lambda: gen_adwords(n=10, m=2.0), BadSpec, "m must be an integer >= 1"),
    (lambda: gen_yield(horizon=5.0, rate=2.0, n_products=2.5), BadSpec,
     "n_products must be an integer >= 1"),
    (lambda: gen_routing(m=2, n=10, q=True, capacity=5.0), BadSpec, "q must be a real number"),
    (lambda: gen_routing(m=2, n=10, q=0.5, capacity=True), BadSpec,
     "capacity must be a real number"),
    (lambda: gen_yield(horizon=5.0, rate=True), BadSpec, "rate must be a real number"),
    (lambda: generate(GenSpec("routing", 0, dict(m=3, n="10", q=0.5, capacity=5.0))), BadSpec,
     "n must be an integer >= 1"),
    (lambda: generate(GenSpec("routing", 0, dict(m=3, n=10, q="0.5", capacity=5.0))), BadSpec,
     "q must be a real number"),
    (lambda: gen_routing(m=2, n=5, q=0.5, capacity=math.inf), BadSpec,
     "^capacity must be a real number, finite"),
    (lambda: gen_yield(horizon=5.0, rate=2.0, capacity=math.inf), BadSpec,
     "^capacity must be a real number, finite"),
    (lambda: gen_routing(m=2, n=5, q=0.5, capacity=10**400), BadSpec,
     "^capacity must be a real number, finite"),
    (lambda: gen_routing(m=2, n=5, q=0.5, capacity=10**5000), BadSpec,
     "^capacity must be a real number, finite"),
    (lambda: gen_yield(horizon=math.inf, rate=2.0), BadSpec,
     "^horizon must be a real number, finite"),
    (lambda: gen_secretary(n=5, k=2, reward_dist="heavy_tail", sigma=math.inf), BadSpec,
     "^sigma must be a real number, finite"),
    (lambda: gen_adwords(n=5, m=2, budget=math.inf), BadSpec,
     "^budget must be a real number, finite"),
    (lambda: gen_secretary(n=5, k=2, sigma=-1.0), BadSpec, "^sigma must be positive"),
    (lambda: gen_secretary(n=5, k=2, reward_dist="heavy_tail", reward_lo=5.0, reward_hi=1.0),
     BadSpec, "^need 0 <= reward_lo <= reward_hi"),
    (lambda: gen_adwords(n=5, m=2, budget_rule="meet", budget=-1.0), BadSpec,
     "^budget must be positive"),
    (lambda: gen_routing(m=2, q=0.5, capacity=1.0), BadSpec,
     "^missing parameters for routing: \\['n'\\]$"),
    (lambda: gen_routing(m=2, n=3, q=0.5, capacity=1.0, zeal=1), BadSpec,
     "^unknown parameters for routing: \\['zeal'\\]$"),
    *[(lambda big=big: gen_yield(horizon=big, rate=big), BadSpec,
       "^rate\\*horizon = .* lower rate or horizon$") for big in (1e10, 1e200)],
    (lambda: gen_secretary(n=5, k=2, reward_dist="heavy_tail", sigma=1e300), BadSpec, "^sigma = "),
    (lambda: gen_secretary(n=50, k=2, reward_dist="heavy_tail", sigma=800.0), BadSpec, "^sigma = "),
    *[(lambda n=n: gen_routing(m=2, n=n, q=0.5, capacity=1.0), BadSpec,
       "^n must be an integer >= 1") for n in (10**5000, 2**63)],
], ids=["unknown budget_rule", "1-D bid table", "negative bid", "bool shuffle seed",
        "fractional shuffle seed", "negative shuffle seed",
        *(f"{kind} seed {seed!r}" for kind, _, _ in UNIFORM_BOUNDS for seed in (True, 1.5, -1)),
        "bool gen_adwords seed", "fractional secretary k", "bool secretary k",
        "fractional routing m", "zero routing m", "bool routing n", "float adwords m",
        "fractional yield n_products", "bool routing q", "bool routing capacity",
        "bool yield rate", "string routing n", "string routing q", "infinite routing capacity",
        "infinite yield capacity", "routing capacity past float range",
        "routing capacity past the int str limit", "infinite yield horizon",
        "infinite heavy-tail sigma", "infinite adwords budget", "negative uniform sigma",
        "reversed heavy-tail reward bounds", "negative meet budget",
        "direct call missing n", "direct call unknown zeal", "yield rate*horizon 1e20",
        "infinite yield rate*horizon", "heavy-tail sigma 1e300", "heavy-tail sigma 800",
        "routing n past the int str limit", "routing n past sys.maxsize"])
def test_rejected_input(make, exc, match):
    with pytest.raises(exc, match=match):
        make()


class TestShuffle:
    def test_preserves_column_multiset(self):
        inst = gen_routing(m=3, n=60, q=0.5, capacity=10.0, seed=9)
        shuf = shuffle(inst, 123)
        assert not np.array_equal(shuf.rewards, inst.rewards)
        assert np.array_equal(np.sort(shuf.rewards), np.sort(inst.rewards))
        # same pairing of reward and consumption after reordering
        order = np.argsort(shuf.rewards)
        base = np.argsort(inst.rewards)
        assert np.array_equal(shuf.consumption[order], inst.consumption[base])

    def test_multi_instance_shuffles_arrivals(self):
        inst = generate(GenSpec(kind="adwords", seed=1, params={"n": 30, "m": 2}))
        shuf = shuffle(inst, 77)
        assert isinstance(shuf, MultiInstance)
        assert np.array_equal(
            np.sort(shuf.rewards.sum(axis=1)), np.sort(inst.rewards.sum(axis=1))
        )

    def test_uniform_over_permutations(self):
        # chi-squared over the 6 orders of a 3-column instance; seeds are
        # fixed so the statistic is a constant — this guards the
        # permutation sampler, not the RNG.
        inst = Instance(m=1, n=3, b=np.array([1.0]),
                        rewards=np.array([1.0, 2.0, 3.0]),
                        consumption=np.full((3, 1), 0.5))
        counts = {}
        for seed in range(6000):
            key = tuple(shuffle(inst, seed).rewards)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = 1000.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 30.0

    def test_seed_recorded(self):
        inst = gen_secretary(n=20, k=3, seed=0)
        assert shuffle(inst, 5).meta["shuffle_seed"] == 5


class TestGenerate:
    def test_dispatch_matches_direct_call(self):
        spec = GenSpec(kind="secretary", seed=2, params={"n": 50, "k": 5})
        inst = generate(spec)
        direct = gen_secretary(n=50, k=5, seed=2)
        assert np.array_equal(inst.rewards, direct.rewards)
        assert inst.meta["kind"] == "secretary"
        assert inst.meta["seed"] == 2 and inst.meta["k"] == 5

    def test_adwords_returns_runnable_instance(self):
        inst = generate(GenSpec(kind="adwords", seed=3, params={"n": 40, "m": 3}))
        assert isinstance(inst, MultiInstance)
        assert inst.k == 3

    def test_unknown_kind(self):
        with pytest.raises(BadSpec):
            generate(GenSpec(kind="matching", params={"n": 10}))

    def test_unknown_param(self):
        with pytest.raises(BadSpec):
            generate(GenSpec(kind="secretary", params={"n": 10, "k": 2, "zeal": 1}))

    def test_missing_required_param(self):
        with pytest.raises(BadSpec):
            generate(GenSpec(kind="routing", params={"m": 3}))

    def test_missing_param_is_named(self):
        with pytest.raises(BadSpec, match="missing parameters for routing: \\['capacity'\\]"):
            generate(GenSpec(kind="routing", params=dict(m=3, n=10, q=0.5)))

    def test_wrongly_typed_value_is_not_called_incomplete(self):
        spec = GenSpec("routing", params=dict(m=3, n="10", q=0.5, capacity=5.0))
        with pytest.raises(BadSpec, match="^n must be") as exc:
            generate(spec)
        assert "incomplete" not in str(exc.value)

    def test_numpy_scalar_params_save_and_reload(self, tmp_path):
        spec = GenSpec("routing", np.int64(1),
                       dict(m=np.int64(3), n=50, q=np.float64(0.5), capacity=5.0))
        inst = generate(spec)
        assert type(inst.meta["m"]) is int and type(inst.meta["q"]) is float
        assert type(inst.meta["seed"]) is int
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.meta == inst.meta
        assert np.array_equal(back.rewards, inst.rewards)
        ads = generate(GenSpec("adwords", 2, dict(n=np.int64(20), m=np.int32(3))))
        assert (ads.meta["n"], ads.meta["m"]) == (20, 3)
        assert type(ads.meta["n"]) is int and type(ads.meta["m"]) is int
        assert instance_from_json(instance_to_json(ads)).meta == ads.meta
        shuffled = shuffle(inst, np.int64(4))
        assert type(shuffled.meta["shuffle_seed"]) is int
        perturbed = perturb_rewards(ads, np.float64(1e-9), np.int64(5))
        assert perturbed.meta["perturbation"] == {"eta": 1e-9, "seed": 5}
        assert type(perturbed.meta["perturbation"]["eta"]) is float
        assert type(perturbed.meta["perturbation"]["seed"]) is int
        for other in (shuffled, perturbed):
            assert instance_from_json(instance_to_json(other)).meta == other.meta

    def test_seed_is_not_a_param(self):
        with pytest.raises(BadSpec, match="unknown parameters"):
            generate(GenSpec(kind="secretary", params={"n": 10, "k": 2, "seed": 1}))
