"""Seeded instance families for experiments and benchmarks.

Four families: network-routing style 0/1 consumption columns, single-knapsack
"secretary" columns, adwords bid tables (converted to multi-choice
instances by ``adwords_to_multi``), and a yield-management stream with
Poisson arrival counts.  All randomness flows through
``numpy.random.default_rng(seed)``, so every family regenerates
bit-identically for a fixed seed, and each instance records its generating
parameters in ``meta``.

``GENERATORS`` maps each kind to its generator, whose signature is the only
record of the family's parameters: ``generate`` checks specs against it and
the CLI derives its ``gen`` flags from it.  The module builds instances
only: it imports ``errors`` and ``model``, none of the policy or the solver.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .errors import AllZeroBids, BadSpec
from .model import Instance, MultiInstance

__all__ = [
    "GenSpec",
    "GENERATORS",
    "gen_parameters",
    "generate",
    "gen_routing",
    "gen_secretary",
    "gen_adwords",
    "gen_yield",
    "adwords_to_multi",
    "shuffle",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BadSpec(msg)


def gen_routing(
    m: int,
    n: int,
    q: float,
    capacity: float,
    reward_lo: float = 0.5,
    reward_hi: float = 1.5,
    seed: int = 0,
) -> Instance:
    """Columns with Bernoulli(q) 0/1 consumption per row and uniform rewards.

    Every column uses at least one row: all-zero draws are redrawn, so the
    per-entry mean conditional on inclusion is q / (1 - (1-q)^m), not q.
    """
    _require(m >= 1 and n >= 1, f"need m >= 1 and n >= 1, got m={m}, n={n}")
    _require(0.0 < q <= 1.0, f"q must be in (0, 1], got {q}")
    _require(capacity > 0.0, f"capacity must be positive, got {capacity}")
    _require(0.0 <= reward_lo <= reward_hi, "need 0 <= reward_lo <= reward_hi")
    rng = np.random.default_rng(seed)
    paths = (rng.random((n, m)) < q).astype(np.float64)
    while True:
        empty = np.flatnonzero(paths.sum(axis=1) == 0.0)
        if empty.size == 0:
            break
        paths[empty] = (rng.random((empty.size, m)) < q).astype(np.float64)
    rewards = rng.uniform(reward_lo, reward_hi, n)
    return Instance(
        m=m, n=n, b=np.full(m, float(capacity)),
        rewards=rewards, consumption=paths,
        meta={
            "kind": "routing", "m": m, "n": n, "q": q, "capacity": capacity,
            "reward_lo": reward_lo, "reward_hi": reward_hi, "seed": seed,
        },
    )


def gen_secretary(
    n: int,
    k: int,
    reward_dist: Literal["uniform", "heavy_tail"] = "uniform",
    reward_lo: float = 0.0,
    reward_hi: float = 1.0,
    sigma: float = 3.0,
    seed: int = 0,
) -> Instance:
    """Single row, unit consumption, capacity k: choose at most k of n rewards.

    ``reward_dist`` is "uniform" on [reward_lo, reward_hi] or "heavy_tail"
    (lognormal with the given sigma), the latter concentrating most of the
    optimal value in a few columns.
    """
    _require(n >= 1, f"need n >= 1, got {n}")
    _require(1 <= k <= n, f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    if reward_dist == "uniform":
        _require(0.0 <= reward_lo <= reward_hi, "need 0 <= reward_lo <= reward_hi")
        rewards = rng.uniform(reward_lo, reward_hi, n)
    elif reward_dist == "heavy_tail":
        _require(sigma > 0.0, f"sigma must be positive, got {sigma}")
        rewards = rng.lognormal(0.0, sigma, n)
    else:
        raise BadSpec(f"unknown reward_dist {reward_dist!r}")
    return Instance(
        m=1, n=n, b=np.array([float(k)]),
        rewards=rewards, consumption=np.ones((n, 1)),
        meta={
            "kind": "secretary", "n": n, "k": k, "reward_dist": reward_dist,
            "reward_lo": reward_lo, "reward_hi": reward_hi, "sigma": sigma,
            "seed": seed,
        },
    )


def gen_adwords(
    n: int,
    m: int,
    bid_lo: float = 0.1,
    bid_hi: float = 1.0,
    budget_rule: Literal["fraction", "meet", "miss"] = "fraction",
    budget: float = 0.3,
    condition_eps: float = 0.1,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """An n-by-m uniform bid table plus per-bidder budgets.

    budget_rule:
      * "fraction": bidder i gets ``budget * (n/m) * mean_bid_i``, a binding
        budget when ``budget`` is well under 1.
      * "meet" / "miss": budgets sized just above / well below the
        per-bidder capacity threshold that the theory asks for at
        ``condition_eps`` (the stricter of m*log(m*n/eps)/eps^2 and the
        per_row check's 20*m*log(n/eps)/eps^2, times the bidder's max bid).

    Returns the raw (bids, budgets) pair; feed it to adwords_to_multi to get
    a runnable instance.
    """
    _require(n >= 1 and m >= 1, f"need n >= 1 and m >= 1, got n={n}, m={m}")
    _require(0.0 <= bid_lo <= bid_hi, "need 0 <= bid_lo <= bid_hi")
    _require(0.0 < condition_eps < 1.0, f"condition_eps must be in (0, 1), got {condition_eps}")
    rng = np.random.default_rng(seed)
    bids = rng.uniform(bid_lo, bid_hi, (n, m))
    if budget_rule == "fraction":
        _require(budget > 0.0, f"budget fraction must be positive, got {budget}")
        budgets = budget * (n / m) * bids.mean(axis=0)
    elif budget_rule in ("meet", "miss"):
        eps = condition_eps
        per_unit = max(
            m * math.log(m * n / eps) / eps**2,
            20.0 * m * math.log(n / eps) / eps**2,
        )
        factor = 1.05 if budget_rule == "meet" else 0.25
        budgets = factor * per_unit * bids.max(axis=0)
    else:
        raise BadSpec(f"unknown budget_rule {budget_rule!r}")
    return bids, budgets


def adwords_to_multi(bids, budgets) -> MultiInstance:
    """Map an n-by-m bid table with per-bidder budgets to a multi-choice instance.

    Query ``t`` becomes an arrival with k = m options (one per bidder):
    option ``i`` pays ``bids[t, i]`` in original units and consumes
    ``bids[t, i] / max_bid_i`` of bidder i's budget row, where ``max_bid_i``
    is bidder i's largest bid anywhere in the table.  Budget rows are scaled
    by the same factor so all consumption lands in [0, 1].  The scale
    factors are recorded in the instance metadata.

    Raises AllZeroBids if the whole table is zero.  Bidders who never bid
    keep their budget row unscaled (their options are never worth taking).
    """
    bids = np.asarray(bids, dtype=np.float64)
    budgets = np.asarray(budgets, dtype=np.float64)
    if bids.ndim != 2:
        raise ValueError(f"bids must be an n-by-m table, got shape {bids.shape}")
    n, m = bids.shape
    if budgets.shape != (m,):
        raise ValueError(f"budgets has shape {budgets.shape}, expected ({m},)")
    if not np.all(np.isfinite(bids)) or bids.min() < 0.0:
        raise ValueError("bids must be finite and nonnegative")
    if bids.max() <= 0.0:
        raise AllZeroBids("every bid in the table is zero")
    scale = bids.max(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    consumption = np.zeros((n, m, m))
    idx = np.arange(m)
    consumption[:, idx, idx] = bids / scale
    return MultiInstance(
        m=m, n=n, k=m, b=budgets / scale,
        rewards=bids.copy(), consumption=consumption,
        meta={
            "kind": "adwords",
            "row_scale": [float(v) for v in scale],
            "budgets_original": [float(v) for v in budgets],
        },
    )


def gen_yield(
    horizon: float,
    rate: float,
    n_products: int = 5,
    n_resources: int = 3,
    capacity: float = 50.0,
    price_lo: float = 0.5,
    price_hi: float = 1.5,
    seed: int = 0,
) -> Instance:
    """Poisson-many requests over a booking horizon, one product each.

    The arrival count n is a Poisson(rate * horizon) draw (redrawn in the
    zero-probability event n = 0), each request picks a product uniformly,
    pays a price jittered within 20 percent of the product's base price, and
    consumes the product's fixed resource bundle (entries in [0, 1]).
    """
    _require(horizon > 0.0 and rate > 0.0, "need horizon > 0 and rate > 0")
    _require(rate * horizon >= 1.0, f"rate*horizon must be >= 1, got {rate * horizon}")
    _require(n_products >= 1 and n_resources >= 1, "need at least one product and resource")
    _require(capacity > 0.0, f"capacity must be positive, got {capacity}")
    _require(0.0 <= price_lo <= price_hi, "need 0 <= price_lo <= price_hi")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * horizon))
    while n < 1:
        n = int(rng.poisson(rate * horizon))
    usage = rng.uniform(0.0, 1.0, (n_products, n_resources))
    base = rng.uniform(price_lo, price_hi, n_products)
    kinds = rng.integers(0, n_products, n)
    rewards = base[kinds] * rng.uniform(0.8, 1.2, n)
    return Instance(
        m=n_resources, n=n, b=np.full(n_resources, float(capacity)),
        rewards=rewards, consumption=usage[kinds],
        meta={
            "kind": "yield", "horizon": horizon, "rate": rate,
            "n_products": n_products, "n_resources": n_resources,
            "capacity": capacity, "price_lo": price_lo, "price_hi": price_hi,
            "seed": seed, "realized_n": n,
        },
    )


def shuffle(inst: Instance | MultiInstance, seed: int):
    """Uniform random permutation of the columns (seeded Fisher-Yates)."""
    perm = np.random.default_rng(seed).permutation(inst.n)
    meta = dict(inst.meta or {})
    meta["shuffle_seed"] = seed
    return replace(
        inst, b=inst.b.copy(), rewards=inst.rewards[perm],
        consumption=inst.consumption[perm], meta=meta,
    )


@dataclass(frozen=True)
class GenSpec:
    """A generator request: family name, seed, and family-specific parameters."""

    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)


GENERATORS = {
    "routing": gen_routing,
    "secretary": gen_secretary,
    "adwords": gen_adwords,
    "yield": gen_yield,
}


def gen_parameters(kind: str) -> dict[str, inspect.Parameter]:
    """The keyword parameters of ``kind``'s generator but ``seed``, annotations evaluated."""
    params = dict(inspect.signature(GENERATORS[kind], eval_str=True).parameters)
    del params["seed"]
    return params


def generate(spec: GenSpec) -> Instance | MultiInstance:
    """Materialize a GenSpec; adwords specs come back as multi-choice instances.

    BadSpec names an unknown kind and any unknown or missing parameter.
    """
    if spec.kind not in GENERATORS:
        raise BadSpec(f"unknown generator kind {spec.kind!r}")
    params = gen_parameters(spec.kind)
    unknown = set(spec.params) - set(params)
    if unknown:
        raise BadSpec(f"unknown parameters for {spec.kind}: {sorted(unknown)}")
    missing = [name for name, par in params.items()
               if par.default is par.empty and name not in spec.params]
    if missing:
        raise BadSpec(f"missing parameters for {spec.kind}: {missing}")
    # numpy scalars become Python values, so the recorded meta saves as JSON.
    plain = {name: _plain(value) for name, value in spec.params.items()}
    seed = _plain(spec.seed)
    out = GENERATORS[spec.kind](seed=seed, **plain)
    if spec.kind != "adwords":
        return out
    inst = adwords_to_multi(*out)
    inst.meta.update({"params": plain, "seed": seed})
    return inst


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value
