"""Seeded instance families for experiments and benchmarks.

Four families: network-routing style 0/1 consumption columns, single-knapsack
"secretary" columns, adwords bid tables (returned as multi-choice instances
by ``adwords_to_multi``), and a yield-management stream with Poisson arrival
counts.  All randomness flows through ``numpy.random.default_rng(seed)``, so
every family regenerates bit-identically for a fixed seed.

``GENERATORS`` maps each kind to its generator, whose signature is the only
record of the family's parameters: every call, direct or through
``generate``, checks its arguments against the annotations (a ``float`` is
a finite real) and records them in the instance's ``meta``, and the CLI
derives its ``gen`` flags from it.  Every family range holds whatever the
``Literal`` choices.  The module builds instances only: it imports
``errors`` and ``model``, none of the policy or the solver.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Literal, get_args, get_origin

import numpy as np

from .errors import AllZeroBids, BadSpec
from .model import Instance, MultiInstance, check_seed

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


GENERATORS: dict = {}


def _generator(kind: str):
    """Register a ``gen_*`` as ``GENERATORS[kind]``, its signature evaluated once.

    Each call names unknown and missing parameters, binds the arguments with
    their defaults and checks each against its annotation: ``seed`` with
    ``check_seed`` (ValueError), every other ``int`` as a count from 1 to
    ``sys.maxsize``, every ``float`` as a finite real and every ``Literal``
    as one of its choices (BadSpec).  A count within the rule whose array
    numpy cannot address ends in numpy's ValueError, and one whose array
    numpy cannot allocate in MemoryError.  The instance's ``meta`` is the
    kind, every argument and what the generator adds.
    """

    def register(gen):
        sig = inspect.signature(gen, eval_str=True)

        @functools.wraps(gen)
        def checked(*args, **kwargs):
            unknown = set(kwargs) - set(sig.parameters)
            _require(not unknown, f"unknown parameters for {kind}: {sorted(unknown)}")
            bound = sig.bind_partial(*args, **kwargs)
            missing = [name for name, par in sig.parameters.items()
                       if par.default is par.empty and name not in bound.arguments]
            _require(not missing, f"missing parameters for {kind}: {missing}")
            bound.apply_defaults()
            # numpy scalars become Python values, so the recorded meta saves as JSON.
            values = {name: _plain(value) for name, value in bound.arguments.items()}
            for name, value in values.items():
                _check_argument(name, sig.parameters[name].annotation, value)
            inst = gen(**values)
            inst.meta = {"kind": kind, **values, **(inst.meta or {})}
            return inst

        checked.__signature__ = sig
        GENERATORS[kind] = checked
        return checked

    return register


def _check_argument(name: str, annotation, value) -> None:
    if name == "seed":
        check_seed(name, value)
    elif get_origin(annotation) is Literal:
        _require(value in get_args(annotation), f"unknown {name} {value!r}")
    elif annotation is int:
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= sys.maxsize:
            # sys.maxsize is numpy's largest dimension; a larger count's repr
            # may be past the 4300 digits that int-to-str conversion allows.
            big = isinstance(value, int) and value > sys.maxsize
            got = "an int past sys.maxsize, numpy's largest dimension" if big else repr(value)
            raise BadSpec(f"{name} must be an integer >= 1, got {got}")
    elif not (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max):
        # Such an int is past float range, and its repr may be past the
        # 4300 digits that int-to-str conversion allows.
        got = "an int past float range" if type(value) is int else repr(value)
        raise BadSpec(f"{name} must be a real number, finite in float range, got {got}")


@_generator("routing")
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
    return Instance(m=m, n=n, b=np.full(m, float(capacity)), rewards=rewards, consumption=paths)


@_generator("secretary")
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
    _require(k <= n, f"need k <= n, got k={k}, n={n}")
    _require(0.0 <= reward_lo <= reward_hi, "need 0 <= reward_lo <= reward_hi")
    _require(sigma > 0.0, f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    rewards = (rng.uniform(reward_lo, reward_hi, n) if reward_dist == "uniform"
               else rng.lognormal(0.0, sigma, n))
    _require(np.isfinite(rewards).all(),
             f"sigma = {sigma} draws rewards past float range; lower sigma")
    return Instance(m=1, n=n, b=np.array([float(k)]), rewards=rewards, consumption=np.ones((n, 1)))


@_generator("adwords")
def gen_adwords(
    n: int,
    m: int,
    bid_lo: float = 0.1,
    bid_hi: float = 1.0,
    budget_rule: Literal["fraction", "meet", "miss"] = "fraction",
    budget: float = 0.3,
    condition_eps: float = 0.1,
    seed: int = 0,
) -> MultiInstance:
    """An n-by-m uniform bid table plus per-bidder budgets, as a multi-choice instance.

    budget_rule:
      * "fraction": bidder i gets ``budget * (n/m) * mean_bid_i``, a binding
        budget when ``budget`` is well under 1.
      * "meet" / "miss": budgets sized just above / well below the
        per-bidder capacity threshold that the theory asks for at
        ``condition_eps`` (the stricter of m*log(m*n/eps)/eps^2 and the
        per_row check's 20*m*log(n/eps)/eps^2, times the bidder's max bid).

    Returns ``adwords_to_multi(bids, budgets)``: the bids are its rewards, and
    its ``meta`` adds the budgets in bid units and each bidder's row scale.
    """
    _require(0.0 <= bid_lo <= bid_hi, "need 0 <= bid_lo <= bid_hi")
    _require(0.0 < condition_eps < 1.0, f"condition_eps must be in (0, 1), got {condition_eps}")
    _require(budget > 0.0, f"budget must be positive, got {budget}")
    rng = np.random.default_rng(seed)
    bids = rng.uniform(bid_lo, bid_hi, (n, m))
    if budget_rule == "fraction":
        budgets = budget * (n / m) * bids.mean(axis=0)
    else:
        eps = condition_eps
        per_unit = max(
            m * math.log(m * n / eps) / eps**2,
            20.0 * m * math.log(n / eps) / eps**2,
        )
        factor = 1.05 if budget_rule == "meet" else 0.25
        budgets = factor * per_unit * bids.max(axis=0)
    return adwords_to_multi(bids, budgets)


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


@_generator("yield")
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

    The arrival count n is a Poisson(rate * horizon) draw, repeated until
    n >= 1 (a draw is 0 with probability exp(-rate * horizon)); each request
    picks a product uniformly, pays its base price jittered within 20 percent,
    and consumes its fixed resource bundle (entries in [0, 1]).
    """
    _require(horizon > 0.0 and rate > 0.0, "need horizon > 0 and rate > 0")
    _require(rate * horizon >= 1.0, f"rate*horizon must be >= 1, got {rate * horizon}")
    _require(capacity > 0.0, f"capacity must be positive, got {capacity}")
    _require(0.0 <= price_lo <= price_hi, "need 0 <= price_lo <= price_hi")
    rng = np.random.default_rng(seed)
    try:
        n = int(rng.poisson(rate * horizon))
    except ValueError:  # numpy refuses a mean past its largest draw
        raise BadSpec(f"rate*horizon = {rate * horizon} is past numpy's Poisson range; "
                      "lower rate or horizon") from None
    while n < 1:
        n = int(rng.poisson(rate * horizon))
    usage = rng.uniform(0.0, 1.0, (n_products, n_resources))
    base = rng.uniform(price_lo, price_hi, n_products)
    kinds = rng.integers(0, n_products, n)
    rewards = base[kinds] * rng.uniform(0.8, 1.2, n)
    return Instance(
        m=n_resources, n=n, b=np.full(n_resources, float(capacity)),
        rewards=rewards, consumption=usage[kinds], meta={"realized_n": n},
    )


def shuffle(inst: Instance | MultiInstance, seed: int):
    """Uniform random permutation of the columns (seeded Fisher-Yates; seed an integer >= 0)."""
    check_seed("seed", seed)
    perm = np.random.default_rng(seed).permutation(inst.n)
    meta = dict(inst.meta or {})
    meta["shuffle_seed"] = _plain(seed)
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


def gen_parameters(kind: str) -> dict[str, inspect.Parameter]:
    """The keyword parameters of ``kind``'s generator but ``seed``, annotations evaluated."""
    params = dict(GENERATORS[kind].__signature__.parameters)
    del params["seed"]
    return params


def generate(spec: GenSpec) -> Instance | MultiInstance:
    """Materialize a GenSpec with its kind's generator.

    BadSpec names an unknown kind or a ``seed`` in ``params``; the generator checks the rest.
    """
    _require(spec.kind in GENERATORS, f"unknown generator kind {spec.kind!r}")
    _require("seed" not in spec.params, f"unknown parameters for {spec.kind}: ['seed']")
    return GENERATORS[spec.kind](seed=spec.seed, **spec.params)


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value
