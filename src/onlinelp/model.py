"""Domain types for online allocation instances and run outcomes.

An instance is a fixed-capacity allocation problem: ``n`` columns arrive one
at a time, column ``t`` carries a reward ``pi_t >= 0`` and a consumption
vector ``a_t`` in ``[0, 1]^m``, and row ``i`` has capacity ``b_i > 0``.  The
multi-choice variant replaces the scalar decision with a pick among ``k``
options per arrival (reward vector ``f_t``, consumption matrix ``G_t``).

Columns are stored as dense arrays; a scalar instance is read by the
policies as the multi-choice one with k = 1.  :class:`Column` is one
arrival of the streaming API (``engine.step``) and :class:`MultiColumn` one
multi-choice arrival for ``multi_allocation_rule``.  A run of any policy
returns one :class:`RunResult`.  JSON serialization writes reals with 17
significant digits so files round-trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, ParseError

__all__ = [
    "Column",
    "Instance",
    "MultiColumn",
    "MultiInstance",
    "DualPrice",
    "RunResult",
    "instance_to_json",
    "instance_from_json",
    "load_instance",
    "save_instance",
]


def real(x: float) -> str:
    """A float with 17 significant digits: enough to round-trip float64."""
    return format(float(x), ".17g")


def onehot(choices, k: int) -> np.ndarray:
    """Choices as an (n, k) array of 0.0 / 1.0."""
    out = np.zeros((choices.size, k))
    taken = np.flatnonzero(choices >= 0)
    out[taken, choices[taken]] = 1.0
    return out


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_entries(rewards: np.ndarray, consumption: np.ndarray) -> None:
    """The entry checks of every arrival type and instance.

    Rewards must be finite and nonnegative, consumption entries in [0, 1];
    the comparisons are written so that NaN fails them.
    """
    if rewards.size and not (rewards.min() >= 0.0 and rewards.max() < np.inf):
        raise ValueError("rewards must be finite and nonnegative")
    if consumption.size and not (consumption.min() >= 0.0 and consumption.max() <= 1.0):
        raise ValueError("consumption entries must lie in [0, 1]")


@dataclass(frozen=True)
class Column:
    """One arrival: reward ``pi`` and per-row consumption ``a`` in [0, 1]^m."""

    pi: float
    a: np.ndarray

    def __post_init__(self):
        pi = float(self.pi)
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 1:
            raise DimensionMismatch(f"a must be one-dimensional, got shape {a.shape}")
        _check_entries(np.float64(pi), a)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class MultiColumn:
    """One multi-choice arrival: option rewards ``f`` (k,) and consumption ``G`` (m, k)."""

    f: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.float64)
        G = np.asarray(self.G, dtype=np.float64)
        if f.ndim != 1 or G.ndim != 2 or G.shape[1] != f.size:
            raise DimensionMismatch(
                f"f must have shape (k,) and G shape (m, k), got {f.shape} and {G.shape}"
            )
        _check_entries(f, G)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "G", G)


def _validate(inst, option_shape: tuple[int, ...]) -> None:
    """Coerce and check an instance in place; ``option_shape`` is () or (k,).

    Rewards have shape (n, *option_shape) and consumption (n, m, *option_shape).
    """
    inst.b = _as_float_vector(inst.b, "b")
    inst.rewards = np.asarray(inst.rewards, dtype=np.float64)
    inst.consumption = np.asarray(inst.consumption, dtype=np.float64)
    for name, shape in (
        ("b", (inst.m,)),
        ("rewards", (inst.n, *option_shape)),
        ("consumption", (inst.n, inst.m, *option_shape)),
    ):
        if getattr(inst, name).shape != shape:
            raise DimensionMismatch(
                f"{name} has shape {getattr(inst, name).shape}, expected {shape}"
            )
    if min((inst.m, inst.n, *option_shape)) < 1:
        raise ValueError("instance needs at least one row, one column and one option")
    if np.any(inst.b <= 0.0):
        raise ValueError("capacities must be strictly positive")
    _check_entries(inst.rewards, inst.consumption)
    if inst.meta is not None and not isinstance(inst.meta, dict):
        raise ValueError(
            f"meta must be a dict or None (a JSON object or null), got {type(inst.meta).__name__}"
        )


@dataclass
class Instance:
    """A complete scalar-decision instance.

    Attributes:
        m: number of capacity rows.
        n: number of columns (arrivals).
        b: capacities, shape (m,), strictly positive.
        rewards: per-column rewards, shape (n,), nonnegative.
        consumption: per-column consumption, shape (n, m), entries in [0, 1].
        meta: optional free-form provenance (generator name, parameters, seed).
    """

    m: int
    n: int
    b: np.ndarray
    rewards: np.ndarray
    consumption: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        _validate(self, ())

    def column(self, t: int) -> Column:
        """Column at position ``t`` (0-based)."""
        return Column(pi=float(self.rewards[t]), a=self.consumption[t].copy())

    def columns(self) -> Iterator[Column]:
        """Iterate columns in arrival order."""
        for t in range(self.n):
            yield self.column(t)


@dataclass
class MultiInstance:
    """A complete multi-choice instance.

    ``rewards`` has shape (n, k) and ``consumption`` shape (n, m, k); column
    ``t`` offers ``k`` options, option ``j`` paying ``rewards[t, j]`` and
    consuming ``consumption[t, :, j]``.  At most one option per arrival may
    be chosen.
    """

    m: int
    n: int
    k: int
    b: np.ndarray
    rewards: np.ndarray
    consumption: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        _validate(self, (self.k,))


@dataclass(frozen=True)
class DualPrice:
    """A nonnegative price vector, one entry per capacity row."""

    p: np.ndarray

    def __post_init__(self):
        p = _as_float_vector(self.p, "p")
        if p.size and p.min() < 0.0:
            raise ValueError("dual prices must be nonnegative")
        object.__setattr__(self, "p", p)

    @property
    def m(self) -> int:
        return self.p.size


@dataclass
class RunResult:
    """Outcome of one online run, of any policy on either instance kind.

    ``choices[t]`` is the option arrival t took, or -1 when it was declined
    (a scalar instance's only option is 0); ``decisions`` reads them as 0/1.
    ``objective`` is the summed reward of the taken options; ``fill`` is the
    consumed capacity per row (never exceeding ``b``, enforced by the
    capacity guard during the run); ``prices_used`` logs each learned price
    as ``(ell, DualPrice)`` where ``ell`` is the number of arrivals the price
    was learned from.
    """

    choices: np.ndarray
    objective: float
    fill: np.ndarray
    prices_used: list[tuple[int, DualPrice]] = field(default_factory=list)

    @property
    def decisions(self) -> np.ndarray:
        return (self.choices >= 0).astype(np.int8)

    @property
    def accepted(self) -> int:
        return int(self.decisions.sum())


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------
# Reals are written with 17 significant digits, enough for float64 values to
# survive a write/read cycle bit-exactly, and the writer is deterministic so
# regenerating a file yields identical bytes.


def _real_list(xs) -> str:
    return "[" + ", ".join(real(v) for v in xs) + "]"


def _holds_str_or_bool(x) -> bool:
    if isinstance(x, list):
        return any(map(_holds_str_or_bool, x))
    return isinstance(x, (str, bool))


def instance_to_json(inst: Instance | MultiInstance) -> str:
    """Serialize an instance to the interchange JSON format."""
    lines = ["{"]
    lines.append(f'  "m": {inst.m},')
    lines.append(f'  "n": {inst.n},')
    if isinstance(inst, MultiInstance):
        lines.append(f'  "k": {inst.k},')
    lines.append(f'  "b": {_real_list(inst.b)},')
    col_lines = []
    if isinstance(inst, MultiInstance):
        for t in range(inst.n):
            g_rows = ", ".join(_real_list(inst.consumption[t, i]) for i in range(inst.m))
            col_lines.append(
                '    {"f": ' + _real_list(inst.rewards[t]) + ', "G": [' + g_rows + "]}"
            )
    else:
        for t in range(inst.n):
            col_lines.append(
                '    {"pi": ' + real(inst.rewards[t])
                + ', "a": ' + _real_list(inst.consumption[t]) + "}"
            )
    body = ",\n".join(col_lines)
    meta_suffix = ""
    if inst.meta:
        meta_suffix = ',\n  "meta": ' + json.dumps(inst.meta, sort_keys=True)
    lines.append('  "columns": [\n' + body + "\n  ]" + meta_suffix)
    lines.append("}")
    return "\n".join(lines) + "\n"


def instance_from_json(text: str) -> Instance | MultiInstance:
    """Parse the interchange JSON format into an instance.

    Raises ParseError on malformed JSON or schema violations.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("m", "n", "b", "columns"):
        if key not in obj:
            raise ParseError(f"missing required key {key!r}")
    for key in ("m", "n", "k"):
        # type(), not isinstance(): JSON true and false load as bool, a subclass of int.
        if key in obj and type(obj[key]) is not int:
            raise ParseError(f"{key} must be an integer, got {json.dumps(obj[key])}")
    m, n = obj["m"], obj["n"]
    cols = obj["columns"]
    if not isinstance(cols, list) or len(cols) != n:
        raise ParseError(f"columns must be a list of length n={n}")
    meta = obj.get("meta")
    # JSON strings and booleans are not reals, though numpy converts both.
    # A string or an all-boolean list leaves a non-numeric dtype, but a
    # boolean among numbers reads as 1.0 or 0.0, so the values are walked
    # only when the dtype is not int or float (object: integers beyond
    # int64) or the text holds a boolean literal.
    literal = "true" in text or "false" in text

    def reals(values, key: str) -> np.ndarray:
        arr = np.array(values)
        if (literal or arr.dtype.kind not in "iuf") and _holds_str_or_bool(values):
            raise ParseError(f"{key} must hold JSON numbers, not strings or booleans")
        return arr.astype(np.float64, copy=False)

    def stacked(key: str) -> np.ndarray:
        # One array per key: a short or scalar entry stays short, and the
        # instance's shape check rejects it instead of broadcasting it.
        return reals([col[key] for col in cols], key)

    try:
        if "k" in obj:
            return MultiInstance(
                m=m, n=n, k=obj["k"], b=reals(obj["b"], "b"),
                rewards=stacked("f"), consumption=stacked("G"), meta=meta,
            )
        return Instance(
            m=m, n=n, b=reals(obj["b"], "b"),
            rewards=stacked("pi"), consumption=stacked("a"), meta=meta,
        )
    except (KeyError, TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"instance schema violation: {exc}") from exc


def save_instance(inst: Instance | MultiInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def load_instance(path) -> Instance | MultiInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
