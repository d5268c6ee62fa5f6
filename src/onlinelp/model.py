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
from functools import partial
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


# The format spec of every real the package writes: 17 significant digits,
# enough for a float64 value to survive a write/read cycle bit-exactly.
_REAL = ".17g"


def real(x: float) -> str:
    """A float with 17 significant digits: enough to round-trip float64."""
    return format(float(x), _REAL)


def onehot(choices, k: int) -> np.ndarray:
    """Choices as an (n, k) array of 0.0 / 1.0."""
    out = np.zeros((choices.size, k))
    taken = np.flatnonzero(choices >= 0)
    out[taken, choices[taken]] = 1.0
    return out


def check_count(name: str, value) -> None:
    """A count (rows, arrivals, options, trials, workers) is an integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_seed(name: str, value) -> None:
    """A seed is an integer >= 0, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


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

    Rewards have shape (n, *option_shape) and consumption (n, m, *option_shape),
    and their sum must be finite, so no objective value can overflow.
    """
    for name, count in zip(("row count m", "arrival count n", "option count k"),
                           (inst.m, inst.n, *option_shape)):
        check_count(name, count)
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
    if np.any(inst.b <= 0.0):
        raise ValueError("capacities must be strictly positive")
    _check_entries(inst.rewards, inst.consumption)
    # The check BoxedLp makes of its objective: every total of rewards stays finite.
    with np.errstate(over="ignore"):
        if not np.isfinite(inst.rewards.sum()):
            raise ValueError("rewards overflow when summed; rescale the data")
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

    def columns(self) -> Iterator[Column]:
        """Iterate columns in arrival order, each with its own copy of its row."""
        for pi, a in zip(self.rewards.tolist(), self.consumption):
            yield Column(pi=pi, a=a.copy())


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
    """A nonnegative price vector, one entry per capacity row, with a finite total."""

    p: np.ndarray

    def __post_init__(self):
        p = _as_float_vector(self.p, "p")
        if p.size and p.min() < 0.0:
            raise ValueError("dual prices must be nonnegative")
        # Consumption lies in [0, 1], so p . a <= sum(p): no priced column overflows.
        with np.errstate(over="ignore"):
            if not np.isfinite(p.sum()):
                raise ValueError("dual prices overflow when summed; rescale the data")
        object.__setattr__(self, "p", p)


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
# The writer is deterministic, so regenerating a file yields identical bytes.
# Each arrival is one line, filled from one row of the table of its rewards
# and consumption by the line template of its format.

_BLOCK = 4096  # table rows converted to Python floats at a time, bounding their memory


def _reals(count: int) -> str:
    """The template of a JSON list of ``count`` reals."""
    return "[" + ", ".join(["{:" + _REAL + "}"] * count) + "]"


def _json_chunks(inst: Instance | MultiInstance) -> Iterator[str]:
    """The interchange JSON text of an instance, one block of arrivals at a time."""
    n, m = inst.n, inst.m
    # meta first, so that a value JSON cannot hold raises before the first chunk.
    meta = ',\n  "meta": ' + json.dumps(inst.meta, sort_keys=True) if inst.meta else ""
    if isinstance(inst, MultiInstance):
        k_line = f'  "k": {inst.k},\n'
        line = '    {{"f": ' + _reals(inst.k) + ', "G": [' + ", ".join([_reals(inst.k)] * m) + "]}}"
    else:
        k_line = ""
        line = '    {{"pi": {:' + _REAL + '}, "a": ' + _reals(m) + "}}"
    b = _reals(m).format(*inst.b.tolist())
    yield f'{{\n  "m": {m},\n  "n": {n},\n{k_line}  "b": {b},\n  "columns": [\n'
    table = np.concatenate((inst.rewards.reshape(n, -1), inst.consumption.reshape(n, -1)), axis=1)
    for start in range(0, n, _BLOCK):
        rows = table[start:start + _BLOCK].tolist()
        yield (",\n" if start else "") + ",\n".join([line.format(*row) for row in rows])
    yield "\n  ]" + meta + "\n}\n"


def instance_to_json(inst: Instance | MultiInstance) -> str:
    """Serialize an instance to the interchange JSON format."""
    return "".join(_json_chunks(inst))


def _holds_str_or_bool(x) -> bool:
    if isinstance(x, list):
        return any(map(_holds_str_or_bool, x))
    return isinstance(x, (str, bool))


def instance_from_json(text: str) -> Instance | MultiInstance:
    """Parse the interchange JSON format into an instance.

    Raises ParseError on malformed JSON or schema violations.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: a syntax error (JSONDecodeError) or an integer literal
        # over the int-conversion digit limit; RecursionError: nesting deeper
        # than the interpreter's recursion limit.
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

    make, f, g = (partial(MultiInstance, k=obj["k"]), "f", "G") if "k" in obj else (Instance, "pi", "a")
    try:
        return make(m=m, n=n, b=reals(obj["b"], "b"),
                    rewards=stacked(f), consumption=stacked(g), meta=meta)
    except (KeyError, TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"instance schema violation: {exc}") from exc


def save_instance(inst: Instance | MultiInstance, path) -> None:
    """Write an instance file; an unserializable ``meta`` raises before the file is opened."""
    chunks = _json_chunks(inst)
    head = next(chunks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(chunks)


def load_instance(path) -> Instance | MultiInstance:
    """Read an instance file; ParseError if it is not UTF-8 text holding a valid instance."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return instance_from_json(text)
