"""Property tests of the instance reader, driven by Hypothesis.

Any text either loads as an instance or raises ``ParseError``, and the
writer's output reads back bit for bit.  Examples are derandomized and no
example database is kept, so a run is reproducible.
"""

import json
import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from onlinelp import Instance, MultiInstance, ParseError  # noqa: E402
from onlinelp import instance_from_json, instance_to_json  # noqa: E402

from test_model import BEYOND_PARSER  # noqa: E402

FUZZ = settings(database=None, deadline=None, derandomize=True)

# Even without an example database, Hypothesis caches the constants it reads
# from local modules under its storage directory, .hypothesis/ in the working
# directory by default; a temporary one, removed at exit, takes its place.
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)


# Text over JSON's own characters and a few others, drawn as a list of
# characters: st.text would build Hypothesis's Unicode tables on every run.
def texts(max_size):
    return st.lists(st.sampled_from('{}[]",:-+.eE0123456789 truefalsnNIiy\\\x00\u00e9'),
                    max_size=max_size).map("".join)


@st.composite
def mostly(draw, good, bad):
    """Draws from ``good`` about four times in five, else from ``bad``.

    (``one_of`` draws its branches alike and merges repeated ones.)
    """
    return draw(good if draw(st.integers(0, 4)) else bad)


# Leaves of a JSON value: mostly reals the format allows, else reals of every
# kind (NaN and infinities included), integers beyond int64, and the strings,
# booleans and nulls that are not reals.
leaves = mostly(st.floats(0.0, 1.0), st.one_of(
    st.floats(), st.integers(), st.integers(min_value=2 ** 63),
    st.booleans(), texts(3), st.none(),
))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts(3), inner, max_size=3),
    max_leaves=12,
)
# Anything in place of a vector: short, ragged, scalar or nested.
misshapen = st.lists(leaves, max_size=4) | leaves | st.lists(st.lists(leaves, max_size=3), max_size=3)
exact = [st.lists(leaves, min_size=size, max_size=size) for size in range(4)]
sizes = mostly(st.integers(1, 3), st.one_of(st.integers(-1, 0), st.booleans(), st.floats(),
                                            texts(2)))


@st.composite
def instance_shaped(draw):
    """An object with the format's keys and mostly the right shapes, so that
    most draws reach the array checks; any entry may be the wrong type."""

    def fits(size):
        return type(size) is int and 0 <= size < len(exact)

    def vector(size):
        return draw(exact[size]) if fits(size) and draw(st.integers(0, 4)) else draw(misshapen)

    m, n, k = draw(sizes), draw(sizes), draw(st.none() | sizes)

    def column():
        if k is None:
            return {"pi": draw(leaves), "a": vector(m)}
        return {"f": vector(k), "G": [vector(k) for _ in range(m)] if fits(m) else draw(misshapen)}

    obj = {"m": m, "n": n, "b": vector(m), "columns": [
        column() if draw(st.integers(0, 4)) else draw(json_values)
        for _ in range(n if fits(n) else 2)]}
    if k is not None:
        obj["k"] = k
    obj.update(draw(st.fixed_dictionaries({}, optional={"meta": json_values})))
    return obj


@settings(FUZZ, max_examples=120)
@given(mostly(instance_shaped().map(json.dumps), json_values.map(json.dumps) | texts(40)))
@example(BEYOND_PARSER["deep nesting"])
@example(BEYOND_PARSER["long integer"])
def test_reader_returns_an_instance_or_raises_parse_error(text):
    try:
        inst = instance_from_json(text)
    except ParseError:
        return
    assert isinstance(inst, (Instance, MultiInstance))


# Reals the format allows: finite, rewards >= 0, consumption in [0, 1],
# capacities > 0; subnormals and the extremes of float64 included.
rewards = st.floats(min_value=0.0, max_value=np.finfo(np.float64).max)
usage = st.floats(min_value=0.0, max_value=1.0)
capacities = st.floats(min_value=0.0, exclude_min=True, max_value=math.inf, exclude_max=True)


@st.composite
def instances(draw):
    """A valid instance of either kind (k = 0 draws a scalar one)."""
    m, n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 3))

    def grid(elements, shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    meta = draw(st.none() | st.dictionaries(texts(3), st.integers() | texts(3)))
    fields = dict(m=m, n=n, b=grid(capacities, (m,)), rewards=grid(rewards, (n, k) if k else (n,)),
                  consumption=grid(usage, (n, m, k) if k else (n, m)), meta=meta)
    return MultiInstance(k=k, **fields) if k else Instance(**fields)


@settings(FUZZ, max_examples=40)
@given(instances())
def test_written_instance_reads_back_bit_for_bit(inst):
    back = instance_from_json(instance_to_json(inst))
    assert type(back) is type(inst)
    assert (back.m, back.n, getattr(back, "k", None)) == (inst.m, inst.n, getattr(inst, "k", None))
    for name in ("b", "rewards", "consumption"):
        got, want = getattr(back, name), getattr(inst, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert back.meta == (inst.meta or None)
