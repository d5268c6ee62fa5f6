"""Property tests of the instance reader and the command line, driven by Hypothesis.

Any text either loads as an instance or raises ``ParseError``, the writer's
output reads back bit for bit, and a malformed command line ends in exit 2
or 3 with one line on stderr, never a traceback.  Examples are derandomized
and no example database is kept, so a run is reproducible.
"""

import contextlib
import io
import json
import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from onlinelp import Instance, MultiInstance, ParseError, gen_routing, save_instance  # noqa: E402
from onlinelp import instance_from_json, instance_to_json  # noqa: E402
from onlinelp.cli import main  # noqa: E402

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


# Reals the format allows: finite, rewards >= 0 with a finite sum, consumption
# in [0, 1], capacities > 0; subnormals and the extremes of float64 included.
# An instance below has at most 12 rewards, so each may reach max / 16.
rewards = st.floats(min_value=0.0, max_value=np.finfo(np.float64).max / 16)
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


# Flag values that break each kind of flag: argparse rejects most (exit 2);
# a generator parameter out of its range or an unusable file is bad input
# data (exit 3).
INTS = ["1.5", "abc", "", "1e3", "0x10", "nan"]
SEEDS = INTS + ["-1"]
EPS = ["0", "1", "-0.5", "1.5", "nan", "inf", "abc", "", "1e-400", "0.1.2"]
COUNTS = ["0", "-2", "1.0", "abc", ""]
EXTRAS = ["--wat", "stray", "-x", "--eps=", "--jobs=0"]


@pytest.fixture(scope="module")
def cli_flags(tmp_path_factory):
    """Per command, its flags as (flag, valid value, presence, values that break it).

    Presence is "required" (leaving the flag out is a fault), "kept" (always
    given) or "optional".  The valid values make a command line that exits 0;
    ``bench`` always runs inline (``--jobs 1``) over at most 2 trials.
    """
    tmp = tmp_path_factory.mktemp("cli-fuzz")
    inst = tmp / "routing.json"
    save_instance(gen_routing(m=2, n=40, q=0.5, capacity=6.0, seed=1), inst)
    bad = {name: tmp / name for name in ("not-json", "not-utf8", "negative", "overflow")}
    bad["not-json"].write_text("{not json")
    bad["not-utf8"].write_bytes(b"\xff\xfe{}")
    for name, pi in (("negative", -1.0), ("overflow", 1e308)):
        bad[name].write_text(json.dumps({"m": 1, "n": 2, "b": [1.0], "columns": [
            {"pi": pi, "a": [0.5]}, {"pi": 1e308, "a": [0.5]}]}))
    inputs = [str(path) for path in bad.values()] + [str(tmp / "missing.json"), str(tmp)]
    out, unwritable = str(tmp / "out"), str(tmp / "no-such-dir" / "out")
    source = ("-i", str(inst), "required", inputs)
    return {
        "gen": [("--kind", "routing", "required", ["nope", ""]),
                ("--m", "2", "required", INTS + ["0", "-1"]),
                ("--n", "20", "required", INTS + ["0"]),
                ("--q", "0.5", "required", ["abc", "0", "1.5", "nan"]),
                ("--capacity", "4", "required", ["abc", "0", "-1", "nan", "inf"]),
                ("--seed", "1", "optional", SEEDS),
                ("--check-eps", "0.2", "optional", EPS),
                ("-o", out, "required", [unwritable])],
        "run": [source,
                ("--algo", "dpa", "required", ["magic", "DPA", ""]),
                ("--eps", "0.2", "optional", EPS),
                ("--shuffle-seed", "3", "optional", SEEDS),
                ("--decisions-out", out, "optional", [unwritable])],
        "bench": [source,
                  ("--algos", "ola,greedy_baseline", "optional", ["magic", ",", "ola,magic"]),
                  ("--eps", "0.1,0.2", "optional", EPS + [",", "0.1,0", "0.1,abc"]),
                  ("--trials", "2", "optional", COUNTS),
                  ("--jobs", "1", "kept", COUNTS),
                  ("--base-seed", "5", "optional", SEEDS),
                  ("-o", out, "optional", [unwritable])],
        "sample-lp": [source,
                      ("--eps", "0.2", "required", EPS),
                      ("--seed", "1", "optional", SEEDS),
                      ("-o", out, "optional", [unwritable])],
        "check": [source,
                  ("--eps", "0.2", "required", EPS),
                  ("--variant", "dpa", "optional", ["nope", ""])],
    }


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_every_fuzzed_command_line_is_valid_before_it_is_broken(cli_flags):
    for command, flags in cli_flags.items():
        argv = [command] + [tok for flag, value, _, _ in flags for tok in (flag, value)]
        assert _main(argv) == (0, ""), argv


@st.composite
def broken_command_lines(draw, cli_flags):
    """A valid command line with one fault: a bad value, a missing required
    flag, a flag without its value, an unknown token, or an unknown command."""
    command = draw(st.sampled_from(sorted(cli_flags)))
    flags = [f for f in cli_flags[command] if f[2] != "optional" or draw(st.booleans())]
    flags = draw(st.permutations(flags))
    args = [[flag, value] for flag, value, _, _ in flags]
    fault = draw(st.sampled_from(["value", "drop", "bare", "extra", "command"]))
    i = draw(st.integers(0, len(flags) - 1))
    if fault == "value":
        args[i][1] = draw(st.sampled_from(flags[i][3]))
    elif fault == "drop":
        del args[draw(st.sampled_from([j for j, f in enumerate(flags) if f[2] == "required"]))]
    elif fault == "bare":
        del args[i][1]
    elif fault == "extra":
        args.insert(i, [draw(st.sampled_from(EXTRAS) | texts(4).map("--zz".__add__))])
    else:
        command = draw(st.sampled_from(["", "Gen", "runs", "--wat", "bench-"]))
    return [command] + [tok for pair in args for tok in pair]


@settings(FUZZ, max_examples=150)
@given(st.data())
def test_malformed_command_line_exits_2_or_3_without_a_traceback(cli_flags, data):
    argv = data.draw(broken_command_lines(cli_flags))
    code, err = _main(argv)
    assert code in (2, 3), (argv, code, err)
    assert err.startswith("onlinelp") and err.count("\n") == 1, (argv, err)
