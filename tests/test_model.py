import json

import numpy as np
import pytest

from onlinelp import (
    Column,
    DimensionMismatch,
    DualPrice,
    Instance,
    MultiColumn,
    MultiInstance,
    ParseError,
    RunResult,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)


def small_instance():
    return Instance(
        m=2,
        n=3,
        b=np.array([1.5, 2.0]),
        rewards=np.array([0.3, 1.0, 0.0]),
        consumption=np.array([[0.1, 0.2], [1.0, 0.0], [0.5, 0.5]]),
        meta={"kind": "handmade"},
    )


def small_multi():
    rng = np.random.default_rng(7)
    return MultiInstance(
        m=2,
        n=4,
        k=3,
        b=np.array([2.0, 1.0]),
        rewards=rng.uniform(0, 1, (4, 3)),
        consumption=rng.uniform(0, 1, (4, 2, 3)),
    )


def two_arrivals(m=1, n=2, k=None):
    """Two arrivals on one row: a scalar instance, or a multi-choice one when ``k`` is given."""
    if k is None:
        return Instance(m=m, n=n, b=np.ones(1), rewards=np.ones(2),
                        consumption=np.full((2, 1), 0.5))
    return MultiInstance(m=m, n=n, k=k, b=np.ones(1), rewards=np.ones((2, 1)),
                         consumption=np.full((2, 1, 1), 0.5))


class TestValidation:
    def test_column_rejects_negative_reward(self):
        with pytest.raises(ValueError):
            Column(pi=-0.1, a=np.array([0.5]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_arrivals_reject_non_finite_reward(self, bad):
        with pytest.raises(ValueError):
            Column(pi=bad, a=np.array([0.5]))
        with pytest.raises(ValueError):
            MultiColumn(f=np.array([1.0, bad]), G=np.full((1, 2), 0.5))

    def test_column_rejects_consumption_outside_unit_box(self):
        with pytest.raises(ValueError):
            Column(pi=1.0, a=np.array([1.2]))
        with pytest.raises(ValueError):
            Column(pi=1.0, a=np.array([-0.2]))

    def test_instance_checks_shapes(self):
        with pytest.raises(Exception):
            Instance(m=2, n=3, b=np.array([1.0]), rewards=np.zeros(3),
                     consumption=np.zeros((3, 2)))

    def test_instance_needs_a_row(self):
        with pytest.raises(ValueError, match="row"):
            Instance(m=0, n=1, b=np.zeros(0), rewards=np.array([1.0]),
                     consumption=np.zeros((1, 0)))
        with pytest.raises(ValueError, match="row"):
            MultiInstance(m=0, n=1, k=1, b=np.zeros(0), rewards=np.ones((1, 1)),
                          consumption=np.zeros((1, 0, 1)))

    @pytest.mark.parametrize("counts", [{"m": True}, {"n": 2.0}, {"k": True}],
                             ids=["m bool", "n float", "k bool"])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            two_arrivals(**counts)

    def test_numpy_integer_counts_save_and_load(self, tmp_path):
        inst = two_arrivals(m=np.int64(1), n=np.int64(2), k=np.int64(1))
        save_instance(inst, tmp_path / "i.json")
        assert instance_to_json(load_instance(tmp_path / "i.json")) == instance_to_json(inst)

    def test_instance_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Instance(m=1, n=1, b=np.array([0.0]), rewards=np.array([1.0]),
                     consumption=np.array([[0.5]]))

    def test_instance_rejects_rewards_whose_sum_overflows(self):
        big = np.finfo(np.float64).max
        with np.errstate(over="raise"):
            with pytest.raises(ValueError, match="overflow"):
                Instance(m=1, n=2, b=np.ones(1), rewards=np.full(2, big),
                         consumption=np.ones((2, 1)))
            with pytest.raises(ValueError, match="overflow"):
                MultiInstance(m=1, n=1, k=2, b=np.ones(1), rewards=np.full((1, 2), big),
                              consumption=np.ones((1, 1, 2)))
            Instance(m=1, n=2, b=np.ones(1), rewards=np.full(2, big / 2),
                     consumption=np.ones((2, 1)))
        text = json.dumps({"m": 1, "n": 2, "b": [1.0], "columns": [
            {"pi": big, "a": [1.0]}, {"pi": big, "a": [1.0]}]})
        with pytest.raises(ParseError, match="overflow"):
            instance_from_json(text)

    def test_dual_price_nonnegative(self):
        with pytest.raises(ValueError):
            DualPrice(p=np.array([-0.01]))

    def test_dual_price_rejects_a_total_that_overflows(self):
        # Each entry is finite, their sum is not; the check itself warns nothing.
        with np.errstate(over="raise"):
            with pytest.raises(ValueError, match="overflow"):
                DualPrice(p=np.array([1e308, 1e308]))
            DualPrice(p=np.array([1e308, 0.7e308]))

    @pytest.mark.parametrize("make, exc, match", [
        (lambda: Instance(m=1, n=1, b=np.ones((1, 1)), rewards=np.ones(1),
                          consumption=np.ones((1, 1))), DimensionMismatch, "b must be one-dimensional"),
        (lambda: Instance(m=1, n=1, b=np.array([np.inf]), rewards=np.ones(1),
                          consumption=np.ones((1, 1))), ValueError, "b contains non-finite"),
        (lambda: Column(pi=1.0, a=np.ones((1, 1))), DimensionMismatch, "a must be one-dimensional"),
    ], ids=["2-D b", "non-finite b", "2-D Column.a"])
    def test_rejected_input(self, make, exc, match):
        with pytest.raises(exc, match=match):
            make()

    def test_multi_column_shape(self):
        with pytest.raises(Exception):
            MultiColumn(f=np.array([1.0, 2.0]), G=np.array([[0.5]]))


class TestRoundTrip:
    def test_scalar_json_round_trip_is_exact(self):
        inst = small_instance()
        back = instance_from_json(instance_to_json(inst))
        assert back.m == inst.m and back.n == inst.n
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.rewards, inst.rewards)
        assert np.array_equal(back.consumption, inst.consumption)
        assert back.meta == inst.meta

    def test_multi_json_round_trip_is_exact(self):
        inst = small_multi()
        back = instance_from_json(instance_to_json(inst))
        assert isinstance(back, MultiInstance)
        assert back.k == inst.k
        assert np.array_equal(back.rewards, inst.rewards)
        assert np.array_equal(back.consumption, inst.consumption)

    def test_serialization_is_deterministic(self):
        inst = small_instance()
        assert instance_to_json(inst) == instance_to_json(small_instance())

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        inst = small_multi()
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.consumption, inst.consumption)

    def test_unserializable_meta_leaves_the_file_alone(self, tmp_path):
        path, absent = tmp_path / "inst.json", tmp_path / "absent.json"
        save_instance(small_multi(), path)
        before = path.read_bytes()
        bad = small_instance()
        bad.meta = {"seed": np.int64(4)}
        for target in (path, absent):
            with pytest.raises(TypeError):
                save_instance(bad, target)
        assert path.read_bytes() == before
        assert not absent.exists()

    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + instance_to_json(small_instance()).encode("utf-16-le"))
        with pytest.raises(ParseError, match="not UTF-8"):
            load_instance(path)

    def test_awkward_reals_survive(self):
        # 17 significant digits round-trip doubles exactly.
        vals = np.array([1 / 3, 0.1, 2 ** -40, 1.0])
        inst = Instance(m=1, n=4, b=np.array([np.pi]),
                        rewards=vals.copy(),
                        consumption=np.array([[0.1], [1 / 7], [1.0], [0.0]]))
        back = instance_from_json(instance_to_json(inst))
        assert np.array_equal(back.rewards, vals)
        assert back.b[0] == np.pi


class TestWrittenText:
    """The writer's exact text, so a change to the file format cannot pass unnoticed."""

    def test_scalar_instance(self):
        inst = Instance(
            m=2, n=3, b=np.array([0.1, 1e12]),
            rewards=np.array([1 / 3, 1e-300, 0.0]),
            consumption=np.array([[1 / 7, 5e-324], [0.0, 1.0], [1.0, 0.1]]),
            meta={"kind": "handmade", "shuffled": True},
        )
        assert instance_to_json(inst) == (
            '{\n'
            '  "m": 2,\n'
            '  "n": 3,\n'
            '  "b": [0.10000000000000001, 1000000000000],\n'
            '  "columns": [\n'
            '    {"pi": 0.33333333333333331, "a": [0.14285714285714285, 4.9406564584124654e-324]},\n'
            '    {"pi": 1e-300, "a": [0, 1]},\n'
            '    {"pi": 0, "a": [1, 0.10000000000000001]}\n'
            '  ],\n'
            '  "meta": {"kind": "handmade", "shuffled": true}\n'
            '}\n'
        )

    def test_multi_choice_instance(self):
        inst = MultiInstance(
            m=2, n=2, k=3, b=np.array([2.5, 1 / 3]),
            rewards=np.array([[0.1, 0.0, 1e12], [1 / 7, 1.0, 2.0]]),
            consumption=np.array([[[0.5, 0.0, 1.0], [0.25, 1 / 3, 0.0]],
                                  [[1.0, 1.0, 1.0], [0.0, 5e-324, 0.75]]]),
        )
        assert instance_to_json(inst) == (
            '{\n'
            '  "m": 2,\n'
            '  "n": 2,\n'
            '  "k": 3,\n'
            '  "b": [2.5, 0.33333333333333331],\n'
            '  "columns": [\n'
            '    {"f": [0.10000000000000001, 0, 1000000000000],'
            ' "G": [[0.5, 0, 1], [0.25, 0.33333333333333331, 0]]},\n'
            '    {"f": [0.14285714285714285, 1, 2],'
            ' "G": [[1, 1, 1], [0, 4.9406564584124654e-324, 0.75]]}\n'
            '  ]\n'
            '}\n'
        )


def instance_json(columns, k=None) -> str:
    """An m = 3 instance file over the given columns (multi-choice when k is given)."""
    obj = {"m": 3, "n": len(columns), "b": [1.0, 1.0, 1.0], "columns": columns}
    if k is not None:
        obj["k"] = k
    return json.dumps(obj)


_G = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
# Columns shorter than m rows or k options, which must not be broadcast.
SHORT_COLUMNS = {
    "short a": instance_json([{"pi": 1, "a": [0.5]}] * 2),
    "scalar a": instance_json([{"pi": 1, "a": 0.25}] * 2),
    "ragged a": instance_json([{"pi": 1, "a": [0.5, 0.5, 0.5]}, {"pi": 1, "a": [0.5]}]),
    "scalar f": instance_json([{"f": 1, "G": _G}] * 2, k=2),
    "one-row G": instance_json([{"f": [1.0, 2.0], "G": _G[:1]}] * 2, k=2),
}

# JSON strings and booleans where the format has reals, which numpy would
# convert: a string, an all-boolean array, and a boolean among numbers.
NOT_REALS = {
    "string pi": instance_json([{"pi": "1.5", "a": [0.5, 0.5, 0.5]}] * 2),
    "string b": json.dumps({"m": 1, "n": 1, "b": ["1"], "columns": [{"pi": 1, "a": [0.5]}]}),
    "all-boolean a": instance_json([{"pi": 1, "a": [True, False, True]}] * 2),
    "boolean among numbers in a": instance_json([{"pi": 1, "a": [0.5, True, 0.25]}] * 2),
    "string in f": instance_json([{"f": [1.0, "2"], "G": _G}] * 2, k=2),
    "boolean among numbers in G": instance_json([{"f": [1.0, 2.0], "G": [[0.1, False]] + _G[1:]}] * 2, k=2),
}

# Texts beyond the JSON parser's limits, which json.loads rejects with a
# RecursionError (nesting deeper than the recursion limit) and the
# int-conversion ValueError (an integer literal over 4300 digits), not with
# a JSONDecodeError.
BEYOND_PARSER = {
    "deep nesting": "[" * 100000 + "]" * 100000,
    "long integer": instance_json([{"pi": 1, "a": [0.5, 0.5, 0.5]}]).replace(
        '"pi": 1', '"pi": ' + "1" * 5000),
}


class TestParseErrors:
    @pytest.mark.parametrize("case", SHORT_COLUMNS)
    def test_short_column_is_not_broadcast(self, case):
        with pytest.raises(ParseError):
            instance_from_json(SHORT_COLUMNS[case])

    @pytest.mark.parametrize("case", NOT_REALS)
    def test_string_or_boolean_is_not_a_real(self, case):
        with pytest.raises(ParseError, match="must hold JSON numbers"):
            instance_from_json(NOT_REALS[case])

    def test_numbers_load_unchanged_beside_a_boolean_literal(self):
        """A literal elsewhere in the file, or an integer beyond int64, is no error."""
        obj = {"m": 1, "n": 2, "b": [3], "columns": [{"pi": 2 ** 70, "a": [1]}, {"pi": 0.5, "a": [0]}],
               "meta": {"flag": True}}
        inst = instance_from_json(json.dumps(obj))
        assert inst.b.tolist() == [3.0] and inst.rewards.tolist() == [2.0 ** 70, 0.5]
        assert inst.consumption.tolist() == [[1.0], [0.0]] and inst.meta == {"flag": True}

    def test_integer_beyond_float_range(self):
        obj = {"m": 1, "n": 1, "b": [1], "columns": [{"pi": 10 ** 400, "a": [1]}]}
        with pytest.raises(ParseError, match="schema violation"):
            instance_from_json(json.dumps(obj))

    @pytest.mark.parametrize("case", BEYOND_PARSER)
    def test_beyond_the_parser_limits(self, case):
        with pytest.raises(ParseError):
            instance_from_json(BEYOND_PARSER[case])

    def test_garbage(self):
        with pytest.raises(ParseError):
            instance_from_json("not json at all {")

    def test_missing_key(self):
        with pytest.raises(ParseError):
            instance_from_json('{"m": 1, "n": 1, "b": [1.0]}')

    def test_wrong_column_count(self):
        text = ('{"m": 1, "n": 2, "b": [1.0], '
                '"columns": [{"pi": 1.0, "a": [0.5]}]}')
        with pytest.raises(ParseError):
            instance_from_json(text)

    def test_top_level_not_object(self):
        with pytest.raises(ParseError):
            instance_from_json("[1, 2, 3]")

    @pytest.mark.parametrize("meta", ["[1, 2]", '"abc"', "3"])
    def test_meta_not_object(self, meta):
        for head in ('"m": 1, "n": 1, "b": [1.0], "columns": [{"pi": 1.0, "a": [0.5]}]',
                     '"m": 1, "n": 1, "k": 1, "b": [1.0], "columns": [{"f": [1.0], "G": [[0.5]]}]'):
            with pytest.raises(ParseError, match="meta"):
                instance_from_json("{" + head + ', "meta": ' + meta + "}")

    @pytest.mark.parametrize("key", ["m", "n", "k"])
    def test_boolean_dimension(self, key):
        obj = {"m": 1, "n": 1, "k": 1, "b": [1.0], "columns": [{"f": [1.0], "G": [[0.5]]}]}
        obj[key] = True
        with pytest.raises(ParseError, match=f"{key} must be an integer, got true"):
            instance_from_json(json.dumps(obj))


def test_run_result_accepted_counts_ones():
    res = RunResult(choices=np.array([-1, 0, 2, -1]), objective=2.0, fill=np.array([2.0]))
    assert res.accepted == 2
    assert res.decisions.dtype == np.int8
    np.testing.assert_array_equal(res.decisions, [0, 1, 1, 0])


def test_columns_iterator_matches_arrays():
    inst = small_instance()
    cols = list(inst.columns())
    assert len(cols) == inst.n
    assert cols[1].pi == inst.rewards[1]
    assert np.array_equal(cols[2].a, inst.consumption[2])
