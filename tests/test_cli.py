"""End-to-end command tests driven through cli.main (no subprocesses except
one __main__ smoke check) — exit codes, formats, determinism."""

import dataclasses
import json
import subprocess
import sys
import typing

import numpy as np
import pytest

from onlinelp import (
    CycleLimitExceeded, Instance, InternalError, cli, errors, harness, offline_opt, save_instance,
)
from onlinelp.cli import main
from onlinelp.generators import GENERATORS
from test_model import BEYOND_PARSER, NOT_REALS, SHORT_COLUMNS

ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.OnlineLpError)
]


@pytest.fixture()
def secretary_file(tmp_path):
    path = tmp_path / "sec.json"
    assert main(["gen", "--kind", "secretary", "--n", "200", "--k", "12",
                 "--seed", "1", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def routing_file(tmp_path):
    path = tmp_path / "route.json"
    assert main(["gen", "--kind", "routing", "--m", "3", "--n", "150",
                 "--q", "0.5", "--capacity", "12", "--seed", "2",
                 "-o", str(path)]) == 0
    return path


@pytest.fixture()
def adwords_file(tmp_path):
    path = tmp_path / "ads.json"
    assert main(["gen", "--kind", "adwords", "--n", "80", "--m", "2",
                 "--seed", "3", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def zero_reward_file(tmp_path):
    """Routing with every reward 0, so the offline optimum is 0."""
    path = tmp_path / "zero.json"
    assert main(["gen", "--kind", "routing", "--m", "3", "--n", "200", "--q", "0.5",
                 "--capacity", "20", "--reward-lo", "0", "--reward-hi", "0",
                 "-o", str(path)]) == 0
    return path


class TestGen:
    def test_summary_lists_shape_and_abar(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        code = main(["gen", "--kind", "secretary", "--n", "100", "--k", "5",
                     "-o", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "m=1 n=100" in out and "B=5" in out
        assert "abar per row: 1" in out

    def test_summary_lists_abar_of_every_option(self, tmp_path, capsys):
        code = main(["gen", "--kind", "adwords", "--n", "50", "--m", "3",
                     "-o", str(tmp_path / "inst.json")])
        assert code == 0
        assert "abar per row: 1 1 1\n" in capsys.readouterr().out

    def test_regeneration_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["gen", "--kind", "routing", "--m", "2", "--n", "50",
                 "--q", "0.4", "--capacity", "6", "--seed", "9"]
        assert main(flags + ["-o", str(p1)]) == 0
        assert main(flags + ["-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_param_for_kind_is_data_error(self, tmp_path, capsys):
        code = main(["gen", "--kind", "secretary", "--n", "50", "--k", "5",
                     "--q", "0.5", "-o", str(tmp_path / "x.json")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_infinite_reward_bound_is_data_error(self, tmp_path, capsys):
        code = main(["gen", "--kind", "routing", "--m", "2", "--n", "5", "--q", "0.5",
                     "--capacity", "1", "--reward-hi", "inf", "-o", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "reward_hi must be a real number, finite" in err and "Traceback" not in err

    def test_missing_required_param_is_data_error(self, tmp_path):
        code = main(["gen", "--kind", "routing", "--m", "3",
                     "-o", str(tmp_path / "x.json")])
        assert code == 3


class TestGenFlags:
    """The gen flags are derived from the generator signatures."""

    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_every_keyword_parameter_parses_with_its_annotated_type(self, kind):
        parser = cli.build_parser()
        hints = typing.get_type_hints(GENERATORS[kind])
        names = [name for name in hints if name not in ("seed", "return")]
        assert names
        for name in names:
            flag = "--" + name.replace("_", "-")
            choices = typing.get_args(hints[name])
            values = choices or [{int: "7", float: "0.25"}[hints[name]]]
            for text in values:
                args = parser.parse_args(["gen", "--kind", kind, "-o", "x.json", flag, text])
                parsed = getattr(args, name)
                assert type(parsed) is (str if choices else hints[name]), (name, parsed)
                assert parsed == (text if choices else hints[name](text))

    @pytest.mark.parametrize("argv", [
        ["--kind", "secretary", "--n", "50", "--k", "5", "--reward-dist", "bogus"],
        ["--kind", "adwords", "--n", "50", "--m", "2", "--budget-rule", "bogus"],
        ["--kind", "routing", "--m", "2.5", "--n", "9", "--q", "0.5", "--capacity", "3"],
    ])
    def test_bad_choice_or_type_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        assert main(["gen", *argv, "-o", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


class TestRun:
    def test_prints_summary(self, secretary_file, capsys):
        assert main(["run", "-i", str(secretary_file), "--algo", "dpa",
                     "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "objective = " in out
        assert "opt = " in out
        assert "ratio = " in out
        assert "fill[0]" in out
        assert "price learned at t=20" in out

    def test_zero_optimum_gives_ratio_zero(self, zero_reward_file, capsys):
        assert main(["run", "-i", str(zero_reward_file), "--algo", "dpa", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "opt = 0\n" in out and "ratio = 0.000000\n" in out

    def test_decisions_out(self, secretary_file, tmp_path, capsys):
        dest = tmp_path / "dec.json"
        assert main(["run", "-i", str(secretary_file), "--algo", "ola",
                     "--eps", "0.1", "--decisions-out", str(dest)]) == 0
        payload = json.loads(dest.read_text())
        assert set(payload) == {"decisions", "objective"}
        assert set(payload["decisions"]) <= {0, 1}
        assert len(payload["decisions"]) == 200

    def test_multi_algo_on_adwords(self, adwords_file, capsys):
        assert main(["run", "-i", str(adwords_file), "--algo", "dpa_multi",
                     "--eps", "0.2"]) == 0
        assert "objective = " in capsys.readouterr().out

    def test_scalar_algo_on_adwords(self, adwords_file, tmp_path, capsys):
        def run(algo):
            dest = tmp_path / f"{algo}.json"
            assert main(["run", "-i", str(adwords_file), "--algo", algo,
                         "--eps", "0.2", "--decisions-out", str(dest)]) == 0
            return json.loads(dest.read_text())

        assert run("dpa") == run("dpa_multi")
        assert len(run("ola")["choices"]) == 80

    def test_shuffle_seed_changes_outcome_deterministically(
            self, routing_file, capsys):
        def objective(seed):
            assert main(["run", "-i", str(routing_file), "--algo", "dpa",
                         "--eps", "0.1", "--shuffle-seed", str(seed)]) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if l.startswith("objective")][0]

        a, b, c = objective(1), objective(1), objective(2)
        assert a == b
        assert a != c

    def test_missing_file_is_data_error(self, capsys):
        assert main(["run", "-i", "/nonexistent/x.json", "--algo", "dpa"]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        assert main(["run", "-i", str(bad), "--algo", "ola"]) == 3

    @pytest.mark.parametrize("field, value", [("meta", [1, 2]), ("meta", "abc"), ("m", True)])
    def test_bad_field_is_data_error(self, routing_file, tmp_path, capsys, field, value):
        obj = json.loads(routing_file.read_text())
        obj[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["run", "-i", str(bad), "--algo", "dpa", "--eps", "0.1",
                     "--shuffle-seed", "1"]) == 3
        err = capsys.readouterr().err
        assert f"{field} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", SHORT_COLUMNS)
    def test_short_column_is_data_error(self, tmp_path, capsys, case):
        bad = tmp_path / "short.json"
        bad.write_text(SHORT_COLUMNS[case])
        assert main(["run", "-i", str(bad), "--algo", "dpa", "--eps", "0.5"]) == 3
        err = capsys.readouterr().err
        assert "schema violation" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", NOT_REALS)
    def test_string_or_boolean_is_data_error(self, tmp_path, capsys, case):
        bad = tmp_path / "not_real.json"
        bad.write_text(NOT_REALS[case])
        assert main(["run", "-i", str(bad), "--algo", "dpa", "--eps", "0.5"]) == 3
        err = capsys.readouterr().err
        assert "must hold JSON numbers" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["run", "--algo", "dpa"], ["check"]], ids=["run", "check"])
    @pytest.mark.parametrize("case", BEYOND_PARSER)
    def test_text_beyond_the_parser_limits_is_data_error(self, tmp_path, capsys, case, command):
        bad = tmp_path / "beyond.json"
        bad.write_text(BEYOND_PARSER[case])
        assert main([*command, "-i", str(bad), "--eps", "0.1"]) == 3
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "Traceback" not in err

    def test_degenerate_eps_is_data_error(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.json"
        save_instance(Instance(m=1, n=4, b=np.array([2.0]),
                               rewards=np.array([1.0, 2.0, 3.0, 4.0]),
                               consumption=np.ones((4, 1))), tiny)
        assert main(["run", "-i", str(tiny), "--algo", "dpa",
                     "--eps", "0.1"]) == 3

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_exit_code_follows_error_class(self, monkeypatch, capsys, cls):
        def load_instance(path):
            raise cls("boom")

        monkeypatch.setattr(cli, "load_instance", load_instance)
        internal = cls in (InternalError, CycleLimitExceeded)
        assert main(["run", "-i", "x.json", "--algo", "dpa"]) == (4 if internal else 3)
        err = capsys.readouterr().err
        assert "boom" in err and "Traceback" not in err


class TestBench:
    def test_csv_shape_and_header(self, secretary_file, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["bench", "-i", str(secretary_file),
                     "--algos", "ola,dpa", "--eps", "0.1,0.2",
                     "--trials", "3", "--jobs", "1", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "algo,eps,trial,seed,objective,opt,ratio,violations,runtime_ms"
        assert len(lines) == 1 + 2 * 2 * 3
        assert all(line.endswith(",0") for line in lines[1:])  # no --timings

    def test_byte_identical_reruns(self, secretary_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["bench", "-i", str(secretary_file), "--algos", "dpa",
                 "--eps", "0.1", "--trials", "4", "--base-seed", "7",
                 "--jobs", "1"]
        assert main(flags + ["-o", str(a)]) == 0
        assert main(flags + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timings_flag_fills_runtime(self, secretary_file, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["bench", "-i", str(secretary_file), "--algos", "dpa",
                     "--eps", "0.2", "--trials", "2", "--jobs", "1",
                     "--timings", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert any(not row.endswith(",0") for row in rows)

    def test_stdout_when_no_output_path(self, secretary_file, tmp_path, capsys):
        flags = ["bench", "-i", str(secretary_file), "--algos", "ola,greedy_baseline",
                 "--eps", "0.1,0.2", "--trials", "2", "--jobs", "1"]
        assert main(flags) == 0
        out = capsys.readouterr().out
        assert out.startswith("algo,eps,trial,")
        # Byte for byte the file -o writes: no summary line reaches stdout.
        assert main(flags + ["-o", str(tmp_path / "b.csv")]) == 0
        assert out.encode() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("input_file", ["routing_file", "adwords_file"])
    def test_jobs_do_not_change_the_csv(self, input_file, request, tmp_path):
        path = request.getfixturevalue(input_file)
        flags = ["bench", "-i", str(path), "--algos", "ola,dpa,dpa_multi,greedy_baseline",
                 "--eps", "0.1,0.2", "--trials", "3", "--base-seed", "4"]
        for jobs in ("1", "2"):
            assert main(flags + ["--jobs", jobs, "-o", str(tmp_path / f"{jobs}.csv")]) == 0
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()

    def test_offline_lp_is_solved_once(self, routing_file, tmp_path, monkeypatch):
        calls = []

        def counted(inst):
            calls.append(inst.n)
            return offline_opt(inst)

        monkeypatch.setattr(harness, "offline_opt", counted)
        assert main(["bench", "-i", str(routing_file), "--algos", "ola,dpa",
                     "--eps", "0.1,0.2", "--trials", "2", "--jobs", "1",
                     "-o", str(tmp_path / "res.csv")]) == 0
        assert calls == [150]

    def test_zero_optimum_gives_ratio_zero(self, zero_reward_file, tmp_path):
        out = tmp_path / "zero.csv"
        assert main(["bench", "-i", str(zero_reward_file), "--algos", "ola,dpa,greedy_baseline",
                     "--eps", "0.1,0.2", "--trials", "2", "--jobs", "1", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 3 * 2 * 2
        assert all(float(row[5]) == 0.0 and float(row[6]) == 0.0 for row in rows)

    def test_unknown_algo_is_usage_error(self, tmp_path, capsys):
        # checked when the flags are parsed, before the (missing) input is opened
        for algos in ("magic", "ola,magic"):
            assert main(["bench", "-i", str(tmp_path / "missing.json"), "--algos", algos,
                         "--eps", "0.1", "--trials", "1", "--jobs", "1"]) == 2
            err = capsys.readouterr().err
            assert "argument --algos: invalid choice: 'magic'" in err and err.count("\n") == 1


class TestSampleLp:
    def test_report_and_json(self, routing_file, tmp_path, capsys):
        dest = tmp_path / "slp.json"
        assert main(["sample-lp", "-i", str(routing_file), "--eps", "0.2",
                     "--seed", "4", "-o", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "objective = " in out and "guard rejections = " in out
        payload = json.loads(dest.read_text())
        assert set(payload["x"]) <= {0, 1}
        assert len(payload["sample_indices"]) == 30
        assert payload["guard_rejections"] >= 0

    def test_report_keys_follow_the_result_record(self, routing_file, tmp_path):
        dest = tmp_path / "slp.json"
        assert main(["sample-lp", "-i", str(routing_file), "--eps", "0.2",
                     "-o", str(dest)]) == 0
        fields = [f.name for f in dataclasses.fields(harness.ColumnSampleResult)]
        assert list(json.loads(dest.read_text())) == ["eps", "seed", *fields]

    def test_multi_instance_gives_onehot_rows(self, adwords_file, tmp_path):
        dest = tmp_path / "slp.json"
        assert main(["sample-lp", "-i", str(adwords_file), "--eps", "0.2",
                     "-o", str(dest)]) == 0
        x = np.array(json.loads(dest.read_text())["x"])
        assert x.shape == (80, 2)
        assert set(x.ravel().tolist()) <= {0, 1} and x.sum(axis=1).max() <= 1


class TestCheck:
    def test_all_variants_print(self, routing_file, capsys):
        assert main(["check", "-i", str(routing_file), "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("condition") == 4

    def test_single_variant(self, routing_file, capsys):
        assert main(["check", "-i", str(routing_file), "--eps", "0.25",
                     "--variant", "dpa"]) == 0
        out = capsys.readouterr().out
        assert out.count("condition") == 1 and "dpa" in out

    def test_corollary_na_under_all_with_zero_reward(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        save_instance(Instance(m=1, n=20, b=np.array([4.0]),
                               rewards=np.arange(20, dtype=float),
                               consumption=np.full((20, 1), 0.5)), path)
        assert main(["check", "-i", str(path), "--eps", "0.2"]) == 0
        assert "corollary: n/a" in capsys.readouterr().out

    def test_explicit_corollary_with_zero_reward_is_data_error(
            self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        save_instance(Instance(m=1, n=20, b=np.array([4.0]),
                               rewards=np.arange(20, dtype=float),
                               consumption=np.full((20, 1), 0.5)), path)
        assert main(["check", "-i", str(path), "--eps", "0.2",
                     "--variant", "corollary"]) == 3


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.count("\n") == 1  # single-line diagnostic

    def test_unknown_flag(self, capsys):
        assert main(["gen", "--kind", "secretary", "--wat", "1"]) == 2

    def test_bad_eps_value(self, secretary_file, capsys):
        assert main(["run", "-i", str(secretary_file), "--algo", "dpa",
                     "--eps", "1.5"]) == 2
        assert main(["bench", "-i", str(secretary_file), "--eps", "0.1,nope",
                     "--trials", "1"]) == 2

    def test_jobs_below_one(self, secretary_file, capsys):
        for jobs in ("0", "-1"):
            assert main(["bench", "-i", str(secretary_file), "--trials", "1",
                         "--jobs", jobs]) == 2
            err = capsys.readouterr().err
            assert f"argument --jobs: jobs must be an integer >= 1, got {jobs}" in err

    def test_trials_below_one(self, secretary_file, capsys):
        for trials in ("0", "-1"):
            assert main(["bench", "-i", str(secretary_file), "--trials", trials]) == 2
            err = capsys.readouterr().err
            assert f"argument --trials: trials must be an integer >= 1, got {trials}" in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "secretary", "--n", "10", "--k", "2", "-o", "x.json", "--seed", "-1"],
        ["run", "-i", "x.json", "--algo", "dpa", "--shuffle-seed", "-1"],
        ["bench", "-i", "x.json", "--base-seed", "-1"],
        ["sample-lp", "-i", "x.json", "--eps", "0.1", "--seed", "-1"],
    ])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        flag = argv[-2]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {flag[2:]} must be an integer >= 0, got -1" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen" in capsys.readouterr().out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "onlinelp", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "bench" in proc.stdout


def test_overflowing_rewards_are_a_data_error_under_warnings_as_errors(tmp_path):
    """Rewards whose sum overflows float64 are bad input at every boundary: exit 3, one line."""
    def onlinelp(*argv):
        return subprocess.run([sys.executable, "-W", "error", "-m", "onlinelp", *argv],
                              capture_output=True, text=True)

    def data_error(proc):
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1 and "overflow" in proc.stderr, proc.stderr

    huge = tmp_path / "huge.json"
    data_error(onlinelp("gen", "--kind", "routing", "--m", "2", "--n", "50", "--q", "0.5",
                        "--capacity", "5", "--reward-hi", "1e308", "-o", str(huge)))
    assert not huge.exists()
    # Each reward is finite, their sum is not: greedy_baseline solves no LP,
    # so only the reader stands between these and an infinite objective.
    huge.write_text(json.dumps({"m": 1, "n": 2, "b": [1.0], "columns": [
        {"pi": 1e308, "a": [0.5]}, {"pi": 1e308, "a": [0.5]}]}))
    for algo in ("greedy_baseline", "dpa"):
        data_error(onlinelp("run", "-i", str(huge), "--algo", algo, "--eps", "0.5"))


def test_unallocatable_size_is_a_data_error(tmp_path, capsys):
    """numpy refuses the array before touching any memory.

    A 711 PiB array is a MemoryError; a count within the rule that numpy
    cannot address is its ValueError "array is too big".
    """
    out = tmp_path / "big.json"
    for n, m in [(10 ** 11, 10 ** 6), (sys.maxsize, 2)]:
        assert main(["gen", "--kind", "routing", "--n", str(n), "--m", str(m),
                     "--q", "0.5", "--capacity", "5", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("onlinelp: error: ") and err.count("\n") == 1, err
        assert not out.exists()
