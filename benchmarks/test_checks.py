"""Each check accepts the program's real output and rejects a tampered one.

    python3 -m pytest -q benchmarks/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from onlinelp import cli, engine, generators, harness, lp, model, multi  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def _routing(n=400, seed=3):
    return generators.generate(generators.GenSpec(
        "routing", seed, dict(m=3, n=n, q=0.5, capacity=n / 10)))


def _adwords(n=120, seed=3):
    return generators.generate(generators.GenSpec("adwords", seed, dict(n=n, m=3)))


def _certify(inst, value, x, p):
    return checks.certify_offline(inst.rewards, inst.consumption, inst.b, value, x, p)


def _referee(inst, result, eps, mode, choices=None, prices=None, fill=None):
    if choices is None:
        choices = getattr(result, "choices", None)
        if choices is None:
            choices = result.decisions.astype(np.int64) - 1
    if prices is None:
        prices = [(ell, pr.p) for ell, pr in result.prices_used]
    return checks.referee(inst.rewards, inst.consumption, inst.b, choices, result.objective,
                          result.fill if fill is None else fill, prices, eps, mode)


@pytest.mark.parametrize("make", [_routing, _adwords])
def test_certificate_accepts_offline_opt_and_rejects_a_perturbed_price(make):
    inst = make()
    value, x, price = harness.offline_opt(inst)
    primal, dual = _certify(inst, value, x, price.p)
    assert primal <= dual
    worse = price.p.copy()
    worse[int(np.argmax(worse))] *= 1.01
    with pytest.raises(CheckError, match="duality gap"):
        _certify(inst, value, x, worse)


def test_certificate_rejects_a_flipped_offline_decision():
    inst = _routing()
    value, x, price = harness.offline_opt(inst)
    flipped = x.copy()
    j = int(np.flatnonzero(flipped < 0.5)[0])
    flipped[j] = 1.0
    with pytest.raises(CheckError):
        _certify(inst, value, flipped, price.p)


def test_certificate_rejects_an_infeasible_x():
    inst = _routing()
    value, x, price = harness.offline_opt(inst)
    with pytest.raises(CheckError, match="exceeds a capacity"):
        _certify(inst, float(inst.rewards.sum()), np.ones_like(x), price.p)


def test_schedule_is_exact_ceiling():
    assert checks.schedule(100, 0.07, "dpa") == [7, 14, 28, 56]
    assert checks.schedule(16000, 0.05, "dpa") == [800, 1600, 3200, 6400, 12800]
    assert checks.schedule(100000, 0.01, "ola") == [1000]
    assert checks.schedule(10, 0.15, "dpa") == [2, 3, 6]


@pytest.mark.parametrize("mode", ["ola", "dpa"])
def test_referee_accepts_scalar_runs(mode):
    inst = generators.shuffle(_routing(), 5)
    result = (engine.run_ola if mode == "ola" else engine.run_dpa)(inst, 0.1)
    report = _referee(inst, result, 0.1, mode)
    assert report.accepts == result.accepted
    assert report.checkpoints == len(result.prices_used)
    assert report.tie_decisions == 0


def test_referee_rejects_a_flipped_decision():
    inst = generators.shuffle(_routing(), 5)
    result = engine.run_dpa(inst, 0.1)
    window = result.prices_used[0][0]
    for t in (int(np.flatnonzero(result.decisions)[0]),
              window + int(np.flatnonzero(result.decisions[window:] == 0)[0])):
        choices = result.decisions.astype(np.int64) - 1
        choices[t] = -1 - choices[t]
        with pytest.raises(CheckError):
            _referee(inst, result, 0.1, "dpa", choices=choices)


def test_referee_rejects_an_accept_in_the_learning_window():
    inst = generators.shuffle(_routing(), 5)
    result = engine.run_ola(inst, 0.1)
    choices = result.decisions.astype(np.int64) - 1
    choices[0] = 0
    with pytest.raises(CheckError, match="learning window"):
        _referee(inst, result, 0.1, "ola", choices=choices)


def test_referee_rejects_a_perturbed_price():
    inst = generators.shuffle(_routing(), 5)
    result = engine.run_dpa(inst, 0.1)
    prices = [(ell, pr.p) for ell, pr in result.prices_used]
    ell, p = prices[-1]
    prices[-1] = (ell, p * 1.2 + 0.05)
    with pytest.raises(CheckError):
        _referee(inst, result, 0.1, "dpa", prices=prices)


def test_referee_rejects_an_off_schedule_checkpoint_and_a_wrong_fill():
    inst = generators.shuffle(_routing(), 5)
    result = engine.run_dpa(inst, 0.1)
    prices = [(ell, pr.p) for ell, pr in result.prices_used]
    prices[1] = (prices[1][0] + 1, prices[1][1])
    with pytest.raises(CheckError, match="checkpoints"):
        _referee(inst, result, 0.1, "dpa", prices=prices)
    with pytest.raises(CheckError, match="fill"):
        _referee(inst, result, 0.1, "dpa", fill=np.nextafter(result.fill, np.inf))


def test_referee_follows_ties_and_rejects_a_raised_multi_price():
    inst = generators.shuffle(_adwords(), 5)
    result = multi.run_dpa_multi(inst, 0.1)
    report = _referee(inst, result, 0.1, "dpa")
    assert report.accepts == result.accepted
    # A price that no reward beats leaves no ties: declining is then forced.
    prices = [(ell, pr.p + 10.0) for ell, pr in result.prices_used]
    with pytest.raises(CheckError, match="does not beat its price"):
        _referee(inst, result, 0.1, "dpa", prices=prices)


def test_referee_asserts_clear_multi_choices():
    # Zero prices make every option's surplus its reward: the largest bid wins.
    inst = generators.shuffle(_adwords(), 5)
    result = multi.run_dpa_multi(inst, 0.1)
    zero = [(ell, np.zeros(inst.m)) for ell, _ in result.prices_used]
    with pytest.raises(CheckError, match="option"):
        _referee(inst, result, 0.1, "dpa", prices=zero)


def _unbounded_adwords():
    # Budgets above all demand price every bidder at 0: each choice is clear.
    return generators.shuffle(generators.generate(generators.GenSpec(
        "adwords", 3, dict(n=120, m=3, budget=2.0))), 5)


def _jittered_adwords():
    # Jittered rewards separate the options that rounding ties on adwords.
    return lp.perturb_rewards_multi(generators.shuffle(_adwords(), 5), seed=11)


@pytest.mark.parametrize("make", [_unbounded_adwords, _jittered_adwords])
def test_referee_rejects_a_flipped_multi_choice(make):
    inst = make()
    result = multi.run_dpa_multi(inst, 0.1)
    report = _referee(inst, result, 0.1, "dpa")
    assert report.tie_decisions == 0 and report.accepts > 0
    t = int(np.flatnonzero(result.choices >= 0)[0])
    choices = result.choices.copy()
    choices[t] = (choices[t] + 1) % inst.k
    with pytest.raises(CheckError, match="option"):
        _referee(inst, result, 0.1, "dpa", choices=choices)


def test_referee_rejects_a_decline_on_a_positive_tie():
    # Two equal options, zero prices, ample capacity: either option may win
    # the tie, but the arrival must be taken.
    n = 10
    rewards, consumption = np.ones((n, 2)), np.full((n, 1, 2), 0.5)
    choices = np.array([-1] + [0, 1] * 4 + [0])
    prices = [(1, np.zeros(1))]

    def run(c):
        taken = int((c >= 0).sum())
        return checks.referee(rewards, consumption, np.array([100.0]), c, float(taken),
                              np.array([0.5 * taken]), prices, 0.1, "ola")

    assert run(choices).tie_decisions == n - 1
    declined = choices.copy()
    declined[4] = -1
    with pytest.raises(CheckError, match="declined"):
        run(declined)


def _bench_csv(tmp_path, inst):
    path = tmp_path / "inst.json"
    model.save_instance(inst, path)
    out = tmp_path / "bench.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["bench", "-i", str(path), "--algos", "ola,dpa", "--eps", "0.1,0.2",
                         "--trials", "3", "--jobs", "1", "--base-seed", "7", "-o", str(out)])
    assert code == 0
    return out.read_text()


def test_bench_csv_check(tmp_path):
    inst = _routing(n=300)
    text = _bench_csv(tmp_path, inst)
    value, x, price = harness.offline_opt(inst)
    low, high = _certify(inst, value, x, price.p)

    def run(t, lo=low, hi=high):
        return checks.check_bench_csv(t, ("ola", "dpa"), (0.1, 0.2), 3, 7, lo, hi)

    assert len(run(text)) == 12
    lines = text.splitlines(keepends=True)
    row = lines[1].split(",")
    bad_ratio = ",".join(row[:6] + [repr(float(row[6]) * (1 + 1e-12))] + row[7:])
    bad_violation = ",".join(row[:7] + ["1"] + row[8:])
    for tampered in (
        "".join([lines[0].replace("opt", "OPT")] + lines[1:]),
        "".join(lines[:-1]),
        "".join([lines[0], bad_ratio] + lines[2:]),
        "".join([lines[0], bad_violation] + lines[2:]),
    ):
        with pytest.raises(CheckError):
            run(tampered)
    with pytest.raises(CheckError, match="certified"):
        run(text, lo=high * 1.001, hi=high * 1.002)
