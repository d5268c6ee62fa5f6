"""The four workloads: set-up (generate and write the inputs) and one pass.

A pass reads its inputs from the file written at set-up and calls only
public functions of ``onlinelp``, looked up through their module attributes
so that the tracer sees every call, or runs the CLI.  It times each call from
outside, then checks every output with ``checks``; checking is not timed.

Routing instances use q = 0.5 and capacity n / 10.  All randomness comes from
the run's seed: the instance is generated with it, and shuffle seeds are
seed * 1000 + r for r = 1, 2, ...
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from onlinelp import cli, engine, generators, harness, lp, model, multi

import checks

clock = time.perf_counter
JOBS = 2  # --jobs of cli-bench, passed explicitly: the CLI's default is os.cpu_count()


@dataclass
class Pass:
    """Timings and outputs of one pass."""

    wall_s: float = 0.0
    load_s: list[float] = field(default_factory=list)
    policy_s: list[float] = field(default_factory=list)   # one entry per policy run
    fold_s: float = 0.0        # the step fold, on routing-stream only
    peak_rss_mb: float = 0.0   # set by workloads whose program runs in a child process
    counters: dict = field(default_factory=dict)   # must repeat exactly between passes

    def count(self, report: checks.RefereeReport) -> None:
        for key in ("checkpoints", "arrivals", "accepts", "guard_rejections", "tie_decisions"):
            name = "engine." + key
            self.counters[name] = self.counters.get(name, 0) + getattr(report, key)


def _choices(result) -> np.ndarray:
    """Decisions as option indices, -1 for a declined arrival."""
    if hasattr(result, "choices"):
        return result.choices
    return result.decisions.astype(np.int64) - 1


def _referee(inst, result, eps: float, mode: str) -> checks.RefereeReport:
    return checks.referee(
        inst.rewards, inst.consumption, inst.b, _choices(result), result.objective,
        result.fill, [(ell, price.p) for ell, price in result.prices_used], eps, mode,
    )


def _certify(inst, offline) -> tuple[float, float]:
    value, x, price = offline
    return checks.certify_offline(inst.rewards, inst.consumption, inst.b, value, x, price.p)


def _rows(inst) -> np.ndarray:
    return np.hstack([inst.rewards.reshape(inst.n, -1), inst.consumption.reshape(inst.n, -1)])


def _check_permutation(inst, shuffled) -> None:
    a, b = _rows(inst), _rows(shuffled)
    same = a.shape == b.shape and np.array_equal(
        a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])])
    if not same:
        raise checks.CheckError("the shuffled instance is not a permutation of the instance")


def _same_arrays(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class Workload:
    """Set-up and passes of one workload; subclasses define ``spec`` and ``run``."""

    name = ""
    setup_repeats = 5   # set-up runs several times and reports the median
    loads = 1           # load_instance calls per pass: more for small files
    ops = 0             # program calls a pass attempts
    arrivals = 0        # arrivals one policy run decides
    child_process = False   # the program runs in a child process, not in this one

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.path = os.path.join(workdir, "input.json")
        self.generated = None
        self._file = None
        self.file_mb = 0.0

    def spec(self) -> generators.GenSpec:
        raise NotImplementedError

    def setup(self) -> float:
        """Generate the instance and write it; return the time taken."""
        t0 = clock()
        inst = generators.generate(self.spec())
        model.save_instance(inst, self.path)
        elapsed = clock() - t0
        with open(self.path, "rb") as fh:
            data = fh.read()
        if self._file is not None and data != self._file:
            raise checks.CheckError("set-up wrote different bytes for the same seed")
        self._file, self.generated = data, inst
        self.file_mb = len(data) / 1e6
        return elapsed

    def load(self, p: Pass):
        inst = None
        for _ in range(self.loads):
            t0 = clock()
            inst = model.load_instance(self.path)
            p.load_s.append(clock() - t0)
        return inst

    def check_loaded(self, inst) -> None:
        g = self.generated
        if not all(_same_arrays(getattr(inst, a), getattr(g, a))
                   for a in ("b", "rewards", "consumption")):
            raise checks.CheckError("loaded arrays differ from the generated ones")

    def run(self, tracer=None, in_process: bool = False):
        """Run one pass; return it and a function that checks its outputs.

        ``tracer`` is set on traced passes.  ``in_process`` asks a workload
        that runs the CLI to call ``onlinelp.cli.main`` instead of a child
        process.
        """
        raise NotImplementedError


class RoutingDpa(Workload):
    name = "routing-dpa"
    n, eps, shuffles = 8000, 0.05, 3
    setup_repeats, loads = 9, 5
    ops = 1 + loads + 2 * shuffles   # loads, offline_opt, then shuffle and run_dpa each
    arrivals = n

    def spec(self):
        return generators.GenSpec("routing", self.seed, dict(
            m=5, n=self.n, q=0.5, capacity=self.n / 10))

    def run(self, tracer=None, in_process=False):
        p = Pass()
        t0 = clock()
        inst = self.load(p)
        offline = harness.offline_opt(inst)
        runs = []
        for r in range(1, self.shuffles + 1):
            shuffled = generators.shuffle(inst, self.seed * 1000 + r)
            t1 = clock()
            result = engine.run_dpa(shuffled, self.eps)
            p.policy_s.append(clock() - t1)
            runs.append((shuffled, result))
        p.wall_s = clock() - t0

        def check():
            self.check_loaded(inst)
            _certify(inst, offline)
            ratios = []
            for shuffled, result in runs:
                _check_permutation(inst, shuffled)
                p.count(_referee(shuffled, result, self.eps, "dpa"))
                ratios.append(result.objective / offline[0])
            p.counters["harness.mean_ratio"] = sum(ratios) / len(ratios)
        return p, check


class RoutingStream(Workload):
    name = "routing-stream"
    n, eps = 25000, 0.01
    ops = 2 + n   # load, run_ola and one step per arrival
    arrivals = n

    def spec(self):
        return generators.GenSpec("routing", self.seed, dict(
            m=5, n=self.n, q=0.5, capacity=self.n / 10))

    def run(self, tracer=None, in_process=False):
        p = Pass()
        t0 = clock()
        inst = self.load(p)
        t1 = clock()
        batch = engine.run_ola(inst, self.eps)
        p.policy_s.append(clock() - t1)
        fold = tracer.span("engine.step_fold", arrivals=inst.n) if tracer else contextlib.nullcontext()
        t1 = clock()
        with fold:
            state = engine.OnlineState.start(inst.m, inst.n, inst.b, self.eps, "ola")
            for col in inst.columns():
                engine.step(state, col)
        p.fold_s = clock() - t1
        p.wall_s = clock() - t0

        def check():
            self.check_loaded(inst)
            p.count(_referee(inst, batch, self.eps, "ola"))
            stream_equal = (
                _same_arrays(np.asarray(state.decisions, dtype=batch.decisions.dtype),
                             batch.decisions)
                and _same_arrays(inst.b - state.remaining, batch.fill)
                and [ell for ell, _ in state.prices_used] == [ell for ell, _ in batch.prices_used]
                and all(_same_arrays(a.p, b.p) for (_, a), (_, b)
                        in zip(state.prices_used, batch.prices_used))
            )
            if not stream_equal:
                raise checks.CheckError("the step fold differs from run_ola")
        return p, check


class AdwordsMulti(Workload):
    name = "adwords-multi"
    n, m, eps = 800, 3, 0.1
    setup_repeats, loads = 15, 10
    # loads, offline_opt, shuffle, run_dpa_multi, then perturb_rewards_multi
    # and run_dpa_multi again
    ops = 5 + loads
    arrivals = n

    def spec(self):
        return generators.GenSpec("adwords", self.seed, dict(n=self.n, m=self.m))

    def run(self, tracer=None, in_process=False):
        p = Pass()
        t0 = clock()
        inst = self.load(p)
        offline = harness.offline_opt(inst)
        shuffled = generators.shuffle(inst, self.seed * 1000 + 1)
        t1 = clock()
        result = multi.run_dpa_multi(shuffled, self.eps)
        p.policy_s.append(clock() - t1)
        # On the adwords family every surplus after the learning window is
        # zero up to rounding, so the referee can only follow the program's
        # choices.  Rewards jittered by 1e-9 of the largest (the paper's
        # perturbation) separate the options, and the referee asserts them.
        jittered = lp.perturb_rewards_multi(shuffled, seed=self.seed * 1000 + 2)
        t1 = clock()
        asserted = multi.run_dpa_multi(jittered, self.eps)
        p.policy_s.append(clock() - t1)
        p.wall_s = clock() - t0

        def check():
            self.check_loaded(inst)
            _certify(inst, offline)
            _check_permutation(inst, shuffled)
            p.count(_referee(shuffled, result, self.eps, "dpa"))
            p.count(_referee(jittered, asserted, self.eps, "dpa"))
            p.counters["harness.mean_ratio"] = result.objective / offline[0]
        return p, check


class CliBench(Workload):
    name = "cli-bench"
    n = 500
    algos, eps_grid, trials = ("ola", "dpa"), (0.05, 0.1, 0.2), 20
    setup_repeats, loads = 15, 10
    ops = 2 + loads   # the bench command, then the certifying loads and offline solve
    arrivals = n
    child_process = True
    _csv = None       # CSV bytes of the first pass

    def spec(self):
        return generators.GenSpec("routing", self.seed, dict(
            m=5, n=self.n, q=0.5, capacity=self.n / 10))

    def argv(self, csv_path: str) -> list[str]:
        return [
            "bench", "-i", self.path, "--algos", ",".join(self.algos),
            "--eps", ",".join(repr(e) for e in self.eps_grid),
            "--trials", str(self.trials), "--jobs", str(JOBS),
            "--base-seed", str(self.seed * 1000), "-o", csv_path,
        ]

    def _subprocess(self, argv: list[str]) -> tuple[int, float]:
        """Run the CLI in a child process; return its exit code and peak RSS in MB."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        with open(os.path.join(self.workdir, "cli.log"), "wb") as log:
            child = subprocess.Popen([sys.executable, "-m", "onlinelp"] + argv,
                                     stdout=log, stderr=log, env=env)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
        child.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss (KiB) covers the child and the workers it waited for.
        return child.returncode, usage.ru_maxrss / 1024

    def run(self, tracer=None, in_process=False):
        p = Pass()
        csv_path = os.path.join(self.workdir, "bench.csv")
        argv = self.argv(csv_path)
        t0 = clock()
        if in_process:
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        else:
            code, p.peak_rss_mb = self._subprocess(argv)
        p.wall_s = clock() - t0
        if code != 0:
            raise RuntimeError(f"onlinelp bench exited with code {code}")
        # The trials run inside the child: its wall time per trial stands in
        # for one policy run.
        p.policy_s.append(p.wall_s / (len(self.algos) * len(self.eps_grid) * self.trials))

        def check():
            # The certifying load and solve are the benchmark's own calls:
            # they run after the tracer is removed and supply load_s.
            with open(csv_path, "rb") as fh:
                data = fh.read()
            inst = self.load(p)
            offline = harness.offline_opt(inst)
            self.check_loaded(inst)
            low, high = _certify(inst, offline)
            slack = checks.FEAS_RTOL * max(1.0, abs(low))
            ratios = checks.check_bench_csv(
                data.decode("utf-8"), self.algos, self.eps_grid, self.trials,
                self.seed * 1000, low - slack, high + slack)
            if self._csv is not None and data != self._csv:
                raise checks.CheckError("the bench CSV differs between passes")
            self._csv = data
            p.counters["harness.mean_ratio"] = sum(ratios) / len(ratios)
        return p, check


WORKLOADS = {w.name: w for w in (RoutingDpa, RoutingStream, AdwordsMulti, CliBench)}
