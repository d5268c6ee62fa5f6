#!/usr/bin/env python3
"""Layered benchmark of onlinelp: four workloads, checked outputs, traced layers.

    python3 benchmarks/run.py --workload adwords-multi --seed 1 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 60 --trace 1

Each run generates its inputs from --seed, runs whole passes of its workload
for at least --seconds seconds (two passes at least), and checks every
output.  --trace 0 reports the end-to-end metrics.  --trace 1 wraps the
program's public functions, alternates untraced and traced passes, and
reports per-layer metrics and the tracing overhead; its spans are written
to .bench_work/traces/.  "--workload all" runs each workload in a process of
its own.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Exit code: 0 when every check passed, 1 when one failed, 2 when the
program's sources are missing.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: cli-bench runs two
# worker processes and the reference machine has nproc = 2.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("routing-dpa", "routing-stream", "adwords-multi", "cli-bench")
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "load_s": "s", "policy_run_s": "s",
    "arrivals_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lp.solve_s": "s", "lp.solves": "count", "lp.columns": "count", "lp.matrix_mb": "MB",
    "engine.learn_s": "s", "engine.decide_us_per_arrival": "us",
    "engine.step_us_per_arrival": "us", "engine.checkpoints": "count",
    "engine.arrivals": "count", "engine.accepts": "count",
    "engine.guard_rejections": "count", "engine.tie_decisions": "count",
    "multi.flatten_s": "s", "multi.learn_s": "s", "multi.decide_us_per_arrival": "us",
    "model.load_s": "s", "model.save_s": "s", "model.file_mb": "MB",
    "generators.generate_s": "s", "generators.shuffle_s": "s",
    "harness.offline_opt_s": "s", "harness.offline_solves": "count",
    "harness.trial_s": "s", "harness.pool_s": "s", "harness.mean_ratio": "1",
    "cli.startup_s": "s", "trace.overhead_pct": "%",
}
# Counts that must repeat exactly between the passes of a run.
REPEATING = ("engine.checkpoints", "engine.arrivals", "engine.accepts",
             "engine.guard_rejections", "engine.tie_decisions", "harness.mean_ratio")
REPEATING_TRACED = ("lp.solves", "lp.columns", "harness.offline_solves")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _fastest(values) -> float:
    return min(values, default=0.0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _startup_s() -> float:
    """Median wall time of a fresh interpreter importing onlinelp.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import onlinelp.cli"], env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _span_medians(spans, name: str) -> float:
    return _median(s[2] - s[1] for s in spans if s[0] == name)


class Run:
    """Set-up, then passes until the time is up; all state of one run."""

    def __init__(self, workload, seconds: float, trace: bool):
        import checks
        import tracer as tracing

        self.checks, self.tracing = checks, tracing
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.attempted = self.failed = 0
        self.setup_times: list[float] = []
        self.setup_spans: list = []
        self.passes: list = []          # untraced passes
        self.traced: list = []          # (pass, layer times, spans) of traced passes

    def setup(self) -> None:
        tracer = self.tracing.Tracer() if self.trace else None
        if tracer:
            self.tracing.install(tracer)
        try:
            for _ in range(self.workload.setup_repeats):
                self.setup_times.append(self.workload.setup())
        finally:
            if tracer:
                tracer.unwrap()
                self.setup_spans = tracer.spans

    def one_pass(self, traced: bool) -> None:
        tracer = self.tracing.Tracer() if traced else None
        self.attempted += self.workload.ops
        # Every pass starts from the same collector state, so the cyclic
        # collector runs at the same points in every pass.
        gc.collect()
        try:
            if tracer:
                self.tracing.install(tracer)
            try:
                with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
                    p, check = self.workload.run(tracer, in_process=self.trace)
            finally:
                if tracer:
                    tracer.unwrap()
        except self.checks.CheckError:
            raise
        except Exception:  # a program call failed: count the pass's operations as failed
            traceback.print_exc()
            self.failed += self.workload.ops
            return
        check()
        if tracer:
            self.traced.append((p, self.tracing.layer_times(tracer.spans), tracer.spans))
        else:
            self.passes.append(p)

    def measure(self) -> None:
        """Whole rounds until the time is up; a round is a set-up and one
        pass, or with tracing an untraced and a traced pass.  A round starts
        only if it should end within half a round of the deadline."""
        start = time.perf_counter()
        modes = (False, True) if self.trace else (False,)
        rounds, last = 0, 0.0
        while rounds < MIN_PASSES or time.perf_counter() - start + last / 2 < self.seconds:
            t0 = time.perf_counter()
            if not self.trace:
                # Set-ups spread over the run, so their median does not hang
                # on the host's speed in the first second.
                self.setup_times.append(self.workload.setup())
            for traced in modes:
                self.one_pass(traced)
            last = time.perf_counter() - t0
            rounds += 1
        self.check_repeats()

    def check_repeats(self) -> None:
        first = None
        for p in self.passes + [t[0] for t in self.traced]:
            got = {k: p.counters.get(k) for k in REPEATING}
            if first is not None and got != first:
                raise self.checks.CheckError(f"counters differ between passes: {first} vs {got}")
            first = got
        layers = [{k: t[1][k] for k in REPEATING_TRACED} for t in self.traced]
        if any(x != layers[0] for x in layers):
            raise self.checks.CheckError(f"traced counters differ between passes: {layers}")

    def end_to_end(self) -> dict:
        """Set-up time is a median; other timings are the run's fastest sample.

        arrivals_per_s is policy_run_s as a rate; on routing-stream the step
        fold decides the same arrivals again and counts in.
        """
        ps, w = self.passes, self.workload
        policy = _fastest(t for p in ps for t in p.policy_s)
        fold = _fastest(p.fold_s for p in ps)
        return {
            "setup_s": _median(self.setup_times),
            "wall_s": _fastest(p.wall_s for p in ps),
            "load_s": _fastest(t for p in ps for t in p.load_s),
            "policy_run_s": policy,
            "arrivals_per_s": w.arrivals * (2 if fold else 1) / (policy + fold),
            # A program run in a child process is measured alone, without
            # the benchmark's own set-up and checks.
            "peak_rss_mb": (max(p.peak_rss_mb for p in ps) if w.child_process
                            else _peak_rss_mb()),
        }

    def per_layer(self) -> dict:
        """Times are the fastest traced pass's; counts repeat exactly."""
        layers = [t[1] for t in self.traced]
        counters = self.traced[0][0].counters if self.traced else {}

        def fastest(key):
            return _fastest(x[key] for x in layers)

        def per(key, count, scale=1.0):
            return _fastest(x[key] / x[count] * scale if x[count] else 0.0 for x in layers)

        first = layers[0] if layers else {}
        untraced = _fastest(p.wall_s for p in self.passes)
        traced = _fastest(t[0].wall_s for t in self.traced)
        return {
            "lp.solve_s": fastest("lp.solve_s"), "lp.solves": first.get("lp.solves", 0),
            "lp.columns": first.get("lp.columns", 0), "lp.matrix_mb": fastest("lp.matrix_mb"),
            "engine.learn_s": fastest("engine.learn_s"),
            "engine.decide_us_per_arrival": per("engine.decide_s", "engine.decide_arrivals", 1e6),
            "engine.step_us_per_arrival": per("engine.step_s", "engine.step_arrivals", 1e6),
            **{k: counters.get(k, 0) for k in (
                "engine.checkpoints", "engine.arrivals", "engine.accepts",
                "engine.guard_rejections", "engine.tie_decisions")},
            "multi.flatten_s": fastest("multi.flatten_s"), "multi.learn_s": fastest("multi.learn_s"),
            "multi.decide_us_per_arrival": per("multi.decide_s", "multi.decide_arrivals", 1e6),
            "model.load_s": per("model.load_s", "model.loads"),
            "model.save_s": _span_medians(self.setup_spans, "model.save_instance"),
            "model.file_mb": self.workload.file_mb,
            "generators.generate_s": _span_medians(self.setup_spans, "generators.generate"),
            "generators.shuffle_s": fastest("generators.shuffle_s"),
            "harness.offline_opt_s": fastest("harness.offline_opt_s"),
            "harness.offline_solves": first.get("harness.offline_solves", 0),
            "harness.trial_s": fastest("harness.trial_s"), "harness.pool_s": fastest("harness.pool_s"),
            "harness.mean_ratio": counters.get("harness.mean_ratio", 0.0),
            "cli.startup_s": _startup_s(),
            "trace.overhead_pct": (traced / untraced - 1.0) * 100.0 if untraced else 0.0,
        }


def run_workload(args) -> int:
    import onlinelp

    if Path(onlinelp.__file__).resolve().parent != SRC / "onlinelp":
        print(f"run.py: imported onlinelp from {onlinelp.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import checks
    import workloads

    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    run = Run(workloads.WORKLOADS[args.workload](args.seed, str(rundir)),
              args.seconds, bool(args.trace))
    error = None
    try:
        run.setup()
        run.measure()
        if run.failed:
            # No operation fails on these workloads: a failure leaves
            # timings without samples, so the run reports none.
            raise checks.CheckError(f"{run.failed} of {run.attempted} operations failed")
    except checks.CheckError as exc:
        error = str(exc)
        print(f"run.py: check failed: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    if error is None:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    else:
        metrics = {name: 0.0 for name in units}
    env = environment()
    env["jobs"] = workloads.JOBS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "error": error,
        "setup_s": run.setup_times,
        "passes": [vars(p) for p in run.passes] + [vars(t[0]) for t in run.traced],
        "metrics": metrics,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        spans = {"fields": ["name", "start", "end", "parent", "attrs"],
                 "setup": run.setup_spans, "passes": [t[2] for t in run.traced]}
        (WORK / "traces" / f"{tag}.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run.passes) + len(run.traced)} passes, environment {json.dumps(env)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": error is None, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if error is None else 1


def run_all(args) -> int:
    """Each workload in a fresh process; the last line sums them up."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False).stdout
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"run.py: workload {name} printed no result", file=sys.stderr)
            return 1
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onlinelp" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing: no {SRC}/onlinelp", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
