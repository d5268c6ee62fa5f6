"""Spans around calls into the program's public functions.

The tracer replaces a function at the module attribute through which the
program looks it up (``onlinelp.engine.solve_boxed_lp`` and so on), records a
span (name, start, end, parent, attributes) for every call, and puts the
original back on ``unwrap``.  Spans stay in memory until the run writes them
out.  No code inside the program is changed.
"""

from __future__ import annotations

import contextlib
import functools
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        # One span: [name, start, end, parent index or -1, attrs].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, clock(), 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = clock()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None, **attrs) -> None:
        """Trace calls of ``module.attr`` as spans named ``name``.

        ``describe(args, kwargs, result)`` returns extra attributes recorded
        on the span once the call has returned.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, **attrs) as rec:
                result = original(*args, **kwargs)
                if describe is not None:
                    rec[4].update(describe(args, kwargs, result))
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# The program passes the LP and the instance positionally.
def _lp_shape(args, kwargs, result):
    rows, cols = args[0].A.shape
    return {"rows": rows, "cols": cols}


def _instance_size(args, kwargs, result):
    return {"arrivals": args[0].n}


def _trial_stats(args, kwargs, result):
    return {
        "trials": len(result.records),
        "trial_s": sum(r.runtime_ms for r in result.records) / 1e3,
        "jobs": kwargs.get("jobs", args[5] if len(args) > 5 else 1),
    }


def install(tracer: Tracer) -> None:
    """Wrap the program's public functions at the attributes it calls them by."""
    from onlinelp import cli, engine, generators, harness, model, multi

    for module in (engine, multi, harness):
        tracer.wrap(module, "solve_boxed_lp", "lp.solve", _lp_shape, via=module.__name__)
    for module in (multi, harness):
        tracer.wrap(module, "flatten_lp", "multi.flatten_lp")
    tracer.wrap(multi, "learn_price_multi", "multi.learn_price_multi")
    for module in (engine, harness):
        tracer.wrap(module, "run_ola", "engine.run_ola", _instance_size)
        tracer.wrap(module, "run_dpa", "engine.run_dpa", _instance_size)
    for module in (multi, harness):
        tracer.wrap(module, "run_dpa_multi", "multi.run_dpa_multi", _instance_size)
    for module in (model, cli):
        tracer.wrap(module, "load_instance", "model.load_instance")
    tracer.wrap(model, "save_instance", "model.save_instance")
    tracer.wrap(generators, "generate", "generators.generate")
    for module in (generators, harness, cli):
        tracer.wrap(module, "shuffle", "generators.shuffle")
    for module in (harness, cli):
        tracer.wrap(module, "offline_opt", "harness.offline_opt")
        tracer.wrap(module, "run_trials", "harness.run_trials", _trial_stats)


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_times(spans: list[list]) -> dict[str, float]:
    """Per-layer busy time and counts from one pass's spans.

    A policy span's decide time is its duration minus its learning: the LP
    solves nested under it, or for run_dpa_multi the learn_price_multi calls
    (flatten and solve).
    """
    dur = [s[2] - s[1] for s in spans]
    lp_inside = [0.0] * len(spans)
    learn_inside = [0.0] * len(spans)
    offline_inside = [0.0] * len(spans)
    for i, s in enumerate(spans):
        inside = {"lp.solve": lp_inside, "multi.learn_price_multi": learn_inside,
                  "harness.offline_opt": offline_inside}.get(s[0])
        if inside is not None:
            for a in _ancestors(spans, i):
                inside[a] += dur[i]

    out = dict.fromkeys((
        "lp.solve_s", "lp.solves", "lp.columns", "lp.matrix_mb", "engine.learn_s",
        "engine.decide_s", "engine.decide_arrivals", "engine.step_s", "engine.step_arrivals",
        "multi.flatten_s", "multi.learn_s", "multi.decide_s", "multi.decide_arrivals",
        "model.load_s", "model.loads", "generators.shuffle_s", "harness.offline_opt_s",
        "harness.offline_solves", "harness.trial_s", "harness.pool_s",
    ), 0)
    policies = ("engine.run_ola", "engine.run_dpa", "multi.run_dpa_multi")
    for i, (name, _, _, _, attrs) in enumerate(spans):
        if name == "lp.solve":
            out["lp.solve_s"] += dur[i]
            out["lp.solves"] += 1
            out["lp.columns"] += attrs["cols"]
            out["lp.matrix_mb"] = max(out["lp.matrix_mb"], attrs["rows"] * attrs["cols"] * 8 / 1e6)
            if any(spans[a][0] in policies + ("engine.step_fold",) for a in _ancestors(spans, i)):
                out["engine.learn_s"] += dur[i]
        elif name in policies:
            out["engine.decide_s"] += dur[i] - max(lp_inside[i], learn_inside[i])
            out["engine.decide_arrivals"] += attrs["arrivals"]
            if name == "multi.run_dpa_multi":
                out["multi.decide_s"] += dur[i] - learn_inside[i]
                out["multi.decide_arrivals"] += attrs["arrivals"]
        elif name == "engine.step_fold":
            out["engine.step_s"] += dur[i] - lp_inside[i]
            out["engine.step_arrivals"] += attrs["arrivals"]
        elif name == "multi.flatten_lp":
            out["multi.flatten_s"] += dur[i]
        elif name == "multi.learn_price_multi":
            out["multi.learn_s"] += dur[i]
        elif name == "model.load_instance":
            out["model.load_s"] += dur[i]
            out["model.loads"] += 1
        elif name == "generators.shuffle":
            out["generators.shuffle_s"] += dur[i]
        elif name == "harness.offline_opt":
            out["harness.offline_opt_s"] += dur[i]
            out["harness.offline_solves"] += 1
        elif name == "harness.run_trials":
            out["harness.trial_s"] += attrs["trial_s"]
            out["harness.pool_s"] += dur[i] - offline_inside[i] - attrs["trial_s"] / attrs["jobs"]
    return out
