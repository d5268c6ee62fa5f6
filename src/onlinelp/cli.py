"""Command-line front end: gen, run, bench, sample-lp, check.

Every command is deterministic given its flags — all randomness flows from
explicit seeds.  Exit codes: 0 ok, 2 flag/usage error, 3 bad input data
(including sizes too large to allocate), 4 internal solver failure.

``gen`` takes each generator's keyword parameters as ``--kebab-case`` flags
typed by their annotations; ``run --algo`` and ``check --variant`` offer the
library's ``ALGORITHMS`` and ``CONDITION_VARIANTS``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import partial
from typing import get_args

from .engine import CONDITION_VARIANTS, check_input_condition, options
from .errors import InternalError, NonpositiveReward, OnlineLpError
from .generators import GENERATORS, GenSpec, gen_parameters, generate, shuffle
from .harness import ALGORITHMS, column_sample_solve, dispatch, offline_opt, run_grid
# Unused here: benchmarks/tracer.py wraps ``cli.run_trials`` and fails if the
# name is gone (ROADMAP item 6 retargets it to ``run_grid``).
from .harness import run_trials  # noqa: F401
from .model import MultiInstance, load_instance, real, save_instance

_CSV_HEADER = "algo,eps,trial,seed,objective,opt,ratio,violations,runtime_ms"


class _Parser(argparse.ArgumentParser):
    """argparse with a single-line diagnostic instead of the usage dump."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _eps_value(text: str) -> float:
    try:
        eps = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < eps < 1.0:
        raise argparse.ArgumentTypeError(f"eps must be in (0, 1), got {text}")
    return eps


def _int_at_least(name: str, low: int, text: str) -> int:
    """An integer flag value of at least ``low``; bind ``name`` and ``low`` with ``partial``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {text}")
    return value


def _name_list(text: str) -> list[str]:
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty list")
    return toks


def _algo_list(text: str) -> list[str]:
    algos = _name_list(text)
    for algo in algos:
        if algo not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {algo!r} (choose from {', '.join(ALGORITHMS)})")
    return algos


def _eps_grid(text: str) -> list[float]:
    return [_eps_value(tok) for tok in _name_list(text)]


def _gen_params() -> dict:
    """Every generator's keyword parameters and their annotations, in order of first use."""
    return {name: p.annotation for kind in GENERATORS for name, p in gen_parameters(kind).items()}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="onlinelp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", required=True, choices=list(GENERATORS))
    gen.add_argument("--seed", type=partial(_int_at_least, "seed", 0), default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--check-eps", type=_eps_value, default=None,
                     help="also print capacity-condition checks at this eps")
    for name, annotation in _gen_params().items():
        choices = get_args(annotation) or None
        gen.add_argument("--" + name.replace("_", "-"),
                         type=None if choices else annotation, choices=choices)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="replay one instance with one policy")
    run.add_argument("-i", "--input", required=True)
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--eps", type=_eps_value, default=0.1)
    run.add_argument("--shuffle-seed", type=partial(_int_at_least, "shuffle-seed", 0),
                     default=None,
                     help="shuffle the arrival order first with this seed")
    run.add_argument("--decisions-out", default=None,
                     help="also write the 0/1 (or option-index) vector as JSON")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="competitive-ratio trials over a grid")
    bench.add_argument("-i", "--input", required=True)
    bench.add_argument("--algos", type=_algo_list, default=["ola", "dpa"],
                       help="comma-separated policy names")
    bench.add_argument("--eps", type=_eps_grid, default=[0.05, 0.1, 0.2],
                       help="comma-separated eps grid")
    bench.add_argument("--trials", type=partial(_int_at_least, "trials", 1), default=20)
    bench.add_argument("--base-seed", type=partial(_int_at_least, "base-seed", 0), default=0)
    bench.add_argument("-o", "--output", default=None,
                       help="CSV path (stdout when omitted)")
    bench.add_argument("--jobs", type=partial(_int_at_least, "jobs", 1),
                       default=os.cpu_count() or 1,
                       help="worker processes shared by the whole (algo, eps, trial) grid")
    bench.add_argument("--timings", action="store_true",
                       help="record wall time per trial (off keeps CSV reproducible)")
    bench.set_defaults(func=cmd_bench)

    slp = sub.add_parser("sample-lp",
                         help="approximate a large LP by column sampling")
    slp.add_argument("-i", "--input", required=True)
    slp.add_argument("--eps", type=_eps_value, required=True)
    slp.add_argument("--seed", type=partial(_int_at_least, "seed", 0), default=0)
    slp.add_argument("-o", "--output", default=None,
                     help="write the solution vector and report as JSON")
    slp.set_defaults(func=cmd_sample_lp)

    check = sub.add_parser("check", help="capacity-size conditions (advisory)")
    check.add_argument("-i", "--input", required=True)
    check.add_argument("--eps", type=_eps_value, required=True)
    check.add_argument("--variant", default="all", choices=[*CONDITION_VARIANTS, "all"])
    check.set_defaults(func=cmd_check)

    return parser


def _print_conditions(inst, eps: float, variants) -> None:
    """One line per variant; among several, the corollary reads n/a on nonpositive rewards."""
    for variant in variants:
        try:
            rep = check_input_condition(inst, eps, variant)
        except NonpositiveReward:
            if len(variants) == 1:
                raise
            print("condition corollary: n/a (needs strictly positive rewards)")
            continue
        verdict = "satisfied" if rep.satisfied else "NOT satisfied"
        print(f"condition {rep.variant} at eps={eps:g}: {verdict} "
              f"(have {rep.lhs:.6g}, need >= {rep.rhs:.6g})")


def cmd_gen(args) -> int:
    params = {
        name: getattr(args, name)
        for name in _gen_params()
        if getattr(args, name) is not None
    }
    inst = generate(GenSpec(kind=args.kind, seed=args.seed, params=params))
    save_instance(inst, args.output)
    bmin = float(inst.b.min())
    shape = f"m={inst.m} n={inst.n}"
    if isinstance(inst, MultiInstance):
        shape += f" k={inst.k}"
    print(f"wrote {args.output}: kind={args.kind} {shape} B={bmin:.6g}")
    print("abar per row: " + " ".join(f"{v:.6g}" for v in options(inst)[1].max(axis=(0, 1))))
    if args.check_eps is not None:
        _print_conditions(inst, args.check_eps, CONDITION_VARIANTS)
    return 0


def cmd_run(args) -> int:
    inst = load_instance(args.input)
    if args.shuffle_seed is not None:
        inst = shuffle(inst, args.shuffle_seed)
    result = dispatch(inst, args.algo, args.eps)
    opt, _, _ = offline_opt(inst)
    ratio = result.objective / opt if opt > 0.0 else 0.0
    print(f"algo={args.algo} eps={args.eps:g} m={inst.m} n={inst.n}")
    print(f"objective = {real(result.objective)}")
    print(f"opt = {real(opt)}")
    print(f"ratio = {ratio:.6f}")
    print(f"accepted = {result.accepted} of {inst.n}")
    for i in range(inst.m):
        print(f"fill[{i}] = {result.fill[i]:.6g} of {inst.b[i]:.6g}")
    for ell, price in result.prices_used:
        vals = " ".join(f"{v:.6g}" for v in price.p)
        print(f"price learned at t={ell}: [{vals}]")
    if args.decisions_out is not None:
        key = "choices" if isinstance(inst, MultiInstance) else "decisions"
        payload = {key: getattr(result, key).tolist(), "objective": result.objective}
        with open(args.decisions_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def cmd_bench(args) -> int:
    inst = load_instance(args.input)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER.split(","))
    cells = [(algo, eps) for algo in args.algos for eps in args.eps]
    grid = run_grid(inst, cells, args.trials, base_seed=args.base_seed, jobs=args.jobs)
    summaries = []
    for stats in grid:
        summaries.append(
            f"{stats.algo} eps={stats.eps:g}: mean ratio {stats.mean_ratio:.4f} "
            f"(std {stats.std_ratio:.4f}), violations {stats.violations}"
        )
        for rec in stats.records:
            writer.writerow([
                stats.algo, real(stats.eps), rec.trial, rec.seed,
                real(rec.objective), real(rec.opt), real(rec.ratio),
                rec.violations,
                real(rec.runtime_ms) if args.timings else "0",
            ])
    if args.output is None:
        sys.stdout.write(buf.getvalue())
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
        for line in summaries:
            print(line)
        print(f"wrote {args.output}")
    return 0


def cmd_sample_lp(args) -> int:
    inst = load_instance(args.input)
    res = column_sample_solve(inst, args.eps, seed=args.seed)
    print(f"objective = {real(res.objective)}")
    print(f"accepted = {int(res.x.sum())} of {inst.n}")
    print(f"guard rejections = {res.guard_rejections}")
    for i in range(inst.m):
        print(f"fill[{i}] = {res.fill[i]:.6g} of {inst.b[i]:.6g}")
    vals = " ".join(f"{v:.6g}" for v in res.price.p)
    print(f"sampled price: [{vals}]")
    if args.output is not None:
        payload = {
            "eps": args.eps,
            "seed": args.seed,
            "objective": res.objective,
            "x": res.x.tolist(),
            "fill": [float(v) for v in res.fill],
            "guard_rejections": res.guard_rejections,
            "price": [float(v) for v in res.price.p],
            "sample_indices": [int(v) for v in res.sample_indices],
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def cmd_check(args) -> int:
    inst = load_instance(args.input)
    variants = CONDITION_VARIANTS if args.variant == "all" else (args.variant,)
    _print_conditions(inst, args.eps, variants)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"onlinelp: internal error: {exc}", file=sys.stderr)
        return 4
    except (OnlineLpError, ValueError, OSError, MemoryError) as exc:
        print(f"onlinelp: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
