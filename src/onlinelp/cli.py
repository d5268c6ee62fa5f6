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
import json
import sys
from contextlib import nullcontext
from dataclasses import astuple, fields, replace
from functools import partial
from typing import get_args

from .engine import CONDITION_VARIANTS, check_eps, check_input_condition
from .errors import InternalError, NonpositiveReward, OnlineLpError
from .generators import GENERATORS, GenSpec, gen_parameters, generate, shuffle
from .harness import (
    ALGORITHMS, TrialRecord, column_sample_solve, competitive_ratio, dispatch, offline_opt,
    run_grid, usable_cpus,
)
# Unused here: benchmarks/tracer.py wraps ``cli.run_trials`` and fails if the
# name is gone (ROADMAP item 2 retargets it to ``run_grid``).
from .harness import run_trials  # noqa: F401
from .model import (
    DualPrice, MultiInstance, check_count, check_seed, load_instance, real, save_instance,
)


class _Parser(argparse.ArgumentParser):
    """argparse with a single-line diagnostic instead of the usage dump."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _flag(parse, rule, text: str):
    """``text`` parsed by ``parse`` (int or float), then held to the library's ``rule``."""
    try:
        value = parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
    try:
        rule(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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
    return [_flag(float, check_eps, tok) for tok in _name_list(text)]


def _gen_params() -> dict:
    """Every generator's keyword parameters and their annotations, in order of first use."""
    return {name: p.annotation for kind in GENERATORS for name, p in gen_parameters(kind).items()}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="onlinelp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("-i", "--input", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", required=True, choices=list(GENERATORS))
    gen.add_argument("--seed", type=partial(_flag, int, partial(check_seed, "seed")), default=0)
    gen.add_argument("-o", "--output", required=True)
    for name, annotation in _gen_params().items():
        choices = get_args(annotation) or None
        gen.add_argument("--" + name.replace("_", "-"),
                         type=None if choices else annotation, choices=choices)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", parents=[source], help="replay one instance with one policy")
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--eps", type=partial(_flag, float, check_eps), default=0.1)
    run.add_argument("--shuffle-seed", default=None,
                     type=partial(_flag, int, partial(check_seed, "shuffle-seed")),
                     help="shuffle the arrival order first with this seed")
    run.add_argument("--decisions-out", default=None,
                     help="also write the 0/1 (or option-index) vector as JSON")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", parents=[source], help="competitive-ratio trials over a grid")
    bench.add_argument("--algos", type=_algo_list, default=["ola", "dpa"],
                       help="comma-separated policy names")
    bench.add_argument("--eps", type=_eps_grid, default=[0.05, 0.1, 0.2],
                       help="comma-separated eps grid")
    bench.add_argument("--trials", type=partial(_flag, int, partial(check_count, "trials")),
                       default=20)
    bench.add_argument("--base-seed", type=partial(_flag, int, partial(check_seed, "base-seed")),
                       default=0)
    bench.add_argument("-o", "--output", default=None,
                       help="CSV path (stdout when omitted)")
    bench.add_argument("--jobs", type=partial(_flag, int, partial(check_count, "jobs")),
                       default=usable_cpus(),
                       help="worker processes shared by the whole (algo, eps, trial) grid")
    bench.add_argument("--timings", action="store_true",
                       help="record wall time per trial (off keeps CSV reproducible)")
    bench.set_defaults(func=cmd_bench)

    slp = sub.add_parser("sample-lp", parents=[source],
                         help="approximate a large LP by column sampling")
    slp.add_argument("--eps", type=partial(_flag, float, check_eps), required=True)
    slp.add_argument("--seed", type=partial(_flag, int, partial(check_seed, "seed")), default=0)
    slp.add_argument("-o", "--output", default=None,
                     help="write the solution vector and report as JSON")
    slp.set_defaults(func=cmd_sample_lp)

    check = sub.add_parser("check", parents=[source], help="capacity-size conditions (advisory)")
    check.add_argument("--eps", type=partial(_flag, float, check_eps), required=True)
    check.add_argument("--variant", default="all", choices=[*CONDITION_VARIANTS, "all"])
    check.set_defaults(func=cmd_check)

    return parser


def _print_fill(fill, b) -> None:
    for i, (used, cap) in enumerate(zip(fill, b)):
        print(f"fill[{i}] = {used:.6g} of {cap:.6g}")


def _write_json(path, payload: dict) -> None:
    # numpy arrays and scalars go through ``tolist``, a DualPrice as its vector.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh,
                  default=lambda v: v.p if isinstance(v, DualPrice) else v.tolist())
        fh.write("\n")


def cmd_gen(args) -> int:
    params = {
        name: getattr(args, name)
        for name in _gen_params()
        if getattr(args, name) is not None
    }
    inst = generate(GenSpec(kind=args.kind, seed=args.seed, params=params))
    save_instance(inst, args.output)
    shape = f"m={inst.m} n={inst.n}"
    if isinstance(inst, MultiInstance):
        shape += f" k={inst.k}"
    print(f"wrote {args.output}: kind={args.kind} {shape} B={inst.b.min():.6g}")
    abar = inst.consumption.reshape(inst.n, inst.m, -1).max(axis=(0, 2))
    print("abar per row: " + " ".join(f"{v:.6g}" for v in abar))
    return 0


def cmd_run(args) -> int:
    inst = load_instance(args.input)
    if args.shuffle_seed is not None:
        inst = shuffle(inst, args.shuffle_seed)
    result = dispatch(inst, args.algo, args.eps)
    opt, _, _ = offline_opt(inst)
    print(f"algo={args.algo} eps={args.eps:g} m={inst.m} n={inst.n}")
    print(f"objective = {real(result.objective)}")
    print(f"opt = {real(opt)}")
    print(f"ratio = {competitive_ratio(result.objective, opt):.6f}")
    print(f"accepted = {result.accepted} of {inst.n}")
    _print_fill(result.fill, inst.b)
    for ell, price in result.prices_used:
        vals = " ".join(f"{v:.6g}" for v in price.p)
        print(f"price learned at t={ell}: [{vals}]")
    if args.decisions_out is not None:
        key = "choices" if isinstance(inst, MultiInstance) else "decisions"
        _write_json(args.decisions_out, {key: getattr(result, key), "objective": result.objective})
    return 0


def cmd_bench(args) -> int:
    inst = load_instance(args.input)
    cells = [(algo, eps) for algo in args.algos for eps in args.eps]
    grid = run_grid(inst, cells, args.trials, base_seed=args.base_seed, jobs=args.jobs)
    with (nullcontext(sys.stdout) if args.output is None
          else open(args.output, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algo", "eps", *(f.name for f in fields(TrialRecord))])
        for stats in grid:
            for rec in stats.records:
                if not args.timings:
                    rec = replace(rec, runtime_ms=0.0)
                writer.writerow([stats.algo, real(stats.eps), *(
                    real(v) if isinstance(v, float) else v for v in astuple(rec))])
    if args.output is not None:
        for stats in grid:
            print(f"{stats.algo} eps={stats.eps:g}: mean ratio {stats.mean_ratio:.4f} "
                  f"(std {stats.std_ratio:.4f}), violations {stats.violations}")
        print(f"wrote {args.output}")
    return 0


def cmd_sample_lp(args) -> int:
    inst = load_instance(args.input)
    res = column_sample_solve(inst, args.eps, seed=args.seed)
    print(f"objective = {real(res.objective)}")
    print(f"accepted = {int(res.x.sum())} of {inst.n}")
    print(f"guard rejections = {res.guard_rejections}")
    _print_fill(res.fill, inst.b)
    vals = " ".join(f"{v:.6g}" for v in res.price.p)
    print(f"sampled price: [{vals}]")
    if args.output is not None:
        _write_json(args.output, {"eps": args.eps, "seed": args.seed, **vars(res)})
    return 0


def cmd_check(args) -> int:
    inst = load_instance(args.input)
    variants = CONDITION_VARIANTS if args.variant == "all" else (args.variant,)
    for variant in variants:
        try:
            rep = check_input_condition(inst, args.eps, variant)
        except NonpositiveReward:
            # Among several variants the corollary reads n/a on nonpositive rewards.
            if len(variants) == 1:
                raise
            print("condition corollary: n/a (needs strictly positive rewards)")
            continue
        verdict = "satisfied" if rep.satisfied else "NOT satisfied"
        print(f"condition {rep.variant} at eps={args.eps:g}: {verdict} "
              f"(have {rep.lhs:.6g}, need >= {rep.rhs:.6g})")
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
