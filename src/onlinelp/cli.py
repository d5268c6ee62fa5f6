"""Command-line front end: gen, run, bench, sample-lp, check.

Every command is deterministic given its flags — all randomness flows from
explicit seeds.  Exit codes: 0 ok, 2 flag/usage error, 3 bad input data,
4 internal solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from ._core import dispatch, options, real
from .engine import check_input_condition
from .errors import InternalError, NonpositiveReward, OnlineLpError
from .generators import GenSpec, generate, shuffle
from .harness import column_sample_solve, offline_opt, run_trials
from .model import MultiInstance, load_instance, save_instance

# gen flags that pass straight through to the generator of the chosen kind.
_GEN_PARAMS = (
    "m", "n", "q", "capacity", "reward_lo", "reward_hi",
    "k", "reward_dist", "sigma",
    "bid_lo", "bid_hi", "budget_rule", "budget", "condition_eps",
    "horizon", "rate", "n_products", "n_resources", "price_lo", "price_hi",
)

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


def _eps_grid(text: str) -> list[float]:
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty eps list")
    return [_eps_value(tok) for tok in toks]


def _name_list(text: str) -> list[str]:
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not toks:
        raise argparse.ArgumentTypeError("empty list")
    return toks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="onlinelp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", required=True,
                     choices=["routing", "secretary", "adwords", "yield"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--check-eps", type=_eps_value, default=None,
                     help="also print capacity-condition checks at this eps")
    gen.add_argument("--m", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--q", type=float)
    gen.add_argument("--capacity", type=float)
    gen.add_argument("--reward-lo", type=float)
    gen.add_argument("--reward-hi", type=float)
    gen.add_argument("--k", type=int)
    gen.add_argument("--reward-dist", choices=["uniform", "heavy_tail"])
    gen.add_argument("--sigma", type=float)
    gen.add_argument("--bid-lo", type=float)
    gen.add_argument("--bid-hi", type=float)
    gen.add_argument("--budget-rule", choices=["fraction", "meet", "miss"])
    gen.add_argument("--budget", type=float)
    gen.add_argument("--condition-eps", type=float)
    gen.add_argument("--horizon", type=float)
    gen.add_argument("--rate", type=float)
    gen.add_argument("--n-products", type=int)
    gen.add_argument("--n-resources", type=int)
    gen.add_argument("--price-lo", type=float)
    gen.add_argument("--price-hi", type=float)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="replay one instance with one policy")
    run.add_argument("-i", "--input", required=True)
    run.add_argument("--algo", required=True,
                     choices=["ola", "dpa", "dpa_multi", "greedy_baseline"])
    run.add_argument("--eps", type=_eps_value, default=0.1)
    run.add_argument("--shuffle-seed", type=int, default=None,
                     help="shuffle the arrival order first with this seed")
    run.add_argument("--decisions-out", default=None,
                     help="also write the 0/1 (or option-index) vector as JSON")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="competitive-ratio trials over a grid")
    bench.add_argument("-i", "--input", required=True)
    bench.add_argument("--algos", type=_name_list, default=["ola", "dpa"],
                       help="comma-separated policy names")
    bench.add_argument("--eps", type=_eps_grid, default=[0.05, 0.1, 0.2],
                       help="comma-separated eps grid")
    bench.add_argument("--trials", type=int, default=20)
    bench.add_argument("--base-seed", type=int, default=0)
    bench.add_argument("-o", "--output", default=None,
                       help="CSV path (stdout when omitted)")
    bench.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    bench.add_argument("--timings", action="store_true",
                       help="record wall time per trial (off keeps CSV reproducible)")
    bench.set_defaults(func=cmd_bench)

    slp = sub.add_parser("sample-lp",
                         help="approximate a large LP by column sampling")
    slp.add_argument("-i", "--input", required=True)
    slp.add_argument("--eps", type=_eps_value, required=True)
    slp.add_argument("--seed", type=int, default=0)
    slp.add_argument("-o", "--output", default=None,
                     help="write the solution vector and report as JSON")
    slp.set_defaults(func=cmd_sample_lp)

    check = sub.add_parser("check", help="capacity-size conditions (advisory)")
    check.add_argument("-i", "--input", required=True)
    check.add_argument("--eps", type=_eps_value, required=True)
    check.add_argument("--variant", default="all",
                       choices=["ola", "dpa", "corollary", "per_row", "all"])
    check.set_defaults(func=cmd_check)

    return parser


def _abar(inst) -> "list[float]":
    return [float(v) for v in options(inst)[1].max(axis=(0, 1))]


def _condition_line(inst, eps: float, variant: str) -> str:
    rep = check_input_condition(inst, eps, variant)
    verdict = "satisfied" if rep.satisfied else "NOT satisfied"
    return (f"condition {rep.variant} at eps={eps:g}: {verdict} "
            f"(have {rep.lhs:.6g}, need >= {rep.rhs:.6g})")


def cmd_gen(args) -> int:
    params = {
        name: getattr(args, name)
        for name in _GEN_PARAMS
        if getattr(args, name) is not None
    }
    inst = generate(GenSpec(kind=args.kind, seed=args.seed, params=params))
    save_instance(inst, args.output)
    bmin = float(inst.b.min())
    shape = f"m={inst.m} n={inst.n}"
    if isinstance(inst, MultiInstance):
        shape += f" k={inst.k}"
    print(f"wrote {args.output}: kind={args.kind} {shape} B={bmin:.6g}")
    print("abar per row: " + " ".join(f"{v:.6g}" for v in _abar(inst)))
    if args.check_eps is not None:
        for variant in ("ola", "dpa", "per_row"):
            print(_condition_line(inst, args.check_eps, variant))
        try:
            print(_condition_line(inst, args.check_eps, "corollary"))
        except NonpositiveReward:
            print("condition corollary: n/a (needs strictly positive rewards)")
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
        if isinstance(inst, MultiInstance):
            payload = {"choices": [int(v) for v in result.choices]}
        else:
            payload = {"decisions": [int(v) for v in result.decisions]}
        payload["objective"] = result.objective
        with open(args.decisions_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def cmd_bench(args) -> int:
    inst = load_instance(args.input)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER.split(","))
    summaries = []
    for algo in args.algos:
        for eps in args.eps:
            stats = run_trials(inst, algo, eps, args.trials,
                               base_seed=args.base_seed, jobs=args.jobs)
            summaries.append(
                f"{algo} eps={eps:g}: mean ratio {stats.mean_ratio:.4f} "
                f"(std {stats.std_ratio:.4f}), violations {stats.violations}"
            )
            for rec in stats.records:
                writer.writerow([
                    algo, real(eps), rec.trial, rec.seed,
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
    if isinstance(inst, MultiInstance):
        raise ValueError("sample-lp works on scalar instances only")
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
            "x": [int(v) for v in res.x],
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
    variants = (
        ["ola", "dpa", "corollary", "per_row"]
        if args.variant == "all" else [args.variant]
    )
    for variant in variants:
        if variant == "corollary" and args.variant == "all":
            try:
                print(_condition_line(inst, args.eps, variant))
            except NonpositiveReward:
                print("condition corollary: n/a (needs strictly positive rewards)")
            continue
        print(_condition_line(inst, args.eps, variant))
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
    except (OnlineLpError, ValueError, OSError) as exc:
        print(f"onlinelp: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
