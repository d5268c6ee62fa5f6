"""Seeded sweep: both algorithms x a grid of eps, summarized in one table.

Equivalent to the `onlinelp bench` subcommand, driven as a library.  The
trial seeds are fixed, so this table is reproducible byte-for-byte run to
run (and the eps trend is the interesting part: too small never learns,
too large wastes the stream).
"""

from onlinelp import GenSpec, generate, run_grid


def main():
    inst = generate(GenSpec(kind="routing", seed=42,
                            params=dict(m=3, n=1200, q=0.4, capacity=70.0)))

    print(f"routing instance: m={inst.m} n={inst.n} B={inst.b.min():.0f}")
    print()
    print(f"{'algo':16s} {'eps':>5s}   mean ratio   std     worst   violations")
    cells = [(algo, eps) for algo in ("ola", "dpa") for eps in (0.02, 0.05, 0.1, 0.2, 0.3)]
    cells.append(("greedy_baseline", 0.1))
    for stats in run_grid(inst, cells, trials=25, base_seed=10):
        print(f"{stats.algo:16s} {stats.eps:5}   {stats.mean_ratio:.4f}      "
              f"{stats.std_ratio:.4f}  {min(stats.ratios):.4f}  {stats.violations}")

if __name__ == "__main__":
    main()
