"""Online linear programming under random arrival order.

A stream of columns (reward, consumption vector) arrives in uniformly random
order against fixed row capacities.  The engine learns dual prices from an
early prefix LP — once (``run_ola``) or at geometrically spaced checkpoints
(``run_dpa``) — and accepts a column exactly when its reward strictly beats
the priced consumption and the column still fits.  Ships with a
bounded dual simplex solver that keeps each arrival's "pick at most one"
constraint implicit (generalized upper bounds, Dantzig & Van Slyke 1967), so
it works on an m-by-m basis, and passes many bound flips per iteration (a
long-step ratio test), so its iterations grow with m; a multi-choice
extension (one of k options per arrival, adwords-style budgeted
allocation); instance generators; and a benchmark harness for empirical
competitive ratios.
"""

from .errors import (
    AllZeroBids,
    BadSpec,
    CycleLimitExceeded,
    DegenerateWindow,
    DimensionMismatch,
    InternalError,
    NonpositiveReward,
    OnlineLpError,
    ParseError,
    StreamExhausted,
)
from .model import (
    Column,
    DualPrice,
    Instance,
    MultiColumn,
    MultiInstance,
    RunResult,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from .lp import (
    BoxedLp,
    CsViolation,
    LpSolution,
    SolveStats,
    perturb_rewards,
    perturb_rewards_multi,
    solve_boxed_lp,
    verify_complementary_slackness,
)
from .engine import (
    ConditionReport,
    OnlineState,
    allocation_rule,
    check_input_condition,
    geometric_schedule,
    h_factor,
    learn_price,
    multi_allocation_rule,
    run_dpa,
    run_ola,
    sample_lp,
    step,
)
from .multi import (
    flatten_lp,
    learn_price_multi,
    run_dpa_multi,
)
from .generators import (
    GenSpec,
    adwords_to_multi,
    gen_adwords,
    gen_routing,
    gen_secretary,
    gen_yield,
    generate,
    shuffle,
)
from .harness import (
    ColumnSampleResult,
    TrialRecord,
    TrialStats,
    column_sample_solve,
    greedy_baseline,
    lemma_kkt_oracle,
    lemma_sample_opt_oracle,
    offline_opt,
    run_grid,
    run_trials,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroBids",
    "BadSpec",
    "BoxedLp",
    "Column",
    "ColumnSampleResult",
    "ConditionReport",
    "CsViolation",
    "CycleLimitExceeded",
    "DegenerateWindow",
    "DimensionMismatch",
    "DualPrice",
    "GenSpec",
    "Instance",
    "InternalError",
    "LpSolution",
    "SolveStats",
    "MultiColumn",
    "MultiInstance",
    "NonpositiveReward",
    "OnlineLpError",
    "OnlineState",
    "ParseError",
    "RunResult",
    "StreamExhausted",
    "TrialRecord",
    "TrialStats",
    "adwords_to_multi",
    "allocation_rule",
    "check_input_condition",
    "column_sample_solve",
    "flatten_lp",
    "gen_adwords",
    "gen_routing",
    "gen_secretary",
    "gen_yield",
    "generate",
    "geometric_schedule",
    "greedy_baseline",
    "h_factor",
    "instance_from_json",
    "instance_to_json",
    "learn_price",
    "learn_price_multi",
    "lemma_kkt_oracle",
    "lemma_sample_opt_oracle",
    "load_instance",
    "multi_allocation_rule",
    "offline_opt",
    "perturb_rewards",
    "perturb_rewards_multi",
    "run_dpa",
    "run_dpa_multi",
    "run_ola",
    "run_grid",
    "run_trials",
    "sample_lp",
    "save_instance",
    "shuffle",
    "solve_boxed_lp",
    "step",
    "verify_complementary_slackness",
]
