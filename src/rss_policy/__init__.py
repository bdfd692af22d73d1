"""(R,s,S) inventory policy computation for the non-stationary
stochastic lot-sizing problem with fixed review and ordering costs.

Main entry points:

* :func:`solve_kconvex` / :func:`solve_plain` -- the approximate-SDP
  heuristic (accelerated and reference sweeps, identical output), and
  :func:`solve_lost_sales` for partial backlogging (beta < 1);
* :func:`scarf_fixed_R` / :func:`enumerate_optimal` -- exact baseline for
  one review schedule, and over all of them by branch-and-bound within a
  node budget (full backlogging only);
* :func:`expected_cost` / :func:`simulate` -- policy evaluation;
* :mod:`rss_policy.testbed` -- benchmark instance generators.

Every sweep, the heuristics' and ``scarf_fixed_R``'s, returns its
:class:`ValueTables`: :func:`extract_policy` gives the policy and
``root_cost`` its cost.

Each entry point takes an optional ``context``: a :class:`SolveContext`
built for the same instance. It holds the discretized demand, the
inventory grid and the cost engine (:class:`CycleCostEngine`), which
prices every review cycle; the solvers and the evaluator decide on its
prices. The discretization is fixed, and without a context the entry
point builds one. The grid is the state space; the heuristic sweeps and
the exact search decide on certified windows of it, and the sweeps
return their value tables on theirs.
"""

from .costs import CostParams, CycleCostEngine
from .demand import (
    CumulativeDemandCache,
    DemandPmf,
    DemandSpec,
    convolve,
    discretize,
    point_mass,
)
from .evaluate import EvalReport, expected_cost, optimality_gap, simulate
from .exact import (
    EnumerationResult,
    HorizonCapError,
    enumerate_optimal,
    scarf_fixed_R,
)
from .model import Instance, Policy, PolicyReview, ReviewSchedule
from .serialize import (
    SchemaError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_instance,
)
from .solver import (
    InventoryGrid,
    SolveContext,
    SolveStats,
    ValueTables,
    build_grid,
    extract_policy,
    solve_kconvex,
    solve_lost_sales,
    solve_plain,
)
from .testbed import PatternSpec, gen_analysis, gen_scalability, pattern_means

__version__ = "0.1.0"

__all__ = [
    "CostParams",
    "CumulativeDemandCache",
    "CycleCostEngine",
    "DemandPmf",
    "DemandSpec",
    "EnumerationResult",
    "EvalReport",
    "HorizonCapError",
    "Instance",
    "InventoryGrid",
    "PatternSpec",
    "Policy",
    "PolicyReview",
    "ReviewSchedule",
    "SchemaError",
    "SolveContext",
    "SolveStats",
    "ValueTables",
    "build_grid",
    "convolve",
    "discretize",
    "enumerate_optimal",
    "expected_cost",
    "extract_policy",
    "gen_analysis",
    "gen_scalability",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "load_policy",
    "optimality_gap",
    "pattern_means",
    "point_mass",
    "policy_from_dict",
    "policy_to_dict",
    "save_instance",
    "scarf_fixed_R",
    "simulate",
    "solve_kconvex",
    "solve_lost_sales",
    "solve_plain",
]
