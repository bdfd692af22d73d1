"""Benchmark workloads: seeded instance streams and the per-instance pipeline.

Each workload is an endless stream of *cycles*, each a short fixed mix of
cases generated from the seed with ``rss_policy.testbed``. A run stops
between instances, so its mix is off by at most one partial cycle.

* ``scal_long``: ``gen_scalability`` instances at T = 35 (grids of about
  4.1k-4.5k), solved by ``solve_kconvex`` and evaluated analytically
  and by Monte Carlo. The per-state kconvex scan and its T^2/2 long direct
  convolutions dominate; the exact solver never runs.
* ``factorial_oracle``: T = 10 ``gen_analysis`` cells, one per demand model
  with seeded K, W and pattern levels, plus one cell on which kconvex is
  known to be non-optimal. Each runs ``enumerate_optimal`` and then
  ``solve_kconvex`` on the same context (reusing the engine levels the
  oracle built) and ``optimality_gap``. Enumeration dominates; grids are
  short and pmfs small, so long convolutions are absent.
* ``plain_search``: T = 6 instances with beta in {0, 0.5} solved by
  ``solve_lost_sales`` and T = 4 with beta = 1 solved by ``solve_plain``,
  each checked by ``simulate``. The exhaustive O(grid^2) order-quantity search dominates;
  the kconvex scan and the exact solver never run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from rss_policy import evaluate, exact, solver, testbed
from rss_policy.costs import CostParams
from rss_policy.demand import DemandSpec
from rss_policy.model import Instance, Policy

DEFAULT_SEED = 0
MC_PATHS = 80_000
EVAL_REL_TOL = 1e-8  # beta = 1: expected_cost must reproduce the solver cost
MC_HALFWIDTHS = 3.0  # beta < 1: solver cost within 3 MC 95% half-widths
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_CYCLES = 6

# One horizon, the middle of the long range T = 30-40: with a 30/35/40 mix
# the median sat on the two or three T = 35 instances of a run and spread
# three times as much from run to run as the throughput.
SCAL_T = 35
SCAL_PER_CYCLE = 3
FACTORIAL_T = 10
# Label tags of the five demand models of the factorial design.
DEMAND_TAGS = ("poisson",) + tuple(f"normal{cv}" for cv in testbed.ANALYSIS_CVS)
# T = 10 factorial cells without the RAND pattern (so they do not depend
# on the seed) on which solve_kconvex is above the enumerated optimum.
NON_OPTIMAL_CELLS = (
    "analysis-T10-K40-W20-normal0.4-LCY1",
    "analysis-T10-K20-W20-normal0.3-DEC",
    "analysis-T10-K40-W40-normal0.4-INC",
)
# (horizon, beta) of one plain_search cycle: two partial-backlog instances
# through solve_lost_sales and one full-backlog instance through
# solve_plain, which is about as slow as the other two together (its curve
# is evaluated through per-state closures), so neither path takes much more
# than half of a cycle.
PLAIN_MIX = ((6, 0.0), (6, 0.5), (4, 1.0))
# Per-period mean demand of plain_search. Patterns are rescaled to a total
# of PLAIN_BASE_MEAN * T, which fixes the grid and so the search work.
PLAIN_BASE_MEAN = 35.0

WORKLOADS = ("scal_long", "factorial_oracle", "plain_search")
# `rss-policy solve --solver` of each workload's CLI cross-check (None:
# the CLI default, kconvex).
CLI_SOLVER = {"scal_long": None, "factorial_oracle": "exact", "plain_search": "lost_sales"}


@dataclass(frozen=True)
class Case:
    """One instance and the pipeline steps run on it."""

    instance: Instance
    solver: str  # kconvex | plain | lost_sales
    oracle: bool = False  # enumerate_optimal first, then the optimality gap
    expected_cost: bool = False  # explicit analytic evaluation
    mc_seed: Optional[int] = None  # Monte-Carlo check with this seed


@dataclass
class Result:
    """What one case produced, with the counters the traced run reports."""

    label: str
    beta: float
    policy: Policy
    cost: float
    oracle_policy: Optional[Policy] = None
    oracle_cost: Optional[float] = None
    gap: Optional[float] = None
    eval_rel_err: Optional[float] = None
    mc_z: Optional[float] = None
    mc_outside: bool = False
    counters: dict = dataclasses.field(default_factory=dict)


def subseed(*keys: int) -> int:
    """Deterministic 32-bit seed derived from the run seed and indices."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


# ----------------------------------------------------------------------
# Instance streams
# ----------------------------------------------------------------------

def _scal_long_cycle(seed: int, k: int) -> list[Case]:
    return [
        Case(
            testbed.gen_scalability(SCAL_T, 1, seed=subseed(seed, k, j))[0],
            "kconvex",
            expected_cost=True,
            mc_seed=subseed(seed, k, j, 1),
        )
        for j in range(SCAL_PER_CYCLE)
    ]


def _factorial_cycle(cells: dict[str, Instance], seed: int, k: int) -> list[Case]:
    rng = np.random.default_rng(subseed(seed, k))
    levels = testbed.ANALYSIS_COST_LEVELS
    labels = []
    for tag in DEMAND_TAGS:
        K = levels[rng.integers(len(levels))]
        W = levels[rng.integers(len(levels))]
        pattern = testbed.PATTERNS[rng.integers(len(testbed.PATTERNS))]
        labels.append(f"analysis-T{FACTORIAL_T}-K{K:g}-W{W:g}-{tag}-{pattern}")
    labels.append(NON_OPTIMAL_CELLS[k % len(NON_OPTIMAL_CELLS)])
    return [Case(cells[label], "kconvex", oracle=True) for label in labels]


def _plain_instance(seed: int, k: int, j: int, T: int, beta: float) -> Instance:
    """Poisson demand on a seeded testbed pattern, costs drawn from the
    ``gen_scalability`` ranges. Every seed gives the same total demand, so
    the exhaustive search does the same work and only its answers vary."""
    rng = np.random.default_rng(subseed(seed, k, j))
    pattern = testbed.PATTERNS[rng.integers(len(testbed.PATTERNS))]
    spec = testbed.PatternSpec(pattern, PLAIN_BASE_MEAN, T, seed=subseed(seed, k, j, 1))
    params = CostParams(K=float(rng.uniform(80.0, 320.0)), W=float(rng.uniform(80.0, 320.0)),
                        h=1.0, b=float(rng.uniform(4.0, 16.0)))
    return Instance(
        T=T,
        params=params,
        I0=0,
        demand=tuple(DemandSpec("poisson", float(m)) for m in testbed.pattern_means(spec)),
        beta=beta,
        label=f"plain-T{T}-{pattern}-beta{beta:g}",
    )


def _plain_cycle(seed: int, k: int) -> list[Case]:
    return [
        Case(
            _plain_instance(seed, k, j, T, beta),
            "plain" if beta == 1.0 else "lost_sales",
            mc_seed=subseed(seed, k, j, 2),
        )
        for j, (T, beta) in enumerate(PLAIN_MIX)
    ]


def prepare(workload: str, seed: int) -> Callable[[int], list[Case]]:
    """Generate what the workload's stream needs; returns cycle(k)."""
    if workload == "scal_long":
        return lambda k: _scal_long_cycle(seed, k)
    if workload == "factorial_oracle":
        cells = {inst.label: inst for inst in testbed.gen_analysis(FACTORIAL_T, seed=seed)}
        return lambda k: _factorial_cycle(cells, seed, k)
    if workload == "plain_search":
        return lambda k: _plain_cycle(seed, k)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_cases(workload: str, seed: int) -> list[Case]:
    """Tiny cases through the same code paths, run once during set-up
    (T = 1 for the exhaustive search, whose cost grows with grid^2)."""
    if workload == "plain_search":
        tiny = testbed.gen_scalability(1, 1, seed=subseed(seed, 99))[0]
        half = dataclasses.replace(tiny, beta=0.5)
        return [Case(half, "lost_sales", mc_seed=1), Case(tiny, "plain", mc_seed=1)]
    tiny = testbed.gen_scalability(3, 1, seed=subseed(seed, 99))[0]
    if workload == "scal_long":
        return [Case(tiny, "kconvex", expected_cost=True, mc_seed=1)]
    return [Case(tiny, "kconvex", oracle=True)]


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

def run_case(case: Case) -> tuple[Result, solver.SolveContext]:
    """SolveContext -> [exact oracle] -> solver -> extract_policy -> evaluator,
    as ``rss-policy benchmark`` calls them. Functions are looked up on their
    modules at call time so that the traced run sees its wrappers."""
    inst = case.instance
    ctx = solver.SolveContext(inst)
    oracle = exact.enumerate_optimal(inst, context=ctx) if case.oracle else None
    tables = getattr(solver, f"solve_{case.solver}")(inst, context=ctx)
    policy = solver.extract_policy(tables, inst)
    cost = tables.root_cost(inst.I0)
    res = Result(label=inst.label or "", beta=inst.beta, policy=policy, cost=cost)
    res.counters = {
        "solver.states_evaluated": tables.stats.states_evaluated,
        "solver.q_iterations": tables.stats.q_iterations,
        "solver.table_states": ctx.grid.size * inst.T * (inst.T + 1) // 2,
    }
    if oracle is not None:
        res.oracle_policy, res.oracle_cost = oracle.policy, oracle.cost
        res.gap = evaluate.optimality_gap(cost, oracle.cost)
        res.counters["exact.n_schedules"] = oracle.n_schedules
        res.counters["exact.states_evaluated"] = oracle.stats.states_evaluated
    analytic = None
    if case.expected_cost:
        analytic = evaluate.expected_cost(inst, policy, context=ctx)
    if case.mc_seed is not None:
        report = evaluate.simulate(inst, policy, MC_PATHS, case.mc_seed, context=ctx)
        analytic = report.expected_cost
        se = report.mc_halfwidth_95 / 1.96
        res.mc_z = abs(cost - report.mc_mean) / se if se > 0 else 0.0
        res.mc_outside = abs(cost - report.mc_mean) > MC_HALFWIDTHS * report.mc_halfwidth_95
        res.counters["evaluate.mc_paths"] = MC_PATHS
    if analytic is not None:
        res.eval_rel_err = abs(analytic - cost) / abs(cost)
    return res, ctx


def cli_target(workload: str, solved: list[tuple[Case, Result]]):
    """The first solved case the CLI cross-check can repeat, with the policy
    and cost the CLI must print for it; None if there is none."""
    solver_name = CLI_SOLVER[workload]
    for case, res in solved:
        if solver_name == "exact":
            return case, res.oracle_policy, res.oracle_cost
        if (solver_name == "lost_sales") == (case.instance.beta < 1.0):
            return case, res.policy, res.cost
    return None


def gate(res: Result) -> Optional[str]:
    """Per-instance correctness gates; returns the failure or None."""
    if res.beta == 1.0 and res.eval_rel_err is not None and res.eval_rel_err > EVAL_REL_TOL:
        return f"expected_cost differs from the solver cost by {res.eval_rel_err:.3g} (relative)"
    # expected_cost assumes full backlogging, so for beta < 1 only the
    # Monte-Carlo estimate, which simulates the partial backlog, is gated.
    if res.beta < 1.0 and res.mc_outside:
        return f"solver cost lies {res.mc_z:.2f} standard errors from the MC mean"
    return None


# ----------------------------------------------------------------------
# Reference outputs
# ----------------------------------------------------------------------

def policy_rows(policy: Policy) -> list[list[int]]:
    """[period, cycle, s, S] per review."""
    return [[rv.period, rv.cycle, rv.reorder, rv.order_up_to] for rv in policy.reviews]


def reference_entry(k: int, j: int, res: Result) -> dict:
    entry = {"cycle": k, "index": j, "label": res.label,
             "policy": policy_rows(res.policy), "cost": res.cost}
    if res.oracle_policy is not None:
        entry["oracle_policy"] = policy_rows(res.oracle_policy)
        entry["oracle_cost"] = res.oracle_cost
    return entry


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict[tuple[int, int], dict]:
    doc = json.loads(reference_path(workload).read_text())
    return {(e["cycle"], e["index"]): e for e in doc["instances"]}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EVAL_REL_TOL * abs(b)


def reference_mismatch(expected: dict, res: Result) -> Optional[str]:
    """Policies must be identical and costs equal within 1e-8 relative."""
    got = reference_entry(expected["cycle"], expected["index"], res)
    for key in ("label", "policy", "oracle_policy"):
        if got.get(key) != expected.get(key):
            return f"{key} differs from the reference"
    for key in ("cost", "oracle_cost"):
        if key in expected and not _close(got[key], expected[key]):
            return f"{key} {got[key]!r} differs from the reference {expected[key]!r}"
    return None
