"""Analytic and Monte-Carlo evaluation of fixed (R,s,S) policies.

The analytic route recurses backward over the policy's review cycles on
the context's whole grid with the cost engine's ``cycle_curve``; the
heuristic sweep's tables equal the grid's on its certified window (see
``solver``).
So a solver's reported cost and the evaluator's answer for its extracted
policy agree to floating-point noise; any larger mismatch signals a bug
rather than tolerance slack. The Monte-Carlo route samples demand from
the same discretized pmfs, by the exact inverse-CDF lookup of
``DemandPmf.sample``, as an independent stochastic check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Instance, Policy
from .costs import _truncate
from .demand import check_memory
from .solver import SolveContext, _context


@dataclass(frozen=True)
class EvalReport:
    """Analytic cost next to a Monte-Carlo estimate of the same policy."""

    expected_cost: float
    mc_mean: float
    mc_halfwidth_95: float
    n_paths: int
    seed: int


def expected_cost(
    instance: Instance,
    policy: Policy,
    *,
    context: Optional[SolveContext] = None,
) -> float:
    """Exact expected cost of the policy under the discretized demand.

    At each review the fixed decision rule applies: order up to the
    order-up-to level iff the opening inventory is below the reorder
    level. Each review's no-order curve is the cost engine's
    ``cycle_curve``, which the solvers decide on, partial backlogging
    included. A policy whose
    order-up-to level lies above the grid ceiling cannot be priced on
    the grid and is refused; this covers every reorder level above the
    ceiling. A cost that overflows float64 (inf or NaN) raises
    ``ValueError``.
    """
    if policy.horizon != instance.T:
        raise ValueError(
            f"policy horizon {policy.horizon} does not match instance horizon {instance.T}"
        )
    ctx = _context(instance, context)
    grid = ctx.grid
    top = max(rv.order_up_to for rv in policy.reviews)
    if top > grid.max_inv:
        raise ValueError(
            f"order-up-to level {top} lies above the inventory grid "
            f"[{grid.min_inv}, {grid.max_inv}]"
        )
    p = ctx.params
    future = np.zeros(grid.size)
    for review in reversed(policy.reviews):
        t, r = review.period, review.cycle
        curve = ctx.engine.cycle_curve(t, r, future)
        table = p.W + curve
        if review.reorder > grid.min_inv:
            order_value = (p.W + p.K) + curve[grid.index(review.order_up_to)]
            table[: grid.index(review.reorder)] = order_value
        future = table
    cost = float(future[grid.index(instance.I0)])
    if not math.isfinite(cost):
        raise ValueError(f"the policy's expected cost is {cost}: the costs overflow")
    return cost


def simulate(
    instance: Instance,
    policy: Policy,
    n_paths: int,
    seed: int,
    *,
    context: Optional[SolveContext] = None,
) -> EvalReport:
    """Seeded Monte-Carlo rollout of the policy.

    Samples from the discretized pmfs, so the simulation validates
    exactly the model the solvers optimise. Each period's demand is
    drawn by inverse CDF (``DemandPmf.sample``, equal to ``quantile``
    draw by draw) from one (n_paths, T) matrix of uniforms, so path i
    keeps its draws whatever the number of paths. Partial backlogging
    (instance beta < 1) truncates negative closing inventories after
    the penalty is charged. The policy is priced before the rollout, and a
    rollout too large for memory, 8 (T + 5) bytes per path plus the
    largest ``DemandPmf.sample`` bucket table, raises ``MemoryError``.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    ctx = _context(instance, context)
    analytic = expected_cost(instance, policy, context=ctx)
    buckets = max(ctx.demand.period(t)._buckets for t in range(1, instance.T + 1))
    nbytes = 8 * n_paths * (instance.T + 5) + 24 * (buckets + 1)
    check_memory(nbytes, f"a rollout of {n_paths} paths")
    p = ctx.params
    u = np.random.default_rng(seed).random((n_paths, instance.T))
    reviews = {rv.period: rv for rv in policy.reviews}
    inv = np.full(n_paths, float(instance.I0))
    cost = np.zeros(n_paths)
    for t in range(1, instance.T + 1):
        rv = reviews.get(t)
        if rv is not None:
            order = inv < rv.reorder
            cost += p.W + p.K * order
            inv = np.where(order, rv.order_up_to, inv)
        inv = inv - ctx.demand.period(t).sample(u[:, t - 1])
        cost += p.h * np.maximum(inv, 0.0) + p.b * np.maximum(-inv, 0.0)
        if instance.beta < 1.0:
            inv = _truncate(inv, instance.beta)
    halfwidth = float(1.96 * cost.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return EvalReport(analytic, float(cost.mean()), halfwidth, n_paths, seed)


def optimality_gap(policy_cost: float, optimal_cost: float) -> float:
    """Relative excess cost of a policy over the optimum.

    Negative gaps beyond numerical noise mean the "optimal" cost was not
    optimal, i.e. an oracle violation, and are rejected loudly.
    """
    if optimal_cost <= 0:
        raise ValueError("optimal cost must be positive")
    gap = (policy_cost - optimal_cost) / optimal_cost
    if gap < -1e-8:
        raise ValueError(
            f"policy cost {policy_cost} beats the supposed optimum {optimal_cost}"
        )
    return gap
