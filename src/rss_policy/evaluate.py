"""Analytic and Monte-Carlo evaluation of fixed (R,s,S) policies.

The analytic route recurses backward over the policy's review cycles
with the engine's ``cycle_curve``, which the solvers decide on, so a
solver's cost and the evaluator's for its policy agree to floating-point
noise; any larger mismatch signals a bug. With beta < 1 it spans the
grid [g, G]. Under full backlogging it prices on the window [f, c],
f = max(g, min(I0, min_t s_t - 1)) and c = max(I0, max_t S_t), bitwise
as on the grid. By induction from the flat zero table after the last
review: a position y in [f, c] reads hp at y and the next table at
y - d, d >= 0, never above c. Below f the window's ``tail`` pads with
the table's value at f, where the grid's reads [g, f) and pads with the
value at g; these agree when the table is flat on [g, f]. If f > g,
then f < s_t <= S_t for every review t, so [g, f] lies below s_t and
takes the one ordering value W + K + curve(S_t). So every value on
[f, c], I0 and each S_t among them, is the grid's dot product of the
same numbers.

The Monte-Carlo route samples the same pmfs by ``DemandPmf.sampler``
in blocks of ``_BLOCK`` paths and at most ``_BLOCK_DRAWS`` draws, each
the next rows of the one stream of uniforms, so path i keeps its draws
whatever the number of paths and the block size. A block's rows are
drawn ``_ROWS`` at a time into one small buffer, from which each piece is
transposed in cache into the block's per-period rows, so the block's
uniforms are held once. It is rolled out on integer positions, charged
by lookup into the engine's one-period cost vector: the same expression
of the same numbers, so each path's cost keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Instance, Policy
from .demand import check_memory, is_integer
from .solver import SolveContext, _context

_BLOCK = 1 << 14  # paths per block of the rollout
_BLOCK_DRAWS = 1 << 20  # uniforms per block: fewer paths when T > 64
_ROWS = 1 << 10  # paths per draw into the buffer a block is transposed from


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

    At each review the fixed decision rule applies: order up to S iff the
    opening inventory is below s, priced on the policy's window under
    full backlogging (module docstring). A policy whose S, or s, lies
    above the grid ceiling cannot be priced and is refused. A cost that
    overflows float64 raises ``ValueError``.
    """
    if policy.horizon != instance.T:
        raise ValueError(
            f"policy horizon {policy.horizon} does not match instance horizon {instance.T}"
        )
    ctx = _context(instance, context)
    grid, top = ctx.grid, max(rv.order_up_to for rv in policy.reviews)
    if top > grid.max_inv:
        raise ValueError(
            f"order-up-to level {top} lies above the inventory grid "
            f"[{grid.min_inv}, {grid.max_inv}]"
        )
    p, lo, hi = ctx.params, grid.min_inv, grid.max_inv
    if instance.beta == 1.0:
        lo = max(lo, min(instance.I0, min(rv.reorder for rv in policy.reviews) - 1))
        hi = max(instance.I0, top)
    future = np.zeros(hi - lo + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for review in reversed(policy.reviews):
            curve = ctx.engine.cycle_curve(review.period, review.cycle, future, lo)
            table = p.W + curve
            if review.reorder > lo:
                table[: review.reorder - lo] = (p.W + p.K) + curve[review.order_up_to - lo]
            future = table
    cost = float(future[instance.I0 - lo])
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
    """Seeded Monte-Carlo rollout of the policy, which is priced first.

    Partial backlogging (beta < 1) truncates negative closing inventories
    after the penalty is charged, by the engine's transition table. A
    path's opening state in period u is at least the engine's floor_u
    (``costs``): orders only raise it, and demand and truncation lower it
    no more than the floors, so the engine's one-period cost vector and
    table cover every closing inventory. A rollout too large for memory
    raises ``MemoryError`` (8 bytes a path, 8 (T + 8) a path of a block,
    8T a row of the draw buffer, the bucket tables and the largest one's
    build), and a path cost that overflows float64 ``ValueError``; sums
    that overflow are taken scaled.
    ``n_paths`` and ``seed`` are integers, Python or numpy, the seed at
    least 0; floats, booleans and a negative seed raise ``ValueError``.
    """
    if not is_integer(n_paths) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer of at least 1, not {n_paths!r}")
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"the seed must be an integer of at least 0, not {seed!r}")
    ctx = _context(instance, context)
    analytic = expected_cost(instance, policy, context=ctx)
    T, p, eng = instance.T, ctx.params, ctx.engine
    base, hold, nxt = eng._base, eng._one_period, eng._next
    pmfs = [ctx.demand.period(t) for t in range(1, T + 1)]
    block = min(n_paths, _BLOCK, max(1, _BLOCK_DRAWS // T))
    buckets = [pmf._buckets for pmf in pmfs]
    rows = min(block, _ROWS)
    nbytes = 8 * (n_paths + block * (T + 8) + rows * T + sum(buckets))
    check_memory(nbytes + 24 * (max(buckets) + 1), f"a rollout of {n_paths} paths")
    draws = [pmf.sampler() for pmf in pmfs]
    reviews = {rv.period: rv for rv in policy.reviews}
    rng, cost = np.random.default_rng(seed), np.empty(n_paths)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        u, by_period = np.empty((rows, T)), np.empty((T, block))
        for start in range(0, n_paths, block):
            b = min(block, n_paths - start)
            for i in range(0, b, rows):
                n = min(rows, b - i)
                rng.random(out=u[:n])
                by_period[:, i : i + n] = u[:n].T
            inv, c = np.full(b, instance.I0 - base), np.zeros(b)
            for t in range(1, T + 1):
                rv = reviews.get(t)
                if rv is not None:
                    order = inv < max(rv.reorder - base, 0)  # inv >= 0: S >= s > base where order
                    c += p.W + p.K * order
                    inv = np.where(order, max(rv.order_up_to - base, 0), inv)
                inv -= draws[t - 1](by_period[t - 1, :b])
                c += hold.take(inv)
                if instance.beta < 1.0:
                    inv = nxt.take(inv)
            cost[start : start + b] = c
        mean = float(cost.mean())
        halfwidth = float(1.96 * cost.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        scale = float(cost.max())  # costs are >= 0; inf or NaN if a path's cost is
        if not (math.isfinite(mean) and math.isfinite(halfwidth)) and math.isfinite(scale):
            cost /= scale  # only the sums overflow: take them on costs of at most 1
            mean = scale * float(cost.mean())
            halfwidth = scale * float(1.96 * cost.std(ddof=1) / math.sqrt(n_paths))
    if not (math.isfinite(mean) and math.isfinite(halfwidth)):
        raise ValueError(
            f"the Monte-Carlo mean is {mean} with half-width {halfwidth}: the costs overflow"
        )
    return EvalReport(analytic, mean, halfwidth, n_paths, seed)


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
