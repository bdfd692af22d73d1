"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    DemandSpec,
    Instance,
    ReviewSchedule,
    SolveContext,
    SolveStats,
    scarf_fixed_R,
)
from rss_policy.solver import cycle_curve


def direct_cycle_cost(ctx: SolveContext, t: int, i: int, q: int, r: int) -> float:
    """Cycle cost by direct summation over the cumulative-demand pmfs.

    Independent of the memoised recursion: charges review cost, order
    cost if an order is placed, and for each in-cycle period the expected
    holding/penalty on post-order position minus cumulative demand.
    """
    p = ctx.params
    cost = p.W + (p.K if q > 0 else 0.0)
    y = i + q
    for j in range(1, r + 1):
        pmf = ctx.demand.cumulative(t, t + j)
        for m, prob in enumerate(pmf.probs):
            close = y - (pmf.offset + m)
            cost += prob * (p.h * close if close >= 0 else -p.b * close)
    return cost


def level_recursion_hp(ctx: SolveContext, t: int, r: int) -> np.ndarray:
    """Cycle holding/penalty over the grid of post-order positions by the
    two-step level recursion, with nothing memoised.

    Writing l(u, x, k) for the expected holding/penalty of periods
    u..u+k-1 given closing inventory x at the end of period u, it builds
    l(u, x, 1) = L(x) and l(u, x, k) = L(x) + E[l(u+1, x - d_{u+1}, k-1)]
    over the closing inventories the grid can reach, then convolves
    l(t, ., r) with the period-t pmf: E[l(t, y - d_t, r)]. The array
    operations are those of the memoised engine this replaced, so the
    two agree bitwise.
    """
    p, grid = ctx.params, ctx.grid
    pmfs = [ctx.demand.period(u) for u in range(1, ctx.instance.T + 1)]

    def low(u):  # lowest closing inventory of period u from a grid position
        return grid.min_inv - sum(pmf.max_value for pmf in pmfs[:u])

    def one_period(u):
        xs = np.arange(low(u), grid.max_inv + 1, dtype=np.float64)
        return p.h * np.maximum(xs, 0.0) + p.b * np.maximum(-xs, 0.0)

    level = one_period(t + r - 1)
    for u in range(t + r - 2, t - 1, -1):
        nxt = pmfs[u]  # period u + 1
        full = np.convolve(level, nxt.probs)
        level = one_period(u) + full[len(nxt) - 1 : len(nxt) + grid.max_inv - low(u)]
    curve = np.convolve(level, pmfs[t - 1].probs, "valid")
    return curve[grid.min_inv - low(t - 1) :][: grid.size]


def brute_force_every_period(ctx: SolveContext) -> np.ndarray:
    """Value iteration with a review in every period and a full order
    search; period-1 value table over the grid. Tiny instances only."""
    inst, grid = ctx.instance, ctx.grid
    p = inst.params
    values = np.zeros(grid.size)
    for t in range(inst.T, 0, -1):
        pmf = ctx.demand.period(t)
        new_values = np.empty(grid.size)
        for i in range(grid.min_inv, grid.max_inv + 1):
            best = None
            for q in range(0, grid.max_inv - i + 1):
                y = i + q
                c = p.W + (p.K if q > 0 else 0.0)
                for m, prob in enumerate(pmf.probs):
                    x = y - (pmf.offset + m)
                    hp = p.h * x if x >= 0 else -p.b * x
                    c += prob * (hp + values[max(x, grid.min_inv) - grid.min_inv])
                if best is None or c < best:
                    best = c
            new_values[i - grid.min_inv] = best
        values = new_values
    return values


def direct_no_order_curve(ctx: SolveContext, t: int, r: int, future: np.ndarray) -> np.ndarray:
    """No-order cost curve (review cost included) by direct summation,
    one post-order position at a time: the cycle cost plus the expected
    cost-to-go at the next review, with states below the grid clamped to
    its floor."""
    grid = ctx.grid
    cum = ctx.demand.cumulative(t, t + r)
    curve = np.empty(grid.size)
    for y in range(grid.min_inv, grid.max_inv + 1):
        tail = 0.0
        for m, prob in enumerate(cum.probs):
            nxt = max(y - (cum.offset + m), grid.min_inv)
            tail += prob * future[nxt - grid.min_inv]
        curve[y - grid.min_inv] = direct_cycle_cost(ctx, t, y, 0, r) + tail
    return curve


def scan_oracle(curve: np.ndarray, K: float) -> tuple[int, int, int]:
    """Per-state descending threshold scan over a no-order curve.

    Keeps the running minimum from the top (strict ``<``, so ties go to
    the larger level) and stops at the first level whose value exceeds
    it by more than K. Returns indices (stop, best) and the number of
    levels scanned; stop is -1 when the scan reaches the floor.
    """
    best_n = best_i = None
    scanned = 0
    for i in range(curve.shape[0] - 1, -1, -1):
        n = float(curve[i])
        scanned += 1
        if best_n is None or n < best_n:
            best_n, best_i = n, i
        elif n > best_n + K:
            return i, best_i, scanned
    return -1, best_i, scanned


def kconvex_table_oracle(curve: np.ndarray, W: float, K: float) -> np.ndarray:
    """Cost table of the threshold scan: scanned levels keep W plus their
    no-order cost, the stop level and below the ordering-branch value."""
    stop, best, _ = scan_oracle(curve, K)
    table = np.empty(curve.shape[0])
    for i in range(curve.shape[0]):
        table[i] = (W + K) + float(curve[best]) if i <= stop else W + float(curve[i])
    return table


def q_loop_oracle(curve: np.ndarray, W: float, K: float) -> tuple[np.ndarray, int]:
    """Exhaustive order-quantity search at every level: W plus the
    no-order cost against W + K plus the cost at every higher level.
    Returns the table and the number of candidates examined."""
    n = curve.shape[0]
    table = np.empty(n)
    candidates = 0
    for i in range(n):
        best = W + float(curve[i])
        candidates += 1
        for j in range(i + 1, n):
            cand = (W + K) + float(curve[j])
            candidates += 1
            if cand < best:
                best = cand
        table[i] = best
    return table, candidates


def unpruned_sweep(ctx: SolveContext, table_fn):
    """Backward sweep that builds and decides every candidate cycle, with
    no bound: the locally best length per period, ties to the shorter.
    Returns (cost_to_go, cycle_length, reorder, order_up_to, stats)."""
    T = ctx.instance.T
    stats = SolveStats()
    cost_to_go = {T + 1: np.zeros(ctx.grid.size)}
    cycle_length, reorder, order_up_to = {}, {}, {}
    for t in range(T, 0, -1):
        best = None
        for r in range(1, T - t + 2):
            res = table_fn(ctx, cycle_curve(ctx, t, r, cost_to_go[t + r]), stats)
            if best is None or res.best_n < best.best_n:
                best, cycle_length[t] = res, r
        cost_to_go[t] = best.table
        reorder[t] = best.reorder
        order_up_to[t] = best.order_up_to
    return cost_to_go, cycle_length, reorder, order_up_to, stats


def all_schedules(horizon: int) -> list[ReviewSchedule]:
    """Every review schedule of the horizon, a review at period 1 plus
    any subset of periods 2..T, in lexicographic order of review
    periods."""
    periods = (
        (1,) + later
        for k in range(horizon)
        for later in itertools.combinations(range(2, horizon + 1), k)
    )
    return [ReviewSchedule(p) for p in sorted(periods)]


def enumeration_oracle(ctx: SolveContext) -> tuple[float, ReviewSchedule, int]:
    """Exact optimum by a standalone ``scarf_fixed_R`` solve of every
    schedule in lexicographic order, keeping the first strict minimum.
    Returns (cost, schedule, number of schedules)."""
    inst = ctx.instance
    schedules = all_schedules(inst.T)
    best_cost, best = float("inf"), None
    for sched in schedules:
        cost = scarf_fixed_R(inst, sched, context=ctx).cost
        if cost < best_cost:
            best_cost, best = cost, sched
    return best_cost, best, len(schedules)


def random_desk_instance(rng: np.random.Generator, horizon=None, mean_range=(5.0, 20.0)) -> Instance:
    """Small instance in the randomized-suite parameter box."""
    T = int(rng.integers(2, 7)) if horizon is None else horizon
    params = CostParams(
        K=float(rng.uniform(20.0, 320.0)),
        W=float(rng.uniform(20.0, 320.0)),
        h=1.0,
        b=float(rng.uniform(4.0, 16.0)),
    )
    demand = tuple(
        DemandSpec("poisson", float(m)) for m in rng.uniform(*mean_range, size=T)
    )
    return Instance(T=T, params=params, I0=0, demand=demand)


def deterministic_instance(means, K=100.0, W=10.0, h=1.0, b=1000.0, I0=0) -> Instance:
    """Point-mass demand (normal with cv 0) for hand-checkable cases."""
    return Instance(
        T=len(means),
        params=CostParams(K=K, W=W, h=h, b=b),
        I0=I0,
        demand=tuple(DemandSpec("normal", float(m), 0.0) for m in means),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
