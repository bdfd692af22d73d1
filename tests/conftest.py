"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    DemandSpec,
    EnumerationResult,
    HorizonCapError,
    Instance,
    PolicyReview,
    ReviewSchedule,
    SolveContext,
    SolveStats,
    extract_policy,
    scarf_fixed_R,
    solve_kconvex,
)
from rss_policy.exact import DEFAULT_NODE_BUDGET
from rss_policy.solver import _exceeds, _kconvex_table, _suffix_min, _sweep


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


def two_branch_lost_sales_curve(
    ctx: SolveContext, t: int, r: int, future: np.ndarray, beta: float
) -> np.ndarray:
    """Partial-backlog no-order curve by the recursion that special-cases
    the cycle's last period: it reads ``future`` on the grid, clamped to
    the grid, while earlier periods read the curve of the period after
    them, clamped to its own range; each step takes a full convolution
    and slices it to the entry-state range. Bitwise the array operations
    of the engine's ``cycle_curve`` for beta < 1."""
    grid, p = ctx.grid, ctx.params
    hi = grid.max_inv
    periods = [ctx.demand.period(u) for u in range(t, t + r)]
    vlo = [grid.min_inv]
    for k in range(1, r):
        pre = vlo[k - 1] - periods[k - 1].max_value
        vlo.append(int(pre if pre >= 0 else round(beta * pre)))
    w = None
    for k in range(r - 1, -1, -1):
        pmf = periods[k]
        xs = np.arange(vlo[k] - pmf.max_value, hi + 1)
        closing = p.h * np.maximum(xs, 0.0) + p.b * np.maximum(-xs, 0.0)
        nxt_state = np.where(xs < 0, np.round(beta * xs).astype(np.int64), xs)
        if k == r - 1:
            nxt_vals = future[np.clip(nxt_state, grid.min_inv, hi) - grid.min_inv]
        else:
            nxt_vals = w[np.clip(nxt_state - vlo[k + 1], 0, w.shape[0] - 1)]
        m = len(pmf)
        w = np.convolve(closing + nxt_vals, pmf.probs)[m - 1 : m - 1 + (hi - vlo[k] + 1)]
    return w


def path_sum_cycle_cost(ctx: SolveContext, t: int, r: int, y: int, future: np.ndarray) -> float:
    """No-order cost of a cycle of r periods at period t from post-order
    position y (review cost excluded), by direct summation over the
    cycle's demand paths, one scalar path at a time: holding/penalty on
    each closing inventory x, a negative x then cut to round(beta * x)
    for the next period, and ``future`` over the grid at the next-review
    state, read at the grid floor below it. Tiny pmfs only."""
    grid, p, beta = ctx.grid, ctx.params, ctx.instance.beta
    pmfs = [ctx.demand.period(u) for u in range(t, t + r)]
    total = 0.0
    for path in itertools.product(*(range(len(pmf)) for pmf in pmfs)):
        prob, x, cost = 1.0, int(y), 0.0
        for pmf, m in zip(pmfs, path):
            prob *= float(pmf.probs[m])
            x -= pmf.offset + m
            cost += p.h * x if x >= 0 else -p.b * x
            if x < 0:
                x = round(beta * x)
        total += prob * (cost + float(future[max(x, grid.min_inv) - grid.min_inv]))
    return total


def path_sum_policy_cost(ctx: SolveContext, policy) -> float:
    """Expected cost of a policy from I0 by ``path_sum_cycle_cost``,
    backward over its reviews: each review pays W, and K plus the order
    up to S at the levels below s."""
    grid, p = ctx.grid, ctx.params
    future = np.zeros(grid.size)
    for rv in reversed(policy.reviews):
        curve = [path_sum_cycle_cost(ctx, rv.period, rv.cycle, y, future) for y in grid.levels()]
        order = p.K + curve[grid.index(rv.order_up_to)]
        future = np.array([
            p.W + (order if y < rv.reorder else curve[grid.index(y)]) for y in grid.levels()
        ])
    return float(future[grid.index(ctx.instance.I0)])


def full_grid_expected_cost(ctx: SolveContext, policy) -> float:
    """``expected_cost`` under full backlogging as it was before it priced on
    the policy's window: every review's curve spans the grid, as
    ``cycle_hp_fn`` read over the grid plus ``tail``."""
    grid, p, engine = ctx.grid, ctx.params, ctx.engine
    future = np.zeros(grid.size)
    for rv in reversed(policy.reviews):
        hp = engine.cycle_hp_fn(rv.period, rv.cycle)(grid.levels())
        curve = hp + engine.tail(rv.period, rv.cycle, future)
        table = p.W + curve
        if rv.reorder > grid.min_inv:
            table[: grid.index(rv.reorder)] = (p.W + p.K) + curve[grid.index(rv.order_up_to)]
        future = table
    return float(future[grid.index(ctx.instance.I0)])


def demand_matrix_rollout(ctx: SolveContext, policy, n_paths: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo rollout of a policy that first samples an (n_paths, T)
    float demand matrix, column by column by inverse CDF from one matrix
    of uniforms, and truncates backlogs by its own rounding. Returns the
    mean cost and the 95% half-width."""
    inst, p = ctx.instance, ctx.params
    u = np.random.default_rng(seed).random((n_paths, inst.T))
    demands = np.empty((n_paths, inst.T))
    for t in range(1, inst.T + 1):
        pmf = ctx.demand.period(t)
        idx = np.searchsorted(pmf.cdf(), u[:, t - 1], side="left")
        demands[:, t - 1] = pmf.offset + np.minimum(idx, len(pmf) - 1)
    reviews = {rv.period: rv for rv in policy.reviews}
    inv = np.full(n_paths, float(inst.I0))
    cost = np.zeros(n_paths)
    for t in range(1, inst.T + 1):
        rv = reviews.get(t)
        if rv is not None:
            q = np.where(inv < rv.reorder, rv.order_up_to - inv, 0.0)
            cost += p.W + p.K * (q > 0)
            inv = inv + q
        inv = inv - demands[:, t - 1]
        cost += p.h * np.maximum(inv, 0.0) + p.b * np.maximum(-inv, 0.0)
        if inst.beta < 1.0:
            inv = np.where(inv < 0, np.round(inst.beta * inv), inv)
    halfwidth = 1.96 * cost.std(ddof=1) / math.sqrt(n_paths) if n_paths > 1 else 0.0
    return float(cost.mean()), float(halfwidth)


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
    Returns (cost_to_go, reviews, stats), the reviews keyed by period."""
    T = ctx.instance.T
    stats = SolveStats()
    cost_to_go = {T + 1: np.zeros(ctx.grid.size)}
    reviews = {}
    for t in range(T, 0, -1):
        best = None
        for r in range(1, T - t + 2):
            res = table_fn(ctx, ctx.engine.cycle_curve(t, r, cost_to_go[t + r]), stats)
            if best is None or res.best_n < best.best_n:
                best, cycle = res, r
        cost_to_go[t] = best.table
        reviews[t] = PolicyReview(
            t, cycle, ctx.grid.min_inv + best.stop + 1, ctx.grid.min_inv + best.best
        )
    return cost_to_go, reviews, stats


def full_grid_sweep(ctx: SolveContext, table_fn, lengths=None):
    """The heuristic sweep forced onto the whole grid, with no window."""
    return _sweep(ctx, table_fn, lengths, window=ctx.grid)


def full_grid_scarf(ctx: SolveContext, schedule: ReviewSchedule):
    """The tables of ``scarf_fixed_R`` on the whole grid."""
    cycles = zip(schedule.periods, schedule.cycles(ctx.instance.T))
    lengths = {t: (r,) for t, r in cycles}
    return full_grid_sweep(ctx, _kconvex_table, lambda t: lengths.get(t, ()))


def window_slice(ctx: SolveContext, window, table: np.ndarray) -> np.ndarray:
    """The part of a table over the grid that lies on ``window``."""
    lo = window.min_inv - ctx.grid.min_inv
    return table[lo : lo + window.size]


def assert_window_matches_full_grid(ctx: SolveContext, windowed, full) -> None:
    """The windowed sweep decided what the full-grid sweep decides: its
    tables are the full tables on the window, bitwise, with the same
    reviews, root cost and candidates pruned."""
    inst = ctx.instance
    assert full.grid == ctx.grid
    assert windowed.cost_to_go.keys() == full.cost_to_go.keys()
    for t, table in windowed.cost_to_go.items():
        assert np.array_equal(table, window_slice(ctx, windowed.grid, full.cost_to_go[t])), t
    assert windowed.reviews == full.reviews
    if 1 in full.reviews:
        assert windowed.root_cost(inst.I0) == full.root_cost(inst.I0)
        assert extract_policy(windowed, inst) == extract_policy(full, inst)
    assert windowed.stats.candidates_pruned == full.stats.candidates_pruned


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
        cost = scarf_fixed_R(inst, sched, context=ctx).root_cost(inst.I0)
        if cost < best_cost:
            best_cost, best = cost, sched
    return best_cost, best, len(schedules)


def _full_grid_prefix_bound(ctx: SolveContext, t: int, table: np.ndarray, i0_idx: int) -> float:
    """The bound of ``full_grid_enumerate``: W plus the every-period SDP
    over periods 1..t-1 on the whole grid."""
    p = ctx.params
    value = table
    for u in range(t - 1, 1, -1):
        curve = ctx.engine.cycle_curve(u, 1, value)
        np.minimum(curve[:-1], (p.W + p.K) + _suffix_min(curve)[1:], out=curve[:-1])
        value = curve
    curve = ctx.engine.cycle_curve(1, 1, value)
    return p.W + min(float(curve[i0_idx]), p.K + float(curve[i0_idx:].min()))


def full_grid_enumerate(ctx: SolveContext, budget: int = DEFAULT_NODE_BUDGET) -> EnumerationResult:
    """The branch-and-bound search of ``enumerate_optimal`` as it was
    before it decided on a window: every node table and every table of
    its bound's every-period SDP span the whole grid, and each suffix
    runs its own SDP."""
    instance = ctx.instance
    T = instance.T
    stats = SolveStats()
    i0_idx = ctx.grid.index(instance.I0)
    incumbent = solve_kconvex(instance, context=ctx).root_cost(instance.I0)
    zeros = np.zeros(ctx.grid.size)
    stack = [(t, T + 1, zeros, ()) for t in range(1, T + 1)]
    best_cost = float("inf")
    best_periods: tuple[int, ...] = ()
    count = explored = pruned = 0
    while stack:
        if explored == budget:
            raise HorizonCapError(f"more than {budget} nodes")
        t, end, future, later = stack.pop()
        explored += 1
        table = _kconvex_table(ctx, ctx.engine.cycle_curve(t, end - t, future), stats).table
        periods = (t,) + later
        if t == 1:
            count += 1
            cost = float(table[i0_idx])
            if cost < best_cost or (cost == best_cost and periods < best_periods):
                best_cost, best_periods = cost, periods
        elif _exceeds(_full_grid_prefix_bound(ctx, t, table, i0_idx), min(incumbent, best_cost)):
            pruned += 2 ** (t - 1) - 1
        else:
            stack.extend((u, t, table, periods) for u in range(1, t))
    best_schedule = ReviewSchedule(best_periods)
    tables = scarf_fixed_R(instance, best_schedule, context=ctx)
    return EnumerationResult(
        policy=extract_policy(tables, instance),
        cost=tables.root_cost(instance.I0),
        schedule=best_schedule,
        n_schedules=count,
        stats=stats,
        nodes_explored=explored,
        nodes_pruned=pruned,
    )


def assert_same_search(res: EnumerationResult, full: EnumerationResult) -> None:
    """Two searches found the same optimum by the same prune decisions:
    cost, schedule, policy and node counts equal, bitwise."""
    assert res.cost == full.cost
    assert res.schedule == full.schedule
    assert res.policy == full.policy
    assert (res.n_schedules, res.nodes_explored, res.nodes_pruned) == (
        full.n_schedules,
        full.nodes_explored,
        full.nodes_pruned,
    )


@contextlib.contextmanager
def allocates_at_most(limit):
    """Fail unless the block's peak of traced allocations stays below ``limit`` bytes."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


def random_desk_instance(
    rng: np.random.Generator,
    horizon=None,
    mean_range=(5.0, 20.0),
    *,
    point_masses=False,
    partial_backlog=False,
) -> Instance:
    """Small instance in the randomized-suite parameter box: Poisson
    demand, or normal demand with cv at most 0.4, and an initial inventory
    in [-M, M], M the top of the mean range. ``point_masses`` makes the
    demand normal with cv 0; ``partial_backlog`` draws beta from {0, 0.5}
    instead of 1. Off, neither changes the draws."""
    T = int(rng.integers(2, 7)) if horizon is None else horizon
    params = CostParams(
        K=float(rng.uniform(20.0, 320.0)),
        W=float(rng.uniform(20.0, 320.0)),
        h=1.0,
        b=float(rng.uniform(4.0, 16.0)),
    )
    means = rng.uniform(*mean_range, size=T)
    if point_masses:
        demand = tuple(DemandSpec("normal", float(m), 0.0) for m in means)
    elif rng.random() < 0.5:
        demand = tuple(DemandSpec("poisson", float(m)) for m in means)
    else:
        cv = float(rng.uniform(0.0, 0.4))
        demand = tuple(DemandSpec("normal", float(m), cv) for m in means)
    bound = int(mean_range[1])
    I0 = int(rng.integers(-bound, bound + 1))
    beta = float(rng.choice([0.0, 0.5])) if partial_backlog else 1.0
    return Instance(T=T, params=params, I0=I0, demand=demand, beta=beta)


def overflow_instance(hb: float, I0: int = 0) -> Instance:
    """T = 2, K = 10, W = 5 and Poisson(5) demand in both periods, with
    h = b = hb: at 1e308 every cycle's cost overflows float64, at 1e307
    the instance solves."""
    params = CostParams(K=10.0, W=5.0, h=hb, b=hb)
    return Instance(T=2, params=params, I0=I0, demand=(DemandSpec("poisson", 5.0),) * 2)


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
