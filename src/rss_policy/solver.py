"""Approximate-SDP solvers for (R,s,S) policy parameters.

The exact problem jointly optimises the review schedule, reorder levels
and order-up-to levels. The heuristic here relaxes it: sweeping
backwards over periods, each period picks the cycle length that is
locally best *assuming an order is placed and the inventory is topped
up to the best level* (equivalently, negative orders are allowed when
comparing cycles). For the chosen cycle the reorder and order-up-to
levels are then exact, so the output is a well-formed (R,s,S) policy
whose cost the value tables report consistently.

Every step rests on one array, the *cycle curve* of a candidate cycle
(t, r): the no-order cost over the whole inventory grid, i.e. expected
in-cycle holding/penalty plus the expected cost-to-go at the next
review. ``cycle_curve`` adds the memoised holding/penalty curve of the
cycle to one convolution of the next review's table, and the solvers,
the exact baseline and the evaluator all share it. Decisions
on a curve are array operations:

* ``solve_kconvex`` exploits K-convexity: a running minimum from the
  top gives the order-up-to level, the highest level whose cost exceeds
  the minimum above it by more than K is the stop, and it and every
  lower level take the flat ordering-branch value;
* ``solve_plain`` assumes no K-convexity: every level takes the cheaper
  of not ordering and ordering up to the best higher level (a suffix
  minimum), which is the exhaustive order-quantity search. It is the
  reference the threshold scan is checked against, and the two produce
  identical results.

``solve_lost_sales`` is the plain sweep for any backlogged fraction
beta. Below full backlogging, ``cycle_curve`` is the partial-backlog
curve, which truncates negative closing inventories each period; it has
no separate holding/penalty part, so the bound below does not apply and
the sweep builds every candidate.

Most candidate cycles cannot win, and under full backlogging the sweep
skips them before building their tail convolution.
Write hp(t, r) for the holding/penalty curve ``cycle_hp`` of a candidate
and F for the cost-to-go table of period t + r. The candidate's curve is
hp plus an expectation of values of F, so each of its levels, among
them the value at the order-up-to level by which the sweep compares
candidates, is at least min hp + min F. Two facts make this a bound
that holds for longer cycles too:

* K, W, h and b are nonnegative, so hp and every table are >= 0;
* hp(t, r + 1) is hp(t, r) plus the expected holding/penalty of period
  t + r, a nonnegative term, so hp is pointwise nondecreasing in r and
  min hp(t, r) bounds the curve of every cycle at t of length r or more.

Let ``best`` be the smallest such value found so far at period t.
A candidate is skipped when min hp + min F exceeds ``best``, and it and
every longer cycle are dropped once min hp alone does, since their
tails are >= 0. Both compare against best + 1e-9 |best|: that margin is
orders of magnitude above the rounding of the convolutions (about 1e-13
relative), so no rounding error can turn a skipped candidate into a
winner. The sweep replaces ``best`` only with a strictly smaller value,
so the tables, thresholds and cycle lengths are exactly those of the
sweep that builds every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .costs import CycleCostEngine
from .demand import DEFAULT_TAIL_EPS, CumulativeDemandCache, discretize
from .model import Instance, Policy, PolicyReview

DEFAULT_QUANTILE_EPS = 1e-5


@dataclass(frozen=True)
class InventoryGrid:
    """Integer inventory levels [min_inv, max_inv] the solvers sweep over."""

    min_inv: int
    max_inv: int

    def __post_init__(self) -> None:
        if not self.min_inv <= 0 <= self.max_inv:
            raise ValueError("grid must contain zero")

    @property
    def size(self) -> int:
        return self.max_inv - self.min_inv + 1

    def index(self, i: int) -> int:
        if not self.min_inv <= i <= self.max_inv:
            raise ValueError(f"inventory {i} outside grid [{self.min_inv}, {self.max_inv}]")
        return i - self.min_inv

    def levels(self) -> np.ndarray:
        return np.arange(self.min_inv, self.max_inv + 1)


def build_grid(
    instance: Instance,
    demand: CumulativeDemandCache,
    quantile_eps: float = DEFAULT_QUANTILE_EPS,
) -> InventoryGrid:
    """Size the grid from the total-demand quantile, with 10% headroom.

    The ceiling is the (1 - quantile_eps) quantile of total horizon
    demand rounded up by 10%; the floor is its negative. Both are
    widened if needed so the initial inventory lies on the grid.
    """
    if not 0 < quantile_eps <= 1e-4:
        raise ValueError("quantile_eps must lie in (0, 1e-4]")
    total = demand.cumulative(1, instance.T + 1)
    m = total.quantile(1.0 - quantile_eps)
    max_inv = int(math.ceil(1.1 * m))
    max_inv = max(max_inv, instance.I0, 0)
    min_inv = min(-max_inv, instance.I0)
    return InventoryGrid(min_inv=min_inv, max_inv=max_inv)


@dataclass
class SolveStats:
    """Work counters, summed over the cycles a solve decides.

    Only the candidate cycles the sweep scans are counted in
    ``states_evaluated`` and ``q_iterations``. ``states_evaluated`` is
    the depth of the threshold scan for kconvex: the levels from the grid
    ceiling down to and including the stop level, or the whole grid when
    there is no stop. The exhaustive search counts the whole grid.
    ``q_iterations`` is the number of order-quantity candidates the
    exhaustive search covers, q = 0 included: size * (size + 1) / 2 per
    cycle on a grid of that size, and 0 for kconvex.
    ``candidates_pruned`` is the number of candidate cycles the sweep
    skipped by its bound, without a tail convolution or a scan.
    """

    states_evaluated: int = 0
    q_iterations: int = 0
    candidates_pruned: int = 0


class SolveContext:
    """Discretized demand, grid and cost engine shared by solver runs,
    the exact baseline and the policy evaluator on one instance."""

    def __init__(
        self,
        instance: Instance,
        tail_eps: float = DEFAULT_TAIL_EPS,
        quantile_eps: float = DEFAULT_QUANTILE_EPS,
    ):
        self.instance = instance
        self.demand = CumulativeDemandCache(
            [discretize(spec, tail_eps) for spec in instance.demand]
        )
        self.grid = build_grid(instance, self.demand, quantile_eps)
        self.engine = CycleCostEngine(
            instance.params,
            [self.demand.period(t) for t in range(1, instance.T + 1)],
            low=self.grid.min_inv,
            high=self.grid.max_inv,
        )

    @property
    def params(self):
        return self.instance.params


@dataclass
class ValueTables:
    """Cost-to-go tables and per-period cycle choices from one solve.

    ``cost_to_go[t]`` is indexed by the grid (period T+1 is identically
    zero); ``cycle_length``/``reorder``/``order_up_to`` hold the chosen
    cycle and thresholds for every period 1..T the sweep decided: all of
    them for the heuristic, the scheduled reviews for ``scarf_fixed_R``.
    """

    grid: InventoryGrid
    horizon: int
    cost_to_go: dict[int, np.ndarray]
    cycle_length: dict[int, int]
    reorder: dict[int, int]
    order_up_to: dict[int, int]
    stats: SolveStats
    algorithm: str

    def value(self, t: int, i: int) -> float:
        return float(self.cost_to_go[t][self.grid.index(i)])

    def root_cost(self, i0: int) -> float:
        """Expected policy cost from period 1 with opening inventory i0."""
        return self.value(1, i0)


def cycle_hp(ctx: SolveContext, t: int, r: int) -> np.ndarray:
    """Expected in-cycle holding/penalty of a cycle of length r at period
    t over the grid of post-order positions, read from the cost engine's
    memoised curve; only the first query of each (t, r) convolves."""
    return ctx.engine.cycle_hp_fn(t, r)(ctx.grid.levels())


def _cycle_tail(ctx: SolveContext, t: int, r: int, future: np.ndarray) -> np.ndarray:
    """Expected cost-to-go ``future`` at the next review of a cycle of
    length r at period t, over the grid of post-order positions: the
    floor-padded ``future`` convolved with the cycle's cumulative-demand
    pmf."""
    cum = ctx.demand.cumulative(t, t + r)
    padded = np.concatenate((np.full(cum.max_value, future[0]), future))
    return np.convolve(padded, cum.probs, "valid")[: ctx.grid.size]


def cycle_curve(ctx: SolveContext, t: int, r: int, future: np.ndarray) -> np.ndarray:
    """No-order cost of a cycle of length r at period t over the grid of
    post-order positions, excluding the review/order fixed costs:
    expected in-cycle holding/penalty plus the expected cost-to-go
    ``future`` at the next review. Demand mass that would drive the
    next-review state below the grid accrues at the grid floor.

    Under full backlogging the holding/penalty is the cost engine's
    memoised curve (``cycle_hp``) and the expected cost-to-go is one
    convolution, of the floor-padded ``future`` with the pmf of the
    cycle's cumulative demand. With beta < 1 it is the partial-backlog
    curve, which recurses over the cycle's periods one at a time.
    """
    beta = ctx.instance.beta
    if beta < 1.0:
        return _lost_sales_curve(ctx, t, r, future, beta)
    return cycle_hp(ctx, t, r) + _cycle_tail(ctx, t, r, future)


@dataclass
class _CycleResult:
    table: np.ndarray
    best_n: float
    order_up_to: int
    reorder: int


def _threshold(curve: np.ndarray, K: float) -> tuple[int, int]:
    """Descending threshold scan over a no-order curve, as array operations.

    Returns grid indices (stop, best). ``stop`` is the highest level whose
    value exceeds the minimum over the levels above it by more than K
    (-1 if there is none); it and every level below prefer ordering.
    ``best`` is the order-up-to level: the minimum above ``stop``, ties
    going to the largest level.
    """
    sufmin = np.minimum.accumulate(curve[::-1])[::-1]
    over = np.flatnonzero(curve[:-1] > sufmin[1:] + K)
    stop = int(over[-1]) if over.size else -1
    best = curve.shape[0] - 1 - int(np.argmin(curve[stop + 1 :][::-1]))
    return stop, best


def _result(
    grid: InventoryGrid, table: np.ndarray, curve: np.ndarray, stop: int, best: int
) -> _CycleResult:
    return _CycleResult(table, float(curve[best]), grid.min_inv + best, grid.min_inv + stop + 1)


def _kconvex_table(ctx: SolveContext, curve: np.ndarray, stats: SolveStats) -> _CycleResult:
    """K-convexity decision for one cycle: levels above the stop keep
    their no-order cost, the stop level and below take the flat
    ordering-branch value."""
    p = ctx.params
    stop, best = _threshold(curve, p.K)
    stats.states_evaluated += curve.shape[0] - max(stop, 0)
    table = p.W + curve
    table[: stop + 1] = (p.W + p.K) + curve[best]
    return _result(ctx.grid, table, curve, stop, best)


def _plain_table(ctx: SolveContext, curve: np.ndarray, stats: SolveStats) -> _CycleResult:
    """Exhaustive decision for one cycle: every state takes the cheaper of
    not ordering and the best order up to any higher level. Rounding is
    monotone, so W + K plus the minimum above a level is exactly the
    cheapest ordering candidate; no K-convexity is assumed."""
    p = ctx.params
    n = curve.shape[0]
    stats.states_evaluated += n
    stats.q_iterations += n * (n + 1) // 2
    table = p.W + curve
    above = np.minimum.accumulate(curve[:0:-1])[::-1]
    np.minimum(table[:-1], (p.W + p.K) + above, out=table[:-1])
    stop, best = _threshold(curve, p.K)
    return _result(ctx.grid, table, curve, stop, best)


# Relative slack over rounding of the sweep's bound (see the module docstring)
# and of the exact search's bound (see ``exact``).
_BOUND_MARGIN = 1e-9


def _sweep(
    ctx: SolveContext,
    table_fn: Callable[[SolveContext, np.ndarray, SolveStats], _CycleResult],
    algorithm: str,
    lengths: Optional[Callable[[int], Iterable[int]]] = None,
) -> ValueTables:
    """Backward sweep over periods, keeping the locally best cycle length.

    ``lengths(t)`` gives the candidate cycle lengths at period t in
    increasing order, by default every length that fits the horizon; a
    period without candidates gets no table. Ties between cycle lengths
    go to the shorter cycle; the order-up-to tie-break (largest level) is
    fixed inside the threshold scan.

    Under full backlogging the holding/penalty curve of each candidate
    comes first: by the bound of the module docstring, a candidate that
    cannot beat the best so far is skipped, and once its holding/penalty
    alone cannot, the remaining candidates are dropped; neither gets a
    tail convolution. With beta < 1 the curve has no separate
    holding/penalty part, so every candidate is built by ``cycle_curve``
    and decided.
    """
    T = ctx.instance.T
    prune = ctx.instance.beta == 1.0
    grid = ctx.grid
    stats = SolveStats()
    cost_to_go: dict[int, np.ndarray] = {T + 1: np.zeros(grid.size)}
    cycle_length: dict[int, int] = {}
    reorder: dict[int, int] = {}
    order_up_to: dict[int, int] = {}
    for t in range(T, 0, -1):
        best: Optional[_CycleResult] = None
        best_r = 0
        limit = math.inf
        candidates = list(range(1, T - t + 2) if lengths is None else lengths(t))
        for k, r in enumerate(candidates):
            future = cost_to_go[t + r]
            if not prune:
                curve = cycle_curve(ctx, t, r, future)
            else:
                hp = cycle_hp(ctx, t, r)
                hp_min = float(hp.min())
                if hp_min > limit:  # hp alone loses; so does every longer cycle's
                    stats.candidates_pruned += len(candidates) - k
                    break
                if hp_min + float(future.min()) > limit:
                    stats.candidates_pruned += 1
                    continue
                curve = hp + _cycle_tail(ctx, t, r, future)
            res = table_fn(ctx, curve, stats)
            if best is None or res.best_n < best.best_n:
                best = res
                best_r = r
                limit = best.best_n + _BOUND_MARGIN * abs(best.best_n)
        if best is None:
            continue
        cost_to_go[t] = best.table
        cycle_length[t] = best_r
        reorder[t] = best.reorder
        order_up_to[t] = best.order_up_to
    return ValueTables(
        grid=grid,
        horizon=T,
        cost_to_go=cost_to_go,
        cycle_length=cycle_length,
        reorder=reorder,
        order_up_to=order_up_to,
        stats=stats,
        algorithm=algorithm,
    )


def _context(
    instance: Instance, context: Optional[SolveContext], *, full_backlog: bool = False
) -> SolveContext:
    """The context of a solver or evaluator call: the given one, checked
    against the instance, or one with the default settings. Callers that
    only handle full backlogging refuse instances with beta < 1 first."""
    if full_backlog and instance.beta < 1.0:
        raise ValueError("partial backlogging requires solve_lost_sales")
    if context is None:
        return SolveContext(instance)
    if context.instance is not instance and context.instance != instance:
        raise ValueError("context was built for a different instance")
    return context


def solve_plain(instance: Instance, *, context: Optional[SolveContext] = None) -> ValueTables:
    """Reference sweep: full order-quantity search at every state."""
    ctx = _context(instance, context, full_backlog=True)
    return _sweep(ctx, _plain_table, "plain")


def solve_kconvex(instance: Instance, *, context: Optional[SolveContext] = None) -> ValueTables:
    """Accelerated sweep using the K-convexity threshold scan. Produces
    the same tables and policy as ``solve_plain``."""
    ctx = _context(instance, context, full_backlog=True)
    return _sweep(ctx, _kconvex_table, "kconvex")


# ----------------------------------------------------------------------
# Partial lost sales
# ----------------------------------------------------------------------

def _truncate(x: np.ndarray, beta: float) -> np.ndarray:
    """Partial-backlog state transition: negative closing inventories keep
    only the backlogged fraction, rounded to the nearest integer."""
    return np.where(x < 0, np.round(beta * x).astype(np.int64), x)


def _lost_sales_curve(
    ctx: SolveContext, t: int, r: int, future: np.ndarray, beta: float
) -> np.ndarray:
    """No-order cost curve of a cycle under partial backlogging, on the
    grid of post-order positions. Penalty is charged on the full
    pre-truncation shortfall each period; only the backlogged fraction
    carries over."""
    grid = ctx.grid
    p = ctx.params
    hi = grid.max_inv
    periods = [ctx.demand.period(tau) for tau in range(t, t + r)]
    # Entry-state floors per in-cycle period: each period reaches one
    # demand span lower before truncation pulls the state back up.
    vlo = [grid.min_inv]
    for k in range(1, r):
        pre = vlo[k - 1] - periods[k - 1].max_value
        vlo.append(int(pre if pre >= 0 else round(beta * pre)))
    w, w_lo = future, grid.min_inv  # next-state values and their floor
    for k in range(r - 1, -1, -1):
        pmf = periods[k]
        xs = np.arange(vlo[k] - pmf.max_value, hi + 1)
        closing = p.h * np.maximum(xs, 0.0) + p.b * np.maximum(-xs, 0.0)
        idx = np.clip(_truncate(xs, beta) - w_lo, 0, w.shape[0] - 1)
        conv = np.convolve(closing + w[idx], pmf.probs, "valid")
        w, w_lo = conv[: hi - vlo[k] + 1], vlo[k]
    return w  # vlo[0] == grid.min_inv, so w is grid-aligned


def solve_lost_sales(instance: Instance, *, context: Optional[SolveContext] = None) -> ValueTables:
    """Plain sweep under partial backlogging (0 <= beta <= 1).

    With beta = 1 the tables and policy are exactly those of
    ``solve_plain``. For beta < 1 the no-order cost curve is not
    guaranteed K-convex, so the published reorder level is the threshold
    of the descending scan and may only approximate a non-interval
    ordering region.
    """
    return _sweep(_context(instance, context), _plain_table, "lost_sales")


# ----------------------------------------------------------------------
# Policy extraction
# ----------------------------------------------------------------------

def extract_policy(tables: ValueTables, instance: Instance) -> Policy:
    """Walk the chosen cycle lengths forward from the mandatory period-1
    review and collect the visited thresholds."""
    if tables.horizon != instance.T:
        raise ValueError("tables belong to a different horizon")
    reviews = []
    t = 1
    while t <= instance.T:
        if t not in tables.cycle_length:
            raise ValueError(f"value tables are incomplete at period {t}")
        r = tables.cycle_length[t]
        reviews.append(
            PolicyReview(
                period=t,
                cycle=r,
                reorder=tables.reorder[t],
                order_up_to=tables.order_up_to[t],
            )
        )
        t += r
    return Policy(horizon=instance.T, reviews=tuple(reviews))
