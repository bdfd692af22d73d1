"""Exact (R,s,S) baseline: the optimum over all review schedules, by
branch-and-bound over schedule suffixes.

For a fixed review schedule the problem reduces to a restricted (s,S)
computation, ``scarf_fixed_R``, which returns its sweep's ``ValueTables``:
ordering is only allowed at scheduled reviews, and the between-review
holding/penalty accrues through the shared cycle-cost engine. The
optimum over every schedule (every composition of the horizon with a
mandatory first review) is what the optimality gap of the heuristic is
measured against.

Search. Schedules are searched depth-first over their suffixes. A
suffix is a set of reviews in t..T with a review at t; its table F_t,
the cost-to-go at period t, follows from the table of the suffix after
it by one engine ``cycle_curve`` and one threshold decision. The
children of a suffix prepend one review u < t, and a suffix with a
review at period 1 is a full schedule, whose cost is F_1 at the opening
inventory. Only the tables of the current suffix's ancestors are alive,
O(T) tables, and the search is one loop over an explicit stack, with no
recursion.

Bound. The schedules below a suffix at t > 1 share F_t and differ
only in their reviews in 1..t-1. Each costs at least W plus the value at
the opening inventory of an every-period-review SDP over periods
1..t-1 with terminal table F_t, in which a review without an order is
free, an order at period 1 costs K and an order at a later period costs
W + K:

* a real schedule pays W at period 1 and W at every other period where
  it orders, since it can order only at a review; the SDP drops only
  the other reviews' W >= 0;
* the schedule's policy (order up to S below s at a review, nothing
  between reviews) is one of the SDP's Markov policies, and the SDP
  takes the cheapest decision at every state by exhaustive search, with
  no K-convexity assumed;
* the SDP steps one period at a time and moves the state up to the grid
  floor after every period, where a cycle curve does so only at the
  next review. The state at the next review is the same either way
  (max(max(y - d1, f) - d2, f) = max(y - d1 - d2, f) for d2 >= 0), and
  the in-cycle holding/penalty of a raised state is not larger, since
  below zero it falls with inventory at slope -b.

So the bound holds exactly on the grid, up to rounding.

Incumbent and margin. The search starts from the heuristic's root
cost (``solve_kconvex`` on the same context), which is the cost of a
real schedule and so bounds the optimum from above. A suffix is pruned,
and its subtree never built, when its bound exceeds best + 1e-9 |best|
(``_exceeds``, shared with the heuristic's sweep), where best is the
cheapest cost known, the incumbent or a cheaper full schedule. The
margin is orders of magnitude above the rounding by which a bound and a
schedule's cost can disagree (about 1e-13 relative), so every schedule
in a pruned subtree costs strictly more than a known schedule: no tie
with the optimum is ever pruned. Full schedules are
compared by an explicit rule, since the search meets them out of order:
a cheaper one replaces the best, and an equally cheap one replaces it
if it is lexicographically earlier. The result is therefore the
lexicographically earliest optimal schedule, as full enumeration finds
it.

Node budget. The search builds at most ``budget`` suffixes and
raises ``HorizonCapError`` when it needs more. The default, 2^14 - 1, is
the number of suffixes full enumeration builds at T = 14, so every
instance that enumeration solved within its old horizon cap solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Instance, Policy
from .solver import (
    SolveContext,
    SolveStats,
    ValueTables,
    _context,
    _exceeds,
    _kconvex_table,
    _suffix_min,
    _sweep,
    extract_policy,
    solve_kconvex,
)

DEFAULT_NODE_BUDGET = 2**14 - 1


class HorizonCapError(ValueError):
    """Raised when the exact search needs more nodes than its budget."""


@dataclass(frozen=True)
class ReviewSchedule:
    """An ordered set of review periods starting at period 1."""

    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        periods = tuple(int(t) for t in self.periods)
        if not periods or periods[0] != 1:
            raise ValueError("a schedule must start with a review at period 1")
        if any(b <= a for a, b in zip(periods, periods[1:])):
            raise ValueError("review periods must be strictly increasing")
        object.__setattr__(self, "periods", periods)

    def cycles(self, horizon: int) -> tuple[int, ...]:
        """Cycle lengths; they sum to the horizon."""
        if self.periods[-1] > horizon:
            raise ValueError("schedule extends past the horizon")
        ends = self.periods[1:] + (horizon + 1,)
        return tuple(e - s for s, e in zip(self.periods, ends))

    @property
    def n_reviews(self) -> int:
        return len(self.periods)


def scarf_fixed_R(
    instance: Instance,
    schedule: ReviewSchedule,
    *,
    context: Optional[SolveContext] = None,
) -> ValueTables:
    """Optimal (s,S) levels for a fixed review schedule: the value tables
    of the heuristic's backward sweep with the scheduled cycle as the only
    candidate at each review, which decides the scheduled reviews only.
    The review cost is charged once per scheduled review."""
    ctx = _context(instance, context, full_backlog=True)
    lengths = {t: (r,) for t, r in zip(schedule.periods, schedule.cycles(instance.T))}
    return _sweep(ctx, _kconvex_table, lambda t: lengths.get(t, ()))


@dataclass
class EnumerationResult:
    """The optimal schedule and its policy. ``n_schedules`` counts the
    full schedules priced; ``nodes_explored`` the suffixes built and
    ``nodes_pruned`` those never built, which together are all 2^T - 1."""

    policy: Policy
    cost: float
    schedule: ReviewSchedule
    n_schedules: int
    stats: SolveStats
    nodes_explored: int
    nodes_pruned: int


def _prefix_bound(ctx: SolveContext, t: int, table: np.ndarray, i0_idx: int) -> float:
    """Lower bound on every schedule below the suffix at t > 1 with table
    F_t: W plus the every-period-review SDP of the module docstring over
    periods 1..t-1."""
    p = ctx.params
    value = table
    for u in range(t - 1, 1, -1):
        curve = ctx.engine.cycle_curve(u, 1, value)
        np.minimum(curve[:-1], (p.W + p.K) + _suffix_min(curve)[1:], out=curve[:-1])
        value = curve
    curve = ctx.engine.cycle_curve(1, 1, value)
    return p.W + min(float(curve[i0_idx]), p.K + float(curve[i0_idx:].min()))


def enumerate_optimal(
    instance: Instance,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    context: Optional[SolveContext] = None,
) -> EnumerationResult:
    """Exact optimum over all review schedules, by the branch-and-bound
    search of the module docstring; raises ``HorizonCapError`` if it
    needs more than ``budget`` nodes, and ``ValueError`` for a budget
    below 1. Ties between equally cheap schedules go to the
    lexicographically earliest one. Each schedule's cost is identical to
    a standalone ``scarf_fixed_R`` call, whose tables give the policy.
    """
    if budget < 1:
        raise ValueError(f"the node budget must be at least 1, not {budget}")
    ctx = _context(instance, context, full_backlog=True)
    T = instance.T
    stats = SolveStats()
    i0_idx = ctx.grid.index(instance.I0)
    incumbent = solve_kconvex(instance, context=ctx).root_cost(instance.I0)
    zeros = np.zeros(ctx.grid.size)
    # (review t, next review, table at the next review, later reviews); the
    # children of a popped entry prepend a review u < t and share its table
    stack = [(t, T + 1, zeros, ()) for t in range(1, T + 1)]
    best_cost = float("inf")
    best_periods: tuple[int, ...] = ()
    count = explored = pruned = 0
    while stack:
        if explored == budget:
            raise HorizonCapError(
                f"the exact search at T = {T} needs more than {budget} nodes, "
                "its node budget; use the heuristic solver or a larger budget"
            )
        t, end, future, later = stack.pop()
        explored += 1
        table = _kconvex_table(ctx, ctx.engine.cycle_curve(t, end - t, future), stats).table
        periods = (t,) + later
        if t == 1:
            count += 1
            cost = float(table[i0_idx])
            if cost < best_cost or (cost == best_cost and periods < best_periods):
                best_cost, best_periods = cost, periods
        elif _exceeds(_prefix_bound(ctx, t, table, i0_idx), min(incumbent, best_cost)):
            pruned += 2 ** (t - 1) - 1  # the suffixes below this one
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
