"""Exact (R,s,S) baseline by exhaustive schedule enumeration.

For a fixed review schedule the problem reduces to a restricted (s,S)
computation: ordering is only allowed at scheduled reviews, and the
between-review holding/penalty accrues through the shared cycle-cost
engine. Solving every schedule (every composition of the horizon with a
mandatory first review) to optimality yields the exact optimum at desk
scale, which is what the optimality gap of the heuristic is measured
against.

The schedules are enumerated depth-first over their suffixes. A suffix
is a set of reviews in t..T with a review at t; its table, the
cost-to-go at period t, follows from the table of the suffix after it
by one ``cycle_curve`` and one threshold decision, and a suffix with a
review at period 1 is a full schedule. Each of the 2^T - 1 suffixes is
computed once, and only the tables of the current suffix's ancestors
are alive: O(T) tables in memory. The search is one loop over an
explicit stack, with no recursion.
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
    _kconvex_table,
    _sweep,
    cycle_curve,
    extract_policy,
)

DEFAULT_SCHEDULE_CAP = 14


class HorizonCapError(ValueError):
    """Raised when full enumeration is requested beyond the horizon cap."""


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


@dataclass
class ScarfResult:
    """Optimal thresholds and cost for one fixed schedule."""

    policy: Policy
    cost: float
    tables: ValueTables


def scarf_fixed_R(
    instance: Instance,
    schedule: ReviewSchedule,
    *,
    context: Optional[SolveContext] = None,
) -> ScarfResult:
    """Optimal (s,S) levels for a fixed review schedule: the heuristic's
    backward sweep with the scheduled cycle as the only candidate at each
    review. The review cost is charged once per scheduled review."""
    ctx = _context(instance, context, full_backlog=True)
    lengths = {t: (r,) for t, r in zip(schedule.periods, schedule.cycles(instance.T))}
    tables = _sweep(ctx, _kconvex_table, "scarf_fixed_R", lambda t: lengths.get(t, ()))
    policy = extract_policy(tables, instance)
    return ScarfResult(policy=policy, cost=tables.value(1, instance.I0), tables=tables)


@dataclass
class EnumerationResult:
    policy: Policy
    cost: float
    schedule: ReviewSchedule
    n_schedules: int
    stats: SolveStats


def enumerate_optimal(
    instance: Instance,
    *,
    cap: int = DEFAULT_SCHEDULE_CAP,
    context: Optional[SolveContext] = None,
) -> EnumerationResult:
    """Exact optimum over all review schedules, by the suffix search of
    the module docstring. Ties between equally cheap schedules go to the
    lexicographically earliest one by an explicit comparison, since the
    search meets the schedules in another order. Each schedule's cost is
    identical to a standalone ``scarf_fixed_R`` call, which gives the
    returned policy.
    """
    ctx = _context(instance, context, full_backlog=True)
    if instance.T > cap:
        raise HorizonCapError(
            f"enumeration over 2^{instance.T - 1} schedules exceeds the cap "
            f"T <= {cap}; use the heuristic solver for long horizons"
        )
    T = instance.T
    stats = SolveStats()
    i0_idx = ctx.grid.index(instance.I0)
    zeros = np.zeros(ctx.grid.size)
    # (review t, next review, table at the next review, later reviews); the
    # children of a popped entry prepend a review u < t and share its table
    stack = [(t, T + 1, zeros, ()) for t in range(1, T + 1)]
    best_cost = float("inf")
    best_periods: tuple[int, ...] = ()
    count = 0
    while stack:
        t, end, future, later = stack.pop()
        table = _kconvex_table(ctx, cycle_curve(ctx, t, end - t, future), stats).table
        periods = (t,) + later
        if t > 1:
            stack.extend((u, t, table, periods) for u in range(1, t))
            continue
        count += 1
        cost = float(table[i0_idx])
        if cost < best_cost or (cost == best_cost and periods < best_periods):
            best_cost, best_periods = cost, periods
    best_schedule = ReviewSchedule(best_periods)
    result = scarf_fixed_R(instance, best_schedule, context=ctx)
    return EnumerationResult(
        policy=result.policy,
        cost=result.cost,
        schedule=best_schedule,
        n_schedules=count,
        stats=stats,
    )
