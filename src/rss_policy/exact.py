"""Exact (R,s,S) baseline by exhaustive schedule enumeration.

For a fixed review schedule the problem reduces to a restricted (s,S)
computation: ordering is only allowed at scheduled reviews, and the
between-review holding/penalty accrues through the shared cycle-cost
engine. Enumerating every schedule (every composition of the horizon
with a mandatory first review) and solving each to optimality yields
the exact optimum at desk scale, which is what the optimality gap of
the heuristic is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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


def iter_schedules(horizon: int) -> Iterator[ReviewSchedule]:
    """All 2^(T-1) schedules in lexicographic order of review periods."""

    def rec(prefix: list[int], nxt: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        for t in range(nxt, horizon + 1):
            prefix.append(t)
            yield from rec(prefix, t + 1)
            prefix.pop()

    for periods in rec([1], 2):
        yield ReviewSchedule(periods)


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
    """Exact optimum over all review schedules.

    Ties between equally cheap schedules go to the lexicographically
    earliest one. Value tables for shared schedule suffixes are reused
    across the enumeration; each schedule's result is identical to a
    standalone ``scarf_fixed_R`` call.
    """
    ctx = _context(instance, context, full_backlog=True)
    if instance.T > cap:
        raise HorizonCapError(
            f"enumeration over 2^{instance.T - 1} schedules exceeds the cap "
            f"T <= {cap}; use the heuristic solver for long horizons"
        )
    T = instance.T
    stats = SolveStats()
    memo: dict[tuple[int, ...], np.ndarray] = {(): np.zeros(ctx.grid.size)}
    i0_idx = ctx.grid.index(instance.I0)
    best_cost = float("inf")
    best_schedule: Optional[ReviewSchedule] = None
    count = 0
    for schedule in iter_schedules(T):
        count += 1
        periods = schedule.periods
        ends = periods[1:] + (T + 1,)
        for j in range(len(periods) - 1, -1, -1):
            if periods[j:] not in memo:
                future = memo[periods[j + 1 :]]
                curve = cycle_curve(ctx, periods[j], ends[j] - periods[j], future)
                memo[periods[j:]] = _kconvex_table(ctx, curve, stats).table
        cost = float(memo[schedule.periods][i0_idx])
        if cost < best_cost:
            best_cost = cost
            best_schedule = schedule
    assert best_schedule is not None
    result = scarf_fixed_R(instance, best_schedule, context=ctx)
    return EnumerationResult(
        policy=result.policy,
        cost=result.cost,
        schedule=best_schedule,
        n_schedules=count,
        stats=stats,
    )
