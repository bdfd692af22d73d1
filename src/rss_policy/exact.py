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
it by one engine cycle curve (``cycle_parts``, with its hp, on the
window below) and one threshold decision. The children of a suffix
prepend one review u < t, and a suffix with a review at period 1 is a
full schedule, whose cost is F_1 at the opening inventory. Only the
tables of the current suffix's ancestors are alive, with one bound
table for each child still on the stack (see the inherited bound), and
the search is one loop over an explicit stack, with no recursion.

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

Inherited bound. Write B_t for the bound of a suffix at t whose SDP
ran, G_u (1 < u < t) for that SDP's table at period u, and F_u for the
table of the suffix's child at u. The child's bound B_u is W plus the
SDP over periods 1..u-1 from terminal F_u, at the opening inventory, and
B_t is W plus the same SDP from G_u. Each SDP step, an expectation over
demand followed by a minimum over decisions, is monotone and commutes
with adding a constant, so F_u >= G_u + c with c = min(F_u - G_u) gives
B_u >= B_t + c. The suffix hands G_u and B_t to its child at u, and a
child is pruned without its SDP when B_t + c, less 1e-12 of its size,
exceeds best + margin. Its own bound would exceed it too: B_u and
B_t + c lie within about 1e-13 relative of their exact values, so B_u
is at least B_t + c less 1e-12 of it. The search therefore prunes
exactly the suffixes it prunes when every suffix runs its SDP. Any other
child runs its SDP, and hands its own tables on.

Window. The search decides on the window [f, G] of the grid [g, G],
with f the floor of the window of its incumbent's tables and G the grid
ceiling: every node table, bound table and tail convolution spans the
window, and the engine grows its hp curves from f only. Every window
table is checked by the sweep's certificate, ``solver._certify``; with
the ceiling at the grid's only its floor half runs, and at the grid
floor nothing is checked. f is the grid floor or at most -1, so
hp(f) >= hp(f + 1), and hp, being convex, does not decrease from f
downwards. Assume, as the zero terminal table does, that the next table
F is the grid's on the window and constant on [g, f]. Then the curve v
is the grid's on the window. A table at x >= f is the grid's whatever
lies below f: a plain level reads v at and above x, and a kconvex level
is W + v(x) above the highest stop and W + K + v(b) at or below it,
where the stops at or above f, and b above them, are the grid's. The
floor half checks hp(f) + min F > o, for the table's order value o, so
that the grid's table is constant on [g, f], where the next tail
convolution reads the window's floor value:

* a node table at t > 1 has o = v(b) + K, with b its order-up-to
  level, as in the sweep, and the sweep's proof;
* a bound table at period u > 1 takes, at x, the lesser of v(x) and
  W + K plus the minimum of v above x, and has o = min v + W + K, with
  min v over the window. Then every grid level x <= f has
  v(x) >= hp(x) + min F >= hp(f) + min F > min v + W + K, so v is least
  above f and the grid's table is min v + W + K on all of [g, f];
* a full schedule's table is read only at the opening inventory, which
  lies in the window, and the period-1 bound step only there and above,
  so neither is checked.

Both tables of an inherited bound are then constant on [g, f], so c on
the window is c on the grid. A failed check starts the search over on
``_certify``'s wider window [max(g, 2f - 1), G], as it does the sweep
(see ``solver``, Widening), and ``window_widenings`` counts the
restarts. Every window value is computed by the grid's arithmetic on
the same values (see ``solver``, Exactness), so until a check fails a
pass makes the full-grid search's prune decisions in its order. The
costs, schedules, policies and node counts are the full-grid search's
bitwise, and a pass runs over the node budget exactly when that search
does. The window keeps the grid's ceiling: one taken from the
incumbent as well failed its check on nodes with long cycles often
enough to cancel the gain.

Node budget. The search builds at most ``budget`` suffixes and
raises ``HorizonCapError`` when it needs more. The default, 2^14 - 1, is
the number of suffixes full enumeration builds at T = 14, so every
instance that enumeration solved within its old horizon cap solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .demand import is_integer
from .model import Instance, Policy, ReviewSchedule
from .solver import (
    InventoryGrid,
    SolveContext,
    SolveStats,
    ValueTables,
    _context,
    _certify,
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
    ``nodes_pruned`` those never built, which together are all 2^T - 1.
    ``stats`` holds the counters of the pass on the final window:
    ``states_evaluated`` sums the node tables' threshold scans on the
    window, which count as on the grid when the scan stops in the window
    and count the whole window when it does not, and
    ``window_widenings`` counts the restarts after a failed floor
    check."""

    policy: Policy
    cost: float
    schedule: ReviewSchedule
    n_schedules: int
    stats: SolveStats
    nodes_explored: int
    nodes_pruned: int


# Relative slack over the rounding by which an inherited bound can exceed
# the bound of the child's own SDP (see the module docstring).
_INHERIT_SLACK = 1e-12


def _prefix_bound(
    ctx: SolveContext, window: InventoryGrid, t: int, table: np.ndarray, i0_idx: int
) -> Union[tuple[float, dict[int, np.ndarray]], InventoryGrid]:
    """Lower bound on every schedule below the suffix at t > 1 with table
    F_t on the window, W plus the module docstring's SDP at the opening
    inventory, by one ``cycle_parts`` step per period u = t-1..1; with the
    SDP's tables at t-1..2, or ``_certify``'s wider window if one fails."""
    p, value, tables = ctx.params, table, {}
    for u in range(t - 1, 0, -1):
        hp, curve = ctx.engine.cycle_parts(u, 1, value, window.min_inv)
        if u == 1:
            break
        sufmin = _suffix_min(curve)
        wider = _certify(ctx, window, hp, value.min(), curve, sufmin[0] + (p.W + p.K))
        if wider is not None:
            return wider
        np.minimum(curve[:-1], (p.W + p.K) + sufmin[1:], out=curve[:-1])
        value = tables[u] = curve
    return p.W + min(float(curve[i0_idx]), p.K + float(curve[i0_idx:].min())), tables


@np.errstate(over="ignore", invalid="ignore")  # a non-finite cost is refused by the caller
def _search(
    ctx: SolveContext, window: InventoryGrid, incumbent: float, budget: int
) -> tuple[tuple[int, ...], int, int, int, SolveStats]:
    """The branch-and-bound search on the window: the best schedule's
    periods, the counters of ``EnumerationResult`` and the stats. When a
    table fails its check the search starts over on the wider window and
    returns that pass, with one more widening."""
    T, K = ctx.instance.T, ctx.params.K
    i0_idx = ctx.instance.I0 - window.min_inv
    stats = SolveStats()
    zeros = np.zeros(window.size)
    # (review t, next review, table at the next review, later reviews, and
    # the parent's bound with its SDP table at t, None if it has none); the
    # children of a popped entry prepend a review u < t and share its table
    stack = [(t, T + 1, zeros, (), None) for t in range(1, T + 1)]
    best_cost = float("inf")
    best_periods: tuple[int, ...] = ()
    count = explored = pruned = 0
    while stack:
        if explored == budget:
            raise HorizonCapError(
                f"the exact search at T = {T} needs more than {budget} nodes, "
                "its node budget; use the heuristic solver or a larger budget"
            )
        t, end, future, later, parent = stack.pop()
        explored += 1
        hp, curve = ctx.engine.cycle_parts(t, end - t, future, window.min_inv)
        res = _kconvex_table(ctx, curve, stats)
        periods = (t,) + later
        if t == 1:
            count += 1
            cost = float(res.table[i0_idx])
            if cost < best_cost or (cost == best_cost and periods < best_periods):
                best_cost, best_periods = cost, periods
            continue
        wider = _certify(ctx, window, hp, future.min(), curve, res.best_n + K)
        cutoff = min(incumbent, best_cost)
        if wider is None and parent is not None:
            inherited = parent[0] + float((res.table - parent[1]).min())
            if _exceeds(inherited - _INHERIT_SLACK * abs(inherited), cutoff):
                pruned += 2 ** (t - 1) - 1  # the suffixes below this one
                continue
        bound = _prefix_bound(ctx, window, t, res.table, i0_idx) if wider is None else wider
        if isinstance(bound, InventoryGrid):  # a failed check
            found = _search(ctx, bound, incumbent, budget)
            found[-1].window_widenings += 1
            return found
        own, sdp = bound
        if _exceeds(own, cutoff):
            pruned += 2 ** (t - 1) - 1
        else:
            stack.extend(
                (u, t, res.table, periods, (own, sdp[u]) if u > 1 else None) for u in range(1, t)
            )
    return best_periods, count, explored, pruned, stats


def enumerate_optimal(
    instance: Instance,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    context: Optional[SolveContext] = None,
) -> EnumerationResult:
    """Exact optimum over all review schedules, by the branch-and-bound
    search of the module docstring; raises ``HorizonCapError`` if it
    needs more than ``budget`` nodes, and ``ValueError`` for a budget
    that is not an integer of at least 1. Ties between equally cheap
    schedules go to the lexicographically earliest one. Each schedule's
    cost is identical to a standalone ``scarf_fixed_R`` call, whose
    tables give the policy.
    """
    if not is_integer(budget) or budget < 1:
        raise ValueError(f"the node budget must be an integer of at least 1, not {budget!r}")
    ctx = _context(instance, context, full_backlog=True)
    incumbent = solve_kconvex(instance, context=ctx)
    window = InventoryGrid(incumbent.grid.min_inv, ctx.grid.max_inv)
    periods, count, explored, pruned, stats = _search(
        ctx, window, incumbent.root_cost(instance.I0), budget
    )
    best_schedule = ReviewSchedule(periods)
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
