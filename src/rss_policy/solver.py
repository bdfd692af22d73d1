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
(t, r): the no-order cost over the inventory grid, i.e. expected
in-cycle holding/penalty plus the expected cost-to-go at the next
review. The cost engine prices it (see ``costs``); the solvers, the
exact baseline and the evaluator only decide on it. Decisions on a
curve are array operations:

* ``solve_kconvex`` exploits K-convexity: a running minimum from the
  top gives the order-up-to level, the highest level whose cost exceeds
  the minimum above it by more than K is the stop, and it and every
  lower level take the flat ordering-branch value;
* ``solve_plain`` assumes no K-convexity: every level takes the cheaper
  of not ordering and ordering up to the best higher level (a suffix
  minimum), which is the exhaustive order-quantity search. It is the
  reference the threshold scan is checked against, and the two produce
  identical results under full backlogging.

The plain sweep decides every backlogged fraction beta, and
``solve_lost_sales`` is the same function. Below 1 a cycle's curve is
one engine ``backlog_step`` per period, which owns the truncation and
the floors (see ``costs``). Cycles (t, r) and (t - 1, r + 1) make the
same steps over t..t+r-1, so the sweep keeps one level per next review
and advances each by one step per period: T(T+1)/2 steps, not
T(T+1)(T+2)/6, and each value one dot product, as in the engine's
``cycle_curve``. Without a holding/penalty part the bound below fails.

Most candidate cycles cannot win, and under full backlogging the sweep
skips them before building their tail convolution. Write hp(t, r) for
the holding/penalty curve ``cycle_hp_fn`` of a candidate and F for the
cost-to-go table of period t + r. The candidate's curve is hp plus an
expectation of values of F, so each of its levels, among
them the value at the order-up-to level by which the sweep compares
candidates, is at least hp + min F at that level. K, W, h and b are
nonnegative, so hp and every table are >= 0.

Let ``best`` be the smallest such value found so far at period t. A
candidate is skipped when hp + min F exceeds ``best`` at every level
(the empty case of the zone test, see Prune). All tests compare against
best + 1e-9 |best|: that margin is orders of magnitude above the
rounding of the convolutions (about 1e-13 relative), so no rounding
error can turn a skipped candidate into a winner. The sweep
first builds the probe, the cycle that ends at the next review of
period t + 1's winner, which most often wins, and then the others in
increasing order; a later one replaces ``best`` only if strictly
smaller, or equal and shorter, so the tables, thresholds and cycle
lengths are exactly those of the sweep that builds every candidate in
increasing order. Before hp is read, a lower bound of min hp from the
mean demands alone skips the candidate, or drops it and every longer
one (see Prune).

The window. The grid [g, G] is the state space, sized from total horizon
demand, but the decisions live at cycle scale: on the T = 35 scalability
instance of seed 35 the grid spans +-2088 and no table orders above 303
or reorders below 38. So under full backlogging the sweep decides on a
window [f, c] of the grid: its tail convolutions, tables and threshold
scans span only the window, and it reads the hp curves there too, which
the engine grows as the reads need (see ``costs``). The window starts
at plus and minus the largest period-demand support, widened to hold
I0, and every candidate the sweep builds checks a certificate that its
window decision is the grid's. When one fails, the failing end of the
window about doubles and the sweep starts over on the wider window (see
Widening). A window end at the grid's needs no check, so the window
equal to the grid is the full-grid sweep.

Certificate. For a candidate with holding/penalty hp, next table F,
curve v = hp + E[F(max(y - D, f))] on [f, c], order-up-to level b and
m the lowest minimiser of hp on the window:

* ceiling (c < G): hp(c) >= hp(c - 1) and hp(c) + min F > min v[m..c];
* floor (f > g): hp(f) >= hp(f + 1) and hp(f) + min F > v(b) + K.

The first floor condition holds for every hp the sweep reads, skipped
candidates included, and needs no check: the window holds 0 and its
floor, when above the grid's, is at most -1, so from f and f + 1 every
closing inventory of the cycle is <= 0, where the one-period cost has
slope -b, and hp(f) - hp(f + 1) = r b >= 0.

Proof, by induction over the periods decided; assume F on the window
equals the grid's F there and that the grid's F is constant on [g, f]
(the terminal F = 0 is). Then v is the grid's curve on the window,
since levels below f carry F(f) on both. Three facts:

1. hp is convex, an expectation of convex costs of shifted positions;
2. every table the sweep builds, kconvex or plain, satisfies
   F(x) <= F(x') + K for x < x': above the stop no level exceeds the
   minimum above it by more than K and the flat part is W + K plus that
   minimum, and a plain level is at most W + K plus any higher curve
   value;
3. if hp is nondecreasing on [m, G], no level x >= m is a stop on any
   grid: for x < x', hp(x) <= hp(x') and F(max(x - d, g)) <=
   F(max(x' - d, g)) + K, so v(x) <= v(x') + K.

Ceiling. By 1 the first condition makes hp nondecreasing on [m, G]. A
level x > c has grid curve >= hp(x) + min F >= hp(c) + min F >
min v[m..c], so for x < m the minimum over the levels above x is
attained in the window, and the stop test agrees on window and grid;
by 3 neither has a stop at or above m. The order-up-to level, the
minimum above the stop (< m), and its tie-break to the largest level
are therefore the grid's, and so are kconvex tables on the window.
A plain level x < m takes the same suffix minimum; at x >= m, by 3,
both take W + v(x).

Floor. By 1, hp(x) >= hp(f) for x <= f, so every grid level x <= f has
curve > v(b) + K: f is a stop of the window (b > f), so the window's
stop is the grid's highest. Below it the grid's kconvex table is the
flat ordering value; the plain table is W + K plus the minimum of v over
(f, G], attained in the window. Either way the grid's table is constant
on [g, f] and equals the window's at f, which carries the induction.

Widening. A failed certificate starts the sweep over on the wider
window, as the exact search does, so the tables, reviews and every
counter but ``window_widenings`` are those of one pass on the returned
window, every candidate of which is certified. A candidate the zone
test drops is never certified: only a built one, the probe or one whose
zone reaches c, can widen the window.

Prune. The zone test below needs hp not to fall above its read. The
sweep reads hp on [f, c]. If hp rises at c, then by 1 it is
nondecreasing on [c - 1, G]. Otherwise, as for a long cycle whose hp
is least above the window, the sweep reads hp further up, the top
about doubling towards G as after a failed certificate, until hp rises
at the top of the read or the read ends at G. The window attains the
grid's min F (levels above c cost more, levels below f the same), so
the sweep skips, builds and compares the grid's candidates, whatever
its window. A candidate built after an upward read fails its ceiling
condition, and the sweep starts over on a wider window.

The zone. A candidate that passes those tests is priced on its zone Z,
the hull of the read positions where hp + min F <= best + 1e-9 |best|,
the threshold. If Z lies below c, the tail is computed at Z alone
(``tail`` with a span, each value the whole call's dot product), and
the candidate is skipped when every curve value there exceeds the
threshold. It cannot win on the grid: its curve is at least hp + min F,
up to a rounding of a few ulps of min F <= best, inside the margin, so
it exceeds the threshold on the read outside Z and above the read,
where hp does not fall; below f the grid curve is hp(x) >= hp(f) plus
the tail at f, bitwise, so it exceeds the threshold if v(f) or hp(f) +
min F does. Otherwise, or when Z reaches c, above which the window has
no tail, the candidate is built and certified. The test decides as on
the grid on each window on which it is certified, since a certified Z
that reaches c holds [m, c], where min v[m..c] < hp(c) + min F.

The mean-demand bound comes first. Let c_k, k = 1..r, be the mean
demand of periods t..t+k-1, summed from the discretized pmfs' means, so
c_1 <= ... <= c_r. L is convex, so by Jensen's inequality

    hp(t, r)(y) = sum_k E[L(y - D_{t..t+k-1})] >= sum_k L(y - c_k)

at every position y. The right side is convex and piecewise linear in
y, with slope h i - b (r - i) between c_i and c_{i+1}, so it is least at
c_j, j = ceil(b r / (h + b)) clipped to 1..r:

    J(t, r) = h (j c_j - P_j) + b (P_r - P_j - (r - j) c_j),

P the prefix sums of c (``CycleCostEngine.mean_bound``), and
J(t, r) <= min hp(t, r) over the grid. J is nondecreasing in r, since
J(t, r + 1) minimises the same sum plus L(y - c_{r+1}) >= 0. So before
reading hp the sweep drops the candidate and every longer one once J
exceeds ``best``, and skips it when J + min F does. The zone test would
skip each candidate so dropped or skipped, as hp >= J at every level
and J is nondecreasing in r; so the tables, windows and every counter
stay those of the zone test alone, and only the reach, the longest
cycle whose hp the sweep reads, falls: 8 instead of 35 on the T = 35
scalability instance of seed 35, and 9 instead of 200 at T = 200, where
the zone test alone reads every length.
J of every length of a period is one array (``mean_bound``), two
``cumsum`` and the closed form, computed at each period that has
candidates; it reads no curve. Its rounding is a few ulps of
r (h + b) c_r, far below the margin of 1e-9 relative, and a rounded j
off by one moves J only where the slope at c_j is within rounding of 0.
For point masses J is exact where hp attains it, at the integer c_j,
and each side is computed to a few ulps, so the margin keeps J from
dropping a candidate the zone test would build, unless min hp lies
within that rounding of best + 1e-9 |best|.

Exactness. Each window level is computed by the grid's own arithmetic
on the same values: one dot product of the same pmf with the same
next values, the floor padding being F(f) = F(g). So the tables,
thresholds, cycle lengths and root cost are the full-grid sweep's
bitwise. The two strict comparisons of the certificate use the bound's
margin of 1e-9 relative, far above the rounding of the curves, so
rounding cannot certify a decision the exact values would not.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CycleCostEngine
from .demand import CumulativeDemandCache, cut_length, discretize
from .model import Instance, Policy, PolicyReview

QUANTILE_EPS = 1e-5  # total-demand mass above the grid's ceiling, before headroom
MAX_TOTAL_MACS = 10**11  # multiply-adds of the total-demand convolution, about 20 s


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


def build_grid(instance: Instance, demand: CumulativeDemandCache) -> InventoryGrid:
    """Size the grid from the total-demand quantile, with 10% headroom.

    The grid is the state space: the heuristic sweep and the exact search
    decide on certified windows of it (see the module docstring and
    ``exact``), and the evaluator prices on the policy's window at beta = 1
    (``evaluate``); the cost engine's curves grow to the spans these read,
    and the engine checks its widest span against memory. The ceiling is
    the (1 - ``QUANTILE_EPS``) quantile of total horizon demand
    (``CumulativeDemandCache.total``, which keeps no prefix) rounded up by
    10%; the floor is its negative. Both are widened if needed so the
    initial inventory lies on the grid. The work on the total demand's
    convolution is bounded before its pmfs are built, by ``SolveContext``.
    """
    # no grid held in memory nears 2^62 levels; the cap keeps 1.1 * m finite
    m = min(demand.total().quantile(1.0 - QUANTILE_EPS), 2**62)
    max_inv = max(math.ceil(1.1 * m), instance.I0, 0)
    min_inv = min(-max_inv, instance.I0)
    return InventoryGrid(min_inv=min_inv, max_inv=max_inv)


@dataclass
class SolveStats:
    """Work counters, summed over the cycles a solve decides.

    The counters are those of one pass on the window the tables were
    decided on (the grid for beta < 1), plus ``window_widenings``. Only
    the candidate cycles the sweep scans are counted in
    ``states_evaluated`` and ``q_iterations``.
    ``states_evaluated`` is the depth of the threshold scan for kconvex:
    the levels from the window ceiling down to and including the stop
    level, or the whole window when there is no stop. The exhaustive
    search counts the whole window. ``q_iterations`` is the number of
    order-quantity candidates the exhaustive search covers, q = 0
    included: size * (size + 1) / 2 per cycle on a window of that size,
    and 0 for kconvex. ``candidates_pruned`` is the number of candidate
    cycles the sweep skipped unscanned by its bounds, J or the zone
    (module docstring, Prune), never the probe; with the scanned ones it
    counts each candidate once, and it is the full-grid sweep's, J or
    not. ``window_widenings`` counts the failed certificates: each starts
    the sweep (or the search) over on the wider window.
    """

    states_evaluated: int = 0
    q_iterations: int = 0
    candidates_pruned: int = 0
    window_widenings: int = 0


class SolveContext:
    """Discretized demand, grid and cost engine shared by solver runs,
    the exact baseline and the policy evaluator on one instance.

    The demand is cut by ``discretize`` (``demand.TAIL_EPS``) and the grid
    sized by ``build_grid``, neither of which is a setting. Before any pmf
    is built, a total demand whose prefix convolutions take more than
    ``MAX_TOTAL_MACS`` multiply-adds, counted from the cut lengths
    (``cut_length``), raises ``MemoryError``. The grid is the state
    space; the heuristic sweep and the exact search decide on certified
    windows of it (see the module docstring and ``exact``), and the
    engine's curves span what the reads so far have needed (see
    ``costs``)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        lengths = [cut_length(spec) for spec in instance.demand]
        macs, prefix = 0, lengths[0]  # prefix: the length of the pmf of periods 1..t
        for n in lengths[1:]:
            macs, prefix = macs + prefix * n, prefix + n - 1
        if macs > MAX_TOTAL_MACS:
            count = Decimal(macs) if macs > sys.float_info.max else macs  # beyond a float
            raise MemoryError(
                f"the total demand's convolution needs {count:.3g} multiply-adds, "
                f"more than the bound of {MAX_TOTAL_MACS:.0e}"
            )
        self.demand = CumulativeDemandCache([discretize(spec) for spec in instance.demand])
        self.grid = build_grid(instance, self.demand)
        self.engine = CycleCostEngine(
            instance.params, self.demand, self.grid.min_inv, self.grid.max_inv, instance.beta
        )

    @property
    def params(self):
        return self.instance.params


@dataclass
class ValueTables:
    """Cost-to-go tables and the review decided at each period of one solve.

    ``grid`` is the window the sweep decided on, the context's grid
    for beta < 1, and ``cost_to_go[t]`` is indexed by it (period T+1 is
    identically zero); ``reviews[t]`` is the review decided at period t,
    its cycle length and its (s, S) levels, for every period 1..T the
    sweep decided: all of them for the heuristic, the scheduled reviews
    for ``scarf_fixed_R``.
    """

    grid: InventoryGrid
    horizon: int
    cost_to_go: dict[int, np.ndarray]
    reviews: dict[int, PolicyReview]
    stats: SolveStats

    def value(self, t: int, i: int) -> float:
        return float(self.cost_to_go[t][self.grid.index(i)])

    def root_cost(self, i0: int) -> float:
        """Expected policy cost from period 1 with opening inventory i0; a
        cost that overflows float64 (inf or NaN) raises ``ValueError``."""
        cost = self.value(1, i0)
        if not math.isfinite(cost):
            raise ValueError(f"the root cost is {cost}: the costs overflow")
        return cost


@dataclass
class _CycleResult:
    """One cycle's decision: its cost-to-go table and the curve indices of
    the stop (-1 if none) and the order-up-to level, whose curve value
    ``best_n`` the sweep compares candidates by."""

    table: np.ndarray
    best_n: float
    stop: int
    best: int


def _threshold(curve: np.ndarray, sufmin: np.ndarray, K: float) -> tuple[int, int]:
    """Descending threshold scan over a no-order curve, as array operations,
    given the curve's suffix minimum ``sufmin``.

    Returns curve indices (stop, best). ``stop`` is the highest level whose
    value exceeds the minimum over the levels above it by more than K
    (-1 if there is none); it and every level below prefer ordering.
    ``best`` is the order-up-to level: the minimum above ``stop``, ties
    going to the largest level.
    """
    over = np.flatnonzero(curve[:-1] > sufmin[1:] + K)
    stop = int(over[-1]) if over.size else -1
    best = curve.shape[0] - 1 - int(np.argmin(curve[stop + 1 :][::-1]))
    return stop, best


def _suffix_min(curve: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(curve[::-1])[::-1]


def _kconvex_table(ctx: SolveContext, curve: np.ndarray, stats: SolveStats) -> _CycleResult:
    """K-convexity decision for one cycle: levels above the stop keep
    their no-order cost, the stop level and below take the flat
    ordering-branch value."""
    p = ctx.params
    stop, best = _threshold(curve, _suffix_min(curve), p.K)
    stats.states_evaluated += curve.shape[0] - max(stop, 0)
    table = p.W + curve
    table[: stop + 1] = (p.W + p.K) + curve[best]
    return _CycleResult(table, float(curve[best]), stop, best)


def _plain_table(ctx: SolveContext, curve: np.ndarray, stats: SolveStats) -> _CycleResult:
    """Exhaustive decision for one cycle: every state takes the cheaper of
    not ordering and the best order up to any higher level. Rounding is
    monotone, so W + K plus the minimum above a level is exactly the
    cheapest ordering candidate; no K-convexity is assumed."""
    p = ctx.params
    n = curve.shape[0]
    stats.states_evaluated += n
    stats.q_iterations += n * (n + 1) // 2
    sufmin = _suffix_min(curve)
    table = p.W + curve
    np.minimum(table[:-1], (p.W + p.K) + sufmin[1:], out=table[:-1])
    stop, best = _threshold(curve, sufmin, p.K)
    return _CycleResult(table, float(curve[best]), stop, best)


# Relative slack over rounding of the sweep's bound and certificate (see the
# module docstring) and of the exact search's bound (see ``exact``).
_BOUND_MARGIN = 1e-9


def _exceeds(a: float | np.ndarray, b: float) -> bool | np.ndarray:
    """a > b by more than the rounding margin, for a number or an array a."""
    return a > b + _BOUND_MARGIN * abs(b)


def _initial_window(ctx: SolveContext) -> InventoryGrid:
    """The sweep's first window: plus and minus the largest period-demand
    support (at least 1), widened to hold the initial inventory and cut to
    the grid."""
    grid, i0 = ctx.grid, ctx.instance.I0
    d = max([1] + [ctx.demand.period(t).max_value for t in range(1, ctx.instance.T + 1)])
    return InventoryGrid(max(grid.min_inv, min(-d, i0)), min(grid.max_inv, max(d, i0)))


def _certify(
    ctx: SolveContext,
    window: InventoryGrid,
    hp: np.ndarray,
    future_min: float,
    curve: np.ndarray,
    order_value: float,
) -> Optional[InventoryGrid]:
    """The window check of every windowed table: None if the table decided
    on the window is the grid's there (the ceiling and floor conditions of
    the module docstring), else the wider window, each failing end about
    doubled and cut to the grid. ``hp`` starts at the window floor and
    spans at least the window; an end at the grid's needs no check.
    ``order_value`` is the value of the cheapest order: v(b) + K for a
    sweep's or an exact node's table, min v + W + K for an exact bound
    table (see ``exact``)."""
    grid, n = ctx.grid, window.size
    lo, hi = window.min_inv, window.max_inv
    if hi < grid.max_inv:
        m = int(np.argmin(hp[:n]))
        beyond = hp[n - 1] + future_min  # bounds the curve above c once hp rises at c
        if not (hp[n - 1] >= hp[n - 2] and _exceeds(beyond, float(curve[m:].min()))):
            hi = min(grid.max_inv, 2 * hi + 1)
    if lo > grid.min_inv and not _exceeds(hp[0] + future_min, order_value):
        lo = max(grid.min_inv, 2 * lo - 1)
    return None if (lo, hi) == (window.min_inv, window.max_inv) else InventoryGrid(lo, hi)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite cost is refused below
def _sweep(
    ctx: SolveContext,
    table_fn: Callable[[SolveContext, np.ndarray, SolveStats], _CycleResult],
    lengths: Optional[Callable[[int], Sequence[int]]] = None,
    window: Optional[InventoryGrid] = None,
) -> ValueTables:
    """Backward sweep over periods, keeping the locally best cycle length.

    ``lengths(t)`` gives the candidate cycle lengths at period t as a
    sequence in increasing order (a range or a tuple), by default every
    length that fits the horizon; a period without candidates gets no
    table and no review, and one whose candidates all cost inf or NaN
    raises ``ValueError``. Ties between cycle lengths go to the shorter
    cycle; the order-up-to tie-break (largest level) is fixed inside the
    threshold scan. Each decided period records one ``PolicyReview`` from
    its winning cycle, whose curve indices of the stop and the
    order-up-to level become inventory levels here and nowhere else.

    Under full backlogging the sweep decides on a window of the grid,
    ``_initial_window`` unless given (the whole grid makes it the
    full-grid sweep; a given window's floor is the grid's or at most -1).
    The cycle that ends at period t + 1's next review comes first, and the
    bounds of the module docstring (Prune) skip or drop each candidate
    that cannot beat the best so far: by J before any hp read, then by
    its zone, on hp read on the window and up while it falls at the
    read's top and on the zone's tail. Every candidate built is
    certified, and a failed certificate starts the sweep over on the
    wider window; the engine keeps every curve it grew, over spans
    bounded by the sweep's reach (``costs`` module docstring, Spans).
    With beta < 1 the window is the grid
    (another given window raises ``ValueError``) and every candidate is
    decided, cut from the level of its next review e: period t adds
    e = t + 1's table as a level and advances each by one engine
    ``backlog_step``. The levels need the default lengths and depend on
    the tables, so the engine never keeps them.
    """
    T, K = ctx.instance.T, ctx.params.K
    prune = ctx.instance.beta == 1.0
    if not prune:
        if window is not None and window != ctx.grid:
            raise ValueError(f"with beta < 1 the sweep spans the grid {ctx.grid}")
        window = ctx.grid
    elif window is None:
        window = _initial_window(ctx)
    stats = SolveStats()
    cost_to_go: dict[int, np.ndarray] = {T + 1: np.zeros(window.size)}
    table_min = {T + 1: 0.0}  # min F of each decided table
    reviews: dict[int, PolicyReview] = {}
    levels: dict[int, np.ndarray] = {}  # beta < 1: next review -> level at t
    for t in range(T, 0, -1):
        if not prune:
            levels[t + 1] = cost_to_go[t + 1]
            levels = {e: ctx.engine.backlog_step(t, w) for e, w in levels.items()}
        given = range(1, T - t + 2) if lengths is None else lengths(t)
        if not given:  # no table and no review
            continue
        probe = reviews[t + 1].cycle + 1 if prune and t + 1 in reviews else 0  # 0: none
        first = (probe,) if probe in given else ()  # the probe, then the others in order
        candidates = itertools.chain(first, (r for r in given if r != probe))
        J = ctx.engine.mean_bound(t) if prune else None
        best: Optional[_CycleResult] = None
        best_n, best_r = math.inf, 0  # r > 0: a cost of inf never wins
        for k, r in enumerate(candidates):
            if not prune:
                curve = levels[t + r][-window.size :]
            else:
                least, future_min = J[r - 1], table_min[t + r]
                if _exceeds(least, best_n):  # and so does J of every longer cycle
                    stats.candidates_pruned += len(given) - k
                    break
                if _exceeds(least + future_min, best_n):
                    stats.candidates_pruned += 1
                    continue
                hp_fn, top = ctx.engine.cycle_hp_fn(t, r), window.max_inv
                hp = hp_fn(range(window.min_inv, top + 1))
                while top < ctx.grid.max_inv and hp[-1] < hp[-2]:  # min hp may lie above
                    top = min(ctx.grid.max_inv, 2 * top + 1)
                    hp = hp_fn(range(window.min_inv, top + 1))
                zone = np.flatnonzero(~_exceeds(hp + future_min, best_n))  # Z; NaN stays in
                if zone.size and zone[-1] < window.size - 1:  # Z below c: price it alone
                    a, b = int(zone[0]), int(zone[-1])
                    part = ctx.engine.tail(t, r, cost_to_go[t + r], (a, b))
                    zone = np.flatnonzero(~_exceeds(hp[a : b + 1] + part, best_n))
                if not zone.size:  # no level on the grid reaches the best
                    stats.candidates_pruned += 1
                    continue
                curve = hp[: window.size] + ctx.engine.tail(t, r, cost_to_go[t + r])
            res = table_fn(ctx, curve, stats)
            if prune:
                wider = _certify(ctx, window, hp, future_min, curve, res.best_n + K)
                if wider is not None:  # start over on the wider window
                    tables = _sweep(ctx, table_fn, lengths, wider)
                    tables.stats.window_widenings += 1
                    return tables
            if (res.best_n, r) < (best_n, best_r):  # ties go to the shorter cycle
                best, best_r, best_n = res, r, res.best_n
        if best is None:  # every candidate costs inf or NaN
            raise ValueError(f"no cycle at period {t} has a finite cost: the costs overflow")
        cost_to_go[t] = best.table
        lo = window.min_inv  # the curve indices as inventory levels
        reviews[t] = PolicyReview(t, best_r, lo + best.stop + 1, lo + best.best)
        if prune:
            table_min[t] = float(best.table.min())
    return ValueTables(window, T, cost_to_go, reviews, stats)


def _context(
    instance: Instance, context: Optional[SolveContext], *, full_backlog: bool = False
) -> SolveContext:
    """The context of a solver or evaluator call: the given one, checked
    against the instance, or a new one. Callers whose decision or pricing
    assumes full backlogging refuse instances with beta < 1 first."""
    if full_backlog and instance.beta < 1.0:
        raise ValueError("partial backlogging requires solve_plain (--solver plain)")
    if context is None:
        return SolveContext(instance)
    if context.instance is not instance and context.instance != instance:
        raise ValueError("context was built for a different instance")
    return context


def solve_plain(instance: Instance, *, context: Optional[SolveContext] = None) -> ValueTables:
    """Reference sweep: full order-quantity search at every state, for any
    backlogged fraction (0 <= beta <= 1).

    For beta < 1 the sweep chains the levels of the module docstring. The
    no-order cost curve is then not guaranteed K-convex, so the published
    reorder level is the threshold of the descending scan and may only
    approximate a non-interval ordering region.
    """
    return _sweep(_context(instance, context), _plain_table)


solve_lost_sales = solve_plain  # the same sweep, under its partial-backlog name


def solve_kconvex(instance: Instance, *, context: Optional[SolveContext] = None) -> ValueTables:
    """Accelerated sweep using the K-convexity threshold scan; beta < 1
    raises ``ValueError``. Produces the same tables and policy as ``solve_plain``."""
    ctx = _context(instance, context, full_backlog=True)
    return _sweep(ctx, _kconvex_table)


# ----------------------------------------------------------------------
# Policy extraction
# ----------------------------------------------------------------------

def extract_policy(tables: ValueTables, instance: Instance) -> Policy:
    """The decided reviews visited by following each one's cycle forward
    from the mandatory period-1 review."""
    if tables.horizon != instance.T:
        raise ValueError("tables belong to a different horizon")
    reviews = []
    t = 1
    while t <= instance.T:
        if t not in tables.reviews:
            raise ValueError(f"value tables are incomplete at period {t}")
        reviews.append(tables.reviews[t])
        t += reviews[-1].cycle
    return Policy(horizon=instance.T, reviews=tuple(reviews))
