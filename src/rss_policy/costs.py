"""Pricing of review cycles, with memoisation.

The *cycle curve* of a cycle of r periods at period t is its no-order
cost over the post-order positions at period t: the expected
holding/penalty of periods t..t+r-1 plus the expected cost-to-go
``future`` at period t + r, whose states below ``future``'s span take
its floor value ``future[0]``. The solvers and the evaluator decide on
``CycleCostEngine.cycle_curve``; the exact search's bound reads hp with
the curve from ``cycle_parts``, and the heuristic sweep and the exact
search's nodes read the two parts, ``cycle_hp_fn`` and ``tail``, on
their window, to prune on hp before they price the tail.

Write hp(t, r) for the expected holding/penalty of a cycle of r periods,
periods t..t+r-1, as a function of the post-order position y at period
t, and L(x) = h*max(x, 0) + b*max(-x, 0) for the one-period cost of
closing inventory x. With p_t the period-t pmf, the curves satisfy

    hp(t, 1)(y) = E[ L(y - d_t) ]
    hp(t, r)(y) = E[ L(y - d_t) + hp(t+1, r-1)(y - d_t) ]

because the closing inventory of period t is the post-order position
of the rest of the cycle. Each step (``step``) is one valid convolution
with p_t, of L plus the next curve, so every (t, r) curve is built from
the curve (t+1, r-1) and memoised. The curve does not depend on the
order quantity, only on the post-order position, which lets the solvers
share it across every decision at a cycle.

Spans. A curve is memoised over one span of positions, grown by the
reads, and kept. With floor_1 the grid floor and floor_{u+1} = floor_u -
dmax_u, dmax_u the largest demand of period u, a chain read from period
v on [lo, hi] reads each curve (u, k) of it on [lo + floor_u - floor_v,
hi], below the read by the largest demands of periods v..u-1. With R the
reach (the longest cycle read so far) rounded up to a power of two, the
chains through (u, k) start at v >= u - (R - k), so a curve that lacks
its span grows to [lo + floor_u - floor_v, hi] for v = max(1, u - (R -
k)), what the longest of them reads. Over that span it reads hp(u+1,
k-1) on [lo + floor_{u+1} - floor_v, hi], and v is the same for (u+1,
k-1): the floors telescope, so reads at one lo and one R ask each curve
for one span whether they reach it directly or through a longer cycle.
The head of a chain is checked only against the read, [lo, hi]. A head
checked against its span would grow again each time R doubles, by
positions that only a longer chain through it reads, and such a chain
grows it when it is read. Each doubling asks for at most one more piece
of a curve, so under reads on one [lo, hi] a curve is convolved at most
ceil(log2 T) + 1 times. The positions a curve lacks, below and above its
span, are convolved as two pieces, each value by the same dot product as
in one convolution over the whole span, and joined: every value is
computed once and has the same bits whatever the order of the reads.
The sweep reads no hp of a cycle its mean-demand bound (``mean_bound``)
rules out, so its reach stays near the longest winning cycle, 8 or 9
periods on the scalability instances from T = 35 to 1000, and what the
engine holds grows about linearly in T; the exact search reads cycles of
every length, so its R is T rounded up to a power of two.

Under full backlogging a cycle curve is hp(t, r) plus one ``tail``
convolution of ``future`` with the pmf of the cycle's cumulative demand;
the hp curves assume it. With a backlogged fraction beta < 1 a cycle is
priced by one ``backlog_step`` per period: ``step`` on the next review's
values read at the truncated closing inventories trunc(x) (``_truncate``).
Period u's step spans [floor_u, high], with the floors floor_{u+1} =
min(floor_1, trunc(floor_u - dmax_u)), those above at beta = 1: as the
rest of a cycle that started earlier, the post-order position of period
u + 1 is the next state of period u, which that demand can drive below
the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .demand import CumulativeDemandCache, check_memory


@dataclass(frozen=True)
class CostParams:
    """Cost structure: fixed order cost K, review cost W, unit holding h,
    unit penalty b (both charged per item per period on closing inventory)."""

    K: float
    W: float
    h: float
    b: float

    def __post_init__(self) -> None:
        if not all(0 <= c < math.inf for c in (self.K, self.W, self.h, self.b)):
            raise ValueError("cost parameters must be finite and nonnegative")
        if self.h + self.b <= 0:
            raise ValueError("holding and penalty cost cannot both be zero")


_EMPTY = np.empty(0)  # a curve not built yet, or a piece with no positions


def _truncate(x: np.ndarray, beta: float) -> np.ndarray:
    """Partial-backlog state transition: negative closing inventories keep
    only the backlogged fraction, rounded to the nearest integer."""
    return np.where(x < 0, np.round(beta * x).astype(np.int64), x)


class CycleCostEngine:
    """Cycle curves of one instance, with memoised holding/penalty curves.

    Each curve is memoised over one span of post-order positions, grown
    by the reads (``cycle_hp_fn``) and kept; the longest cycle read so far
    bounds the spans (module docstring, Spans). The engine owns the states
    below the grid: the floors, and over [min_u(floor_u - dmax_u), high]
    each closing inventory's one-period cost and next state, which
    ``simulate`` reads too; building them peaks at five 8-byte arrays, 40
    bytes a position.
    A span too long for memory (the grid and every period's largest demand
    below it) raises ``MemoryError`` before anything is built. One engine
    serves one solver run (or a family of runs); it is not thread-safe.
    """

    def __init__(
        self,
        params: CostParams,
        demand: CumulativeDemandCache,
        low: int,
        high: int,
        beta: float,
    ):
        """``demand`` holds the instance's pmfs; ``low``/``high`` bound the
        post-order positions the solvers query; ``beta`` is the instance's
        backlogged fraction."""
        if high < low:
            raise ValueError("need low <= high")
        dmax = [demand.period(u).max_value for u in range(1, demand.horizon + 1)]
        check_memory(40 * (high - low + 1 + sum(dmax)), "the inventory grid")
        self._demand = demand
        self._lo, self._hi = low, high
        self._beta = beta
        self._params = params
        self._means = np.array([demand.period(u).mean() for u in range(1, demand.horizon + 1)])
        # where mean_bound's sum is least for each cycle length r = 1..T:
        # j = ceil(r b / (h + b)) clipped to 1..r (b / (h + b) <= 1, so only
        # the 1 binds), as the index j - 1 and as the floats j and r - j
        ratio = 1.0 / (1.0 + params.h / params.b) if params.b > 0 else 0.0  # h + b may overflow
        r = np.arange(1.0, demand.horizon + 1)
        j = np.maximum(np.ceil(ratio * r), 1.0)
        self._least_at = j.astype(np.int64) - 1, j, r - j
        # _floors[u - 1] = floor_u of the module docstring
        self._floors = [low]
        for d in dmax[:-1]:
            self._floors.append(min(low, int(_truncate(np.int64(self._floors[-1] - d), beta))))
        self._base = min(f - d for f, d in zip(self._floors, dmax))
        # over the closing inventories [_base, high]: their one-period cost, and
        # _next, the index from _base of the state each one leaves
        xs = np.arange(self._base, high + 1)
        with np.errstate(over="ignore"):  # an overflowing cost is refused where it is read
            self._one_period = params.h * np.maximum(xs, 0.0) + params.b * np.maximum(-xs, 0.0)
        self._next = _truncate(xs, beta) - self._base
        # _curves[t][r] = (first position, hp(t, r) from there on)
        self._curves: list[dict[int, tuple[int, np.ndarray]]] = [
            {} for _ in range(demand.horizon + 1)
        ]
        self._reach = 0  # the longest cycle read so far

    def _cover(self, t: int, r: int, lo: int, hi: int) -> tuple[int, np.ndarray]:
        """hp(t, r) grown to span at least [lo, hi], with its first position.

        A curve (u, k) of the chain that lacks its span grows to the span of
        the module docstring, [lo + floor_u - floor_v, hi] with v = max(1,
        u - (R - k)); the curves below the head are checked against that
        span, the head against [lo, hi] alone. A curve grown to [A, B] has a
        child spanning [A - dmax_u, B], so below the first curve that spans
        what it is checked against the chain does too; the curves above it
        grow from the deepest up, and long cycles do not recurse.
        """
        reach = 1 << (self._reach - 1).bit_length()  # R
        lacking = []
        for u in range(t, t + r):
            k = t + r - u
            a = lo + self._floors[u - 1] - self._floors[max(1, u - (reach - k)) - 1]
            first, curve = self._curves[u].get(k, (a, _EMPTY))
            if first <= (lo if u == t else a) and hi < first + curve.shape[0]:
                break
            lacking.append((u, a))
        for u, a in reversed(lacking):
            self._grow(u, t + r - u, a, hi)
        return self._curves[t][r]

    def _grow(self, u: int, k: int, a: int, b: int) -> None:
        """Extend hp(u, k) to its span joined with [a, b]: the positions below
        and above its span are convolved as pieces from hp(u+1, k-1), which
        spans what they read."""
        pmf = self._demand.period(u)

        def piece(lo: int, hi: int) -> np.ndarray:
            if hi < lo:
                return _EMPTY
            if k == 1:
                return self.step(u, lo, hi, 0.0)
            start, nxt = self._curves[u + 1][k - 1]
            closing = nxt[lo - pmf.max_value - start : hi - pmf.offset - start + 1]
            return self.step(u, lo, hi, closing)

        first, old = self._curves[u].get(k, (a, _EMPTY))
        a, b = min(a, first), max(b, first + old.shape[0] - 1)
        pieces = (piece(a, first - 1), old, piece(first + old.shape[0], b))
        parts = [p for p in pieces if p.shape[0]]
        curve = parts[0] if len(parts) == 1 else np.concatenate(parts)
        curve.setflags(write=False)
        self._curves[u][k] = (a, curve)

    def step(self, u: int, lo: int, hi: int, nxt: np.ndarray | float) -> np.ndarray:
        """E[L(y - d_u) + nxt(y - d_u)] for y in [lo, hi], one period of any
        cycle recursion: one valid convolution with p_u. ``nxt`` is 0 or
        spans the closing inventories [lo - dmax_u, hi - dmin_u]."""
        pmf = self._demand.period(u)
        cost = self._one_period[lo - pmf.max_value - self._base : hi - pmf.offset - self._base + 1]
        return np.convolve(cost + nxt, pmf.probs, "valid")

    def backlog_step(self, u: int, w: np.ndarray) -> np.ndarray:
        """Partial-backlog period u over [floor_u, high]: ``step`` on the next
        values ``w`` (ending at high) read at the truncated closing inventories,
        so penalty is charged on the full shortfall; the clip binds at w[0]."""
        pmf, lo, base = self._demand.period(u), self._floors[u - 1], self._base
        nxt = self._next[lo - pmf.max_value - base : self._hi - pmf.offset - base + 1]
        idx = nxt - (self._hi + 1 - w.shape[0] - base)
        return self.step(u, lo, self._hi, w[np.clip(idx, 0, w.shape[0] - 1)])

    def cycle_hp_fn(self, t: int, r: int) -> Callable[[Sequence[int]], np.ndarray]:
        """Expected holding/penalty over a cycle of r periods starting at
        period t, as a function of the post-order position.

        The returned function maps consecutive ascending positions ``ys``
        within [low, high] (a range, or an array such as ``np.arange``) to
        a read-only view of the memoised curve over them. A read first
        grows the curve and its chain to the spans of the module
        docstring, convolving only the positions they lack. Refused for
        beta < 1.
        """
        if self._beta < 1.0:
            raise ValueError("holding/penalty curves assume full backlogging (beta = 1)")
        if not 1 <= t <= t + r - 1 <= self._demand.horizon:
            raise ValueError(f"cycle (t={t}, r={r}) outside the horizon 1..{self._demand.horizon}")
        self._reach = max(self._reach, r)

        def read(ys: Sequence[int]) -> np.ndarray:
            lo, hi = int(ys[0]), int(ys[-1])
            if not self._lo <= lo <= hi <= self._hi or len(ys) != hi - lo + 1:
                raise ValueError(f"need consecutive positions within [{self._lo}, {self._hi}]")
            first, curve = self._cover(t, r, lo, hi)
            return curve[lo - first : hi - first + 1]

        return read

    def mean_bound(self, t: int) -> np.ndarray:
        """J(t, r) for every cycle length r = 1..T - t + 1, at index r - 1:
        the least over real y of sum_k L(y - c_k), c_k the mean demand of
        periods t..t+k-1 for k = 1..r. By Jensen's inequality it is at most
        hp(t, r) at every position, and it is nondecreasing in r (``solver``
        module docstring, Prune). The cumulative means c and their prefix
        sums P are two ``cumsum``, which add in order, and J is the closed
        form at j = ceil(r b / (h + b)) clipped to 1..r. A J that overflows
        is inf, and numpy warns: the caller scopes the warning."""
        h, b = self._params.h, self._params.b
        c = self._means[t - 1 :].cumsum()  # c[k - 1] = c_k
        P = c.cumsum()  # P[k - 1] = c_1 + ... + c_k
        n, (i, j, rj) = c.shape[0], self._least_at  # the minimum lies at y = c_j
        cj, Pj = c[i[:n]], P[i[:n]]
        return h * (j[:n] * cj - Pj) + b * (P - Pj - rj[:n] * cj)

    def tail(self, t: int, r: int, future: np.ndarray, span: tuple | None = None) -> np.ndarray:
        """Expected cost-to-go ``future`` at the next review of a cycle of r
        periods at period t, over the post-order positions ``future`` spans
        (the grid or a window of it): ``future`` padded with its floor
        value and convolved with the cycle's cumulative-demand pmf; ``span``
        (a, b) gives indices a..b alone, each the whole call's dot product."""
        cum = self._demand.cumulative(t, t + r)
        a, b = (0, future.shape[0] - 1) if span is None else span
        end, m = b + cum.probs.shape[0], cum.max_value  # padded values a..end - 1 are read
        reads = future[max(a - m, 0) : max(end - m, 0)]  # after the floor values
        padded = np.concatenate((np.full(max(min(m, end) - a, 0), future[0]), reads))
        return np.convolve(padded, cum.probs, "valid")

    def cycle_parts(
        self, t: int, r: int, future: np.ndarray, lo: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """hp(t, r) and the cycle curve hp + ``tail`` under full backlogging,
        both over the positions ``future`` spans from ``lo``."""
        hp = self.cycle_hp_fn(t, r)(range(lo, lo + future.shape[0]))
        return hp, hp + self.tail(t, r, future)

    def cycle_curve(self, t: int, r: int, future: np.ndarray, lo: int | None = None) -> np.ndarray:
        """The cycle curve of a cycle of r periods at period t, excluding the
        review/order fixed costs, over the positions ``future`` spans from
        ``lo`` (the grid floor by default): the curve of ``cycle_parts`` under
        full backlogging, and with beta < 1 a ``backlog_step`` per period, for
        which ``future`` must span the grid and ``lo`` be None or its floor."""
        if self._beta == 1.0:
            return self.cycle_parts(t, r, future, self._lo if lo is None else lo)[1]
        if lo not in (None, self._lo) or future.shape[0] != self._hi - self._lo + 1:
            raise ValueError(f"with beta < 1 a cycle curve spans the grid [{self._lo}, {self._hi}]")
        w = future
        for u in range(t + r - 1, t - 1, -1):
            w = self.backlog_step(u, w)
        return w[-future.shape[0] :]

    @property
    def stored_states(self) -> int:
        """Number of (period, length, post-order position) values held now."""
        return sum(curve.shape[0] for held in self._curves for _, curve in held.values())
