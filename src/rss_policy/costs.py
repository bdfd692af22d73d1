"""Expected holding/penalty cost of review cycles, with memoisation.

Write hp(t, r) for the expected holding/penalty of a cycle of r periods,
periods t..t+r-1, as a function of the post-order position y at period
t, and L(x) = h*max(x, 0) + b*max(-x, 0) for the one-period cost of
closing inventory x. With p_t the period-t pmf, the curves satisfy

    hp(t, 1)(y) = E[ L(y - d_t) ]
    hp(t, r)(y) = E[ L(y - d_t) + hp(t+1, r-1)(y - d_t) ]

because the closing inventory of period t is the post-order position
of the rest of the cycle. Each step (``step``) is one valid convolution
with p_t, of L plus the next curve, so every (t, r) curve is built once,
from the curve (t+1, r-1), and memoised. The curve does not depend on
the order quantity, only on the post-order position, which lets the
solvers share it across every decision at a cycle.

The curves assume full backlogging. With a backlogged fraction beta < 1
a cycle is priced by one ``backlog_step`` per period: ``step`` on the
next review's values read at the truncated closing inventories trunc(x)
(``_truncate``). Period u's step spans [floor_u, high], with floor_1 the
grid floor and floor_{u+1} = min(floor_1, trunc(floor_u - dmax_u)), dmax_u
the largest demand of period u: as the rest of a cycle that started
earlier, the post-order position of period u + 1 is the next state of
period u, which that demand can drive below the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .demand import DemandPmf


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


def _truncate(x: np.ndarray, beta: float) -> np.ndarray:
    """Partial-backlog state transition: negative closing inventories keep
    only the backlogged fraction, rounded to the nearest integer."""
    return np.where(x < 0, np.round(beta * x).astype(np.int64), x)


class CycleCostEngine:
    """Memoised cycle holding/penalty curves and backlog steps for one instance.

    One engine serves one solver run (or a family of runs over the same
    instance); it is not safe for concurrent mutation.
    """

    def __init__(
        self,
        params: CostParams,
        period_pmfs: Sequence[DemandPmf],
        low: int,
        high: int,
        beta: float,
    ):
        """``low``/``high`` bound the post-order positions the solvers query;
        ``beta`` is the instance's backlogged fraction."""
        if high < low:
            raise ValueError("need low <= high")
        self.T = len(period_pmfs)
        self._pmfs = list(period_pmfs)
        self._hi = high
        self._beta = beta
        # _floors[u - 1] = floor_u of the module docstring; _one_period spans [_base, high]
        self._floors = [low]
        for pmf in self._pmfs[:-1]:
            below = int(_truncate(np.int64(self._floors[-1] - pmf.max_value), beta))
            self._floors.append(min(low, below))
        self._base = min(f - pmf.max_value for f, pmf in zip(self._floors, self._pmfs))
        xs = np.arange(self._base, high + 1, dtype=np.float64)
        self._one_period = params.h * np.maximum(xs, 0.0) + params.b * np.maximum(-xs, 0.0)
        self._curves: dict[tuple[int, int], np.ndarray] = {}

    def _curve(self, t: int, r: int) -> np.ndarray:
        """hp(t, r) over [floor_t, high].

        Curve (t, r) needs (t+1, r-1), which needs (t+2, r-2), and so on
        down to r = 1. The missing ones are built in a loop from the
        deepest up, so long cycles do not recurse.
        """
        chain = [(t, r)]
        while chain[-1] not in self._curves and chain[-1][1] > 1:
            chain.append((chain[-1][0] + 1, chain[-1][1] - 1))
        for u, k in reversed(chain):
            if (u, k) not in self._curves:
                nxt = self._curves[(u + 1, k - 1)] if k > 1 else 0.0
                self._curves[(u, k)] = curve = self.step(u, nxt)
                curve.setflags(write=False)
        return self._curves[(t, r)]

    def step(self, u: int, nxt: np.ndarray | float) -> np.ndarray:
        """E[L(y - d_u) + nxt(y - d_u)] for y in [floor_u, high], one period
        of any cycle recursion; ``nxt`` is 0 or spans [floor_u - dmax_u, high]."""
        pmf, lo = self._pmfs[u - 1], self._floors[u - 1]
        cost = self._one_period[lo - pmf.max_value - self._base :] + nxt
        # a pmf with a positive offset makes the valid output run past
        # high by that offset; the slice drops it
        return np.convolve(cost, pmf.probs, "valid")[: self._hi - lo + 1]

    def backlog_step(self, u: int, w: np.ndarray) -> np.ndarray:
        """Partial-backlog period u over [floor_u, high]: ``step`` on the next
        values ``w`` (ending at high) read at the truncated closing inventories,
        so penalty is charged on the full shortfall; the clip binds at w[0]."""
        xs = np.arange(self._floors[u - 1] - self._pmfs[u - 1].max_value, self._hi + 1)
        idx = _truncate(xs, self._beta) - (self._hi + 1 - w.shape[0])
        return self.step(u, w[np.clip(idx, 0, w.shape[0] - 1)])

    def cycle_hp_fn(self, t: int, r: int) -> Callable[[np.ndarray], np.ndarray]:
        """Expected holding/penalty over a cycle of r periods starting at
        period t, as a function of the post-order position.

        The returned function only indexes the memoised curve, mapping an
        array of post-order positions within [low, high] to their
        expected cycle holding/penalty. Refused for beta < 1.
        """
        if self._beta < 1.0:
            raise ValueError("holding/penalty curves assume full backlogging (beta = 1)")
        if r < 1:
            raise ValueError("a review cycle spans at least one period")
        if t < 1:
            raise ValueError(f"period {t} outside 1..{self.T}")
        if t + r > self.T + 1:
            raise ValueError(f"cycle (t={t}, r={r}) extends past the horizon")
        curve, shift = self._curve(t, r), self._floors[t - 1]
        return lambda ys: curve[ys - shift]

    @property
    def stored_states(self) -> int:
        """Number of memoised (period, length, post-order position) values."""
        return sum(curve.shape[0] for curve in self._curves.values())
