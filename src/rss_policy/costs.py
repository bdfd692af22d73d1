"""Expected holding/penalty cost of review cycles, with memoisation.

Write hp(t, r) for the expected holding/penalty of a cycle of r periods,
periods t..t+r-1, as a function of the post-order position y at period
t, and L(x) = h*max(x, 0) + b*max(-x, 0) for the one-period cost of
closing inventory x. With p_t the period-t pmf, the curves satisfy

    hp(t, 1)(y) = E[ L(y - d_t) ]
    hp(t, r)(y) = E[ L(y - d_t) + hp(t+1, r-1)(y - d_t) ]

because the closing inventory of period t is the post-order position
of the rest of the cycle. Each step is one valid convolution with p_t,
of L plus the next curve, so every (t, r) curve is built once, from
the curve (t+1, r-1), and memoised. The curve does not depend on the
order quantity, only on the post-order position, which is what lets
the solvers share it across every decision at a cycle.

Curve (t, r) is one dense array over [lo[t-1], high]: the post-order
positions on the solvers' grid, extended down by the largest demands
of periods 1..t-1. As the rest of a cycle that started earlier, its
post-order position is that cycle's closing inventory of period t-1,
which those demands can drive that far below the grid.
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


class CycleCostEngine:
    """Memoised cycle holding/penalty curves for one instance.

    One engine serves one solver run (or a family of runs over the same
    instance); it is not safe for concurrent mutation.
    """

    def __init__(
        self,
        params: CostParams,
        period_pmfs: Sequence[DemandPmf],
        low: int,
        high: int,
    ):
        """``low``/``high`` bound the post-order positions the solvers query."""
        if high < low:
            raise ValueError("need low <= high")
        self.T = len(period_pmfs)
        self._pmfs = list(period_pmfs)
        self._hi = high
        # _lo[t] = low - the largest demands of periods 1..t; curve (t, r)
        # spans [_lo[t-1], high] and its convolution input [_lo[t], high]
        self._lo = [low]
        for pmf in self._pmfs:
            self._lo.append(self._lo[-1] - pmf.max_value)
        xs = np.arange(self._lo[-1], high + 1, dtype=np.float64)
        self._one_period = params.h * np.maximum(xs, 0.0) + params.b * np.maximum(-xs, 0.0)
        self._curves: dict[tuple[int, int], np.ndarray] = {}

    def _curve(self, t: int, r: int) -> np.ndarray:
        """hp(t, r) over [self._lo[t-1], self._hi].

        Curve (t, r) needs (t+1, r-1), which needs (t+2, r-2), and so on
        down to r = 1. The missing ones are built in a loop from the
        deepest up, so long cycles do not recurse.
        """
        chain = [(t, r)]
        while chain[-1] not in self._curves and chain[-1][1] > 1:
            chain.append((chain[-1][0] + 1, chain[-1][1] - 1))
        for u, k in reversed(chain):
            if (u, k) in self._curves:
                continue
            # L over the closing inventories [lo[u], hi] of period u
            cost = self._one_period[self._lo[u] - self._lo[-1] :]
            if k > 1:
                cost = cost + self._curves[(u + 1, k - 1)]
            # a pmf with a positive offset makes the valid output run
            # past hi by that offset; the slice drops it
            curve = np.convolve(cost, self._pmfs[u - 1].probs, "valid")
            curve = curve[: self._hi - self._lo[u - 1] + 1]
            curve.setflags(write=False)
            self._curves[(u, k)] = curve
        return self._curves[(t, r)]

    def cycle_hp_fn(self, t: int, r: int) -> Callable[[np.ndarray], np.ndarray]:
        """Expected holding/penalty over a cycle of r periods starting at
        period t, as a function of the post-order position.

        The returned function only indexes the memoised curve, mapping an
        array of post-order positions within [low, high] to their
        expected cycle holding/penalty.
        """
        if r < 1:
            raise ValueError("a review cycle spans at least one period")
        if t < 1:
            raise ValueError(f"period {t} outside 1..{self.T}")
        if t + r > self.T + 1:
            raise ValueError(f"cycle (t={t}, r={r}) extends past the horizon")
        curve, shift = self._curve(t, r), self._lo[t - 1]
        return lambda ys: curve[ys - shift]

    @property
    def stored_states(self) -> int:
        """Number of memoised (period, length, post-order position) values."""
        return sum(curve.shape[0] for curve in self._curves.values())
