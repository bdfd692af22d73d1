"""Expected holding/penalty cost of review cycles, with memoisation.

Writing ``l(t, x, r)`` for the expected holding/penalty of the last r
periods of a cycle, periods t..t+r-1, given closing inventory x at the
end of period t, the levels satisfy the one-period recursion

    l(t, x, 1) = h*max(x, 0) + b*max(-x, 0)
    l(t, x, r) = l(t, x, 1) + E[ l(t+1, x - d_{t+1}, r-1) ]

and the holding/penalty of a cycle of r periods that starts at period t
with post-order position y is ``E_d[ l(t, y - d_t, r) ]``. Because l does
not depend on the order quantity (only on the post-order position),
memoising it removes the repeated work an order-quantity search would
otherwise do.

Each level (t, r) is one dense array over the closing inventories that
post-order positions on the solvers' grid can reach, built once from the
level (t+1, r-1) by a convolution with the period-(t+1) pmf.
``CycleCostEngine.cycle_hp_fn`` convolves a level with the period-t pmf
to give the cycle's holding/penalty over every post-order position.
"""

from __future__ import annotations

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
        if min(self.K, self.W, self.h, self.b) < 0:
            raise ValueError("cost parameters must be nonnegative")
        if self.h + self.b <= 0:
            raise ValueError("holding and penalty cost cannot both be zero")


class CycleCostEngine:
    """Memoised cycle holding/penalty costs for one instance.

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
        self.params = params
        self.T = len(period_pmfs)
        self._pmfs = list(period_pmfs)
        self._dmax = [p.max_value for p in period_pmfs]
        self._hi = high
        # Level (t, r) must hold x down to low - sum of max demands of
        # periods 1..t: deeper levels are reached through earlier demand.
        lows = [low]
        for t in range(1, self.T + 1):
            lows.append(lows[-1] - self._dmax[t - 1])
        self._lo = lows  # _lo[t] for t in 1..T (index 0 unused)
        self._levels: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _check_state(self, t: int, r: int) -> None:
        if r < 1:
            raise ValueError("a review cycle spans at least one period")
        if t < 1:
            raise ValueError(f"period {t} outside 1..{self.T}")
        if t + r > self.T + 1:
            raise ValueError(f"cycle (t={t}, r={r}) extends past the horizon")

    def _hp_vec(self, lo: int, hi: int) -> np.ndarray:
        xs = np.arange(lo, hi + 1, dtype=np.float64)
        return self.params.h * np.maximum(xs, 0.0) + self.params.b * np.maximum(-xs, 0.0)

    def _level(self, t: int, r: int) -> np.ndarray:
        """Dense l(t, ., r) over [self._lo[t], self._hi], for r >= 1.

        Level (t, r) needs (t+1, r-1), which needs (t+2, r-2), and so on
        down to r = 1. The missing ones are built in a loop from the
        deepest up, so long cycles do not recurse.
        """
        arr = self._levels.get((t, r))
        if arr is not None:
            return arr
        chain = [(t, r)]
        while chain[-1][1] > 1 and (chain[-1][0] + 1, chain[-1][1] - 1) not in self._levels:
            chain.append((chain[-1][0] + 1, chain[-1][1] - 1))
        for t, r in reversed(chain):
            lo = self._lo[t]
            if r == 1:
                arr = self._hp_vec(lo, self._hi)
            else:
                # l(t, x, r) = hp(x) + sum_z P_{t+1}(z) l(t+1, x - z, r - 1);
                # the next level spans exactly the extra demand reach.
                nxt = self._levels[(t + 1, r - 1)]
                pmf = self._pmfs[t]  # period t+1, list is 0-based
                m = len(pmf)
                conv = np.convolve(nxt, pmf.probs)
                arr = self._hp_vec(lo, self._hi) + conv[m - 1 : m - 1 + (self._hi - lo + 1)]
            arr.setflags(write=False)
            self._levels[(t, r)] = arr
        return arr

    # ------------------------------------------------------------------
    def cycle_hp_fn(self, t: int, r: int) -> Callable[[np.ndarray], np.ndarray]:
        """Expected holding/penalty over a cycle of r periods starting at
        period t, as a function of the post-order position.

        The engine level is convolved with the period-t pmf once, here;
        the returned function only indexes that curve, mapping an array
        of post-order positions within [low, high] to their expected
        cycle holding/penalty.
        """
        self._check_state(t, r)
        curve = np.convolve(self._level(t, r), self._pmfs[t - 1].probs, "valid")
        shift = self._dmax[t - 1] + self._lo[t]
        return lambda ys: curve[ys - shift]

    @property
    def stored_states(self) -> int:
        """Number of memoised (period, inventory, length) values."""
        return sum(arr.shape[0] for arr in self._levels.values())
