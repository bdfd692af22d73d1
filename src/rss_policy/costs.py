"""Expected holding/penalty cost of review cycles, with memoisation.

The cost of a cycle that starts at period t with post-order inventory
position y and runs for r periods is a sum of per-period end-of-period
holding/penalty expectations. Writing ``l(t, x, r)`` for the expected
holding/penalty of the remaining cycle given closing inventory x at
the end of period t, the cycle cost decomposes as

    cycle_cost(t, i, q, r) = W + K*[q > 0] + E_d[ l(t, i + q - d_t, r) ]

and l satisfies the one-period recursion

    l(t, x, r) = h*max(x, 0) + b*max(-x, 0) + E[ l(t+1, x - d_{t+1}, r-1) ]

with l(., ., 0) = 0 and l(T+1, ., .) = 0. Because l does not depend on
the order quantity (only on the post-order position), memoising it
removes the repeated work the order-quantity search would otherwise do.

The memo store is keyed by (period, inventory, remaining length). For
speed it is laid out as one dense value array per (period, remaining
length) level over a fixed inventory range; queries outside that range
fall back to an exact scalar recursion with its own dictionary.
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


def holding_penalty(i: int, params: CostParams) -> float:
    """End-of-period cost of closing inventory i."""
    if i >= 0:
        return params.h * i
    return -params.b * i


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
        self._rev = [np.ascontiguousarray(p.probs[::-1]) for p in period_pmfs]
        self._dmax = [p.max_value for p in period_pmfs]
        self._hi = high
        # Level (t, r) must hold x down to low - sum of max demands of
        # periods 1..t: deeper levels are reached through earlier demand.
        lows = [low]
        for t in range(1, self.T + 2):
            lows.append(lows[-1] - (self._dmax[t - 1] if t <= self.T else 0))
        self._lo = lows  # _lo[t] for t in 1..T+1 (index 0 unused)
        self._levels: dict[tuple[int, int], np.ndarray] = {}
        self._aux: dict[tuple[int, int, int], float] = {}

    # ------------------------------------------------------------------
    def _check_state(self, t: int, r: int) -> None:
        if r < 0:
            raise ValueError("cycle length must be nonnegative")
        if not 1 <= t <= self.T + 1:
            raise ValueError(f"period {t} outside 1..{self.T + 1}")
        # t = T+1 is the terminal boundary (value 0 for any r).
        if t <= self.T and t + r > self.T + 1:
            raise ValueError(f"cycle (t={t}, r={r}) extends past the horizon")

    def _hp_vec(self, lo: int, hi: int) -> np.ndarray:
        xs = np.arange(lo, hi + 1, dtype=np.float64)
        return self.params.h * np.maximum(xs, 0.0) + self.params.b * np.maximum(-xs, 0.0)

    def _level(self, t: int, r: int) -> np.ndarray:
        """Dense l(t, ., r) over [self._lo[t], self._hi]."""
        key = (t, r)
        arr = self._levels.get(key)
        if arr is not None:
            return arr
        lo = self._lo[t]
        n = self._hi - lo + 1
        if r == 0 or t == self.T + 1:
            arr = np.zeros(n)
        elif r == 1:
            arr = self._hp_vec(lo, self._hi)
        else:
            # l(t, x, r) = hp(x) + sum_z P_{t+1}(z) l(t+1, x - z, r - 1);
            # the next level spans exactly the extra demand reach.
            nxt = self._level(t + 1, r - 1)
            pmf = self._pmfs[t]  # period t+1, list is 0-based
            m = len(pmf)
            conv = np.convolve(nxt, pmf.probs)
            arr = self._hp_vec(lo, self._hi) + conv[m - 1 : m - 1 + n]
        arr.setflags(write=False)
        self._levels[key] = arr
        return arr

    def _l_scalar(self, t: int, x: int, r: int) -> float:
        """Exact fallback for inventories outside the dense range."""
        if r == 0 or t == self.T + 1:
            return 0.0
        if self._lo[t] <= x <= self._hi:
            return float(self._level(t, r)[x - self._lo[t]])
        key = (t, x, r)
        hit = self._aux.get(key)
        if hit is not None:
            return hit
        val = holding_penalty(x, self.params)
        if r > 1:
            pmf = self._pmfs[t]
            off = pmf.offset
            val += sum(
                p * self._l_scalar(t + 1, x - (off + m), r - 1)
                for m, p in enumerate(pmf.probs)
            )
        self._aux[key] = val
        return val

    # ------------------------------------------------------------------
    def l(self, t: int, i: int, r: int) -> float:
        """Expected holding/penalty of the rest of the cycle: closing
        inventory i at the end of period t, next review r periods away."""
        self._check_state(t, r)
        return self._l_scalar(t, i, r)

    def expected_cycle_hp(self, t: int, y: int, r: int) -> float:
        """Expected holding/penalty over a cycle of r periods starting at
        period t with post-order inventory position y."""
        self._check_state(t, r)
        if r == 0:
            return 0.0
        if t > self.T:
            return 0.0
        pmf = self._pmfs[t - 1]
        lo = self._lo[t]
        a = y - self._dmax[t - 1] - lo
        if a >= 0 and y - pmf.offset <= self._hi:
            arr = self._level(t, r)
            return float(np.dot(self._rev[t - 1], arr[a : a + len(pmf)]))
        off = pmf.offset
        return sum(
            p * self._l_scalar(t, y - (off + m), r)
            for m, p in enumerate(pmf.probs)
        )

    def cycle_hp_fn(self, t: int, r: int) -> Callable[[np.ndarray], np.ndarray]:
        """Array view of ``expected_cycle_hp`` for fixed (t, r).

        The engine level is convolved with the period-t pmf once, here;
        the returned function only indexes that curve, mapping an array
        of post-order positions within [low, high] to their expected
        cycle holding/penalty.
        """
        self._check_state(t, r)
        curve = np.convolve(self._level(t, r), self._pmfs[t - 1].probs, "valid")
        shift = self._dmax[t - 1] + self._lo[t]
        return lambda ys: curve[ys - shift]

    def cycle_cost(self, t: int, i: int, q: int, r: int) -> float:
        """Expected cost of a review cycle: review cost, order cost if an
        order is placed, and holding/penalty on post-order position i+q."""
        if r < 1:
            raise ValueError("a review cycle spans at least one period")
        if q < 0:
            raise ValueError("order quantity must be nonnegative")
        self._check_state(t, r)
        cost = self.params.W + (self.params.K if q > 0 else 0.0)
        return cost + self.expected_cycle_hp(t, i + q, r)

    @property
    def stored_states(self) -> int:
        """Number of memoised (period, inventory, length) values."""
        return sum(arr.shape[0] for arr in self._levels.values()) + len(self._aux)
