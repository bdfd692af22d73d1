"""Discrete demand distributions on an integer grid.

Per-period demand is represented as a probability mass function over
nonnegative integer quantities. Poisson demand is natively integer;
normal demand is discretized by unit-width CDF differences with the
mass below -0.5 folded into zero. Multi-period (cumulative) demand is
obtained by exact convolution and cached, since the solvers query the
same period ranges many times.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln, ndtr, ndtri, pdtr, pdtrik, xlogy

DEFAULT_TAIL_EPS = 1e-6


def physical_memory() -> int:
    """Physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes: int, what: str) -> None:
    """Raise ``MemoryError``, before anything is allocated, when a peak of
    ``nbytes`` bytes would exceed physical memory. A pmf or the cost
    engine's one-period cost peaks at four float64 arrays of their length,
    32 bytes per value."""
    memory = physical_memory()
    if nbytes > memory:
        raise MemoryError(f"{what} needs more than the {memory / 2**30:.3g} GiB of memory")


@dataclass(frozen=True)
class DemandSpec:
    """Distribution family and parameters for one period's demand.

    kind is "poisson" or "normal". For normal demand the standard
    deviation is ``cv * mean`` (coefficient of variation); cv is
    ignored for Poisson.
    """

    kind: str
    mean: float
    cv: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "normal"):
            raise ValueError(f"unknown demand kind: {self.kind!r}")
        if not 0 <= self.mean < math.inf:
            raise ValueError("demand mean must be finite and nonnegative")
        if not 0 <= self.cv < math.inf:
            raise ValueError("coefficient of variation must be finite and nonnegative")
        if not self.sigma < math.inf:
            raise ValueError("standard deviation cv * mean must be finite")

    @property
    def sigma(self) -> float:
        return self.cv * self.mean


@dataclass(frozen=True)
class DemandPmf:
    """Immutable pmf over consecutive integers ``offset, offset+1, ...``.

    ``probs`` may be any finite, nonnegative 1-D weight vector with a
    positive, finite total; it is stored divided by that total, so
    unnormalized weights and truncated pmfs are renormalized to unit
    mass. Empty, non-1-D, negative, non-finite or all-zero weights, a
    total that overflows and a negative offset raise ``ValueError``.
    """

    offset: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if not 0 < total < np.inf:
            raise ValueError(f"pmf mass {total} must be positive and finite")
        if self.offset < 0:
            raise ValueError("demand support must be nonnegative")
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "offset", int(self.offset))

    def __len__(self) -> int:
        return self.probs.shape[0]

    @property
    def max_value(self) -> int:
        """Largest support point."""
        return self.offset + len(self) - 1

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self))

    def mean(self) -> float:
        return float(np.dot(self.probs, self.support))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot(self.probs, (self.support - m) ** 2))

    def cdf(self) -> np.ndarray:
        """Cumulative probabilities aligned with ``support``."""
        return np.cumsum(self.probs)

    def quantile(self, q: float) -> int:
        """Smallest support value with at least mass q below or at it."""
        idx = int(np.searchsorted(self.cdf(), q, side="left"))
        return self.offset + min(idx, len(self) - 1)

    @property
    def _buckets(self) -> int:
        """M of ``sampler``: its table takes 8 M bytes, 24 (M + 1) to build."""
        return 1 << max(10, (32 * len(self) - 1).bit_length())

    def sampler(self) -> Callable[[np.ndarray], np.ndarray]:
        """A function that maps each u in [0, 1) to ``quantile(u)``,
        elementwise and exactly, by a bucket table built once for many draws.

        M is a power of two of at least 32 * len(self) and 1024, so j / M
        and u * M are exact, and G[j] is the support index of
        quantile(j / M) for j = 0..M. For j = floor(u * M),
        j / M <= u < (j + 1) / M and quantile is monotone, so
        G[j] <= answer <= G[j + 1]. Where the two agree, bucket j holds
        the demand; only the draws in buckets that hold a cdf step (about
        1 % of them, marked -1) are searched.
        """
        cdf, last, m = self.cdf(), len(self) - 1, self._buckets
        table = self.offset + np.minimum(np.searchsorted(cdf, np.arange(m + 1) / m), last)
        buckets = np.where(table[:-1] == table[1:], table[:-1], -1)

        def draw(u: np.ndarray) -> np.ndarray:
            d = buckets[(u * m).astype(np.intp)]
            step = np.flatnonzero(d < 0)
            d[step] = self.offset + np.minimum(np.searchsorted(cdf, u[step]), last)
            return d

        return draw


def point_mass(value: int) -> DemandPmf:
    """Degenerate pmf concentrated at ``value``."""
    return DemandPmf(offset=int(value), probs=np.array([1.0]))


def discretize(spec: DemandSpec, tail_eps: float = DEFAULT_TAIL_EPS) -> DemandPmf:
    """Truncate and renormalize a demand distribution onto the integers.

    The support is cut at the smallest point whose CDF reaches
    ``1 - tail_eps``; the remaining mass is spread by renormalization.
    That moves mass from the upper tail onto the kept support, so the
    discretized mean sits below the true mean: the relative shift is
    within about 2 * ``tail_eps`` for Poisson means of at least 1 and for
    normal demand with cv up to 0.4 (1.7e-6 for Poisson(7.25) at the
    default), and grows to about 10 * ``tail_eps`` for means near 0.1.
    A cut too long for memory raises ``MemoryError`` (``check_memory``).

    The pmfs are bitwise those of ``scipy.stats``'s ``poisson.ppf``/``pmf``
    and ``norm.ppf``/``cdf``: these are the special functions they
    evaluate, in the same order, with ``rv_discrete.pmf``'s clip at 1.
    """
    if not 0 < tail_eps < 0.01:
        raise ValueError("tail_eps must lie in (0, 0.01)")
    q = 1.0 - tail_eps
    if spec.kind == "poisson":
        mu = spec.mean
        if mu == 0:
            return point_mass(0)
        cut = np.ceil(pdtrik(q, mu))
        if not np.isfinite(cut):  # pdtrik gives NaN for very large means
            raise ValueError(f"cannot cut the Poisson demand of mean {mu:g}")
        below = np.maximum(cut - 1, 0)
        kmax = int(below if pdtr(below, mu) >= q else cut)
        check_memory(32 * (kmax + 1), f"the Poisson demand of mean {mu:g}")
        k = np.arange(kmax + 1)
        probs = np.minimum(np.exp(xlogy(k, mu) - gammaln(k + 1) - mu), 1.0)
        return DemandPmf(offset=0, probs=probs)
    # Normal with sigma = cv * mean; cv = 0 degenerates to a point mass
    # at the nearest integer.
    sigma = spec.sigma
    if sigma == 0:
        return point_mass(int(round(spec.mean)))
    cut = spec.mean - 0.5 + sigma * float(ndtri(q))
    if cut == math.inf:
        raise ValueError(f"cannot cut the normal demand of mean {spec.mean:g}")
    kmax = max(int(np.ceil(cut)), 0)
    check_memory(32 * (kmax + 2), f"the normal demand of mean {spec.mean:g}")
    edges = (np.arange(kmax + 2) - 0.5 - spec.mean) / sigma
    cdfs = ndtr(edges)
    probs = np.diff(cdfs)
    probs[0] += cdfs[0]  # fold mass below -0.5 into demand 0
    return DemandPmf(offset=0, probs=probs)


def convolve(a: DemandPmf, b: DemandPmf) -> DemandPmf:
    """Exact pmf of the sum of two independent integer demands."""
    return DemandPmf(offset=a.offset + b.offset, probs=np.convolve(a.probs, b.probs))


class CumulativeDemandCache:
    """Per-period pmfs plus cached pmfs of demand summed over period ranges.

    ``cumulative(t, j)`` is the demand accumulated from the start of
    period t to the start of period j (periods t..j-1), for 1-based
    periods and ``1 <= t < j <= T+1``. Entries are immutable once
    stored, so concurrent readers are safe; population is expected to
    happen from a single solver thread.
    """

    def __init__(self, period_pmfs: Sequence[DemandPmf]):
        if len(period_pmfs) == 0:
            raise ValueError("need at least one period")
        self._periods = list(period_pmfs)
        self._cum: dict[tuple[int, int], DemandPmf] = {}

    @property
    def horizon(self) -> int:
        return len(self._periods)

    def period(self, t: int) -> DemandPmf:
        """Pmf of the demand in period t (1-based)."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"period {t} outside horizon 1..{self.horizon}")
        return self._periods[t - 1]

    def cumulative(self, t: int, j: int) -> DemandPmf:
        if not (1 <= t < j <= self.horizon + 1):
            raise ValueError(f"need 1 <= t < j <= T+1, got t={t}, j={j}")
        key = (t, j)
        hit = self._cum.get(key)
        if hit is not None:
            return hit
        if j == t + 1:
            pmf = self.period(t)
        else:
            # Fill the missing prefixes (t, k), k < j, shortest first, so
            # that each of them finds its own prefix stored and long
            # ranges do not recurse.
            k = j - 1
            while k > t and (t, k) not in self._cum:
                k -= 1
            for k in range(k + 1, j):
                self.cumulative(t, k)
            pmf = convolve(self._cum[(t, j - 1)], self.period(j - 1))
        self._cum[key] = pmf
        return pmf
