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
import numbers
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln, ndtr, ndtri, pdtr, pdtrik, xlogy

TAIL_EPS = 1e-6  # upper-tail mass of each period's demand cut by ``discretize``


def physical_memory() -> int:
    """Physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes: int, what: str) -> None:
    """Raise ``MemoryError``, before anything is allocated, when a peak of
    ``nbytes`` bytes would exceed physical memory. A pmf peaks at four
    float64 arrays of its length, 32 bytes per value; the cost engine at
    five 8-byte arrays over its span, 40 bytes per position."""
    memory = physical_memory()
    if nbytes > memory:
        raise MemoryError(f"out of memory: {what} needs more than {memory / 2**30:.3g} GiB")


def is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; booleans are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    total that overflows and a negative or non-integer offset raise
    ``ValueError``.
    """

    offset: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if probs.min() < 0:
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if not 0 < total < np.inf:  # also an inf or NaN weight
            raise ValueError(f"pmf mass {total} must be positive and finite")
        if not is_integer(self.offset):
            raise ValueError(f"the offset must be an integer, not {self.offset!r}")
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

        M is a power of two of at least 32 * len(self) and 1024, so j / M,
        u * M and cdf * M are exact, and G[j] is the support index of
        quantile(j / M) for j = 0..M: the first k with j <= floor(cdf[k] M),
        or the last index, so k fills the j after floor(cdf[k - 1] M) up to
        floor(cdf[k] M), and the last index every j up to M. For
        j = floor(u * M), j / M <= u < (j + 1) / M and quantile is
        monotone, so G[j] <= answer <= G[j + 1]. Where the two agree,
        bucket j holds the demand; only the draws in buckets that hold a
        cdf step (about 1 % of them, marked -1) are searched.
        """
        cdf, last, m = self.cdf(), len(self) - 1, self._buckets
        steps = np.floor(cdf * m).astype(np.intp)
        steps[-1] = m
        table = self.offset + np.repeat(np.arange(last + 1), np.diff(steps, prepend=-1))
        buckets = np.where(table[:-1] == table[1:], table[:-1], -1)

        def draw(u: np.ndarray) -> np.ndarray:
            d = buckets.take((u * m).astype(np.intp))
            step = np.flatnonzero(d < 0)
            d[step] = self.offset + np.minimum(np.searchsorted(cdf, u[step]), last)
            return d

        return draw


def point_mass(value: int) -> DemandPmf:
    """Degenerate pmf concentrated at ``value``."""
    return DemandPmf(offset=value, probs=np.array([1.0]))


def cut_length(spec: DemandSpec) -> int:
    """Number of values of ``discretize(spec)``, from scalar special-function
    calls alone: 1 for a point mass, else one more than the smallest point
    whose CDF reaches ``1 - TAIL_EPS``. A cut that is not finite raises
    ``ValueError``."""
    q = 1.0 - TAIL_EPS
    if spec.kind == "poisson":
        mu = spec.mean
        if mu == 0:
            return 1
        cut = np.ceil(pdtrik(q, mu))
        if not np.isfinite(cut):  # pdtrik gives NaN for very large means
            raise ValueError(f"cannot cut the Poisson demand of mean {mu:g}")
        below = np.maximum(cut - 1, 0)
        return int(below if pdtr(below, mu) >= q else cut) + 1
    if spec.sigma == 0:
        return 1
    cut = spec.mean - 0.5 + spec.sigma * float(ndtri(q))
    if cut == math.inf:
        raise ValueError(f"cannot cut the normal demand of mean {spec.mean:g}")
    return max(int(np.ceil(cut)), 0) + 1


def discretize(spec: DemandSpec) -> DemandPmf:
    """Truncate and renormalize a demand distribution onto the integers.

    The support is cut after ``cut_length(spec)`` values, at the smallest
    point whose CDF reaches ``1 - TAIL_EPS``, and the cut mass is spread by
    renormalization. The cut alone lowers the mean, relative: by at most
    about 2 * TAIL_EPS for normal cv up to 0.4 and Poisson means from 10,
    about 5 * TAIL_EPS for Poisson means from 1 (1.7e-6 for Poisson(7.25)),
    and more below (1.5e-4 at 0.017). Folding the normal mass below -0.5
    into 0 raises it: the normal demand of mean 40 and cv 0.3 reads 3.2e-5
    high. A cut too long for memory raises ``MemoryError``;
    ``SolveContext`` bounds the work on the total demand from the cut
    lengths, before any pmf is built.

    The pmfs are bitwise those of ``scipy.stats``'s ``poisson.ppf``/``pmf``
    and ``norm.ppf``/``cdf``: these are the special functions they
    evaluate, in the same order, with ``rv_discrete.pmf``'s clip at 1.
    """
    n = cut_length(spec)
    if n == 1:  # a point mass at the rounded mean, 0 unless a normal has cv 0
        return point_mass(int(round(spec.mean)))
    if spec.kind == "poisson":
        check_memory(32 * n, f"the Poisson demand of mean {spec.mean:g}")
        k = np.arange(n)
        probs = np.minimum(np.exp(xlogy(k, spec.mean) - gammaln(k + 1) - spec.mean), 1.0)
        return DemandPmf(offset=0, probs=probs)
    check_memory(32 * (n + 1), f"the normal demand of mean {spec.mean:g}")
    edges = (np.arange(n + 1) - 0.5 - spec.mean) / spec.sigma
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

    def total(self) -> DemandPmf:
        """Pmf of the demand over the whole horizon, ``cumulative(1, T+1)``
        convolved in its order, so bitwise equal to it, but with no prefix
        (1, j) stored: at long horizons those prefixes would be most of a
        solve's memory."""
        pmf = self.period(1)
        for u in range(2, self.horizon + 1):
            pmf = convolve(pmf, self.period(u))
        return pmf
