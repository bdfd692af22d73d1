"""Problem instances and (R,s,S) policies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .costs import CostParams
from .demand import DemandSpec


@dataclass(frozen=True)
class Instance:
    """A non-stationary lot-sizing instance over T periods.

    ``beta`` is the backlogged fraction of unmet demand: 1 means full
    backlogging, 0 pure lost sales.
    """

    T: int
    params: CostParams
    I0: int
    demand: tuple[DemandSpec, ...]
    beta: float = 1.0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("horizon must be at least one period")
        demand = tuple(self.demand)
        if len(demand) != self.T:
            raise ValueError(f"expected {self.T} demand specs, got {len(demand)}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "I0", int(self.I0))


@dataclass(frozen=True)
class PolicyReview:
    """One review moment: period, cycle length to the next review,
    reorder level and order-up-to level."""

    period: int
    cycle: int
    reorder: int
    order_up_to: int


@dataclass(frozen=True)
class Policy:
    """A full (R,s,S) policy: fixed review schedule with per-review levels.

    At a review with opening inventory i, an order up to ``order_up_to``
    is placed iff ``i < reorder``.
    """

    horizon: int
    reviews: tuple[PolicyReview, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        reviews = tuple(self.reviews)
        if not reviews:
            raise ValueError("a policy needs at least one review")
        if reviews[0].period != 1:
            raise ValueError("the first review must happen at period 1")
        t = 0
        for rv in reviews:
            if rv.period <= t:
                raise ValueError("review periods must be strictly increasing")
            if rv.period > self.horizon:
                raise ValueError(f"review period {rv.period} exceeds horizon {self.horizon}")
            if rv.cycle < 1:
                raise ValueError("cycle lengths must be positive")
            if rv.reorder > rv.order_up_to:
                raise ValueError("reorder level cannot exceed the order-up-to level")
            t = rv.period
        for cur, nxt in zip(reviews, reviews[1:]):
            if cur.period + cur.cycle != nxt.period:
                raise ValueError("cycle lengths must chain reviews contiguously")
        if reviews[-1].period + reviews[-1].cycle != self.horizon + 1:
            raise ValueError("the last cycle must end at the horizon")
        object.__setattr__(self, "reviews", reviews)

    @property
    def review_periods(self) -> tuple[int, ...]:
        return tuple(rv.period for rv in self.reviews)

    @property
    def n_reviews(self) -> int:
        return len(self.reviews)
