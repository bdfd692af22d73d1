"""Problem instances and (R,s,S) policies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .costs import CostParams
from .demand import DemandSpec, is_integer


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
        if not (is_integer(self.T) and is_integer(self.I0)):
            raise ValueError(f"T and I0 must be integers, not {self.T!r} and {self.I0!r}")
        if self.T < 1:
            raise ValueError("horizon must be at least one period")
        demand = tuple(self.demand)
        if len(demand) != self.T:
            raise ValueError(f"expected {self.T} demand specs, got {len(demand)}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not isinstance(self.label, (str, type(None))):
            raise ValueError(f"label must be a string, not {self.label!r}")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "I0", int(self.I0))


@dataclass(frozen=True)
class ReviewSchedule:
    """An ordered set of review periods starting at period 1, given as
    integers (booleans are refused)."""

    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(map(is_integer, self.periods)):
            raise ValueError(f"review periods must be integers, not {self.periods!r}")
        periods = tuple(int(t) for t in self.periods)
        if not periods or periods[0] != 1:
            raise ValueError("a schedule must start with a review at period 1")
        if any(b <= a for a, b in zip(periods, periods[1:])):
            raise ValueError("review periods must be strictly increasing")
        object.__setattr__(self, "periods", periods)

    def cycles(self, horizon: int) -> tuple[int, ...]:
        """Cycle lengths; they sum to the horizon."""
        if self.periods[-1] > horizon:
            raise ValueError("schedule extends past the horizon")
        ends = self.periods[1:] + (horizon + 1,)
        return tuple(e - s for s, e in zip(self.periods, ends))

    @property
    def n_reviews(self) -> int:
        return len(self.periods)


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
        values = [v for rv in reviews for v in (rv.cycle, rv.reorder, rv.order_up_to)]
        if not all(map(is_integer, [self.horizon] + values)):
            raise ValueError("the horizon, cycles and levels must be integers")
        schedule = ReviewSchedule(tuple(rv.period for rv in reviews))
        if schedule.cycles(self.horizon) != tuple(rv.cycle for rv in reviews):
            raise ValueError("cycle lengths must chain the reviews to the end of the horizon")
        if any(rv.reorder > rv.order_up_to for rv in reviews):
            raise ValueError("reorder level cannot exceed the order-up-to level")
        object.__setattr__(self, "reviews", reviews)

    @property
    def review_periods(self) -> tuple[int, ...]:
        return tuple(rv.period for rv in self.reviews)

    @property
    def n_reviews(self) -> int:
        return len(self.reviews)
