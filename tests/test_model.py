"""The input checks of instances and policies."""

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    DemandSpec,
    Instance,
    Policy,
    PolicyReview,
    ReviewSchedule,
    exact,
    model,
)


def _old_policy_checks(horizon, reviews):
    """The schedule checks ``Policy`` made by hand before it checked its
    reviews through ``ReviewSchedule``; they raise ``ValueError``."""
    if not reviews:
        raise ValueError("a policy needs at least one review")
    if reviews[0].period != 1:
        raise ValueError("the first review must happen at period 1")
    t = 0
    for rv in reviews:
        if rv.period <= t:
            raise ValueError("review periods must be strictly increasing")
        if rv.period > horizon:
            raise ValueError(f"review period {rv.period} exceeds horizon {horizon}")
        if rv.cycle < 1:
            raise ValueError("cycle lengths must be positive")
        if rv.reorder > rv.order_up_to:
            raise ValueError("reorder level cannot exceed the order-up-to level")
        t = rv.period
    for cur, nxt in zip(reviews, reviews[1:]):
        if cur.period + cur.cycle != nxt.period:
            raise ValueError("cycle lengths must chain reviews contiguously")
    if reviews[-1].period + reviews[-1].cycle != horizon + 1:
        raise ValueError("the last cycle must end at the horizon")


def _accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


def _random_reviews(rng):
    """A horizon and reviews: half of them a valid chain with perhaps one
    value moved by one, the rest drawn independently."""
    horizon = int(rng.integers(-1, 7))
    if rng.random() < 0.5:
        periods = [1] + [t for t in range(2, horizon + 1) if rng.random() < 0.4]
        ends = periods[1:] + [horizon + 1]
        reviews = []
        for t, end in zip(periods, ends):
            s = int(rng.integers(-5, 6))
            reviews.append([t, end - t, s, s + int(rng.integers(0, 4))])
        if rng.random() < 0.5:
            reviews[rng.integers(len(reviews))][rng.integers(4)] += int(rng.choice([-1, 1]))
        if rng.random() < 0.1:
            horizon += int(rng.choice([-1, 1]))
    else:
        reviews = [[int(v) for v in rng.integers(-1, 8, size=4)] for _ in range(rng.integers(4))]
    return horizon, tuple(PolicyReview(*rv) for rv in reviews)


class TestPolicyChecks:
    def test_accepts_exactly_what_the_hand_written_checks_accepted(self, rng):
        verdicts = []
        for _ in range(4000):
            horizon, reviews = _random_reviews(rng)
            old = _accepts(_old_policy_checks, horizon, reviews)
            assert _accepts(Policy, horizon, reviews) == old, (horizon, reviews)
            verdicts.append(old)
        assert 500 < sum(verdicts) < 3500  # both answers are well covered

    @pytest.mark.parametrize(
        "horizon, reviews",
        [
            (2.0, [(1, 2, 0, 5)]),
            (True, [(1, 1, 0, 5)]),
            (4, [(1, 2.5, 0, 5), (3.5, 1.5, 0, 5)]),  # a chain of fractions
            (2, [(1, 2, 2.5, 5)]),
            (2, [(1, 2, 0, 5.5)]),
            (2, [(1, 2, False, True)]),
        ],
        ids=["horizon-float", "horizon-bool", "cycle-fraction", "reorder-fraction",
             "order-up-to-fraction", "levels-bool"],
    )
    def test_refuses_values_that_are_not_integers(self, horizon, reviews):
        # each of these was accepted
        with pytest.raises(ValueError, match="must be integers"):
            Policy(horizon=horizon, reviews=tuple(PolicyReview(*rv) for rv in reviews))

    def test_accepts_numpy_integers(self):
        review = PolicyReview(np.int64(1), np.int64(3), np.int32(-2), np.int64(7))
        assert Policy(horizon=np.int64(3), reviews=(review,)).review_periods == (1,)

    def test_review_schedule_has_one_home(self):
        assert ReviewSchedule is model.ReviewSchedule is exact.ReviewSchedule


def _instance(**changes):
    fields = dict(T=2, params=CostParams(K=10.0, W=5.0, h=1.0, b=10.0), I0=0,
                  demand=(DemandSpec("poisson", 5.0),) * 2)
    fields.update(changes)
    return Instance(**fields)


class TestInstanceChecks:
    @pytest.mark.parametrize(
        "changes",
        [
            {"I0": 2.7},
            {"I0": 2.0},
            {"T": 2.0},
            {"T": True, "demand": (DemandSpec("poisson", 5.0),)},
        ],
        ids=["I0-fraction", "I0-float", "T-float", "T-bool"],
    )
    def test_refuses_values_that_are_not_integers(self, changes):
        # I0 = 2.7 was priced at 2, and T = 2.0 failed inside the sweep
        with pytest.raises(ValueError, match="must be integers"):
            _instance(**changes)

    def test_stores_numpy_integers_as_ints(self):
        inst = _instance(T=np.int64(2), I0=np.int32(-3))
        assert (inst.T, inst.I0) == (2, -3) and type(inst.T) is type(inst.I0) is int

    @pytest.mark.parametrize("label", [5, b"cell", ("a",)])
    def test_refuses_a_label_that_is_not_a_string(self, label):
        with pytest.raises(ValueError, match="label must be a string"):
            _instance(label=label)
