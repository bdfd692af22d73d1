"""Cycle-cost engine: boundaries, memoisation transparency, structure."""

import numpy as np
import pytest

from rss_policy import SolveContext
from conftest import deterministic_instance, direct_cycle_cost, random_desk_instance


def _hp(x, params):
    return params.h * np.maximum(x, 0) + params.b * np.maximum(-x, 0)


class TestBoundaries:
    def _ctx(self):
        inst = deterministic_instance([3, 4, 5], K=50, W=10, h=1, b=10)
        return SolveContext(inst)

    def test_deterministic_two_period_tail(self):
        # with point-mass demand the recursion telescopes into plain sums
        ctx = self._ctx()
        ys = ctx.grid.levels()
        expected = _hp(ys - 3, ctx.params) + _hp(ys - 3 - 4, ctx.params)
        np.testing.assert_allclose(ctx.engine.cycle_hp_fn(1, 2)(ys), expected, atol=1e-12)

    def test_rejects_cycle_past_horizon(self):
        eng = self._ctx().engine
        for t, r in [(2, 3), (3, 2), (1, 0), (2, 0), (4, 1), (0, 1)]:
            with pytest.raises(ValueError):
                eng.cycle_hp_fn(t, r)

    def test_zero_demand_holding_accumulates(self):
        inst = deterministic_instance([0, 0, 0], K=50, W=0, h=1, b=10, I0=10)
        hp = SolveContext(inst).engine.cycle_hp_fn(1, 3)
        assert hp(np.array([10]))[0] == pytest.approx(30.0)


class TestMemoisationTransparency:
    def test_matches_direct_summation(self, rng):
        for _ in range(12):
            ctx = SolveContext(random_desk_instance(rng))
            T = ctx.instance.T
            grid = ctx.grid
            for _ in range(6):
                t = int(rng.integers(1, T + 1))
                r = int(rng.integers(1, T - t + 2))
                curve = ctx.engine.cycle_hp_fn(t, r)(grid.levels())
                ys = [grid.min_inv, grid.max_inv, *rng.integers(grid.min_inv, grid.max_inv, 5)]
                for y in ys:
                    want = direct_cycle_cost(ctx, t, int(y), 0, r) - ctx.params.W
                    assert curve[y - grid.min_inv] == pytest.approx(want, abs=1e-8)


class TestStructure:
    def test_convex_in_inventory(self, rng):
        ctx = SolveContext(random_desk_instance(rng, horizon=4))
        for t in range(1, 5):
            for r in range(1, 4 - t + 2):
                vals = ctx.engine.cycle_hp_fn(t, r)(ctx.grid.levels())
                second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
                assert second_diff.min() >= -1e-9

    def test_cache_idempotent_and_bounded(self, rng):
        ctx = SolveContext(random_desk_instance(rng, horizon=5))
        eng = ctx.engine
        ys = ctx.grid.levels()
        first = eng.cycle_hp_fn(2, 3)(ys)
        stored = eng.stored_states
        assert np.array_equal(eng.cycle_hp_fn(2, 3)(ys), first)
        assert eng.stored_states == stored
        total_dmax = sum(ctx.demand.period(t).max_value for t in range(1, 6))
        x_range = ctx.grid.size + total_dmax
        assert eng.stored_states <= (ctx.instance.T + 1) ** 2 * x_range
