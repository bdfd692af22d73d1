"""Cycle-cost engine: boundaries, memoisation transparency, structure."""

import dataclasses

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    CycleCostEngine,
    DemandSpec,
    Instance,
    SolveContext,
    expected_cost,
    extract_policy,
    gen_scalability,
    solve_kconvex,
    solve_lost_sales,
)
from conftest import (
    deterministic_instance,
    direct_cycle_cost,
    level_recursion_hp,
    path_sum_cycle_cost,
    path_sum_policy_cost,
    random_desk_instance,
)


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

    def test_curves_refuse_partial_backlog(self):
        # the curves are full-backlog quantities; below beta = 1 the engine
        # prices cycles by backlog_step on its shallower floors
        inst = dataclasses.replace(self._ctx().instance, beta=0.5)
        with pytest.raises(ValueError, match="full backlogging"):
            SolveContext(inst).engine.cycle_hp_fn(1, 2)

    @pytest.mark.parametrize(
        "beta, floors",
        [(1.0, [-14, -17, -21]), (0.9, [-14, -15, -17]), (0.5, [-14] * 3), (0.0, [-14] * 3)],
    )
    def test_floors_follow_the_backlogged_fraction(self, beta, floors):
        # grid [-14, 14], demands 3, 4, 5: floor_{u+1} = min(-14,
        # round(beta (floor_u - d_u))); the one-period costs reach
        # min_u(floor_u - d_u)
        inst = dataclasses.replace(self._ctx().instance, beta=beta)
        eng = SolveContext(inst).engine
        assert eng._floors == floors
        lowest = min(f - d for f, d in zip(floors, (3, 4, 5)))
        assert eng._one_period.shape == (14 - lowest + 1,)

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


def _all_cycles(T):
    return [(t, r) for t in range(1, T + 1) for r in range(1, T - t + 2)]


def _count_convolutions(monkeypatch):
    calls = []
    convolve = np.convolve

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return convolve(*args, **kwargs)

    monkeypatch.setattr(np, "convolve", counting)
    return calls


class TestCurveRecursion:
    """The memoised curve recursion against the level recursion it replaced."""

    def _assert_bitwise(self, inst, rng):
        # every read, whatever the reads before it grew, is the recursion on
        # its span: on one context the whole grid, deepest first (the
        # engine's own build order) and then the reverse; on fresh ones a
        # random window and then the grid, in both orders
        ref = SolveContext(inst)
        grid = ref.grid
        want = {(t, r): level_recursion_hp(ref, t, r) for t, r in _all_cycles(inst.T)}
        ctx = SolveContext(inst)
        for t, r in _all_cycles(inst.T) + _all_cycles(inst.T)[::-1]:
            hp = ctx.engine.cycle_hp_fn(t, r)(grid.levels())
            assert np.array_equal(hp, want[(t, r)]), (t, r)
        for cycles in (_all_cycles(inst.T), _all_cycles(inst.T)[::-1]):
            ctx = SolveContext(inst)
            for t, r in cycles:
                lo, hi = sorted(int(y) for y in rng.integers(grid.min_inv, grid.max_inv + 1, 2))
                span = want[(t, r)][lo - grid.min_inv : hi - grid.min_inv + 1]
                hp = ctx.engine.cycle_hp_fn(t, r)
                assert np.array_equal(hp(range(lo, hi + 1)), span), (t, r, lo, hi)
                assert np.array_equal(hp(grid.levels()), want[(t, r)]), (t, r)

    def test_random_instances(self, rng):
        for _ in range(8):
            self._assert_bitwise(random_desk_instance(rng), rng)

    def test_point_mass_demand(self, rng):
        # positive offsets: the valid convolution runs past the grid ceiling
        self._assert_bitwise(deterministic_instance([3, 0, 7, 5], K=50, W=10, h=1, b=10), rng)

    def test_zero_demand(self, rng):
        self._assert_bitwise(deterministic_instance([0, 0, 0], K=50, W=0, h=1, b=10, I0=10), rng)

    def test_single_period(self, rng):
        self._assert_bitwise(random_desk_instance(rng, horizon=1), rng)

    def test_nonzero_opening_inventory(self, rng):
        # I0 below the demand's grid floor widens the grid's floor alone
        demand = tuple(DemandSpec("poisson", m) for m in (4.0, 9.0, 2.0, 6.0))
        inst = Instance(T=4, params=CostParams(K=20.0, W=5.0, h=1.0, b=5.0), I0=-60, demand=demand)
        grid = SolveContext(inst).grid
        assert grid.min_inv == -60 < -grid.max_inv
        self._assert_bitwise(inst, rng)

    def test_free_orders_and_reviews(self, rng):
        demand = tuple(DemandSpec("poisson", m) for m in (4.0, 9.0, 2.0, 6.0))
        params = CostParams(K=0.0, W=0.0, h=1.0, b=5.0)
        self._assert_bitwise(Instance(T=4, params=params, I0=0, demand=demand), rng)


class TestConvolvesOnce:
    def test_each_curve_is_convolved_once_per_context(self, rng, monkeypatch):
        inst = random_desk_instance(rng, horizon=6)
        cycles = _all_cycles(inst.T)
        ctx = SolveContext(inst)
        calls = _count_convolutions(monkeypatch)
        for k in rng.permutation(len(cycles)):
            ctx.engine.cycle_hp_fn(*cycles[k])(ctx.grid.levels())
        assert len(calls) == len(cycles)
        # a repeated query only reads the memo
        for t, r in cycles:
            ctx.engine.cycle_hp_fn(t, r)(ctx.grid.levels())
        assert len(calls) == len(cycles)
        # a long cycle builds its whole chain at once, one convolution each
        ctx = SolveContext(inst)
        calls.clear()
        ctx.engine.cycle_hp_fn(1, inst.T)(ctx.grid.levels())
        assert len(calls) == inst.T

    def test_solve_then_price_convolves_each_value_once(self, monkeypatch):
        # the sweep reads its window and reads up where hp falls; pricing the
        # policy reads its own window, here inside what the sweep read, and
        # grows nothing; reading the policy's cycles on the grid grows their
        # curves at both ends
        inst = gen_scalability(20, 1, seed=20)[0]
        ctx = SolveContext(inst)
        lengths = []
        step = CycleCostEngine.step

        def recording(engine, *args):
            out = step(engine, *args)
            lengths.append(out.shape[0])
            return out

        monkeypatch.setattr(CycleCostEngine, "step", recording)
        tables = solve_kconvex(inst, context=ctx)
        assert tables.grid != ctx.grid
        in_sweep = len(lengths)
        policy = extract_policy(tables, inst)
        expected_cost(inst, policy, context=ctx)
        assert len(lengths) == in_sweep  # the pricing grew no curve
        for rv in policy.reviews:
            ctx.engine.cycle_hp_fn(rv.period, rv.cycle)(ctx.grid.levels())
        assert len(lengths) > in_sweep  # the grid reads grew curves
        assert len(lengths) > len(ctx.engine._curves)  # some curve grew by pieces
        assert sum(lengths) == ctx.engine.stored_states

    def test_partial_backlog_steps_once_per_period_and_review(self, monkeypatch):
        inst = dataclasses.replace(gen_scalability(10, 1, seed=10)[0], beta=0.5)
        ctx = SolveContext(inst)
        calls = _count_convolutions(monkeypatch)
        tables = solve_lost_sales(inst, context=ctx)
        # one step per period and next review: T(T+1)/2, where building
        # every cycle's curve on its own takes T(T+1)(T+2)/6 = 220
        assert len(calls) == 55
        calls.clear()
        expected_cost(inst, extract_policy(tables, inst), context=ctx)
        assert len(calls) == inst.T  # one step per period of the policy's cycles


class TestPartialBacklogPaths:
    """Partial-backlog cycle curves and policy costs against direct
    summation over demand paths, on tiny pmfs (T = 3, so r <= 3)."""

    def _contexts(self, beta):
        params = CostParams(K=30.0, W=8.0, h=1.0, b=6.0)
        demands = [
            tuple(DemandSpec("poisson", m) for m in (1.5, 0.8, 1.2)),
            tuple(DemandSpec("normal", m, 0.4) for m in (2.0, 1.0, 2.5)),
        ]
        for demand, I0 in zip(demands, (0, -4)):
            inst = Instance(T=3, params=params, I0=I0, demand=demand, beta=beta)
            yield SolveContext(inst)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    def test_cycle_curves_match_path_sums(self, rng, beta):
        below_grid = False
        for ctx in self._contexts(beta):
            assert max(len(ctx.demand.period(u)) for u in (1, 2, 3)) <= 11
            grid = ctx.grid
            for t, r in _all_cycles(3):
                future = rng.uniform(0.0, 100.0, grid.size)
                want = [path_sum_cycle_cost(ctx, t, r, y, future) for y in grid.levels()]
                got = ctx.engine.cycle_curve(t, r, future)
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=str((t, r)))
            below_grid |= min(ctx.engine._floors) < grid.min_inv
        # near-full backlogging drives next-review states below the grid floor
        assert below_grid == (beta == 0.9)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    def test_lost_sales_policy_cost_matches_path_sums(self, beta):
        for ctx in self._contexts(beta):
            inst = ctx.instance
            policy = extract_policy(solve_lost_sales(inst, context=ctx), inst)
            want = path_sum_policy_cost(ctx, policy)
            assert expected_cost(inst, policy, context=ctx) == pytest.approx(want, rel=1e-9)
