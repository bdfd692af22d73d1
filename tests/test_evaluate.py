"""Analytic policy cost, Monte-Carlo simulation, optimality gap."""

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    DemandSpec,
    Instance,
    Policy,
    PolicyReview,
    SolveContext,
    expected_cost,
    extract_policy,
    optimality_gap,
    simulate,
    solve_kconvex,
    solve_lost_sales,
)
from conftest import (
    demand_matrix_rollout,
    deterministic_instance,
    direct_cycle_cost,
    random_desk_instance,
)


def _policy(horizon, *reviews):
    return Policy(
        horizon=horizon,
        reviews=tuple(PolicyReview(*rv) for rv in reviews),
    )


class TestExpectedCost:
    def test_zero_demand_reviews_and_holding(self):
        inst = Instance(
            T=3,
            params=CostParams(K=50.0, W=7.0, h=1.0, b=10.0),
            I0=4,
            demand=tuple(DemandSpec("poisson", 0.0) for _ in range(3)),
        )
        # two reviews, I0 above both reorder levels: 2 W + holding 4 x 3
        policy = _policy(3, (1, 2, 0, 4), (3, 1, 0, 4))
        assert expected_cost(inst, policy) == pytest.approx(2 * 7.0 + 3 * 4.0)

    def test_review_cost_shifts_linearly(self, rng):
        inst = random_desk_instance(rng, horizon=4)
        policy = extract_policy(solve_kconvex(inst), inst)
        base = expected_cost(inst, policy)
        p = inst.params
        bumped = Instance(
            T=inst.T,
            params=CostParams(K=p.K, W=p.W + 13.0, h=p.h, b=p.b),
            I0=inst.I0,
            demand=inst.demand,
        )
        assert expected_cost(bumped, policy) == pytest.approx(
            base + 13.0 * policy.n_reviews, abs=1e-6
        )

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_partial_backlog_matches_solver_and_simulation(self, beta):
        # charged as full backlog, beta = 0 evaluated to 680 against 230
        inst = Instance(
            T=6,
            params=CostParams(K=200.0, W=50.0, h=2.0, b=1.5),
            I0=0,
            demand=tuple(DemandSpec("poisson", 20.0) for _ in range(6)),
            beta=beta,
        )
        ctx = SolveContext(inst)
        tables = solve_lost_sales(inst, context=ctx)
        policy = extract_policy(tables, inst)
        report = simulate(inst, policy, n_paths=20_000, seed=1, context=ctx)
        assert report.expected_cost == pytest.approx(tables.value(1, 0), abs=1e-6)
        assert abs(report.mc_mean - report.expected_cost) <= report.mc_halfwidth_95
        # reviews every other period, each ordering in most paths
        policy = _policy(6, (1, 2, 10, 45), (3, 2, 10, 45), (5, 2, 10, 45))
        report = simulate(inst, policy, n_paths=20_000, seed=2, context=ctx)
        assert abs(report.mc_mean - report.expected_cost) <= report.mc_halfwidth_95

    def test_refuses_levels_above_grid(self):
        # clamped to the ceiling, an order-up-to level above it priced
        # another policy (100.00002 for S = 30 and for S = 34, where
        # simulate gives 102.03 and 110.03), so such policies are refused
        inst = Instance(
            T=2,
            params=CostParams(K=50.0, W=7.0, h=1.0, b=10.0),
            I0=0,
            demand=(DemandSpec("poisson", 5.0), DemandSpec("poisson", 5.0)),
        )
        ctx = SolveContext(inst)
        top = ctx.grid.max_inv
        assert top == 29
        for s, S in ((top + 1, top + 1), (top + 5, top + 5), (10, top + 1)):
            for policy in (_policy(2, (1, 2, s, S)), _policy(2, (1, 1, 0, 5), (2, 1, s, S))):
                with pytest.raises(ValueError, match="above the inventory grid"):
                    expected_cost(inst, policy, context=ctx)
        # the highest representable policy orders up to the ceiling
        policy = _policy(2, (1, 2, top, top))
        cost = expected_cost(inst, policy, context=ctx)
        assert cost == pytest.approx(direct_cycle_cost(ctx, 1, 0, top, 2), abs=1e-9)
        report = simulate(inst, policy, n_paths=20_000, seed=5, context=ctx)
        assert abs(report.mc_mean - cost) <= 3 * report.mc_halfwidth_95

    def test_rejects_horizon_mismatch(self, rng):
        inst = random_desk_instance(rng, horizon=3)
        policy = _policy(4, (1, 4, 0, 10))
        with pytest.raises(ValueError):
            expected_cost(inst, policy)


class TestPolicyValidation:
    def test_rejects_review_past_horizon(self):
        with pytest.raises(ValueError):
            _policy(3, (1, 3, 0, 5), (4, 1, 0, 5))

    def test_rejects_gap_mismatch(self):
        with pytest.raises(ValueError):
            _policy(4, (1, 2, 0, 5), (4, 1, 0, 5))

    def test_rejects_reorder_above_order_up_to(self):
        with pytest.raises(ValueError):
            _policy(2, (1, 2, 9, 5))

    def test_rejects_missing_first_review(self):
        with pytest.raises(ValueError):
            _policy(2, (2, 1, 0, 5))


class TestSimulate:
    def test_deterministic_demand_zero_halfwidth(self):
        inst = deterministic_instance([10, 5], K=40, W=5, h=1, b=50)
        policy = extract_policy(solve_kconvex(inst), inst)
        report = simulate(inst, policy, n_paths=10, seed=3)
        assert report.mc_halfwidth_95 == 0.0
        assert report.mc_mean == report.expected_cost

    def test_seeded_reproducibility(self, rng):
        inst = random_desk_instance(rng, horizon=3)
        policy = extract_policy(solve_kconvex(inst), inst)
        a = simulate(inst, policy, n_paths=500, seed=11)
        b = simulate(inst, policy, n_paths=500, seed=11)
        c = simulate(inst, policy, n_paths=500, seed=12)
        assert a.mc_mean == b.mc_mean
        assert a.mc_mean != c.mc_mean

    def test_single_path(self, rng):
        inst = random_desk_instance(rng, horizon=2)
        policy = extract_policy(solve_kconvex(inst), inst)
        report = simulate(inst, policy, n_paths=1, seed=5)
        assert report.mc_halfwidth_95 == 0.0
        assert report.n_paths == 1

    def test_rejects_zero_paths(self, rng):
        inst = random_desk_instance(rng, horizon=2)
        policy = extract_policy(solve_kconvex(inst), inst)
        with pytest.raises(ValueError):
            simulate(inst, policy, n_paths=0, seed=5)

    def test_mean_consistent_with_analytic(self, rng):
        inst = random_desk_instance(rng, horizon=3)
        ctx = SolveContext(inst)
        policy = extract_policy(solve_kconvex(inst, context=ctx), inst)
        report = simulate(inst, policy, n_paths=40_000, seed=7, context=ctx)
        assert abs(report.mc_mean - report.expected_cost) <= 4 * report.mc_halfwidth_95

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_rollout_matches_demand_matrix_oracle(self, rng, beta):
        # per-period draws from one uniform matrix give bitwise the
        # estimate of sampling the whole demand matrix first
        point_mass = deterministic_instance([6, 0, 9, 3, 4], K=20.0, W=5.0, b=8.0)
        for base in (random_desk_instance(rng, horizon=5), point_mass):
            inst = Instance(T=base.T, params=base.params, I0=3, demand=base.demand, beta=beta)
            ctx = SolveContext(inst)
            policy = extract_policy(solve_lost_sales(inst, context=ctx), inst)
            for n_paths, seed in ((1, 4), (2_000, 11)):
                report = simulate(inst, policy, n_paths, seed, context=ctx)
                assert (report.mc_mean, report.mc_halfwidth_95) == demand_matrix_rollout(
                    ctx, policy, n_paths, seed
                )

    def test_partial_backlog_paths_truncate(self):
        # no orders, full shortage: beta=0.5 halves the carried backlog,
        # so the second-period penalty halves relative to full backlog
        params = CostParams(K=1e9, W=0.0, h=0.0, b=1.0)
        demand = (DemandSpec("normal", 10.0, 0.0), DemandSpec("normal", 0.0, 0.0))
        policy = _policy(2, (1, 2, -100, -100))
        full = Instance(T=2, params=params, I0=0, demand=demand, beta=1.0)
        half = Instance(T=2, params=params, I0=0, demand=demand, beta=0.5)
        assert simulate(full, policy, 4, seed=1).mc_mean == pytest.approx(20.0)
        assert simulate(half, policy, 4, seed=1).mc_mean == pytest.approx(15.0)


class TestOptimalityGap:
    def test_equal_costs(self):
        assert optimality_gap(100.0, 100.0) == 0.0

    def test_reference_ratio(self):
        assert optimality_gap(1845.0, 1793.0) == pytest.approx(0.029, abs=5e-4)

    def test_linear_in_excess(self):
        eps = 0.75
        assert optimality_gap(200.0 + eps, 200.0) == pytest.approx(eps / 200.0)

    def test_rejects_nonpositive_optimum(self):
        with pytest.raises(ValueError):
            optimality_gap(10.0, 0.0)
        with pytest.raises(ValueError):
            optimality_gap(10.0, -5.0)

    def test_flags_oracle_violation(self):
        with pytest.raises(ValueError, match="beats"):
            optimality_gap(99.0, 100.0)
