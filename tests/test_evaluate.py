"""Analytic policy cost, Monte-Carlo simulation, optimality gap."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    DemandPmf,
    DemandSpec,
    Instance,
    Policy,
    PolicyReview,
    SolveContext,
    expected_cost,
    extract_policy,
    gen_scalability,
    optimality_gap,
    policy_to_dict,
    save_instance,
    simulate,
    solve_kconvex,
    solve_lost_sales,
)
from rss_policy import demand, evaluate
from rss_policy.cli import main as cli_main
from rss_policy.evaluate import _BLOCK
from conftest import (
    allocates_at_most,
    demand_matrix_rollout,
    deterministic_instance,
    direct_cycle_cost,
    full_grid_expected_cost,
    overflow_instance,
    random_desk_instance,
)


def _policy(horizon, *reviews):
    return Policy(
        horizon=horizon,
        reviews=tuple(PolicyReview(*rv) for rv in reviews),
    )


def _alternate_draws(rng, horizon, n=4):
    """(instance, context, heuristic policy) for ``n`` desk draws: beta = 1
    on even draws and beta from {0, 0.5} on odd ones, which
    ``solve_lost_sales`` solves."""
    for k in range(n):
        inst = random_desk_instance(rng, horizon=horizon, partial_backlog=k % 2 == 1)
        ctx = SolveContext(inst)
        solve = solve_kconvex if inst.beta == 1.0 else solve_lost_sales
        yield inst, ctx, extract_policy(solve(inst, context=ctx), inst)


def _no_rollout(pmf):
    raise AssertionError("rolled out a policy the evaluator refuses")


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
        # the bumped instance was built field by field and lost beta
        for inst, ctx, policy in _alternate_draws(rng, horizon=4):
            base = expected_cost(inst, policy, context=ctx)
            bumped = dataclasses.replace(
                inst, params=dataclasses.replace(inst.params, W=inst.params.W + 13.0)
            )
            assert expected_cost(bumped, policy) == pytest.approx(
                base + 13.0 * policy.n_reviews, abs=1e-6
            )

    def test_refuses_a_cost_that_overflows(self, monkeypatch):
        # it returned inf, and simulate rolled out to a mean of inf and a
        # half-width of NaN; numpy's overflow warnings, raised as errors
        # here, stopped the context, the pricing and the rollout before
        # the library's own checks
        policy = _policy(2, (1, 1, 5, 5), (2, 1, 5, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = overflow_instance(1e307)
            analytic = expected_cost(fits, policy, context=SolveContext(fits))
            assert math.isfinite(analytic)
            # every path cost fits float64 and their sum does not: the mean
            # was refused as inf from 2 paths on, and is taken scaled now
            report = simulate(fits, policy, n_paths=10, seed=0)
            assert abs(report.mc_mean - analytic) <= 3 * report.mc_halfwidth_95
            inst = overflow_instance(1e308)
            with pytest.raises(ValueError, match="expected cost is inf: the costs overflow"):
                expected_cost(inst, policy)
            monkeypatch.setattr(DemandPmf, "sampler", _no_rollout)
            with pytest.raises(ValueError, match="the costs overflow"):
                simulate(inst, policy, n_paths=10, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_path_cost_that_overflows(self, monkeypatch):
        # at the largest demand (19) each period costs 14 * 1.2e307, which
        # fits float64, and the path's two periods together do not
        inst = overflow_instance(1.2e307)
        policy = _policy(2, (1, 1, 5, 5), (2, 1, 5, 5))
        largest = [SolveContext(inst).demand.period(t).max_value for t in (1, 2)]
        assert largest == [19, 19]
        assert math.isfinite(expected_cost(inst, policy))
        monkeypatch.setattr(DemandPmf, "sampler", lambda pmf: lambda u: np.full(u.shape, pmf.max_value))
        with pytest.raises(ValueError, match="Monte-Carlo mean is inf .*: the costs overflow"):
            simulate(inst, policy, n_paths=10, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_sums_that_overflow_are_taken_scaled(self):
        # the half-width of paths costing about 3.5e200 squared their
        # deviations past float64 and was refused as inf, from 2 paths on
        policy = _policy(2, (1, 1, 5, 5), (2, 1, 5, 5))
        low, high = (simulate(overflow_instance(hb), policy, 1000, seed=0) for hb in (1e100, 1e200))
        assert high.mc_mean / 1e200 == pytest.approx(low.mc_mean / 1e100, rel=1e-12)
        assert high.mc_halfwidth_95 / 1e200 == pytest.approx(low.mc_halfwidth_95 / 1e100, rel=1e-12)
        assert abs(high.mc_mean - high.expected_cost) <= 3 * high.mc_halfwidth_95

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


def _every_period(horizon, levels):
    """A review in every period, with the given (s, S) at each."""
    return _policy(horizon, *((t, 1, s, S) for t, (s, S) in enumerate(levels, 1)))


class TestWindow:
    """``expected_cost`` prices on the policy's window under full
    backlogging; its cost is bitwise the whole grid's."""

    def _check(self, rng, inst, policies):
        """Also from an I0 drawn above 0, mostly above some reorder level,
        where the window's floor is a reorder level less one."""
        ceiling = SolveContext(inst).grid.max_inv
        for start in (inst, dataclasses.replace(inst, I0=int(rng.integers(0, ceiling + 1)))):
            ctx, grid_ctx = SolveContext(start), SolveContext(start)
            for policy in policies:
                want = full_grid_expected_cost(grid_ctx, policy)
                assert expected_cost(start, policy, context=ctx).hex() == want.hex(), policy

    def _policies(self, rng, inst):
        """The heuristic's policy, and reviews in every period with levels
        drawn over the grid and near demand, reorder levels at and below
        the grid floor, and order-up-to levels at the ceiling."""
        ctx = SolveContext(inst)
        g, G, T = ctx.grid.min_inv, ctx.grid.max_inv, inst.T
        drawn = [tuple(sorted(rng.integers(g, G + 1, size=2).tolist())) for _ in range(T)]
        near = [tuple(sorted(rng.integers(-5, min(G, 40) + 1, size=2).tolist())) for _ in range(T)]
        return [
            extract_policy(solve_kconvex(inst, context=ctx), inst),
            _every_period(T, drawn),
            _every_period(T, near),
            _every_period(T, [(g, G)] * T),
            _every_period(T, [(g - 3, G)] * T),
            _every_period(T, [(g + 1, G)] + near[1:]),
            _every_period(T, [(s, G) for s, _ in near]),
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_draws_match_the_grid(self, seed):
        # I0 in [-M, M], Poisson and normal demand with cv up to 0.4, and
        # point masses on every other draw
        rng = np.random.default_rng(500 + seed)
        for k in range(6):
            inst = random_desk_instance(rng, point_masses=k % 2 == 1)
            self._check(rng, inst, self._policies(rng, inst))

    def test_long_normal_pmfs_match_the_grid(self, rng):
        for I0 in (-40, 0, 35):
            inst = Instance(
                T=5,
                params=CostParams(K=150.0, W=40.0, h=1.0, b=9.0),
                I0=I0,
                demand=tuple(DemandSpec("normal", m, 0.4) for m in (60.0, 30.0, 90.0, 20.0, 50.0)),
            )
            self._check(rng, inst, self._policies(rng, inst))


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
        for inst, _, policy in _alternate_draws(rng, horizon=3):
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

    def test_refuses_levels_above_grid_before_the_rollout(self, monkeypatch):
        # the grid check ran only after every path had been rolled out
        inst = deterministic_instance([3, 4], K=50, W=7, h=1, b=10)
        top = SolveContext(inst).grid.max_inv
        monkeypatch.setattr(DemandPmf, "sampler", _no_rollout)
        with pytest.raises(ValueError, match="above the inventory grid"):
            simulate(inst, _policy(2, (1, 2, top + 1, top + 1)), n_paths=10, seed=5)

    def test_rejects_zero_paths(self, rng):
        inst = random_desk_instance(rng, horizon=2)
        policy = extract_policy(solve_kconvex(inst), inst)
        with pytest.raises(ValueError):
            simulate(inst, policy, n_paths=0, seed=5)

    @pytest.mark.parametrize(
        "n_paths, seed", [(3.0, 5), (True, 5), (3, 1.5), (3, True)],
        ids=["float-paths", "bool-paths", "float-seed", "bool-seed"],
    )
    def test_refuses_arguments_that_are_not_integers(self, rng, n_paths, seed):
        # numpy's TypeError from inside the rollout, or, for seed=True, a
        # run as seed 1 that reported "seed: True"
        inst = random_desk_instance(rng, horizon=2)
        policy = extract_policy(solve_kconvex(inst), inst)
        with pytest.raises(ValueError, match="must be an integer"):
            simulate(inst, policy, n_paths=n_paths, seed=seed)

    def test_refuses_a_negative_seed_before_pricing(self, rng, monkeypatch):
        # numpy's default_rng raised "expected non-negative integer" after
        # the policy was priced and the rollout's memory checked
        inst = random_desk_instance(rng, horizon=2)
        policy = extract_policy(solve_kconvex(inst), inst)
        monkeypatch.setattr(evaluate, "expected_cost", _no_rollout)
        for seed in (-1, np.int64(-7)):
            with pytest.raises(ValueError, match="the seed must be an integer of at least 0"):
                simulate(inst, policy, n_paths=10, seed=seed)

    def test_accepts_numpy_integers(self, rng):
        inst = random_desk_instance(rng, horizon=2)
        policy = extract_policy(solve_kconvex(inst), inst)
        got = simulate(inst, policy, n_paths=np.int64(50), seed=np.uint32(5))
        assert got == simulate(inst, policy, n_paths=50, seed=5)

    def test_refuses_a_rollout_too_large_for_memory(self, monkeypatch, tmp_path, capsys):
        # the (n_paths, T) uniforms were drawn unchecked; with 5 MiB of
        # memory, 10^6 paths at T = 5 (an 8 MB cost vector) are refused
        # before they are drawn, and so is one path of Poisson(10^4)
        # demand, whose ``DemandPmf.sampler`` bucket table takes 13 MB to
        # build
        monkeypatch.setattr(demand, "physical_memory", lambda: 5 * 2**20)
        flat = deterministic_instance([10, 10, 10, 10, 10], K=50, W=7, h=1, b=10)
        wide = Instance(
            T=1,
            params=CostParams(K=50.0, W=5.0, h=1.0, b=10.0),
            I0=0,
            demand=(DemandSpec("poisson", 1e4),),
        )
        policies = {}
        for inst, n_paths in ((flat, 1_000_000), (wide, 1)):
            ctx = SolveContext(inst)
            policies[inst] = extract_policy(solve_kconvex(inst, context=ctx), inst)
            expected_cost(inst, policies[inst], context=ctx)  # builds the curves it reads
            with allocates_at_most(5 * 2**20):
                with pytest.raises(MemoryError, match=f"a rollout of {n_paths} paths"):
                    simulate(inst, policies[inst], n_paths, seed=0, context=ctx)
        path, policy_path = tmp_path / "inst.json", tmp_path / "policy.json"
        save_instance(flat, path)
        policy_path.write_text(json.dumps(policy_to_dict(policies[flat])))
        argv = ["evaluate", str(path), "--policy", str(policy_path), "--simulate", "1000000"]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: a rollout of 1000000 paths")
        assert err.count("\n") == 1

    def test_rolls_out_in_blocks_within_memory(self, monkeypatch):
        # with the whole (n_paths, T) matrix of uniforms the check asked
        # 8 (T + 5) bytes a path, 8 MB for 10^5 paths at T = 5, and refused
        # them under 5 MiB; the blocks keep the rollout and its check below
        monkeypatch.setattr(demand, "physical_memory", lambda: 5 * 2**20)
        flat = deterministic_instance([10, 10, 10, 10, 10], K=50, W=7, h=1, b=10)
        ctx = SolveContext(flat)
        policy = extract_policy(solve_kconvex(flat, context=ctx), flat)
        expected_cost(flat, policy, context=ctx)
        with allocates_at_most(5 * 2**20):
            report = simulate(flat, policy, 100_000, seed=0, context=ctx)
        assert report.n_paths == 100_000
        assert (report.mc_mean, report.mc_halfwidth_95) == demand_matrix_rollout(
            ctx, policy, 100_000, 0
        )

    def test_mean_consistent_with_analytic(self, rng):
        for inst, ctx, policy in _alternate_draws(rng, horizon=3):
            report = simulate(inst, policy, n_paths=40_000, seed=7, context=ctx)
            assert abs(report.mc_mean - report.expected_cost) <= 4 * report.mc_halfwidth_95

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_rollout_matches_demand_matrix_oracle(self, rng, beta):
        # per-period draws from one uniform matrix give bitwise the
        # estimate of sampling the whole demand matrix first; normal
        # demand at cv 0.4 has long pmfs, so many of the sampler's
        # buckets straddle a cdf step
        point_mass = deterministic_instance([6, 0, 9, 3, 4], K=20.0, W=5.0, b=8.0)
        normal = Instance(
            T=4,
            params=CostParams(K=150.0, W=40.0, h=1.0, b=9.0),
            I0=0,
            demand=tuple(DemandSpec("normal", m, 0.4) for m in (120.0, 300.0, 60.0, 210.0)),
        )
        for base in (random_desk_instance(rng, horizon=5), point_mass, normal):
            inst = Instance(T=base.T, params=base.params, I0=3, demand=base.demand, beta=beta)
            ctx = SolveContext(inst)
            policy = extract_policy(solve_lost_sales(inst, context=ctx), inst)
            for n_paths, seed in ((1, 4), (2_000, 11)):
                report = simulate(inst, policy, n_paths, seed, context=ctx)
                assert (report.mc_mean, report.mc_halfwidth_95) == demand_matrix_rollout(
                    ctx, policy, n_paths, seed
                )

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_blocks_keep_the_paths_draws(self, rng, beta):
        # a block boundary neither drops nor repeats a path's draws: one
        # path, a block short of one, one block, one path past it and two
        # blocks and three paths give the estimate of one matrix of draws
        base = random_desk_instance(rng, horizon=2)
        inst = Instance(T=2, params=base.params, I0=-4, demand=base.demand, beta=beta)
        ctx = SolveContext(inst)
        policy = extract_policy(solve_lost_sales(inst, context=ctx), inst)
        for n_paths in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
            report = simulate(inst, policy, n_paths, seed=n_paths, context=ctx)
            assert (report.mc_mean, report.mc_halfwidth_95) == demand_matrix_rollout(
                ctx, policy, n_paths, n_paths
            ), n_paths

    @pytest.mark.parametrize("rows", [7, 2 * _BLOCK + 3])
    def test_draw_buffer_keeps_the_paths_draws(self, rng, monkeypatch, rows):
        # a block's uniforms drawn 7 rows at a time, or all at once, give
        # the estimate of one matrix of draws
        monkeypatch.setattr("rss_policy.evaluate._ROWS", rows)
        inst = random_desk_instance(rng, horizon=4)
        ctx = SolveContext(inst)
        policy = extract_policy(solve_kconvex(inst, context=ctx), inst)
        for n_paths in (5, _BLOCK + 10):
            report = simulate(inst, policy, n_paths, seed=3, context=ctx)
            assert (report.mc_mean, report.mc_halfwidth_95) == demand_matrix_rollout(
                ctx, policy, n_paths, 3
            ), n_paths

    def test_long_horizons_roll_out_in_blocks_of_fewer_paths(self, monkeypatch):
        # at T = 100 a block holds 10 485 paths, not 2^14: its uniforms take
        # 8.4 MB, not 13.1 (a 13.1 MB traced peak, not 18.0), and the paths
        # keep their draws, so lifting the cap keeps every bit
        inst = gen_scalability(100, 1, seed=100)[0]
        ctx = SolveContext(inst)
        policy = extract_policy(solve_kconvex(inst, context=ctx), inst)
        expected_cost(inst, policy, context=ctx)
        with allocates_at_most(16 * 2**20):
            capped = simulate(inst, policy, 20_000, seed=5, context=ctx)
        monkeypatch.setattr("rss_policy.evaluate._BLOCK_DRAWS", 1 << 40)
        lifted = simulate(inst, policy, 20_000, seed=5, context=ctx)
        assert capped.mc_mean.hex() == lifted.mc_mean.hex()
        assert capped.mc_halfwidth_95.hex() == lifted.mc_halfwidth_95.hex()

    @pytest.mark.parametrize("seed", range(8))
    def test_partial_backlog_draws(self, seed):
        # the analytic price of the heuristic's policy is never below its
        # root cost, and the simulation agrees with it; point masses give
        # a half-width of 0, so the check allows rounding on top
        rng = np.random.default_rng(300 + seed)
        betas = set()
        for k in range(10):
            inst = random_desk_instance(
                rng, mean_range=(3.0, 12.0), point_masses=k % 2 == 0, partial_backlog=True
            )
            betas.add(inst.beta)
            ctx = SolveContext(inst)
            tables = solve_lost_sales(inst, context=ctx)
            root = tables.root_cost(inst.I0)
            report = simulate(inst, extract_policy(tables, inst), 2_000, seed, context=ctx)
            assert report.expected_cost >= root - 1e-8 * abs(root)
            slack = 3 * report.mc_halfwidth_95 + 1e-9 * abs(report.expected_cost)
            assert abs(report.mc_mean - report.expected_cost) <= slack
        assert betas == {0.0, 0.5}

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
