"""Exact baseline: fixed-schedule solves and exhaustive enumeration."""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    DemandSpec,
    HorizonCapError,
    Instance,
    ReviewSchedule,
    SolveContext,
    enumerate_optimal,
    expected_cost,
    optimality_gap,
    scarf_fixed_R,
    solve_kconvex,
)
from rss_policy.cli import main as cli_main
from conftest import (
    all_schedules,
    brute_force_every_period,
    deterministic_instance,
    enumeration_oracle,
    random_desk_instance,
)


class TestReviewSchedule:
    def test_cycles_partition_horizon(self):
        sched = ReviewSchedule((1, 4, 8))
        assert sched.cycles(10) == (3, 4, 3)

    def test_rejects_missing_first_review(self):
        with pytest.raises(ValueError):
            ReviewSchedule((2, 5))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ReviewSchedule((1, 5, 3))

    def test_enumeration_counts(self):
        assert len(all_schedules(1)) == 1
        assert len(all_schedules(4)) == 8
        assert len({s.periods for s in all_schedules(6)}) == 32

    def test_enumeration_is_lexicographic(self):
        periods = [s.periods for s in all_schedules(3)]
        assert periods == [(1,), (1, 2), (1, 2, 3), (1, 3)]


class TestScarfFixedSchedule:
    def test_two_period_deterministic_costs(self):
        # chosen so splitting the order beats one big order:
        # {1}: K + W + 10h = 17; {1,2}: K + 2W + ... vs 2K + 2W = 14
        inst = deterministic_instance([10, 10], K=5, W=2, h=1, b=100)
        ctx = SolveContext(inst)
        one = scarf_fixed_R(inst, ReviewSchedule((1,)), context=ctx)
        two = scarf_fixed_R(inst, ReviewSchedule((1, 2)), context=ctx)
        assert one.cost == pytest.approx(5 + 2 + 10)
        assert two.cost == pytest.approx(2 * 5 + 2 * 2)
        assert expected_cost(inst, one.policy, context=ctx) == pytest.approx(one.cost, abs=1e-9)
        assert expected_cost(inst, two.policy, context=ctx) == pytest.approx(two.cost, abs=1e-9)

    def test_zero_demand_costs_only_reviews(self):
        inst = Instance(
            T=4,
            params=CostParams(K=1e9, W=7.0, h=1.0, b=1.0),
            I0=0,
            demand=tuple(DemandSpec("poisson", 0.0) for _ in range(4)),
        )
        ctx = SolveContext(inst)
        for sched in all_schedules(4):
            res = scarf_fixed_R(inst, sched, context=ctx)
            assert res.cost == pytest.approx(7.0 * sched.n_reviews)

    def test_every_period_schedule_matches_brute_force(self, rng):
        # unrestricted ordering with zero review cost: the classic
        # threshold-policy optimum, checked against naive value iteration
        for _ in range(4):
            T = int(rng.integers(2, 4))
            inst = Instance(
                T=T,
                params=CostParams(
                    K=float(rng.uniform(2.0, 15.0)), W=0.0, h=1.0, b=float(rng.uniform(4, 16))
                ),
                I0=0,
                demand=tuple(
                    DemandSpec("poisson", float(m)) for m in rng.uniform(0.5, 1.5, T)
                ),
            )
            ctx = SolveContext(inst)
            res = scarf_fixed_R(inst, ReviewSchedule(tuple(range(1, T + 1))), context=ctx)
            oracle = brute_force_every_period(ctx)
            np.testing.assert_allclose(res.tables.cost_to_go[1], oracle, atol=1e-9)


def _assert_matches_oracle(inst):
    ctx = SolveContext(inst)
    res = enumerate_optimal(inst, context=ctx)
    cost, schedule, count = enumeration_oracle(ctx)
    assert res.cost == cost  # bitwise
    assert res.schedule == schedule
    assert res.n_schedules == count == 2 ** (inst.T - 1)


def _poisson_instance(means, K, W, h, b):
    return Instance(
        T=len(means),
        params=CostParams(K=K, W=W, h=h, b=b),
        I0=0,
        demand=tuple(DemandSpec("poisson", float(m)) for m in means),
    )


_MEANS = (5.0, 12.0, 8.0, 15.0, 6.0, 10.0)

# instances on which many schedules cost the same or nearly the same
_TIE_PRONE = {
    "zero_demand_free_reviews": lambda: _poisson_instance([0.0] * 5, K=50.0, W=0.0, h=1.0, b=1.0),
    "zero_demand": lambda: _poisson_instance([0.0] * 5, K=50.0, W=7.0, h=1.0, b=1.0),
    "deterministic": lambda: deterministic_instance([10] * 6, K=20.0, W=5.0, h=1.0, b=10.0),
    "stationary_poisson": lambda: _poisson_instance([10.0] * 7, K=100.0, W=50.0, h=1.0, b=10.0),
    "K0": lambda: _poisson_instance(_MEANS, K=0.0, W=30.0, h=1.0, b=8.0),
    "h0": lambda: _poisson_instance(_MEANS, K=100.0, W=30.0, h=0.0, b=8.0),
}


class TestEnumerateOptimal:
    def test_single_period(self):
        inst = deterministic_instance([5], K=10, W=2, h=1, b=100)
        res = enumerate_optimal(inst)
        assert res.schedule.periods == (1,)
        assert res.n_schedules == 1

    def test_counts_all_compositions(self, rng):
        inst = random_desk_instance(rng, horizon=4)
        assert enumerate_optimal(inst).n_schedules == 8

    def test_minimum_over_all_schedules(self, rng):
        inst = random_desk_instance(rng, horizon=4)
        ctx = SolveContext(inst)
        res = enumerate_optimal(inst, context=ctx)
        for sched in all_schedules(4):
            single = scarf_fixed_R(inst, sched, context=ctx)
            assert res.cost <= single.cost + 1e-9
            if sched.periods == res.schedule.periods:
                assert single.cost == pytest.approx(res.cost, abs=1e-9)

    def test_never_beaten_by_heuristic(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng)
            ctx = SolveContext(inst)
            heur = solve_kconvex(inst, context=ctx).value(1, 0)
            opt = enumerate_optimal(inst, context=ctx).cost
            assert optimality_gap(heur, opt) >= -1e-8

    def test_frees_its_tables_on_return(self, rng):
        # with the cyclic collector off, the suffix tables must go by
        # reference counting alone
        inst = random_desk_instance(rng, horizon=9)
        ctx = SolveContext(inst)
        solve_kconvex(inst, context=ctx)  # builds every level and pmf the enumeration uses
        memo = 2 ** (inst.T - 1) * 8 * ctx.grid.size  # one table per schedule suffix
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            enumerate_optimal(inst, context=ctx)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < memo / 4

    def test_holds_few_tables(self, rng):
        # only the tables on the search's current path stay alive: a few
        # per period, against one per schedule suffix (2^T - 1) if memoised
        inst = random_desk_instance(rng, horizon=12)
        ctx = SolveContext(inst)
        enumerate_optimal(inst, context=ctx)  # builds every level and pmf
        tracemalloc.start()
        try:
            enumerate_optimal(inst, context=ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * inst.T * ctx.grid.size * 8

    def test_matches_oracle_on_random_instances(self, rng):
        for T in (2, 3, 5, 6, 7, 8):
            _assert_matches_oracle(random_desk_instance(rng, horizon=T))

    @pytest.mark.parametrize("name", sorted(_TIE_PRONE))
    def test_matches_oracle_on_tie_prone_instances(self, name):
        _assert_matches_oracle(_TIE_PRONE[name]())

    def test_rejects_above_cap(self, rng):
        inst = random_desk_instance(rng, horizon=5)
        with pytest.raises(HorizonCapError, match="heuristic"):
            enumerate_optimal(inst, cap=4)

    def test_deterministic_tie_break(self):
        # zero demand and prohibitive K: every schedule with the same
        # review count ties; the lexicographically earliest must win
        inst = Instance(
            T=3,
            params=CostParams(K=1e9, W=0.0, h=1.0, b=1.0),
            I0=0,
            demand=tuple(DemandSpec("poisson", 0.0) for _ in range(3)),
        )
        res = enumerate_optimal(inst)
        assert res.schedule.periods == (1,)
        assert res.cost == pytest.approx(0.0)


class TestBenchmarkExactCap:
    def test_exact_solver_refuses_above_cap(self, tmp_path, capsys):
        # --exact-cap only gated the oracle; the exact solver kept the default cap
        argv = ["benchmark", "scalability", "--t-min", "4", "--t-max", "4", "--n", "1",
                "--solvers", "exact", "--exact-cap", "3", "--out", str(tmp_path / "b")]
        assert cli_main(argv) == 3
        assert "T <= 3" in capsys.readouterr().err

    def test_oracle_and_exact_solver_get_the_cap(self, tmp_path, monkeypatch):
        import rss_policy.cli as cli

        caps = []

        def recording(instance, *, cap, context):
            caps.append(cap)
            return enumerate_optimal(instance, cap=cap, context=context)

        monkeypatch.setattr(cli, "enumerate_optimal", recording)
        argv = ["benchmark", "scalability", "--t-min", "4", "--t-max", "4", "--n", "1",
                "--solvers", "kconvex,exact", "--exact-cap", "5", "--out", str(tmp_path / "b")]
        assert cli_main(argv) == 0
        assert caps == [5, 5]


def test_long_horizon_does_not_recurse():
    # the cumulative-demand cache and the cost-engine levels recursed once
    # per period and raised RecursionError here
    inst = Instance(
        T=300,
        params=CostParams(K=100.0, W=10.0, h=1.0, b=10.0),
        I0=0,
        demand=tuple(DemandSpec("poisson", 2.0) for _ in range(300)),
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        ctx = SolveContext(inst)
        res = scarf_fixed_R(inst, ReviewSchedule((1,)), context=ctx)
    finally:
        sys.setrecursionlimit(limit)
    assert res.policy.n_reviews == 1
    assert np.isfinite(res.cost)
