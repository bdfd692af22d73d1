"""Exact baseline: fixed-schedule solves and the branch-and-bound search."""

import csv
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
    InventoryGrid,
    ReviewSchedule,
    SolveContext,
    enumerate_optimal,
    expected_cost,
    extract_policy,
    gen_scalability,
    optimality_gap,
    scarf_fixed_R,
    solve_kconvex,
)
from rss_policy.cli import main as cli_main
from rss_policy.exact import _prefix_bound
from conftest import (
    all_schedules,
    assert_same_search,
    brute_force_every_period,
    deterministic_instance,
    enumeration_oracle,
    full_grid_enumerate,
    full_grid_scarf,
    random_desk_instance,
    window_slice,
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

    @pytest.mark.parametrize("periods", [(1, 2.9), (1, 3.0), (True, 2), (1, False), ("1", "3")])
    def test_rejects_periods_that_are_not_integers(self, periods):
        # (1, 2.9) became (1, 2), and scarf_fixed_R priced that schedule instead
        with pytest.raises(ValueError, match="must be integers"):
            ReviewSchedule(periods)

    def test_accepts_numpy_integers(self):
        periods = ReviewSchedule((1, np.int64(3))).periods
        assert periods == (1, 3) and all(type(t) is int for t in periods)

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
        assert one.root_cost(inst.I0) == pytest.approx(5 + 2 + 10)
        assert two.root_cost(inst.I0) == pytest.approx(2 * 5 + 2 * 2)
        for tables in (one, two):
            policy = extract_policy(tables, inst)
            cost = expected_cost(inst, policy, context=ctx)
            assert cost == pytest.approx(tables.root_cost(inst.I0), abs=1e-9)

    def test_zero_demand_costs_only_reviews(self):
        inst = Instance(
            T=4,
            params=CostParams(K=1e9, W=7.0, h=1.0, b=1.0),
            I0=0,
            demand=tuple(DemandSpec("poisson", 0.0) for _ in range(4)),
        )
        ctx = SolveContext(inst)
        for sched in all_schedules(4):
            tables = scarf_fixed_R(inst, sched, context=ctx)
            assert tables.root_cost(inst.I0) == pytest.approx(7.0 * sched.n_reviews)

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
            tables = scarf_fixed_R(inst, ReviewSchedule(tuple(range(1, T + 1))), context=ctx)
            oracle = window_slice(ctx, tables.grid, brute_force_every_period(ctx))
            np.testing.assert_allclose(tables.cost_to_go[1], oracle, atol=1e-9)


def _assert_matches_oracle(inst):
    ctx = SolveContext(inst)
    res = enumerate_optimal(inst, context=ctx)
    cost, schedule, count = enumeration_oracle(ctx)
    assert res.cost == cost  # bitwise
    assert res.schedule == schedule
    assert res.nodes_explored + res.nodes_pruned == 2**inst.T - 1
    assert res.n_schedules <= count


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
        assert (res.n_schedules, res.nodes_explored, res.nodes_pruned) == (1, 1, 0)

    def test_counts_all_compositions(self, rng):
        # every suffix (a composition of some t..T) is built or pruned
        for _ in range(4):
            inst = random_desk_instance(rng, horizon=6)
            res = enumerate_optimal(inst)
            assert res.nodes_explored + res.nodes_pruned == 2**6 - 1
            assert 1 <= res.n_schedules <= 2**5

    def test_minimum_over_all_schedules(self, rng):
        inst = random_desk_instance(rng, horizon=4)
        ctx = SolveContext(inst)
        res = enumerate_optimal(inst, context=ctx)
        for sched in all_schedules(4):
            single = scarf_fixed_R(inst, sched, context=ctx).root_cost(inst.I0)
            assert res.cost <= single + 1e-9
            if sched.periods == res.schedule.periods:
                assert single == pytest.approx(res.cost, abs=1e-9)

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
        # only the tables on the search's current path, and the bound table
        # each child on the stack inherits, stay alive: a few per period,
        # against one per schedule suffix (2^T - 1) if memoised
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

    def test_matches_full_grid_search(self):
        # the window and the inherited bounds change no prune decision: the
        # search finds what the full-grid search finds, by the same nodes,
        # whether or not a floor check restarts it
        restarted = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            horizon = int(rng.integers(2, 8))
            inst = random_desk_instance(rng, horizon, point_masses=seed % 2 == 1)
            res = enumerate_optimal(inst, context=SolveContext(inst))
            assert_same_search(res, full_grid_enumerate(SolveContext(inst)))
            restarted += res.stats.window_widenings > 0
        assert restarted > 0

    def test_rejects_above_budget(self, rng):
        inst = random_desk_instance(rng, horizon=5)
        with pytest.raises(HorizonCapError, match="heuristic"):
            enumerate_optimal(inst, budget=1)
        # the budget counts exactly the nodes built
        nodes = enumerate_optimal(inst).nodes_explored
        assert enumerate_optimal(inst, budget=nodes).nodes_explored == nodes
        with pytest.raises(HorizonCapError, match=f"more than {nodes - 1} nodes"):
            enumerate_optimal(inst, budget=nodes - 1)
        assert enumerate_optimal(random_desk_instance(rng, horizon=1), budget=1).n_schedules == 1
        # the beta refusal comes first
        partial = Instance(T=5, params=inst.params, I0=0, demand=inst.demand, beta=0.5)
        with pytest.raises(ValueError, match="partial backlogging"):
            enumerate_optimal(partial, budget=1)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_refuses_budget_below_one(self, rng, budget, tmp_path, capsys):
        # -1 searched without a limit, and 0 raised HorizonCapError (exit 3)
        inst = random_desk_instance(rng, horizon=3)
        with pytest.raises(ValueError, match="at least 1") as info:
            enumerate_optimal(inst, budget=budget)
        assert not isinstance(info.value, HorizonCapError)
        argv = _bench_argv(tmp_path, "kconvex,exact", "--exact-budget", str(budget))
        assert cli_main(argv) == 2
        assert "--exact-budget" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("budget", [2.5, True])
    def test_refuses_a_budget_that_is_not_an_integer(self, budget):
        # explored == 2.5 never held, so a T = 4 search ran to all 4 of its
        # nodes where any integer budget below 4 raises HorizonCapError
        inst = gen_scalability(4, 1, seed=4)[0]
        assert enumerate_optimal(inst).nodes_explored == 4
        with pytest.raises(ValueError, match="an integer of at least 1") as info:
            enumerate_optimal(inst, budget=budget)
        assert not isinstance(info.value, HorizonCapError)

    def test_bound_never_exceeds_its_subtree(self, rng):
        # the bound of every suffix lies below the cheapest schedule under
        # it, and the bound a child inherits from its parent's SDP tables
        # lies below the child's own; cheap orders make the schedules order
        # often, so a bound that overcharges orders after period 1 fails here
        instances = []
        for _ in range(4):
            T = int(rng.integers(2, 8))
            K, W, b = rng.uniform(1.0, 16.0, 3)
            instances.append(_poisson_instance(rng.uniform(5.0, 20.0, T), K=K, W=W, h=1.0, b=b))
        instances.append(gen_scalability(3, 2, seed=9)[1])  # its search restarts on a bound
        widened = 0
        for inst in instances:
            ctx = SolveContext(inst)
            g, f = ctx.grid.min_inv, solve_kconvex(inst, context=ctx).grid.min_inv
            window = InventoryGrid(f, ctx.grid.max_inv)
            scarf = {
                s.periods: scarf_fixed_R(inst, s, context=ctx).root_cost(inst.I0)
                for s in all_schedules(inst.T)
            }
            searched = {}  # suffix -> (its table, its bound, its SDP tables)
            for suffix in {p[k:] for p in scarf for k in range(1, len(p))}:
                t = suffix[0]
                table = full_grid_scarf(ctx, ReviewSchedule((1,) + suffix)).cost_to_go[t]
                bound, sdp = _prefix_bound(ctx, ctx.grid, t, table, inst.I0 - g)
                searched[suffix] = table, bound, sdp
                cheapest = min(c for p, c in scarf.items() if p[-len(suffix):] == suffix)
                assert bound <= cheapest + 1e-9
                # on the window of the search, a table flat below it gives the
                # same bound unless a floor check fails, which widens the floor
                on_window = _prefix_bound(ctx, window, t, table[f - g :], inst.I0 - f)
                if isinstance(on_window, InventoryGrid):
                    assert on_window == InventoryGrid(max(g, 2 * f - 1), ctx.grid.max_inv)
                    widened += 1
                elif np.all(table[: f - g] == table[f - g]):
                    assert on_window[0] == bound
            for suffix, (_, bound, sdp) in searched.items():
                for u in range(2, suffix[0]):
                    child_table, child_bound, _ = searched[(u,) + suffix]
                    inherited = bound + float((child_table - sdp[u]).min())
                    assert inherited <= child_bound + 1e-9 * abs(child_bound)
        assert widened > 0

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


def _bench_argv(tmp_path, solvers, *extra):
    return ["benchmark", "scalability", "--t-min", "4", "--t-max", "4", "--n", "1",
            "--solvers", solvers, *extra, "--out", str(tmp_path / "b")]


def _record_budgets(monkeypatch):
    """Make the CLI's ``enumerate_optimal`` record the budget of each call."""
    import rss_policy.cli as cli

    budgets = []

    def recording(instance, *, budget, context):
        budgets.append(budget)
        return enumerate_optimal(instance, budget=budget, context=context)

    monkeypatch.setattr(cli, "enumerate_optimal", recording)
    return budgets


def _report_rows(tmp_path):
    with (tmp_path / "b" / "report.csv").open(newline="") as fh:
        return {row["solver"]: row for row in csv.DictReader(fh)}


class TestBenchmarkExactBudget:
    def test_exact_solver_refuses_above_budget(self, tmp_path, capsys):
        # every one of the T suffixes with a single review is built
        assert cli_main(_bench_argv(tmp_path, "exact", "--exact-budget", "3")) == 3
        assert "more than 3 nodes" in capsys.readouterr().err

    def test_oracle_above_budget_leaves_gaps_empty(self, tmp_path):
        assert cli_main(_bench_argv(tmp_path, "kconvex", "--exact-budget", "3")) == 0
        assert _report_rows(tmp_path)["kconvex"]["optimality_gap_pct"] == ""

    def test_oracle_and_exact_solver_get_the_budget(self, tmp_path, monkeypatch):
        budgets = _record_budgets(monkeypatch)
        assert cli_main(_bench_argv(tmp_path, "kconvex", "--exact-budget", "50")) == 0
        assert cli_main(_bench_argv(tmp_path, "exact", "--exact-budget", "60")) == 0
        assert budgets == [50, 60]

    def test_exact_solver_is_the_oracle(self, tmp_path, monkeypatch):
        # one search per repetition; the oracle ran one more before
        budgets = _record_budgets(monkeypatch)
        argv = _bench_argv(tmp_path, "kconvex,exact", "--exact-budget", "50", "--reps", "2")
        assert cli_main(argv) == 0
        assert budgets == [50, 50]
        rows = _report_rows(tmp_path)
        inst = gen_scalability(4, 1, seed=4)[0]
        res = enumerate_optimal(inst)
        gap = optimality_gap(solve_kconvex(inst).root_cost(inst.I0), res.cost)
        assert rows["kconvex"]["optimality_gap_pct"] == f"{100.0 * gap:.6f}"
        assert float(rows["exact"]["optimality_gap_pct"]) == 0.0
        assert rows["kconvex"]["nodes_explored"] == rows["kconvex"]["nodes_pruned"] == ""
        assert int(rows["exact"]["nodes_explored"]) == res.nodes_explored
        assert int(rows["exact"]["nodes_pruned"]) == res.nodes_pruned


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
        tables = scarf_fixed_R(inst, ReviewSchedule((1,)), context=ctx)
    finally:
        sys.setrecursionlimit(limit)
    assert extract_policy(tables, inst).n_reviews == 1
    assert np.isfinite(tables.root_cost(inst.I0))
