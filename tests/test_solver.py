"""Heuristic sweeps: grid sizing, variant equivalence, policy extraction,
partial lost sales."""

import csv
import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from rss_policy import (
    CostParams,
    CycleCostEngine,
    DemandSpec,
    Instance,
    Policy,
    PolicyReview,
    ReviewSchedule,
    SolveContext,
    enumerate_optimal,
    expected_cost,
    extract_policy,
    gen_scalability,
    save_instance,
    scarf_fixed_R,
    simulate,
    solve_kconvex,
    solve_lost_sales,
    solve_plain,
)
from rss_policy.cli import main as cli_main
from rss_policy.solver import (
    QUANTILE_EPS,
    InventoryGrid,
    SolveStats,
    _initial_window,
    _kconvex_table,
    _plain_table,
    _sweep,
)
from conftest import (
    assert_window_matches_full_grid,
    deterministic_instance,
    direct_no_order_curve,
    full_grid_scarf,
    full_grid_sweep,
    kconvex_table_oracle,
    overflow_instance,
    q_loop_oracle,
    random_desk_instance,
    scan_oracle,
    tiny_window,
    two_branch_lost_sales_curve,
    unpruned_sweep,
    window_slice,
)


class TestBuildGrid:
    def test_zero_demand(self):
        inst = deterministic_instance([0, 0, 0])
        ctx = SolveContext(inst)
        assert ctx.grid.max_inv == 0
        assert ctx.grid.min_inv <= 0

    def test_quantile_with_headroom(self):
        inst = Instance(
            T=10,
            params=CostParams(K=100, W=100, h=1, b=10),
            I0=0,
            demand=tuple(DemandSpec("poisson", 50.0) for _ in range(10)),
        )
        ctx = SolveContext(inst)
        total = ctx.demand.cumulative(1, 11)
        q = total.quantile(1 - QUANTILE_EPS)
        assert ctx.grid.max_inv >= q
        # roughly 1.1 x (500 + 4.3 * sqrt(500))
        assert 600 <= ctx.grid.max_inv <= 700
        assert ctx.grid.min_inv == -ctx.grid.max_inv

    def test_the_total_demand_leaves_no_prefix_in_the_cache(self):
        # the prefixes (1, j) of the total would be most of a long solve's
        # memory, 95 MB at T = 520, and only period 1's tails read a few
        inst = gen_scalability(30, 1, seed=30)[0]
        ctx = SolveContext(inst)
        assert ctx.demand._cum == {}
        total = ctx.demand.cumulative(1, inst.T + 1)
        again = ctx.demand.total()
        assert (again.offset, again.probs.tobytes()) == (total.offset, total.probs.tobytes())
        m = min(total.quantile(1.0 - QUANTILE_EPS), 2**62)
        max_inv = max(math.ceil(1.1 * m), inst.I0, 0)
        assert ctx.grid == InventoryGrid(min(-max_inv, inst.I0), max_inv)

    def test_initial_inventory_clamped_in(self):
        inst = Instance(
            T=2,
            params=CostParams(K=100, W=100, h=1, b=10),
            I0=700,
            demand=tuple(DemandSpec("poisson", 10.0) for _ in range(2)),
        )
        ctx = SolveContext(inst)
        assert ctx.grid.max_inv >= 700

    def test_refuses_a_total_demand_too_long_to_convolve(self, monkeypatch):
        # two Poisson(1e7) pmfs of 1.0e7 values each pass the memory checks,
        # but their convolution, 1e14 multiply-adds, would take hours
        inst = Instance(
            T=2,
            params=CostParams(K=100, W=100, h=1, b=10),
            I0=0,
            demand=(DemandSpec("poisson", 1e7),) * 2,
        )

        def no_convolution(*args):
            raise AssertionError("convolved before the work check")

        monkeypatch.setattr(np, "convolve", no_convolution)
        with pytest.raises(MemoryError, match="needs 1e[+]14 multiply-adds"):
            SolveContext(inst)

    def test_refuses_the_total_demand_before_building_its_pmfs(self, monkeypatch):
        # the count read the lengths of the built pmfs: both Poisson(1e7)
        # pmfs, about 0.4 s and a 447 MB peak, came before the refusal
        inst = Instance(
            T=2,
            params=CostParams(K=100, W=100, h=1, b=10),
            I0=0,
            demand=(DemandSpec("poisson", 1e7),) * 2,
        )

        def no_pmf(*args):
            raise AssertionError("built a pmf before the work check")

        monkeypatch.setattr("rss_policy.solver.discretize", no_pmf)
        with pytest.raises(MemoryError, match="the total demand's convolution needs 1e[+]14 "):
            SolveContext(inst)

    def test_counts_the_total_demand_convolution(self, monkeypatch):
        inst = gen_scalability(30, 1, seed=30)[0]
        ctx = SolveContext(inst)
        lengths = [len(ctx.demand.period(t)) for t in range(1, inst.T + 1)]
        macs = sum(len(ctx.demand.cumulative(1, t)) * lengths[t - 1] for t in range(2, inst.T + 1))
        monkeypatch.setattr("rss_policy.solver.MAX_TOTAL_MACS", macs)
        assert SolveContext(inst).grid == ctx.grid
        monkeypatch.setattr("rss_policy.solver.MAX_TOTAL_MACS", macs - 1)
        with pytest.raises(MemoryError, match="the total demand's convolution"):
            SolveContext(inst)

    def test_cli_reports_the_work_bound_as_a_work_bound(self, monkeypatch, tmp_path, capsys):
        # the refusal exits 3 like a memory error, but it is a bound on time:
        # it printed "error: out of memory: the total demand's convolution ..."
        inst = gen_scalability(4, 1, seed=4)[0]
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        monkeypatch.setattr("rss_policy.solver.MAX_TOTAL_MACS", 1)
        assert cli_main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the total demand's convolution needs ")
        assert "memory" not in err and err.count("\n") == 1


class TestHandExamples:
    def test_single_period_review_cost_only(self):
        inst = Instance(
            T=1,
            params=CostParams(K=0.0, W=5.0, h=1.0, b=1.0),
            I0=0,
            demand=(DemandSpec("poisson", 0.0),),
        )
        tables = solve_plain(inst)
        policy = extract_policy(tables, inst)
        assert tables.value(1, 0) == pytest.approx(5.0)
        assert policy.review_periods == (1,)
        assert policy.reviews[0].reorder <= 0  # never orders

    def test_two_period_deterministic_single_order(self):
        # one order covering both periods beats two orders:
        # K + W + 10h = 120 < 2K + 2W = 220
        inst = deterministic_instance([10, 10], K=100, W=10, h=1, b=1000)
        for solve in (solve_plain, solve_kconvex):
            tables = solve(inst)
            policy = extract_policy(tables, inst)
            assert tables.value(1, 0) == pytest.approx(120.0)
            assert policy.review_periods == (1,)
            assert policy.reviews[0].order_up_to == 20


class TestVariantEquivalence:
    def test_policies_and_tables_match(self, rng):
        for _ in range(15):
            inst = random_desk_instance(rng)
            ctx = SolveContext(inst)
            plain = solve_plain(inst, context=ctx)
            fast = solve_kconvex(inst, context=ctx)
            assert extract_policy(plain, inst) == extract_policy(fast, inst)
            assert plain.value(1, 0) == pytest.approx(fast.value(1, 0), abs=1e-8)
            for t in range(1, inst.T + 2):
                np.testing.assert_allclose(
                    plain.cost_to_go[t], fast.cost_to_go[t], atol=1e-8
                )
            assert fast.stats.states_evaluated < plain.stats.states_evaluated
            assert fast.stats.q_iterations == 0

    def test_matches_forward_evaluation(self, rng):
        for _ in range(8):
            inst = random_desk_instance(rng)
            ctx = SolveContext(inst)
            tables = solve_kconvex(inst, context=ctx)
            policy = extract_policy(tables, inst)
            assert expected_cost(inst, policy, context=ctx) == pytest.approx(
                tables.root_cost(inst.I0), abs=1e-6
            )


class TestTableStructure:
    def test_terminal_table_is_zero(self, rng):
        inst = random_desk_instance(rng)
        tables = solve_kconvex(inst)
        assert not tables.cost_to_go[inst.T + 1].any()

    def test_flat_ordering_region(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng)
            tables = solve_kconvex(inst)
            for t in range(1, inst.T + 1):
                s = tables.reviews[t].reorder
                if s > tables.grid.min_inv:
                    region = tables.cost_to_go[t][: tables.grid.index(s)]
                    assert np.ptp(region) == 0.0

    def test_order_up_to_is_argmin(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng)
            tables = solve_kconvex(inst)
            for t in range(1, inst.T + 1):
                table = tables.cost_to_go[t]
                S_val = table[tables.grid.index(tables.reviews[t].order_up_to)]
                assert S_val == pytest.approx(table.min(), abs=1e-12)

    def test_reorder_below_order_up_to(self, rng):
        inst = random_desk_instance(rng)
        tables = solve_kconvex(inst)
        for t in range(1, inst.T + 1):
            assert tables.reviews[t].reorder <= tables.reviews[t].order_up_to

    def test_cost_monotone_in_penalty(self, rng):
        inst = random_desk_instance(rng)
        p = inst.params
        costlier = Instance(
            T=inst.T,
            params=CostParams(K=p.K, W=p.W, h=p.h, b=p.b + 5.0),
            I0=inst.I0,
            demand=inst.demand,
        )
        assert solve_kconvex(costlier).value(1, 0) >= solve_kconvex(inst).value(1, 0)

    def test_no_order_curves_are_k_convex(self, rng):
        inst = random_desk_instance(rng, horizon=4)
        ctx = SolveContext(inst)
        tables = full_grid_sweep(ctx, _kconvex_table)
        K = inst.params.K
        for t in range(1, 5):
            for r in range(1, 4 - t + 2):
                curve = inst.params.W + ctx.engine.cycle_curve(t, r, tables.cost_to_go[t + r])
                n = curve.shape[0]
                xs = rng.integers(0, n, size=300)
                a = rng.integers(1, 10, size=300)
                b = rng.integers(1, 10, size=300)
                ok = (xs + a < n) & (xs - b >= 0)
                xs, a, b = xs[ok], a[ok], b[ok]
                lhs = K + curve[xs + a] - curve[xs] - a * (curve[xs] - curve[xs - b]) / b
                assert lhs.min() >= -1e-6


class TestArrayDecisions:
    """The array threshold scan and suffix-minimum search against the
    per-state reference loops: equal bitwise, counters included. The
    curves are those of the full-grid sweep."""

    def _cycles(self, ctx, tables):
        T = ctx.instance.T
        for t in range(1, T + 1):
            for r in range(1, T - t + 2):
                yield t, r, tables.cost_to_go[t + r]

    def _check_kconvex(self, ctx, curve):
        p = ctx.params
        stats = SolveStats()
        res = _kconvex_table(ctx, curve, stats)
        stop, best, scanned = scan_oracle(curve, p.K)
        assert np.array_equal(res.table, kconvex_table_oracle(curve, p.W, p.K))
        assert (res.stop, res.best) == (stop, best)
        assert res.best_n == curve[best]
        assert (stats.states_evaluated, stats.q_iterations) == (scanned, 0)

    def _check_plain(self, ctx, curve):
        p = ctx.params
        stats = SolveStats()
        res = _plain_table(ctx, curve, stats)
        table, candidates = q_loop_oracle(curve, p.W, p.K)
        stop, best, _ = scan_oracle(curve, p.K)
        assert np.array_equal(res.table, table)
        assert (res.stop, res.best) == (stop, best)
        assert (stats.states_evaluated, stats.q_iterations) == (curve.shape[0], candidates)

    def test_curve_matches_direct_summation(self, rng):
        inst = random_desk_instance(rng, horizon=3)
        ctx = SolveContext(inst)
        tables = full_grid_sweep(ctx, _kconvex_table)
        for t, r, future in self._cycles(ctx, tables):
            np.testing.assert_allclose(
                inst.params.W + ctx.engine.cycle_curve(t, r, future),
                direct_no_order_curve(ctx, t, r, future),
                rtol=1e-12,
            )

    def test_kconvex_matches_scan_oracle(self, rng):
        for _ in range(4):
            inst = random_desk_instance(rng)
            ctx = SolveContext(inst)
            tables = full_grid_sweep(ctx, _kconvex_table)
            for t, r, future in self._cycles(ctx, tables):
                self._check_kconvex(ctx, ctx.engine.cycle_curve(t, r, future))

    @pytest.mark.parametrize("beta", [1.0, 0.5, 0.0])
    def test_plain_and_lost_sales_match_q_loop(self, rng, beta):
        base = random_desk_instance(rng, horizon=3, mean_range=(3.0, 8.0))
        inst = Instance(T=3, params=base.params, I0=0, demand=base.demand, beta=beta)
        ctx = SolveContext(inst)
        tables = full_grid_sweep(ctx, _plain_table)  # solve_lost_sales's for any beta
        for t, r, future in self._cycles(ctx, tables):
            self._check_plain(ctx, ctx.engine.cycle_curve(t, r, future))

    @pytest.mark.parametrize(
        "curve, K, stop, best",
        [
            ([3.0, 3.0, 3.0, 3.0, 3.0, 3.0], 10.0, -1, 5),  # flat: no stop, top wins
            ([5.0, 1.0, 1.0, 1.0, 4.0, 6.0], 1.0, 0, 3),  # plateau: largest level wins
            ([3.0, 3.0, 1.0, 2.0, 5.0, 6.0], 2.0, -1, 2),  # exactly min + K: no stop
            ([4.0, 2.0, 1.0, 1.0, 3.0, 6.0], 0.0, 1, 3),  # K = 0 stops at the first rise
        ],
    )
    def test_tie_curves(self, curve, K, stop, best):
        curve = np.array(curve)
        ctx = SimpleNamespace(params=CostParams(K=K, W=2.0, h=1.0, b=1.0))
        assert scan_oracle(curve, K)[:2] == (stop, best)
        self._check_kconvex(ctx, curve)
        self._check_plain(ctx, curve)


def _tie_prone_instances():
    steps = [10, 0, 5, 10, 10, 20, 10, 0]
    poisson = tuple(DemandSpec("poisson", 10.0) for _ in steps)
    return {
        "stationary-poisson": Instance(
            T=8, params=CostParams(K=20.0, W=5.0, h=1.0, b=10.0), I0=0, demand=poisson
        ),
        "deterministic": deterministic_instance(steps, K=20.0, W=5.0),
        "zero-demand": deterministic_instance([0] * 6),
        "K=0": deterministic_instance(steps, K=0.0, W=5.0),
        "W=0": deterministic_instance(steps, K=20.0, W=0.0),
        "K=W=0": deterministic_instance(steps, K=0.0, W=0.0),  # every table is 0
        "h=0": deterministic_instance(steps, K=20.0, W=5.0, h=0.0, b=5.0),
        "b=0": Instance(
            T=8, params=CostParams(K=20.0, W=5.0, h=1.0, b=0.0), I0=0, demand=poisson
        ),
        "scalability-T20": gen_scalability(20, 1, seed=20)[0],
    }


class TestSweepBound:
    """The bound skips only candidates that cannot win: tables, cycle
    lengths and thresholds of the full-grid sweep equal the unpruned
    sweep's bitwise, and the windowed sweep's equal those on its window."""

    def _check(self, inst):
        ctx = SolveContext(inst)
        stats_of = {}
        solvers = (("kconvex", solve_kconvex, _kconvex_table), ("plain", solve_plain, _plain_table))
        for name, solve, table_fn in solvers:
            full = full_grid_sweep(ctx, table_fn)
            cost_to_go, reviews, stats = unpruned_sweep(ctx, table_fn)
            assert full.cost_to_go.keys() == cost_to_go.keys()
            for t in cost_to_go:
                assert np.array_equal(full.cost_to_go[t], cost_to_go[t])
            assert full.reviews == reviews
            assert full.stats.states_evaluated <= stats.states_evaluated
            tables = solve(inst, context=ctx)
            assert_window_matches_full_grid(ctx, tables, full)
            assert tables.stats.states_evaluated <= full.stats.states_evaluated
            stats_of[name] = full.stats
        # the full-grid exhaustive search scans the whole grid of each candidate it builds
        built = stats_of["plain"].states_evaluated // ctx.grid.size
        assert built + stats_of["plain"].candidates_pruned == inst.T * (inst.T + 1) // 2
        assert stats_of["kconvex"].candidates_pruned == stats_of["plain"].candidates_pruned

    def test_random_desk_instances(self, rng):
        for _ in range(8):
            self._check(random_desk_instance(rng, horizon=8, mean_range=(20.0, 40.0)))

    @pytest.mark.parametrize("case", sorted(_tie_prone_instances()))
    def test_tie_prone_instances(self, case):
        self._check(_tie_prone_instances()[case])

    def test_prunes_most_candidates_at_long_horizon(self):
        inst = gen_scalability(40, 1, seed=40)[0]
        ctx = SolveContext(inst)
        tables = solve_kconvex(inst, context=ctx)
        # of the 820 candidates, 60 are built
        assert tables.stats.candidates_pruned >= 820 // 2
        schedule = ReviewSchedule(extract_policy(tables, inst).review_periods)
        scarf = scarf_fixed_R(inst, schedule, context=ctx)
        assert scarf.stats.candidates_pruned == 0

    def test_benchmark_report_counts_pruned(self, tmp_path):
        out = tmp_path / "bench"
        argv = ["benchmark", "scalability", "--t-min", "10", "--t-max", "10", "--n", "1",
                "--solvers", "kconvex,exact", "--out", str(out)]
        assert cli_main(argv) == 0
        with (out / "report.csv").open(newline="") as fh:
            rows = {row["solver"]: row for row in csv.DictReader(fh)}
        stats = solve_kconvex(gen_scalability(10, 1, seed=10)[0]).stats
        assert int(rows["kconvex"]["candidates_pruned"]) == stats.candidates_pruned > 0
        assert int(rows["kconvex"]["states_evaluated"]) == stats.states_evaluated
        assert int(rows["kconvex"]["window_widenings"]) == stats.window_widenings > 0
        assert rows["exact"]["candidates_pruned"] == rows["exact"]["window_widenings"] == "0"

    def test_benchmark_refuses_zero_reps(self, tmp_path, capsys):
        # no repetition ran, and the row read the unset policy
        out = tmp_path / "bench"
        argv = ["benchmark", "scalability", "--t-min", "2", "--t-max", "2", "--n", "1",
                "--solvers", "kconvex", "--reps", "0", "--skip-oracle", "--out", str(out)]
        assert cli_main(argv) == 2
        assert "--reps" in capsys.readouterr().err
        assert not out.exists()

    def test_lost_sales_keeps_every_candidate(self):
        inst = dataclasses.replace(gen_scalability(10, 1, seed=10)[0], beta=0.5)
        ctx = SolveContext(inst)
        stats = solve_lost_sales(inst, context=ctx).stats
        assert stats.candidates_pruned == 0
        assert stats.states_evaluated == 55 * ctx.grid.size


class TestProbeAndZone:
    """Under full backlogging the sweep builds first the cycle that ends at
    period t + 1's next review, and prices each later candidate on its
    zone Z alone before building it. Its tables, reviews and root costs
    are those of the sweep that builds every candidate in ascending order,
    bitwise; each candidate is counted once, built or pruned, and ties
    still go to the shorter cycle."""

    @staticmethod
    def _full_grid_builds(monkeypatch, ctx, table_fn):
        """The full-grid sweep, the candidates it builds in order, as
        (t, r, value at the order-up-to level), and the (t, r) it prices on
        a zone alone."""
        built, zoned = [], []
        tail = ctx.engine.tail

        def recording_tail(t, r, future, span=None):
            (built if span is None else zoned).append((t, r))
            return tail(t, r, future, span)

        def recording(ctx, curve, stats):
            res = table_fn(ctx, curve, stats)
            built[-1] += (res.best_n,)
            return res

        with monkeypatch.context() as m:
            m.setattr(ctx.engine, "tail", recording_tail)
            tables = full_grid_sweep(ctx, recording)
        return built, zoned, tables

    @staticmethod
    def _assert_unpruned(ctx, tables, unpruned):
        cost_to_go, reviews, _ = unpruned
        assert tables.cost_to_go.keys() == cost_to_go.keys()
        for t, table in tables.cost_to_go.items():
            assert np.array_equal(table, window_slice(ctx, tables.grid, cost_to_go[t])), t
        assert tables.reviews == reviews
        root = float(cost_to_go[1][ctx.grid.index(ctx.instance.I0)])
        assert tables.root_cost(ctx.instance.I0).hex() == root.hex()

    @pytest.mark.parametrize("seed", range(3))
    def test_random_desk_instances_match_the_unpruned_sweep(self, seed, monkeypatch):
        rng = np.random.default_rng(700 + seed)
        dropped = 0
        for k in range(6):
            inst = random_desk_instance(rng, int(rng.integers(5, 10)), (10.0, 30.0))
            ctx = SolveContext(inst)
            T = inst.T
            for table_fn in (_kconvex_table, _plain_table):
                unpruned = unpruned_sweep(ctx, table_fn)
                for start in (None, tiny_window(ctx)):
                    self._assert_unpruned(ctx, _sweep(ctx, table_fn, window=start), unpruned)
                # the probe is built first at every t < T, and so never pruned
                built, zoned, full = self._full_grid_builds(monkeypatch, ctx, table_fn)
                for t in range(1, T):
                    first = next(r for u, r, _ in built if u == t)
                    assert first == full.reviews[t + 1].cycle + 1, (k, t)
                cycles = [(t, r) for t, r, _ in built]
                assert len(set(cycles)) == len(cycles)
                assert len(cycles) + full.stats.candidates_pruned == T * (T + 1) // 2
                dropped += len(set(zoned) - set(cycles))
        assert dropped > 0

    def test_ties_go_to_the_shorter_cycle_after_the_probe(self, monkeypatch):
        # with K = W = 0 every table is 0, so at a period whose next demand
        # is 0 the probe and a shorter cycle built after it cost the same
        inst = _tie_prone_instances()["K=W=0"]
        ctx = SolveContext(inst)
        built, _, tables = self._full_grid_builds(monkeypatch, ctx, _kconvex_table)
        ties = []
        for t in range(1, inst.T):
            here = [(r, value) for u, r, value in built if u == t]
            probe, value = here[0]
            ties += [(t, r) for r, v in here[1:] if r < probe and v == value]
        assert ties
        for t, r in ties:
            assert tables.reviews[t].cycle <= r
        self._assert_unpruned(ctx, tables, unpruned_sweep(ctx, _kconvex_table))

    @pytest.mark.parametrize("I0", [0, -1])
    def test_windows_of_one_or_two_positions(self, I0, rng):
        # zero demand: the grid and the window are [0, 0] or [-1, 0]; then a
        # first window of two positions on a grid that is wider
        inst = dataclasses.replace(_tie_prone_instances()["zero-demand"], I0=I0)
        ctx = SolveContext(inst)
        assert ctx.grid.size == 1 - I0
        for table_fn in (_kconvex_table, _plain_table):
            self._assert_unpruned(ctx, _sweep(ctx, table_fn), unpruned_sweep(ctx, table_fn))
        inst = dataclasses.replace(random_desk_instance(rng, 6, (10.0, 30.0)), I0=I0)
        ctx = SolveContext(inst)
        for table_fn in (_kconvex_table, _plain_table):
            tables = _sweep(ctx, table_fn, window=InventoryGrid(-1, 0))
            assert tables.stats.window_widenings > 0
            self._assert_unpruned(ctx, tables, unpruned_sweep(ctx, table_fn))


def _no_mean_bound(monkeypatch):
    """The sweep with the zone test alone: J = -inf prunes nothing."""
    no_bound = lambda engine, t: np.full(engine._demand.horizon - t + 1, -math.inf)
    monkeypatch.setattr(CycleCostEngine, "mean_bound", no_bound)


class TestMeanDemandBound:
    """The mean-demand bound drops only candidates that the zone test
    skips: every table, window, review and counter, and the exact
    search's nodes, are the sweep's without it, bitwise, and it reads no
    longer cycle."""

    @staticmethod
    def _runs(inst, tiny):
        """Each solve on its own context, from a tiny first window or the
        default one: its results and the longest cycle it read."""
        schedule = ReviewSchedule(tuple(range(1, inst.T + 1, 2)))
        cycles = dict(zip(schedule.periods, schedule.cycles(inst.T)))
        scheduled = lambda t: (cycles[t],) if t in cycles else ()
        if tiny:
            solves = {
                "kconvex": lambda ctx: _sweep(ctx, _kconvex_table, window=tiny_window(ctx)),
                "plain": lambda ctx: _sweep(ctx, _plain_table, window=tiny_window(ctx)),
                "scarf": lambda ctx: _sweep(ctx, _kconvex_table, scheduled, tiny_window(ctx)),
            }
        else:
            solves = {
                "kconvex": lambda ctx: solve_kconvex(inst, context=ctx),
                "plain": lambda ctx: solve_plain(inst, context=ctx),
                "scarf": lambda ctx: scarf_fixed_R(inst, schedule, context=ctx),
            }
        runs = {}
        for name, solve in solves.items():
            ctx = SolveContext(inst)
            tables = solve(ctx)
            runs[name] = ctx.engine._reach, (
                tables.grid,
                tables.reviews,
                tables.stats,
                {t: table.tobytes() for t, table in tables.cost_to_go.items()},
            )
        ctx = SolveContext(inst)
        res = enumerate_optimal(inst, context=ctx)
        runs["exact"] = ctx.engine._reach, (
            res.cost.hex(),
            res.schedule,
            res.policy,
            res.stats,
            (res.n_schedules, res.nodes_explored, res.nodes_pruned),
        )
        return runs

    @pytest.mark.parametrize("seed", range(3))
    def test_random_desk_instances_match_the_sweep_without_it(self, seed, monkeypatch):
        # half the draws with K and W cut fivefold, so short cycles win and
        # the bound ends the candidate loop early; the others skip cycles by
        # J + min F and build longer ones after them; every other draw
        # starts from a tiny window, which must widen
        rng = np.random.default_rng(900 + seed)
        shorter = widened = 0
        for k in range(8):
            inst = random_desk_instance(
                rng, int(rng.integers(6, 11)), (20.0, 40.0), point_masses=k in (2, 5)
            )
            if k < 4:
                p = inst.params
                cheap = dataclasses.replace(p, K=p.K / 5, W=p.W / 5)
                inst = dataclasses.replace(inst, params=cheap)
            got = self._runs(inst, tiny=k % 2 == 1)
            with monkeypatch.context() as m:
                _no_mean_bound(m)
                want = self._runs(inst, tiny=k % 2 == 1)
            for name in got:
                assert got[name][1] == want[name][1], (k, name)
                assert got[name][0] <= want[name][0], (k, name)
            shorter += got["kconvex"][0] < want["kconvex"][0]
            widened += got["kconvex"][1][2].window_widenings > 0
        assert shorter >= 2 and widened >= 4

    def test_computed_only_where_the_sweep_reads_it(self, rng, monkeypatch):
        # the partial-backlog sweep has no bound, and scarf_fixed_R's
        # periods between reviews have no candidate
        computed = []
        mean_bound = CycleCostEngine.mean_bound

        def counted(engine, t):
            computed.append(t)
            return mean_bound(engine, t)

        monkeypatch.setattr(CycleCostEngine, "mean_bound", counted)
        inst = random_desk_instance(rng, 8, (10.0, 30.0))
        solve_plain(dataclasses.replace(inst, beta=0.5))
        assert computed == []
        schedule = ReviewSchedule((1, 4, 5, 8))
        scarf_fixed_R(inst, schedule)
        assert set(computed) == set(schedule.periods)


class TestWindow:
    """Under full backlogging the sweep decides on a certified window of
    the grid: its tables are the full-grid sweep's on the window, bitwise,
    with the same cycle lengths, thresholds and root cost."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_desk_instances(self, seed):
        rng = np.random.default_rng(seed)
        grew_floor = grew_ceiling = False
        for _ in range(6):
            inst = random_desk_instance(rng, mean_range=(10.0, 30.0))
            ctx = SolveContext(inst)
            # the default first window, and a tiny one that must grow at both ends
            tiny = tiny_window(ctx)
            for table_fn in (_kconvex_table, _plain_table):
                full = full_grid_sweep(ctx, table_fn)
                for start in (None, tiny):
                    windowed = _sweep(ctx, table_fn, window=start)
                    assert_window_matches_full_grid(ctx, windowed, full)
                grew_floor |= windowed.grid.min_inv < tiny.min_inv
                grew_ceiling |= windowed.grid.max_inv > tiny.max_inv
            later = rng.random(inst.T - 1) < 0.5
            schedule = ReviewSchedule((1,) + tuple(int(u) for u in np.flatnonzero(later) + 2))
            scarf = scarf_fixed_R(inst, schedule, context=ctx)
            assert_window_matches_full_grid(ctx, scarf, full_grid_scarf(ctx, schedule))
        assert grew_floor and grew_ceiling

    @pytest.mark.parametrize("seed", range(3))
    def test_counters_are_one_pass_on_the_returned_window(self, seed):
        # a failed certificate starts the sweep over on the wider window, so
        # the tables and every counter but the widenings are those of the
        # sweep on the returned window, which widens no more; also with a
        # fixed schedule's lengths, which leave periods undecided
        rng = np.random.default_rng(100 + seed)
        gaps = np.random.default_rng(seed)  # the schedules, apart from the instances
        widened = 0
        grew_floor = grew_ceiling = False
        for _ in range(5):
            ctx = SolveContext(random_desk_instance(rng, mean_range=(10.0, 30.0)))
            T = ctx.instance.T
            later = gaps.random(T - 1) < 0.5
            schedule = ReviewSchedule((1,) + tuple(int(u) for u in np.flatnonzero(later) + 2))
            cycles = dict(zip(schedule.periods, schedule.cycles(T)))
            scheduled = lambda t: (cycles[t],) if t in cycles else ()
            tiny = tiny_window(ctx)
            for table_fn, lengths in ((_kconvex_table, None), (_plain_table, None),
                                      (_kconvex_table, scheduled)):
                for start in (None, tiny):
                    tables = _sweep(ctx, table_fn, lengths, start)
                    again = _sweep(ctx, table_fn, lengths, tables.grid)
                    assert again.stats.window_widenings == 0
                    assert tables.cost_to_go.keys() == again.cost_to_go.keys()
                    for t, table in tables.cost_to_go.items():
                        assert np.array_equal(table, again.cost_to_go[t]), t
                    assert tables.reviews == again.reviews
                    assert dataclasses.replace(tables.stats, window_widenings=0) == again.stats
                    widened += tables.stats.window_widenings
                    if lengths is not None:
                        first = start or _initial_window(ctx)
                        grew_floor |= tables.grid.min_inv < first.min_inv
                        grew_ceiling |= tables.grid.max_inv > first.max_inv
        assert widened > 0
        assert grew_floor and grew_ceiling

    @pytest.mark.parametrize("table_fn", [_kconvex_table, _plain_table])
    @pytest.mark.parametrize("tiny", [False, True])
    def test_a_widening_starts_the_sweep_over(self, tiny, table_fn):
        # each failed certificate starts a new pass at period T on the wider
        # window, and the last pass, which widens no more, is the result
        inst = gen_scalability(35, 1, seed=35)[0]
        ctx = SolveContext(inst)
        T = inst.T
        asked = []

        def lengths(t):
            asked.append(t)
            return range(1, T - t + 2)

        tables = _sweep(ctx, table_fn, lengths, tiny_window(ctx) if tiny else None)
        starts = [k for k, t in enumerate(asked) if t == T]
        passes = [asked[a:b] for a, b in zip(starts, starts[1:] + [len(asked)])]
        assert starts[0] == 0 and all(p == list(range(T, T - len(p), -1)) for p in passes)
        assert len(passes) == tables.stats.window_widenings + 1 >= 3
        assert passes[-1] == list(range(T, 0, -1))
        again = _sweep(ctx, table_fn, window=tables.grid)
        assert tables.cost_to_go.keys() == again.cost_to_go.keys()
        for t, table in tables.cost_to_go.items():
            assert np.array_equal(table, again.cost_to_go[t]), t
        assert tables.reviews == again.reviews
        assert dataclasses.replace(tables.stats, window_widenings=0) == again.stats

    @pytest.mark.parametrize("means, tiny", [((20, 20), True), ((8, 8, 8), False)])
    def test_prune_reads_hp_up_past_a_falling_ceiling(self, means, tiny):
        # the whole-horizon cycle wins at period 1, but its hp still falls at
        # the window ceiling, where it exceeds the best shorter cycle's value:
        # the prune must read hp up to its minimum and not skip the winner
        inst = deterministic_instance(list(means), K=0.0, W=50.0, b=10.0)
        ctx = SolveContext(inst)
        full = full_grid_sweep(ctx, _kconvex_table)
        assert full.reviews[1].cycle == inst.T
        start = tiny_window(ctx) if tiny else None
        windowed = _sweep(ctx, _kconvex_table, window=start)
        assert_window_matches_full_grid(ctx, windowed, full)

    def test_tables_live_on_the_window(self):
        inst = gen_scalability(35, 1, seed=35)[0]
        ctx = SolveContext(inst)
        tables = solve_kconvex(inst, context=ctx)
        assert tables.stats.window_widenings > 0
        assert tables.grid.size < ctx.grid.size // 4
        assert all(table.shape == (tables.grid.size,) for table in tables.cost_to_go.values())
        # partial backlogging decides on the whole grid
        half = dataclasses.replace(inst, T=5, demand=inst.demand[:5], beta=0.5)
        ls = solve_lost_sales(half)
        assert ls.grid == SolveContext(half).grid and ls.stats.window_widenings == 0


def _one_curve_instances(rng):
    mixed = tuple(
        DemandSpec("normal", m, cv) for m, cv in ((6.0, 0.0), (5.0, 0.3), (0.0, 0.0), (9.0, 0.0))
    )
    desk = [random_desk_instance(rng, horizon=4, mean_range=(3.0, 8.0)) for _ in range(6)]
    # the draws cover both demand kinds and a nonzero opening inventory
    assert {spec.kind for inst in desk for spec in inst.demand} == {"poisson", "normal"}
    assert any(inst.I0 != 0 for inst in desk)
    return desk + [
        deterministic_instance([6, 0, 9, 3, 4], K=20.0, W=5.0, b=8.0),  # point masses
        Instance(T=4, params=CostParams(K=30.0, W=5.0, h=1.0, b=8.0), I0=2, demand=mixed),
        gen_scalability(5, 1, seed=5)[0],
    ]


class TestOneCurve:
    """``cycle_curve`` is the one curve for every beta: below 1 it is
    bitwise the two-branch partial-backlog recursion, and at 1 that
    recursion agrees with the backlogging curve to rounding."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99, 1.0])
    def test_matches_two_branch_recursion(self, rng, beta):
        for base in _one_curve_instances(rng):
            inst = dataclasses.replace(base, beta=beta)
            ctx = SolveContext(inst)
            tables = full_grid_sweep(ctx, _plain_table)  # solve_lost_sales's for any beta
            for t in range(1, inst.T + 1):
                for r in range(1, inst.T - t + 2):
                    future = tables.cost_to_go[t + r]
                    curve = ctx.engine.cycle_curve(t, r, future)
                    oracle = two_branch_lost_sales_curve(ctx, t, r, future, beta)
                    if beta < 1.0:
                        assert np.array_equal(curve, oracle)
                    else:
                        np.testing.assert_allclose(curve, oracle, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99])
    def test_chained_sweep_matches_per_cycle_curves(self, rng, beta):
        # solve_lost_sales advances one level per next review; the
        # reference decides every candidate from its own cycle_curve
        below_grid = False
        for base in _one_curve_instances(rng) + [gen_scalability(12, 1, seed=12)[0]]:
            inst = dataclasses.replace(base, beta=beta)
            ctx = SolveContext(inst)
            tables = solve_lost_sales(inst, context=ctx)
            reference = unpruned_sweep(ctx, _plain_table)
            cost_to_go, reviews, stats = reference
            assert tables.cost_to_go.keys() == cost_to_go.keys()
            for t in cost_to_go:
                assert np.array_equal(tables.cost_to_go[t], cost_to_go[t]), t
            assert (tables.reviews, tables.stats) == (reviews, stats)
            # every candidate curve too, also where ordering overrides it
            curves = []

            def recording(ctx, curve, stats):
                curves.append(curve.copy())
                return _plain_table(ctx, curve, stats)

            _sweep(ctx, recording)
            order = [(t, r) for t in range(inst.T, 0, -1) for r in range(1, inst.T - t + 2)]
            for (t, r), curve in zip(order, curves, strict=True):
                want = ctx.engine.cycle_curve(t, r, cost_to_go[t + r])
                assert np.array_equal(curve, want), (t, r)
            below_grid |= min(ctx.engine._floors) < ctx.grid.min_inv
        if beta >= 0.9:  # near-full backlogging carries the levels below the grid floor
            assert below_grid

    def test_partial_backlog_refuses_a_window(self):
        # below beta = 1 the curve read ``future`` as ending at the grid
        # ceiling and ignored ``lo``: on this grid, [-206, 206], the curve
        # "from level 0" was the grid's at levels 197..206, and the sweep
        # dropped the window it was given
        inst = dataclasses.replace(gen_scalability(3, 1, seed=3)[0], beta=0.5)
        ctx = SolveContext(inst)
        grid = ctx.grid
        assert grid == InventoryGrid(-206, 206)
        with pytest.raises(ValueError, match="spans the grid"):
            ctx.engine.cycle_curve(1, 1, np.zeros(10), lo=0)
        with pytest.raises(ValueError, match="spans the grid"):
            ctx.engine.cycle_curve(1, 1, np.zeros(grid.size), lo=0)
        with pytest.raises(ValueError, match="spans the grid"):
            _sweep(ctx, _plain_table, window=InventoryGrid(-10, 10))
        # the grid itself, given or by default, is the one window
        curve = ctx.engine.cycle_curve(1, 1, np.zeros(grid.size), lo=grid.min_inv)
        assert np.array_equal(curve, ctx.engine.cycle_curve(1, 1, np.zeros(grid.size)))
        tables = _sweep(ctx, _plain_table, window=grid)
        assert tables.reviews == solve_lost_sales(inst, context=ctx).reviews


class TestPointMassDraws:
    """Random desk draws with point-mass demand, where every cycle curve
    is piecewise linear and ties between levels and cycles are common."""

    @pytest.mark.parametrize("seed", range(5))
    def test_kconvex_plain_and_fixed_schedule_agree(self, seed):
        rng = np.random.default_rng(200 + seed)
        for _ in range(8):
            inst = random_desk_instance(rng, mean_range=(3.0, 12.0), point_masses=True)
            ctx = SolveContext(inst)
            kconvex = solve_kconvex(inst, context=ctx)
            plain = solve_plain(inst, context=ctx)
            policy = extract_policy(kconvex, inst)
            assert extract_policy(plain, inst) == policy
            assert kconvex.grid == plain.grid
            for t, table in kconvex.cost_to_go.items():
                np.testing.assert_allclose(plain.cost_to_go[t], table, rtol=0.0, atol=1e-8)
            schedule = ReviewSchedule(policy.review_periods)
            scarf = scarf_fixed_R(inst, schedule, context=ctx)
            assert scarf.root_cost(inst.I0) == kconvex.root_cost(inst.I0)


class TestLostSales:
    def test_full_backlog_identical_to_plain(self, rng):
        base = random_desk_instance(rng, horizon=3)
        first = Instance(T=3, params=base.params, I0=0, demand=base.demand, beta=1.0)
        for inst in [first] + _one_curve_instances(rng):
            ls = solve_lost_sales(inst)
            plain = solve_plain(inst)
            assert ls.value(1, 0) == plain.value(1, 0)
            assert extract_policy(ls, inst) == extract_policy(plain, inst)
            # the pruned plain sweep itself, bitwise
            assert ls.cost_to_go.keys() == plain.cost_to_go.keys()
            for t in ls.cost_to_go:
                assert np.array_equal(ls.cost_to_go[t], plain.cost_to_go[t])
            assert (ls.reviews, ls.stats) == (plain.reviews, plain.stats)

    def test_pure_lost_sales_resets_shortage(self):
        # shortage vanishes instead of backlogging: with ordering priced
        # out, the only costs are the one-period penalty and review costs
        inst = Instance(
            T=2,
            params=CostParams(K=1e9, W=5.0, h=1.0, b=3.0),
            I0=0,
            demand=(DemandSpec("normal", 10.0, 0.0), DemandSpec("normal", 0.0, 0.0)),
            beta=0.0,
        )
        tables = solve_lost_sales(inst)
        assert tables.value(2, 0) == pytest.approx(5.0)
        # one review covering both periods: W once, penalty on the
        # period-1 shortage, nothing after the state resets to zero
        assert tables.value(1, 0) == pytest.approx(5.0 + 3.0 * 10)

    def test_half_backlog_transition(self):
        # closing -10 carries -5 into the next period
        inst = Instance(
            T=2,
            params=CostParams(K=1e6, W=0.0, h=0.0, b=1.0),
            I0=0,
            demand=(DemandSpec("normal", 10.0, 0.0), DemandSpec("normal", 0.0, 0.0)),
            beta=0.5,
        )
        tables = solve_lost_sales(inst)
        # K prohibitive: never order. Period 1 closes at -10 (penalty 10),
        # half is backlogged, period 2 closes at -5 (penalty 5).
        assert tables.value(1, 0) == pytest.approx(15.0)

    def test_one_exhaustive_sweep_for_every_beta(self):
        # solve_plain refused beta < 1 and sent callers to solve_lost_sales,
        # whose body was the same sweep
        assert solve_lost_sales is solve_plain

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_cli_plain_prints_lost_sales(self, beta, tmp_path, capsys):
        # --solver plain exited 2 where --solver lost_sales printed the policy
        path = tmp_path / "inst.json"
        save_instance(dataclasses.replace(gen_scalability(4, 1, seed=4)[0], beta=beta), path)
        printed = []
        for solver in ("plain", "lost_sales"):
            assert cli_main(["solve", str(path), "--solver", solver]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0]

    def test_full_backlog_methods_name_solve_plain(self, rng, tmp_path, capsys):
        base = random_desk_instance(rng, horizon=2)
        partial = Instance(T=2, params=base.params, I0=0, demand=base.demand, beta=0.5)
        refusal = "partial backlogging requires solve_plain (--solver plain)"
        for solve in (solve_kconvex, enumerate_optimal):
            with pytest.raises(ValueError, match=re.escape(refusal)):
                solve(partial)
        with pytest.raises(ValueError, match=re.escape(refusal)):
            scarf_fixed_R(partial, ReviewSchedule((1,)))
        path = tmp_path / "inst.json"
        save_instance(partial, path)
        for solver in ("kconvex", "exact"):
            assert cli_main(["solve", str(path), "--solver", solver]) == 2
            assert capsys.readouterr().err == f"error: {refusal}\n"

    def test_rejects_mismatched_variant(self, rng):
        base = random_desk_instance(rng, horizon=2)
        partial = Instance(T=2, params=base.params, I0=0, demand=base.demand, beta=0.5)
        with pytest.raises(ValueError):
            solve_kconvex(partial)
        # the exact solver ignored beta and returned the full-backlog optimum
        with pytest.raises(ValueError, match="partial backlogging"):
            scarf_fixed_R(partial, ReviewSchedule((1,)))
        with pytest.raises(ValueError, match="partial backlogging"):
            enumerate_optimal(partial)
        # the beta refusal comes before the node budget
        with pytest.raises(ValueError, match="partial backlogging"):
            enumerate_optimal(partial, budget=1)

    def test_cli_refuses_mismatched_variant(self, rng, tmp_path, capsys, monkeypatch):
        import rss_policy.cli as cli

        base = random_desk_instance(rng, horizon=2)
        path = tmp_path / "inst.json"
        save_instance(Instance(T=2, params=base.params, I0=0, demand=base.demand, beta=0.0), path)
        for solver in ("exact", "kconvex"):
            assert cli_main(["solve", str(path), "--solver", solver]) == 2
            assert "partial backlogging" in capsys.readouterr().err
        assert cli_main(["solve", str(path), "--solver", "lost_sales"]) == 0
        capsys.readouterr()
        # with a budget the search would exceed, the beta refusal still comes first
        monkeypatch.setattr(cli, "DEFAULT_NODE_BUDGET", 1)
        assert cli_main(["solve", str(path), "--solver", "exact"]) == 2
        assert "partial backlogging" in capsys.readouterr().err
        save_instance(base, path)
        assert cli_main(["solve", str(path), "--solver", "exact"]) == 3
        assert "node budget" in capsys.readouterr().err


def test_cli_seed_only_where_sampled(rng, tmp_path, capsys):
    # solve parsed --seed and never read it; evaluate seeds its simulation
    inst = random_desk_instance(rng, horizon=2)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    with pytest.raises(SystemExit) as info:
        cli_main(["solve", str(path), "--seed", "3"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert cli_main(["solve", str(path)]) == 0
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(capsys.readouterr().out)
    argv = ["evaluate", str(path), "--policy", str(policy_path), "--simulate", "10", "--seed", "3"]
    assert cli_main(argv) == 0
    assert '"seed": 3' in capsys.readouterr().out


_ONE_CYCLE = Policy(horizon=5, reviews=(PolicyReview(1, 5, 10, 40),))
_ENTRY_POINTS = {
    "solve_plain": lambda inst, ctx: solve_plain(inst, context=ctx),
    "solve_kconvex": lambda inst, ctx: solve_kconvex(inst, context=ctx),
    "solve_lost_sales": lambda inst, ctx: solve_lost_sales(inst, context=ctx),
    "scarf_fixed_R": lambda inst, ctx: scarf_fixed_R(inst, ReviewSchedule((1, 3)), context=ctx),
    "enumerate_optimal": lambda inst, ctx: enumerate_optimal(inst, context=ctx),
    "expected_cost": lambda inst, ctx: expected_cost(inst, _ONE_CYCLE, context=ctx),
    "simulate": lambda inst, ctx: simulate(inst, _ONE_CYCLE, 10, 0, context=ctx),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_rejects_context_of_another_instance(entry):
    # unchecked, expected_cost returned 1333.16 and enumerate_optimal
    # 1076.52 for an instance whose optimum is 709.38
    inst = gen_scalability(5, 1, seed=3)[0]
    other = SolveContext(gen_scalability(5, 1, seed=4)[0])
    with pytest.raises(ValueError, match="different instance"):
        _ENTRY_POINTS[entry](inst, other)
    _ENTRY_POINTS[entry](inst, SolveContext(inst))


@pytest.mark.filterwarnings("error")
def test_refuses_costs_that_overflow():
    # every cycle of period 2 cost inf, so the period got no table and
    # period 1 stopped with KeyError: 2
    inst = overflow_instance(1e308)
    for solve in (solve_plain, solve_kconvex, solve_lost_sales, enumerate_optimal):
        with pytest.raises(ValueError, match="no cycle at period 2 has a finite cost"):
            solve(inst)
    for periods in ((1,), (1, 2)):
        with pytest.raises(ValueError, match="has a finite cost: the costs overflow"):
            scarf_fixed_R(inst, ReviewSchedule(periods))
    fine = overflow_instance(1e307)
    for solve in (solve_plain, solve_kconvex, solve_lost_sales):
        assert math.isfinite(solve(fine).root_cost(fine.I0))
    assert math.isfinite(enumerate_optimal(fine).cost)
    assert math.isfinite(scarf_fixed_R(fine, ReviewSchedule((1, 2))).root_cost(fine.I0))
    # a scheduled period without candidates still gets no table
    tables = scarf_fixed_R(deterministic_instance([10, 10]), ReviewSchedule((1,)))
    assert 2 not in tables.cost_to_go and 2 not in tables.reviews


class TestExtractPolicy:
    def test_single_cycle(self):
        inst = deterministic_instance([5, 5, 5], K=500, W=200, h=1, b=50)
        tables = solve_kconvex(inst)
        if tables.reviews[1].cycle == 3:
            policy = extract_policy(tables, inst)
            assert policy.review_periods == (1,)

    def test_rejects_incomplete_tables(self, rng):
        inst = random_desk_instance(rng, horizon=3)
        tables = solve_kconvex(inst)
        del tables.reviews[1]
        with pytest.raises(ValueError):
            extract_policy(tables, inst)

    def test_rejects_wrong_horizon(self, rng):
        inst = random_desk_instance(rng, horizon=3)
        other = random_desk_instance(rng, horizon=4)
        tables = solve_kconvex(inst)
        with pytest.raises(ValueError):
            extract_policy(tables, other)

    def test_thresholds_ordered(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng)
            policy = extract_policy(solve_kconvex(inst), inst)
            for rv in policy.reviews:
                assert rv.reorder <= rv.order_up_to
