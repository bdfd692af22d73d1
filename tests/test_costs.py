"""Cycle-cost engine: boundaries, memoisation transparency, structure."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from rss_policy import costs, demand
from rss_policy import (
    CostParams,
    CycleCostEngine,
    DemandSpec,
    Instance,
    ReviewSchedule,
    SolveContext,
    enumerate_optimal,
    expected_cost,
    extract_policy,
    gen_scalability,
    scarf_fixed_R,
    solve_kconvex,
    solve_lost_sales,
)
from rss_policy.solver import _kconvex_table, _sweep
from conftest import (
    allocates_at_most,
    deterministic_instance,
    direct_cycle_cost,
    level_recursion_hp,
    path_sum_cycle_cost,
    path_sum_policy_cost,
    random_desk_instance,
    scalar_mean_bound,
    tiny_window,
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
        ys = np.arange(ctx.grid.min_inv, ctx.grid.max_inv + 1)
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

    def test_refuses_a_span_too_long_for_memory(self, monkeypatch):
        # the engine built its vectors over its span unchecked; with 5 MiB
        # of memory a span of 10^6 positions (40 MB at the peak of building
        # them) is refused before any is built
        ctx = self._ctx()
        monkeypatch.setattr(demand, "physical_memory", lambda: 5 * 2**20)
        with allocates_at_most(5 * 2**20), pytest.raises(MemoryError, match="inventory grid"):
            CycleCostEngine(ctx.params, ctx.demand, -500_000, 500_000, 1.0)

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
            levels = np.arange(grid.min_inv, grid.max_inv + 1)
            for _ in range(6):
                t = int(rng.integers(1, T + 1))
                r = int(rng.integers(1, T - t + 2))
                curve = ctx.engine.cycle_hp_fn(t, r)(levels)
                ys = [grid.min_inv, grid.max_inv, *rng.integers(grid.min_inv, grid.max_inv, 5)]
                for y in ys:
                    want = direct_cycle_cost(ctx, t, int(y), 0, r) - ctx.params.W
                    assert curve[y - grid.min_inv] == pytest.approx(want, abs=1e-8)


class TestStructure:
    def test_convex_in_inventory(self, rng):
        ctx = SolveContext(random_desk_instance(rng, horizon=4))
        ys = np.arange(ctx.grid.min_inv, ctx.grid.max_inv + 1)
        for t in range(1, 5):
            for r in range(1, 4 - t + 2):
                vals = ctx.engine.cycle_hp_fn(t, r)(ys)
                second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
                assert second_diff.min() >= -1e-9

    def test_cache_idempotent_and_bounded(self, rng):
        ctx = SolveContext(random_desk_instance(rng, horizon=5))
        eng = ctx.engine
        ys = np.arange(ctx.grid.min_inv, ctx.grid.max_inv + 1)
        first = eng.cycle_hp_fn(2, 3)(ys)
        stored = eng.stored_states
        assert np.array_equal(eng.cycle_hp_fn(2, 3)(ys), first)
        assert eng.stored_states == stored
        total_dmax = sum(ctx.demand.period(t).max_value for t in range(1, 6))
        x_range = ctx.grid.size + total_dmax
        assert eng.stored_states <= (ctx.instance.T + 1) ** 2 * x_range

    def test_cycle_parts_is_the_one_sum_of_hp_and_tail(self, rng, monkeypatch):
        # hp on the positions from lo, and its sum with the tail, bitwise; under
        # full backlogging cycle_curve returns that very curve, from lo or
        # from the grid floor
        seen = []
        parts = CycleCostEngine.cycle_parts

        def recording(self, *args):
            seen.append(parts(self, *args))
            return seen[-1]

        monkeypatch.setattr(CycleCostEngine, "cycle_parts", recording)
        for _ in range(6):
            ctx = SolveContext(random_desk_instance(rng, horizon=4))
            eng, grid = ctx.engine, ctx.grid
            t = int(rng.integers(1, 5))
            r = int(rng.integers(1, 6 - t))
            lo = int(rng.integers(grid.min_inv, 1))
            hi = int(rng.integers(0, grid.max_inv + 1))
            future = rng.uniform(0.0, 100.0, hi - lo + 1)
            hp, curve = eng.cycle_parts(t, r, future, lo)
            assert np.array_equal(hp, eng.cycle_hp_fn(t, r)(range(lo, hi + 1)))
            assert np.array_equal(curve, hp + eng.tail(t, r, future))
            assert eng.cycle_curve(t, r, future, lo) is seen[-1][1]
            assert np.array_equal(seen[-1][1], curve)
            whole = rng.uniform(0.0, 100.0, grid.size)
            assert eng.cycle_curve(t, r, whole) is seen[-1][1]
            assert seen[-1][0].shape == whole.shape

    def test_tail_on_a_span_is_that_part_of_the_whole_tail(self, rng):
        # the whole tail is the floor-padded convolution, and a span gives its
        # values there bitwise, also where every demand reaches below future[0]
        point = deterministic_instance([6, 0, 9, 3], K=20.0, W=5.0, b=8.0)
        for inst in [random_desk_instance(rng, horizon=4) for _ in range(4)] + [point]:
            ctx = SolveContext(inst)
            eng = ctx.engine
            for t, r in _all_cycles(inst.T):
                cum = ctx.demand.cumulative(t, t + r)
                for n in (1, 3, ctx.grid.size):
                    future = rng.uniform(0.0, 100.0, n)
                    padded = np.concatenate((np.full(cum.max_value, future[0]), future))
                    whole = eng.tail(t, r, future)
                    assert np.array_equal(whole, np.convolve(padded, cum.probs, "valid")[:n])
                    a = int(rng.integers(0, n))
                    b = int(rng.integers(a, n))
                    for span in ((a, b), (0, 0), (n - 1, n - 1), (0, n - 1)):
                        part = eng.tail(t, r, future, span)
                        assert np.array_equal(part, whole[span[0] : span[1] + 1]), (t, r, span)


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


def _record_pieces(monkeypatch):
    """(period, length, lo, hi) of every hp piece the engines convolve."""
    pieces = []
    grow, step = CycleCostEngine._grow, CycleCostEngine.step

    def growing(engine, u, k, a, b):
        growing.length = k
        grow(engine, u, k, a, b)

    def recording(engine, u, lo, hi, nxt):
        pieces.append((u, growing.length, lo, hi))
        return step(engine, u, lo, hi, nxt)

    monkeypatch.setattr(CycleCostEngine, "_grow", growing)
    monkeypatch.setattr(CycleCostEngine, "step", recording)
    return pieces


def _convolved_twice(pieces) -> int:
    """Number of (period, length, position) values in more than one piece."""
    spans = {}
    for u, k, lo, hi in pieces:
        spans.setdefault((u, k), []).append((lo, hi))
    twice = 0
    for runs in spans.values():
        top = -math.inf
        for lo, hi in sorted(runs):
            twice += max(0, min(hi, top) - lo + 1)
            top = max(top, hi)
    return twice


class TestCurveRecursion:
    """The memoised curve recursion against the level recursion it replaced."""

    def _assert_bitwise(self, inst, rng):
        # every read, whatever the reads before it grew, is the recursion on
        # its span: on one context the whole grid, deepest first (the
        # engine's own build order) and then the reverse; on fresh ones a
        # random window and then the grid, in both orders
        ref = SolveContext(inst)
        grid = ref.grid
        levels = np.arange(grid.min_inv, grid.max_inv + 1)
        want = {(t, r): level_recursion_hp(ref, t, r) for t, r in _all_cycles(inst.T)}
        ctx = SolveContext(inst)
        for t, r in _all_cycles(inst.T) + _all_cycles(inst.T)[::-1]:
            hp = ctx.engine.cycle_hp_fn(t, r)(levels)
            assert np.array_equal(hp, want[(t, r)]), (t, r)
        for cycles in (_all_cycles(inst.T), _all_cycles(inst.T)[::-1]):
            ctx = SolveContext(inst)
            for t, r in cycles:
                lo, hi = sorted(int(y) for y in rng.integers(grid.min_inv, grid.max_inv + 1, 2))
                span = want[(t, r)][lo - grid.min_inv : hi - grid.min_inv + 1]
                hp = ctx.engine.cycle_hp_fn(t, r)
                assert np.array_equal(hp(range(lo, hi + 1)), span), (t, r, lo, hi)
                assert np.array_equal(hp(levels), want[(t, r)]), (t, r)

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
        # reads of the whole grid convolve no value twice; a curve read
        # before the reach's power of two rose grows again by one piece
        # below, at most once per value of R: in random order, and by
        # increasing length, which raises the reach one at a time
        inst = random_desk_instance(rng, horizon=6)
        cycles = _all_cycles(inst.T)
        grid = SolveContext(inst).grid
        levels = np.arange(grid.min_inv, grid.max_inv + 1)
        pieces = _record_pieces(monkeypatch)
        for order in (rng.permutation(cycles), sorted(cycles, key=lambda c: c[1])):
            ctx = SolveContext(inst)
            pieces.clear()
            for t, r in order:
                ctx.engine.cycle_hp_fn(int(t), int(r))(levels)
            assert _convolved_twice(pieces) == 0
            per_curve = collections.Counter((u, k) for u, k, _, _ in pieces)
            assert len(per_curve) == len(cycles)
            assert max(per_curve.values()) <= math.ceil(math.log2(inst.T)) + 1
            # a repeated query only reads the memo
            built = len(pieces)
            for t, r in cycles:
                ctx.engine.cycle_hp_fn(t, r)(levels)
            assert len(pieces) == built
        # a long cycle builds its whole chain at once, one convolution each
        ctx = SolveContext(inst)
        calls = _count_convolutions(monkeypatch)
        ctx.engine.cycle_hp_fn(1, inst.T)(levels)
        assert len(calls) == inst.T

    def test_solve_then_price_convolves_each_value_once(self, monkeypatch):
        # the sweep reads its window and reads up where hp falls; pricing the
        # policy reads its own window, here inside what the sweep read, and
        # grows nothing; the engine holds exactly what it convolved, and no
        # value was convolved twice
        inst = gen_scalability(20, 1, seed=20)[0]
        ctx = SolveContext(inst)
        pieces = _record_pieces(monkeypatch)
        tables = solve_kconvex(inst, context=ctx)
        assert tables.grid != ctx.grid
        in_sweep = len(pieces)
        expected_cost(inst, extract_policy(tables, inst), context=ctx)
        assert len(pieces) == in_sweep  # the pricing grew no curve
        assert _convolved_twice(pieces) == 0
        assert len({(u, k) for u, k, _, _ in pieces}) < len(pieces)  # some curve grew by pieces
        assert ctx.engine.stored_states == sum(hi - lo + 1 for _, _, lo, hi in pieces)

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


def _cheap_reviews(rng):
    """A T = 8 desk draw with demand of 10 to 40 a period and K and W cut
    twentyfold: short cycles win, so the sweep reads no cycle as long as
    the horizon."""
    inst = random_desk_instance(rng, horizon=8, mean_range=(10.0, 40.0))
    p = inst.params
    return dataclasses.replace(inst, params=dataclasses.replace(p, K=p.K / 20, W=p.W / 20))


def _tables_bits(tables):
    return (
        tables.grid,
        tables.reviews,
        tables.stats,
        {t: table.tobytes() for t, table in tables.cost_to_go.items()},
    )


def _search_bits(res):
    return (
        res.cost.hex(),
        res.schedule,
        res.policy,
        res.stats,
        (res.n_schedules, res.nodes_explored, res.nodes_pruned),
    )


class TestKeptCurves:
    """The engine keeps every curve it grows: what a context computes
    after a sweep convolves none of the sweep's values again, and is
    bitwise what a fresh context computes."""

    def test_a_second_sweep_convolves_nothing(self, monkeypatch):
        inst = gen_scalability(35, 1, seed=35)[0]
        ctx = SolveContext(inst)
        pieces = _record_pieces(monkeypatch)
        first = _tables_bits(solve_kconvex(inst, context=ctx))
        built = len(pieces)
        assert _tables_bits(solve_kconvex(inst, context=ctx)) == first
        assert len(pieces) == built
        assert _tables_bits(solve_kconvex(inst, context=SolveContext(inst))) == first

    @pytest.mark.parametrize("seed", range(3))
    def test_results_match_fresh_contexts(self, seed, monkeypatch):
        # on one context a sweep (every other draw from a tiny window, which
        # must widen), the price of its policy, and the exact search, whose
        # incumbent sweeps again before the search reads cycles of every
        # length: no value is convolved twice, and each result is bitwise
        # that of a fresh context
        rng = np.random.default_rng(700 + seed)
        pieces = _record_pieces(monkeypatch)
        widened = 0
        for k in range(6):
            inst = _cheap_reviews(rng)
            window = tiny_window if k % 2 else (lambda ctx: None)
            ctx = SolveContext(inst)
            pieces.clear()
            tables = _sweep(ctx, _kconvex_table, window=window(ctx))
            policy = extract_policy(tables, inst)
            cost = expected_cost(inst, policy, context=ctx)
            res = enumerate_optimal(inst, context=ctx)
            assert _convolved_twice(pieces) == 0, k
            fresh = SolveContext(inst)
            want = _sweep(fresh, _kconvex_table, window=window(fresh))
            assert _tables_bits(tables) == _tables_bits(want), k
            assert cost.hex() == expected_cost(inst, policy, context=SolveContext(inst)).hex()
            want = enumerate_optimal(inst, context=SolveContext(inst))
            assert _search_bits(res) == _search_bits(want), k
            widened += tables.stats.window_widenings > 0
        assert widened >= 3

    def test_the_sweep_after_the_exact_search_convolves_nothing(self, monkeypatch):
        # the oracle's order: the exact search (its incumbent sweep first),
        # then the sweep, which reads what the incumbent read
        pieces = _record_pieces(monkeypatch)
        for seed in range(4):
            inst = _cheap_reviews(np.random.default_rng(900 + seed))
            ctx = SolveContext(inst)
            enumerate_optimal(inst, context=ctx)
            assert _convolved_twice(pieces) == 0, seed
            built = len(pieces)
            tables = solve_kconvex(inst, context=ctx)
            assert len(pieces) == built, seed
            want = solve_kconvex(inst, context=SolveContext(inst))
            assert _tables_bits(tables) == _tables_bits(want), seed
            pieces.clear()

    def test_scarf_after_a_sweep_convolves_no_value_twice(self, monkeypatch):
        # after the sweep, a schedule reviewing every period reads one-period
        # curves at every period; they grow from what the sweep built, and
        # the tables and the policy's price are bitwise a fresh context's
        inst = gen_scalability(20, 1, seed=20)[0]
        schedule = ReviewSchedule(tuple(range(1, inst.T + 1)))
        pieces = _record_pieces(monkeypatch)

        def run(ctx):
            tables = scarf_fixed_R(inst, schedule, context=ctx)
            cost = expected_cost(inst, extract_policy(tables, inst), context=ctx)
            return _tables_bits(tables), cost.hex()

        ctx = SolveContext(inst)
        solve_kconvex(inst, context=ctx)
        got = run(ctx)
        assert _convolved_twice(pieces) == 0
        assert got == run(SolveContext(inst))


class TestReachSpans:
    """Reads at random (t, r, lo, hi) on one engine, as the reach grows,
    and sweeps from a tiny window that widens: every value the engine holds
    is bitwise the value of its curve read whole from a fresh engine, and
    no curve spans more than the reach rule asks for."""

    @staticmethod
    def _whole(inst):
        # (1, T) first makes R at least T, so every curve (u, k) spans
        # [floor_u, high], the most any read asks of it
        eng = SolveContext(inst).engine
        for t, r in [(1, inst.T)] + _all_cycles(inst.T):
            eng.cycle_hp_fn(t, r)(range(eng._lo, eng._hi + 1))
        for u, held in enumerate(eng._curves[1:], 1):
            for first, curve in held.values():
                assert first == eng._floors[u - 1] and first + curve.shape[0] == eng._hi + 1
        return eng._curves

    def test_random_reads_match_whole_curves(self, rng):
        sweeps = widened = 0
        for n in range(12):
            inst = _cheap_reviews(rng)
            want, ctx = self._whole(inst), SolveContext(inst)
            eng, grid, T = ctx.engine, ctx.grid, inst.T
            longest = [1, 2, 3, T][n % 4]  # the reach grows slowly or at once
            lowest = grid.max_inv
            for m in range(40):
                if n % 2 and m in (10, 30):
                    tables = _sweep(ctx, _kconvex_table, window=tiny_window(ctx))
                    sweeps, widened = sweeps + 1, widened + (tables.stats.window_widenings > 0)
                    lowest = min(lowest, tables.grid.min_inv)
                    continue
                t = int(rng.integers(1, T + 1))
                r = int(rng.integers(1, min(longest, T - t + 1) + 1))
                lo, hi = sorted(int(y) for y in rng.integers(grid.min_inv, grid.max_inv + 1, 2))
                lowest = min(lowest, lo)
                first, curve = want[t][r]
                got = eng.cycle_hp_fn(t, r)(range(lo, hi + 1))
                assert np.array_equal(got, curve[lo - first : hi - first + 1]), (n, t, r, lo, hi)
            reach = 1 << (eng._reach - 1).bit_length()
            for u, held in enumerate(eng._curves[1:], 1):
                for k, (first, curve) in held.items():
                    start = first - want[u][k][0]
                    assert np.array_equal(curve, want[u][k][1][start : start + curve.shape[0]])
                    v = max(1, u - (reach - k))
                    assert first >= lowest + eng._floors[u - 1] - eng._floors[v - 1], (n, u, k)
        assert sweeps == 12 and widened >= 3


class TestMeanBound:
    """J(t, r) of ``mean_bound``, one array for each period t, is the
    least of sum_k L(y - c_k) over y, c_k the cumulative means, and at
    most hp(t, r) at every grid position; with point masses hp attains
    it. The array has the bits of the scalar arithmetic."""

    @staticmethod
    def _check(inst, tight=False):
        ctx = SolveContext(inst)
        p, T = inst.params, inst.T
        L = lambda x: p.h * max(x, 0.0) + p.b * max(-x, 0.0)
        means = [ctx.demand.period(u).mean() for u in range(1, T + 1)]
        levels = np.arange(ctx.grid.min_inv, ctx.grid.max_inv + 1)
        for t in range(1, T + 1):
            J = ctx.engine.mean_bound(t)
            assert J.shape == (T - t + 1,)
            assert J.tobytes() == scalar_mean_bound(ctx, t).tobytes(), t
            assert np.all(J >= np.concatenate(([0.0], J[:-1])) * (1 - 1e-12))  # nondecreasing
            for r in range(1, T - t + 2):
                c = np.cumsum(means[t - 1 : t + r - 1])
                # the piecewise linear sum is least at one of its breakpoints
                brute = min(sum(L(y - ck) for ck in c) for y in c)
                assert math.isclose(J[r - 1], brute, rel_tol=1e-12, abs_tol=1e-9), (t, r)
                hp_min = float(ctx.engine.cycle_hp_fn(t, r)(levels).min())
                assert J[r - 1] <= hp_min + 1e-12 * hp_min, (t, r, J[r - 1], hp_min)
                if tight:  # the cumulative means are integers on the grid
                    assert math.isclose(J[r - 1], hp_min, rel_tol=1e-12, abs_tol=1e-9), (t, r)

    def test_random_desk_instances(self, rng):
        for _ in range(10):
            self._check(random_desk_instance(rng))
        self._check(random_desk_instance(rng, horizon=12, mean_range=(10.0, 40.0)))

    def test_point_masses_attain_the_bound(self, rng):
        for _ in range(10):
            self._check(random_desk_instance(rng, point_masses=True), tight=True)
        self._check(deterministic_instance([0, 3, 0, 7, 5], b=2.0), tight=True)

    @pytest.mark.parametrize("h, b", [(0.0, 5.0), (1.0, 0.0)])
    def test_one_sided_costs(self, rng, h, b):
        # h = 0 puts the minimum at c_r, b = 0 at c_1, where J is 0
        for point_masses in (False, True):
            for _ in range(4):
                inst = random_desk_instance(rng, point_masses=point_masses)
                params = dataclasses.replace(inst.params, h=h, b=b)
                self._check(dataclasses.replace(inst, params=params), tight=point_masses)


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
            levels = np.arange(grid.min_inv, grid.max_inv + 1)
            for t, r in _all_cycles(3):
                future = rng.uniform(0.0, 100.0, grid.size)
                want = [path_sum_cycle_cost(ctx, t, r, y, future) for y in levels]
                got = ctx.engine.cycle_curve(t, r, future)
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=str((t, r)))
            below_grid |= min(ctx.engine._floors) < grid.min_inv
        # near-full backlogging drives next-review states below the grid floor
        assert below_grid == (beta == 0.9)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    def test_backlog_step_reads_the_truncated_states(self, rng, beta):
        # the engine's transition table against a gather of the next values
        # at trunc(x), for the closing inventories x of period u, on values
        # spanning the grid and on values spanning period u + 1's floor
        for ctx in self._contexts(beta):
            eng, high = ctx.engine, ctx.grid.max_inv
            for u in (1, 2, 3):
                pmf, lo = ctx.demand.period(u), eng._floors[u - 1]
                xs = np.arange(lo - pmf.max_value, high - pmf.offset + 1)
                for n in {ctx.grid.size, high - eng._floors[min(u, 2)] + 1}:
                    w = rng.uniform(0.0, 100.0, n)
                    idx = np.clip(costs._truncate(xs, beta) - (high + 1 - n), 0, n - 1)
                    want = eng.step(u, lo, high, w[idx])
                    assert np.array_equal(eng.backlog_step(u, w), want), (u, n)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    def test_lost_sales_policy_cost_matches_path_sums(self, beta):
        for ctx in self._contexts(beta):
            inst = ctx.instance
            policy = extract_policy(solve_lost_sales(inst, context=ctx), inst)
            want = path_sum_policy_cost(ctx, policy)
            assert expected_cost(inst, policy, context=ctx) == pytest.approx(want, rel=1e-9)
