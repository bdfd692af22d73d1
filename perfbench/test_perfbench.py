"""Tests of the benchmark's own machinery on tiny (T = 3) instances."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing
import workloads as wl
from rss_policy import CostParams, DemandSpec, Instance
from rss_policy.demand import CumulativeDemandCache, discretize

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def tiny_instance(beta=1.0):
    return Instance(
        T=3,
        params=CostParams(K=60.0, W=20.0, h=1.0, b=8.0),
        I0=0,
        demand=tuple(DemandSpec("poisson", m) for m in (4.0, 7.0, 5.0)),
        beta=beta,
        label="tiny",
    )


def tiny_cases():
    inst = tiny_instance()
    return [
        wl.Case(inst, "kconvex", oracle=True, expected_cost=True, mc_seed=3),
        wl.Case(tiny_instance(beta=0.5), "lost_sales", mc_seed=4),
        wl.Case(inst, "plain", mc_seed=5),
    ]


@pytest.fixture
def traced():
    """A tracer with every hook installed; the hooks are removed afterwards."""
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    try:
        tracing.install_conv_hooks(tracer, patches)
        tracing.install_api_hooks(tracer, patches)
        yield tracer
    finally:
        patches.undo()


class TestSpanArithmetic:
    def test_self_time_excludes_children_and_leaves(self, monkeypatch):
        ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
        monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))
        tracer = tracing.Tracer()
        tracer.begin("bench.instance")  # 0
        tracer.begin("solver.solve")  # 1
        tracer.begin("demand.cumulative")  # 2
        assert tracer.end() == 3.0  # 5
        tracer.leaf("conv.s", 0.5)
        assert tracer.end() == 5.0  # 6
        assert tracer.end() == 10.0  # 10
        assert tracer.self_s["demand.cumulative_s"] == 3.0
        assert tracer.self_s["solver.solve_self_s"] == 5.0 - 3.0 - 0.5
        assert tracer.self_s["conv.s"] == 0.5
        assert tracer.self_s["bench.self_s"] == 10.0 - 5.0
        assert sum(tracer.self_s.values()) == 10.0
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        assert names == ["bench.instance", "solver.solve", "demand.cumulative"]
        assert parents == [-1, 0, 1]

    def test_inactive_wrappers_pass_through(self, traced):
        cache = CumulativeDemandCache([discretize(s) for s in tiny_instance().demand])
        cache.cumulative(1, 4)
        assert not traced.spans and not traced.counts


class TestCumulativeHits:
    def test_hits_and_recursive_calls_are_counted(self, traced):
        cache = CumulativeDemandCache([discretize(s) for s in tiny_instance().demand])
        with traced.instance():
            cache.cumulative(1, 4)  # misses (1,4), (1,3), (1,2) through the recursion
            cache.cumulative(1, 3)  # hit
            cache.cumulative(2, 3)  # miss
        assert traced.counts["demand.cumulative_calls"] == 5
        assert traced.counts["demand.cumulative_hits"] == 1
        assert traced.counts["conv.calls"] == 2  # (1,3) and (1,4) convolve
        assert traced.counts["conv.demand_s"] > 0

    def test_a_new_cache_starts_cold(self, traced):
        pmfs = [discretize(s) for s in tiny_instance().demand]
        with traced.instance():
            CumulativeDemandCache(pmfs).cumulative(1, 2)
            CumulativeDemandCache(pmfs).cumulative(1, 2)
        assert traced.counts["demand.cumulative_hits"] == 0


class TestStatisticsHelpers:
    def test_percentile_matches_numpy(self):
        values = list(np.random.default_rng(0).random(17))
        for p in (0, 10, 50, 90, 99, 100):
            assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))
        assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5

    def test_samples_beyond(self):
        assert run.samples_beyond(20, 50) == 10
        assert run.samples_beyond(100, 90) == 10
        assert run.samples_beyond(100, 95) == 5

    def test_tail_percentile_needs_ten_samples_beyond(self):
        assert run.tail_percentile(6) is None
        assert run.tail_percentile(19) is None
        assert run.tail_percentile(20) == 50.0
        assert run.tail_percentile(100) == 90.0
        assert run.tail_percentile(1000) == 99.0


class TestTracedRun:
    def test_identical_policies_and_full_accounting(self, traced):
        untraced = [wl.run_case(case)[0] for case in tiny_cases()]
        with traced.instance():
            results = [wl.run_case(case)[0] for case in tiny_cases()]
        for a, b in zip(untraced, results):
            assert wl.policy_rows(a.policy) == wl.policy_rows(b.policy)
            assert a.cost == b.cost
            assert wl.gate(b) is None
        accounted = sum(traced.self_s[m] for m in run.SELF_TIME_METRICS)
        assert accounted == pytest.approx(traced.wall_s, rel=1e-9)
        assert set(traced.self_s) <= set(run.SELF_TIME_METRICS)
        for metric in ("solver.solve_self_s", "exact.enumerate_self_s", "costs.cycle_hp_fn_s",
                       "evaluate.simulate_self_s", "evaluate.expected_cost_s"):
            assert traced.self_s[metric] > 0
        assert traced.counts["exact.scarf_s"] > 0
        assert traced.counts["costs.cycle_hp_fn_calls"] > 0


class TestReference:
    def test_mismatch_is_reported(self):
        res, _ = wl.run_case(tiny_cases()[0])
        entry = wl.reference_entry(0, 0, res)
        assert wl.reference_mismatch(entry, res) is None
        moved = json.loads(json.dumps(entry))
        moved["policy"][0][2] += 1
        assert "policy" in wl.reference_mismatch(moved, res)
        costly = dict(entry, cost=entry["cost"] * (1 + 1e-6))
        assert "cost" in wl.reference_mismatch(costly, res)

    def test_streams_are_seeded(self):
        for name in wl.WORKLOADS:
            a = [c.instance for c in wl.prepare(name, 5)(1)]
            b = [c.instance for c in wl.prepare(name, 5)(1)]
            c = [c.instance for c in wl.prepare(name, 6)(1)]
            assert a == b
            assert a != c

    def test_non_optimal_cells_exist(self):
        cells = {i.label for i in wl.testbed.gen_analysis(wl.FACTORIAL_T)}
        assert set(wl.NON_OPTIMAL_CELLS) <= cells


class TestContract:
    def test_benchmark_json_lists_the_emitted_metrics(self):
        doc = json.loads(BENCHMARK_JSON.read_text())
        assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS

    def test_exits_nonzero_without_sources(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(run, "SRC", tmp_path / "src")
        assert run.main(["--workload", "scal_long", "--seed", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_mix_keeps_both_plain_paths(self):
        solvers = [case.solver for case in wl.prepare("plain_search", 0)(0)]
        assert "plain" in solvers and "lost_sales" in solvers
