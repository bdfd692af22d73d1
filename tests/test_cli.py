"""Command-line behaviour: malformed input files and campaign arguments
exit 2 with a one-line error, before anything is written, a grid too
large for memory exits 3 and a write failure 4; ``evaluate`` prices a
policy analytically once, and the campaigns write their reports."""

import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rss_policy
from rss_policy import cli, evaluate, instance_to_dict, load_instance, save_instance
from rss_policy.cli import main as cli_main
from conftest import (
    deterministic_instance,
    overflow_instance,
    random_desk_instance,
)


def _instance_doc():
    return instance_to_dict(deterministic_instance([4, 0, 7], K=30.0, W=5.0))


def _normal_demand(cv):
    return [{"kind": "normal", "mean": 5.0, "cv": cv}] * 3


_BAD_INSTANCES = {
    "K-null": {"K": None},
    "I0-null": {"I0": None},
    "beta-null": {"beta": None},
    "cv-null": {"demand": _normal_demand(None)},
    "mean-list": {"demand": [{"kind": "poisson", "mean": [5.0]}] * 3},
    "K-nan": {"K": math.nan},
    "b-nan": {"b": math.nan},
    "h-inf": {"h": math.inf},
    "cv-inf": {"demand": _normal_demand(math.inf)},
    # cv * mean overflowed to inf and the demand cut to int raised
    # OverflowError (a traceback, exit 1)
    "sigma-inf": {"demand": [{"kind": "normal", "mean": 1e300, "cv": 1e10}] * 3},
    # each of these solved, to the cost of another instance
    "I0-fraction": {"I0": 2.7},
    "K-true": {"K": True},
    "K-string": {"K": "5"},
    "beta-true": {"beta": True},
    "label-int": {"label": 5},
}


@pytest.mark.parametrize("case", sorted(_BAD_INSTANCES))
def test_bad_instance_file_exits_2(tmp_path, capsys, case):
    # each ended in a traceback (exit 1) or solved to a wrong cost (exit 0)
    doc = _instance_doc()
    doc.update(_BAD_INSTANCES[case])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_out_of_memory_exits_3(tmp_path, capsys):
    # a grid reaching I0 would not fit in any address space, so it is
    # refused where it is built, before anything is allocated; 1e20 and
    # -1e308 overflowed int64 in the cost engine (a traceback, exit 1)
    # and 2**62 failed in numpy as an input error (exit 2)
    path = tmp_path / "inst.json"
    for I0 in (10**15, 2**62, 1e20, -1e308):
        doc = _instance_doc()
        doc["I0"] = I0
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path)]) == 3, I0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _normal_periods(mean, cv, T):
    doc = _instance_doc()
    doc.update(T=T, demand=[{"kind": "normal", "mean": mean, "cv": cv}] * T)
    return doc


# a convolution count of 10**600 and more, which {:.3g} could not format as
# a float, must be stated, not understated
_HUGE_COUNT = r"needs \d\.\d\de\+6\d\d multiply-adds"


@pytest.mark.parametrize(
    "doc, reason",
    [
        # both ended in an OverflowError traceback (exit 1): the work bound's
        # count was formatted as a float, and the grid ceiling 1.1 * m of a
        # point mass overflowed as it was sized
        (_normal_periods(1e300, 0.1, 2), _HUGE_COUNT),
        (_normal_periods(1e300, 1.0, 2), _HUGE_COUNT),
        (_normal_periods(1e300, 1e6, 2), _HUGE_COUNT),
        (_normal_periods(1.7e308, 0.0, 1), "out of memory: the inventory grid"),
        (_normal_periods(1.7e308, 0.0, 2), "out of memory: the inventory grid"),
    ],
    ids=["mean1e300-cv0.1", "mean1e300-cv1", "mean1e300-cv1e6", "mass1.7e308-T1",
         "mass1.7e308-T2"],
)
def test_extreme_valid_demand_exits_3(tmp_path, capsys, doc, reason):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert re.search(reason, captured.err), captured.err


def test_policy_below_every_position_never_orders(tmp_path, capsys):
    # s = S = -10**19 lies below int64 once shifted into the rollout's
    # positions, and --simulate ended in an OverflowError traceback (exit 1);
    # like s = S = -10**6 it never orders, so the two reports are equal
    inst = tmp_path / "inst.json"
    save_instance(rss_policy.gen_scalability(3, 1, seed=3)[0], inst)
    policy = tmp_path / "policy.json"
    for simulate in ([], ["--simulate", "100"]):
        reports = []
        for level in (-(10**19), -(10**6)):
            policy.write_text(json.dumps({"reviews": [{"t": 1, "R": 3, "s": level, "S": level}]}))
            assert cli_main(["evaluate", str(inst), "--policy", str(policy)] + simulate) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            reports.append(captured.out)
        assert reports[0] == reports[1], simulate
        assert json.loads(reports[0])["expected_cost"] == 3877.1547842457294


def test_costs_that_overflow_exit_2(tmp_path, capsys):
    # solve stopped with KeyError: 2 (exit 1), and evaluate printed
    # {"expected_cost": Infinity}, which is not JSON, and exited 0
    def refused(argv, reason):
        assert cli_main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err

    paths = {hb: tmp_path / f"inst{hb:g}.json" for hb in (1e308, 1e307)}
    for hb, path in paths.items():
        save_instance(overflow_instance(hb), path)
    for solver in cli.SOLVERS:
        refused(["solve", str(paths[1e308]), "--solver", solver], "the costs overflow")
    assert cli_main(["solve", str(paths[1e307])]) == 0
    policy = tmp_path / "policy.json"
    policy.write_text(capsys.readouterr().out)
    evaluate = ["evaluate", str(paths[1e308]), "--policy", str(policy)]
    refused(evaluate, "the costs overflow")
    refused(evaluate + ["--simulate", "1000"], "the costs overflow")
    # costs that fit float64 whose sums do not: the root cost at I0 = 1000
    # is refused, and the Monte-Carlo mean of 1000 paths that cost about
    # 3.5e307 each, refused too until it was taken on the scaled costs, is not
    high = tmp_path / "high.json"
    save_instance(overflow_instance(1e307, I0=1000), high)
    refused(["solve", str(high)], "the costs overflow")
    argv = ["evaluate", str(paths[1e307]), "--policy", str(policy), "--simulate", "1000"]
    assert cli_main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["mc_mean"] - report["expected_cost"]) <= 3 * report["mc_halfwidth_95"]


def test_negative_simulation_seed_exits_2(tmp_path, capsys):
    # numpy refused it after pricing, as "expected non-negative integer"
    inst = tmp_path / "inst.json"
    save_instance(deterministic_instance([4, 0, 7], K=30.0, W=5.0), inst)
    assert cli_main(["solve", str(inst)]) == 0
    policy = tmp_path / "policy.json"
    policy.write_text(capsys.readouterr().out)
    argv = ["evaluate", str(inst), "--policy", str(policy), "--simulate", "10", "--seed", "-1"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: the seed must be an integer of at least 0, not -1\n"


def test_benchmark_runs_at_T_what_gen_writes_at_seed_plus_T(tmp_path, monkeypatch, capsys):
    # gen scalability seeds its batch with --seed, and benchmark scalability
    # seeds horizon T's batch with --seed + T, under the same labels
    ran = []
    monkeypatch.setattr(cli, "_benchmark_instance", lambda inst, *a, **k: ran.append(inst) or [])
    argv = ["benchmark", "scalability", "--t-min", "3", "--t-max", "4", "--n", "2", "--seed", "5"]
    assert cli_main(argv + ["--skip-oracle", "--out", str(tmp_path / "bench")]) == 0
    for T in (3, 4):
        for seed, out in ((5, "same"), (5 + T, "shifted")):
            argv = ["gen", "scalability", "--t", str(T), "--n", "2", "--seed", str(seed)]
            assert cli_main(argv + ["--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    shifted, same = (
        [load_instance(p) for p in sorted((tmp_path / out).glob("*.json"))]
        for out in ("shifted", "same")
    )
    assert [inst.label for inst in ran] == [inst.label for inst in same]
    assert ran == shifted and all(a != b for a, b in zip(ran, same))


def test_costs_that_overflow_print_no_numpy_warnings(tmp_path):
    # numpy's RuntimeWarning lines went to stderr, after a solve that
    # exited 0 and before the error line of one that exited 2
    env = {**os.environ, "PYTHONPATH": str(Path(rss_policy.__file__).parents[1])}
    for hb, code in ((1e307, 0), (1e308, 2)):
        path = tmp_path / f"inst{hb:g}.json"
        save_instance(overflow_instance(hb), path)
        argv = [sys.executable, "-m", "rss_policy.cli", "solve", str(path)]
        out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == code, out.stderr
        if code:
            assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        else:
            assert out.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "i.json", "--tail-eps", "1e-4"],
        ["evaluate", "i.json", "--policy", "p.json", "--grid-eps", "1e-4"],
    ],
)
def test_discretization_is_not_an_option(capsys, argv):
    # --tail-eps and --grid-eps let solve and evaluate price one policy on
    # two discretizations (1407.963 against 1409.238)
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["directory", "missing", "reviews-int", "review-null"])
def test_bad_input_paths_exit_2(tmp_path, capsys, case):
    inst_path = tmp_path / "inst.json"
    save_instance(deterministic_instance([4, 0, 7]), inst_path)
    policy_path = tmp_path / "policy.json"
    if case == "reviews-int":
        policy_path.write_text('{"reviews": 5}')
    elif case == "review-null":
        policy_path.write_text('{"reviews": [{"t": 1, "R": 3, "s": null, "S": 4}]}')
    if case == "directory":
        argv = ["solve", str(tmp_path)]
    elif case == "missing":
        argv = ["evaluate", str(inst_path), "--policy", str(tmp_path / "none.json")]
    else:
        argv = ["evaluate", str(inst_path), "--policy", str(policy_path)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("simulate", [[], ["--simulate", "500"]])
def test_evaluate_prices_the_policy_once(tmp_path, capsys, monkeypatch, rng, simulate):
    # simulate's report carries the analytic cost, so evaluate prices
    # the policy once with or without --simulate
    inst_path = tmp_path / "inst.json"
    save_instance(random_desk_instance(rng, horizon=4), inst_path)
    assert cli_main(["solve", str(inst_path)]) == 0
    policy_path = tmp_path / "policy.json"
    solved = capsys.readouterr().out
    policy_path.write_text(solved)
    calls = []
    priced = evaluate.expected_cost

    def counted(*args, **kwargs):
        calls.append(args)
        return priced(*args, **kwargs)

    monkeypatch.setattr(cli, "expected_cost", counted)
    monkeypatch.setattr(evaluate, "expected_cost", counted)
    assert cli_main(["evaluate", str(inst_path), "--policy", str(policy_path)] + simulate) == 0
    assert len(calls) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected_cost"] == pytest.approx(json.loads(solved)["expected_cost"], rel=1e-9)
    assert ("mc_mean" in doc) == bool(simulate)


_BENCH = ["benchmark", "scalability", "--t-min", "2", "--t-max", "2", "--n", "1",
          "--skip-oracle"]
_REFUSED_CAMPAIGNS = {
    "unknown-solver": _BENCH + ["--solvers", "kconvex,foo"],
    "no-solver": _BENCH + ["--solvers", " , "],
    "empty-solvers": _BENCH + ["--solvers", ""],
    "no-analysis-horizon": ["benchmark", "analysis", "--t-min", "5", "--t-max", "8"],
    "empty-range": ["benchmark", "scalability", "--t-min", "5", "--t-max", "4"],
    "benchmark-n0": ["benchmark", "scalability", "--t-min", "2", "--t-max", "2", "--n", "0"],
    "gen-n0": ["gen", "scalability", "--t", "2", "--n", "0"],
    "gen-analysis-horizon": ["gen", "analysis", "--t", "5"],
}


@pytest.mark.parametrize("case", sorted(_REFUSED_CAMPAIGNS))
def test_campaign_refuses_before_writing(tmp_path, capsys, case):
    # the output directory and a header-only report.csv were written first,
    # and an empty solver list or horizon range exited 0
    out = tmp_path / "out"
    assert cli_main(_REFUSED_CAMPAIGNS[case] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_campaign_writes_report(tmp_path):
    out = tmp_path / "out"
    assert cli_main(_BENCH + ["--solvers", "kconvex, plain", "--out", str(out)]) == 0
    assert (out / "report.csv").read_text().count("\n") == 3
    assert cli_main(["gen", "scalability", "--t", "2", "--n", "2", "--out", str(out)]) == 0
    assert len(list(out.glob("scal-T2-*.json"))) == 2


def test_benchmark_times_each_solve_on_a_fresh_context(tmp_path, monkeypatch):
    # a shared context let every solve after the first reuse the cost
    # curves it built, so the times depended on --reps and on the oracle
    built = []

    class CountingContext(cli.SolveContext):
        def __init__(self, instance, *args, **kwargs):
            built.append(instance.label)
            super().__init__(instance, *args, **kwargs)

    monkeypatch.setattr(cli, "SolveContext", CountingContext)
    argv = ["benchmark", "scalability", "--t-min", "2", "--t-max", "2", "--n", "1",
            "--solvers", "plain,kconvex", "--reps", "2", "--out", str(tmp_path / "b")]
    assert cli_main(argv) == 0
    assert len(built) == 1 + 4  # the oracle, then two repetitions of each solver


_FACTORIAL_CELLS = {
    "analysis-T10-K20-W160-poisson-STA",
    "analysis-T10-K160-W20-normal0.2-INC",
    "analysis-T10-K20-W20-normal0.4-RAND",
    "analysis-T10-K320-W40-poisson-DEC",
}


def test_factorial_campaign_writes_summary(tmp_path, monkeypatch):
    # four cells of the T = 10 design; the K and W levels sorted as
    # strings (160 before 20) in summary.csv
    cells = [inst for inst in cli.gen_analysis(10) if inst.label in _FACTORIAL_CELLS]
    monkeypatch.setattr(cli, "gen_analysis", lambda T, seed=0: list(cells))
    out = tmp_path / "out"
    argv = ["benchmark", "analysis", "--t-min", "10", "--t-max", "10",
            "--solvers", "plain,kconvex,exact", "--out", str(out)]
    assert cli_main(argv) == 0
    with (out / "report.csv").open() as fh:
        report = list(csv.DictReader(fh))
    assert list(report[0]) == cli.REPORT_COLUMNS
    assert len(report) == 4 * 3
    for row in report:
        assert row["optimality_gap_pct"] != ""
        if row["solver"] == "exact":
            assert float(row["optimality_gap_pct"]) == 0.0
    with (out / "summary.csv").open() as fh:
        summary = list(csv.DictReader(fh))
    assert list(summary[0]) == cli.SUMMARY_COLUMNS
    levels = {
        "K": ["20", "160", "320"],
        "W": ["20", "40", "160"],
        "sigma": ["0.2", "0.4", "poisson"],
        "pattern": ["DEC", "INC", "RAND", "STA"],
    }
    expected = [(f, lv, s) for f in levels for lv in levels[f] for s in ("exact", "kconvex", "plain")]
    assert [(r["factor"], r["level"], r["solver"]) for r in summary] == expected
    for row in summary:
        assert row["mean_gap_pct"] != "" and row["pct_non_optimal"] != ""
        if row["solver"] == "exact":
            assert float(row["mean_gap_pct"]) == 0.0 and float(row["pct_non_optimal"]) == 0.0


_GEN = ["gen", "scalability", "--t", "2", "--n", "1"]
_WRITE_FAILURES = {
    "benchmark-out-is-file": (_BENCH, "file"),
    "gen-out-is-file": (_GEN, "file"),
    "report-is-directory": (_BENCH, "report-dir"),
    # these three ended in an OSError traceback (exit 1) on `> /dev/full`
    "solve-stdout": (["solve", "inst.json"], "stdout"),
    "evaluate-stdout": (["evaluate", "inst.json", "--policy", "policy.json"], "stdout"),
    "gen-stdout": (_GEN, "stdout"),
}


class _FullStdout:
    """An unbuffered stdout on a full disk: every write raises."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize("case", sorted(_WRITE_FAILURES))
def test_write_failure_exits_4(tmp_path, capsys, monkeypatch, case):
    argv, kind = _WRITE_FAILURES[case]
    out = tmp_path / "out"
    if kind == "file":
        out.write_text("")
    elif kind == "report-dir":
        (out / "report.csv").mkdir(parents=True)
    else:
        inst = deterministic_instance([4, 0, 7], K=30.0, W=5.0)
        save_instance(inst, tmp_path / "inst.json")
        policy = {"reviews": [{"t": 1, "R": 3, "s": 8, "S": 11}]}
        (tmp_path / "policy.json").write_text(json.dumps(policy))
        monkeypatch.setattr(sys, "stdout", _FullStdout())
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    if argv[0] in ("benchmark", "gen"):
        argv += ["--out", str(out)]
    assert cli_main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_solve_to_a_full_device_exits_4(tmp_path, unbuffered):
    # a block-buffered stdout kept the bytes it failed to write, failed
    # again at interpreter exit and turned the status into 120
    path = tmp_path / "inst.json"
    save_instance(deterministic_instance([4, 0, 7], K=30.0, W=5.0), path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(rss_policy.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = [sys.executable, "-m", "rss_policy.cli", "solve", str(path)]
    with open("/dev/full", "w") as full:
        out = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                             timeout=60)
    assert out.returncode == 4, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


_SOLVE_KEYS = ("T", "K", "W", "h", "b", "I0", "beta")
_WRONG_TYPES = (None, [1.0], {"v": 1.0}, "abc", "", "5", "2.0", True, False)
_NON_FINITE = (math.nan, math.inf, -math.inf)
_DEFECTS = (
    "missing-key", "unknown-key", "wrong-type", "non-finite", "huge", "huge-I0", "huge-mean",
    "short-horizon", "beta-range", "demand-length", "demand-kind", "demand-value",
    "demand-entry", "non-integral", "label",
)


def _malformed_instance(rng):
    """A valid three-period instance document with one defect drawn by ``rng``."""
    doc = instance_to_dict(deterministic_instance([4, 0, 7], K=30.0, W=5.0))
    doc["demand"] = [
        {"kind": "poisson", "mean": 4.0, "cv": 0.0},
        {"kind": "normal", "mean": 6.0, "cv": 0.3},
        {"kind": "poisson", "mean": 2.5},
    ]
    entry = doc["demand"][int(rng.integers(3))]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    defect = pick(_DEFECTS)
    if defect == "missing-key":
        del doc[pick(_SOLVE_KEYS + ("demand",))]
    elif defect == "unknown-key":
        doc[pick(["k", "i0", "Beta", "demands", "horizon"])] = 1.0
    elif defect == "wrong-type":
        doc[pick(_SOLVE_KEYS + ("demand",))] = pick(_WRONG_TYPES)
    elif defect == "non-finite":
        doc[pick(_SOLVE_KEYS)] = pick(_NON_FINITE)
    elif defect == "huge":
        # float() overflows on 10**400; no demand list matches a horizon of 10**20
        key = pick(("K", "W", "h", "b", "beta", "T"))
        doc[key] = 10**20 if key == "T" else pick([10**400, -(10**400)])
    elif defect == "huge-I0":
        # a grid reaching I0 has at least 2 * 10**14 levels (exit 3), and
        # an I0 beyond the float range is refused as input (exit 2)
        doc["I0"] = pick([1, -1]) * pick([10 ** int(rng.integers(14, 400)),
                                          10.0 ** int(rng.integers(14, 309))])
    elif defect == "huge-mean":
        # refused before any pmf is built: pdtrik gives NaN for the Poisson
        # cut, the normal cut is too long for an array, and a normal point
        # mass puts the grid ceiling past 10**20
        entry.update(kind=pick(["poisson", "normal"]), mean=pick([1e20, 1e300]),
                     cv=pick([0.0, 0.3]))
    elif defect == "short-horizon":
        doc["T"] = int(rng.integers(-3, 1))
        doc["demand"] = doc["demand"][: max(doc["T"], 0)]
    elif defect == "beta-range":
        doc["beta"] = pick([-1e-12, -0.5, 1.0 + 1e-12, 2.0])
    elif defect == "demand-length":
        doc["demand"] = pick([doc["demand"][:2], doc["demand"] + [entry], []])
    elif defect == "demand-kind":
        entry["kind"] = pick(["gamma", "Poisson", "", None, 3])
    elif defect == "non-integral":
        doc[pick(("T", "I0"))] = pick([2.7, 3.5, -0.5, 1e-9, 3.000001])
    elif defect == "label":
        doc["label"] = pick([5, 2.5, True, None, ["scal"], {"name": "scal"}])
    elif defect == "demand-value":
        entry[pick(["mean", "cv"])] = pick(
            _WRONG_TYPES + _NON_FINITE + (-1.0, 10**400, -(10**400))
        )
    else:  # demand-entry
        change = pick(["drop-kind", "drop-mean", "unknown-key", "not-a-dict"])
        if change == "drop-kind":
            del entry["kind"]
        elif change == "drop-mean":
            del entry["mean"]
        elif change == "unknown-key":
            entry["sigma"] = 1.0
        else:
            doc["demand"][0] = pick([[4.0], 4.0, None, "poisson"])
    return defect, doc


def test_malformed_instances_exit_cleanly(tmp_path, capsys):
    # seeded documents with one defect each, through every solver; an I0
    # of 1e20 ended in an OverflowError traceback (exit 1)
    rng = np.random.default_rng(20261019)
    path = tmp_path / "inst.json"
    seen = set()
    for i in range(240):
        defect, doc = _malformed_instance(rng)
        seen.add(defect)
        path.write_text(json.dumps(doc))
        solver = cli.SOLVERS[i % len(cli.SOLVERS)]
        code = cli_main(["solve", str(path), "--solver", solver])
        captured = capsys.readouterr()
        assert code in (2, 3), (defect, doc, code)
        assert captured.out == "", (defect, doc)
        assert captured.err.splitlines()[-1].startswith("error:"), (defect, doc)
        assert "Traceback" not in captured.err
    assert seen == set(_DEFECTS)


_POLICY_DEFECTS = (
    "document", "missing-key", "wrong-type", "non-integral", "non-finite", "huge",
    "no-chain", "late-first", "s-above-S", "above-ceiling",
)


_VALID_POLICY = {"reviews": [{"t": 1, "R": 2, "s": 3, "S": 10}, {"t": 3, "R": 1, "s": 2, "S": 9}]}


def _malformed_policy(rng, ceiling):
    """``_VALID_POLICY``, a policy for ``_instance_doc`` (grid ceiling
    ``ceiling``), with one defect drawn by ``rng``."""
    doc = copy.deepcopy(_VALID_POLICY)
    entry = doc["reviews"][int(rng.integers(2))]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    defect = pick(_POLICY_DEFECTS)
    if defect == "document":
        doc = pick([[], {}, None, {"reviews": 5}, {"reviews": {}}, {"reviews": [5]},
                    {"reviews": [None]}, {"reviews": []}])
    elif defect == "missing-key":
        del entry[pick("tRsS")]
    elif defect == "wrong-type":
        entry[pick("tRsS")] = pick(_WRONG_TYPES)
    elif defect == "non-integral":
        entry[pick("tRsS")] = pick([2.5, 0.1, -1.5, 9.000001])
    elif defect == "non-finite":
        entry[pick("tRsS")] = pick(_NON_FINITE)
    elif defect == "huge":
        # a review or cycle past the horizon, a level above the grid, or a
        # number beyond the float range: a reorder level of -10**400 ended
        # the simulation in an OverflowError traceback
        entry[pick("tRsS")] = pick([10**20, 2**63, 1e300, 10**400, -(10**400)])
    elif defect == "no-chain":
        doc["reviews"][0]["R"] = pick([1, 3, 4])
    elif defect == "late-first":
        del doc["reviews"][0]
    elif defect == "s-above-S":
        entry["s"] = entry["S"] + int(rng.integers(1, 50))
    else:  # above-ceiling
        entry["S"] = ceiling + int(rng.integers(1, 1000))
    return defect, doc


def test_malformed_policies_exit_cleanly(tmp_path, capsys):
    # seeded policy documents with one defect each, evaluated analytically
    # and by simulation; S = 144.5, t = true and R = "3" were evaluated as
    # 144, 1 and 3
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_instance_doc()))
    ceiling = cli.SolveContext(cli.load_instance(inst_path)).grid.max_inv
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(_VALID_POLICY))
    assert cli_main(["evaluate", str(inst_path), "--policy", str(policy_path)]) == 0
    capsys.readouterr()
    rng = np.random.default_rng(20261020)
    seen = set()
    for i in range(160):
        defect, doc = _malformed_policy(rng, ceiling)
        seen.add(defect)
        policy_path.write_text(json.dumps(doc))
        argv = ["evaluate", str(inst_path), "--policy", str(policy_path)]
        code = cli_main(argv + (["--simulate", "20"] if i % 2 else []))
        captured = capsys.readouterr()
        assert code in (2, 3), (defect, doc, code)
        assert captured.out == "", (defect, doc)
        assert captured.err.splitlines()[-1].startswith("error:"), (defect, doc)
        assert "Traceback" not in captured.err
    assert seen == set(_POLICY_DEFECTS)


_CAMPAIGN_DEFECTS = (
    "horizon", "n", "reps", "budget", "seed", "solvers", "analysis-horizon",
)


_CHEAP_CAMPAIGNS = {
    "benchmark": ["benchmark", "scalability", "--t-min", "2", "--t-max", "2", "--n", "1",
                  "--skip-oracle", "--solvers", "kconvex"],
    "gen": ["gen", "scalability", "--t", "2", "--n", "1"],
}


def _malformed_campaign(rng):
    """The arguments of a ``_CHEAP_CAMPAIGNS`` run with one defect drawn by
    ``rng``."""

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def nonpositive():
        return str(-int(rng.integers(0, 4)))

    defect = pick(_CAMPAIGN_DEFECTS)
    bench = defect in ("reps", "budget", "solvers") or bool(rng.integers(2))
    argv = list(_CHEAP_CAMPAIGNS["benchmark" if bench else "gen"])
    if defect == "horizon":
        high = nonpositive()
        low = str(int(high) - int(rng.integers(0, 3)))
        argv += ["--t-min", low, "--t-max", high] if bench else ["--t", high]
    elif defect == "n":
        argv += ["--n", nonpositive()]
    elif defect == "reps":
        argv += ["--reps", nonpositive()]
    elif defect == "budget":
        argv += ["--exact-budget", nonpositive()]
    elif defect == "seed":
        argv[1] = pick(["scalability", "analysis"])
        argv += ["--seed", str(-int(rng.integers(1, 30)))]
        if argv[1] == "analysis":
            argv += ["--t-min", "10", "--t-max", "10"] if bench else ["--t", "10"]
    elif defect == "solvers":
        argv += ["--solvers", pick(["", " , ", "foo", "kconvex,bar", "KCONVEX", "exact;plain"])]
    else:  # analysis-horizon
        argv[1] = "analysis"
        if bench:  # a range that holds neither 10 nor 20
            high = pick([-5, 0, 1, 9, 19, 40])
            argv += ["--t-min", str(high - int(rng.integers(0, 3))), "--t-max", str(high)]
        else:
            argv += ["--t", str(pick([-5, 0, 1, 9, 11, 19, 21, 40]))]
    return defect, argv


def test_malformed_campaigns_exit_cleanly(tmp_path, capsys):
    # seeded benchmark and gen arguments with one defect each; a negative
    # --seed ran whenever seed + T was nonnegative
    for name, argv in _CHEAP_CAMPAIGNS.items():
        assert cli_main(argv + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    rng = np.random.default_rng(20261021)
    out = tmp_path / "out"
    seen = set()
    for _ in range(120):
        defect, argv = _malformed_campaign(rng)
        seen.add(defect)
        code = cli_main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2, (defect, argv, code)
        assert captured.err.splitlines()[-1].startswith("error:"), (defect, argv)
        assert "Traceback" not in captured.err
        assert not out.exists(), (defect, argv)
    assert seen == set(_CAMPAIGN_DEFECTS)
