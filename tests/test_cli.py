"""Command-line behaviour: malformed input files and campaign arguments
exit 2 with a one-line error, before anything is written, and
``evaluate`` prices a policy analytically once."""

import json
import math

import pytest

from rss_policy import cli, evaluate, instance_to_dict, save_instance
from rss_policy.cli import main as cli_main
from rss_policy.demand import DEFAULT_TAIL_EPS
from rss_policy.solver import DEFAULT_QUANTILE_EPS
from conftest import deterministic_instance, random_desk_instance


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
    assert captured.err.startswith("error: ")


def test_out_of_memory_exits_3(tmp_path, capsys):
    # the grid spans +-1e15 and the cost engine asks for about 14 PiB,
    # more than any address space holds: a MemoryError traceback exited 1
    doc = _instance_doc()
    doc["I0"] = 10**15
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_eps_defaults_are_the_library_constants():
    parser = cli.build_parser()
    for argv in (["solve", "i.json"], ["evaluate", "i.json", "--policy", "p.json"]):
        args = parser.parse_args(argv)
        assert (args.grid_eps, args.tail_eps) == (DEFAULT_QUANTILE_EPS, DEFAULT_TAIL_EPS)


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
