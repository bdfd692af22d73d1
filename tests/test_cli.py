"""Command-line refusals: malformed input files and campaign arguments
exit 2 with a one-line error, before anything is written."""

import json
import math

import pytest

from rss_policy import instance_to_dict, save_instance
from rss_policy.cli import main as cli_main
from conftest import deterministic_instance


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
