"""Instance and policy JSON documents: round trips and schema errors."""

import dataclasses
import json
import math
import re

import pytest

from rss_policy import (
    CostParams,
    DemandSpec,
    Policy,
    PolicyReview,
    SchemaError,
    gen_scalability,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_instance,
)
from conftest import deterministic_instance

_POLICY = Policy(horizon=4, reviews=(PolicyReview(1, 3, 5, 20), PolicyReview(4, 1, -2, 7)))


def _doc(**changes):
    doc = instance_to_dict(gen_scalability(3, 1, seed=3)[0])
    doc.update(changes)
    return doc


class TestInstanceDocuments:
    @pytest.mark.parametrize("beta, label", [(1.0, None), (0.5, "half"), (0.0, "lost")])
    def test_round_trip(self, tmp_path, beta, label):
        inst = dataclasses.replace(
            deterministic_instance([4, 0, 7], K=30.0, W=5.0, I0=-2), beta=beta, label=label
        )
        assert instance_from_dict(instance_to_dict(inst)) == inst
        assert ("label" in instance_to_dict(inst)) == (label is not None)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_unknown_and_missing_keys(self):
        with pytest.raises(SchemaError, match="unknown instance keys"):
            instance_from_dict(_doc(alpha=1.0))
        doc = _doc()
        del doc["beta"]
        with pytest.raises(SchemaError, match="missing instance keys"):
            instance_from_dict(doc)
        with pytest.raises(SchemaError, match="bad demand entry"):
            instance_from_dict(_doc(demand=[{"kind": "poisson", "mean": 3.0, "sd": 1.0}] * 3))
        with pytest.raises(SchemaError, match="needs kind and mean"):
            instance_from_dict(_doc(demand=[{"kind": "poisson"}] * 3))
        with pytest.raises(SchemaError, match="one entry per period"):
            instance_from_dict(_doc(T=4))

    @pytest.mark.parametrize(
        "changes",
        [
            {"K": None},
            {"I0": None},
            {"beta": None},
            {"I0": math.inf},
            {"beta": 1.5},
            {"demand": [{"kind": "normal", "mean": 3.0, "cv": None}] * 3},
            {"demand": [{"kind": "poisson", "mean": [3.0]}] * 3},
            {"demand": [{"kind": "gamma", "mean": 3.0}] * 3},
        ],
    )
    def test_bad_values_raise_schema_error(self, changes):
        # each of the first six raised TypeError, OverflowError or a bare ValueError
        with pytest.raises(SchemaError):
            instance_from_dict(_doc(**changes))

    @pytest.mark.parametrize("key", ["K", "W", "h", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_costs_must_be_finite(self, key, value):
        # K = NaN solved to a policy that never orders; b = NaN priced it at NaN
        params = {"K": 1.0, "W": 1.0, "h": 1.0, "b": 1.0, key: value}
        with pytest.raises(ValueError, match="finite"):
            CostParams(**params)
        with pytest.raises(SchemaError, match="finite"):
            instance_from_dict(_doc(**{key: value}))

    @pytest.mark.parametrize("field", ["mean", "cv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_demand_must_be_finite(self, field, value):
        # normal demand with cv = inf ended in an OverflowError
        spec = {"kind": "normal", "mean": 5.0, "cv": 0.2, field: value}
        with pytest.raises(ValueError, match="finite"):
            DemandSpec(**spec)
        with pytest.raises(SchemaError, match="finite"):
            instance_from_dict(_doc(demand=[spec] * 3))


    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"I0": 2.7}, "I0"),  # loaded as I0 = 2
            ({"T": 3.5}, "T"),
            ({"K": True}, "K"),  # solved as K = 1
            ({"K": "5"}, "K"),  # solved as K = 5
            ({"beta": True}, "beta"),  # solved as beta = 1
            ({"h": 10**400}, "h"),
            ({"I0": 10**400}, "I0"),
            ({"T": False}, "T"),
            ({"label": 5}, "label"),  # loaded
            ({"label": None}, "label"),
            ({"demand": [{"kind": "poisson", "mean": "30"}] * 3}, "demand[0].mean"),
            ({"demand": [{"kind": "normal", "mean": 30.0, "cv": True}] * 3}, "demand[0].cv"),
        ],
    )
    def test_refused_values_name_the_key(self, changes, key):
        with pytest.raises(SchemaError, match=f"^{re.escape(key)} "):
            instance_from_dict(_doc(**changes))

    def test_integral_floats_are_integers(self):
        inst = instance_from_dict(_doc(T=3.0, I0=-2.0, K=5, beta=1))
        assert (inst.T, inst.I0) == (3, -2) and type(inst.T) is type(inst.I0) is int
        assert (inst.params.K, inst.beta) == (5.0, 1.0)
        assert inst == instance_from_dict(_doc(I0=-2, K=5.0))


class TestPolicyDocuments:
    def test_round_trip(self, tmp_path):
        doc = policy_to_dict(_POLICY, expected_cost=12.5)
        assert doc["expected_cost"] == 12.5
        assert policy_from_dict(doc, horizon=4) == _POLICY
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        assert load_policy(path, horizon=4) == _POLICY

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"reviews": 5},
            {"reviews": [{"t": 1, "R": 4, "s": 0}]},
            {"reviews": [{"t": 1, "R": 4, "s": None, "S": 3}]},
            {"reviews": [{"t": 1, "R": 4, "s": "low", "S": 3}]},
            {"reviews": [{"t": 1, "R": 3, "s": 0, "S": 3}]},  # ends before the horizon
        ],
    )
    def test_malformed_raises_schema_error(self, doc):
        with pytest.raises(SchemaError):
            policy_from_dict(doc, horizon=4)

    @pytest.mark.parametrize(
        "key, value",
        [("S", 20.5), ("t", True), ("R", "3"), ("s", math.nan), ("S", math.inf), ("R", 10**400)],
        ids=["S-fraction", "t-true", "R-string", "s-nan", "S-inf", "R-huge"],
    )
    def test_refused_values_name_the_key(self, key, value):
        # the first three were evaluated as S = 20, t = 1 and R = 3
        doc = policy_to_dict(_POLICY)
        doc["reviews"][0][key] = value
        with pytest.raises(SchemaError, match=rf"^reviews\[0\]\.{key} "):
            policy_from_dict(doc, horizon=4)

    def test_integral_floats_are_integers(self):
        doc = policy_to_dict(_POLICY)
        doc["reviews"][1].update(t=4.0, R=1.0, s=-2.0, S=7.0)
        policy = policy_from_dict(doc, horizon=4)
        assert policy == _POLICY and type(policy.reviews[1].order_up_to) is int


class TestFiles:
    def test_unreadable_and_invalid_files(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_instance(tmp_path / "missing.json")
        with pytest.raises(SchemaError, match="cannot read"):
            load_policy(tmp_path, horizon=3)  # a directory
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_instance(bad)
        bad.write_bytes(b"\xff\xfe")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_policy(bad, horizon=3)
