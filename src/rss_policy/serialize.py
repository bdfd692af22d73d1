"""JSON schemas for instance and policy files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from .costs import CostParams
from .demand import DemandSpec
from .model import Instance, Policy, PolicyReview

_INSTANCE_KEYS = {"T", "K", "W", "h", "b", "I0", "beta", "demand", "label"}
_REQUIRED_KEYS = {"T", "K", "W", "h", "b", "I0", "beta", "demand"}
_DEMAND_KEYS = {"kind", "mean", "cv"}


class SchemaError(ValueError):
    """Malformed instance or policy document."""


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "T": instance.T,
        "K": instance.params.K,
        "W": instance.params.W,
        "h": instance.params.h,
        "b": instance.params.b,
        "I0": instance.I0,
        "beta": instance.beta,
        "demand": [
            {"kind": d.kind, "mean": d.mean, "cv": d.cv} for d in instance.demand
        ],
    }
    if instance.label is not None:
        doc["label"] = instance.label
    return doc


def _number(doc: dict[str, Any], key: str, integral: bool = False, where: str = "") -> Any:
    """``doc[key]`` as a float, or as an int if ``integral`` (3.0 is 3).
    A non-number (booleans and strings included), a number beyond the
    float range and a non-integer where an integer is needed raise
    ``SchemaError`` naming ``where`` + key."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}{key} must be a number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(f"{where}{key} is too large for a float") from None
    if not integral:
        return number
    if not number.is_integer():
        raise SchemaError(f"{where}{key} must be an integer, not {value!r}")
    return int(value)


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise SchemaError(f"unknown instance keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise SchemaError(f"missing instance keys: {sorted(missing)}")
    T = _number(doc, "T", integral=True)
    demand_doc = doc["demand"]
    if not isinstance(demand_doc, list) or len(demand_doc) != T:
        raise SchemaError("demand must be a list with one entry per period")
    demand = []
    for i, entry in enumerate(demand_doc):
        if not isinstance(entry, dict) or set(entry) - _DEMAND_KEYS:
            raise SchemaError(f"bad demand entry: {entry!r}")
        if "kind" not in entry or "mean" not in entry:
            raise SchemaError(f"demand entry needs kind and mean: {entry!r}")
        spec = {"cv": 0.0, **entry}
        mean, cv = (_number(spec, key, where=f"demand[{i}].") for key in ("mean", "cv"))
        demand.append((entry["kind"], mean, cv))
    if not isinstance(doc.get("label", ""), str):
        raise SchemaError(f"label must be a string, not {doc['label']!r}")
    cost = {key: _number(doc, key) for key in ("K", "W", "h", "b")}
    I0, beta = _number(doc, "I0", integral=True), _number(doc, "beta")
    try:
        return Instance(
            T=T,
            params=CostParams(**cost),
            I0=I0,
            demand=tuple(DemandSpec(*spec) for spec in demand),
            beta=beta,
            label=doc.get("label"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad instance value: {exc}") from exc


def _read_json(path: str | Path) -> Any:
    """The JSON document in a file; an unreadable file or invalid JSON
    raises ``SchemaError``."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(_read_json(path))


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def policy_to_dict(policy: Policy, expected_cost: Optional[float] = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "reviews": [
            {"t": rv.period, "R": rv.cycle, "s": rv.reorder, "S": rv.order_up_to}
            for rv in policy.reviews
        ]
    }
    if expected_cost is not None:
        doc["expected_cost"] = expected_cost
    return doc


def policy_from_dict(doc: Any, horizon: int) -> Policy:
    if not isinstance(doc, dict) or not isinstance(doc.get("reviews"), list):
        raise SchemaError("policy document must be an object with a 'reviews' list")
    reviews = []
    for i, entry in enumerate(doc["reviews"]):
        if not isinstance(entry, dict) or not set("tRsS") <= set(entry):
            raise SchemaError(f"bad review entry: {entry!r}")
        t, R, s, S = (_number(entry, key, True, f"reviews[{i}].") for key in "tRsS")
        reviews.append(PolicyReview(period=t, cycle=R, reorder=s, order_up_to=S))
    try:
        return Policy(horizon=horizon, reviews=tuple(reviews))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_policy(path: str | Path, horizon: int) -> Policy:
    return policy_from_dict(_read_json(path), horizon)
