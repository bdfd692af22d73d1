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


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise SchemaError(f"unknown instance keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise SchemaError(f"missing instance keys: {sorted(missing)}")
    demand_doc = doc["demand"]
    if not isinstance(demand_doc, list) or len(demand_doc) != doc["T"]:
        raise SchemaError("demand must be a list with one entry per period")
    for entry in demand_doc:
        if not isinstance(entry, dict) or set(entry) - _DEMAND_KEYS:
            raise SchemaError(f"bad demand entry: {entry!r}")
        if "kind" not in entry or "mean" not in entry:
            raise SchemaError(f"demand entry needs kind and mean: {entry!r}")
    try:
        return Instance(
            T=int(doc["T"]),
            params=CostParams(
                K=float(doc["K"]), W=float(doc["W"]), h=float(doc["h"]), b=float(doc["b"])
            ),
            I0=int(doc["I0"]),
            demand=tuple(
                DemandSpec(kind=e["kind"], mean=float(e["mean"]), cv=float(e.get("cv", 0.0)))
                for e in demand_doc
            ),
            beta=float(doc["beta"]),
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
    for entry in doc["reviews"]:
        try:
            reviews.append(
                PolicyReview(
                    period=int(entry["t"]),
                    cycle=int(entry["R"]),
                    reorder=int(entry["s"]),
                    order_up_to=int(entry["S"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"bad review entry: {entry!r}") from exc
    try:
        return Policy(horizon=horizon, reviews=tuple(reviews))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_policy(path: str | Path, horizon: int) -> Policy:
    return policy_from_dict(_read_json(path), horizon)
