"""JSON file formats for spaces, measures, plans, and problems.

All numbers are serialized as strings: "p/q" in rational mode, 17
significant digits in float mode, "+inf" for forbidden cells.  Loaders
accept strings or plain JSON numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

from .coupling import TransportPlan
from .measure import DiscreteMeasure
from .numerics import DataError, format_number, parse_number
from .space import CostMatrix, FiniteMetricSpace, from_point_cloud


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}") from exc


def _matrix(rows, mode):
    return tuple(tuple(parse_number(x, mode) for x in row) for row in rows)


def load_space(source, mode="float") -> FiniteMetricSpace:
    """Space file: {"labels", "dist"} or {"labels", "points", "norm"}."""
    doc = _load_json(source) if not isinstance(source, dict) else source
    labels = doc.get("labels")
    if "dist" in doc:
        dist = _matrix(doc["dist"], mode)
        if labels is None:
            labels = tuple(str(i) for i in range(len(dist)))
        return FiniteMetricSpace(tuple(labels), dist)
    if "points" in doc:
        points = [[parse_number(x, mode) for x in pt] for pt in doc["points"]]
        norm = doc.get("norm", 2)
        norm = float("inf") if norm in ("inf", "+inf") else norm
        return from_point_cloud(points, norm_order=norm, labels=labels)
    raise DataError("space file needs either 'dist' or 'points'")


def load_measure(source, mode="float", space=None) -> DiscreteMeasure:
    """Measure file: {"space": <id-or-path>, "weights": [...]}."""
    doc = _load_json(source) if not isinstance(source, dict) else source
    if "weights" not in doc:
        raise DataError("measure file is missing 'weights'")
    if space is None and isinstance(doc.get("space"), (str, Path)):
        ref = doc["space"]
        if Path(ref).exists():
            space = load_space(ref, mode)
    weights = tuple(parse_number(w, mode) for w in doc["weights"])
    return DiscreteMeasure(weights, space)


def _measure_from_field(value, mode):
    if isinstance(value, dict):
        return load_measure(value, mode)
    return DiscreteMeasure(tuple(parse_number(w, mode) for w in value))


def load_plan(source, mode="float") -> TransportPlan:
    """Plan file: {"mu1": ..., "mu2": ..., "matrix": [[...]]}."""
    doc = _load_json(source) if not isinstance(source, dict) else source
    for key in ("mu1", "mu2", "matrix"):
        if key not in doc:
            raise DataError(f"plan file is missing '{key}'")
    mu1 = _measure_from_field(doc["mu1"], mode)
    mu2 = _measure_from_field(doc["mu2"], mode)
    return TransportPlan(_matrix(doc["matrix"], mode), mu1, mu2)


def load_problem(source, mode="float"):
    """Problem file: mu1, mu2, cost (matrix or {"space", "p"}), optional a1/a2.

    Returns (mu1, mu2, CostMatrix).
    """
    doc = _load_json(source) if not isinstance(source, dict) else source
    for key in ("mu1", "mu2", "cost"):
        if key not in doc:
            raise DataError(f"problem file is missing '{key}'")
    mu1 = _measure_from_field(doc["mu1"], mode)
    mu2 = _measure_from_field(doc["mu2"], mode)
    spec = doc["cost"]
    if isinstance(spec, dict):
        space = load_space(spec["space"], mode)
        p = parse_number(spec.get("p", 1), "float")
        cost = space.power_cost(p)
    else:
        rows = _matrix(spec, mode)
        lb = None
        if "a1" in doc and "a2" in doc:
            lb = (
                tuple(parse_number(x, mode) for x in doc["a1"]),
                tuple(parse_number(x, mode) for x in doc["a2"]),
            )
        cost = CostMatrix(rows, lower_bound=lb)
    return mu1, mu2, cost


def encode(obj):
    """Recursively stringify numbers for lossless JSON output."""
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj  # counters and indices stay plain
    return format_number(obj)


def dump_json(doc, path=None) -> str:
    text = json.dumps(encode(doc), indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text

