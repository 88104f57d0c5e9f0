"""Exact JSON/CSV ingestion and emission.

Rationals travel as strings ("p/q" or an integer literal); decimal strings
are converted exactly.  JSON number literals with a decimal point are parsed
through Fraction directly, so nothing is ever routed through a float.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .metric import FiniteMetricSpace, StructuralError, validate
from .freespace import FreeVector, LipFunction
from .rational import parse_rational

SCHEMA = "ultrafree/1"


class IngestError(ValueError):
    """Input file could not be turned into a valid metric space."""


def to_jsonable(obj: Any) -> Any:
    """Recursively convert package objects into JSON-serializable data.

    Fractions become strings, dataclasses become dicts in field order (which
    keeps emitted reports byte-stable), tuples become lists.
    """
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float):
        raise TypeError("refusing to serialize a float")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "dist": [[str(x) for x in row] for row in space.dist],
    }


def space_from_json(data: dict) -> FiniteMetricSpace:
    if not isinstance(data, dict) or "labels" not in data or "dist" not in data:
        raise IngestError("expected an object with 'labels' and 'dist'")
    return FiniteMetricSpace(tuple(data["labels"]), tuple(tuple(row) for row in data["dist"]))


def space_from_csv(text: str) -> FiniteMetricSpace:
    rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise IngestError("empty CSV input")
    header: list[str] | None = None
    try:
        parse_rational(rows[0][0].strip())
    except (ValueError, TypeError):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    labels = tuple(header) if header else tuple(f"p{i}" for i in range(len(rows)))
    dist = tuple(tuple(cell.strip() for cell in row) for row in rows)
    return FiniteMetricSpace(labels, dist)


def load_space(path: str | Path, fmt: str | None = None) -> FiniteMetricSpace:
    """Parse a space file without enforcing the metric axioms.

    Structural problems (shape, labels, non-rational entries) raise
    :class:`IngestError`; use :func:`ingest` to also reject non-metric data.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    try:
        text = path.read_text()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    try:
        if fmt == "json":
            return space_from_json(json.loads(text, parse_float=Fraction))
        if fmt == "csv":
            return space_from_csv(text)
    except (ValueError, TypeError) as exc:
        raise IngestError(f"{path}: {exc}") from exc
    raise IngestError(f"unknown format {fmt!r}")


def ingest(path: str | Path, fmt: str | None = None) -> FiniteMetricSpace:
    """Load a space and reject anything that is not a metric.

    Ultrametricity is not required here: several operations accept plain
    metrics in exploratory mode and enforce their own preconditions.
    """
    space = load_space(path, fmt)
    try:
        report = validate(space)
    except StructuralError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if not report.is_metric:
        raise IngestError(f"{path}: triangle inequality fails at triple {report.failing_triple}")
    return space


def vector_from_json(space: FiniteMetricSpace, data: dict) -> FreeVector:
    """Read a label->rational map; the base label must be absent or zero.

    Anything else (not an object, an unknown label, a value that is not a
    rational) raises :class:`IngestError` naming the offending entry.
    """
    if not isinstance(data, dict):
        raise IngestError(f"expected an object mapping labels to rationals, got {type(data).__name__}")
    coeffs = [Fraction(0)] * (len(space) - 1)
    for label, value in data.items():
        try:
            idx = space.index_of(label)
            q = parse_rational(value)
        except (ValueError, TypeError) as exc:
            raise IngestError(f"vector entry {label!r}: {exc}") from exc
        if idx == 0:
            if q != 0:
                raise IngestError("the base point cannot carry a coefficient")
            continue
        coeffs[idx - 1] = q
    return FreeVector(tuple(coeffs))


def vector_to_json(space: FiniteMetricSpace, v: FreeVector) -> dict:
    return {space.labels[k + 1]: str(c) for k, c in enumerate(v.coeffs) if c}


def function_to_json(space: FiniteMetricSpace, f: LipFunction) -> dict:
    return {space.labels[i]: str(v) for i, v in enumerate(f.values)}


def dump_json(data: Any, path: str | Path | None = None) -> str:
    text = json.dumps(to_jsonable(data), indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
