"""Exact JSON/CSV ingestion and emission.

Rationals travel as strings ("p/q" or an integer literal); decimal strings
are converted exactly.  JSON number literals with a decimal point are parsed
through Fraction directly, so nothing is ever routed through a float.  A
JSON object that names a key twice is refused, not read as its last value.

Reports are written by one recursive walk over the package objects
(:func:`_json_text`): the bytes are those of the standard library's
``json.dumps(to_jsonable(data), indent=2)``, without building the
intermediate data or running its pure-Python indenting encoder.  A report
file is rewritten in place (:func:`_overwrite`): on ext4, truncating a
non-empty file to zero and writing it again, or renaming a new file over
it, makes the file system allocate its blocks at close (``auto_da_alloc``),
which costs about as much as building the report.  Overwriting the bytes
and cutting the file to length does not.
"""

from __future__ import annotations

import dataclasses
import json
import os
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

from .metric import FiniteMetricSpace, StructuralError, validate
from .freespace import FreeVector, LipFunction
from .rational import parse_rational


class IngestError(ValueError):
    """Input file could not be turned into a valid metric space."""


def to_jsonable(obj: Any) -> Any:
    """Recursively convert package objects into JSON-serializable data.

    Fractions become strings, dataclasses become dicts in field order (which
    keeps emitted reports byte-stable), tuples become lists, and dict keys
    become strings.  Sets are refused like floats: their iteration order
    would make reports unstable.  This is the JSON reading of the text
    :func:`dump_json` writes, so both follow the one dispatch of
    :func:`_json_text`.
    """
    return json.loads(_json_text(obj))


@cache
def _dataclass_keys(cls: type) -> tuple[tuple[str, str], ...]:
    """(field name, its JSON key) for each field of the dataclass ``cls``, in field order; read once per class."""
    return tuple((f.name, encode_basestring_ascii(f.name)) for f in dataclasses.fields(cls))


def _json_text(data: Any) -> str:
    """``json.dumps(to_jsonable(data), indent=2)``, written in one walk over ``data``.

    The walk tries the types in this order: the exact Fraction; ``None``,
    ints (bools included) and strings; dataclass instances; dicts; lists
    and tuples; Fraction subclasses.  Strings are escaped to ASCII by the
    standard library's encoder and ints written by ``int.__repr__``, as the
    standard library does.  A dict key that is no string is written as its
    ``str``; when two keys of one dict share a ``str``, the last value is
    written at the place of the first, as in the dict ``to_jsonable`` would
    build.  A float, a set or any other type raises ``TypeError``.
    """
    chunks: list[str] = []
    append = chunks.append

    def write(obj: Any, indent: str) -> None:
        # indent is a newline and the indentation of obj's own line
        cls = type(obj)
        if cls is Fraction:
            append(f'"{obj!s}"')  # digits, a sign and a slash need no escaping
        elif obj is None:
            append("null")
        elif isinstance(obj, int):
            append("true" if obj is True else "false" if obj is False else int.__repr__(obj))
        elif isinstance(obj, str):
            append(encode_basestring_ascii(obj))
        elif cls not in (dict, list, tuple) and dataclasses.is_dataclass(cls):
            keys = _dataclass_keys(cls)
            if not keys:
                append("{}")
                return
            inner = indent + "  "
            separator = "{" + inner
            for name, key in keys:
                append(f"{separator}{key}: ")
                write(getattr(obj, name), inner)
                separator = "," + inner
            append(indent + "}")
        elif isinstance(obj, dict):
            if not obj:
                append("{}")
                return
            inner = indent + "  "
            start = len(chunks)
            separator = "{" + inner
            for key, value in obj.items():
                if type(key) is not str:
                    del chunks[start:]
                    write_keyed(obj, indent)
                    return
                append(f"{separator}{encode_basestring_ascii(key)}: ")
                write(value, inner)
                separator = "," + inner
            append(indent + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                append("[]")
                return
            inner = indent + "  "
            separator = "[" + inner
            for value in obj:
                append(separator)
                write(value, inner)
                separator = "," + inner
            append(indent + "]")
        elif isinstance(obj, Fraction):
            append(encode_basestring_ascii(str(obj)))
        elif isinstance(obj, float):
            raise TypeError("refusing to serialize a float")
        else:
            raise TypeError(f"cannot serialize {cls.__name__}")

    def write_keyed(obj: dict, indent: str) -> None:
        # a dict with a key that is no string: each value's text, under the str of its key
        inner = indent + "  "
        texts = {}
        for key, value in obj.items():
            key = str(key)
            start = len(chunks)
            write(value, inner)
            texts[key] = "".join(chunks[start:])
            del chunks[start:]
        append("{" + ",".join(f"{inner}{encode_basestring_ascii(key)}: {text}" for key, text in texts.items()))
        append(indent + "}")

    write(data, "\n")
    return "".join(chunks)


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "dist": [[str(x) for x in row] for row in space.dist],
    }


def space_from_json(data: dict) -> FiniteMetricSpace:
    """Read ``{"labels": [...], "dist": [[...], ...]}``; a field of another JSON type raises :class:`IngestError` naming it."""
    if not isinstance(data, dict) or "labels" not in data or "dist" not in data:
        raise IngestError("expected an object with 'labels' and 'dist'")
    labels, dist = data["labels"], data["dist"]
    if not isinstance(labels, list):
        raise IngestError("'labels' must be an array of labels")
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise IngestError("'dist' must be an array of arrays of distances")
    return FiniteMetricSpace(tuple(labels), tuple(tuple(row) for row in dist))


def _is_rational(cell: str) -> bool:
    try:
        parse_rational(cell)
    except ValueError:
        return False
    return True


def space_from_csv(text: str) -> FiniteMetricSpace:
    """Read comma-separated rows of distances, under an optional header line of labels.

    The first line is the header when the file has one more line than it
    has cells, or when one of its cells is not a rational; without a header
    the points are labelled p0, p1, ...
    """
    rows = [[cell.strip() for cell in line.split(",")] for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise IngestError("empty CSV input")
    if len(rows) == len(rows[0]) + 1 or not all(map(_is_rational, rows[0])):
        return FiniteMetricSpace(tuple(rows[0]), tuple(map(tuple, rows[1:])))
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(len(rows))), tuple(map(tuple, rows)))


def _read(path: str | Path, parse: Callable[[str], Any]) -> Any:
    """``parse`` of the text of the file at ``path``; any failure raises :class:`IngestError` naming the path."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except (ValueError, TypeError) as exc:
        raise IngestError(f"{path}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The JSON object of ``pairs``; a key named twice raises :class:`IngestError` naming it."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise IngestError(f"duplicate key {key!r} in a JSON object")
        seen.add(key)
    return dict(pairs)


def _json(text: str) -> Any:
    return json.loads(text, parse_float=Fraction, object_pairs_hook=_unique_keys)


def load_space(path: str | Path, fmt: str | None = None) -> FiniteMetricSpace:
    """Parse a space file without enforcing the metric axioms.

    Structural problems (shape, labels, non-rational entries) raise
    :class:`IngestError`; use :func:`ingest` to also reject non-metric data.
    """
    if fmt is None:
        fmt = "csv" if Path(path).suffix.lower() == ".csv" else "json"
    if fmt not in ("json", "csv"):
        raise IngestError(f"unknown format {fmt!r}")
    return _read(path, space_from_csv if fmt == "csv" else lambda text: space_from_json(_json(text)))


def ingest(path: str | Path, fmt: str | None = None) -> FiniteMetricSpace:
    """Load a space and reject anything that is not a metric.

    Ultrametricity is not required here: several operations accept plain
    metrics in exploratory mode and enforce their own preconditions; they
    read the validation report cached on the space.
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


def load_vector(space: FiniteMetricSpace, path: str | Path) -> FreeVector:
    """Read a JSON vector file by :func:`vector_from_json`; every failure names the path."""
    return _read(path, lambda text: vector_from_json(space, _json(text)))


def vector_to_json(space: FiniteMetricSpace, v: FreeVector) -> dict:
    return {space.labels[k + 1]: str(c) for k, c in enumerate(v.coeffs) if c}


def function_to_json(space: FiniteMetricSpace, f: LipFunction) -> dict:
    return {space.labels[i]: str(v) for i, v in enumerate(f.values)}


def _overwrite(path: str | Path, text: str) -> None:
    """Write the ASCII ``text`` over the file at ``path`` from its start, then cut the file to its length.

    The file is opened without ``O_TRUNC`` and created with the mode
    ``Path.write_text`` gives a new file (0o666 less the umask).  It is cut
    only when it was longer than ``text``, so ``/dev/null``, a FIFO or
    ``/dev/stdout``, which cannot be truncated or have no length, take the
    text as a stream.
    """
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        longer = os.fstat(fd).st_size > len(data)
        while data:
            data = data[os.write(fd, data):]
        if longer:
            os.ftruncate(fd, len(text))
    finally:
        os.close(fd)


def dump_json(data: Any, path: str | Path | None = None) -> str:
    """The JSON report of ``data`` with a final newline, also written to ``path`` when one is given.

    The text is byte-identical to ``json.dumps(to_jsonable(data),
    indent=2) + "\\n"`` (:func:`_json_text`).  It is built in full before
    the file is opened, so a value that cannot be serialized leaves the file
    as it was; the file is then rewritten in place (:func:`_overwrite`).
    """
    text = _json_text(data) + "\n"
    if path is not None:
        _overwrite(path, text)
    return text
