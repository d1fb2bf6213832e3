"""Deterministic JSON emission and input-file reading for the CLI: operator
files, and the text of every file it reads.

Floats are serialized with 17 significant digits so output is byte-identical
across runs and platforms and round-trips exactly.  Every report carries a
``convention`` block naming the 2-form basis ordering and the sectional
curvature normalization, so downstream consumers never have to guess.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

from .errors import _digit_limit
from .names import BASIS_LABELS, COORDINATE, SD_ASD

CONVENTION = {
    "twoFormBasis": list(BASIS_LABELS),
    "selfDualPairs": "(e1^e2 +/- e3^e4), (e1^e3 -/+ e2^e4), (e1^e4 +/- e2^e3), over sqrt(2)",
    "sec": "sec(X,Y) = <R(X^Y), X^Y> / |X^Y|^2; identity operator = unit round 4-sphere",
    "qForm": "q(psi+, psi-) = <psi+ + psi-, R(psi+ + psi-)> = 2 * sec of the induced plane",
}


# what json.dumps(text) returns for a str, without the rest of a json.dumps call
_quote = json.encoder.encode_basestring_ascii


def _format_float(x: float) -> str:
    """17 significant digits; an integer value below 1e16 as ``n.0``; NaN and the
    infinities as the strings ``"NaN"``, ``"Infinity"`` and ``"-Infinity"``."""
    s = format(x, ".17g")
    if "." in s or "e" in s:  # 17 digits round-trip, so a bare digit string is an integer
        return s
    if s[-1] == "n":
        return '"NaN"'
    if s[-1] == "f":
        return '"-Infinity"' if s[0] == "-" else '"Infinity"'
    return s + ".0" if -1e16 < x < 1e16 else s


def _encode(obj) -> str:
    """The JSON text of ``obj``, dispatched on its exact type; a list of floats
    only is written with one join."""
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is str:
        return _quote(obj)
    if kind is dict:
        return _encode_dict(obj)
    if kind is list or kind is tuple:
        for value in obj:
            if type(value) is not float:
                return _encode_list(obj)
        return "[" + ", ".join(map(_format_float, obj)) + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        return _encode_dict(obj)
    if isinstance(obj, (list, tuple)):
        return _encode_list(obj)
    if isinstance(obj, numbers.Integral):  # numpy integers
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode_dict(obj) -> str:
    return "{" + ", ".join([_quote(key if type(key) is str else str(key)) + ": " + _encode(value)
                            for key, value in obj.items()]) + "}"


def _encode_list(obj) -> str:
    return "[" + ", ".join(map(_encode, obj)) + "]"


# the last member of every report without a convention of its own, encoded once
_CONVENTION_MEMBER = '"convention": ' + _encode(CONVENTION) + "}\n"


def dumps(report: dict) -> str:
    """Serialize a report dict deterministically, appending a newline."""
    text = _encode(report)
    if "convention" in report:
        return text + "\n"
    return text[:-1] + (", " if len(report) else "") + _CONVENTION_MEMBER


def _operator_problem(data) -> str | None:
    """Why ``data`` is not an object with a ``matrix`` of 6 arrays of 6 numbers (no
    booleans, no integers beyond the float range) and an optional ``basis`` tag,
    naming the first offending entry; None if it is.  Plain Python, no numpy."""
    if not isinstance(data, dict) or "matrix" not in data:
        return "operator JSON must be an object with a 'matrix' field"
    rows = data["matrix"]
    if type(rows) is not list or len(rows) != 6:
        return "matrix must be an array of 6 rows"
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != 6:
            return f"matrix[{i}] must be an array of 6 numbers"
        for j, x in enumerate(row):
            if type(x) is not float:  # the rare case, so floats cost one test
                if type(x) is not int:
                    return f"matrix[{i}][{j}] must be a number"
                try:
                    float(x)
                except OverflowError:
                    return f"matrix[{i}][{j}] is an integer beyond the float range"
    if data.get("basis", COORDINATE) not in (COORDINATE, SD_ASD):
        return f"basis must be {COORDINATE!r} or {SD_ASD!r}"


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, with an optional byte-order mark (as spreadsheet
    exports write it); a file that is not UTF-8 is refused naming ``path``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_operator(path: str | Path) -> CurvatureOperator:
    """Load a curvature operator from a JSON file.

    The file is read as UTF-8 with an optional byte-order mark.  Malformed JSON
    (with its line and column), an integer literal past the interpreter's digit
    limit, JSON nested too deeply to read and a file of the wrong shape
    (:func:`_operator_problem`) are refused in one line each; admissibility
    failures propagate as fourcurv errors.
    """
    from .curvops import CurvatureOperator  # numpy: not loaded by the geography commands

    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError:  # the interpreter's digit limit on an integer literal
        raise ValueError(f"{path}: " + _digit_limit("an integer has")) from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if problem := _operator_problem(data):
        raise ValueError(f"{path}: {problem}")
    return CurvatureOperator.from_dict(data)
