"""Deterministic JSON emission and input-file reading for the CLI: operator
files, and the text of every file it reads.

Floats are serialized with 17 significant digits so output is byte-identical
across runs and platforms and round-trips exactly.  Every report carries a
``convention`` block naming the 2-form basis ordering and the sectional
curvature normalization, so downstream consumers never have to guess.
"""

from __future__ import annotations

import json
import math
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


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    elif isinstance(obj, numbers.Integral):  # numpy integers
        out.append(str(int(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(report: dict) -> str:
    """Serialize a report dict deterministically, appending a newline."""
    payload = dict(report)
    if "convention" not in payload:
        payload["convention"] = CONVENTION
    out: list[str] = []
    _emit(payload, out)
    return "".join(out) + "\n"


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
