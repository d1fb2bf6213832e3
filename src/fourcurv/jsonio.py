"""Deterministic JSON emission and operator-file loading for the CLI.

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

from .curvops import BASIS_LABELS, CurvatureOperator

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


def load_operator(path: str | Path) -> CurvatureOperator:
    """Load a curvature operator from a JSON file.

    Malformed JSON is reported with its line and column; admissibility
    failures propagate as fourcurv errors.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: operator JSON must be an object")
    return CurvatureOperator.from_dict(data)
