"""The JSON report writer against a byte reference.

``_dumps_reference`` is the plain recursive writer that ``jsonio.dumps`` must
match byte for byte: one branch per JSON type, every string through a whole
``json.dumps`` call, every float through the three-case ``_format_float``.
"""

import collections
import enum
import json
import math
import numbers
import os
import sys

import numpy as np
import pytest

from conftest import assemble_einstein, random_admissible_operator, random_einstein_operator
from fourcurv import jsonio
from fourcurv.cli import main
from fourcurv.names import MODEL_DEFAULTS


def _format_float_reference(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _emit_reference(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float_reference(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit_reference(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit_reference(value, out)
        out.append("]")
    elif isinstance(obj, numbers.Integral):  # numpy integers
        out.append(str(int(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dumps_reference(report: dict) -> str:
    payload = dict(report)
    if "convention" not in payload:
        payload["convention"] = jsonio.CONVENTION
    out: list[str] = []
    _emit_reference(payload, out)
    return "".join(out) + "\n"


def assert_same(report):
    """``jsonio.dumps`` gives the reference's bytes; a failure quotes where they
    part, not the whole text (a pytest diff of 5 MB would run for minutes)."""
    text, want = jsonio.dumps(report), _dumps_reference(report)
    if text != want:
        at = len(os.path.commonprefix([text, want]))
        pytest.fail(f"differs at {at}: {text[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")
    return text


# -- the reports of every command ------------------------------------------------

def _write_operator(path, op):
    path.write_text(json.dumps({"basis": op.basis, "matrix": op.matrix.tolist()}))
    return str(path)


def _requests(tmp_path):
    rng = np.random.default_rng(2503)
    files = []
    for k in range(4):
        files.append(random_admissible_operator(rng, 10.0 ** rng.uniform(-3, 3),
                                                basis=("sd-asd", "coordinate")[k % 2]))
        files.append(random_einstein_operator(rng, 10.0 ** rng.uniform(-3, 3)))
    files.append(assemble_einstein(-12.0, np.diag([-3.0, 1.0, 2.0]), np.zeros((3, 3))))
    for i, op in enumerate(files):
        path = _write_operator(tmp_path / f"op{i}.json", op)
        yield ["decompose", "-i", path]
        yield ["certify", "-i", path]
    for name, defaults in MODEL_DEFAULTS.items():
        yield ["model", name]
        for key, default in defaults.items():  # the default's sign is always accepted
            yield ["model", name, "--param", f"{key}={default * 10.0 ** rng.uniform(-5, 5)!r}"]
    yield ["model", "surfaceProduct", "--param", f"a={-rng.uniform(0, 3)!r}",
           "--param", f"b={rng.uniform(0, 3)!r}"]
    yield ["chart", "sphereProductChart", "--point", "1.2,0.3,2.0,-1.1"]
    yield ["chart", "flatChart", "--point", "1,2,3,4"]
    yield ["chart", "hyperbolic4HalfSpace", "--study"]
    yield ["chart", "sphereProductChart", "--study", "--steps", "0.04,0.02,0.01"]
    yield ["page", "--verify", "--negcurv", "--integrate", "--radii", "4", "--nodes", "16"]
    yield ["geo", "--chi", "3", "--tau", "1"]
    yield ["geo", "--chi", str(2 ** 70), "--tau", str(-(2 ** 68))]


def test_reports_of_every_command(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(jsonio, "dumps", lambda report: seen.append(report) or "")
    requests = list(_requests(tmp_path))
    for argv in requests:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert {argv[0] for argv in requests} == {"decompose", "certify", "model", "chart",
                                              "page", "geo"}
    assert len(seen) == len(requests)  # one report each
    monkeypatch.undo()
    for report in seen:
        assert_same(report)


# -- floats ------------------------------------------------------------------------

def _edge_floats():
    values = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
              -sys.float_info.max, math.nan, -math.nan, math.inf, -math.inf, 0.1, 1e16, -1e16,
              1e17, 9007199254740993.0]
    for k in range(-1074, 1024):
        values += [math.ldexp(1.0, k), -math.ldexp(1.0, k)]
    for centre in (1e16, 2.0 ** 53, 1e15, 1e17):
        x = y = centre
        for _ in range(40):
            x, y = math.nextafter(x, 0.0), math.nextafter(y, math.inf)
            values += [x, y, -x, -y]
    values += [float(n) for n in range(-1000, 1001)]
    values += [math.ldexp(float(m), -1074) for m in range(1, 200)]  # subnormals
    values += [math.nextafter(sys.float_info.min, 0.0), math.nextafter(0.0, 1.0)]
    return values


def test_edge_floats():
    values = _edge_floats()
    assert_same({"x": values})
    assert_same({"x": values + [None]})  # a mixed list: each entry on its own
    for x in values:
        assert jsonio._format_float(x) == _format_float_reference(x)


def test_random_float_bit_patterns():
    bits = np.random.default_rng(70).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    assert_same({"x": values})
    assert_same({"x": tuple(values[:1000]), "y": values[1000:2000] + [1]})


# -- other values ------------------------------------------------------------------

class Colour(enum.IntEnum):
    RED = 1


class Text(str):
    pass


class Number(float):
    pass


@pytest.mark.parametrize("value", [
    None, True, False, 0, -7, 2 ** 100, Colour.RED,
    np.float64(3.0), np.float64(-0.0), np.float64(0.1), np.float64("nan"),
    np.float64("inf"), np.float64("-inf"), np.float64(1e16), Number(2.0), Number(0.3),
    np.int64(-3), np.uint8(255), np.int32(7), [np.float64(1.0), 2.0, np.int64(2)],
    (), [], {}, (1.0, 2.5), (1, 2.5, "a", None), [[], [[]], {}],
    {"a": {"b": {"c": [1.0, -0.0, {"d": None}]}}},
    collections.OrderedDict([("z", 1.0), ("a", [True])]),
    [1.0, 2.0, Number(3.0)], [1.0, True], [1.0, 2], [1.5, "x"], [float("nan"), 1.0],
    Text("sub\"class"), "", "plain",
], ids=repr)
def test_other_values(value):
    assert_same({"value": value})


@pytest.mark.parametrize("text", [
    'say "hi"', "back\\slash", "\x00\x01\x1f\x7f", "tab\tnew\nline\r", "café",
    "∑ s/√6", "\U0001f600", "\ud800", "  ", "</script>",
])
def test_strings_and_keys(text):
    assert_same({text: text, "list": [text, 1.0], text + "2": {text: [text]}})


def test_keys_that_are_not_strings():
    assert_same({1: 1.0, 2.5: "a", None: [], True: 0, Text("k"): 1.0})


def test_convention_block():
    assert_same({})
    assert jsonio.dumps({}) == '{"convention": ' + json.dumps(jsonio.CONVENTION) + "}\n"
    own = {"a": 1.0, "convention": {"mine": [1.0, 2.0]}, "b": None}
    assert_same(own)
    assert jsonio.dumps(own).count('"convention"') == 1
    assert_same({"convention": None})
    assert_same({"a": 1.0})


@pytest.mark.parametrize("value", [object(), np.float32(1.0), {1, 2}, b"bytes",
                                   [1.0, object()], {"k": {1.5: complex(1, 2)}}])
def test_unserializable_refused_alike(value):
    with pytest.raises(TypeError) as reference:
        _dumps_reference({"value": value})
    with pytest.raises(TypeError) as new:
        jsonio.dumps({"value": value})
    assert str(new.value) == str(reference.value)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
def test_integer_past_digit_limit_refused_alike():
    big = {"c1sq": 10 ** sys.get_int_max_str_digits()}
    with pytest.raises(ValueError):
        _dumps_reference(big)
    with pytest.raises(ValueError):
        jsonio.dumps(big)
