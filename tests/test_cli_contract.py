"""The command-line contract on mangled input, over every subcommand.

A seeded fuzzer.  Its inputs are operator files of the wrong shape, type,
encoding or size (wrong and ragged rows, entries of every JSON type, deep
nesting, byte-order marks, UTF-16 and stray bytes, truncation, integers past
the float range and past the interpreter's digit limit, NaN and infinite
literals, scales that leave the float range), mangled CSV batch files, and
option values that are empty, not numbers, not finite, negative, too large
or past the digit limit, and repeated ``--param`` keys.  Whatever the input, ``fourcurv``

- exits 0, 1 or 2;
- prints no ``Traceback`` and no ``Warning`` on stderr, and raises no warning;
- prints exactly one stderr line when it exits 1;
- prints JSON that parses when it exits 0 with a JSON report.

Every request runs in process through ``cli.main``; the whole set takes well
under two seconds.
"""

import contextlib
import io
import json
import traceback
import warnings

import numpy as np

from conftest import random_admissible_operator
from fourcurv import cli

SEED = 17
HUGE = "1" + "0" * 5000  # past the interpreter's 4,300-digit limit
# entry tokens: every JSON type, non-finite and out-of-range numbers, and
# literals that are not JSON
TOKENS = ["true", "false", "null", '"1"', "[0.0]", "[]", "{}", "NaN", "Infinity", "-Infinity",
          "1e400", "-1e400", "1e-400", "5e-324", "1.7976931348623157e308", "-0.0", "1" + "0" * 400,
          HUGE, "-" + HUGE, "0x10", "01", ".5", "1.", "+1", "--1", "", "[" * 50_000]
# option values
NUMBERS = ["", " ", "nan", "inf", "-inf", "0", "-0", "-1", "1e-320", "1e-200", "1e200", "1e308",
           "1e400", HUGE, "abc", "0x10", "1_0", "1,2"]
COUNTS = ["", "-1", "0", "1", "3", "16", "x", "2.5", "nan", "4097", "1001", HUGE, "-" + HUGE]


def _operator_text(rng, basis):
    op = random_admissible_operator(rng, float(10.0 ** rng.uniform(-2.0, 2.0)))
    M = op.matrix if basis == "sd-asd" else op.in_coordinate_basis()
    return M, json.dumps({"basis": basis, "matrix": M.tolist()})


def _with_token(M, basis, i, j, token):
    rows = [[json.dumps(x) for x in row] for row in M.tolist()]
    rows[i][j] = token
    body = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return json.dumps({"basis": basis})[:-1] + ', "matrix": [' + body + "]}"


def _operator_files(rng):
    """(name, bytes) of mangled operator files, and two valid ones."""
    for basis in ("coordinate", "sd-asd"):
        M, text = _operator_text(rng, basis)
        yield f"valid-{basis}", text.encode()
        yield f"bom-{basis}", b"\xef\xbb\xbf" + text.encode()
        yield f"utf16-{basis}", text.encode("utf-16")
        yield f"stray-byte-{basis}", text.encode()[:20] + b"\xff" + text.encode()[20:]
        cut = int(rng.integers(1, len(text)))
        yield f"truncated-{basis}", text[:cut].encode()
        for k in (-1100, -1030, 990, 1022):  # largest entry near 2^k: underflow, overflow in use
            yield f"scale-{k}-{basis}", json.dumps(
                {"basis": basis, "matrix": np.ldexp(M, k - 8).tolist()}).encode()
        A = M.copy()
        A[0, 1] += 1.0
        yield f"asymmetric-{basis}", json.dumps({"basis": basis, "matrix": A.tolist()}).encode()
    for n, token in enumerate(TOKENS):
        basis = ("coordinate", "sd-asd")[n % 2]
        M, _ = _operator_text(rng, basis)
        i, j = rng.integers(0, 6, 2).tolist()
        yield f"token-{n}", _with_token(M, basis, i, j, token).encode()
    rows = M.tolist()
    for name, matrix in (("short", rows[:5]), ("long", rows + rows[:1]),
                         ("ragged", rows[:5] + [rows[5][:5]]), ("wide", [r + [0.0] for r in rows]),
                         ("flat-list", sum(rows, [])), ("string", "matrix"), ("object", {})):
        yield name, json.dumps({"basis": basis, "matrix": matrix}).encode()
    for n, value in enumerate(("SD/ASD", 1, None, ["coordinate"], "COORDINATE")):
        yield f"basis-{n}", json.dumps({"basis": value, "matrix": rows}).encode()
    for name, data in (("empty", b""), ("blank", b" \n"), ("nul", b"\x00"),
                       ("bom-only", b"\xef\xbb\xbf"), ("array", b"[]"), ("number", b"1"),
                       ("deep", b"[" * 100_000), ("deep-object", b'{"matrix": ' + b"[" * 100_000)):
        yield name, data
    for basis, scale in (("sd-asd", 2e307), ("coordinate", 3e307)):  # s overflows
        yield f"overflow-s-{basis}", json.dumps(
            {"basis": basis, "matrix": (scale * np.eye(6)).tolist()}).encode()
    for name, M in _weyl_overflow_matrices():
        yield name, json.dumps({"basis": "sd-asd", "matrix": M.tolist()}).encode()


def _weyl_overflow_matrices():
    """(name, matrix) of admissible SD/ASD operators whose Weyl halves W overflowed
    in W + W^T before eigvalsh: a numpy warning, then ``Infinity`` bounds or
    ``Eigenvalues did not converge``."""
    M = np.zeros((6, 6))
    M[0, 1] = M[1, 0] = M[3, 4] = M[4, 3] = 1e308
    yield "weyl-overflow-offdiagonal", M
    M = np.diag([1.5e308, -1.5e308, 0.0, 1.5e308, -1.5e308, 0.0])
    yield "weyl-overflow-diagonal", M
    M = np.zeros((6, 6))  # and the top eigenvalue, sqrt(3.25) 1e308, leaves the float range
    M[0, 0], M[0, 1], M[1, 0], M[1, 1] = 1e308, 1.5e308, 1.5e308, -1e308
    yield "weyl-overflow-spectrum", M


def _option_argvs(rng, op):
    """argv lists with mangled option values, for every subcommand."""
    for value in NUMBERS:
        yield ["certify", "-i", op, f"--tolerance={value}"]
    params = {"sphere4": "r", "hyperbolic4": "r", "surfaceProduct": "a", "fubiniStudy": "s",
              "bergman": "s", "flat": "r"}
    for name, key in params.items():
        for value in rng.choice(NUMBERS, 8, replace=False).tolist():
            yield ["model", name, f"--param={key}={value}"]
        yield ["model", name, "--param", "zz=1"]
        yield ["model", name, "--param", "=1"]
        yield ["model", name, "--param", f"{key}=1", "--param", f"{key}=2"]
    for r in ("1.2e-154", "2e-154"):  # 1/r^2 passes; the traces or s = 12/r^2 overflow
        yield ["model", "sphere4", f"--param=r={r}"]
    for name in ("flatChart", "sphereProductChart", "hyperbolic4HalfSpace"):
        for value in NUMBERS:
            yield ["chart", name, "--point", "1,1,1,1", f"--step={value}"]
        for value in rng.choice(NUMBERS, 6, replace=False).tolist():
            yield ["chart", name, "--point", f"1,{value},1,1"]
            yield ["chart", name, "--study", f"--steps=0.02,{value}"]
        yield ["chart", name, "--point", "1,1,1"]
        yield ["chart", name, "--point", ""]
    for value in NUMBERS:
        yield ["chart", "sphereProductChart", "--point", "1,1,1,1", f"--param=a={value}"]
    for value in COUNTS:
        if value != "1001":  # a valid radius count, and a slow one
            yield ["page", "--verify", f"--radii={value}"]
        yield ["page", "--integrate", f"--nodes={value}"]
        yield ["geo", f"--chi={value}", "--tau=1"]
        yield ["geo", "--chi=3", f"--tau={value}"]
        yield ["scan", f"--chi-max={value}"]
    yield ["geo", "--chi", "9" * 4300, "--tau", "9" * 4300]  # c1sq passes the digit limit
    yield ["nosuch"]
    yield []


def _csv_files():
    for name, data in (("plain", b"chi,tau\n3,1\n4,0\n"), ("bom", b"\xef\xbb\xbfchi,tau\n3,1\n"),
                       ("utf16", "chi,tau\n3,1\n".encode("utf-16")), ("binary", b"\x00\xff\xfe"),
                       ("short-row", b"3\n"), ("words", b"chi,tau\na,b\n"),
                       ("huge", f"{HUGE},1\n".encode()), ("floats", b"3.5,1\n"), ("empty", b"")):
        yield name, data


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and -h
            code = exc.code
        except Exception:  # a fresh process would print this traceback
            code = None
            stderr.write(traceback.format_exc())
    return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught]


def _broken(argv, code, out, err, caught):
    """What of the contract the result breaks, or None."""
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if "Traceback" in err or "Warning" in err or caught:
        return f"traceback or warning: {err!r} {caught!r}"
    if code == 1 and len(err.splitlines()) != 1:
        return f"exit 1 with {len(err.splitlines())} stderr lines: {err!r}"
    if code == 0 and argv[0] != "scan" and "--csv" not in argv and "human" not in argv:
        try:
            json.loads(out)
        except ValueError:
            return f"stdout is not JSON: {out[:80]!r}"
    return None


def _requests(tmp_path):
    rng = np.random.default_rng(SEED)
    for name, data in _operator_files(rng):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        yield ["decompose", "-i", str(path)]
        yield ["certify", "-i", str(path)]
    for argv in (["decompose", "-i", str(tmp_path / "missing.json")], ["certify", "-i", str(tmp_path)]):
        yield argv
    valid = str(tmp_path / "valid-coordinate.json")
    yield ["decompose", "-i", valid, "--format", "human"]
    yield from _option_argvs(rng, valid)
    for name, data in _csv_files():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        yield ["geo", "--csv", str(path)]


def test_cli_contract_on_mangled_input(tmp_path):
    broken, codes = [], set()
    for argv in _requests(tmp_path):
        code, out, err, caught = _run(argv)
        codes.add(code)
        problem = _broken(argv, code, out, err, caught)
        if problem:
            broken.append(f"{' '.join(argv)[:120]}: {problem}")
    assert broken == []
    assert codes == {0, 1, 2}  # the inputs reach every exit code


def test_contract_checker_catches_breaks():
    # the checker itself: each kind of break is reported
    argv = ["decompose"]
    assert _broken(argv, 3, "", "", []) == "exit code 3"
    assert _broken(argv, None, "", "Traceback: x\n", []) == "exit code None"
    assert _broken(argv, 1, "", "error: a\nerror: b\n", []).startswith("exit 1 with 2")
    assert _broken(argv, 1, "", "RuntimeWarning: x\n", []).startswith("traceback")
    assert _broken(argv, 2, "", "", ["overflow"]).startswith("traceback")
    assert _broken(argv, 0, "{", "", []).startswith("stdout is not JSON")
    assert _broken(["scan"], 0, "chi,tau\n", "", []) is None
    assert _broken(argv, 0, "{}", "", []) is None


def test_refusals_name_the_file_or_option(tmp_path):
    operator, points = tmp_path / "latin1.json", tmp_path / "latin1.csv"
    operator.write_bytes(b'{"matrix": \xff}')
    points.write_bytes(b"chi,tau\n3,\xff\n")
    for argv, named in ((["decompose", "-i", str(operator)], str(operator)),
                        (["geo", "--csv", str(points)], str(points)),
                        (["model", "sphere4", "--param", "r="], "--param 'r='"),
                        (["model", "sphere4", "--param", "r"], "--param 'r'"),
                        (["model", "sphere4", "--param", "r=1", "--param", " r=2"], "--param 'r'"),
                        (["chart", "sphereProductChart", "--param", "a=1", "--param", "a=1"],
                         "--param 'a'"),
                        (["chart", "flatChart", "--point", "1,x,1,1"], "--point '1,x,1,1'")):
        code, out, err, caught = _run(argv)
        assert _broken(argv, code, out, err, caught) is None
        assert code == 1 and err.startswith(f"error: {named}: "), err
