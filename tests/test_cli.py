"""CLI behavior: output shape, exit codes, and byte-level determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_admissible_operator
import fourcurv
from fourcurv import jsonio
from fourcurv.cli import main
from fourcurv.errors import FourcurvError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_operator(path, matrix, basis="coordinate"):
    payload = {"basis": basis, "matrix": np.asarray(matrix).tolist()}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_model_surface_product(capsys):
    code, out, _ = run_cli(capsys, "model", "surfaceProduct",
                           "--param", "a=-1", "--param", "b=-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["glReport"]["defect"] == pytest.approx(0.0, abs=1e-14)
    assert data["glReport"]["coverClass"] == "HyperbolicPlaneProduct"
    assert data["convention"]["twoFormBasis"][0] == "e1^e2"


def test_geo_ball_quotient(capsys):
    code, out, _ = run_cli(capsys, "geo", "--chi", "3", "--tau", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bmyEquality"] is True
    assert data["c1sq"] == 9
    assert data["latticeObstruction"]["tauValue"] == "16/7"


def test_geo_point_output_bytes(capsys):
    # the JSON and the human report of one pair are a stable external contract
    _, out, _ = run_cli(capsys, "geo", "--chi", "3", "--tau", "1", "--json")
    assert out == (
        '{"chi": 3, "tau": 1, "gromovLuck": true, "einsteinNonPosStrict": true, "bmy": true, '
        '"bmyEquality": true, "c1sq": 9, "bothOrientationsComplexPossible": false, '
        '"latticeObstruction": {"applicable": true, "tauValue": "16/7", "chiValue": "30/7", '
        '"integral": false}, "convention": {"twoFormBasis": ["e1^e2", "e1^e3", "e1^e4", '
        '"e2^e3", "e2^e4", "e3^e4"], "selfDualPairs": "(e1^e2 +/- e3^e4), (e1^e3 -/+ e2^e4), '
        '(e1^e4 +/- e2^e3), over sqrt(2)", "sec": "sec(X,Y) = <R(X^Y), X^Y> / |X^Y|^2; '
        'identity operator = unit round 4-sphere", "qForm": "q(psi+, psi-) = '
        '<psi+ + psi-, R(psi+ + psi-)> = 2 * sec of the induced plane"}}\n')
    _, out, _ = run_cli(capsys, "geo", "--chi", "3", "--tau", "1", "--format", "human")
    assert out == (
        "chi: 3\ntau: 1\ngromovLuck: True\neinsteinNonPosStrict: True\nbmy: True\n"
        "bmyEquality: True\nc1sq: 9\nbothOrientationsComplexPossible: False\n"
        "latticeObstruction: {'applicable': True, 'tauValue': '16/7', 'chiValue': '30/7', "
        "'integral': False}\n")


def test_certify_not_symmetric_exit_1(tmp_path, capsys):
    M = np.eye(6)
    M[0, 1] = 0.5
    path = write_operator(tmp_path / "bad.json", M)
    code, out, err = run_cli(capsys, "certify", "-i", path)
    assert code == 1
    assert "symmetry defect" in err


def test_certify_identity(tmp_path, capsys):
    path = write_operator(tmp_path / "id.json", np.eye(6))
    code, out, _ = run_cli(capsys, "certify", "-i", path)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NonNegative"
    assert data["method"] == "ThorpeDual"
    assert data["qMaxLower"] == 2.0


def _gap_operator(tmp_path, shift=0.0):
    # q_max = 10/3 - 3.6 = -4/15: sec < 0 everywhere, although the bound
    # lam_max(A) + lam_max(C) + 2 sigma_max(B) = 1.4 is positive; a shift by
    # c I adds 2c to every q
    M = np.zeros((6, 6))
    M[:3, :3] = np.diag([-2.3, -2.3, 0.7])
    M[3:, 3:] = -1.3 * np.eye(3)
    M[0, 3] = M[3, 0] = 1.0
    return write_operator(tmp_path / "gap.json", M + shift * np.eye(6), basis="sd-asd")


def test_certify_negative_qmax_nonpositive(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "certify", "-i", _gap_operator(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NonPositive"
    assert data["qMaxUpper"] == pytest.approx(-4.0 / 15.0, abs=1e-13)
    assert data["qMaxLower"] == pytest.approx(-4.0 / 15.0, abs=1e-13)


def test_certify_inconclusive_exit_2(tmp_path, capsys):
    # a tolerance strictly inside the certified interval [qMaxLower,
    # qMaxUpper]: whether q_max <= tol cannot be decided from the bounds; the
    # shift by I/2 makes q_max = 11/15 positive, so the tolerance is too
    path = _gap_operator(tmp_path, shift=0.5)
    _, out, _ = run_cli(capsys, "certify", "-i", path)
    data = json.loads(out)
    lo, hi = data["qMaxLower"], data["qMaxUpper"]
    tol = lo + 0.5 * (hi - lo)
    assert lo < tol < hi
    code, out, _ = run_cli(capsys, "certify", "-i", path, "--tolerance", repr(tol))
    assert code == 2
    data = json.loads(out)
    assert data["verdict"] == "Inconclusive"
    assert (data["qMaxLower"], data["qMaxUpper"]) == (lo, hi)


def test_certify_search_flags_removed(tmp_path, capsys):
    path = write_operator(tmp_path / "id.json", np.eye(6))
    for flag in ("--restarts", "--grid", "--seed"):
        with pytest.raises(SystemExit):
            main(["certify", "-i", path, flag, "4"])


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_certify_non_finite_entry_exit_1(tmp_path, capsys, token):
    rows = [[1.0 if i == j else 0.0 for j in range(6)] for i in range(6)]
    text = json.dumps({"basis": "coordinate", "matrix": rows}).replace("1.0", token, 1)
    path = tmp_path / "nonfinite.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "certify", "-i", str(path))
    assert code == 1
    assert out == ""
    assert "not finite" in err and len(err.strip().splitlines()) == 1


def test_certify_overflowing_entries_exit_1(tmp_path, capsys):
    # finite, but e1^e2 + e3^e4 overflows in the SD/ASD frame
    path = write_operator(tmp_path / "big.json", np.diag([1.7e308, 0, 0, 0, 0, 1.7e308]))
    code, out, err = run_cli(capsys, "certify", "-i", path)
    assert code == 1
    assert out == ""
    assert "overflow" in err and len(err.strip().splitlines()) == 1


def test_certify_byte_identical(tmp_path, capsys):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    M = 0.5 * (M + M.T)
    A, C = M[:3, :3], M[3:, 3:]
    shift = (np.trace(A) - np.trace(C)) / 6.0
    M[:3, :3] -= shift * np.eye(3)
    M[3:, 3:] += shift * np.eye(3)
    path = write_operator(tmp_path / "op.json", M, basis="sd-asd")
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "certify", "-i", path)
        assert code in (0, 2)
        outs.append(out)
    assert outs[0] == outs[1]


def test_scan_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "scan", "--chi-max", "5")
    code2, out2, _ = run_cli(capsys, "scan", "--chi-max", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("chi,tau,")


def test_dumps_numpy_integers():
    out = jsonio.dumps({"a": np.int64(3), "b": [np.int32(-2), np.uint8(7)]})
    assert out.startswith('{"a": 3, "b": [-2, 7], "convention": {')


def test_decompose_scaled_operator_accepted(tmp_path, capsys):
    # roundoff in the Bianchi balance of a 1e150-scale operator is not a defect
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    C = rng.standard_normal((3, 3))
    A, C = A + A.T, C + C.T
    C += (np.trace(A) - np.trace(C)) / 3 * np.eye(3)
    M = np.block([[A, np.zeros((3, 3))], [np.zeros((3, 3)), C]]) * 1e150
    path = write_operator(tmp_path / "op.json", M, basis="sd-asd")
    code, out, err = run_cli(capsys, "decompose", "-i", path)
    assert code == 0 and err == ""
    assert json.loads(out)["charDensities"]["ratio"] is not None


_ROWS = [[float(i == j) for j in range(6)] for i in range(6)]
_NEG = json.dumps({"matrix": [[-1e-9 * x for x in row] for row in _ROWS]})  # q <= -2e-9


def _with_entry(i, j, token):
    """The identity operator file with entry (i, j) written as the JSON ``token``."""
    rows = [[json.dumps(x) for x in row] for row in _ROWS]
    rows[i][j] = token
    return '{"matrix": [' + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]}"


_BAD_FILES = [
    ("[" * 100_000, "{op}: JSON nested too deeply to read"),
    (_with_entry(5, 5, "1" + "0" * 400),
     "{op}: matrix[5][5] is an integer beyond the float range"),
    (_with_entry(0, 0, "true"), "{op}: matrix[0][0] must be a number"),
    (_with_entry(2, 3, '"1"'), "{op}: matrix[2][3] must be a number"),
    (_with_entry(1, 1, "null"), "{op}: matrix[1][1] must be a number"),
    (_with_entry(4, 0, "[1.0]"), "{op}: matrix[4][0] must be a number"),
    (json.dumps({"matrix": _ROWS[:3] + [_ROWS[3][:5]] + _ROWS[4:]}),
     "{op}: matrix[3] must be an array of 6 numbers"),
    (json.dumps({"matrix": _ROWS[:5]}), "{op}: matrix must be an array of 6 rows"),
    (json.dumps({"matrix": sum(_ROWS, [])}),
     "{op}: matrix must be an array of 6 rows"),
    ('{"matrix": 1}', "{op}: matrix must be an array of 6 rows"),
    ("[]", "{op}: operator JSON must be an object with a 'matrix' field"),
    ('{"basis": "coordinate"}', "{op}: operator JSON must be an object with a 'matrix' field"),
    (json.dumps({"basis": "SD/ASD", "matrix": _ROWS}),
     "{op}: basis must be 'coordinate' or 'sd-asd'"),
    *[(_with_entry(2, 2, sign + "1" + "0" * 5000),
       f"{{op}}: an integer has more than {sys.get_int_max_str_digits()} digits, "
       "the limit of sys.get_int_max_str_digits()") for sign in ("", "-")],
]


@pytest.mark.parametrize("argv, text, message", [
    *[([command, "-i", "{op}"], text, message)
      for text, message in _BAD_FILES for command in ("decompose", "certify")],
    *[(["certify", "-i", "{op}", f"--tolerance={value}"], _NEG,
       f"argument --tolerance must be finite and at least 0, got {shown}")
      for value, shown in (("-1", "-1.0"), ("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"),
                           ("1e400", "inf"))],
    *[(["model", name, "--param", f"s={value}"], None,
       f"parameter 's' must be finite, got {value}")
      for name, value in (("fubiniStudy", "inf"), ("bergman", "-inf"), ("fubiniStudy", "nan"),
                          ("bergman", "nan"))],
    (["page"], None, "page needs at least one of --verify, --negcurv, --integrate"),
    *[(argv, None, "geo needs --chi and --tau (or --csv batch input)")
      for argv in (["geo"], ["geo", "--chi", "3"])],
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_refused_input_exit_1_one_line(tmp_path, capsys, argv, text, message):
    # before, these printed a traceback or a numpy warning, exited 0 with a verdict,
    # or gave a message that named no entry
    op = tmp_path / "op.json"
    if text is not None:
        op.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *(arg.format(op=op) for arg in argv))
    assert (code, out) == (1, "")
    assert err == f"error: {message.format(op=op)}\n"


@pytest.mark.parametrize("argv", [
    ["decompose", "-i", "{op}"], ["certify", "-i", "{op}"],
    ["certify", "-i", "{neg}", "--tolerance", "0"],
    ["certify", "-i", "{neg}", "--tolerance", "-0"],
])
def test_valid_file_and_zero_tolerance_exit_0(tmp_path, capsys, argv):
    # integer literals are numbers; a tolerance of 0 is valid
    op, neg = tmp_path / "op.json", tmp_path / "neg.json"
    op.write_text(_with_entry(0, 0, "1").replace("0.0", "0"), encoding="utf-8")
    neg.write_text(_NEG, encoding="utf-8")
    code, out, err = run_cli(capsys, *(arg.format(op=op, neg=neg) for arg in argv))
    assert (code, err) == (0, "")
    if "--tolerance" in argv:
        assert json.loads(out)["verdict"] == "NonPositive"


@pytest.mark.parametrize("command", ["decompose", "certify"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, command):
    # some editors start a UTF-8 file with a byte-order mark; geo --csv skips it too
    op = random_admissible_operator(np.random.default_rng(16), basis="coordinate")
    plain = write_operator(tmp_path / "op.json", op.matrix)
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "op.json").read_bytes())
    want = run_cli(capsys, command, "-i", plain)
    assert want[0] == 0
    assert run_cli(capsys, command, "-i", str(bom)) == want


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"matrix": [[1, 2,\n', encoding="utf-8")
    code, _, err = run_cli(capsys, "decompose", "-i", str(path))
    assert code == 1
    assert "line" in err and "column" in err


def test_decompose_identity(tmp_path, capsys):
    path = write_operator(tmp_path / "id.json", np.eye(6))
    code, out, _ = run_cli(capsys, "decompose", "-i", path)
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"]["s"] == 12.0
    assert data["charDensities"]["ratio"] is None or isinstance(
        data["charDensities"]["ratio"], str)


@pytest.mark.parametrize("matrix", [
    -1e300 * np.eye(6),                         # s^2 / 24 overflows
    np.diag([3e200, -3e200, 0, 1e200, -1e200, 0]),  # |W+|^2 overflows
])
def test_decompose_density_overflow_prints_infinity(tmp_path, capsys, matrix):
    # these exited 1; the decomposition and glReport are finite, and a density
    # past the float range reads Infinity
    path = write_operator(tmp_path / "huge.json", matrix, basis="sd-asd")
    code, out, err = run_cli(capsys, "decompose", "-i", path)
    assert (code, err) == (0, "")
    densities = json.loads(out)["charDensities"]
    assert densities["eulerDensity"] == "Infinity"
    assert densities["signatureDensity"] == ("Infinity" if matrix[0, 0] > 0 else 0.0)


@pytest.mark.parametrize("radii", ["0", "-3"])
def test_page_nonpositive_radii_exit_1(capsys, radii):
    code, out, err = run_cli(capsys, "page", "--verify", "--radii", radii)
    assert code == 1
    assert out == ""
    assert "--radii" in err and len(err.strip().splitlines()) == 1


_SIZE_OPTIONS = [("page", "--verify", "--radii"), ("page", "--integrate", "--nodes"),
                 ("scan", None, "--chi-max")]


@pytest.mark.parametrize("command, mode, option", _SIZE_OPTIONS)
def test_size_option_past_maximum_refused_while_parsing(capsys, monkeypatch,
                                                        command, mode, option):
    from fourcurv import cli

    limit = {"--radii": cli.MAX_RADII, "--nodes": cli.MAX_NODES,
             "--chi-max": cli.MAX_CHI}[option]
    argv = [command] + ([mode] if mode else []) + [option, str(limit + 1)]
    with pytest.raises(FourcurvError, match=f"argument {option} must be at most {limit}$"):
        cli.build_parser().parse_args(argv)
    # no work starts: the command's handler is never called
    monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: pytest.fail("handler ran"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: argument {option} must be at most {limit}\n"


@pytest.mark.parametrize("nodes", ["8", "15"])
def test_page_nodes_below_16_refused_while_parsing(capsys, monkeypatch, nodes):
    # --nodes 8 ran 96 orbits, then said "orbit quadrature needs at least 16 nodes"
    from fourcurv import cli

    monkeypatch.setattr(cli, "_cmd_page", lambda args: pytest.fail("handler ran"))
    code, out, err = run_cli(capsys, "page", "--verify", "--negcurv", "--integrate",
                             "--nodes", nodes)
    assert (code, out) == (1, "")
    assert err == "error: argument --nodes must be at least 16\n"


def test_scan_negative_chi_max_refused_while_parsing(capsys, monkeypatch):
    # exited 1 with "chi_max must be non-negative", from scan_csv after parsing
    from fourcurv import cli

    monkeypatch.setattr(cli, "_cmd_scan", lambda args: pytest.fail("handler ran"))
    code, out, err = run_cli(capsys, "scan", "--chi-max", "-1")
    assert (code, out) == (1, "")
    assert err == "error: argument --chi-max must be at least 0\n"


@pytest.mark.parametrize("command, mode, option", _SIZE_OPTIONS)
def test_size_option_past_digit_limit_exit_1(capsys, command, mode, option):
    argv = [command] + ([mode] if mode else []) + [option, "1" + "0" * 5000]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"argument {option} has more than {sys.get_int_max_str_digits()} digits" in err
    assert len(err.strip().splitlines()) == 1 and len(err) < 200  # the digits are not echoed


def test_page_byte_identical(capsys):
    argv = ("page", "--verify", "--negcurv", "--integrate", "--radii", "16", "--nodes", "24")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["einstein"]["maxResidual"] <= 1e-6
    assert data["negativeCurvature"]["minSec"] < 0.0
    assert data["charNumbers"]["chi"] == pytest.approx(4.0, abs=1e-3)


def test_page_integrate_nonconvergent_exit_2(capsys, monkeypatch):
    # doubling the nodes moves chi by 1e-2, past the 1e-3 the quadrature accepts
    from fourcurv import page
    from fourcurv.errors import NonConvergentError

    integrals = {16: (4.0, 0.0), 32: (4.01, 0.0)}
    monkeypatch.setattr(page, "_char_integrals", lambda m, nodes: integrals[nodes])
    with pytest.raises(NonConvergentError, match="node doubling moved the integrals by"):
        page.integrate_char_numbers(page.page_metric(), nodes=16)
    code, out, err = run_cli(capsys, "page", "--integrate", "--nodes", "16")
    assert (code, out) == (2, "")
    assert err == "numerical failure: node doubling moved the integrals by 1.000e-02 (> 1e-3)\n"


def test_chart_study(capsys):
    code, out, _ = run_cli(capsys, "chart", "sphereProductChart", "--study",
                           "--point", "1.2,0.4,1.3,-0.5")
    assert code == 0
    data = json.loads(out)
    assert 3.5 <= data["slope"] <= 4.5


@pytest.mark.parametrize("steps, shown", [("0.02,0.01,-0.005", "-0.005"),
                                          ("0.02,0.01,0", "0.0"),
                                          ("0.02,0.01,nan", "nan")])
def test_chart_study_refuses_bad_steps(capsys, steps, shown):
    # these exited 0 with made-up or NaN errors, one after a numpy warning; the
    # refusal names the first bad step, as for --step
    code, out, err = run_cli(capsys, "chart", "flatChart", "--study", "--steps", steps)
    assert (code, out) == (1, "")
    assert err == f"error: step {shown} is not finite and positive\n"
    code, out, err = run_cli(capsys, "chart", "flatChart", "--point", "0,0,0,0", "--step", shown)
    assert (code, out, err) == (1, "", f"error: step {shown} is not finite and positive\n")


def test_chart_steps_past_maximum_refused(capsys, monkeypatch):
    from fourcurv import cli, numgeom

    calls = []

    def study(chart, point, steps):
        calls.append(len(steps))
        return numgeom.ConvergenceStudy(steps=(1.0,), errors=(0.0,), slope=None)

    monkeypatch.setattr(numgeom, "convergence_study", study)
    for n in (cli.MAX_STEPS, cli.MAX_STEPS + 1):
        steps = ",".join(repr(0.02 * 0.999**k) for k in range(n))
        code, out, err = run_cli(capsys, "chart", "flatChart", "--study", "--steps", steps)
    assert calls == [cli.MAX_STEPS]  # the longer list starts no work
    assert (code, out) == (1, "")
    assert err == (f"error: argument --steps must have at most {cli.MAX_STEPS} entries, "
                   f"got {cli.MAX_STEPS + 1}\n")


@pytest.mark.parametrize("argv, step", [
    (("flatChart", "--study", "--steps", "1e-200,1e-201,1e-202"), "1e-200"),
    (("hyperbolic4HalfSpace", "--point", "0,0,0,1", "--step", "1e-300"), "1e-300"),
    (("flatChart", "--point", "0,0,0,0", "--step", "2.9e-154"), "2.9e-154")])
def test_chart_step_too_small_exit_1(capsys, argv, step):
    # these printed numpy warnings, and --study then exited 0 with NaN errors
    code, out, err = run_cli(capsys, "chart", *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: step {step} is too small: (step/2)^2 is below the smallest "
                   "normal float\n")


@pytest.mark.parametrize("extra", [(), ("--study",)])
@pytest.mark.parametrize("a", ["1e-308"])
def test_sphere_product_chart_overflow_exit_1(capsys, a, extra):
    # numpy's overflow warnings from the frame contraction came first
    code, out, err = run_cli(capsys, "chart", "sphereProductChart", "--param", f"a={a}",
                             "--param", "b=1", "--point", "1,0,1,0", *extra)
    assert (code, out) == (1, "")
    assert err == "error: operator matrix has 36 of 36 entries not finite (NaN or Infinity)\n"


@pytest.mark.parametrize("extra", [(), ("--study",)])
@pytest.mark.parametrize("a", ["1e-300", "1e-250", "1e-220", "1e-200", "1e-180"])
def test_sphere_product_chart_small_curvature(capsys, a, extra):
    # exit 1 with 36 entries not finite: the stencil sums did not cancel along
    # the coordinates the metric does not depend on
    code, out, err = run_cli(capsys, "chart", "sphereProductChart", "--param", f"a={a}",
                             "--param", "b=1", "--point", "1,0,1,0", *extra)
    assert (code, err) == (0, "")
    if not extra:
        matrix = json.loads(out)["operator"]["matrix"]
        assert matrix[0][0] / float(a) == pytest.approx(1.0, abs=1e-9)
        assert matrix[5][5] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("key, value", [("a", "1e-310"), ("b", "1e-309"), ("b", "5e-324")])
def test_sphere_product_chart_metric_past_float_range_exit_1(capsys, key, value):
    code, out, err = run_cli(capsys, "chart", "sphereProductChart", "--param", f"{key}={value}",
                             "--point", "1,0,1,0")
    assert (code, out) == (1, "")
    assert err == (f"error: parameter '{key}' = {float(value)!r} puts 1/{key} outside the "
                   "float range\n")


@pytest.mark.parametrize("name", ["sphere4", "hyperbolic4"])
@pytest.mark.parametrize("r", ["1e-160", "1e-155", "1e170", "inf", "nan"])
def test_model_radius_past_float_range_exit_1(capsys, name, r):
    # 1e-160 printed a numpy overflow warning first, inf gave the zero operator
    code, out, err = run_cli(capsys, "model", name, "--param", f"r={r}")
    assert (code, out) == (1, "")
    assert err == f"error: parameter 'r' = {float(r)!r} puts 1/r^2 outside the float range\n"


@pytest.mark.parametrize("name, sign", [("sphere4", 1.0), ("hyperbolic4", -1.0)])
@pytest.mark.parametrize("r", ["1e155", "1e160"])
def test_model_radius_with_subnormal_curvature(capsys, name, sign, r):
    # r^2 overflowed with a traceback; 1/r^2 is subnormal and valid
    code, out, err = run_cli(capsys, "model", name, "--param", f"r={r}")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["operator"]["matrix"][0][0] == sign / float(r) / float(r) != 0.0
    assert data["flags"]["kahler"] is False


def test_chart_point_evaluation(capsys):
    code, out, _ = run_cli(capsys, "chart", "hyperbolic4HalfSpace",
                           "--point", "0,0,0,1", "--step", "0.01")
    assert code == 0
    data = json.loads(out)
    assert data["einsteinResidual"] < 1e-6


def test_geo_csv_batch(tmp_path, capsys):
    src = tmp_path / "points.csv"
    src.write_text("chi,tau\n3,1\n15,8\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "geo", "--csv", str(src))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1].startswith("3,1,true")
    assert lines[2].split(",")[3] == "false"  # 15,8 fails the strict bound
    # blank rows are skipped, before the header too
    src.write_text("\nchi,tau\n3,1\n\n15,8\n\n", encoding="utf-8")
    assert run_cli(capsys, "geo", "--csv", str(src)) == (code, out, "")
    # the batch and the scan write rows alike
    src.write_text("".join(f"{c},{t}\n" for c in range(4) for t in range(-c, c + 1)),
                   encoding="utf-8")
    _, geo, _ = run_cli(capsys, "geo", "--csv", str(src))
    _, scan, _ = run_cli(capsys, "scan", "--chi-max", "3")
    assert geo == scan


@pytest.mark.parametrize("text", ["chi,tau\n3,1\n15,8\n", "3,1\n15,8\n"])
def test_geo_csv_byte_order_mark(tmp_path, capsys, text):
    # a "CSV UTF-8" export starts with U+FEFF, before a header or a first data row
    src = tmp_path / "points.csv"
    src.write_text(text, encoding="utf-8")
    _, plain, _ = run_cli(capsys, "geo", "--csv", str(src))
    src.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, out, err = run_cli(capsys, "geo", "--csv", str(src))
    assert (code, err) == (0, "")
    assert out == plain and out.count("\n") == 3


@pytest.mark.parametrize("text, message", [
    ("chi,tau\n3,1\n7\n", "line 3: expected chi,tau"),
    ("chi,tau\n3,1\n15,8\n4,x\n", "line 4: chi and tau must be integers"),
    # a field past csv's field size limit, which the reader itself refuses
    pytest.param("chi,tau\n3,1\n" + "1" * 200_000 + ",1\n",
                 "line 3: field larger than field limit", id="field-limit"),
    # longer than the digit limit, but no integer: not a digit-limit refusal
    pytest.param("chi,tau\n3,1\n" + "x" * 5000 + ",1\n",
                 "line 3: chi and tau must be integers", id="long-non-integer"),
    # a field that quotes the interpreter's digit-limit message is still no integer
    pytest.param("chi,tau\n3,1\nExceeds the limit,1\n",
                 "line 3: chi and tau must be integers", id="limit-text"),
])
def test_geo_csv_bad_row_exit_1(tmp_path, capsys, text, message):
    src = tmp_path / "points.csv"
    src.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "geo", "--csv", str(src))
    assert code == 1
    assert out == ""
    # the refusal starts with the file, as every other input-file refusal does
    assert err.startswith(f"error: {src}: {message}") and len(err.strip().splitlines()) == 1


def test_geo_csv_non_integer_fields_are_cut(tmp_path, capsys, monkeypatch):
    # each field of a non-integer row is echoed by its first 20 characters only
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text("chi,tau\n3,1\n" + "x" * 5000 + ",1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "geo", "--csv", "p.csv")
    assert (code, out) == (1, "")
    assert err == ("error: p.csv: line 3: chi and tau must be integers, got "
                   "'xxxxxxxxxxxxxxxxxxxx'..., '1'\n")
    assert len(err) < 200


def test_geo_csv_later_chi_row_is_not_a_header(tmp_path, capsys):
    # only the first non-blank row can be a header; a later one is a bad row
    src = tmp_path / "points.csv"
    src.write_text("chi,tau\n3,1\nCHI,x\n4,2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "geo", "--csv", str(src))
    assert (code, out) == (1, "")
    assert "line 3: chi and tau must be integers" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("row, message", [
    ("1" + "0" * 5000 + ",1", "line 2: chi or tau has more than"),  # past the limit itself
    ("9" * sys.get_int_max_str_digits() + "," + "9" * sys.get_int_max_str_digits(),
     "line 2: c1sq = 2 chi + 3 tau has more than"),  # c1sq has one digit more
], ids=["chi", "c1sq"])
def test_geo_csv_integer_past_digit_limit_exit_1(tmp_path, capsys, row, message):
    src = tmp_path / "points.csv"
    src.write_text(f"chi,tau\n{row}\n3,1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "geo", "--csv", str(src))
    assert (code, out) == (1, "")
    assert message in err and f"{sys.get_int_max_str_digits()} digits" in err
    assert "sys.get_int_max_str_digits()" in err
    assert len(err.strip().splitlines()) == 1 and len(err) < 200  # the field is not echoed


_LARGEST = "9" * sys.get_int_max_str_digits()  # the largest integer the interpreter reads


@pytest.mark.parametrize("argv, message", [
    (["--chi", "1" + "0" * 5000, "--tau", "1"], "argument --chi has more than"),
    (["--chi", "1", "--tau", "-1" + "0" * 5000], "argument --tau has more than"),
    (["--chi", _LARGEST, "--tau", _LARGEST], "c1sq = 2 chi + 3 tau has more than"),
    (["--chi", _LARGEST, "--tau", _LARGEST, "--format", "human"],
     "c1sq = 2 chi + 3 tau has more than"),
], ids=["chi", "tau", "c1sq", "c1sq-human"])
def test_geo_integer_past_digit_limit_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, "geo", *argv)
    assert (code, out) == (1, "")
    assert message in err and f"{sys.get_int_max_str_digits()} digits" in err
    assert "sys.get_int_max_str_digits()" in err
    assert len(err.strip().splitlines()) == 1 and len(err) < 200  # the digits are not echoed


# The parser's text built from the catalog names, as Python 3.11's argparse formats it
# at 80 columns: (stdout, stderr, exit code).
_MODEL_USAGE = ("usage: fourcurv model [-h] [--param K=V] [--json] [--format {json,human}]\n"
                "                      {flat,sphere4,hyperbolic4,surfaceProduct,fubiniStudy,"
                "bergman}\n")
_CHART_USAGE = ("usage: fourcurv chart [-h] [--param K=V] [--point POINT] [--step STEP]\n"
                "                      [--study] [--steps STEPS] [--json]\n"
                "                      [--format {json,human}]\n"
                "                      {flatChart,sphereProductChart,hyperbolic4HalfSpace}\n")
_OPTIONS = ("options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --param K=V\n")
_FORMAT = ("  --json                emit JSON (default)\n"
           "  --format {json,human}\n")
CATALOG_TEXT = {
    "model -h": (_MODEL_USAGE + "\npositional arguments:\n"
                 "  {flat,sphere4,hyperbolic4,surfaceProduct,fubiniStudy,bergman}\n\n"
                 + _OPTIONS + _FORMAT, "", 0),
    "chart -h": (_CHART_USAGE + "\npositional arguments:\n"
                 "  {flatChart,sphereProductChart,hyperbolic4HalfSpace}\n\n"
                 + _OPTIONS
                 + "  --point POINT         x1,x2,x3,x4\n"
                   "  --step STEP\n"
                   "  --study               run a step-refinement study\n"
                   "  --steps STEPS         comma-separated steps for --study\n"
                 + _FORMAT, "", 0),
    "model nosuch": ("", _MODEL_USAGE + "fourcurv model: error: argument name: invalid choice: "
                     "'nosuch' (choose from 'flat', 'sphere4', 'hyperbolic4', 'surfaceProduct', "
                     "'fubiniStudy', 'bergman')\n", 2),
    "chart nosuch": ("", _CHART_USAGE + "fourcurv chart: error: argument name: invalid choice: "
                     "'nosuch' (choose from 'flatChart', 'sphereProductChart', "
                     "'hyperbolic4HalfSpace')\n", 2),
    "geo --chi abc --tau 1": ("", "usage: fourcurv geo [-h] [--chi CHI] [--tau TAU] [--csv CSV] "
                              "[--json]\n                    [--format {json,human}]\n"
                              "fourcurv geo: error: argument --chi: invalid int value: "
                              "'abc'\n", 2),
}


@pytest.mark.parametrize("command", CATALOG_TEXT)
def test_catalog_names_text_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(command.split())
    captured = capsys.readouterr()
    assert (captured.out, captured.err, exit_info.value.code) == CATALOG_TEXT[command]


def test_parser_choices_are_the_catalog_names():
    from fourcurv import cli, models

    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for command, names in (("model", models.model_names()), ("chart", models.chart_names())):
        name_arg = next(a for a in commands[command]._actions if a.dest == "name")
        assert tuple(name_arg.choices) == names


_ONE_COMMAND_ARGV = [
    *([name, "-h"] for name in ("decompose", "certify", "model", "chart", "page", "geo", "scan")),
    ["decompose"], ["certify", "-i", "x.json", "--tolerance", "abc"], ["model", "nosuch"],
    ["chart", "flatChart", "--step", "x"], ["page", "--nodes", "abc"], ["page", "--bogus"],
    ["geo", "--chi"], ["scan"], ["scan", "--chi-max", "3", "extra"],
]


@pytest.mark.parametrize("argv", _ONE_COMMAND_ARGV, ids=" ".join)
def test_parser_of_one_command_writes_the_whole_parsers_texts(capsys, monkeypatch, argv):
    # main gives arguments to the named subcommand only; its help, usage and
    # errors are the whole parser's, byte for byte
    from fourcurv import cli

    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parser in (cli.build_parser(), cli.build_parser(argv[0])):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        texts.append((capsys.readouterr(), exit_info.value.code))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("argv", [["page", "--negcurv", "--radii", "5", "--format", "human"],
                                  ["geo", "--chi", "3", "--tau", "1"], ["scan", "--chi-max", "2"],
                                  ["chart", "flatChart", "--study", "--param", "a=1"]],
                         ids=" ".join)
def test_parser_of_one_command_parses_as_the_whole(argv):
    from fourcurv import cli

    assert vars(cli.build_parser(argv[0]).parse_args(argv)) == vars(
        cli.build_parser().parse_args(argv))


def test_main_builds_the_named_command_only(capsys, monkeypatch):
    from fourcurv import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build(command))
    for argv in (["scan", "--chi-max", "1"], ["-h"], ["nosuch"], []):
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert built == ["scan", "-h", "nosuch", None]


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["scan", "--chi-max", "3", "--bogus"])


def test_json_float_format_round_trip():
    payload = {"x": 0.1, "y": 12.0, "z": [1e-17, -0.0], "w": [math.nan, math.inf, -math.inf]}
    text = jsonio.dumps(payload)
    back = json.loads(text)
    assert back["x"] == 0.1
    assert back["z"][0] == 1e-17
    assert back["w"] == ["NaN", "Infinity", "-Infinity"]


def test_wire_format_field_names(tmp_path, capsys):
    # serialized field names are a stable external contract
    path = write_operator(tmp_path / "id.json", np.eye(6))
    _, out, _ = run_cli(capsys, "decompose", "-i", path)
    data = json.loads(out)
    assert set(data["decomposition"]) == {"s", "wPlus", "wMinus", "ricBlock", "spectra"}
    assert set(data["decomposition"]["spectra"]) == {"plus", "minus"}
    assert set(data["glReport"]) == {"defect", "normWPlus", "normWMinus",
                                     "equalityBranch", "saturated", "coverClass"}
    _, out, _ = run_cli(capsys, "certify", "-i", path)
    cert = json.loads(out)
    assert {"qMaxLower", "qMaxUpper", "qMinLower", "qMinUpper", "maxWitness",
            "minWitness", "verdict", "method"} <= set(cert)
    assert set(cert["maxWitness"]) == {"psiPlus", "psiMinus", "qValue", "secValue"}
    _, out, _ = run_cli(capsys, "geo", "--chi", "2", "--tau", "0")
    geo = json.loads(out)
    assert {"gromovLuck", "einsteinNonPosStrict", "bmy", "bmyEquality", "c1sq",
            "bothOrientationsComplexPossible"} <= set(geo)


def fourcurv_env(unbuffered="1"):
    """The environment of a ``python -m fourcurv`` child, with ``PYTHONUNBUFFERED``
    unset when ``unbuffered`` is None."""
    # the child imports the same package as this process, installed or not
    src = str(Path(fourcurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def fourcurv_process(*argv, unbuffered="1", cwd=None, stdout=subprocess.PIPE):
    """A finished ``python -m fourcurv`` child (see ``fourcurv_env``); its stderr,
    and its stdout unless redirected, as text."""
    return subprocess.run([sys.executable, "-m", "fourcurv", *argv], env=fourcurv_env(unbuffered),
                          cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_module_entry_point():
    proc = fourcurv_process("geo", "--chi", "3", "--tau", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bmyEquality"] is True


@pytest.mark.parametrize("name,s", [("fubiniStudy", "1e200"), ("bergman", "-1e200")])
def test_kahler_model_at_large_scale(name, s):
    # s^2 overflowed in the Kahler test, which then said false with a numpy warning
    proc = fourcurv_process("model", name, "--param", f"s={s}")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["flags"]["kahler"] is True


# the process entry flushes and exits itself: with stdout buffered or not, it
# must end with what the in-process main writes and returns
STDOUT_MODES = pytest.mark.parametrize("unbuffered", [None, "1"],
                                       ids=["buffered", "unbuffered"])


@STDOUT_MODES
@pytest.mark.parametrize("argv, code", [
    (["geo", "--chi", "3", "--tau", "1"], 0),
    (["certify", "-i", "missing.json"], 1),
    (["model", "nosuch"], 2),  # an argparse usage error
], ids=["ok", "input-error", "usage-error"])
def test_process_exit_matches_main(tmp_path, monkeypatch, capsys, unbuffered, argv, code):
    monkeypatch.chdir(tmp_path)
    try:
        want = main(argv)
    except SystemExit as exc:
        want = exc.code
    out, err = capsys.readouterr()
    proc = fourcurv_process(*argv, unbuffered=unbuffered, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (want, out, err)
    assert want == code
    if code == 1:
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def scan_1000():
    from fourcurv import geography

    return geography.scan_csv(1000)


@STDOUT_MODES
def test_process_scan_through_a_pipe(scan_1000, unbuffered):
    # 40 MB: the report reaches the pipe in many writes before the exit
    proc = fourcurv_process("scan", "--chi-max", "1000", unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == scan_1000


@STDOUT_MODES
def test_process_refuses_a_pipe_closed_early(unbuffered):
    # unbuffered, the text layer dropped the count of a short write: the report
    # was cut short with exit 0 and no message
    child = subprocess.Popen([sys.executable, "-m", "fourcurv", "scan", "--chi-max", "300"],
                             env=fourcurv_env(unbuffered), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    assert len(child.stdout.read(10)) == 10  # of 3.5 MB, far past the pipe's buffer
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (1, b"error: [Errno 32] Broken pipe\n")


@STDOUT_MODES
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["geo", "--chi", "3", "--tau", "1"],  # fits the buffer: the final flush fails
    ["scan", "--chi-max", "100"],  # past the buffer: a write in main fails
    ["--help"],  # argparse swallows a failed write of its own
], ids=["final-flush", "write", "help"])
def test_process_refuses_a_full_disk(unbuffered, argv):
    # buffered, the interpreter's exit flush used to fail with "Exception ignored
    # in: <stdout>", a second line, and exit 120
    with open("/dev/full", "w") as full:
        proc = fourcurv_process(*argv, unbuffered=unbuffered, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 28] No space left on device\n"
