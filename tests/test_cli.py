"""CLI behavior: output shape, exit codes, and byte-level determinism."""

import json

import numpy as np
import pytest

from fourcurv import jsonio
from fourcurv.cli import main


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


def _gap_operator(tmp_path):
    # q_max = 10/3 - 3.6 = -4/15: sec < 0 everywhere, although the bound
    # lam_max(A) + lam_max(C) + 2 sigma_max(B) = 1.4 is positive
    M = np.zeros((6, 6))
    M[:3, :3] = np.diag([-2.3, -2.3, 0.7])
    M[3:, 3:] = -1.3 * np.eye(3)
    M[0, 3] = M[3, 0] = 1.0
    return write_operator(tmp_path / "gap.json", M, basis="sd-asd")


def test_certify_negative_qmax_nonpositive(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "certify", "-i", _gap_operator(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NonPositive"
    assert data["qMaxUpper"] == pytest.approx(-4.0 / 15.0, abs=1e-13)
    assert data["qMaxLower"] == pytest.approx(-4.0 / 15.0, abs=1e-13)


def test_certify_inconclusive_exit_2(tmp_path, capsys):
    # a tolerance strictly inside the certified interval [qMaxLower,
    # qMaxUpper]: whether q_max <= tol cannot be decided from the bounds
    path = _gap_operator(tmp_path)
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
def test_decompose_density_overflow_exit_1(tmp_path, capsys, matrix):
    path = write_operator(tmp_path / "huge.json", matrix, basis="sd-asd")
    code, out, err = run_cli(capsys, "decompose", "-i", path)
    assert code == 1
    assert out == ""
    assert "float range" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("radii", ["0", "-3"])
def test_page_nonpositive_radii_exit_1(capsys, radii):
    code, out, err = run_cli(capsys, "page", "--verify", "--radii", radii)
    assert code == 1
    assert out == ""
    assert "--radii" in err and len(err.strip().splitlines()) == 1


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


def test_chart_study(capsys):
    code, out, _ = run_cli(capsys, "chart", "sphereProductChart", "--study",
                           "--point", "1.2,0.4,1.3,-0.5")
    assert code == 0
    data = json.loads(out)
    assert 3.5 <= data["slope"] <= 4.5


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
    # the batch and the scan write rows alike
    src.write_text("".join(f"{c},{t}\n" for c in range(4) for t in range(-c, c + 1)),
                   encoding="utf-8")
    _, geo, _ = run_cli(capsys, "geo", "--csv", str(src))
    _, scan, _ = run_cli(capsys, "scan", "--chi-max", "3")
    assert geo == scan


@pytest.mark.parametrize("text, message", [
    ("chi,tau\n3,1\n7\n", "line 3: expected chi,tau"),
    ("chi,tau\n3,1\n15,8\n4,x\n", "line 4: chi and tau must be integers"),
])
def test_geo_csv_bad_row_exit_1(tmp_path, capsys, text, message):
    src = tmp_path / "points.csv"
    src.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "geo", "--csv", str(src))
    assert code == 1
    assert out == ""
    assert message in err and len(err.strip().splitlines()) == 1


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["scan", "--chi-max", "3", "--bogus"])


def test_json_float_format_round_trip():
    payload = {"x": 0.1, "y": 12.0, "z": [1e-17, -0.0]}
    text = jsonio.dumps(payload)
    back = json.loads(text)
    assert back["x"] == 0.1
    assert back["z"][0] == 1e-17


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


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fourcurv
    # the child imports the same package as this process, installed or not
    src = str(Path(fourcurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fourcurv", "geo",
                           "--chi", "3", "--tau", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bmyEquality"] is True


@pytest.mark.parametrize("name,s", [("fubiniStudy", "1e200"), ("bergman", "-1e200")])
def test_kahler_model_at_large_scale(name, s):
    # s^2 overflowed in the Kahler test, which then said false with a numpy warning
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fourcurv
    src = str(Path(fourcurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fourcurv", "model", name, "--param", f"s={s}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["flags"]["kahler"] is True
