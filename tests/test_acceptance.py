"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its runtime.  Every tolerance is pinned here, not
calibrated elsewhere.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    assemble_einstein,
    grid_oracle_qmax,
    random_admissible_operator,
    random_einstein_operator,
    rotated_spectrum,
)
from fourcurv import curvops, geography, page, secsign
from fourcurv.cli import main as cli_main
from fourcurv.curvops import (
    COORDINATE,
    CoverClass,
    CurvatureOperator,
    classify_equality,
    char_densities,
    decompose,
    gl_defect,
    kahler_signature_check,
    recompose,
)
from fourcurv.models import catalog, chart_for, chart_reference_operator
from fourcurv.numgeom import convergence_study, curvature_at
from fourcurv.secsign import certify_sec_sign, einstein_sec_range

SQ6 = math.sqrt(6.0)


class Criterion:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name
        self.t0 = time.perf_counter()

    def conclude(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {self.number:02d}] {self.name}: {status} ({elapsed:.2f}s)"
        if detail:
            line += f"  {detail}"
        print(line)
        assert ok, line
        return elapsed


def test_criterion_01_decomposition_exactness(rng):
    crit = Criterion(1, "decomposition exactness and round trip")
    expected = {
        ("flat", ()): (0.0, [0, 0, 0], [0, 0, 0]),
        ("sphere4", (("r", 1.0),)): (12.0, [0, 0, 0], [0, 0, 0]),
        ("hyperbolic4", (("r", 1.0),)): (-12.0, [0, 0, 0], [0, 0, 0]),
        ("surfaceProduct", (("a", 1.0), ("b", 1.0))): (
            4.0, [-1 / 3, -1 / 3, 2 / 3], [-1 / 3, -1 / 3, 2 / 3]),
        ("surfaceProduct", (("a", -1.0), ("b", -1.0))): (
            -4.0, [-2 / 3, 1 / 3, 1 / 3], [-2 / 3, 1 / 3, 1 / 3]),
        ("fubiniStudy", (("s", 24.0),)): (24.0, [-2, -2, 4], [0, 0, 0]),
        ("bergman", (("s", -24.0),)): (-24.0, [-4, 2, 2], [0, 0, 0]),
    }
    ok = True
    for (name, params), (s, spec_p, spec_m) in expected.items():
        d = catalog(name, dict(params)).decomposition
        ok &= abs(d.s - s) <= 1e-12
        ok &= np.abs(d.spectrum_plus - np.array(spec_p, dtype=float)).max() <= 1e-12
        ok &= np.abs(d.spectrum_minus - np.array(spec_m, dtype=float)).max() <= 1e-12

    worst = 0.0
    for _ in range(1000):
        op = random_admissible_operator(rng, basis=COORDINATE)
        back = recompose(decompose(op))
        worst = max(worst, float(np.abs(back.matrix - op.matrix).max()))
    ok &= worst <= 1e-12
    elapsed = time.perf_counter() - crit.t0
    ok &= elapsed < 1.0
    crit.conclude(ok, f"round-trip max {worst:.2e}")


def _branch_operator(rng, non_positive: bool, mode: str):
    """Random Einstein operator obeying the branch constraint on q at the
    extreme eigenvectors.

    mode "saturated": doubled eigenvalue pattern with the boundary scalar
    curvature; "mults-interior": doubled pattern but strictly interior s
    (must NOT saturate); "generic": generic spectra with interior s.
    """
    if mode in ("saturated", "mults-interior"):
        t_p, t_m = rng.uniform(0.2, 2.0, size=2)
        slack = 1.0 if mode == "saturated" else 1.0 + rng.uniform(0.2, 1.0)
        if non_positive:
            wp = rotated_spectrum(rng, [-2 * t_p, t_p, t_p])
            wm = rotated_spectrum(rng, [-2 * t_m, t_m, t_m])
            s = -6.0 * (t_p + t_m) * slack
        else:
            wp = rotated_spectrum(rng, [-t_p, -t_p, 2 * t_p])
            wm = rotated_spectrum(rng, [-t_m, -t_m, 2 * t_m])
            s = 6.0 * (t_p + t_m) * slack
        return assemble_einstein(s, wp, wm), mode == "saturated"
    spec_p = np.sort(rng.uniform(-2.0, 2.0, size=3))
    spec_p -= spec_p.mean()
    spec_m = np.sort(rng.uniform(-2.0, 2.0, size=3))
    spec_m -= spec_m.mean()
    slack = 1.0 + rng.uniform(0.05, 2.0)
    if non_positive:
        s = -6.0 * (spec_p[2] + spec_m[2]) * slack
    else:
        s = -6.0 * (spec_p[0] + spec_m[0]) * slack
    wp = rotated_spectrum(rng, spec_p)
    wm = rotated_spectrum(rng, spec_m)
    return assemble_einstein(s, wp, wm), False


def test_criterion_02_gl_inequality(rng):
    crit = Criterion(2, "pointwise Weyl bound on both branches")
    ok = True
    min_defect = math.inf
    for i in range(1000):
        non_positive = i % 2 == 0
        mode = ("saturated" if i % 5 == 0
                else "mults-interior" if i % 5 == 1 else "generic")
        op, built_saturated = _branch_operator(rng, non_positive, mode)
        d = decompose(op)
        rep = gl_defect(d)
        min_defect = min(min_defect, rep.defect)
        ok &= rep.defect >= -1e-10
        if built_saturated:
            # forward direction: the doubled pattern with exact boundary s
            # must be flagged saturated on the right branch
            ok &= rep.saturated
            want = (curvops.EqualityBranch.NON_POSITIVE if non_positive
                    else curvops.EqualityBranch.NON_NEGATIVE)
            ok &= rep.equality_branch is want
        if rep.saturated:
            # reverse direction: the flag implies the doubled multiplicities
            scale = max(1.0, abs(d.s))
            lp, mp, vp = d.spectrum_plus
            lm, mm, vm = d.spectrum_minus
            if d.s < 0:
                ok &= (vp - mp) <= 1e-6 * scale and (vm - mm) <= 1e-6 * scale
            else:
                ok &= (mp - lp) <= 1e-6 * scale and (mm - lm) <= 1e-6 * scale
            ok &= abs(rep.defect) <= 1e-7 * scale
        else:
            ok &= not built_saturated
    crit.conclude(ok, f"min defect {min_defect:.2e}")


def test_criterion_03_trichotomy():
    crit = Criterion(3, "equality-case trichotomy on the catalog")
    cases = [
        ("surfaceProduct", {"a": 1.0, "b": 1.0}, CoverClass.SPHERE_PRODUCT),
        ("flat", {}, CoverClass.FLAT),
        ("surfaceProduct", {"a": -1.0, "b": -1.0}, CoverClass.HYPERBOLIC_PLANE_PRODUCT),
        ("fubiniStudy", {}, CoverClass.NOT_SATURATED),
        ("bergman", {}, CoverClass.NOT_SATURATED),
        ("sphere4", {}, CoverClass.NOT_SATURATED),
        ("hyperbolic4", {}, CoverClass.NOT_SATURATED),
    ]
    ok = True
    for name, params, want in cases:
        m = catalog(name, params)
        got = classify_equality(m.decomposition, m.flags.sec_sign)
        ok &= got is want
    crit.conclude(ok)


def test_criterion_04_density_ratio_exact():
    crit = Criterion(4, "euler/signature density ratio, exact rationals")
    self_dual = assemble_einstein(-6.0, np.diag([-2.0, 1.0, 1.0]), np.zeros((3, 3)))
    ratio1 = char_densities(decompose(self_dual)).ratio
    ratio2 = char_densities(catalog("fubiniStudy").decomposition).ratio
    ok = ratio1 == Fraction(15, 8) and ratio2 == Fraction(3, 1)
    crit.conclude(ok, f"ratios {ratio1}, {ratio2}")


def test_criterion_05_kahler_identity():
    crit = Criterion(5, "Kahler identity and signature non-negativity")
    ok = True
    for name in ("fubiniStudy", "bergman"):
        d = catalog(name).decomposition
        wp2 = float(np.sum(d.w_plus * d.w_plus))
        ok &= (wp2 - d.s * d.s / 24.0) == 0.0
    # every non-positively curved Kahler catalog model
    for name, params in (("flat", {}),
                         ("surfaceProduct", {"a": -1.0, "b": -1.0}),
                         ("bergman", {})):
        m = catalog(name, params)
        ok &= m.flags.kahler
        ok &= m.flags.sec_sign in (curvops.CurvatureSign.NON_POSITIVE,
                                   curvops.CurvatureSign.ZERO)
        ok &= kahler_signature_check(m.decomposition).non_negative
    crit.conclude(ok)


def test_criterion_06_sec_sign_certification(rng):
    crit = Criterion(6, "sec-sign optimizer against exact range and grid oracle")
    ok = True
    worst_einstein = 0.0
    for _ in range(100):
        op = random_einstein_operator(rng)
        d = decompose(op)
        sec_min, sec_max = einstein_sec_range(d)
        cert = certify_sec_sign(op)
        worst_einstein = max(worst_einstein,
                             abs(cert.q_max_lower - 2 * sec_max),
                             abs(cert.q_min_upper - 2 * sec_min))
    ok &= worst_einstein <= 1e-6

    worst_oracle = 0.0
    for _ in range(100):
        op = random_admissible_operator(rng)
        op = CurvatureOperator(op.matrix / max(1.0, float(np.linalg.norm(op.matrix))),
                               basis=op.basis)
        cert = certify_sec_sign(op)
        oracle, bare = grid_oracle_qmax(op)
        worst_oracle = max(worst_oracle, abs(cert.q_max_lower - oracle))
        ok &= cert.q_max_lower >= bare - 1e-9
    ok &= worst_oracle <= 1e-6
    elapsed = time.perf_counter() - crit.t0
    ok &= elapsed < 30.0
    crit.conclude(ok, f"einstein gap {worst_einstein:.2e}, oracle gap {worst_oracle:.2e}")


def test_criterion_07_numgeom_validation(rng):
    crit = Criterion(7, "finite-difference curvature against analytic charts")
    ok = True
    cases = [
        ("flatChart", {}, 0.5),
        ("sphereProductChart", {"a": 1.0, "b": 2.0}, 0.4),
        ("hyperbolic4HalfSpace", {}, 0.5),
    ]
    worst = 0.0
    for name, params, pad in cases:
        chart = chart_for(name, params)
        ref = chart_reference_operator(name, params).in_coordinate_basis()
        for _ in range(10):
            p = np.array([rng.uniform(lo + pad, hi - pad) for lo, hi in chart.domain])
            if name == "hyperbolic4HalfSpace":
                p[3] = rng.uniform(0.7, 1.5)
            pc = curvature_at(chart, p, step=0.01)
            err = float(np.abs(pc.operator.in_coordinate_basis() - ref).max())
            worst = max(worst, err)
            ok &= err <= 1e-6
    study = convergence_study(chart_for("sphereProductChart", {"a": 1.0, "b": 1.0}),
                              [1.1, 0.5, 1.3, -0.4], [0.02, 0.01, 0.005])
    ok &= study.slope is not None and 3.5 <= study.slope <= 4.5
    elapsed = time.perf_counter() - crit.t0
    ok &= elapsed < 10.0
    crit.conclude(ok, f"worst op error {worst:.2e}, slope {study.slope:.2f}")


def test_criterion_08_page_pipeline():
    crit = Criterion(8, "Page metric: Einstein, negative curvature, chi and tau")
    m = page.page_metric()
    check = page.verify_einstein(m, page.chebyshev_radii(32))
    ok = check.max_residual <= 1e-6
    ok &= check.lambda_ > 0

    neg = page.certify_negative_curvature(m)
    ok &= neg.min_sec < 0.0

    numbers = page.integrate_char_numbers(m, nodes=48)
    ok &= abs(numbers.chi - 4.0) <= 1e-2
    ok &= abs(numbers.tau - 0.0) <= 1e-2
    elapsed = time.perf_counter() - crit.t0
    ok &= elapsed < 120.0
    crit.conclude(ok, f"residual {check.max_residual:.2e}, lambda {check.lambda_:.6f}, "
                      f"min sec {neg.min_sec:.4f}, chi {numbers.chi:.4f}, "
                      f"tau {numbers.tau:.2e}")


def test_criterion_09_geography_exactness():
    crit = Criterion(9, "geography flags and the 16/7 obstruction, exact")
    ok = True
    rep = geography.report(geography.GeoPoint(3, 1))
    ok &= rep.bmy_equality and rep.bmy
    rep = geography.report(geography.GeoPoint(15, 8))
    ok &= not rep.einstein_nonpos_strict
    rep = geography.report(geography.GeoPoint(5, -1))
    ok &= rep.c1sq == 7 and not rep.both_orientations_complex_possible
    obstruction = geography.self_dual_lattice_obstruction()
    ok &= obstruction.tau == Fraction(16, 7) and obstruction.integral is False
    crit.conclude(ok)


def test_criterion_10_determinism(tmp_path, capsys):
    crit = Criterion(10, "byte-identical certify and scan runs")
    rng = np.random.default_rng(5)
    op = random_admissible_operator(rng)
    payload = {"basis": op.basis, "matrix": op.matrix.tolist()}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(payload), encoding="utf-8")

    outputs = []
    for _ in range(3):
        code = cli_main(["certify", "-i", str(path)])
        outputs.append(capsys.readouterr().out)
        assert code in (0, 2)
    scans = []
    for _ in range(3):
        code = cli_main(["scan", "--chi-max", "12"])
        scans.append(capsys.readouterr().out)
        assert code == 0
    ok = len(set(outputs)) == 1 and len(set(scans)) == 1
    with capsys.disabled():
        crit.conclude(ok)
