"""Sectional-curvature evaluation and certification tests."""

import math

import numpy as np
import pytest

from conftest import (
    _sphere_max_batch,
    random_admissible_operator,
    random_einstein_operator,
)
from fourcurv.curvops import CLASSIFY_TOL, SD_ASD, CurvatureOperator, decompose
from fourcurv.errors import DegeneratePlaneError, NotEinsteinError, NotUnitError
from fourcurv.models import catalog
from fourcurv.secsign import (
    Method,
    Verdict,
    certify_sec_sign,
    einstein_extreme_witnesses,
    einstein_sec_range,
    plane_witness_vectors,
    q_form,
    sec_of_plane,
)

E = np.eye(4)


# ---------------------------------------------------------------------------
# plane evaluation
# ---------------------------------------------------------------------------

def test_sec_of_plane_unit_sphere():
    op = CurvatureOperator(np.eye(6))
    assert sec_of_plane(op, E[0], E[1]) == pytest.approx(1.0, abs=1e-15)
    # scale and basis independence within the plane
    assert sec_of_plane(op, 3 * E[0], E[0] + E[1]) == pytest.approx(1.0, abs=1e-14)


def test_sec_of_plane_surface_product():
    op = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).operator
    assert sec_of_plane(op, E[0], E[2]) == pytest.approx(0.0, abs=1e-15)  # mixed
    assert sec_of_plane(op, E[0], E[1]) == pytest.approx(-1.0, abs=1e-15)  # factor


def test_sec_of_plane_degenerate():
    op = CurvatureOperator(np.eye(6))
    with pytest.raises(DegeneratePlaneError):
        sec_of_plane(op, E[0], 2 * E[0])


def test_q_form_identity_and_units():
    op = CurvatureOperator(np.eye(6))
    psi = np.array([1.0, 0.0, 0.0])
    assert q_form(op, psi, psi) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(NotUnitError):
        q_form(op, 2 * psi, psi)


def test_q_form_hyperbolic_product_factor_plane():
    op = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).operator
    e1 = np.array([1.0, 0.0, 0.0])
    assert q_form(op, e1, e1) == pytest.approx(-2.0, abs=1e-15)


def test_q_form_einstein_top_eigenvectors(rng):
    # at the top eigenvectors of both Weyl halves, q = s/6 + nu+ + nu-
    for _ in range(20):
        op = random_einstein_operator(rng)
        d = decompose(op)
        _, vp = np.linalg.eigh(d.w_plus)
        _, vm = np.linalg.eigh(d.w_minus)
        q = q_form(op, vp[:, 2], vm[:, 2])
        assert q == pytest.approx(d.s / 6 + d.spectrum_plus[2] + d.spectrum_minus[2],
                                  abs=1e-12)


def test_q_form_equals_twice_sec(rng):
    # 1000 random unit pairs: q = 2 * sec of the plane of (psi+ + psi-)/sqrt2
    for _ in range(1000):
        op = random_admissible_operator(rng)
        psi_p = rng.standard_normal(3)
        psi_p /= np.linalg.norm(psi_p)
        psi_m = rng.standard_normal(3)
        psi_m /= np.linalg.norm(psi_m)
        q = q_form(op, psi_p, psi_m)
        # recover a basis of the plane from the antisymmetric coefficient matrix
        from fourcurv.curvops import PAIRS, two_form_from_frame_components
        omega = two_form_from_frame_components(psi_p / math.sqrt(2), psi_m / math.sqrt(2))
        Om = np.zeros((4, 4))
        for idx, (i, j) in enumerate(PAIRS):
            Om[i, j] = omega.coefficients[idx]
            Om[j, i] = -omega.coefficients[idx]
        u_svd, s_svd, _ = np.linalg.svd(Om)
        X, Y = u_svd[:, 0], u_svd[:, 1]
        assert q == pytest.approx(2.0 * sec_of_plane(op, X, Y), abs=1e-10)


def test_plane_witness_vectors_round_trip(rng):
    op = random_admissible_operator(rng)
    X, Y = rng.standard_normal(4), rng.standard_normal(4)
    psi_p, psi_m = plane_witness_vectors(X, Y)
    assert np.linalg.norm(psi_p) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(psi_m) == pytest.approx(1.0, abs=1e-12)
    assert q_form(op, psi_p, psi_m) == pytest.approx(2 * sec_of_plane(op, X, Y), abs=1e-12)


# ---------------------------------------------------------------------------
# Einstein exact range
# ---------------------------------------------------------------------------

def test_einstein_range_unit_sphere():
    assert einstein_sec_range(decompose(CurvatureOperator(np.eye(6)))) == (1.0, 1.0)


def test_einstein_range_hyperbolic_product():
    d = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).decomposition
    sec_min, sec_max = einstein_sec_range(d)
    assert sec_min == pytest.approx(-1.0, abs=1e-15)
    assert sec_max == pytest.approx(0.0, abs=1e-15)


def test_einstein_range_fubini_study():
    d = catalog("fubiniStudy").decomposition
    assert einstein_sec_range(d) == (1.0, 4.0)


def test_einstein_range_rejects_non_einstein():
    d = catalog("surfaceProduct", {"a": 1.0, "b": 2.0}).decomposition
    with pytest.raises(NotEinsteinError):
        einstein_sec_range(d)


# ---------------------------------------------------------------------------
# the exact inner solve of the grid oracle (tests/conftest.py)
# ---------------------------------------------------------------------------

def brute_force_sphere_max(c, b, n=200000, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    vals = np.sum(x * x * c[None, :], axis=1) + 2 * x @ b
    return float(vals.max())


def test_sphere_max_against_brute_force(rng):
    for _ in range(40):
        c = np.sort(rng.standard_normal(3))
        b = rng.standard_normal(3) * rng.choice([0.0, 0.1, 1.0])
        x = _sphere_max_batch(c, b[None, :])[0]
        val = float(x @ (c * x) + 2 * b @ x)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert val >= brute_force_sphere_max(c, b, n=40000) - 2e-3
        # stationarity: residual of (sigma I - C) x = b for some sigma >= cmax
        if np.linalg.norm(b) > 0:
            sigma = float(x @ (c * x) + b @ x)
            resid = np.abs(c * x + b - sigma * x).max()
            assert resid < 1e-8


def test_sphere_max_hard_case():
    # b orthogonal to the top eigenspace and too short to reach the sphere:
    # the maximizer picks up a top-eigenvector component
    c = np.array([-1.0, 0.0, 2.0])
    b = np.array([0.05, 0.0, 0.0])
    x = _sphere_max_batch(c, b[None, :])[0]
    val = float(x @ (c * x) + 2 * b @ x)
    assert val >= brute_force_sphere_max(c, b) - 1e-6
    assert abs(x[2]) > 0.9


def test_sphere_max_zero_linear_term():
    c = np.array([-1.0, 0.5, 0.5])
    x = _sphere_max_batch(c, np.zeros((1, 3)))[0]
    assert float(x @ (c * x)) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_unit_sphere_exact():
    cert = certify_sec_sign(CurvatureOperator(np.eye(6)))
    assert cert.method is Method.THORPE_DUAL
    assert cert.verdict is Verdict.NON_NEGATIVE
    assert cert.q_max_lower == cert.q_max_upper == 2.0
    assert cert.q_min_lower == cert.q_min_upper == 2.0


def test_certify_surface_product_1_2():
    op = catalog("surfaceProduct", {"a": 1.0, "b": 2.0}).operator
    cert = certify_sec_sign(op)
    assert cert.method is Method.THORPE_DUAL
    assert cert.q_max_lower == pytest.approx(4.0, abs=1e-9)
    assert cert.q_max_upper == pytest.approx(4.0, abs=1e-12)  # dual bound tight
    assert cert.max_witness.sec_value == pytest.approx(2.0, abs=1e-9)
    assert cert.q_min_upper == pytest.approx(0.0, abs=1e-9)
    assert cert.q_min_lower >= -1e-9
    assert cert.verdict is Verdict.NON_NEGATIVE
    # the advertised witness: psi+ = e1, psi- = -e1 (up to global sign)
    w = cert.max_witness
    assert abs(w.psi_plus[0]) > 0.999 and abs(w.psi_minus[0]) > 0.999
    assert w.psi_plus[0] * w.psi_minus[0] < 0


def test_certify_hyperbolic_product():
    op = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).operator
    cert = certify_sec_sign(op)
    assert cert.verdict is Verdict.NON_POSITIVE
    assert cert.sec_range == (pytest.approx(-1.0), pytest.approx(0.0))


def test_certify_negation_symmetry(rng):
    # R -> -R swaps the two sides of the certificate and negates them exactly:
    # the min side of R is the max side of -R
    for _ in range(10):
        op = random_admissible_operator(rng)
        cert = certify_sec_sign(op)
        neg = certify_sec_sign(CurvatureOperator(-op.matrix, basis=op.basis))
        assert neg.q_max_upper == -cert.q_min_lower
        assert neg.q_min_lower == -cert.q_max_upper
        assert neg.q_max_lower == -cert.q_min_upper
        assert neg.q_min_upper == -cert.q_max_lower


def test_certify_witness_feasibility(rng):
    for _ in range(25):
        op = random_admissible_operator(rng)
        cert = certify_sec_sign(op)
        for w in (cert.max_witness, cert.min_witness):
            assert np.linalg.norm(w.psi_plus) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(w.psi_minus) == pytest.approx(1.0, abs=1e-12)
            assert q_form(op, w.psi_plus, w.psi_minus) == pytest.approx(w.q_value,
                                                                        abs=1e-12)
            omega = w.two_form()
            assert omega.is_decomposable(tol=1e-9)


def test_dual_matches_einstein_exact(rng):
    # the dual certificate against the closed-form Einstein range
    worst = 0.0
    for _ in range(100):
        op = random_einstein_operator(rng)
        d = decompose(op)
        sec_min, sec_max = einstein_sec_range(d)
        cert = certify_sec_sign(op)
        worst = max(worst,
                    abs(cert.q_max_lower - 2 * sec_max),
                    abs(cert.q_min_upper - 2 * sec_min))
    assert worst <= 1e-6


def test_dual_matches_grid_oracle(rng):
    from conftest import bare_grid_qmax, grid_oracle_qmax
    worst = 0.0
    for _ in range(30):
        op = random_admissible_operator(rng)
        op = CurvatureOperator(op.matrix / max(1.0, np.linalg.norm(op.matrix)),
                               basis=op.basis)
        cert = certify_sec_sign(op)
        oracle = grid_oracle_qmax(op)
        worst = max(worst, abs(cert.q_max_lower - oracle))
        # never below what the bare exhaustive grid can see
        assert cert.q_max_lower >= bare_grid_qmax(op) - 1e-9
    assert worst <= 1e-6


def test_surface_product_sec_extremes():
    # certified witnesses locate the extremes {min(a,b,0), max(a,b,0)}:
    # factor planes carry the factor curvatures and mixed planes are flat
    for a, b in [(1.0, 2.0), (-1.0, 2.0), (-2.0, -1.0), (0.5, 0.5)]:
        op = catalog("surfaceProduct", {"a": a, "b": b}).operator
        cert = certify_sec_sign(op)
        lo, hi = cert.sec_range
        assert lo == pytest.approx(min(a, b, 0.0), abs=1e-6)
        assert hi == pytest.approx(max(a, b, 0.0), abs=1e-6)


def test_certify_deterministic(rng):
    op = random_admissible_operator(rng)
    c1 = certify_sec_sign(op)
    c2 = certify_sec_sign(op)
    assert c1.to_dict() == c2.to_dict()


def test_einstein_extreme_witnesses():
    op = catalog("fubiniStudy").operator
    min_w, max_w = einstein_extreme_witnesses(op, decompose(op))
    assert min_w.sec_value == pytest.approx(1.0, abs=1e-12)
    assert max_w.sec_value == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the dual certificate: gaps, clusters, scale
# ---------------------------------------------------------------------------

def _bounds(cert):
    return cert.q_max_lower, cert.q_max_upper, cert.q_min_lower, cert.q_min_upper


def _relative_gap(cert, op) -> float:
    """Largest of the two certified interval widths over max|R|."""
    k = float(np.abs(op.matrix).max())
    assert cert.q_max_lower <= cert.q_max_upper and cert.q_min_lower <= cert.q_min_upper
    return max(cert.q_max_upper - cert.q_max_lower, cert.q_min_upper - cert.q_min_lower) / k


def _near_einstein(rng):
    # a Ricci block the Einstein test ignores: |B| < 0.9 CLASSIFY_TOL max(1, |s|)
    op = random_einstein_operator(rng)
    B = rng.standard_normal((3, 3))
    size = rng.uniform(0.0, 0.9) * CLASSIFY_TOL * max(1.0, abs(decompose(op).s))
    M = op.in_sd_asd_basis()
    M[:3, 3:] = B * (size / np.linalg.norm(B))
    M[3:, :3] = M[:3, 3:].T
    return CurvatureOperator(M, basis=SD_ASD)


def _rank_one_plus_shift(rng):
    w = rng.standard_normal(6)
    M = rng.normal() * np.eye(6) + rng.choice([-1.0, 1.0]) * np.outer(w, w)
    # the Bianchi balance moves the blocks by a multiple of H, which leaves q alone
    shift = (np.trace(M[:3, :3]) - np.trace(M[3:, 3:])) / 6.0
    M[:3, :3] -= shift * np.eye(3)
    M[3:, 3:] += shift * np.eye(3)
    return CurvatureOperator(M, basis=SD_ASD)


def _diagonal_integers(rng):
    # any diagonal coordinate matrix satisfies the Bianchi trace balance
    return CurvatureOperator(np.diag(rng.integers(-9, 10, 6).astype(float)))


DUAL_KINDS = {
    "generic": random_admissible_operator,
    "einstein": random_einstein_operator,
    "near_einstein": _near_einstein,
    "rank_one_plus_shift": _rank_one_plus_shift,
    "diagonal_integers": _diagonal_integers,
}


@pytest.mark.parametrize("kind", sorted(DUAL_KINDS))
def test_dual_gap_seeded_kinds(kind):
    rng = np.random.default_rng(sorted(DUAL_KINDS).index(kind))
    worst = 0.0
    for _ in range(50):
        op = DUAL_KINDS[kind](rng)
        cert = certify_sec_sign(op)
        assert cert.method is Method.THORPE_DUAL
        worst = max(worst, _relative_gap(cert, op))
    assert worst <= 1e-13


@pytest.mark.parametrize("name, params, q_range", [
    ("sphere4", {}, (2.0, 2.0)),
    ("fubiniStudy", {}, (2.0, 8.0)),
    ("surfaceProduct", {"a": 1.0, "b": 1.0}, (0.0, 2.0)),
    ("surfaceProduct", {"a": -1.0, "b": 2.0}, (-2.0, 4.0)),
    ("hyperbolic4", {}, (-2.0, -2.0)),
    ("bergman", {}, (-8.0, -2.0)),
    ("flat", {}, (0.0, 0.0)),
])
def test_dual_exact_on_repeated_eigenvalues(name, params, q_range):
    # repeated eigenvalues of R + tH: the witness comes from the smallest
    # top cluster of eigenvectors whose H-form is indefinite
    op = catalog(name, params).operator
    cert = certify_sec_sign(op)
    lo, hi = q_range
    assert _bounds(cert) == (hi, hi, lo, lo)


def test_dual_accepts_top_eigenvector_at_roundoff(rng):
    # R = cI + w w^T with |w+| = |w-|: the top eigenvector is itself a plane
    # (x^T H x = 0 up to roundoff) and the rest of the spectrum is one
    # degenerate cluster, whose mixes reach only q = 2c
    for _ in range(20):
        plus, minus = rng.standard_normal(3), rng.standard_normal(3)
        w = np.concatenate([plus, minus * (np.linalg.norm(plus) / np.linalg.norm(minus))])
        c = rng.normal()
        op = CurvatureOperator(c * np.eye(6) + np.outer(w, w), basis=SD_ASD)
        cert = certify_sec_sign(op)
        scale = float(np.abs(op.matrix).max())
        assert cert.q_max_lower == pytest.approx(2.0 * (c + w @ w), abs=1e-13 * scale)
        assert _relative_gap(cert, op) <= 1e-13


@pytest.mark.parametrize("M, verdict, q_range", [
    (-1e300 * np.eye(6), Verdict.NON_POSITIVE, (-2e300, -2e300)),
    (np.diag([1e200, 0.0, 0.0, 0.0, 0.0, -1e200]), Verdict.INDEFINITE, (-2e200, 2e200)),
])
def test_certify_huge_entries(M, verdict, q_range):
    cert = certify_sec_sign(CurvatureOperator(M))
    assert cert.verdict is verdict
    lo, hi = q_range
    assert _bounds(cert) == (hi, hi, lo, lo)


def test_certify_scaling_by_powers_of_two(rng):
    # the operator is normalized by a power of two before anything else, so
    # the verdict is kept and the bounds scale exactly; at 2^1000 the Weyl
    # spectra behind the start value come from a matrix that LAPACK rescales
    # internally, so there the bounds agree to roundoff only
    for i in range(20):
        op = random_admissible_operator(rng, basis=("coordinate", SD_ASD)[i % 2])
        cert = certify_sec_sign(op)
        for k in (-20, -1, 1, 7, 100, 300, 1000):
            scaled = certify_sec_sign(CurvatureOperator(np.ldexp(op.matrix, k), basis=op.basis))
            assert scaled.verdict is cert.verdict
            want = [np.ldexp(b, k) for b in _bounds(cert)]
            if k <= 300:
                assert list(_bounds(scaled)) == want
            else:
                assert list(_bounds(scaled)) == pytest.approx(want, rel=1e-14)
