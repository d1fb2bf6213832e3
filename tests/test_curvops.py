"""Unit tests for the pointwise curvature algebra."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    assemble_einstein,
    random_admissible_operator,
    random_einstein_operator,
    random_rotation,
    random_traceless_symmetric,
)
from fourcurv import curvops
from fourcurv.curvops import (
    COORDINATE,
    SD_ASD,
    CoverClass,
    CurvatureOperator,
    CurvatureSign,
    EqualityBranch,
    TwoForm,
    char_densities,
    classify_equality,
    decompose,
    gl_defect,
    hodge_star_matrix,
    kahler_signature_check,
    recompose,
    sd_frame_components,
    sd_projectors,
    two_form_from_frame_components,
)
from fourcurv.errors import (
    BianchiViolationError,
    DensityOverflowError,
    FourcurvError,
    IndefiniteSignError,
    InvalidBlocksError,
    NotEinsteinError,
    NotKahlerError,
    NotSymmetricError,
    ToleranceTooTightError,
)
from fourcurv.models import catalog, model_names
from fourcurv.secsign import certify_sec_sign

SQ6 = math.sqrt(6.0)


# ---------------------------------------------------------------------------
# two-forms and the SD/ASD split
# ---------------------------------------------------------------------------

def test_hodge_star_squares_to_identity():
    H = hodge_star_matrix()
    assert np.array_equal(H @ H, np.eye(6))
    assert np.array_equal(H, H.T)


def test_sd_projectors_basis_form():
    omega = TwoForm(np.array([1.0, 0, 0, 0, 0, 0]))  # e1^e2
    plus, minus = sd_projectors(omega)
    assert np.array_equal(plus.coefficients, [0.5, 0, 0, 0, 0, 0.5])
    assert np.array_equal(minus.coefficients, [0.5, 0, 0, 0, 0, -0.5])
    assert plus.norm() == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert minus.norm() == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_sd_projectors_zero():
    plus, minus = sd_projectors(TwoForm(np.zeros(6)))
    assert plus.norm() == 0.0 and minus.norm() == 0.0


def test_sd_projectors_eigenvectors_and_orthogonality(rng):
    H = hodge_star_matrix()
    for _ in range(50):
        omega = TwoForm(rng.standard_normal(6))
        plus, minus = sd_projectors(omega)
        assert np.allclose(plus.coefficients + minus.coefficients,
                           omega.coefficients, atol=1e-15)
        assert np.allclose(H @ plus.coefficients, plus.coefficients, atol=1e-14)
        assert np.allclose(H @ minus.coefficients, -minus.coefficients, atol=1e-14)
        assert abs(plus.coefficients @ minus.coefficients) < 1e-14


def test_simple_forms_have_equal_half_norms(rng):
    # oracle: the Plucker quantity of X^Y computed straight from coefficients
    for _ in range(100):
        X = rng.standard_normal(4)
        Y = rng.standard_normal(4)
        omega = TwoForm.from_wedge(X, Y)
        assert abs(omega.wedge_square()) < 1e-12 * max(1.0, omega.norm() ** 2)
        plus, minus = sd_projectors(omega)
        assert plus.norm() == pytest.approx(minus.norm(), abs=1e-12)
        assert omega.is_decomposable()


def test_not_decomposable_detected():
    # e1^e2 + e3^e4 is self-dual, never a wedge of two vectors
    omega = TwoForm(np.array([1.0, 0, 0, 0, 0, 1.0]))
    assert not omega.is_decomposable()


def test_decomposability_criteria_share_one_threshold():
    # |plus|^2 - |minus|^2 is the wedge square 1.5e-10: both criteria say no
    omega = TwoForm(np.array([0.75e-10, 0, 0, 0, 0, 1.0]))
    assert not omega.is_decomposable(tol=1e-10)
    assert omega.is_decomposable(tol=1.5e-10)


def test_decomposability_disagreement_is_a_fourcurv_error():
    # the two criteria evaluate one quantity; a tolerance between their
    # roundings, found by a seeded search, cannot be honoured
    rng = np.random.default_rng(11)
    for _ in range(100):
        omega = TwoForm(rng.standard_normal(6))
        plus, minus = sd_projectors(omega)
        w = abs(omega.wedge_square())
        n = abs(plus.norm() ** 2 - minus.norm() ** 2)
        scale = max(1.0, omega.norm() ** 2)
        tol = 0.5 * (w + n) / scale
        if min(w, n) < tol * scale < max(w, n):
            break
    else:
        pytest.fail("no form with roundoff-split criteria in the seeded search")
    assert abs(w - n) <= 1e-14 * scale
    with pytest.raises(ToleranceTooTightError) as err:
        omega.is_decomposable(tol=tol)
    assert isinstance(err.value, FourcurvError)


def test_frame_components_round_trip(rng):
    for _ in range(50):
        omega = TwoForm(rng.standard_normal(6))
        plus, minus = sd_frame_components(omega)
        back = two_form_from_frame_components(plus, minus)
        assert np.allclose(back.coefficients, omega.coefficients, atol=1e-14)
        p2, m2 = sd_projectors(omega)
        assert np.linalg.norm(plus) == pytest.approx(p2.norm(), abs=1e-14)
        assert np.linalg.norm(minus) == pytest.approx(m2.norm(), abs=1e-14)


_PAIRS_REFERENCE = ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))


def _hodge_reference():
    H = np.zeros((6, 6))
    for i, j, sign in _PAIRS_REFERENCE:
        H[i, j] = sign
        H[j, i] = sign
    return H


def _frame_components_reference(c):
    plus, minus = np.empty(3), np.empty(3)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for a, (i, j, sign) in enumerate(_PAIRS_REFERENCE):
        plus[a] = (c[i] + sign * c[j]) * inv_sqrt2
        minus[a] = (c[i] - sign * c[j]) * inv_sqrt2
    return plus, minus


def _from_frame_components_reference(plus, minus):
    c = np.zeros(6)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for a, (i, j, sign) in enumerate(_PAIRS_REFERENCE):
        c[i] += (plus[a] + minus[a]) * inv_sqrt2
        c[j] += sign * (plus[a] - minus[a]) * inv_sqrt2
    return c


def _block_assemble_reference(A, B, C):
    M = np.empty((6, 6))
    for a, (ia, ja, sa) in enumerate(_PAIRS_REFERENCE):
        for b, (ib, jb, sb) in enumerate(_PAIRS_REFERENCE):
            app, cpp, bpp, bqq = A[a, b], C[a, b], B[a, b], B[b, a]
            M[ia, ib] = 0.5 * ((app + cpp) + (bpp + bqq))
            M[ja, jb] = sa * sb * 0.5 * ((app + cpp) - (bpp + bqq))
            M[ia, jb] = sb * 0.5 * ((app - cpp) - (bpp - bqq))
            M[ja, ib] = sa * 0.5 * ((app - cpp) + (bpp - bqq))
    return M


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _sample_entries(rng, shape, i):
    """Dyadic integers, Gaussians, or Gaussians with zeros, -0.0 and subnormals."""
    if i % 3 == 0:
        return rng.integers(-8, 9, shape) * 2.0 ** int(rng.integers(-4, 4))
    x = rng.standard_normal(shape) * 10.0 ** float(rng.uniform(-300, 300))
    if i % 3 == 2:
        x[rng.random(shape) < 0.3] = rng.choice([0.0, -0.0, 5e-324, -1e-310])
    return x


def test_sd_tables_bitwise_equal_loop_references(rng):
    assert _bits(hodge_star_matrix()) == _bits(_hodge_reference())
    assert not hodge_star_matrix().flags.writeable
    for i in range(300):
        c = _sample_entries(rng, 6, i)
        plus, minus = sd_projectors(TwoForm(c))
        star = _hodge_reference() @ c
        assert _bits(plus.coefficients) == _bits(0.5 * (c + star))
        assert _bits(minus.coefficients) == _bits(0.5 * (c - star))
        got = sd_frame_components(TwoForm(c))
        assert [_bits(x) for x in got] == [_bits(x) for x in _frame_components_reference(c)]
        p, m = _sample_entries(rng, 3, i), _sample_entries(rng, 3, i + 1)
        if i == 0:
            p, m = np.full(3, -0.0), np.full(3, -0.0)  # the sum starts from +0.0
        assert _bits(two_form_from_frame_components(p, m).coefficients) == \
            _bits(_from_frame_components_reference(p, m))
        A, B, C = (_sample_entries(rng, (3, 3), i) for _ in range(3))
        with np.errstate(over="ignore", invalid="ignore"):  # sums past 1e308
            assert _bits(curvops._block_assemble(A, B, C)) == \
                _bits(_block_assemble_reference(A, B, C))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_not_symmetric_reports_defect():
    M = np.eye(6)
    M[0, 1] = 1e-3
    with pytest.raises(NotSymmetricError) as err:
        CurvatureOperator(M)
    assert err.value.defect == pytest.approx(1e-3)


def test_bianchi_violation_reports_defect():
    M = np.diag([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # trace asymmetry under the split
    with pytest.raises(BianchiViolationError) as err:
        CurvatureOperator(M, basis=SD_ASD)
    assert err.value.defect == pytest.approx(1.0)


def test_admissibility_is_scale_free(rng):
    # the defects are compared against tol * max(1, max|R|), so roundoff in
    # the Bianchi balance never refuses a scaled operator
    for i in range(20):
        op = random_admissible_operator(rng, basis=(COORDINATE, SD_ASD)[i % 2])
        verdict = certify_sec_sign(op).verdict
        for k in (1, 100, 300, 500, 700, 1000):
            scaled = CurvatureOperator(np.ldexp(op.matrix, k), basis=op.basis)
            assert certify_sec_sign(scaled).verdict is verdict


def test_relative_bianchi_defect_refused_at_any_scale():
    M = np.diag([1.0 + 1e-6, 1.0, 1.0, 1.0, 1.0, 1.0]) * 1e200
    with pytest.raises(BianchiViolationError) as err:
        CurvatureOperator(M, basis=SD_ASD)
    assert err.value.defect == pytest.approx(1e194)
    M = np.eye(6) * 1e200
    M[0, 1] = 1e194
    with pytest.raises(NotSymmetricError):
        CurvatureOperator(M)


def test_basis_conversion_round_trip(rng):
    for _ in range(50):
        op = random_admissible_operator(rng, basis=COORDINATE)
        back = CurvatureOperator(
            CurvatureOperator(op.in_sd_asd_basis(), basis=SD_ASD).in_coordinate_basis())
        assert np.allclose(back.matrix, op.matrix, atol=1e-14)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_identity_is_unit_sphere():
    d = decompose(CurvatureOperator(np.eye(6)))
    assert d.s == 12.0
    assert np.array_equal(d.w_plus, np.zeros((3, 3)))
    assert np.array_equal(d.w_minus, np.zeros((3, 3)))
    assert np.array_equal(d.ric_block, np.zeros((3, 3)))
    assert d.einstein_constant == 3.0


def test_decompose_hyperbolic_plane_product():
    d = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).decomposition
    assert d.s == -4.0
    expected = np.array([-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(d.spectrum_plus, expected, atol=1e-15)
    assert np.allclose(d.spectrum_minus, expected, atol=1e-15)
    assert np.array_equal(d.ric_block, np.zeros((3, 3)))


def test_decompose_fubini_study():
    d = catalog("fubiniStudy").decomposition
    assert d.s == 24.0
    assert np.array_equal(d.spectrum_plus, [-2.0, -2.0, 4.0])
    assert np.array_equal(d.w_minus, np.zeros((3, 3)))
    # Kahler identity |W+|^2 = s^2/24, exactly
    assert float(np.sum(d.w_plus * d.w_plus)) == d.s * d.s / 24.0


def test_decompose_block_structure(rng):
    for _ in range(20):
        op = random_admissible_operator(rng)
        d = decompose(op)
        A, B, C = op.blocks()
        assert np.allclose(A, d.w_plus + d.s / 12.0 * np.eye(3), atol=1e-13)
        assert np.allclose(C, d.w_minus + d.s / 12.0 * np.eye(3), atol=1e-13)
        assert np.allclose(B, d.ric_block, atol=1e-15)
        assert abs(np.trace(d.w_plus)) < 1e-12 * max(1, abs(d.s))
        assert abs(np.trace(d.w_minus)) < 1e-12 * max(1, abs(d.s))
        assert d.s == pytest.approx(2 * (np.trace(A) + np.trace(C)), abs=1e-13)
        # norm additivity |W|^2 = |W+|^2 + |W-|^2
        total = np.sum(d.w_plus ** 2) + np.sum(d.w_minus ** 2)
        assert total == pytest.approx(d.norm_w_plus() ** 2 + d.norm_w_minus() ** 2,
                                      rel=1e-14)


def test_recompose_round_trip_trivial():
    zero = decompose(CurvatureOperator(np.zeros((6, 6))))
    assert np.array_equal(recompose(zero).matrix, np.zeros((6, 6)))
    ident = decompose(CurvatureOperator(np.eye(6)))
    assert np.allclose(recompose(ident).matrix, np.eye(6), atol=1e-15)


def test_recompose_round_trip_random(rng):
    worst = 0.0
    for _ in range(100):
        op = random_admissible_operator(rng, basis=COORDINATE)
        back = recompose(decompose(op))
        worst = max(worst, float(np.abs(back.matrix - op.matrix).max()))
    assert worst <= 1e-12


def test_recompose_rejects_bad_blocks():
    d = decompose(CurvatureOperator(np.eye(6)))
    bad = curvops.Decomposition(
        s=d.s, w_plus=np.eye(3), w_minus=d.w_minus, ric_block=d.ric_block,
        spectrum_plus=d.spectrum_plus, spectrum_minus=d.spectrum_minus)
    with pytest.raises(InvalidBlocksError):
        recompose(bad)


# ---------------------------------------------------------------------------
# the pointwise Weyl bound
# ---------------------------------------------------------------------------

def test_gl_defect_unit_sphere():
    rep = gl_defect(decompose(CurvatureOperator(np.eye(6))))
    assert rep.defect == pytest.approx(12.0 / SQ6, abs=1e-14)
    assert rep.defect == pytest.approx(2.0 * SQ6, abs=1e-14)
    assert not rep.saturated
    assert rep.cover_class is CoverClass.NOT_SATURATED


def test_gl_defect_hyperbolic_plane_product():
    d = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).decomposition
    rep = gl_defect(d)
    assert abs(rep.defect) < 1e-14
    assert rep.norm_w_plus == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert rep.equality_branch is EqualityBranch.NON_POSITIVE
    assert rep.saturated
    assert rep.cover_class is CoverClass.HYPERBOLIC_PLANE_PRODUCT
    # |s|/sqrt(6) = 4/sqrt(6) = 2 sqrt(2/3)
    assert abs(d.s) / SQ6 == pytest.approx(2 * math.sqrt(2.0 / 3.0), abs=1e-15)


def test_gl_defect_sphere_product():
    d = catalog("surfaceProduct", {"a": 1.0, "b": 1.0}).decomposition
    rep = gl_defect(d)
    assert abs(rep.defect) < 1e-14
    assert rep.equality_branch is EqualityBranch.NON_NEGATIVE
    assert rep.saturated
    assert rep.cover_class is CoverClass.SPHERE_PRODUCT
    assert d.spectrum_plus[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert d.spectrum_plus[1] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_gl_defect_orientation_flip_invariance(rng):
    for _ in range(50):
        d = decompose(random_admissible_operator(rng))
        fl = d.orientation_flipped()
        assert gl_defect(fl).defect == pytest.approx(gl_defect(d).defect, abs=1e-13)


def test_positive_scaling_covariance(rng):
    for _ in range(20):
        op = random_admissible_operator(rng)
        c = float(rng.uniform(0.5, 3.0))
        d1 = decompose(op)
        d2 = decompose(CurvatureOperator(c * op.matrix, basis=op.basis))
        assert d2.s == pytest.approx(c * d1.s, rel=1e-13)
        assert np.allclose(d2.spectrum_plus, c * d1.spectrum_plus, atol=1e-12)
        r1, r2 = gl_defect(d1), gl_defect(d2)
        assert r2.defect == pytest.approx(c * r1.defect, rel=1e-10, abs=1e-12)
        assert r1.saturated == r2.saturated
        assert r1.cover_class == r2.cover_class


def test_weyl_norms_scale_safe():
    # |W+|^2 = 9e400 + 9e400 overflows a float; the norm itself does not
    op = CurvatureOperator(np.diag([3e200, -3e200, 0, 1e200, -1e200, 0]), basis=SD_ASD)
    d = decompose(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gl_defect(d)
    assert report.norm_w_plus == pytest.approx(math.sqrt(18.0) * 1e200, rel=1e-15)
    assert report.norm_w_minus == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert report.defect == pytest.approx(-math.sqrt(32.0) * 1e200, rel=1e-15)


def test_char_densities_overflow_raises():
    d = decompose(CurvatureOperator(-1e300 * np.eye(6), basis=SD_ASD))
    with pytest.raises(DensityOverflowError):
        char_densities(d)


def test_weyl_norms_equal_numpy_on_ordinary_input(rng):
    for _ in range(300):
        op = random_admissible_operator(rng, scale=10.0 ** rng.uniform(-120, 6))
        d = decompose(op)
        assert d.norm_w_plus() == float(np.linalg.norm(d.w_plus))
        assert d.norm_w_minus() == float(np.linalg.norm(d.w_minus))
        assert d.einstein_residual() == (float(np.linalg.norm(d.ric_block))
                                         / max(1.0, abs(d.s)))


def test_traceless_norm_identity(rng):
    # |W|^2 = lam^2 + mu^2 + nu^2 = 2 nu^2 - 2 lam mu for traceless W
    for _ in range(1000):
        W = random_traceless_symmetric(rng)
        lam, mu, nu = np.linalg.eigvalsh(W)
        n2 = float(np.sum(W * W))
        assert n2 == pytest.approx(lam**2 + mu**2 + nu**2, abs=1e-12)
        assert n2 == pytest.approx(2 * nu**2 - 2 * lam * mu, abs=1e-12)


def test_six_eigenvalue_bounds(rng):
    # |W|^2 <= 6 nu^2 with equality iff nu = mu; |W|^2 <= 6 lam^2 iff lam = mu
    for _ in range(1000):
        W = random_traceless_symmetric(rng)
        lam, mu, nu = np.linalg.eigvalsh(W)
        n2 = float(np.sum(W * W))
        assert n2 <= 6 * nu**2 + 1e-12
        assert n2 <= 6 * lam**2 + 1e-12
        if abs(n2 - 6 * nu**2) < 1e-12:
            assert abs(nu - mu) < 1e-6
        if abs(nu - mu) < 1e-13:
            assert abs(n2 - 6 * nu**2) < 1e-11
        if abs(n2 - 6 * lam**2) < 1e-12:
            assert abs(lam - mu) < 1e-6
        if abs(lam - mu) < 1e-13:
            assert abs(n2 - 6 * lam**2) < 1e-11


# ---------------------------------------------------------------------------
# equality classification
# ---------------------------------------------------------------------------

def test_classify_flat():
    d = decompose(CurvatureOperator(np.zeros((6, 6))))
    assert classify_equality(d, CurvatureSign.NON_POSITIVE) is CoverClass.FLAT


def test_classify_hyperbolic_plane_product():
    d = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).decomposition
    assert classify_equality(d, CurvatureSign.NON_POSITIVE) \
        is CoverClass.HYPERBOLIC_PLANE_PRODUCT


def test_classify_fubini_study_not_saturated():
    d = catalog("fubiniStudy").decomposition
    assert classify_equality(d, CurvatureSign.NON_NEGATIVE) is CoverClass.NOT_SATURATED
    rep = gl_defect(d)
    assert rep.defect == pytest.approx(24 / SQ6 - math.sqrt(24.0), abs=1e-12)
    assert rep.defect == pytest.approx(4.898979485566356, abs=1e-12)


def test_classify_requires_einstein():
    d = catalog("surfaceProduct", {"a": 1.0, "b": 2.0}).decomposition
    with pytest.raises(NotEinsteinError):
        classify_equality(d, CurvatureSign.NON_NEGATIVE)


def test_classify_rejects_indefinite():
    d = decompose(CurvatureOperator(np.eye(6)))
    with pytest.raises(IndefiniteSignError):
        classify_equality(d, CurvatureSign.INDEFINITE)


def _classify_equality_reference(d, curvature_sign, tol=curvops.CLASSIFY_TOL):
    """classify_equality with its own defect and multiplicity tests."""
    if not d.is_einstein(tol):
        raise NotEinsteinError("not Einstein")
    if curvature_sign is CurvatureSign.INDEFINITE:
        raise IndefiniteSignError("indefinite")
    if abs(d.s) <= tol and d.norm_w_plus() <= tol and d.norm_w_minus() <= tol:
        return CoverClass.FLAT
    scale = max(1.0, abs(d.s))
    if abs(abs(d.s) / SQ6 - (d.norm_w_plus() + d.norm_w_minus())) > tol * scale:
        return CoverClass.NOT_SATURATED
    (lp, mp, vp), (lm, mm, vm) = d.spectrum_plus, d.spectrum_minus
    if (curvature_sign is CurvatureSign.NON_NEGATIVE
            and (mp - lp) <= tol * scale and (mm - lm) <= tol * scale):
        return CoverClass.SPHERE_PRODUCT
    if (curvature_sign is CurvatureSign.NON_POSITIVE
            and (vp - mp) <= tol * scale and (vm - mm) <= tol * scale):
        return CoverClass.HYPERBOLIC_PLANE_PRODUCT
    return CoverClass.NOT_SATURATED


def _saturated_einstein(rng, s, pattern_sign):
    """|W+| + |W-| = |s|/sqrt(6) with the doubled eigenvalue of the branch of
    ``pattern_sign``: the bottom one for +1, the top one for -1."""
    pattern = np.diag([-1.0, -1.0, 2.0]) if pattern_sign > 0 else np.diag([-2.0, 1.0, 1.0])
    u = float(rng.uniform(0.0, 1.0))
    halves = []
    for c in (u * abs(s) / 6.0, (1.0 - u) * abs(s) / 6.0):
        Q = random_rotation(rng)
        halves.append(c * Q @ pattern @ Q.T)
    return assemble_einstein(s, *halves)


def _einstein_cases(rng):
    for name in model_names():
        yield catalog(name).decomposition
    for _ in range(40):
        a = float(rng.normal(0.0, 3.0))
        yield catalog("surfaceProduct", {"a": a, "b": a}).decomposition
    for _ in range(150):  # saturated, both eigenvalue patterns, from far to near zero
        s = float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-7.5, 3.0))
        yield decompose(_saturated_einstein(rng, s, float(rng.choice([-1.0, 1.0]))))
    for _ in range(150):  # flat only to within tolerance
        s = float(rng.normal(0.0, 1.0)) * 10.0 ** float(rng.uniform(-9.0, -6.0))
        k = 10.0 ** float(rng.uniform(-9.0, -6.5))
        yield decompose(assemble_einstein(s, random_traceless_symmetric(rng, k),
                                          random_traceless_symmetric(rng, k)))
    for _ in range(150):
        yield decompose(random_einstein_operator(rng, 10.0 ** float(rng.uniform(-3.0, 3.0))))


def _outcome(classify, d, sign):
    try:
        return classify(d, sign)
    except FourcurvError as exc:
        return type(exc)


def test_classify_equality_matches_reference(rng):
    # The one allowed difference: the given sign contradicts the sign of s
    # (s < 0 with NonNegative, s > 0 with NonPositive) and the reference,
    # which ignores s, names the cover of the given sign; gl_defect chooses
    # the branch by the sign of s, so classify_equality says NotSaturated.
    contrary = 0
    for d in _einstein_cases(rng):
        for sign in CurvatureSign:
            want = _outcome(_classify_equality_reference, d, sign)
            got = _outcome(classify_equality, d, sign)
            if got != want:
                assert got is CoverClass.NOT_SATURATED
                assert (want, sign, d.s < 0) in (
                    (CoverClass.SPHERE_PRODUCT, CurvatureSign.NON_NEGATIVE, True),
                    (CoverClass.HYPERBOLIC_PLANE_PRODUCT, CurvatureSign.NON_POSITIVE, False))
                contrary += 1
    assert contrary > 0  # the cases include contrary patterns


# ---------------------------------------------------------------------------
# characteristic densities
# ---------------------------------------------------------------------------

def self_dual_equality_operator():
    # s = -6 with W+ spectrum (-2, 1, 1): |W+| = |s|/sqrt(6), W- = 0
    return assemble_einstein(-6.0, np.diag([-2.0, 1.0, 1.0]), np.zeros((3, 3)))


def test_ratio_fifteen_eighths_exact():
    d = decompose(self_dual_equality_operator())
    cd = char_densities(d)
    assert cd.ratio == Fraction(15, 8)


def test_ratio_fubini_study_exact():
    cd = char_densities(catalog("fubiniStudy").decomposition)
    assert cd.ratio == Fraction(3, 1)


def test_signature_density_vanishes_for_surface_product():
    cd = char_densities(catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).decomposition)
    assert cd.signature_density == 0.0
    assert cd.ratio is None


def test_densities_require_einstein():
    d = catalog("surfaceProduct", {"a": 1.0, "b": 2.0}).decomposition
    with pytest.raises(NotEinsteinError):
        char_densities(d)


def test_ratio_family_fifteen_eighths(rng):
    # any operator with |W+| = |s|/sqrt(6), W- = 0 has ratio exactly 15/8:
    # the exact-rational path sees s^2/6 + s^2/24 = (5/4) s^2 / 6 over s^2/6
    for t in (0.5, 1.0, 2.0, 8.0):
        op = assemble_einstein(-6.0 * t, np.diag([-2.0, 1.0, 1.0]) * t, np.zeros((3, 3)))
        cd = char_densities(decompose(op))
        assert cd.ratio == Fraction(15, 8)


def _char_densities_reference(d):
    """char_densities with one Fraction per entry: the exact reference."""
    def frobenius_sq(W):
        return sum((Fraction(float(x)) ** 2 for x in np.ravel(W)), Fraction(0))

    wp2, wm2 = frobenius_sq(d.w_plus), frobenius_sq(d.w_minus)
    euler, sig = wp2 + wm2 + Fraction(float(d.s)) ** 2 / 24, wp2 - wm2
    ratio = Fraction(3, 2) * euler / sig if sig != 0 else None
    try:
        return float(euler) / (8.0 * math.pi**2), float(sig) / (12.0 * math.pi**2), ratio
    except OverflowError:
        return None


def test_char_densities_equal_fraction_reference(rng):
    scales = [0.0, 5e-324, 1e-320, 1e-300, 1e-160, 1e-154, 1e-3, 1.0, 7.0, 1e150,
              1e154, 1e160, 1e300, 1e307]
    for i in range(400):
        scale = scales[i % len(scales)]
        wp = random_traceless_symmetric(rng) * scale
        wm = random_traceless_symmetric(rng) * scale * float(rng.uniform(0.5, 2.0))
        wp[rng.random((3, 3)) < 0.2] = 0.0  # zeros, not symmetric: W+ is read as given
        s = float(rng.normal(0, 3)) * scale
        if i % 5 == 0:
            wm = wp.copy()  # signature density zero, ratio None
        d = curvops.Decomposition(s=s, w_plus=wp, w_minus=wm, ric_block=np.zeros((3, 3)),
                                  spectrum_plus=np.zeros(3), spectrum_minus=np.zeros(3))
        want = _char_densities_reference(d)
        if want is None:
            with pytest.raises(DensityOverflowError):
                char_densities(d)
            continue
        cd = char_densities(d)
        assert cd.ratio == want[2]
        assert (cd.euler_density, cd.signature_density) == want[:2]
        assert np.signbit([cd.euler_density, cd.signature_density]).tolist() == \
            np.signbit(want[:2]).tolist()


def test_euler_density_orientation_invariant(rng):
    for _ in range(20):
        wp = random_traceless_symmetric(rng)
        wm = random_traceless_symmetric(rng)
        s = float(rng.normal(0, 3))
        d = decompose(assemble_einstein(s, wp, wm))
        cd = char_densities(d)
        cf = char_densities(d.orientation_flipped())
        assert cf.euler_density == pytest.approx(cd.euler_density, rel=1e-15)
        assert cf.signature_density == pytest.approx(-cd.signature_density, rel=1e-15)


# ---------------------------------------------------------------------------
# Kahler signature check
# ---------------------------------------------------------------------------

def test_kahler_check_bergman():
    d = catalog("bergman").decomposition
    out = kahler_signature_check(d)
    assert out.density == pytest.approx(24.0, abs=1e-12)
    assert out.non_negative


def test_kahler_check_hyperbolic_plane_product():
    d = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).decomposition
    out = kahler_signature_check(d)
    assert out.density == 0.0
    assert out.non_negative


def test_kahler_check_rejects_reversed_fubini_study():
    d = catalog("fubiniStudy").decomposition.orientation_flipped()
    with pytest.raises(NotKahlerError):
        kahler_signature_check(d)


def _kahler_flag_reference(d):
    """The unscaled Kahler test, as it stood before the power-of-two scaling."""
    wp2 = float(np.sum(d.w_plus * d.w_plus))
    return abs(wp2 - d.s * d.s / 24.0) <= curvops.CLASSIFY_TOL * max(1.0, d.s * d.s)


def test_kahler_flag_matches_unscaled_reference(rng):
    # below about 1e150 the unscaled squares stay in range and the scaled
    # test must decide exactly as they do, on and off the tolerance boundary
    for name, sign in (("fubiniStudy", 1.0), ("bergman", -1.0)):
        for exponent in rng.uniform(-150.0, 150.0, 60):
            d = catalog(name, {"s": sign * 10.0 ** float(exponent)}).decomposition
            assert d.is_kahler() is _kahler_flag_reference(d) is True
    agree = {True: 0, False: 0}
    for i in range(600):
        scale = 10.0 ** float(rng.uniform(-150.0, 150.0))
        s = float(rng.normal(0.0, 4.0)) * scale
        pattern = np.diag([-1.0, -1.0, 2.0]) if s > 0 else np.diag([-2.0, 1.0, 1.0])
        Q = random_rotation(rng)
        # |W+|^2 = s^2/24 times 1 + r, r spread across the tolerance 24e-7
        r = float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-6.5, -5.0))
        wp = abs(s) / 12.0 * math.sqrt(1.0 + r) * Q @ pattern @ Q.T
        if i % 7 == 0:
            wp = random_traceless_symmetric(rng, scale)
        d = curvops.Decomposition(s=s, w_plus=wp, w_minus=random_traceless_symmetric(rng, scale),
                                  ric_block=np.zeros((3, 3)), spectrum_plus=np.zeros(3),
                                  spectrum_minus=np.zeros(3))
        want = _kahler_flag_reference(d)
        assert d.is_kahler() is want
        agree[want] += 1
        if want:  # the signature check's density and sign, unscaled
            density = float(np.sum(wp * wp)) - float(np.sum(d.w_minus * d.w_minus))
            check = kahler_signature_check(d)
            assert check.density == density
            assert check.non_negative is (density >= -curvops.CLASSIFY_TOL * max(1.0, s * s))
    assert min(agree.values()) > 100


@pytest.mark.parametrize("name,s", [("fubiniStudy", 1e200), ("bergman", -1e200),
                                    ("fubiniStudy", 1.7e308), ("bergman", -5e-324)])
def test_kahler_identity_at_any_scale(name, s):
    m = catalog(name, {"s": s})
    assert m.flags.kahler
    check = kahler_signature_check(m.decomposition)  # W- = 0: density |W+|^2 = s^2/24
    assert check.non_negative and check.density == pytest.approx(s * s / 24.0, rel=1e-15)


def test_kahler_density_with_dominant_w_minus():
    # W+ and s near 1e-300 and W- near 1: the density is -|W-|^2, not -inf
    W = np.diag([-1.0, -1.0, 2.0])
    d = curvops.Decomposition(s=1e-300, w_plus=W * 1e-300, w_minus=W, ric_block=np.zeros((3, 3)),
                              spectrum_plus=np.zeros(3), spectrum_minus=np.zeros(3))
    check = kahler_signature_check(d)
    assert check.density == -6.0 and not check.non_negative


def test_round_sphere_not_kahler_at_any_scale():
    # s^2 overflowed for r = 1e-100, and the unscaled test then passed
    for r in (1e-100, 1e-10, 1.0):
        assert not catalog("sphere4", {"r": r}).flags.kahler
