"""Unit tests for the pointwise curvature algebra."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    assemble_einstein,
    orientation_flipped,
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
    char_densities,
    classify_equality,
    decompose,
    gl_defect,
    kahler_signature_check,
    recompose,
)
from fourcurv.errors import (
    BianchiViolationError,
    FourcurvError,
    IndefiniteSignError,
    InvalidBlocksError,
    NotEinsteinError,
    NotKahlerError,
    NotSymmetricError,
)
from fourcurv.models import catalog, model_names
from fourcurv.secsign import certify_sec_sign, einstein_extreme_witnesses, einstein_sec_range

SQ6 = math.sqrt(6.0)


# ---------------------------------------------------------------------------
# the SD/ASD frame change
# ---------------------------------------------------------------------------

_PAIRS_REFERENCE = ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))


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
    for i in range(300):
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


def _inadmissible(basis):
    """(name, matrix) refused by each admissibility test in turn."""
    M = np.eye(6)
    M[2, 2] = np.nan
    yield "not-finite", M
    if basis == COORDINATE:  # e1^e2 + e3^e4 overflows in the SD/ASD frame
        yield "frame-overflow", np.diag([1.7e308, 0, 0, 0, 0, 1.7e308])
    yield "trace-overflow", (2e307 if basis == SD_ASD else 3e307) * np.eye(6)
    M = np.eye(6)
    M[0, 1] = 1e-3
    yield "asymmetric", M
    if basis == SD_ASD:
        yield "bianchi", np.diag([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("basis", [COORDINATE, SD_ASD])
def test_stack_refused_as_its_first_inadmissible_operator(rng, basis):
    good = [random_admissible_operator(rng, basis=basis).matrix for _ in range(5)]
    bad = dict(_inadmissible(basis))
    for name, M in bad.items():
        with pytest.raises(FourcurvError) as alone:
            CurvatureOperator(M, basis=basis)
        for k in (0, 2, 5):
            stack = np.stack(good[:k] + [M] + good[k:])
            with pytest.raises(type(alone.value)) as stacked:
                curvops.check_admissible(stack, basis, np.zeros(len(stack)))
            assert str(stacked.value) == str(alone.value), name
            assert _bits(stacked.value.defect) == _bits(alone.value.defect)
            # of two inadmissible operators the first is named, whatever its test
            for other in bad.values():
                stack = np.stack(good[:k] + [M, other] + good[k:])
                with pytest.raises(type(alone.value)) as stacked:
                    curvops.check_admissible(stack, basis)
                assert str(stacked.value) == str(alone.value)
    S = curvops.check_admissible(np.stack(good), basis)
    assert all(_bits(s) == _bits(CurvatureOperator(M, basis=basis).in_sd_asd_basis())
               for s, M in zip(S, good))


@pytest.mark.parametrize("entries, top", [
    ({(0, 1): 1e308, (1, 0): 1e308, (3, 4): 1e308, (4, 3): 1e308}, 1e308),
    ({(0, 0): 1.5e308, (1, 1): -1.5e308, (3, 3): 1.5e308, (4, 4): -1.5e308}, 1.5e308),
    ({(0, 0): 1e308, (0, 1): 1.5e308, (1, 0): 1.5e308, (1, 1): -1e308}, math.inf)])
def test_weyl_halves_near_the_float_range_decompose(entries, top):
    # W + W^T overflowed: a numpy warning, then NaN spectra or a failed eigvalsh
    M = np.zeros((6, 6))
    for index, value in entries.items():
        M[index] = value
    d = decompose(CurvatureOperator(M, basis=SD_ASD))
    assert d.spectrum_plus.tolist() == [-top, 0.0, top]
    assert d.s == 0.0


def test_basis_conversion_round_trip(rng):
    for _ in range(50):
        op = random_admissible_operator(rng, basis=COORDINATE)
        back = CurvatureOperator(
            CurvatureOperator(op.in_sd_asd_basis(), basis=SD_ASD).in_coordinate_basis())
        assert np.allclose(back.matrix, op.matrix, atol=1e-14)


def _slice_assembly(A, B, C):
    """[[A, B], [B^T, C]] written slice by slice into zeros."""
    M = np.zeros((6, 6))
    M[:3, :3] = A
    M[:3, 3:] = B
    M[3:, :3] = B.T
    M[3:, 3:] = C
    return M


def test_sd_block_bitwise_equals_slice_assembly(rng):
    for _ in range(50):
        A, B, C = (rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-300, 300)
                   for _ in range(3))
        assert curvops._sd_block(A, B, C).tobytes() == _slice_assembly(A, B, C).tobytes()
        # an SD/ASD input keeps its upper B; a coordinate input goes through
        # _block_transform, as the constructor's own copies did
        M = rng.standard_normal((6, 6))
        assert (curvops._sd_asd_matrix(M, SD_ASD).tobytes()
                == _slice_assembly(M[:3, :3], M[:3, 3:], M[3:, 3:]).tobytes())
        assert (curvops._sd_asd_matrix(M, COORDINATE).tobytes()
                == _slice_assembly(*curvops._block_transform(M)).tobytes())
        d = decompose(random_admissible_operator(rng))
        A, C = (W + (d.s / 12.0) * np.eye(3) for W in (d.w_plus, d.w_minus))
        assert (recompose(d, basis=SD_ASD).matrix.tobytes()
                == _slice_assembly(A, d.ric_block, C).tobytes())
    # the Kahler models: (s/12) I has -0.0 off its diagonal when s < 0
    for name in ("fubiniStudy", "bergman"):
        for s in (24.0, 1e-300, 3e300) if name == "fubiniStudy" else (-24.0, -1e-300, -3e300):
            A = np.diag([0.0, 0.0, s / 4.0]) if s > 0 else np.diag([s / 4.0, 0.0, 0.0])
            want = _slice_assembly(A, np.zeros((3, 3)), (s / 12.0) * np.eye(3))
            got = catalog(name, {"s": s}).operator.matrix
            assert got.tobytes() == want.tobytes()
            assert np.signbit(got[3, 4]) == (s < 0)


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


def test_from_dict_needs_matrix():
    with pytest.raises(ValueError, match="needs a 'matrix' field"):
        CurvatureOperator.from_dict({"basis": SD_ASD})


@pytest.mark.parametrize("matrix, basis, message", [
    (np.eye(5), COORDINATE, "curvature operator must be a 6x6 matrix"),
    (np.eye(6), "polar", "unknown basis tag 'polar'"),
], ids=["shape", "basis"])
def test_operator_needs_6x6_matrix_and_known_basis(matrix, basis, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CurvatureOperator(matrix, basis=basis)


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


def _frame_ricci_reference(op):
    """Ric_bc = sum_a R_abac, with R_ijkl = M[p, q] for the pairs p = (i, j) and
    q = (k, l) of the coordinate-basis matrix M, filled antisymmetrically in
    (i, j) and in (k, l)."""
    M = op.in_coordinate_basis()
    R = np.zeros((4, 4, 4, 4))
    for p, (i, j) in enumerate(curvops.PAIRS):
        for q, (k, l) in enumerate(curvops.PAIRS):
            R[i, j, k, l] = R[j, i, l, k] = M[p, q]
            R[j, i, k, l] = R[i, j, l, k] = -M[p, q]
    return np.einsum("abac->bc", R)


def test_frame_ricci_matches_tensor_contraction(rng):
    ops = [random_admissible_operator(rng, scale, basis)
           for basis in (SD_ASD, COORDINATE) for scale in (1e-3, 1.0, 1e3) for _ in range(10)]
    ops += [random_einstein_operator(rng) for _ in range(10)]
    ops += [catalog(name, {"s": s}).operator for name, s in (("fubiniStudy", 7.0),
                                                               ("bergman", -0.3))]
    exact = {"identity": (CurvatureOperator(np.eye(6)), 3.0 * np.eye(4)),
             "fubiniStudy": (catalog("fubiniStudy").operator, 6.0 * np.eye(4)),
             "surfaceProduct": (catalog("surfaceProduct", {"a": 2.0, "b": -0.5}).operator,
                                np.diag([2.0, 2.0, -0.5, -0.5]))}
    for op, ric in exact.values():
        assert np.array_equal(curvops.frame_ricci(op), ric)
    for op in ops + [op for op, _ in exact.values()]:
        ric, ref = curvops.frame_ricci(op), _frame_ricci_reference(op)
        size = max(1.0, float(np.abs(op.matrix).max()))
        assert np.abs(ric - ref).max() <= 1e-14 * size
        assert np.abs(ric - ric.T).max() <= 1e-14 * size
        assert np.trace(ric) == pytest.approx(decompose(op).s, rel=1e-14, abs=1e-14 * size)


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
    crooked = np.array(d.w_plus)
    crooked[0, 1] += 1e-3
    asymmetric = curvops.Decomposition(
        s=d.s, w_plus=crooked, w_minus=d.w_minus, ric_block=d.ric_block,
        spectrum_plus=d.spectrum_plus, spectrum_minus=d.spectrum_minus)
    for basis in (COORDINATE, SD_ASD):
        with pytest.raises(NotSymmetricError):
            recompose(asymmetric, basis=basis)


@pytest.mark.parametrize("basis", [COORDINATE, SD_ASD])
def test_recompose_round_trip_at_any_scale(rng, basis):
    # an admissible operator scaled by 2^k, with the relative asymmetry of
    # 1e-10 that finite differences leave, rebuilds at every k; the trace
    # and symmetry tests were absolute and refused it from max|R| ~ 1e3 up
    worst = 0.0
    for k in range(-1000, 1001):
        M = np.ldexp(random_admissible_operator(rng, basis=basis).matrix, k)
        big = float(np.abs(M).max())
        M[0, 1] += 1e-10 * big
        back = recompose(decompose(CurvatureOperator(M, basis=basis)), basis=basis)
        worst = max(worst, float(np.abs(back.matrix - M).max()) / big)
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# the carried error bound
# ---------------------------------------------------------------------------

def _with_err(op, err):
    return CurvatureOperator(op.matrix, basis=op.basis, err=err)


def test_err_survives_decompose_flip_and_recompose(rng):
    for basis in (COORDINATE, SD_ASD):
        for _ in range(10):
            err = float(10.0 ** rng.uniform(-12.0, -4.0))
            d = decompose(_with_err(random_admissible_operator(rng, basis=basis), err))
            assert d.err == err and orientation_flipped(d).err == err
            for out in (COORDINATE, SD_ASD):
                assert recompose(d, basis=out).err == err
            assert "err" not in d.to_dict()
    assert decompose(CurvatureOperator(np.eye(6))).err == 0.0


def _einstein_guards(op, d):
    """The four operations that refuse non-Einstein input."""
    return (lambda: char_densities(d),
            lambda: classify_equality(d, CurvatureSign.NON_NEGATIVE),
            lambda: einstein_sec_range(d),
            lambda: einstein_extreme_witnesses(op, d))


def test_einstein_guards_widen_by_err(rng):
    # a Ricci block with residual between CLASSIFY_TOL and 20 err: refused
    # exactly, accepted once the operator carries err
    for _ in range(20):
        scale = float(10.0 ** rng.uniform(-3.0, 3.0))
        exact = random_einstein_operator(rng, scale)
        err = float(10.0 ** rng.uniform(-7.0, -4.0))
        residual = float(np.exp(rng.uniform(np.log(2.0 * curvops.CLASSIFY_TOL),
                                            np.log(10.0 * err))))
        d0 = decompose(exact)
        B = rng.standard_normal((3, 3))
        B *= residual * max(1.0, abs(d0.s)) / np.linalg.norm(B)
        M = exact.in_sd_asd_basis()
        M[:3, 3:], M[3:, :3] = B, B.T
        sd = CurvatureOperator(M, basis=SD_ASD)
        for op in (sd, CurvatureOperator(sd.in_coordinate_basis())):
            d = decompose(op)
            assert curvops.CLASSIFY_TOL < d.einstein_residual() <= 20.0 * err
            assert not d.is_einstein()
            for guard in _einstein_guards(op, d):
                with pytest.raises(NotEinsteinError) as info:
                    guard()
                assert info.value.residual == d.einstein_residual()
            carried = _with_err(op, err)
            d = decompose(carried)
            assert d.is_einstein()
            for guard in _einstein_guards(carried, d):
                guard()


def test_admissibility_widens_by_err(rng):
    # a Bianchi or symmetry defect between STRUCTURAL_TOL and 10 err (relative
    # to max(1, max|R|)): refused exactly, accepted once the operator carries err
    for _ in range(20):
        M = random_admissible_operator(rng, float(10.0 ** rng.uniform(-3.0, 3.0))).in_sd_asd_basis()
        err = float(10.0 ** rng.uniform(-8.0, -4.0))
        defect = float(np.sqrt(10.0 * err * curvops.STRUCTURAL_TOL)) * max(1.0, np.abs(M).max())
        bianchi = M.copy()
        bianchi[0, 0] += defect
        skew = M.copy()
        skew[0, 1] += defect
        for bad, error in ((bianchi, BianchiViolationError), (skew, NotSymmetricError)):
            with pytest.raises(error):
                CurvatureOperator(bad, basis=SD_ASD)
            assert CurvatureOperator(bad, basis=SD_ASD, err=err).err == err


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


def _gl_defect_reference(d):
    """gl_defect as an if-chain with one branch per sign of s, and its
    flatness and multiplicity tests written out: (defect, |W+|, |W-|,
    branch, saturated, cover)."""
    tol = curvops.CLASSIFY_TOL * max(1.0, abs(d.s))
    lp, mp, vp = d.spectrum_plus
    lm, mm, vm = d.spectrum_minus
    nwp, nwm = d.norm_w_plus(), d.norm_w_minus()
    defect = abs(d.s) / math.sqrt(6.0) - (nwp + nwm)
    branch, saturated, cover = EqualityBranch.NONE, False, CoverClass.NOT_SATURATED
    if abs(defect) <= tol:
        flat_tol = curvops.CLASSIFY_TOL
        if abs(d.s) <= flat_tol and nwp <= flat_tol and nwm <= flat_tol:
            saturated = True
            cover = CoverClass.FLAT if d.is_einstein() else CoverClass.NOT_SATURATED
        elif d.s < 0 and (vp - mp) <= tol and (vm - mm) <= tol:
            branch = EqualityBranch.NON_POSITIVE
            saturated = True
            if d.is_einstein():
                cover = CoverClass.HYPERBOLIC_PLANE_PRODUCT
        elif d.s > 0 and (mp - lp) <= tol and (mm - lm) <= tol:
            branch = EqualityBranch.NON_NEGATIVE
            saturated = True
            if d.is_einstein():
                cover = CoverClass.SPHERE_PRODUCT
    return float(defect), nwp, nwm, branch, saturated, cover


def _with_ricci(op, rng, size):
    M = op.in_sd_asd_basis()
    M[:3, 3:] = size * rng.standard_normal((3, 3))
    M[3:, :3] = M[:3, 3:].T
    return CurvatureOperator(M, basis=SD_ASD)


# sec_max = s/12 + (m+ + m-)/2 = -1 + 2/2 = 0, yet the top eigenvalue of W+ is
# single, so the defect is delta(W+) = 20/(2 sqrt(6) + sqrt(14)) > 0
SIGMA_ZERO = assemble_einstein(-12.0, np.diag([-3.0, 1.0, 2.0]), np.zeros((3, 3)))
# 2^_FLOOR_FREE is the largest entry of an operator read by the old if-chain:
# there its max(1, |s|) floor and its absolute flatness test decide nothing
_FLOOR_FREE = 21
# from the bottom to the top of the float range; near 2^-540 the unscaled
# products of the terms underflow
_SCALES = (-1000, -540, 0, _FLOOR_FREE, 540, 1000)


def _scaled(op, k):
    """op brought to max|R| in [1/2, 1), then times 2^k."""
    return CurvatureOperator(np.ldexp(curvops._unit_scaled(op.matrix), k), basis=op.basis)


def _gl_cases(rng):
    """Seeded operators, each far from the saturation threshold, that reach
    every outcome of gl_defect."""
    zero = CurvatureOperator(np.zeros((6, 6)), basis=SD_ASD)
    yield zero  # flat
    yield _with_ricci(zero, rng, 1.0)  # s = 0 and W = 0, not Einstein
    yield SIGMA_ZERO
    for _ in range(30):
        k = 10.0 ** float(rng.uniform(-10.0, -8.0))  # flat within the old absolute floor
        flat = assemble_einstein(float(rng.normal(0.0, k)), random_traceless_symmetric(rng, k),
                                 random_traceless_symmetric(rng, k))
        yield flat
        yield _with_ricci(flat, rng, 1e-6)
        a, b = rng.integers(1, 5, 2).tolist()  # s = 0, each top eigenvalue doubled
        yield assemble_einstein(0.0, np.diag([a, a, -2.0 * a]), np.diag([b, b, -2.0 * b]))
        for sign in (1.0, -1.0):  # S^2 x S^2 and H^2 x H^2 patterns, on either sign of s
            s = sign * 10.0 ** float(rng.uniform(-3.0, 3.0))
            for pattern in (1.0, -1.0):
                op = _saturated_einstein(rng, s, pattern)
                yield op
                yield _with_ricci(op, rng, 1e-3 * abs(s))  # saturated, not Einstein
        yield random_admissible_operator(rng)
        yield random_einstein_operator(rng)


def _flags(report):
    return report.equality_branch, report.saturated, report.cover_class


def test_gl_defect_matches_if_chain_reference(rng):
    """At 2^k for k from -1000 to 1000, gl_defect keeps the if-chain's defect
    and norms bit for bit, and has its flags read at 2^_FLOOR_FREE.

    So the if-chain's flags below that scale, where its floors decided, are
    not compared: the near-flat operators (Flat or saturated there), the
    saturated patterns on the wrong side of s (Flat or saturated where |s|
    is below about 2e-7), SIGMA_ZERO (Flat or saturated below 1e-6) and the
    saturated patterns with a Ricci block (Einstein through is_einstein's
    max(1, |s|) floor, so Flat or a product cover, below |s| of about 1)."""
    outcomes = set()
    for op in _gl_cases(rng):
        for base in (op, CurvatureOperator(op.in_coordinate_basis())):
            free = decompose(_scaled(base, _FLOOR_FREE))
            branch, saturated, cover = _gl_defect_reference(free)[3:]
            for k in _SCALES:
                d = decompose(_scaled(base, k))
                report = gl_defect(d)
                got = (report.defect, report.norm_w_plus, report.norm_w_minus)
                assert repr(got) == repr(_gl_defect_reference(d)[:3])
                assert _flags(report) == (branch, saturated, cover)
                outcomes.add(_flags(report))
    NONE, NONPOS, NONNEG = (EqualityBranch.NONE, EqualityBranch.NON_POSITIVE,
                            EqualityBranch.NON_NEGATIVE)
    assert outcomes == {
        (NONE, True, CoverClass.FLAT), (NONE, True, CoverClass.NOT_SATURATED),
        (NONPOS, True, CoverClass.HYPERBOLIC_PLANE_PRODUCT),
        (NONPOS, True, CoverClass.NOT_SATURATED),
        (NONNEG, True, CoverClass.SPHERE_PRODUCT), (NONNEG, True, CoverClass.NOT_SATURATED),
        (NONE, False, CoverClass.NOT_SATURATED)}


def test_gl_terms_sum_to_defect_at_any_scale(rng):
    # delta(W+) + delta(W-) -+ 2 sqrt(6) sec is the defect, to a few ulps of
    # |s| + |W+| + |W-|, on either sign of s
    eps = np.finfo(float).eps
    for op in _gl_cases(rng):
        for k in _SCALES:
            d = decompose(_scaled(op, k))
            e = -curvops._exponent([d.s, *d.spectrum_plus.tolist(), *d.spectrum_minus.tolist()])
            s, terms, _, _ = curvops._gl_terms(d)
            assert s == math.ldexp(d.s, e)
            size = abs(s) + math.ldexp(d.norm_w_plus() + d.norm_w_minus(), e)
            assert abs(sum(terms) - math.ldexp(gl_defect(d).defect, e)) <= 8.0 * eps * size


def _semidefinite_einstein(rng, non_positive, doubled, slack):
    """An Einstein operator with sec <= 0 (or >= 0), zero at slack 1."""
    if doubled:
        t = rng.uniform(0.2, 2.0, 2)
        pattern = [-2.0, 1.0, 1.0] if non_positive else [-1.0, -1.0, 2.0]
        spectra = [c * np.array(pattern) for c in t]
    else:
        spectra = [np.sort(x - x.mean()) for x in rng.uniform(-2.0, 2.0, (2, 3))]
    i = 2 if non_positive else 0  # sec_max, or sec_min, is s/12 + (x+ + x-)/2
    s = -6.0 * (spectra[0][i] + spectra[1][i]) * slack
    return assemble_einstein(s, *(Q @ np.diag(x) @ Q.T for Q, x in
                                  ((random_rotation(rng), x) for x in spectra)))


def test_gl_terms_non_negative_on_semidefinite_einstein(rng):
    # the paper's inequality term by term: each term >= -tau
    for _ in range(40):
        non_positive, doubled = bool(rng.integers(2)), bool(rng.integers(2))
        slack = 1.0 if rng.random() < 0.5 else 1.0 + float(rng.uniform(0.05, 2.0))
        op = _semidefinite_einstein(rng, non_positive, doubled, slack)
        for k in _SCALES:
            _, terms, tau, _ = curvops._gl_terms(decompose(_scaled(op, k)))
            assert min(terms) >= -tau


def test_gl_flags_same_at_every_scale():
    # S^2 x S^2 and H^2 x H^2 of equal curvatures read their cover; with the
    # second factor twice as curved they are saturated but not Einstein
    branches = {-1.0: EqualityBranch.NON_POSITIVE, 1.0: EqualityBranch.NON_NEGATIVE}
    covers = {-1.0: CoverClass.HYPERBOLIC_PLANE_PRODUCT, 1.0: CoverClass.SPHERE_PRODUCT}
    for k in range(-1000, 1001):
        c = math.ldexp(1.0, k)
        d = decompose(CurvatureOperator(c * SIGMA_ZERO.matrix, basis=SD_ASD))
        assert _flags(gl_defect(d)) == (EqualityBranch.NONE, False, CoverClass.NOT_SATURATED)
        sign = 1.0 if k % 2 else -1.0
        for ratio, cover in ((1.0, covers[sign]), (2.0, CoverClass.NOT_SATURATED)):
            d = decompose(CurvatureOperator(np.diag([sign * c, 0, 0, 0, 0, ratio * sign * c])))
            assert _flags(gl_defect(d)) == (branches[sign], True, cover)


def test_round_sphere_not_saturated_at_any_radius():
    # the round 4-sphere has W = 0 and sec_min = s/12 > 0 at every radius
    for r in 10.0 ** np.arange(-150.0, 151.0, 5.0):
        report = catalog("sphere4", {"r": float(r)}).to_dict()["glReport"]
        assert (report["saturated"], report["coverClass"]) == (False, "NotSaturated")


def test_gl_defect_orientation_flip_invariance(rng):
    for _ in range(50):
        d = decompose(random_admissible_operator(rng))
        fl = orientation_flipped(d)
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


def test_char_densities_past_float_range_are_infinite():
    # s^2/24 passes the float range: the Euler density is +inf, the ratio stays exact
    d = decompose(CurvatureOperator(-1e300 * np.eye(6), basis=SD_ASD))
    cd = char_densities(d)
    assert (cd.euler_density, cd.signature_density, cd.ratio) == (math.inf, 0.0, None)


def test_char_densities_finite_where_the_quotient_alone_overflows():
    # at 2^511 the squares over 4^K pass the float range, the densities (divided
    # by 8 pi^2 and 12 pi^2) do not: they are the unit densities times 4^511
    R = np.diag([-4.0, 0.0, 1.0, -1.0, -1.0, -1.0])  # s = -12, W+ = diag(-3, 1, 2)
    unit = char_densities(decompose(CurvatureOperator(R, basis=SD_ASD)))
    big = char_densities(decompose(CurvatureOperator(np.ldexp(R, 511), basis=SD_ASD)))
    assert big.euler_density == math.ldexp(unit.euler_density, 1022) < math.inf
    assert big.signature_density == math.ldexp(unit.signature_density, 1022) < math.inf
    assert big.ratio == unit.ratio


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
    if not d.einstein_residual() <= tol:
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
        yield catalog(name).operator
    for _ in range(40):
        a = float(rng.normal(0.0, 3.0))
        yield catalog("surfaceProduct", {"a": a, "b": a}).operator
    for _ in range(150):  # saturated, both eigenvalue patterns, from far to near zero
        s = float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-7.5, 3.0))
        yield _saturated_einstein(rng, s, float(rng.choice([-1.0, 1.0])))
    for _ in range(150):  # flat only to within the old absolute floor
        s = float(rng.normal(0.0, 1.0)) * 10.0 ** float(rng.uniform(-9.0, -6.0))
        k = 10.0 ** float(rng.uniform(-9.0, -6.5))
        yield assemble_einstein(s, random_traceless_symmetric(rng, k),
                                random_traceless_symmetric(rng, k))
    for _ in range(150):
        yield random_einstein_operator(rng, 10.0 ** float(rng.uniform(-3.0, 3.0)))


def _outcome(classify, d, sign):
    try:
        return classify(d, sign)
    except FourcurvError as exc:
        return type(exc)


def test_classify_equality_matches_reference(rng):
    """classify_equality at 2^k, k in _SCALES, against the reference
    read at 2^_FLOOR_FREE, where its floors decide nothing.  Its answers below
    that scale are not compared: the near-flat operators (Flat there) and the
    saturated patterns whose |s| is below about 2e-7 (Flat, or the cover of
    the given sign whatever the pattern).

    The one allowed difference: the given sign contradicts the sign of s
    (s < 0 with NonNegative, s > 0 with NonPositive) and the reference,
    which ignores s, names the cover of the given sign; gl_defect chooses
    the branch by the sign of s, so classify_equality says NotSaturated."""
    contrary = 0
    for op in _einstein_cases(rng):
        free = decompose(_scaled(op, _FLOOR_FREE))
        for d in (decompose(_scaled(op, k)) for k in _SCALES):
            for sign in CurvatureSign:
                want = _outcome(_classify_equality_reference, free, sign)
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

    def density(q, c):
        # float(q) / c, with q scaled by 2^-e first where float(q) would overflow
        e = max(0, abs(q.numerator).bit_length() - q.denominator.bit_length())
        try:
            return math.ldexp(float(q / 2**e) / c, e)
        except OverflowError:
            return math.inf if q > 0 else -math.inf

    return density(euler, 8.0 * math.pi**2), density(sig, 12.0 * math.pi**2), ratio


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
        cf = char_densities(orientation_flipped(d))
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
    d = orientation_flipped(catalog("fubiniStudy").decomposition)
    with pytest.raises(NotKahlerError):
        kahler_signature_check(d)


def _kahler_flag_reference(d):
    """The rank test on the unscaled self-dual rows [A | B]."""
    rows = np.hstack((d.w_plus + d.s / 12.0 * np.eye(3), d.ric_block))
    sigma = np.linalg.svd(rows, compute_uv=False)
    return bool(sigma[1] <= curvops.CLASSIFY_TOL * sigma[0] + 9.0 * d.err)


def _unit(v):
    return v / np.linalg.norm(v)


def _kahler_blocks(rng, s, b_scale=1.0):
    """``(omega2, b, A, B, C)``: the blocks of a Kahler operator in a random
    U(2) frame, omega a random unit vector of Lambda+, A = (s/4) omega
    omega^T, B = omega b^T and any W-, with a unit omega2 orthogonal to
    omega."""
    omega = _unit(rng.normal(size=3))
    omega2 = _unit(np.cross(omega, rng.normal(size=3)))
    b = rng.normal(0.0, b_scale, 3)
    A = s / 4.0 * np.outer(omega, omega)
    C = s / 12.0 * np.eye(3) + random_traceless_symmetric(rng, max(abs(s), 1.0) / 10.0)
    return omega2, b, A, np.outer(omega, b), C


def test_kahler_flag_matches_unscaled_reference(rng):
    # between 1e-100 and 1e100 the unscaled rows stay far inside the float
    # range, and the scaled test must decide as they do on both sides of the
    # threshold; the density is the correctly rounded exact one
    for name, sign in (("fubiniStudy", 1.0), ("bergman", -1.0)):
        for exponent in rng.uniform(-100.0, 100.0, 60):
            d = catalog(name, {"s": sign * 10.0 ** float(exponent)}).decomposition
            assert d.is_kahler() is _kahler_flag_reference(d) is True
    agree = {True: 0, False: 0}
    for i in range(600):
        scale = 10.0 ** float(rng.uniform(-100.0, 100.0))
        s = float(rng.normal(0.0, 4.0)) * scale
        omega2, b, A, B, _ = _kahler_blocks(rng, s, scale * (i % 2))
        # a second singular value of [A | B], its ratio to the first spread
        # across CLASSIFY_TOL
        sigma1 = math.hypot(s / 4.0, float(np.linalg.norm(b)))
        ratio = curvops.CLASSIFY_TOL * 10.0 ** float(rng.uniform(-0.5, 0.5))
        A = A + ratio * sigma1 * np.outer(omega2, omega2)
        if i % 7 == 0:
            A = random_traceless_symmetric(rng, scale) + s / 12.0 * np.eye(3)
        s = 4.0 * float(np.trace(A))
        d = curvops.Decomposition(s=s, w_plus=A - s / 12.0 * np.eye(3),
                                  w_minus=random_traceless_symmetric(rng, scale), ric_block=B,
                                  spectrum_plus=np.zeros(3), spectrum_minus=np.zeros(3))
        want = _kahler_flag_reference(d)
        assert d.is_kahler() is want
        agree[want] += 1
        if want:  # the signature check's density and sign, in exact arithmetic
            density = (sum(Fraction(x) ** 2 for x in d.w_plus.ravel().tolist())
                       - sum(Fraction(x) ** 2 for x in d.w_minus.ravel().tolist()))
            check = kahler_signature_check(d)
            assert check.density == float(density)
            tol = Fraction(curvops.CLASSIFY_TOL)
            assert check.non_negative is (density >= -tol * Fraction(s) ** 2)
    assert min(agree.values()) > 100


def test_kahler_u2_frames_pass_at_every_scale(rng):
    for i in range(40):
        s = float(rng.normal(0.0, 10.0))
        _, _, A, B, C = _kahler_blocks(rng, s)
        M, basis = np.block([[A, B], [B.T, C]]), SD_ASD
        if i % 2:
            M, basis = curvops._block_assemble(A, B, C), COORDINATE
        ks = range(-1000, 1001) if i < 2 else rng.integers(-1000, 1001, 25).tolist()
        for k in ks:
            d = decompose(CurvatureOperator(np.ldexp(M, k), basis=basis))
            assert d.is_kahler() is True, (i, k)


def test_kahler_counterexample_fails():
    # |W+|^2 = 24 = s^2/24 holds, but W+ is not (s/6, -s/12, -s/12): the SD
    # rows have singular values (5.46, 2, 1.46)
    r3 = math.sqrt(3.0)
    d = decompose(assemble_einstein(24.0, np.diag([2.0 * r3, -2.0 * r3, 0.0]), np.zeros((3, 3))))
    assert d.norm_w_plus() ** 2 == pytest.approx(d.s ** 2 / 24.0, rel=1e-15)
    assert d.is_kahler() is False
    with pytest.raises(NotKahlerError, match=r"sigma2/sigma1 = 0\.366025"):
        kahler_signature_check(d)


def test_kahler_needs_the_ricci_rows(rng):
    # A = (s/4) omega omega^T is rank one, but B = omega2 b^T with omega2
    # orthogonal to omega gives [A | B] the singular values |s|/4 and |b|
    for _ in range(20):
        s = float(rng.normal(0.0, 10.0))
        omega2, b, A, _, C = _kahler_blocks(rng, s)
        B = np.outer(omega2, b)
        d = decompose(CurvatureOperator(np.block([[A, B], [B.T, C]]), basis=SD_ASD))
        assert d.is_kahler() is False


@pytest.mark.parametrize("with_err", [False, True])
def test_kahler_threshold_on_singular_value_ratio(rng, with_err):
    # sigma2 = (1 -+ 1e-6) (CLASSIFY_TOL sigma1 + 9 err) falls on either side
    for _ in range(40):
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 30.0))
        omega2, b, A, B, C = _kahler_blocks(rng, s)
        sigma1 = math.hypot(s / 4.0, float(np.linalg.norm(b)))
        err = 1e-6 * sigma1 if with_err else 0.0
        for factor, want in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            eps = factor * (curvops.CLASSIFY_TOL * sigma1 + 9.0 * err)
            A2 = A + eps * np.outer(omega2, omega2)
            C2 = C + eps / 3.0 * np.eye(3)  # keeps the Bianchi trace
            op = CurvatureOperator(np.block([[A2, B], [B.T, C2]]), basis=SD_ASD, err=err)
            assert decompose(op).is_kahler() is want


def test_catalog_kahler_flags_keep_their_default_at_any_scale():
    for e in range(-12, 201, 4):
        assert catalog("fubiniStudy", {"s": 10.0 ** e}).flags.kahler is True
        assert catalog("bergman", {"s": -(10.0 ** e)}).flags.kahler is True
        a = 10.0 ** (e - 100)
        for b in (a, -a, 2.0 * a, -3.0 * a):
            assert catalog("surfaceProduct", {"a": a, "b": b}).flags.kahler is True
    assert catalog("flat").flags.kahler is True


@pytest.mark.parametrize("name,s", [("fubiniStudy", 1e200), ("bergman", -1e200),
                                    ("fubiniStudy", 1.7e308), ("bergman", -5e-324)])
def test_kahler_identity_at_any_scale(name, s):
    m = catalog(name, {"s": s})
    assert m.flags.kahler
    check = kahler_signature_check(m.decomposition)  # W- = 0: density |W+|^2 = s^2/24
    assert check.non_negative and check.density == pytest.approx(s * s / 24.0, rel=1e-15)


def test_kahler_density_with_dominant_w_minus():
    # a Kahler W+ = (s/12) diag(-1, -1, 2) with s = 1e-300, and W- near 1:
    # the density is -|W-|^2, not -inf
    W = np.diag([-1.0, -1.0, 2.0])
    d = curvops.Decomposition(s=1e-300, w_plus=W * (1e-300 / 12.0), w_minus=W,
                              ric_block=np.zeros((3, 3)), spectrum_plus=np.zeros(3),
                              spectrum_minus=np.zeros(3))
    check = kahler_signature_check(d)
    assert check.density == -6.0 and not check.non_negative


def test_round_sphere_not_kahler_at_any_scale():
    # A = +-I/r^2 has rank 3; the old floor max(1, s^2) made both Kahler from
    # r = 90, and s^2 overflowed for r = 1e-100
    for r in np.logspace(-100.0, 100.0, 201).tolist() + [1e160]:
        for name in ("sphere4", "hyperbolic4"):
            assert catalog(name, {"r": r}).flags.kahler is False, (name, r)
