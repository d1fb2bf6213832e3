"""Sectional-curvature evaluation and certification tests."""

import itertools
import math

import numpy as np
import pytest

from conftest import (
    _sphere_max_batch,
    assemble_einstein,
    random_admissible_operator,
    random_einstein_operator,
    witness_two_form,
)
from fourcurv import secsign
from fourcurv.curvops import (
    CLASSIFY_TOL,
    PAIRS,
    SD_ASD,
    CurvatureOperator,
    _exponent,
    _split,
    decompose,
)
from fourcurv.errors import DegeneratePlaneError, NotEinsteinError, NotUnitError
from fourcurv.jsonio import dumps
from fourcurv.models import catalog
from fourcurv.secsign import (
    Verdict,
    certify_sec_sign,
    einstein_extreme_witnesses,
    einstein_sec_range,
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
        omega = witness_two_form(psi_p, psi_m)
        Om = np.zeros((4, 4))
        for idx, (i, j) in enumerate(PAIRS):
            Om[i, j] = omega[idx]
            Om[j, i] = -omega[idx]
        u_svd, s_svd, _ = np.linalg.svd(Om)
        X, Y = u_svd[:, 0], u_svd[:, 1]
        assert q == pytest.approx(2.0 * sec_of_plane(op, X, Y), abs=1e-10)


def _sec_of_plane_unscaled(op, X, Y):
    """sec_of_plane on X and Y as given, with no power-of-two scaling."""
    gram = float(X @ X) * float(Y @ Y) - float(X @ Y) ** 2
    omega = np.array([X[i] * Y[j] - X[j] * Y[i] for i, j in PAIRS])
    return float(omega @ op.in_coordinate_basis() @ omega) / gram


def test_plane_helpers_keep_their_bits_at_any_scale(rng):
    # X, Y scaled by 2^k stay normal for |k| <= 1000 (entries 1/2..2 in size),
    # so the result is the unit-scale one bit for bit
    ops = [CurvatureOperator(np.eye(6)), random_admissible_operator(rng),
           random_admissible_operator(rng, basis="coordinate")]
    pairs = [(E[0], E[1]), (E[0] + E[2], E[1] - E[3])]
    pairs += [tuple(rng.uniform(0.5, 2.0, 4) * rng.choice([-1.0, 1.0], 4) for _ in "XY")
              for _ in range(6)]
    ks = [(k, k) for k in range(-1000, 1001, 40)]
    ks += [tuple(rng.integers(-1000, 1001, 2).tolist()) for _ in range(20)]
    for X, Y in pairs:
        secs = [sec_of_plane(op, X, Y) for op in ops]
        assert secs == [_sec_of_plane_unscaled(op, X, Y) for op in ops]
        for kx, ky in ks:
            Xk, Yk = np.ldexp(X, kx), np.ldexp(Y, ky)
            assert [sec_of_plane(op, Xk, Yk) for op in ops] == secs
    # the cases that overflowed, underflowed or lost the plane without the scaling
    op = ops[0]
    for scale in (1e80, 1e160, 1e-170, 1e-300):
        assert sec_of_plane(op, scale * E[0], scale * E[1]) == 1.0
    with pytest.raises(DegeneratePlaneError):
        sec_of_plane(op, 1e160 * E[0], 2e160 * E[0])


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
    assert cert.to_dict()["method"] == "ThorpeDual"
    assert cert.verdict is Verdict.NON_NEGATIVE
    assert cert.q_max_lower == cert.q_max_upper == 2.0
    assert cert.q_min_lower == cert.q_min_upper == 2.0


def _verdict_reference(q_max_lower, q_max_upper, q_min_lower, q_min_upper, tol):
    """The verdict with its zero case as a branch of its own."""
    non_positive = q_max_upper <= tol
    non_negative = q_min_lower >= -tol
    if non_negative and non_positive:
        return Verdict.NON_NEGATIVE
    if non_positive:
        return Verdict.NON_POSITIVE
    if non_negative:
        return Verdict.NON_NEGATIVE
    if q_max_lower > tol and q_min_upper < -tol:
        return Verdict.INDEFINITE
    return Verdict.INCONCLUSIVE


def test_verdict_matches_reference_on_every_tie():
    tol = 1e-8
    values = (-1.0, -tol, math.nextafter(-tol, 0.0), -0.0, 0.0, math.nextafter(tol, 0.0),
              tol, math.nextafter(tol, 1.0), 1.0)
    verdicts = set()
    for bounds in itertools.product(values, repeat=4):
        want = _verdict_reference(*bounds, tol)
        assert secsign._verdict(*bounds, tol) is want
        verdicts.add(want)
    assert verdicts == set(Verdict)


def test_certify_surface_product_1_2():
    op = catalog("surfaceProduct", {"a": 1.0, "b": 2.0}).operator
    cert = certify_sec_sign(op)
    assert cert.to_dict()["method"] == "ThorpeDual"
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
            # a plane: the wedge square (Plucker relation) of its 2-form vanishes
            c = witness_two_form(w.psi_plus, w.psi_minus)
            assert abs(2.0 * (c[0] * c[5] - c[1] * c[4] + c[2] * c[3])) <= 1e-10


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
    from conftest import grid_oracle_qmax
    worst = 0.0
    for _ in range(30):
        op = random_admissible_operator(rng)
        op = CurvatureOperator(op.matrix / max(1.0, np.linalg.norm(op.matrix)),
                               basis=op.basis)
        cert = certify_sec_sign(op)
        oracle, bare = grid_oracle_qmax(op)
        worst = max(worst, abs(cert.q_max_lower - oracle))
        # never below what the bare exhaustive grid can see
        assert cert.q_max_lower >= bare - 1e-9
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
        assert cert.to_dict()["method"] == "ThorpeDual"
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


# ---------------------------------------------------------------------------
# the Einstein branch: the dual at its closed-form minimizer
# ---------------------------------------------------------------------------

def _dyadic_einstein(rng):
    # integer eighths, as certify-einstein's dyadic inputs: every step is exact
    halves = []
    for _ in range(2):
        W = rng.integers(-32, 33, (3, 3)) / 8.0
        W = np.triu(W) + np.triu(W, 1).T
        W[2, 2] = -W[0, 0] - W[1, 1]
        halves.append(W)
    s = 12.0 * float(rng.choice([-1, 1]) * rng.integers(1, 41)) / 8.0
    return assemble_einstein(s, *halves, basis=("coordinate", SD_ASD)[int(rng.integers(2))])


def _searched_from_t0(sides, ric):
    """The dual search in place of the Einstein branch, from the branch's own
    optimum t0 of the scaled operator."""
    _, _, (sp, sm) = _split(sides[0])
    return secsign._dual_maxima(sides, [0.5 * (sm[2] - sp[2]), 0.5 * (sp[0] - sm[0])])


def _no_branch(sides, ric):
    raise AssertionError("the Einstein branch was taken")


def test_einstein_branch_matches_the_search_from_t0(monkeypatch):
    # the same verdict, and bounds within _GAP_TOL at the operator's scale 2^e
    # (at most 0.09 of it on these operators)
    rng = np.random.default_rng(27)
    ops = [make(rng) for make in (random_einstein_operator, _dyadic_einstein) for _ in range(25)]
    ops += [catalog(name).operator for name in ("sphere4", "fubiniStudy", "hyperbolic4",
                                                "bergman", "flat")]
    ops += [CurvatureOperator(np.zeros((6, 6))), CurvatureOperator(np.eye(6))]
    branch, taken = secsign._einstein_maxima, []
    monkeypatch.setattr(secsign, "_einstein_maxima",
                        lambda sides, ric: taken.append(ric) or branch(sides, ric))
    for op in ops:
        for k in (-1000, -500, 0, 500, 1000):
            scaled = CurvatureOperator(np.ldexp(op.matrix, k), basis=op.basis)
            e = _exponent(scaled.in_sd_asd_basis().ravel().tolist())
            cert = certify_sec_sign(scaled)
            with monkeypatch.context() as m:
                m.setattr(secsign, "_einstein_maxima", _searched_from_t0)
                searched = certify_sec_sign(scaled)
            assert cert.verdict is searched.verdict
            gap = max(abs(a - b) for a, b in zip(_bounds(cert), _bounds(searched)))
            assert gap <= math.ldexp(secsign._GAP_TOL, e)
            for w, q in ((cert.max_witness, cert.q_max_lower), (cert.min_witness, cert.q_min_upper)):
                assert w.q_value == q
                assert q_form(scaled, w.psi_plus, w.psi_minus) == pytest.approx(
                    q, rel=0.0, abs=math.ldexp(secsign._GAP_TOL, e))
    assert len(taken) == 5 * len(ops)


@pytest.mark.parametrize("W_plus, W_minus, q_range", [
    (np.diag([-2.0, 1.0, 1.0]), np.diag([-1.0, -1.0, 2.0]), (-1.0, 5.0)),  # doubled top, bottom
    (np.diag([-1.0, -1.0, 2.0]), np.diag([-1.0, -1.0, 2.0]), (0.0, 6.0)),  # Fubini-Study pattern
])
def test_einstein_branch_exact_on_doubled_eigenvalues(W_plus, W_minus, q_range):
    # s = 12: q = 2 + nu+ + nu- at the extreme eigenvalues, exactly; the catalog's
    # sphere4, flat and fubiniStudy are in test_dual_exact_on_repeated_eigenvalues
    cert = certify_sec_sign(assemble_einstein(12.0, W_plus, W_minus))
    lo, hi = q_range
    assert _bounds(cert) == (hi, hi, lo, lo)


def _ricci_coupled(size):
    """``(op, u, v)``: W+ = diag(1, 1/2, -3/2), W- = diag(-1, 1/2, 1/2), s = 3, so
    max|R| = 5/4 scales by 1/2, and a Ricci block ``size (u v^T)`` that couples
    the top SD eigenvector u to the top ASD eigenvector v that the max witness
    of the operator does not hold: q(u, v) = 2 + 2 size."""
    def build(B):
        M = np.zeros((6, 6))
        M[:3, :3] = np.diag([1.25, 0.75, -1.25])
        M[3:, 3:] = np.diag([-0.75, 0.75, 0.75])
        M[:3, 3:], M[3:, :3] = B, B.T
        return CurvatureOperator(M, basis=SD_ASD)

    u = np.array([1.0, 0.0, 0.0])
    picked = certify_sec_sign(build(np.zeros((3, 3)))).max_witness.psi_minus
    v = np.cross(u, picked)  # the unit vector of the doubled top eigenspace beside it
    return build(size * np.outer(u, v)), u, v


def test_einstein_branch_widens_by_the_ricci_block():
    # |B| = 2^-48 is 2^-49 on the scaled operator, within the gate 1e-14/4: the
    # witness misses the coupling, but q_form finds the plane (u, v) above the
    # closed-form value 2, so only the widening by 2|B| keeps the bound
    op, u, v = _ricci_coupled(2.0**-48)
    cert = certify_sec_sign(op)
    q = q_form(op, u, v)
    assert q == 2.0 + 2.0**-47 > 2.0
    assert cert.q_max_lower == 2.0
    assert q <= cert.q_max_upper
    assert cert.q_max_upper - cert.q_max_lower <= 2.0 * secsign._GAP_TOL


def test_einstein_branch_gate(monkeypatch):
    # 2^-49 on the scaled operator takes the branch; 2^-48, just above the gate,
    # runs the search as every non-Einstein input does
    inside, above = _ricci_coupled(2.0**-48)[0], _ricci_coupled(2.0**-47)[0]
    monkeypatch.setattr(secsign, "_einstein_maxima", _no_branch)
    with pytest.raises(AssertionError, match="Einstein branch"):
        certify_sec_sign(inside)
    cert = certify_sec_sign(above)
    assert cert.q_max_lower <= 2.0 + 2.0**-46 <= cert.q_max_upper


# ---------------------------------------------------------------------------
# the dual step in plain floats against its numpy form
# ---------------------------------------------------------------------------

def _step_reference(w, G):
    """The numpy ``_step`` that the plain-float one replaced, kept verbatim."""
    e, g = G[:5, 5], np.diagonal(G)[:5]
    c, b, d = 0.5 * (w[5] - w[:5]), 0.5 * (g + G[5, 5]), 0.5 * (G[5, 5] - g)
    p = d * d + e * e
    r = p - b * b  # > 0 where the hyperbola has a minimum
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(r > 0.0, (-np.sign(b) * np.abs(b * c * e) / np.sqrt(r) - c * d) / p,
                         np.inf)
        newton = -G[5, 5] / float(np.sum(np.where(e == 0.0, 0.0, e * e / c)))
    steps = np.append(steps, newton)
    steps = steps[np.isfinite(steps) & (steps != 0.0)]
    return float(steps[np.argmin(np.abs(steps))]) if steps.size else None


def _same_step(w, G):
    """Assert that both forms give the identical float, or both None."""
    new = secsign._step(list(map(float, w)), np.asarray(G, dtype=float).tolist())
    old = _step_reference(np.asarray(w, dtype=float), np.asarray(G, dtype=float))
    assert (new is None and old is None) or (
        new is not None and old is not None and new.hex() == old.hex()), (w, G, new, old)
    return new


def _recorded_steps(monkeypatch, ops):
    """The (w, G) of every ``_step`` call the certificates of ``ops`` make."""
    calls = []
    step = secsign._step

    def recording(w, G):
        calls.append((list(w), [list(row) for row in G]))
        return step(w, G)

    monkeypatch.setattr(secsign, "_step", recording)
    for op in ops:
        certify_sec_sign(op)
    monkeypatch.undo()
    return calls


def _repeated_diagonal_sparse_ricci(rng):
    # integer SD/ASD diagonal with repeated entries and a sparse integer Ricci
    # block: its iterations meet uncoupled pairs, b = 0 and tied eigenvalues
    a0, a1, c0 = rng.integers(-3, 4, 3).tolist()
    M = np.diag([a0, a0, a1, c0, c0, 2 * a0 + a1 - 2 * c0]).astype(float)
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.integers(0, 3, 2).tolist()
        M[i, 3 + j] = M[3 + j, i] = float(rng.integers(1, 3))
    return CurvatureOperator(M, basis=SD_ASD)


def test_step_bitwise_equals_numpy_reference_on_dual_iterations(monkeypatch):
    rng = np.random.default_rng(1400)
    ops = [DUAL_KINDS[kind](rng) for kind in sorted(DUAL_KINDS) for _ in range(30)]
    ops += [_repeated_diagonal_sparse_ricci(rng) for _ in range(100)]
    ops += [CurvatureOperator(np.ldexp(op.matrix, k), basis=op.basis)
            for op, k in zip(ops[:40], rng.integers(-300, 300, 40).tolist())]
    calls = _recorded_steps(monkeypatch, ops)
    assert len(calls) > 400
    # the edge branches occur: an uncoupled pair, b = 0, tied top eigenvalues
    assert any(0.0 in [G[j][5] for j in range(5)] for _, G in calls)
    assert any(0.0 in [G[j][j] + G[5][5] for j in range(5)] for _, G in calls)
    assert any(w[4] == w[5] for w, _ in calls)
    for w, G in calls:
        _same_step(w, G)


def _edge_G(rng, e=None, gdiag=None):
    G = rng.standard_normal((6, 6))
    G = 0.5 * (G + G.T)
    if e is not None:
        G[:5, 5] = G[5, :5] = e
    if gdiag is not None:
        G[np.arange(6), np.arange(6)] = gdiag
    return G


def test_step_edge_branches_bitwise_equal_numpy_reference():
    rng = np.random.default_rng(1401)
    w = np.sort(rng.standard_normal(6))
    # an uncoupled pair (e_j = 0): its hyperbola is a kink, Newton skips it
    G = _edge_G(rng, e=[0.0, 0.3, -0.2, 0.0, 0.5])
    assert _same_step(w, G) is not None
    # tied top eigenvalues (c_4 = 0) with coupling: f'' is infinite, no Newton step
    tied = w.copy()
    tied[4] = tied[5]
    G = _edge_G(rng, e=[0.1, 0.2, 0.3, 0.4, 0.5])
    _same_step(tied, G)
    # the same with the tied pair uncoupled: Newton's step is kept
    G = _edge_G(rng, e=[0.1, 0.2, 0.3, 0.4, 0.0])
    assert _same_step(tied, G) is not None
    # b_j = 0 (G[j, j] = -G[5, 5]): the sign term vanishes
    G = _edge_G(rng, e=[0.3, 0.1, -0.4, 0.2, 0.6])
    G[2, 2] = -G[5, 5]
    assert _same_step(w, G) is not None
    # all e = 0: Newton's sum is 0, so only hyperbola steps remain
    G = _edge_G(rng, e=[0.0] * 5, gdiag=[0.5, -0.2, 0.3, -0.7, 0.1, 0.4])
    assert _same_step(w, G) is not None
    # every step filtered out: no coupling, and no hyperbola has a minimum
    G = _edge_G(rng, e=[0.0] * 5, gdiag=[0.5, 0.2, 0.3, 0.7, 0.1, 0.4])
    assert _same_step(w, G) is None
    # a zero slope G[5, 5] = 0 and no coupling: r = 0 for every pair, so no step
    G = _edge_G(rng, e=[0.0] * 5, gdiag=[0.5, -0.2, 0.3, -0.7, 0.1, 0.0])
    assert _same_step(tied, G) is None


def test_step_random_arrays_bitwise_equal_numpy_reference():
    rng = np.random.default_rng(1402)
    for _ in range(2000):
        w = np.sort(rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 1))
        G = _edge_G(rng)
        zero = rng.random(5) < 0.3
        G[:5, 5][zero] = 0.0
        G[5, :5][zero] = 0.0
        if rng.random() < 0.2:
            w[4] = w[5]
        _same_step(w, G)


def test_certify_repeats_on_the_same_operator(rng):
    # certifying an operator leaves nothing behind that a second call would see
    for kind in sorted(DUAL_KINDS):
        op = DUAL_KINDS[kind](rng)
        fresh = CurvatureOperator(np.array(op.matrix), basis=op.basis, err=op.err)
        first = dumps(certify_sec_sign(op).to_dict())
        assert dumps(certify_sec_sign(op).to_dict()) == first
        assert dumps(certify_sec_sign(fresh).to_dict()) == first
