"""Sectional-curvature evaluation and sign certification.

Writing a tangent 2-plane through unit self-dual/anti-self-dual generators
``psi_plus``, ``psi_minus`` (every such pair spans a decomposable 2-form
``(psi_plus + psi_minus)/sqrt(2)``), the quadratic form

    q(psi+, psi-) = <psi+ + psi-, R(psi+ + psi-)>

equals twice the sectional curvature of the corresponding plane.  The sign
of sectional curvature is therefore the sign of q over the product of two
unit 2-spheres.

In the SD/ASD frame the planes are the unit vectors x = (psi+, psi-)/sqrt(2)
of R^6 with x^T H x = 0, where H = diag(I3, -I3) is the Hodge star, so
q_max = 2 max{x^T R x : |x| = 1, x^T H x = 0}.  The joint numerical range of
two quadratic forms on R^6 is convex (Brickman 1961), so the dual is exact
("Thorpe's trick", Thorpe 1971):

    q_max = min_t 2 lam_max(R + tH),    q_min = max_t 2 lam_min(R + tH).

Every t gives a rigorous bound by weak duality, and the top eigenvectors at
the optimal t contain a plane that attains it.  :func:`certify_sec_sign`
minimizes this convex function of one variable and reports the dual bound
together with the q of its witness plane.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .curvops import (
    CLASSIFY_TOL,
    PAIRS,
    CurvatureOperator,
    CurvatureSign,
    Decomposition,
    Record,
    _exponent,
    _ldexp,
    _norm,
    _set,
    _unit_scaled,
    decompose,
)
from .errors import DegeneratePlaneError, NotUnitError

UNIT_TOL = 1e-9


class Verdict(str, Enum):
    NON_NEGATIVE = "NonNegative"
    NON_POSITIVE = "NonPositive"
    INDEFINITE = "Indefinite"
    INCONCLUSIVE = "Inconclusive"


class PlaneWitness(Record):
    """A 2-plane given by unit vectors in the SD/ASD eigenframes."""

    __slots__ = ("psi_plus", "psi_minus", "q_value")

    def __init__(self, psi_plus: np.ndarray, psi_minus: np.ndarray, q_value: float):
        _set(self, "psi_plus", psi_plus)
        _set(self, "psi_minus", psi_minus)
        _set(self, "q_value", q_value)

    @property
    def sec_value(self) -> float:
        return self.q_value / 2.0

    def to_dict(self) -> dict:
        return {
            "psiPlus": np.asarray(self.psi_plus).tolist(),
            "psiMinus": np.asarray(self.psi_minus).tolist(),
            "qValue": self.q_value,
            "secValue": self.sec_value,
        }


class SecSignCertificate(NamedTuple):
    """Certified bounds for the extremes of q over the witness manifold."""

    q_max_lower: float
    q_max_upper: float
    q_min_lower: float
    q_min_upper: float
    max_witness: PlaneWitness
    min_witness: PlaneWitness
    verdict: Verdict

    @property
    def sec_range(self) -> tuple[float, float]:
        """Best-witness estimate of (sec_min, sec_max)."""
        return self.q_min_upper / 2.0, self.q_max_lower / 2.0

    def to_dict(self) -> dict:
        return {
            "qMaxLower": self.q_max_lower,
            "qMaxUpper": self.q_max_upper,
            "qMinLower": self.q_min_lower,
            "qMinUpper": self.q_min_upper,
            "maxWitness": self.max_witness.to_dict(),
            "minWitness": self.min_witness.to_dict(),
            "verdict": self.verdict.value,
            "method": "ThorpeDual",  # the one method, for every operator
        }


# ---------------------------------------------------------------------------
# Plane evaluation
# ---------------------------------------------------------------------------

def sec_of_plane(op: CurvatureOperator, X, Y) -> float:
    """Sectional curvature of the plane spanned by X and Y.

    Returns ``<R(X^Y), X^Y> / (|X|^2 |Y|^2 - <X, Y>^2)``; independent of the
    chosen basis of the plane.  Raises :class:`DegeneratePlaneError` when the
    Gram determinant vanishes relative to the vector norms.  X and Y are
    scaled by powers of two first, so that no product overflows.
    """
    X, Y = _unit_scaled(X), _unit_scaled(Y)
    gram = float(X @ X) * float(Y @ Y) - float(X @ Y) ** 2
    if gram <= 1e-14 * float(X @ X) * float(Y @ Y) or gram == 0.0:
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    omega = np.array([X[i] * Y[j] - X[j] * Y[i] for i, j in PAIRS])  # X ^ Y
    M = op.in_coordinate_basis()
    return float(omega @ M @ omega) / gram


def _q(A, B, C, psi_plus, psi_minus):
    """q of unit vectors ``psi_plus``, ``psi_minus`` of shape ``(..., 3)`` on SD/ASD
    blocks ``(..., 3, 3)``, taken as views of their 6x6 matrices: ``u A u + v C v
    + 2 u B v``."""
    u, v = psi_plus[..., None, :], psi_minus[..., None, :]
    vt = np.swapaxes(v, -1, -2)
    q = u @ A @ np.swapaxes(u, -1, -2) + v @ C @ vt + 2.0 * u @ B @ vt
    return q[..., 0, 0]


def q_form(op: CurvatureOperator, psi_plus, psi_minus) -> float:
    """Evaluate q(psi+, psi-) = <psi+ + psi-, R(psi+ + psi-)>.

    Inputs are unit 3-vectors in the SD/ASD eigenframes; the value is twice
    the sectional curvature of the plane of ``(psi+ + psi-)/sqrt(2)``.
    """
    psi_plus = np.asarray(psi_plus, dtype=float)
    psi_minus = np.asarray(psi_minus, dtype=float)
    for name, v in (("psi_plus", psi_plus), ("psi_minus", psi_minus)):
        if abs(float(v @ v) - 1.0) > UNIT_TOL:
            raise NotUnitError(f"{name} must be a unit vector")
    return float(_q(*op.blocks(), psi_plus, psi_minus))


# ---------------------------------------------------------------------------
# Einstein exact range
# ---------------------------------------------------------------------------

def einstein_sec_range(d: Decomposition) -> tuple[float, float]:
    """Exact sectional-curvature range of an Einstein operator.

    ``sec_max = s/12 + (nu+ + nu-)/2`` and ``sec_min = s/12 + (lam+ + lam-)/2``
    with the extreme eigenvalues of the Weyl halves; no optimization is
    involved.
    """
    d.require_einstein()
    sec_max = d.s / 12.0 + (d.spectrum_plus[2] + d.spectrum_minus[2]) / 2.0
    sec_min = d.s / 12.0 + (d.spectrum_plus[0] + d.spectrum_minus[0]) / 2.0
    return float(sec_min), float(sec_max)


# ---------------------------------------------------------------------------
# Sign certificate: the exact dual min_t 2 lam_max(R + tH)
# ---------------------------------------------------------------------------

_H = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])  # the Hodge star in the SD/ASD frame
_H_MATRIX = np.diag(_H)
_SIDES = np.array([1.0, -1.0])[:, None, None]  # R and -R
_GAP_TOL = 1e-14  # stop when the bounds agree this closely (normalized operator)
_MAX_ITERATIONS = 50


def _canonical(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix the global (u, v) -> (-u, -v) sign so witnesses compare stably."""
    for x in u.tolist() + v.tolist():
        if x != 0.0:
            return (-u, -v) if x < 0.0 else (u, v)
    return u, v


def _hform(a: list[float], b: list[float]) -> float:
    """a^T H b of two 6-vectors."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3] - a[4] * b[4] - a[5] * b[5]


def _plane(M: list[list[float]], x: list[float]):
    """``(q, z)``: z scales both halves of x to unit length, q = z^T M z.

    q is -inf when a half of x vanishes, so that x is near no plane.  Plain
    float arithmetic on lists: between the other work of a request, small
    numpy calls cost more than these 36 products.
    """
    nu, nv = math.hypot(*x[:3]), math.hypot(*x[3:])
    if nu == 0.0 or nv == 0.0:
        return -math.inf, None
    z = [x[0] / nu, x[1] / nu, x[2] / nu, x[3] / nv, x[4] / nv, x[5] / nv]
    q = sum(zi * (r[0] * z[0] + r[1] * z[1] + r[2] * z[2] + r[3] * z[3] + r[4] * z[4]
                  + r[5] * z[5]) for zi, r in zip(z, M))
    return q, z


def _witness(M, w, V, x4, x5, best):
    """The better of ``best`` and the planes among the top eigenvectors.

    ``M`` is the operator as nested lists, ``w`` the ascending eigenvalues
    of M + tH and the columns of ``V`` its eigenvectors, the last two also
    given as lists ``x4``, ``x5``.  Candidates are the top eigenvector with
    its halves normalized, which costs O((x^T H x)^2), and the mix with zero
    H-form from the smallest top cluster whose H-form is indefinite.  A mix
    from the top k eigenvectors has q >= 2 w[-k], so larger clusters are
    tried only while that could win.
    """
    g55 = _hform(x5, x5)
    if abs(g55) < 0.5:  # else x is far from any plane
        cand = _plane(M, x5)
        if cand[0] > best[0]:
            best = cand
    for k in range(2, 7):
        if 2.0 * w[6 - k] <= best[0]:
            break
        if k == 2:  # closed form
            y1, y2, g11, g12, g22 = x5, x4, g55, _hform(x4, x5), _hform(x4, x4)
        else:  # the extreme H-form directions of the cluster
            Vk = V[:, 6 - k:]
            gam, U = np.linalg.eigh(Vk.T * _H @ Vk)
            y1, y2 = (Vk @ U[:, -1]).tolist(), (Vk @ U[:, 0]).tolist()
            g11, g12, g22 = float(gam[-1]), 0.0, float(gam[0])
        if g11 * g22 <= g12 * g12:  # indefinite: cos(a) y1 + sin(a) y2 is a plane
            m, d = 0.5 * (g11 + g22), 0.5 * (g11 - g22)
            r = math.hypot(d, g12)
            a = 0.5 * (math.atan2(g12, d) + math.acos(max(-1.0, min(1.0, -m / r)))) if r else 0.0
            c, s = math.cos(a), math.sin(a)
            cand = _plane(M, [c * p + s * q for p, q in zip(y1, y2)])
            return cand if cand[0] > best[0] else best
    return best


def _step(w: list[float], G: list[list[float]]) -> float | None:
    """The shortest predicted step towards the minimum of lam_max(M + tH).

    ``w`` holds the ascending eigenvalues and ``G = V^T H V`` the H-form of
    the eigenvectors, both as lists.  Newton's step uses f'' = sum_j 2
    G[j, top]^2 / (w[top] - w[j]).  For each lower eigenpair j, the top
    eigenvalue on span(x_j, x_top) is a hyperbola in t with a closed-form
    minimum; for an uncoupled pair (G[j, top] = 0) that is a crossing of two
    branches, a kink that Newton would overshoot.  Of the five hyperbola
    steps and then Newton's, the first of least |step| is taken.  Plain
    float arithmetic, because numpy's per-call cost on 5-element arrays
    outweighs the work; the tests hold it bit for bit to the array form.
    """
    g55, w5 = G[5][5], w[5]
    steps, curvature = [], 0.0
    for j in range(5):
        e, gjj = G[j][5], G[j][j]
        c, b, d = 0.5 * (w5 - w[j]), 0.5 * (gjj + g55), 0.5 * (g55 - gjj)
        p = d * d + e * e
        r = p - b * b  # > 0 where the hyperbola has a minimum, so p > 0
        if r > 0.0:
            bce = abs(b * c * e)  # 0 when b = 0
            steps.append(((-bce if b > 0.0 else bce) / math.sqrt(r) - c * d) / p)
        if e != 0.0:  # c >= 0; a coupled pair with c = 0 makes f'' infinite
            curvature += e * e / c if c != 0.0 else math.inf
    if 0.0 < curvature < math.inf:
        steps.append(-g55 / curvature)
    steps = [x for x in steps if math.isfinite(x) and x != 0.0]
    return min(steps, key=abs) if steps else None


def _dual_maxima(sides: np.ndarray, t: list[float]):
    """``(upper, q, z)`` for each normalized operator M in ``sides``.

    ``upper`` is the least ``2 lam_max(M + tH)`` met, ``z = (psi+, psi-)``
    the best witness plane and ``q = z^T M z``.  Each side runs Newton's
    method on t from its start value, kept inside a bisection bracket
    (|t*| <= 2 |M|_2 < 12), until the gap is at most ``_GAP_TOL`` or the
    iteration cap; the bounds are valid either way.
    """
    n = len(sides)
    rows = sides.tolist()
    lo, hi = [-12.0] * n, [12.0] * n
    upper, best, done = [math.inf] * n, [(-math.inf, None)] * n, [False] * n
    for _ in range(_MAX_ITERATIONS):
        w, V = np.linalg.eigh(sides + np.multiply.outer(t, _H_MATRIX))
        tops = np.swapaxes(V[:, :, 4:], 1, 2).tolist()  # the top two eigenvectors
        for i, wi in enumerate(w.tolist()):
            if done[i]:
                continue
            upper[i] = min(upper[i], 2.0 * wi[5])
            best[i] = _witness(rows[i], wi, V[i], *tops[i], best[i])
            if upper[i] - best[i][0] <= _GAP_TOL:
                done[i] = True
                continue
            G = (V[i].T * _H @ V[i]).tolist()  # in numpy: the bits follow its matmul's sums
            if G[5][5] > 0.0:  # the slope of lam_max brackets the minimizer
                hi[i] = t[i]
            elif G[5][5] < 0.0:
                lo[i] = t[i]
            step = _step(wi, G)
            t_next = None if step is None else t[i] + step
            if t_next is None or not lo[i] < t_next < hi[i]:
                t_next = 0.5 * (lo[i] + hi[i])
            done[i] = t_next == t[i]
            t[i] = t_next
        if all(done):
            break
    return [(max(upper[i], best[i][0]), best[i][0], np.array(best[i][1])) for i in range(n)]


def certify_sec_sign(op: CurvatureOperator, *,
                     tolerance: float | None = None) -> SecSignCertificate:
    """Certify the global sign of sectional curvature of an operator.

    One method for every operator (``ThorpeDual``).  R is first scaled by a
    power of two to ``1/2 <= max|R| < 1``, which is exact, so nothing
    overflows and the bounds scale with R.  The max side minimizes
    ``lam_max(R + tH)`` from the Einstein optimum ``t0 = (nu-_max -
    nu+_max)/2`` of the Weyl spectra; the min side is the max side of -R.
    ``qMaxUpper`` and ``qMinLower`` are dual bounds, ``qMaxLower`` and
    ``qMinUpper`` the q of the witness planes; they agree to about
    ``1e-14 max|R|``.  The verdict compares them with ``tolerance`` (default
    ``1e-8 max(1, |R|_F)``, taken on the scaled R so it cannot overflow):
    ``Inconclusive`` means only that a certified interval straddles it.
    """
    d = decompose(op)
    S = op.in_sd_asd_basis()
    e = _exponent(S.ravel().tolist())
    sides = np.ldexp(S, -e) * _SIDES  # R and -R, scaled
    if tolerance is None:
        tol = 1e-8 * max(_ldexp(1.0, -e), _norm(sides[0]))
    else:
        tol = _ldexp(tolerance, -e)
    sp, sm = d.spectrum_plus, d.spectrum_minus
    t0 = (_ldexp(0.5 * (sm[2] - sp[2]), -e), _ldexp(0.5 * (sp[0] - sm[0]), -e))
    t0 = [t if math.isfinite(t) else 0.0 for t in t0]
    (max_upper, max_q, max_z), (neg_upper, neg_q, min_z) = _dual_maxima(sides, t0)
    # the min side ran on -R; subtracting from 0.0 turns -0.0 into 0.0
    bounds = (max_q, max_upper, 0.0 - neg_upper, 0.0 - neg_q)
    q_max_lower, q_max_upper, q_min_lower, q_min_upper = (_ldexp(b, e) for b in bounds)
    max_u, max_v = _canonical(max_z[:3], max_z[3:])
    min_u, min_v = _canonical(min_z[:3], min_z[3:])
    return SecSignCertificate(
        q_max_lower=q_max_lower, q_max_upper=q_max_upper,
        q_min_lower=q_min_lower, q_min_upper=q_min_upper,
        max_witness=PlaneWitness(max_u, max_v, q_value=q_max_lower),
        min_witness=PlaneWitness(min_u, min_v, q_value=q_min_upper),
        verdict=_verdict(*bounds, tol),
    )


def _verdict(q_max_lower, q_max_upper, q_min_lower, q_min_upper, tol) -> Verdict:
    if q_min_lower >= -tol:  # also when sec is identically zero to tolerance
        return Verdict.NON_NEGATIVE
    if q_max_upper <= tol:
        return Verdict.NON_POSITIVE
    if q_max_lower > tol and q_min_upper < -tol:
        return Verdict.INDEFINITE
    return Verdict.INCONCLUSIVE


def _einstein_planes(S: np.ndarray, W: np.ndarray):
    """``(u, v, q)`` of Einstein operators with SD/ASD matrices ``S`` ``(n, 6, 6)``
    and Weyl halves ``W`` ``(n, 2, 3, 3)``: ``u``, ``v`` ``(n, 2, 3)`` are the bottom
    and top eigenvectors of the SD and ASD halves, from one ``eigh`` and signed as it
    returns them, which span the (min, max) planes; ``q`` ``(n, 2)`` is their q on S."""
    _, vec = np.linalg.eigh(W)
    u, v = np.moveaxis(vec[..., [0, 2]], (1, 3), (0, 2))  # [half][n, end, :]
    S = S[:, None]
    return u, v, _q(S[..., :3, :3], S[..., :3, 3:], S[..., 3:, 3:], u, v)


def einstein_extreme_witnesses(op: CurvatureOperator,
                               d: Decomposition) -> tuple[PlaneWitness, PlaneWitness]:
    """(min, max) sectional-curvature witnesses of an Einstein operator.

    ``d`` is the decomposition of ``op``, which the caller already holds.
    The extreme planes of the separable Einstein form are spanned by the
    extreme eigenvectors of the two Weyl halves; their q is evaluated on
    ``op`` itself.
    """
    d.require_einstein()
    u, v, q = _einstein_planes(op.in_sd_asd_basis()[None],
                               np.stack((d.w_plus, d.w_minus))[None])
    # every product in q keeps its bits when u and v both change sign, so the
    # sign that _canonical fixes can come after q
    return tuple(PlaneWitness(*_canonical(u[0, k], v[0, k]), q_value=float(q[0, k]))
                 for k in (0, 1))


def einstein_min_sec(S: np.ndarray, ds: list[Decomposition]) -> np.ndarray:
    """The sectional curvature of the min plane of :func:`einstein_extreme_witnesses`
    for each Einstein operator of a stack, bit for bit: ``S`` holds their SD/ASD
    matrices ``(n, 6, 6)`` and ``ds`` their decompositions."""
    for d in ds:
        d.require_einstein()
    W = np.array([(d.w_plus, d.w_minus) for d in ds]).reshape(-1, 2, 3, 3)
    return _einstein_planes(S, W)[2][:, 0] / 2.0


def sign_flag(bounds: tuple[float, float, float, float], tol: float,
              verdict: Verdict | None = None) -> CurvatureSign:
    """The model-flag sign of the q-bounds ``(qMaxLower, qMaxUpper,
    qMinLower, qMinUpper)``: ``Zero`` when all four lie within ``tol`` of
    zero, else the sign of ``verdict`` (by default the verdict of the bounds
    at ``tol``), with ``Inconclusive`` read as ``Indefinite``."""
    if all(abs(b) <= tol for b in bounds):
        return CurvatureSign.ZERO
    verdict = _verdict(*bounds, tol) if verdict is None else verdict
    if verdict is Verdict.NON_NEGATIVE:
        return CurvatureSign.NON_NEGATIVE
    if verdict is Verdict.NON_POSITIVE:
        return CurvatureSign.NON_POSITIVE
    return CurvatureSign.INDEFINITE


def curvature_sign_of(cert: SecSignCertificate) -> CurvatureSign:
    """The model-flag sign of a certificate, ``Zero`` within ``CLASSIFY_TOL``."""
    bounds = (cert.q_max_lower, cert.q_max_upper, cert.q_min_lower, cert.q_min_upper)
    return sign_flag(bounds, CLASSIFY_TOL, cert.verdict)
