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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curvops import (
    CLASSIFY_TOL,
    CurvatureOperator,
    CurvatureSign,
    Decomposition,
    TwoForm,
    _ldexp,
    decompose,
    sd_frame_components,
    two_form_from_frame_components,
)
from .errors import DegeneratePlaneError, NotEinsteinError, NotUnitError

UNIT_TOL = 1e-9


class Verdict(str, Enum):
    NON_NEGATIVE = "NonNegative"
    NON_POSITIVE = "NonPositive"
    INDEFINITE = "Indefinite"
    INCONCLUSIVE = "Inconclusive"


class Method(str, Enum):
    THORPE_DUAL = "ThorpeDual"


@dataclass(frozen=True, eq=False)
class PlaneWitness:
    """A 2-plane given by unit vectors in the SD/ASD eigenframes."""

    psi_plus: np.ndarray
    psi_minus: np.ndarray
    q_value: float

    @property
    def sec_value(self) -> float:
        return self.q_value / 2.0

    def two_form(self) -> TwoForm:
        return two_form_from_frame_components(
            self.psi_plus / math.sqrt(2.0), self.psi_minus / math.sqrt(2.0)
        )

    def to_dict(self) -> dict:
        return {
            "psiPlus": np.asarray(self.psi_plus).tolist(),
            "psiMinus": np.asarray(self.psi_minus).tolist(),
            "qValue": self.q_value,
            "secValue": self.sec_value,
        }


@dataclass(frozen=True, eq=False)
class SecSignCertificate:
    """Certified bounds for the extremes of q over the witness manifold."""

    q_max_lower: float
    q_max_upper: float
    q_min_lower: float
    q_min_upper: float
    max_witness: PlaneWitness
    min_witness: PlaneWitness
    verdict: Verdict
    method: Method

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
            "method": self.method.value,
        }


# ---------------------------------------------------------------------------
# Plane evaluation
# ---------------------------------------------------------------------------

def sec_of_plane(op: CurvatureOperator, X, Y) -> float:
    """Sectional curvature of the plane spanned by X and Y.

    Returns ``<R(X^Y), X^Y> / (|X|^2 |Y|^2 - <X, Y>^2)``; independent of the
    chosen basis of the plane.  Raises :class:`DegeneratePlaneError` when the
    Gram determinant vanishes relative to the vector norms.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gram = float(X @ X) * float(Y @ Y) - float(X @ Y) ** 2
    if gram <= 1e-14 * float(X @ X) * float(Y @ Y) or gram == 0.0:
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    omega = TwoForm.from_wedge(X, Y).coefficients
    M = op.in_coordinate_basis()
    return float(omega @ M @ omega) / gram


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
    A, B, C = op.blocks()
    return float(psi_plus @ A @ psi_plus + psi_minus @ C @ psi_minus
                 + 2.0 * psi_plus @ B @ psi_minus)


def plane_witness_vectors(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Unit SD/ASD frame vectors of the plane spanned by X, Y."""
    omega = TwoForm.from_wedge(X, Y)
    n = omega.norm()
    if n == 0.0:
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    plus, minus = sd_frame_components(TwoForm(omega.coefficients / n))
    return plus * math.sqrt(2.0), minus * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Einstein exact range
# ---------------------------------------------------------------------------

def einstein_sec_range(d: Decomposition) -> tuple[float, float]:
    """Exact sectional-curvature range of an Einstein operator.

    ``sec_max = s/12 + (nu+ + nu-)/2`` and ``sec_min = s/12 + (lam+ + lam-)/2``
    with the extreme eigenvalues of the Weyl halves; no optimization is
    involved.
    """
    if not d.is_einstein():
        raise NotEinsteinError(
            f"exact range needs an Einstein operator; residual {d.einstein_residual():.3e}",
            residual=d.einstein_residual(),
        )
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


def _step(w, G) -> float | None:
    """The shortest predicted step towards the minimum of lam_max(M + tH).

    Newton's step uses f'' = sum_j 2 G[j, top]^2 / (w[top] - w[j]).  For each
    lower eigenpair j, the top eigenvalue on span(x_j, x_top) is a hyperbola
    in t with a closed-form minimum; for an uncoupled pair (G[j, top] = 0)
    that is a crossing of two branches, a kink that Newton would overshoot.
    """
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


def _dual_maxima(sides: np.ndarray, t: np.ndarray):
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
            G = V[i].T * _H @ V[i]
            if G[5, 5] > 0.0:  # the slope of lam_max brackets the minimizer
                hi[i] = t[i]
            elif G[5, 5] < 0.0:
                lo[i] = t[i]
            step = _step(w[i], G)
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
    e = math.frexp(float(np.abs(S).max()))[1]
    sides = np.ldexp(S, -e) * _SIDES  # R and -R, scaled
    if tolerance is None:
        tol = 1e-8 * max(_ldexp(1.0, -e), float(np.linalg.norm(sides[0])))
    else:
        tol = _ldexp(tolerance, -e)
    sp, sm = d.spectrum_plus, d.spectrum_minus
    t0 = (_ldexp(0.5 * (sm[2] - sp[2]), -e), _ldexp(0.5 * (sp[0] - sm[0]), -e))
    t0 = np.array([t if math.isfinite(t) else 0.0 for t in t0])
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
        verdict=_verdict(*bounds, tol), method=Method.THORPE_DUAL,
    )


def _verdict(q_max_lower, q_max_upper, q_min_lower, q_min_upper, tol) -> Verdict:
    non_positive = q_max_upper <= tol
    non_negative = q_min_lower >= -tol
    if non_negative and non_positive:
        # sec identically zero to tolerance; report the non-negative branch
        return Verdict.NON_NEGATIVE
    if non_positive:
        return Verdict.NON_POSITIVE
    if non_negative:
        return Verdict.NON_NEGATIVE
    if q_max_lower > tol and q_min_upper < -tol:
        return Verdict.INDEFINITE
    return Verdict.INCONCLUSIVE


def einstein_extreme_witnesses(op: CurvatureOperator, d: Decomposition,
                               tol: float = CLASSIFY_TOL) -> tuple[PlaneWitness, PlaneWitness]:
    """(min, max) sectional-curvature witnesses of an Einstein operator.

    ``d`` is the decomposition of ``op``, which the caller already holds.
    The extreme planes of the separable Einstein form are spanned by the
    extreme eigenvectors of the two Weyl halves; their q is evaluated on
    ``op`` itself.
    """
    if not d.is_einstein(tol):
        raise NotEinsteinError(
            f"witness extraction needs an Einstein operator; residual "
            f"{d.einstein_residual():.3e}",
            residual=d.einstein_residual(),
        )
    _, vec_p = np.linalg.eigh(d.w_plus)
    _, vec_m = np.linalg.eigh(d.w_minus)
    lo_u, lo_v = _canonical(vec_p[:, 0], vec_m[:, 0])
    hi_u, hi_v = _canonical(vec_p[:, 2], vec_m[:, 2])
    min_w = PlaneWitness(lo_u, lo_v, q_value=q_form(op, lo_u, lo_v))
    max_w = PlaneWitness(hi_u, hi_v, q_value=q_form(op, hi_u, hi_v))
    return min_w, max_w


def curvature_sign_of(cert: SecSignCertificate) -> CurvatureSign:
    """Map a certificate to the model-flag sign enum, with a Zero case when
    all four bounds lie within ``CLASSIFY_TOL`` of zero."""
    bounds = (cert.q_max_lower, cert.q_max_upper, cert.q_min_lower, cert.q_min_upper)
    if all(abs(b) <= CLASSIFY_TOL for b in bounds):
        return CurvatureSign.ZERO
    if cert.verdict is Verdict.NON_NEGATIVE:
        return CurvatureSign.NON_NEGATIVE
    if cert.verdict is Verdict.NON_POSITIVE:
        return CurvatureSign.NON_POSITIVE
    return CurvatureSign.INDEFINITE
