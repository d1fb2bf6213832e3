"""The Page metric pipeline on the twisted 2-sphere bundle over the 2-sphere.

The metric is the cohomogeneity-one Einstein metric with positive
cosmological constant discovered by Page on CP^2 # conj(CP^2), written in
the triaxial form

    g = u(r)^2 dr^2 + v(r)^2 (s1^2 + s2^2) + w(r)^2 s3^2,

with the invariant coframe s1 = cos(psi) dth + sin(psi) sin(th) dph,
s2 = -sin(psi) dth + cos(psi) sin(th) dph, s3 = dpsi + cos(th) dph.  The
radial coordinate here is the angle r in (0, pi) with x = -cos(r), in which
every metric component is analytic up to the ends; the generic orbit is a
Berger 3-sphere and the two ends are 2-sphere bolts where the psi-circle
closes (w -> 0 with proper slope 1/2 for the 4*pi period, v bounded away
from zero).

With the cosmological constant normalized to 3 (unit round 4-sphere scale):

    q(r) = 1 - k^2 x^2
    U(r) = 3 - k^2 - k^2 (1 + k^2) x^2
    W    = 3 + 6 k^2 - k^4
    u    = sqrt((1 + k^2) q / U)
    v    = sqrt((1 + k^2) q / W)
    w    = (2 k sqrt(1 + k^2) / W) sin(r) sqrt(U / q)

where the shape parameter k in (0, 1) is the unique root of

    k^4 + 4 k^3 - 6 k^2 + 12 k - 3 = 0.

Every answer reads the closed-form curvature of the SU(2)-invariant ansatz
(Page, Phys. Lett. B 79 (1978) 235; Eguchi, Gilkey and Hanson, Phys. Rep. 66
(1980) 213) on floats, from the radial 2-jets of the profiles (:class:`Jet`),
which a sweep of orbits evaluates in one pass, one list entry per radius.  An
orbit's SD/ASD blocks are diagonal
(:func:`orbit_spectra`; Derdzinski, Compositio Math. 49 (1983) 405), and chi
and tau are bolt terms of the transgression forms (:func:`transgression`;
Chern, Ann. Math. 45 (1944) 747).  The closed form computes the curvature of
the metric that u, v and w define, so a mistranscribed profile shows as an
Einstein residual (:func:`verify_einstein`).  Its entries a to e
(:func:`orbit_entries`) are checked in the tests against finite differences
of the coordinate chart (:func:`orbit_curvature`), which alone load numpy.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .errors import NotEinsteinError
from .jsonio import witness_dict
from .names import CLASSIFY_TOL

PAGE_LAMBDA = 3.0
RADIAL_MARGIN = 0.02  # fraction of the radial interval a Chebyshev sweep skips at each end
ORBIT_STEP = 0.004  # the finite-difference step of an orbit point away from the ends
# roundoff of a closed-form operator entry, in units of the sum of its terms' sizes:
# each term is a product of at most 6 jet values formed in at most 5 roundings, and an
# entry adds at most 3 terms, so 64 eps covers the formulas' own roundings with a
# relative error of up to 9 ulps in each jet value (6 * 9 + 5 + 2 = 61).  A jet value
# near a zero of the profile's derivative can be further off relative to itself, which
# this budget does not bound; the tests check the total.
FORMULA_ULPS = 64.0 * sys.float_info.epsilon
# coefficients of the shape-parameter quartic, highest degree first
PAGE_SHAPE_QUARTIC = (1.0, 4.0, -6.0, 12.0, -3.0)
_SQRT6 = math.sqrt(6.0)


def page_shape_parameter() -> float:
    """The root of the shape quartic in (0, 1), by deterministic bisection."""

    def p(x: float) -> float:
        c4, c3, c2, c1, c0 = PAGE_SHAPE_QUARTIC
        return (((c4 * x + c3) * x + c2) * x + c1) * x + c0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _elementary(name: str, x):
    """The function ``name`` (sqrt, sin or cos) of a float by math, of a jet by the
    jet's own method, and of anything else (an array) by numpy, imported on first
    use."""
    if isinstance(x, (float, int)):
        return getattr(math, name)(x)
    if hasattr(x, name):
        return getattr(x, name)()
    import numpy as np

    return getattr(np, name)(x)


_sqrt, _sin, _cos = (partial(_elementary, name) for name in ("sqrt", "sin", "cos"))


class Jet:
    """The radial 2-jets of a sweep of radii in forward mode (Griewank and
    Walther, *Evaluating Derivatives*, 2nd ed., ch. 13): ``points`` is a list with
    one ``(f, f', f'')`` per radius, so the profile functions run once per sweep,
    as written: ``+ - * /`` with numbers or jets, and :func:`_sqrt`, :func:`_sin`
    and :func:`_cos`.  A number is a constant jet.  Each point goes through the
    float operations of a jet of one radius, the zero derivatives of a constant
    included, so a sweep gives the bits of its orbits taken one at a time."""

    __slots__ = ("points",)

    def __init__(self, points: list[tuple[float, float, float]]):
        self.points = points

    def __iter__(self):
        return iter(self.points)

    def lift(self, x) -> Jet:
        """``x`` as a jet of this sweep: a number is a constant, with zero derivatives."""
        return x if isinstance(x, Jet) else Jet([(x, 0.0, 0.0)] * len(self.points))

    def __add__(self, other):
        return Jet([(a + d, b + e, c + h)
                    for (a, b, c), (d, e, h) in zip(self.points, self.lift(other).points)])

    __radd__ = __add__

    def __neg__(self):
        return Jet([(-a, -b, -c) for a, b, c in self.points])

    def __sub__(self, other):
        return self + -self.lift(other)

    def __rsub__(self, other):  # a number minus a jet: lift(other) + -self in one pass
        return Jet([(other + -a, 0.0 + -b, 0.0 + -c) for a, b, c in self.points])

    def __mul__(self, other):
        return Jet([(a * d, b * d + a * e, c * d + 2.0 * b * e + a * h)
                    for (a, b, c), (d, e, h) in zip(self.points, self.lift(other).points)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Jet([(q := a / d, q1 := (b - q * e) / d, (c - 2.0 * q1 * e - q * h) / d)
                    for (a, b, c), (d, e, h) in zip(self.points, self.lift(other).points)])

    def __rtruediv__(self, other):
        return self.lift(other) / self

    def sqrt(self):
        return Jet([(s := math.sqrt(a), s1 := b / (2.0 * s), (c - 2.0 * s1 * s1) / (2.0 * s))
                    for a, b, c in self.points])

    def sin(self):
        return Jet([(s := math.sin(a), (k := math.cos(a)) * b, k * c - s * b * b)
                    for a, b, c in self.points])

    def cos(self):
        return Jet([(k := math.cos(a), -(s := math.sin(a)) * b, -s * c - k * b * b)
                    for a, b, c in self.points])


class EndpointData(NamedTuple):
    """Numeric smooth-closure data at one end of the radial interval."""

    v_limit: float
    w_slope_proper: float

    def to_dict(self) -> dict:
        return {"vLimit": self.v_limit, "wSlopeProper": self.w_slope_proper}


class CohomOneMetric(NamedTuple):
    """A cohomogeneity-one metric through its radial profile functions of the
    angle r in (0, pi).

    The profiles are elementwise: each maps a radius, a jet of radii or an
    array of radii to values of the same kind, so the chart evaluates stacks
    of points.
    """

    u: Callable[[float], float]
    v: Callable[[float], float]
    w: Callable[[float], float]
    metadata: dict

    @property
    def chart(self):
        """The coordinate chart at (r, th, ph, psi), for finite differences."""
        import numpy as np

        from . import numgeom

        u, v, w = self.u, self.v, self.w

        def metric_at(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            r, th = x[..., 0], x[..., 1]
            uu, vv, ww = u(r) ** 2, v(r) ** 2, w(r) ** 2
            cth = np.cos(th)
            g = np.zeros(x.shape[:-1] + (4, 4))
            g[..., 0, 0] = uu
            g[..., 1, 1] = vv
            g[..., 2, 2] = vv * np.sin(th) ** 2 + ww * cth * cth
            g[..., 3, 3] = ww
            g[..., 2, 3] = g[..., 3, 2] = ww * cth
            return g

        return numgeom.MetricChart(
            domain=((0.0, np.pi), (0.0, np.pi), (-np.pi, np.pi), (-2.0 * np.pi, 2.0 * np.pi)),
            metric_at=metric_at,
            depends_on=(0, 1),
        )

    def jets(self, radii: Sequence[float]) -> tuple[Jet, Jet, Jet]:
        """The radial 2-jets of u, v and w at the radii, in one pass of the profiles;
        a sweep needs at least one radius."""
        x = Jet([(float(r), 1.0, 0.0) for r in radii])
        if not x.points:
            raise ValueError("a sweep needs at least one radius")
        return x.lift(self.u(x)), x.lift(self.v(x)), x.lift(self.w(x))

    def endpoint_data(self) -> tuple[EndpointData, EndpointData]:
        """v and the proper slope of w, w' / u toward the interior, at each end."""
        return tuple(EndpointData(v_limit=v, w_slope_proper=inward * w1 / u)
                     for inward, (u, _, _), (v, _, _), (_, w1, _)
                     in zip((1.0, -1.0), *self.jets((0.0, math.pi))))


def page_metric() -> CohomOneMetric:
    """The Page metric, normalized to cosmological constant 3."""
    k = page_shape_parameter()
    k2 = k * k
    T = 1.0 + k2
    W = 3.0 + 6.0 * k2 - k2 * k2
    sqT = math.sqrt(T)

    def q_of(r):
        x = -_cos(r)
        return 1.0 - k2 * x * x

    def U_of(r):
        x = -_cos(r)
        return 3.0 - k2 - k2 * (1.0 + k2) * x * x

    def u(r):
        return _sqrt(T * q_of(r) / U_of(r))

    def v(r):
        return _sqrt(T * q_of(r) / W)

    def w(r):
        return (2.0 * k * sqT / W) * _sin(r) * _sqrt(U_of(r) / q_of(r))

    return CohomOneMetric(u=u, v=v, w=w, metadata={"lambda": PAGE_LAMBDA, "shapeParameter": k})


def sphere_ansatz() -> CohomOneMetric:
    """The unit round 4-sphere written in the same cohomogeneity-one ansatz."""

    def u(r):
        return 1.0

    def v(r):
        return _sin(r) / 2.0

    return CohomOneMetric(u=u, v=v, w=v, metadata={"lambda": 3.0})


def chebyshev_radii(n: int) -> list[float]:
    """n Chebyshev-distributed radii on (0, pi) clamped by RADIAL_MARGIN."""
    lo = RADIAL_MARGIN * math.pi
    hi = (1.0 - RADIAL_MARGIN) * math.pi
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + half * math.cos(math.pi * (2 * j + 1) / (2 * n)) for j in range(n)]


def orbit_curvature(m: CohomOneMetric, radii):
    """Frame curvature of the orbits through the given radii by finite
    differences of the chart, one point per orbit: a single radius gives one
    PointCurvature, a sequence a :class:`numgeom.CurvatureStack`.  The
    tests' oracle of the closed form."""
    import numpy as np

    from . import numgeom

    r = np.asarray(radii, dtype=float)
    step = np.minimum(ORBIT_STEP, 0.4 * np.minimum(r, math.pi - r))
    # th = pi/2 keeps clear of the Euler-angle degeneracy at th in {0, pi}
    points = np.stack(np.broadcast_arrays(r, np.pi / 2.0, 0.0, 0.0), axis=-1)
    return numgeom.curvature_at(m.chart, points, step=step)


def orbit_entries(m: CohomOneMetric,
                  radii: Sequence[float]) -> list[tuple[tuple[float, ...], float]]:
    """``((a, b, c, d, e), err)`` of each radius: the closed-form curvature operator
    of the orbit through it, in the coordinate basis of the frame e1 = u dr,
    e2 = v s1, e3 = v s2, e4 = w s3, and its roundoff bound.

    With the 2-jets of u, v and w, the nonzero entries in the basis (e1^e2,
    e1^e3, e1^e4, e2^e3, e2^e4, e3^e4) are

        a = -(u v'' - u' v') / (u^3 v)              at (12,12) and (13,13)
        b = -(u w'' - u' w') / (u^3 w)              at (14,14)
        c = 1/v^2 - 3 w^2 / (4 v^4) - v'^2 / (u^2 v^2)  at (23,23)
        d = w^2 / (4 v^4) - v' w' / (u^2 v w)       at (24,24) and (34,34)
        e = -(v w' - w v') / (2 u v^3)              (12,34) = e, (13,24) = -e,
                                                    (14,23) = -2e

    placed symmetrically.  ``err`` is ``FORMULA_ULPS`` times the largest sum of
    the sizes of an entry's terms.  One pass of the profiles gives the jets of the
    sweep; the entries are formed orbit by orbit.
    """
    return [*map(_entries, *m.jets(radii))]


def _entries(*points) -> tuple[tuple[float, ...], float]:
    """:func:`orbit_entries` of one orbit, from its points of the jets of u, v and w."""
    (u0, u1, _), (v0, v1, v2), (w0, w1, w2) = points
    uu, vv = u0 * u0, v0 * v0
    y, z = w0 / vv, v1 / (u0 * v0)
    terms = (
        (-v2 / (uu * v0), u1 * v1 / (uu * u0 * v0)),
        (-w2 / (uu * w0), u1 * w1 / (uu * u0 * w0)),
        (1.0 / vv, -0.75 * (y * y), -(z * z)),
        (0.25 * (y * y), -v1 * w1 / (uu * v0 * w0)),
        (-w1 / (u0 * vv), w0 * v1 / (u0 * vv * v0)),  # 2e
    )
    a, b, c, d, e2 = map(sum, terms)
    err = FORMULA_ULPS * max(sum(map(abs, t)) for t in terms)
    return (a, b, c, d, 0.5 * e2), err


class OrbitSpectra(NamedTuple):
    """The SD/ASD blocks of an orbit's closed-form operator, which are diagonal:
    ``A = diag(p, p, p3)``, ``B = diag(beta, beta, beta3)`` and ``C = diag(m, m,
    m3)`` with, in the entries a to e of :func:`orbit_entries`,

        p = (a + d)/2 + e,  p3 = (b + c)/2 - 2e,  beta = (a - d)/2,
        m = (a + d)/2 - e,  m3 = (b + c)/2 + 2e,  beta3 = (b - c)/2;

    s = 4 (a + d) + 2 (b + c), and ``err``, the entries' roundoff bound.  The
    Weyl halves are ``W+ = diag(alpha, alpha, -2 alpha)`` and ``W- = diag(gamma,
    gamma, -2 gamma)``, and the Ricci block is B.
    """

    A: tuple[float, float, float]
    B: tuple[float, float, float]
    C: tuple[float, float, float]
    s: float
    err: float

    @property
    def alpha(self) -> float:
        return self.A[0] - self.s / 12.0

    @property
    def gamma(self) -> float:
        return self.C[0] - self.s / 12.0

    @property
    def residual(self) -> float:  # the Einstein residual |B| / max(1, |s|)
        return math.hypot(self.B[0], self.B[1], self.B[2]) / max(1.0, abs(self.s))

    @property
    def defect(self) -> float:  # |s|/sqrt(6) - (|W+| + |W-|), and |W+| = sqrt(6) |alpha|
        return abs(self.s) / _SQRT6 - _SQRT6 * (abs(self.alpha) + abs(self.gamma))

    def min_plane(self) -> tuple[int, int, float]:
        """``(i, j, q)`` of an Einstein orbit: ``e_i`` of a least eigenvalue of W+,
        the first on a tie, ``e_j`` of W-, and ``q = A_ii + C_jj + 2 B_ij``, twice the
        least sectional curvature, of their plane; or :class:`NotEinsteinError`
        unless the residual is within ``max(CLASSIFY_TOL, 20 err)``."""
        if not (r := self.residual) <= max(CLASSIFY_TOL, 20.0 * self.err):
            raise NotEinsteinError(f"needs an Einstein operator; residual {r:.3e}", residual=r)
        i = 0 if self.alpha <= 0.0 else 2
        j = 0 if self.gamma <= 0.0 else 2
        return i, j, self.A[i] + self.C[j] + (2.0 * self.B[i] if i == j else 0.0)


def orbit_spectra(m: CohomOneMetric, radii: Sequence[float]) -> list[OrbitSpectra]:
    """The :class:`OrbitSpectra` of the orbit through each radius."""
    return [_spectra(entries, err) for entries, err in orbit_entries(m, radii)]


def _spectra(entries: tuple[float, ...], err: float) -> OrbitSpectra:
    a, b, c, d, e = entries
    ad, bc = a + d, b + c
    p, pm, p3, m3 = 0.5 * ad + e, 0.5 * ad - e, 0.5 * bc - 2.0 * e, 0.5 * bc + 2.0 * e
    beta, beta3 = 0.5 * (a - d), 0.5 * (b - c)
    return OrbitSpectra((p, p, p3), (beta, beta, beta3), (pm, pm, m3),
                        4.0 * ad + 2.0 * bc, err)


class EinsteinCheck(NamedTuple):
    max_residual: float
    lambda_: float
    lambda_spread: float
    radii: tuple[float, ...]
    residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "maxResidual": self.max_residual,
            "lambda": self.lambda_,
            "lambdaSpread": self.lambda_spread,
            "radii": list(self.radii),
            "residuals": list(self.residuals),
        }


def verify_einstein(m: CohomOneMetric, radii: Sequence[float]) -> EinsteinCheck:
    """Einstein residual of the metric at the given radii.

    Reads one closed-form orbit per radius (the metric is orbit-homogeneous),
    all from one :func:`orbit_spectra` pass, and returns the worst Einstein
    residual and the fitted cosmological constant s/4, whose relative spread
    across radii must stay small for a genuinely Einstein profile.
    """
    orbits = orbit_spectra(m, radii)
    residuals = [o.residual for o in orbits]
    lambdas = [o.s / 4.0 for o in orbits]
    lam = math.fsum(lambdas) / len(lambdas)
    spread = (max(lambdas) - min(lambdas)) / max(1.0, abs(lam))
    return EinsteinCheck(
        max_residual=max(residuals),
        lambda_=lam,
        lambda_spread=spread,
        radii=tuple(float(r) for r in radii),
        residuals=tuple(residuals),
    )


class NegativeCurvatureReport(NamedTuple):
    min_sec: float
    witness_radius: float
    witness: dict  # the witness plane's report, jsonio.witness_dict
    gl_defect_range: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "minSec": self.min_sec,
            "witnessRadius": self.witness_radius,
            "witness": self.witness,
            "glDefectRange": list(self.gl_defect_range),
        }


def certify_negative_curvature(m: CohomOneMetric,
                               radii: Sequence[float] | None = None) -> NegativeCurvatureReport:
    """Certified minimum of sectional curvature over a radial sweep.

    Each orbit's least sectional curvature is that of its
    :meth:`OrbitSpectra.min_plane`, which refuses an orbit that is not
    Einstein within its own roundoff bound.  Orbits whose minimum lies
    within their own error bound of the smallest one tie, since roundoff
    alone orders them (the mirror orbits r and pi - r are isometric): the
    report takes ``min_sec``, the radius and the witness from the smallest
    tied radius.  The saturation defect of the pointwise Weyl bound is
    reported alongside but never asserted: the sign guarantee does not apply
    when sectional curvature is indefinite.
    """
    if radii is None:
        radii = chebyshev_radii(64)
    orbits = orbit_spectra(m, radii)
    planes = [o.min_plane() for o in orbits]
    least = min(q for _, _, q in planes) / 2.0
    _, k = min((r, k) for k, (r, o, (_, _, q)) in enumerate(zip(radii, orbits, planes))
               if q / 2.0 - least <= o.err)
    i, j, q = planes[k]
    defects = [o.defect for o in orbits]
    return NegativeCurvatureReport(
        min_sec=q / 2.0,
        witness_radius=float(radii[k]),
        witness=witness_dict([float(n == i) for n in range(3)], [float(n == j) for n in range(3)],
                             q),
        gl_defect_range=(min(defects), max(defects)),
    )


class CharNumbers(NamedTuple):
    chi: float
    tau: float

    def to_dict(self) -> dict:
        return {"chi": self.chi, "tau": self.tau}


def transgression(m: CohomOneMetric, radii: Sequence[float]) -> list[tuple[float, float]]:
    """``(Phi_chi, Phi_tau)`` at each radius: with P = v'/u, Q = w'/u and x = w/v,

        Phi_chi = Q (-2 + 3 x^2 / 2 + 2 P^2) - x^3 P
        Phi_tau = x^2 - x^4 / 2 - (Q - x P)^2,

    whose radial derivatives are ``u v^2 w`` times ``|A|^2 + |C|^2 - 2 |B|^2`` (8 pi^2
    times the Euler density) and ``|A|^2 - |C|^2`` (12 pi^2 times the signature
    density) in the blocks of :class:`OrbitSpectra`."""
    return [*map(_phi, *m.jets(radii))]


def _phi(*points) -> tuple[float, float]:
    (u, _, _), (v, v1, _), (w, w1, _) = points
    P, Q, x = v1 / u, w1 / u, w / v
    xx, y = x * x, Q - x * P
    return Q * (-2.0 + 1.5 * xx + 2.0 * P * P) - xx * x * P, xx - 0.5 * xx * xx - y * y


def integrate_char_numbers(m: CohomOneMetric) -> CharNumbers:
    """Euler characteristic and signature, the integrals of the densities against
    the orbit volume 16 pi^2 u v^2 w, as the bolt terms ``chi = 2 [Phi_chi]`` and
    ``tau = (4/3) [Phi_tau]`` of the :func:`transgression` forms over (0, pi).  At
    a bolt w = 0 and v' = 0, so ``Phi_chi = -2 Q`` and ``Phi_tau = -Q^2``.  At a
    nut (v = w = 0, as on the round sphere) x = 0/0 raises ZeroDivisionError."""
    (chi0, tau0), (chi1, tau1) = transgression(m, (0.0, math.pi))
    return CharNumbers(chi=2.0 * (chi1 - chi0), tau=4.0 * (tau1 - tau0) / 3.0)
