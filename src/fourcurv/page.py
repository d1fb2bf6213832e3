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

Transcription of these functions is NOT trusted: it is certified a
posteriori by the Einstein-residual oracle (:func:`verify_einstein`), which
detects any error in the profile functions at far-above-tolerance levels.

Two evaluators give the curvature of the orbit through a radius, in the
frame e1 = u dr, e2 = v s1, e3 = v s2, e4 = w s3, at the chart point
(r, pi/2, 0, 0):

- :func:`orbit_curvature`, finite differences of the coordinate chart
  (:mod:`numgeom`).  Only :func:`verify_einstein` uses it: it is the
  independent oracle that certifies the transcription of u, v and w.
- :func:`orbit_operators`, the closed form of the curvature of the
  SU(2)-invariant ansatz (Page, Phys. Lett. B 79 (1978) 235; Eguchi, Gilkey
  and Hanson, Phys. Rep. 66 (1980) 213) in u, u', v, v', v'', w, w' and w'',
  read from the profiles' radial 2-jets (:class:`Jet`).
  :func:`certify_negative_curvature` and :func:`integrate_char_numbers` use
  it, and :meth:`CohomOneMetric.endpoint_data` reads the exact limits at
  the bolts from the same jets.

Each answer evaluates one sweep of orbits and reads its stacked arrays: the
decomposition of a whole sweep is one :func:`curvops.decompositions`, and
per-orbit objects are built only for the public functions that take them.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import curvops, numgeom, secsign
from .errors import NonConvergentError

PAGE_LAMBDA = 3.0
RADIAL_MARGIN = 0.02  # fraction of the radial interval a Chebyshev sweep skips at each end
ORBIT_STEP = 0.004  # the finite-difference step of an orbit point away from the ends
# roundoff of a closed-form operator entry, in units of the sum of its terms' sizes:
# each term is a product of at most 6 jet values formed in at most 5 roundings, and an
# entry adds at most 3 terms, so 64 eps covers the formulas' own roundings with a
# relative error of up to 9 ulps in each jet value (6 * 9 + 5 + 2 = 61).  A jet value
# near a zero of the profile's derivative can be further off relative to itself, which
# this budget does not bound; the tests check the total.
FORMULA_ULPS = 64.0 * np.finfo(float).eps
# coefficients of the shape-parameter quartic, highest degree first
PAGE_SHAPE_QUARTIC = (1.0, 4.0, -6.0, 12.0, -3.0)


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


class Jet:
    """A radial 2-jet ``(f, f', f'')`` in forward mode (Griewank and Walther,
    *Evaluating Derivatives*, 2nd ed., ch. 13), so that the profile functions
    run as written: ``+ - * /`` with numbers, arrays or jets, integer powers,
    and numpy's ``sqrt``, ``sin`` and ``cos``.  A number is a constant jet."""

    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f, self.d1, self.d2 = f, d1, d2

    def __iter__(self):
        return iter((self.f, self.d1, self.d2))

    def __add__(self, other):
        o = _lift(other)
        return Jet(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + -_lift(other)

    def __rsub__(self, other):
        return _lift(other) + -self

    def __mul__(self, other):
        o = _lift(other)
        return Jet(self.f * o.f, self.d1 * o.f + self.f * o.d1,
                   self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other)
        q = self.f / o.f
        q1 = (self.d1 - q * o.d1) / o.f
        return Jet(q, q1, (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.f)

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1.0 / self ** -n
        out = Jet(1.0)
        for _ in range(n):
            out = out * self
        return out

    def sqrt(self):
        s = np.sqrt(self.f)
        s1 = self.d1 / (2.0 * s)
        return Jet(s, s1, (self.d2 - 2.0 * s1 * s1) / (2.0 * s))

    def sin(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return Jet(s, c * self.d1, c * self.d2 - s * self.d1 * self.d1)

    def cos(self):
        s, c = np.sin(self.f), np.cos(self.f)
        return Jet(c, -s * self.d1, -s * self.d2 - c * self.d1 * self.d1)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # numpy hands over its ufuncs on a jet, and its binary operators with a jet
        op = _JET_UFUNCS.get(ufunc.__name__)
        if method != "__call__" or kwargs or op is None:
            return NotImplemented
        return op(*map(_lift, inputs))


def _lift(x) -> Jet:
    return x if isinstance(x, Jet) else Jet(x)


_JET_UFUNCS = {"add": operator.add, "subtract": operator.sub, "multiply": operator.mul,
               "true_divide": operator.truediv, "negative": operator.neg,
               "sqrt": Jet.sqrt, "sin": Jet.sin, "cos": Jet.cos}


class EndpointData(NamedTuple):
    """Numeric smooth-closure data at one end of the radial interval."""

    v_limit: float
    w_slope_proper: float

    def to_dict(self) -> dict:
        return {"vLimit": self.v_limit, "wSlopeProper": self.w_slope_proper}


class CohomOneMetric(NamedTuple):
    """A cohomogeneity-one metric through its radial profile functions of the
    angle r in (0, pi).

    The profiles are elementwise: each maps a radius or an array of radii to
    values of the same shape, so the chart evaluates stacks of points.
    """

    u: Callable[[float], float]
    v: Callable[[float], float]
    w: Callable[[float], float]
    metadata: dict

    @property
    def chart(self) -> numgeom.MetricChart:
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

    def jets(self, radii) -> tuple[Jet, Jet, Jet]:
        """The radial 2-jets of u, v and w at the radii."""
        r = Jet(np.asarray(radii, dtype=float), 1.0)
        return _lift(self.u(r)), _lift(self.v(r)), _lift(self.w(r))

    def endpoint_data(self) -> tuple[EndpointData, EndpointData]:
        """v and the proper slope of w, w' / u toward the interior, at each end."""
        u, v, w = self.jets([0.0, math.pi])
        u, v, w1 = np.broadcast_arrays(u.f, v.f, w.d1)
        return (EndpointData(v_limit=float(v[0]), w_slope_proper=float(w1[0] / u[0])),
                EndpointData(v_limit=float(v[1]), w_slope_proper=float(-w1[1] / u[1])))

    def orbit_volume(self, r: float) -> float:
        """Riemannian volume of the orbit at radius r (psi period 4*pi)."""
        return 16.0 * math.pi**2 * self.u(r) * self.v(r) ** 2 * self.w(r)


def page_metric() -> CohomOneMetric:
    """The Page metric, normalized to cosmological constant 3."""
    k = page_shape_parameter()
    k2 = k * k
    T = 1.0 + k2
    W = 3.0 + 6.0 * k2 - k2 * k2
    sqT = math.sqrt(T)

    def q_of(r):
        x = -np.cos(r)
        return 1.0 - k2 * x * x

    def U_of(r):
        x = -np.cos(r)
        return 3.0 - k2 - k2 * (1.0 + k2) * x * x

    def u(r):
        return np.sqrt(T * q_of(r) / U_of(r))

    def v(r):
        return np.sqrt(T * q_of(r) / W)

    def w(r):
        return (2.0 * k * sqT / W) * np.sin(r) * np.sqrt(U_of(r) / q_of(r))

    return CohomOneMetric(u=u, v=v, w=w, metadata={"lambda": PAGE_LAMBDA, "shapeParameter": k})


def sphere_ansatz() -> CohomOneMetric:
    """The unit round 4-sphere written in the same cohomogeneity-one ansatz."""

    def u(r):
        return 1.0

    def v(r):
        return np.sin(r) / 2.0

    return CohomOneMetric(u=u, v=v, w=v, metadata={"lambda": 3.0})


def chebyshev_radii(n: int) -> list[float]:
    """n Chebyshev-distributed radii on (0, pi) clamped by RADIAL_MARGIN."""
    lo = RADIAL_MARGIN * math.pi
    hi = (1.0 - RADIAL_MARGIN) * math.pi
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + half * math.cos(math.pi * (2 * j + 1) / (2 * n)) for j in range(n)]


def orbit_curvature(m: CohomOneMetric, radii):
    """Frame curvature of the orbits through the given radii, one point per
    orbit: a single radius gives one PointCurvature, a sequence a
    :class:`numgeom.CurvatureStack`."""
    r = np.asarray(radii, dtype=float)
    step = np.minimum(ORBIT_STEP, 0.4 * np.minimum(r, math.pi - r))
    # th = pi/2 keeps clear of the Euler-angle degeneracy at th in {0, pi}
    points = np.stack(np.broadcast_arrays(r, np.pi / 2.0, 0.0, 0.0), axis=-1)
    return numgeom.curvature_at(m.chart, points, step=step)


def orbit_operators(m: CohomOneMetric, radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(M, S, err)``: the closed-form curvature operators ``M`` ``(n, 6, 6)`` of
    the orbits through the n radii, in the coordinate basis of the frame e1 = u dr,
    e2 = v s1, e3 = v s2, e4 = w s3, their SD/ASD matrices ``S`` from
    :func:`curvops.check_admissible` and their roundoff bounds ``err``.

    With the 2-jets of u, v and w, the nonzero entries in the basis (e1^e2,
    e1^e3, e1^e4, e2^e3, e2^e4, e3^e4) are

        a = -(u v'' - u' v') / (u^3 v)              at (12,12) and (13,13)
        b = -(u w'' - u' w') / (u^3 w)              at (14,14)
        c = 1/v^2 - 3 w^2 / (4 v^4) - v'^2 / (u^2 v^2)  at (23,23)
        d = w^2 / (4 v^4) - v' w' / (u^2 v w)       at (24,24) and (34,34)
        e = -(v w' - w v') / (2 u v^3)              (12,34) = e, (13,24) = -e,
                                                    (14,23) = -2e

    placed symmetrically.  ``err`` is ``FORMULA_ULPS`` times the largest sum of
    the sizes of an entry's terms.
    """
    shape = np.shape(radii)
    (u0, u1, _), (v0, v1, v2), (w0, w1, w2) = m.jets(radii)
    uu, vv = u0 * u0, v0 * v0
    terms = (
        (-v2 / (uu * v0), u1 * v1 / (uu * u0 * v0)),
        (-w2 / (uu * w0), u1 * w1 / (uu * u0 * w0)),
        (1.0 / vv, -0.75 * (w0 / vv) ** 2, -(v1 / (u0 * v0)) ** 2),
        (0.25 * (w0 / vv) ** 2, -v1 * w1 / (uu * v0 * w0)),
        (-w1 / (u0 * vv), w0 * v1 / (u0 * vv * v0)),  # 2e
    )
    a, b, c, d, e2 = (np.broadcast_to(sum(t), shape) for t in terms)
    e = 0.5 * e2
    M = np.zeros(shape + (6, 6))
    M[..., 0, 0] = M[..., 1, 1] = a
    M[..., 2, 2] = b
    M[..., 3, 3] = c
    M[..., 4, 4] = M[..., 5, 5] = d
    M[..., 0, 5] = M[..., 5, 0] = e
    M[..., 1, 4] = M[..., 4, 1] = -e
    M[..., 2, 3] = M[..., 3, 2] = -e2
    err = FORMULA_ULPS * np.broadcast_to(np.max([sum(map(np.abs, t)) for t in terms], axis=0),
                                         shape)
    return M, curvops.check_admissible(M, curvops.COORDINATE, err), err


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

    Samples one point per orbit (the metric is orbit-homogeneous), returns
    the worst residual of the orbits' decompositions and the fitted
    cosmological constant s/4, whose relative spread across radii must stay
    small for a genuinely Einstein profile.
    """
    stack = orbit_curvature(m, radii)
    ds = curvops.decompositions(stack.sd_asd, stack.err)
    residuals = [d.einstein_residual() for d in ds]
    lambdas = [d.einstein_constant for d in ds]
    lam = float(np.mean(lambdas))
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
    witness: secsign.PlaneWitness
    gl_defect_range: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "minSec": self.min_sec,
            "witnessRadius": self.witness_radius,
            "witness": self.witness.to_dict(),
            "glDefectRange": list(self.gl_defect_range),
        }


def certify_negative_curvature(m: CohomOneMetric,
                               radii: Sequence[float] | None = None) -> NegativeCurvatureReport:
    """Certified minimum of sectional curvature over a radial sweep.

    Takes each orbit's minimum from :func:`secsign.einstein_min_sec` over the
    whole sweep and returns the global minimum with the witnessing 2-plane of
    :func:`secsign.einstein_extreme_witnesses` on that orbit, which gives the
    same minimum bit for bit.  Orbits whose minimum lies
    within their own error estimate of the smallest one tie, since roundoff
    alone orders them (the mirror orbits r and pi - r are isometric): the
    report takes ``min_sec``, the radius and the witness from the smallest
    tied radius.  The saturation defect of the pointwise Weyl bound is
    reported alongside but never asserted: the sign guarantee does not apply
    when sectional curvature is indefinite.
    """
    if radii is None:
        radii = chebyshev_radii(64)
    M, S, err = orbit_operators(m, radii)
    ds = curvops.decompositions(S, err)
    defects = [curvops.gl_defect(d).defect for d in ds]
    sec = secsign.einstein_min_sec(S, ds)
    tied = np.flatnonzero(sec - sec.min() <= err)
    k = tied[np.argmin(np.asarray(radii, dtype=float)[tied])]
    op = curvops.CurvatureOperator(M[k], err=float(err[k]))
    witness, _ = secsign.einstein_extreme_witnesses(op, curvops.decompose(op))
    return NegativeCurvatureReport(
        min_sec=witness.sec_value,
        witness_radius=float(radii[k]),
        witness=witness,
        gl_defect_range=(min(defects), max(defects)),
    )


class CharNumbers(NamedTuple):
    chi: float
    tau: float
    nodes: int
    doubling_delta: float

    def to_dict(self) -> dict:
        return {
            "chi": self.chi,
            "tau": self.tau,
            "nodes": self.nodes,
            "doublingDelta": self.doubling_delta,
        }


def _char_integrals(m: CohomOneMetric, nodes: int) -> tuple[float, float]:
    """``(chi, tau)`` by the orbit quadrature on (0, pi) at ``nodes`` nodes, with
    the densities of one decomposed closed-form sweep of the nodes' orbits."""
    interval = (0.0, math.pi)
    radii = numgeom.quadrature_nodes(interval, nodes)
    _, S, err = orbit_operators(m, radii)
    densities = dict(zip(radii, map(curvops.char_densities, curvops.decompositions(S, err))))
    chi = numgeom.orbit_quadrature(
        lambda r: densities[r].euler_density, m.orbit_volume, interval, nodes)
    tau = numgeom.orbit_quadrature(
        lambda r: densities[r].signature_density, m.orbit_volume, interval, nodes)
    return chi, tau


def integrate_char_numbers(m: CohomOneMetric, nodes: int = 48) -> CharNumbers:
    """Euler characteristic and signature by orbit quadrature.

    Integrates the pointwise characteristic densities against the orbit
    volume 16 pi^2 u v^2 w over the whole radial interval, at the
    requested node count and at twice that count; raises
    :class:`NonConvergentError` when doubling moves either result by more
    than 1e-3.
    """
    chi1, tau1 = _char_integrals(m, nodes)
    chi2, tau2 = _char_integrals(m, 2 * nodes)
    delta = max(abs(chi2 - chi1), abs(tau2 - tau1))
    if delta > 1e-3:
        raise NonConvergentError(
            f"node doubling moved the integrals by {delta:.3e} (> 1e-3)")
    return CharNumbers(chi=chi2, tau=tau2, nodes=2 * nodes, doubling_delta=delta)
