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

Each answer evaluates one sweep of orbits with :func:`orbit_curvature` and
reads the arrays of the :class:`numgeom.CurvatureStack` it returns: the
decomposition of a whole sweep is one :func:`curvops.decompositions`, and
per-orbit objects are built only for the public functions that take them.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import curvops, numgeom, secsign
from .errors import NonConvergentError

PAGE_LAMBDA = 3.0
ENDPOINT_DELTA = 1e-5  # radial distance from each end sampled by endpoint_data
RADIAL_MARGIN = 0.02  # fraction of the radial interval a Chebyshev sweep skips at each end
ORBIT_STEP = 0.004  # the finite-difference step of an orbit point away from the ends
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

    def endpoint_data(self) -> tuple[EndpointData, EndpointData]:
        """v and the proper slope of w at distance ENDPOINT_DELTA inside each end."""
        delta = ENDPOINT_DELTA
        out = []
        for r0, sign in ((0.0, 1.0), (math.pi, -1.0)):
            r = r0 + sign * delta
            proper = abs(self.u(r0 + sign * delta / 2.0)) * delta
            out.append(EndpointData(
                v_limit=float(self.v(r)),
                w_slope_proper=float(self.w(r) / proper),
            ))
        return out[0], out[1]

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
    the worst residual max|Ric - (s/4) g| / max(1, |s|) and the fitted
    cosmological constant, whose relative spread across radii must stay
    small for a genuinely Einstein profile.
    """
    stack = orbit_curvature(m, radii)
    residuals = stack.einstein_residual.tolist()
    lambdas = np.trace(stack.ricci, axis1=1, axis2=2) / 4.0
    lam = float(np.mean(lambdas))
    spread = float(np.max(lambdas) - np.min(lambdas)) / max(1.0, abs(lam))
    return EinsteinCheck(
        max_residual=float(np.max(residuals)),
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
    stack = orbit_curvature(m, radii)
    ds = curvops.decompositions(stack.sd_asd, stack.err)
    defects = [curvops.gl_defect(d).defect for d in ds]
    sec = secsign.einstein_min_sec(stack.sd_asd, ds)
    tied = np.flatnonzero(sec - sec.min() <= stack.err)
    k = tied[np.argmin(np.asarray(radii, dtype=float)[tied])]
    op = stack[k].operator
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
    """``(chi, tau)`` by the orbit quadrature at ``nodes`` nodes, with the
    densities of one decomposed sweep of the nodes' orbits."""
    eps = 1e-3 * math.pi
    interval = (eps, math.pi - eps)
    radii = numgeom.quadrature_nodes(interval, nodes)
    stack = orbit_curvature(m, radii)
    densities = dict(zip(radii, map(curvops.char_densities,
                                    curvops.decompositions(stack.sd_asd, stack.err))))
    chi = numgeom.orbit_quadrature(
        lambda r: densities[r].euler_density, m.orbit_volume, interval, nodes)
    tau = numgeom.orbit_quadrature(
        lambda r: densities[r].signature_density, m.orbit_volume, interval, nodes)
    return chi, tau


def integrate_char_numbers(m: CohomOneMetric, nodes: int = 48) -> CharNumbers:
    """Euler characteristic and signature by orbit quadrature.

    Integrates the pointwise characteristic densities against the orbit
    volume 16 pi^2 u v^2 w over the end-clamped radial interval, at the
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
