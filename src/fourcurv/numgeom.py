"""Curvature of coordinate metric charts by high-order finite differences.

A chart evaluates its metric on stacks of points: ``metric_at`` maps an
array of shape ``(..., 4)`` to one of shape ``(..., 4, 4)``.  Christoffel
symbols and the Riemann tensor are assembled from 4th-order
central-difference derivatives of the metric; the curvature is re-expressed
in the orthonormal frame obtained by Gram-Schmidt on the coordinate vectors
(equivalently, the inverse-transpose Cholesky factor, which preserves the
coordinate orientation) and packed into the 6x6 operator convention of
:mod:`fourcurv.curvops`.  Each evaluation is done at steps h and h/2; the
emitted operator is the h/2 evaluation and the error estimate comes from the
Richardson comparison of the pair plus the roundoff the stencil amplifies.
Only these two need finite differences, so they are all this module computes:
a point's Ricci tensor, s and Einstein residual come from :mod:`curvops`.

Both :func:`curvature_at` and :func:`convergence_study` (one point at a list
of steps) go through ``_blocks``, which checks the points and steps once and
processes them in blocks of at most ``BLOCK`` points: the stencil points of
both steps of a whole block go through one ``metric_at`` call and one
stacked Cholesky factorisation (the positive-definiteness check), and the
tensor algebra carries a leading batch axis.  Only the stencil points
that move along coordinates the chart's metric depends on are evaluated
(all 113 by default, 25 for a cohomogeneity-one chart); every other point
takes the metric of the point with those offsets zeroed, which is the same
value bit for bit.  All arithmetic is elementwise or per matrix, so a
point's result does not depend on the block it is computed in.

A stack of points gives a :class:`CurvatureStack`: the operators, error
bounds and steps stay stacked arrays, each block's operators are checked at
once by :func:`curvops.check_admissible`, the same rule a
:class:`CurvatureOperator` applies to its one matrix, and a
:class:`PointCurvature` is built only for an item that is read.

Also provides Gauss-Legendre quadrature for the 1-D orbit integrals of
cohomogeneity-one metrics.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curvops import (COORDINATE, PAIRS, CurvatureOperator, Record, _readonly, _set,
                      check_admissible, decompose, frame_ricci, not_finite_error)
from .errors import (
    BadIntervalError,
    NotAdmissibleError,
    OutsideDomainError,
    SingularMetricError,
    StepTooLargeError,
)

BLOCK = 16  # points per metric_at call: 16 x 2 steps x 113 stencil points
DEFAULT_STEP = 0.01  # the step of curvature_at when none is given

# offsets of the 4th-order central stencils (see _difference)
_OFF1 = (-2, -1, 1, 2)
_MIXED = tuple(itertools.combinations(range(4), 2))
# stencil offsets in units of the step: the centre, 4 points on each axis,
# then 16 points on each coordinate plane
_STENCIL = np.array(
    [[0, 0, 0, 0]]
    + [[off * (k == m) for k in range(4)] for m in range(4) for off in _OFF1]
    + [[om * (k == m) + on * (k == n) for k in range(4)]
       for m, n in _MIXED for om in _OFF1 for on in _OFF1],
    dtype=float,
)
_ROW = np.array([i for i, _ in PAIRS])
_COL = np.array([j for _, j in PAIRS])
# roundoff of one metric value, in units of its own size: the evaluation
# error (a few ulps of a closed-form expression) with a safety factor
_METRIC_ULPS = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class MetricChart:
    """A coordinate box with a stacked metric evaluation.

    ``metric_at`` must be a pure, elementwise function of the coordinates:
    it maps points of shape ``(..., 4)`` to symmetric positive-definite
    matrices of shape ``(..., 4, 4)`` (checked by Cholesky at every
    evaluated stencil point).

    ``depends_on`` lists the coordinates the metric can vary along; the
    default ``(0, 1, 2, 3)`` declares all four.  The metric must be bitwise
    unchanged when an undeclared coordinate moves, because the stencil
    points that differ from another one only along undeclared coordinates
    are not evaluated but copied from it.  The step is not the chart's:
    :func:`curvature_at` takes it per call.
    """

    domain: tuple[tuple[float, float], ...]
    metric_at: Callable[[np.ndarray], np.ndarray]
    depends_on: tuple[int, ...] = (0, 1, 2, 3)

    def margin_of(self, points) -> np.ndarray:
        """Distance of each point of a ``(..., 4)`` stack to the box boundary
        (negative outside, NaN for NaN coordinates)."""
        lo, hi = np.array(self.domain, dtype=float).T
        x = np.asarray(points, dtype=float)
        return np.minimum(x - lo, hi - x).min(axis=-1)


class PointCurvature(Record):
    """Frame curvature data at a chart point: the operator, which carries the
    error bound as its ``err``, and the finite-difference step it was taken
    at.  Its report adds the operator's Ricci tensor and Einstein residual."""

    __slots__ = ("operator", "step_used")

    def __init__(self, operator: CurvatureOperator, step_used: float):
        _set(self, "operator", operator)
        _set(self, "step_used", step_used)

    @property
    def error_estimate(self) -> float:
        """The bound on the operator's error, which the operator carries as ``err``."""
        return self.operator.err

    def to_dict(self) -> dict:
        return {
            "operator": self.operator.to_dict(),
            "ricci": frame_ricci(self.operator).tolist(),
            "einsteinResidual": decompose(self.operator).einstein_residual(),
            "stepUsed": self.step_used,
            "errorEstimate": self.error_estimate,
        }


class CurvatureStack(Record, Sequence):
    """The frame curvature at n points, as arrays with a leading axis of n: the
    coordinate-basis ``operators`` and their ``sd_asd`` matrices ``(n, 6, 6)``,
    which :func:`curvops.check_admissible` has passed with the error bounds
    ``err``, and ``step_used``, shape ``(n,)``.

    Item k is the :class:`PointCurvature` of point k, built when it is read.
    """

    __slots__ = ("operators", "sd_asd", "err", "step_used")

    def __init__(self, operators: np.ndarray, sd_asd: np.ndarray, err: np.ndarray,
                 step_used: np.ndarray):
        for name, value in zip(self.__slots__, (operators, sd_asd, err, step_used)):
            _set(self, name, value)

    def __len__(self) -> int:
        return len(self.err)

    def __getitem__(self, k: int) -> PointCurvature:
        op = CurvatureOperator(self.operators[k], basis=COORDINATE, err=float(self.err[k]))
        return PointCurvature(op, float(self.step_used[k]))


@functools.lru_cache(maxsize=16)
def _reduced_stencil(depends_on: tuple[int, ...]):
    """(kept, source): the stencil points that move only along the declared
    coordinates, and for every stencil point the position in ``kept`` of the
    point with its other offsets zeroed (the centre, an axis point or
    itself)."""
    reduced = _STENCIL * np.isin(np.arange(4), depends_on)
    index = {tuple(p): q for q, p in enumerate(_STENCIL.tolist())}
    kept, source = np.unique([index[tuple(p)] for p in reduced.tolist()],
                             return_inverse=True)
    kept.setflags(write=False)
    source.setflags(write=False)
    return kept, source


def _stencil_metrics(chart: MetricChart, x: np.ndarray, H: np.ndarray):
    """Metric G[b, t, p] at stencil point p of step H[b, t] around x[b], and
    the Cholesky factors of its symmetric part at the evaluated points, the
    centre first."""
    kept, source = _reduced_stencil(tuple(chart.depends_on))
    points = x[:, None, None, :] + _STENCIL[kept] * H[:, :, None, None]
    G = np.asarray(chart.metric_at(points), dtype=float)
    if G.shape != points.shape[:-1] + (4, 4):
        raise SingularMetricError("metric evaluation must map (..., 4) points to (..., 4, 4)")
    with np.errstate(over="ignore"):  # the operator then is not finite and refused
        S = 0.5 * (G + np.swapaxes(G, -1, -2))
    try:
        return G[:, :, source], np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        for p, s in zip(points.reshape(-1, 4), S.reshape(-1, 4, 4)):
            try:
                np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                raise SingularMetricError(
                    f"metric not positive-definite at {p.tolist()}") from None
        raise


def _difference(f: np.ndarray) -> np.ndarray:
    """12 h times the first derivative, ``8 (f[+1] - f[-1]) + (f[-2] - f[+2])``, of
    values ``f[..., offset, i, j]`` at _OFF1: constant data cancel exactly."""
    return 8.0 * (f[..., 2, :, :] - f[..., 1, :, :]) + (f[..., 0, :, :] - f[..., 3, :, :])


def _metric_derivatives(G: np.ndarray, h: np.ndarray):
    """g, dg[..., m, i, j] = d_m g_ij and d2g[..., m, n, i, j] from the
    stencil values G[..., p, i, j] at steps h[...], each stencil pairing its
    values of equal coefficient first, so that constant data cancel exactly."""
    g = G[..., 0, :, :]
    axis = G[..., 1:17, :, :].reshape(G.shape[:-3] + (4, 4, 4, 4))  # [m, offset]
    plane = G[..., 17:, :, :].reshape(G.shape[:-3] + (6, 4, 4, 4, 4))  # [(m, n), om, on]
    h = h[..., None, None, None]
    dg = _difference(axis) / (12.0 * h)
    d2g = np.empty(g.shape[:-2] + (4, 4, 4, 4))
    diag = np.arange(4)
    d2g[..., diag, diag, :, :] = (
        16.0 * (axis[..., 1, :, :] + axis[..., 2, :, :])
        - (axis[..., 0, :, :] + axis[..., 3, :, :]) - 30.0 * g[..., None, :, :]
    ) / (12.0 * h * h)
    mixed = _difference(_difference(plane)) / (144.0 * h * h)  # along n, then along m
    m, n = np.array(_MIXED).T
    d2g[..., m, n, :, :] = mixed
    d2g[..., n, m, :, :] = mixed
    return g, dg, d2g


def _frame_curvature(g, dg, d2g, L, h):
    """(operator [..., 6, 6], roundoff [...]) from the metric 2-jet at steps
    h[...], with L the Cholesky factor of g.

    Tensors are stacks of 4x4 matrices, so every contraction is a stacked
    matmul: dg[m] = d_m g, d2g[m, n] = d_m d_n g.
    """
    # Gram-Schmidt frame on coordinate vectors = inverse-transpose Cholesky;
    # det F = 1/sqrt(det g) > 0, so coordinate orientation is preserved.
    F = np.swapaxes(np.linalg.inv(L), -1, -2)
    ginv = (F @ np.swapaxes(F, -1, -2))[..., None, :, :]
    # dgS[i][l, j] = d_i g_lj + d_j g_li - d_l g_ij, and Gam[i][k, j] = Gam^k_ij
    dgS = dg + np.swapaxes(dg, -3, -1) - np.swapaxes(dg, -3, -2)
    Gam = 0.5 * (ginv @ dgS)
    d2gS = d2g + np.swapaxes(d2g, -3, -1) - np.swapaxes(d2g, -3, -2)
    # dGam[m, i][k, j] = d_m Gam^k_ij
    dginv = -(ginv @ dg @ ginv)
    dGam = 0.5 * (dginv[..., :, None, :, :] @ dgS[..., None, :, :, :]
                  + ginv[..., None, :, :, :] @ d2gS)
    # R[m, n][r, s] = R^r_smn
    #   = d_m Gam^r_ns - d_n Gam^r_ms + Gam^r_ml Gam^l_ns - Gam^r_nl Gam^l_ms
    K = dGam + Gam[..., :, None, :, :] @ Gam[..., None, :, :, :]
    R = K - np.swapaxes(K, -4, -3)
    # op[p, q] = R_abcd F_ra F_sb F_mc F_nd summed, (a, b) and (c, d) the pairs
    # p and q: with P[(r, s), p] = F_r,a F_s,b it is P^T R_(rs),(mn) P
    Rl = (g[..., None, None, :, :] @ R).reshape(g.shape[:-2] + (16, 16))
    P = (F[..., :, None, _ROW] * F[..., None, :, _COL]).reshape(g.shape[:-2] + (16, 6))
    op = np.swapaxes(P, -1, -2) @ np.swapaxes(Rl, -1, -2) @ P
    # Roundoff: a relative noise u in each metric value moves a second
    # difference by at most (16/3) u |g_mn| / h^2, and the frame carries it
    # into R_abcd through |F|: with M = |F|^T |g| |F| and the column sums c
    # of |F|, |dR_abcd| <= (8/3) u / h^2 (M_ad c_b c_c + M_bc c_a c_d
    # + M_ac c_b c_d + M_bd c_a c_c).
    aF = np.abs(F)
    M = np.swapaxes(aF, -1, -2) @ np.abs(g) @ aF
    c = aF.sum(axis=-2)
    i, j, k, l = _ROW[:, None], _COL[:, None], _ROW, _COL
    ci, cj, ck, cl = c[..., i], c[..., j], c[..., None, k], c[..., None, l]
    amp = (M[..., i, l] * cj * ck + M[..., j, k] * ci * cl
           + M[..., i, k] * cj * cl + M[..., j, l] * ci * ck)
    roundoff = (8.0 / 3.0) * _METRIC_ULPS * amp.max(axis=(-2, -1)) / (h * h)
    return op, roundoff


def _operators(chart: MetricChart, x: np.ndarray, h: np.ndarray):
    """Operators [b, t] and roundoff [b, t] at the points x[b] for the steps
    (h[b], h[b]/2), t = 0, 1."""
    H = np.stack((h, h / 2.0), axis=-1)
    G, L = _stencil_metrics(chart, x, H)
    # metric entries near the float range can overflow the differences and
    # the frame contraction: what overflows is refused, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        ops, roundoff = _frame_curvature(*_metric_derivatives(G, H), L[..., 0, :, :], H)
    finite = np.isfinite(ops).all(axis=(-2, -1))
    if not finite.all():
        raise not_finite_error(ops[~finite][0])
    if not np.isfinite(roundoff).all():
        raise NotAdmissibleError("roundoff bound not finite")
    return ops, roundoff


def _blocks(chart: MetricChart, points, step):
    """``(h, ops, roundoff)`` of :func:`_operators` per block of at most
    ``BLOCK`` of the points, shape ``(4,)`` or ``(n, 4)``, once all are checked:
    each inside the chart, each step finite and positive with (step/2)^2, the
    stencil's divisor, a normal float, and each margin at least ``2 * step``."""
    x = np.asarray(points, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 4:
        raise OutsideDomainError("points must have 4 coordinates")
    xs = x.reshape(-1, 4)
    h = np.broadcast_to(np.asarray(DEFAULT_STEP if step is None else step, dtype=float),
                        xs.shape[:1])
    margin = chart.margin_of(xs)
    outside = ~(margin >= 0.0)
    if outside.any():
        raise OutsideDomainError(f"point {xs[outside][0].tolist()} outside chart domain")
    bad = ~((h > 0.0) & (h < np.inf))
    if bad.any():
        raise StepTooLargeError(f"step {float(h[bad][0])!r} is not finite and positive")
    tiny = h / 2.0 < np.sqrt(np.finfo(float).tiny)  # (h/2)^2 < tiny; squaring a huge h overflows
    if tiny.any():
        raise StepTooLargeError(
            f"step {float(h[tiny][0])!r} is too small: (step/2)^2 is below the smallest "
            "normal float")
    short = 0.5 * margin < h  # margin < 2 h; halving is exact, doubling a huge h overflows
    if short.any():
        raise StepTooLargeError(
            f"margin {margin[short][0]:.3e} is below the 2*step stencil requirement")
    for lo in range(0, len(xs), BLOCK):
        hb = h[lo:lo + BLOCK]
        yield (hb, *_operators(chart, xs[lo:lo + BLOCK], hb))


def curvature_at(chart: MetricChart, points, step=None):
    """Frame curvature operator of a chart at interior points.

    ``points`` is one point, shape ``(4,)``, which gives one
    :class:`PointCurvature`, or a stack of shape ``(n, 4)``, which gives a
    :class:`CurvatureStack` of n.  ``step`` is one step for all points or one
    per point (default ``DEFAULT_STEP``).  Evaluates the 4th-order stencil at
    steps ``h`` and ``h/2`` and emits the ``h/2`` result; ``error_estimate``
    bounds its error by the Richardson difference of the pair (with a safety
    factor of two), the roundoff of the metric values amplified by the stencil
    and the frame, and a machine-noise floor; the operator carries it as its
    ``err``.  The points and steps are checked as :func:`_blocks` says, and the
    operators of each block at once by :func:`curvops.check_admissible`, which
    refuses the first inadmissible one as its own constructor would.
    """
    parts = []
    for hb, ops, roundoff in _blocks(chart, points, step):
        op_h, op = ops[:, 0], ops[:, 1]
        scale = np.maximum(1.0, np.abs(op).max(axis=(1, 2)))
        err = 2.0 * np.abs(op_h - op).max(axis=(1, 2)) / 15.0 + roundoff[:, 1] + 1e-13 * scale
        parts.append((op, check_admissible(op, COORDINATE, err), err, hb / 2.0))
    empty = [np.empty((0, *shape)) for shape in ((6, 6), (6, 6), (), ())]
    stack = CurvatureStack(*(np.concatenate(arrays) for arrays in zip(empty, *parts)))
    return stack[0] if np.ndim(points) == 1 else stack


class ConvergenceStudy(NamedTuple):
    steps: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float | None  # None when errors sit at machine noise

    def to_dict(self) -> dict:
        return {
            "steps": list(self.steps),
            "errors": list(self.errors),
            "slope": self.slope if self.slope is not None else "NotApplicable",
        }


def convergence_study(chart: MetricChart, point, steps: Sequence[float]) -> ConvergenceStudy:
    """Operator error versus step against the finest-step Richardson limit.

    Requires at least three strictly decreasing steps; the point and every
    step are checked as for :func:`curvature_at`, and the operators at
    ``(h, h/2)`` are computed in the same blocks.  The reference is the
    Richardson extrapolation of the finest pair ``(h_min, h_min/2)``; the
    fitted log-log slope should sit near the stencil order (4) and is
    reported as None when every error is at machine-noise level.
    """
    steps = [float(s) for s in steps]
    if len(steps) < 3 or any(s2 >= s1 for s1, s2 in zip(steps, steps[1:])):
        raise BadIntervalError("need at least 3 strictly decreasing steps")
    xs = np.tile(np.asarray(point, dtype=float), (len(steps), 1))
    ops = np.concatenate([ops for _, ops, _ in _blocks(chart, xs, np.array(steps))])
    reference = (16.0 * ops[-1, 1] - ops[-1, 0]) / 15.0
    errors = [float(np.abs(op - reference).max()) for op in ops[:, 0]]
    slope = None
    if max(errors) > 1e-12 * max(1.0, float(np.abs(reference).max())):
        fit = np.polyfit(np.log(steps), np.log(np.maximum(errors, 1e-300)), 1)
        slope = float(fit[0])
    return ConvergenceStudy(steps=tuple(steps), errors=tuple(errors), slope=slope)


@functools.lru_cache(maxsize=8)
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (shared)."""
    from numpy.polynomial.legendre import leggauss  # loaded only by the commands that integrate

    xs, ws = leggauss(nodes)
    return _readonly(xs), _readonly(ws)


def _legendre(interval: tuple[float, float], nodes: int):
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise BadIntervalError(f"bad interval [{lo}, {hi}]")
    if nodes < 16:
        raise BadIntervalError("orbit quadrature needs at least 16 nodes")
    xs, ws = _legendre_rule(int(nodes))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * xs, ws, half


def quadrature_nodes(interval: tuple[float, float], nodes: int) -> np.ndarray:
    """The points at which :func:`orbit_quadrature` evaluates its integrand."""
    return _legendre(interval, nodes)[0]


def orbit_quadrature(f: Callable[[float], float], weight: Callable[[float], float],
                     interval: tuple[float, float], nodes: int) -> float:
    """Gauss-Legendre value of the weighted 1-D integral of f over interval."""
    ts, ws, half = _legendre(interval, nodes)
    total = 0.0
    for t, wi in zip(ts, ws):
        total += wi * f(t) * weight(t)
    return float(half * total)
