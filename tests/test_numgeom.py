"""Finite-difference curvature and quadrature tests."""

import dataclasses
import math

import numpy as np
import pytest

from fourcurv import curvops, numgeom
from fourcurv.errors import (
    BadIntervalError,
    NotAdmissibleError,
    OutsideDomainError,
    SingularMetricError,
    StepTooLargeError,
)
from fourcurv.models import chart_for, chart_reference_operator
from fourcurv.numgeom import MetricChart, convergence_study, curvature_at, orbit_quadrature
from fourcurv.page import chebyshev_radii, orbit_curvature, page_metric, sphere_ansatz


def interior_points(chart, rng, n, pad=0.3):
    pts = []
    while len(pts) < n:
        p = np.array([rng.uniform(lo + pad, hi - pad) for lo, hi in chart.domain])
        pts.append(p)
    return pts


def test_flat_chart_zero_everywhere(rng):
    chart = chart_for("flatChart")
    for p in interior_points(chart, rng, 3):
        pc = curvature_at(chart, p, step=0.01)
        assert np.abs(pc.operator.matrix).max() <= 1e-12
        assert curvops.decompose(pc.operator).einstein_residual() <= 1e-12


def test_sphere_product_chart_special_point():
    chart = chart_for("sphereProductChart", {"a": 1.0, "b": 1.0})
    ref = chart_reference_operator("sphereProductChart", {"a": 1.0, "b": 1.0})
    pc = curvature_at(chart, [np.pi / 2, 0.0, np.pi / 2, 0.0], step=0.01)
    assert np.abs(pc.operator.in_coordinate_basis() - ref.matrix).max() <= 1e-6


@pytest.mark.parametrize("a", [1e-250, 1e-220, 1e-200, 1e-180])
def test_sphere_product_chart_small_curvature(a):
    # exit 1 with 36 entries not finite: the stencil sums did not cancel along
    # the coordinates 1 and 3, so R reached 2.4e188 at a = 1e-200
    point = [1.0, 0.0, 1.0, 0.0]
    ref = curvature_at(chart_for("sphereProductChart", {"a": 1.0, "b": 1.0}), point)
    pc = curvature_at(chart_for("sphereProductChart", {"a": a, "b": 1.0}), point)
    M = pc.operator.matrix
    assert M[0, 0] / a == pytest.approx(ref.operator.matrix[0, 0], rel=1e-10)
    assert M[5, 5] == ref.operator.matrix[5, 5]
    M = M.copy()
    M[0, 0] = M[5, 5] = 0.0
    assert not M.any()


def test_constant_metric_gives_exactly_zero_operator(rng):
    # the paired stencil sums cancel exactly on constant data, whatever c is
    for c in 10.0 ** rng.uniform(-150.0, 150.0, 8):
        chart = MetricChart(domain=((-1.0, 1.0),) * 4,
                            metric_at=lambda x, c=c: np.broadcast_to(
                                c * np.eye(4), np.shape(x)[:-1] + (4, 4)))
        pc = curvature_at(chart, rng.uniform(-0.5, 0.5, 4), step=0.01)
        assert not pc.operator.matrix.any()


def test_hyperbolic_half_space():
    chart = chart_for("hyperbolic4HalfSpace")
    pc = curvature_at(chart, [0.0, 0.0, 0.0, 1.0], step=0.01)
    assert np.abs(pc.operator.matrix + np.eye(6)).max() <= 1e-6
    assert curvops.decompose(pc.operator).einstein_residual() <= 1e-6


def test_random_points_match_catalog(rng):
    cases = [
        ("flatChart", {}, 0.3),
        ("sphereProductChart", {"a": 1.0, "b": 2.0}, 0.4),
        ("hyperbolic4HalfSpace", {}, 0.3),
    ]
    for name, params, pad in cases:
        chart = chart_for(name, params)
        ref = chart_reference_operator(name, params).in_coordinate_basis()
        bound_hits = 0
        for p in interior_points(chart, rng, 10, pad):
            if name == "hyperbolic4HalfSpace":
                p[3] = rng.uniform(0.8, 1.3)
                ref_local = ref  # curvature -1 at every point
            else:
                ref_local = ref
            pc = curvature_at(chart, p, step=0.01)
            err = np.abs(pc.operator.in_coordinate_basis() - ref_local).max()
            assert err <= 1e-6, (name, p, err)
            if pc.error_estimate >= err:
                bound_hits += 1
        assert bound_hits >= 9, f"{name}: error estimate bound held at {bound_hits}/10"


def test_emitted_operator_defects_small():
    chart = chart_for("sphereProductChart", {"a": 1.0, "b": 1.0})
    pc = curvature_at(chart, [1.2, 0.4, 1.4, -0.2], step=0.01)
    assert pc.operator.symmetry_defect() <= 10 * pc.error_estimate
    assert pc.operator.bianchi_defect() <= 10 * pc.error_estimate


def test_error_estimate_is_the_operator_err(rng):
    charts = [chart_for(name) for name in ("flatChart", "sphereProductChart",
                                           "hyperbolic4HalfSpace")]
    points = [rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), (4, 4))
              for lo, hi in (np.array(c.domain).T for c in charts)]
    m = page_metric()
    pcs = [pc for c, x in zip(charts, points) for pc in curvature_at(c, x)]
    pcs += [*orbit_curvature(m, chebyshev_radii(8)), orbit_curvature(m, 1.0)]
    for pc in pcs:
        assert pc.error_estimate == pc.operator.err
        assert pc.to_dict()["errorEstimate"] == pc.operator.err
    assert any(pc.error_estimate > 0.0 for pc in pcs)


def test_defects_dominated_by_error_at_every_step():
    # symmetric stencils produce a consistent metric 2-jet, so the emitted
    # operator is admissible to machine precision at every refinement level;
    # in particular the defects never outgrow the Richardson error estimate
    chart = chart_for("sphereProductChart", {"a": 1.0, "b": 2.0})
    point = [1.2, 0.4, 1.4, -0.2]
    for h in (0.04, 0.02, 0.01):
        pc = curvature_at(chart, point, step=h)
        bound = max(10 * pc.error_estimate, 5e-15)
        assert pc.operator.symmetry_defect() <= bound
        assert pc.operator.bianchi_defect() <= bound


def test_frame_orthonormality(rng):
    chart = chart_for("sphereProductChart", {"a": 1.0, "b": 2.0})
    for p in interior_points(chart, rng, 5, pad=0.4):
        g = chart.metric_at(p)
        L = np.linalg.cholesky(g)
        F = np.linalg.inv(L).T
        assert np.abs(F.T @ g @ F - np.eye(4)).max() <= 1e-12
        assert np.linalg.det(F) > 0


def test_domain_errors():
    chart = chart_for("hyperbolic4HalfSpace")
    with pytest.raises(OutsideDomainError):
        curvature_at(chart, [0.0, 0.0, 0.0, -1.0])
    with pytest.raises(StepTooLargeError):
        curvature_at(chart, [0.0, 0.0, 0.0, 0.06], step=0.01)
    with pytest.raises(StepTooLargeError):
        curvature_at(chart, [0.0, 0.0, 0.0, 1.0], step=-0.1)


def test_smallest_usable_step():
    # the stencil divides by (step/2)^2, which must be a normal float
    chart = chart_for("flatChart")
    step = math.ldexp(1.0, -510)  # (step/2)^2 = 2^-1022, the smallest normal float
    assert curvature_at(chart, [0.0, 0.0, 0.0, 0.0], step=step).error_estimate > 0.0
    with pytest.raises(StepTooLargeError, match="too small"):
        curvature_at(chart, [0.0, 0.0, 0.0, 0.0], step=math.nextafter(step, 0.0))
    with pytest.raises(StepTooLargeError, match="too small"):
        convergence_study(chart, [0.0, 0.0, 0.0, 0.0], [4 * step, 2 * step, step / 2])


def test_roundoff_bound_past_float_range_refused():
    # a tiny constant metric: the operator stays finite, its roundoff bound does not
    chart = MetricChart(domain=((-1.0, 1.0),) * 4, depends_on=(),
                        metric_at=lambda x: np.broadcast_to(
                            1e-303 * np.eye(4), np.shape(x)[:-1] + (4, 4)))
    assert curvature_at(chart, [0.0] * 4, step=1e-8).error_estimate < np.inf
    with pytest.raises(NotAdmissibleError, match="roundoff bound not finite"):
        curvature_at(chart, [0.0] * 4, step=1e-10)


def _degenerate_metric(x):
    # diag(1, 1, 1, x0): positive-definite only where x0 > 0
    g = np.zeros(np.shape(x)[:-1] + (4, 4))
    g[..., [0, 1, 2], [0, 1, 2]] = 1.0
    g[..., 3, 3] = x[..., 0]
    return g


DEGENERATE = MetricChart(domain=((-1.0, 1.0),) * 4, metric_at=_degenerate_metric)


def test_singular_metric_detected():
    with pytest.raises(SingularMetricError):
        curvature_at(DEGENERATE, [0.015, 0.0, 0.0, 0.0], step=0.01)  # stencil crosses x0=0


def test_singular_metric_detected_inside_batch():
    # only the middle point's stencil reaches x0 = -0.005; the error names it
    points = [[0.5, 0.0, 0.0, 0.0], [0.015, 0.1, 0.0, 0.0], [0.7, 0.0, 0.0, 0.0]]
    with pytest.raises(SingularMetricError, match=r"\[-0\.005000000000000001, 0\.1, 0\.0, 0\.0\]"):
        curvature_at(DEGENERATE, points, step=0.01)
    # the same points away from the degeneracy evaluate as one batch, at the default step
    pcs = curvature_at(DEGENERATE, [[0.5, 0.0, 0.0, 0.0], [0.7, 0.0, 0.0, 0.0]])
    assert [pc.step_used for pc in pcs] == [numgeom.DEFAULT_STEP / 2.0] * 2


def test_metric_must_be_stacked():
    chart = MetricChart(domain=((-1.0, 1.0),) * 4, metric_at=lambda x: np.eye(4))
    with pytest.raises(SingularMetricError, match="must map"):
        curvature_at(chart, [0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("name", ["flatChart", "sphereProductChart", "hyperbolic4HalfSpace"])
def test_chart_metric_is_stacked(name, rng):
    chart = chart_for(name, {"a": 1.0, "b": 2.0} if name == "sphereProductChart" else {})
    points = np.array(interior_points(chart, rng, 7))
    g = chart.metric_at(points)
    assert g.shape == (7, 4, 4)
    assert chart.metric_at(points.reshape(7, 1, 4)).shape == (7, 1, 4, 4)
    for p, gp in zip(points, g):
        assert np.array_equal(chart.metric_at(p), gp)


def test_batched_curvature_bitwise_equals_single(rng):
    # per-point steps; 37 points run as blocks of 16, 16 and 5
    chart = chart_for("sphereProductChart", {"a": 1.0, "b": 2.0})
    points = np.array(interior_points(chart, rng, 37))
    steps = rng.uniform(0.005, 0.02, len(points))
    batch = curvature_at(chart, points, step=steps)
    assert isinstance(batch, numgeom.CurvatureStack) and len(batch) == len(points)
    items = list(batch)  # a stack is indexed by point
    for size in (1, 5, 16, 23):
        for lo in range(0, len(points), size):
            part = curvature_at(chart, points[lo:lo + size], step=steps[lo:lo + size])
            for pc, ref in zip(part, items[lo:lo + size]):
                assert np.array_equal(pc.operator.matrix, ref.operator.matrix)
                assert pc.to_dict() == ref.to_dict()
                assert pc.error_estimate == ref.error_estimate
                assert pc.step_used == ref.step_used
    single = curvature_at(chart, points[3], step=steps[3])
    assert isinstance(single, numgeom.PointCurvature)
    assert np.array_equal(single.operator.matrix, batch[3].operator.matrix)


CHARTS = {
    "flatChart": lambda: chart_for("flatChart"),
    "sphereProductChart": lambda: chart_for("sphereProductChart", {"a": 1.0, "b": 2.0}),
    "hyperbolic4HalfSpace": lambda: chart_for("hyperbolic4HalfSpace"),
    "page": lambda: page_metric().chart,
    "sphere4-ansatz": lambda: sphere_ansatz().chart,
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_metric_ignores_undeclared_coordinates(name, rng):
    # the declaration is what lets the stencil copy metrics between points
    chart = CHARTS[name]()
    points = np.array(interior_points(chart, rng, 40, pad=0.05))
    free = [k for k in range(4) if k not in chart.depends_on]
    shifted = points.copy()
    shifted[:, free] += rng.uniform(-3.0, 3.0, (len(points), len(free)))
    assert np.array_equal(chart.metric_at(shifted), chart.metric_at(points))


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_declared_stencil_bitwise_equals_full_stencil(name, rng):
    chart = CHARTS[name]()
    full = dataclasses.replace(chart, depends_on=(0, 1, 2, 3))
    if name in ("page", "sphere4-ansatz"):
        radii = np.array([0.03, 0.5, 1.3, np.pi / 2, 2.2, np.pi - 0.03])
        points = np.stack(np.broadcast_arrays(radii, np.pi / 2, 0.0, 0.0), axis=-1)
        steps = np.minimum(0.004, 0.4 * np.minimum(radii, np.pi - radii))
    else:
        points = np.array(interior_points(chart, rng, 21))
        steps = rng.uniform(0.005, 0.02, len(points))
    counted = []

    def metric_at(x):
        counted.append(np.size(x) // 4)
        return chart.metric_at(x)

    reduced = curvature_at(dataclasses.replace(chart, metric_at=metric_at), points, step=steps)
    for pc, ref in zip(reduced, curvature_at(full, points, step=steps)):
        assert np.array_equal(pc.operator.matrix, ref.operator.matrix)
        assert pc.to_dict() == ref.to_dict()
        assert pc.error_estimate == ref.error_estimate
        assert pc.step_used == ref.step_used
    # centre, 4 points on each declared axis, 16 on each declared plane
    n = len(chart.depends_on)
    assert sum(counted) == len(points) * 2 * (1 + 4 * n + 16 * n * (n - 1) // 2)


def test_empty_batch():
    batch = curvature_at(chart_for("flatChart"), np.empty((0, 4)))
    assert isinstance(batch, numgeom.CurvatureStack) and list(batch) == []


def test_convergence_slope_fourth_order():
    chart = chart_for("sphereProductChart", {"a": 1.0, "b": 1.0})
    study = convergence_study(chart, [1.1, 0.5, 1.3, -0.4], [0.02, 0.01, 0.005])
    assert study.slope is not None
    assert 3.5 <= study.slope <= 4.5


def test_convergence_flat_no_slope():
    chart = chart_for("flatChart")
    study = convergence_study(chart, [0.0, 0.0, 0.0, 0.0], [0.02, 0.01, 0.005])
    assert all(e <= 1e-12 for e in study.errors)
    assert study.slope is None
    assert study.to_dict()["slope"] == "NotApplicable"


def test_convergence_study_runs_in_blocks():
    # 40 steps at one point: the stencil points of at most BLOCK of them per
    # metric_at call, where the study used to evaluate all 40 in one call
    counted = []

    def metric_at(x):
        counted.append(np.size(x) // 4)
        return np.broadcast_to(np.eye(4), np.shape(x)[:-1] + (4, 4))

    chart = MetricChart(domain=((-1.0, 1.0),) * 4, metric_at=metric_at)
    study = convergence_study(chart, [0.0] * 4, [0.02 * 0.9**k for k in range(40)])
    assert len(study.errors) == 40
    assert max(counted) <= numgeom.BLOCK * 2 * 113
    assert sum(counted) == 40 * 2 * 113


def test_study_and_curvature_share_their_checks():
    chart = chart_for("flatChart")
    with pytest.raises(OutsideDomainError, match="4 coordinates"):
        convergence_study(chart, [0.0, 0.0, 0.0], [0.02, 0.01, 0.005])
    for steps in ([0.02, 0.01, -0.005], [0.02, 0.01, 0.0], [math.inf, 0.02, 0.01],
                  [math.nan, 0.02, 0.01]):
        bad = next(h for h in steps if not 0.0 < h < math.inf)
        message = f"^step {bad!r} is not finite and positive$"
        with pytest.raises(StepTooLargeError, match=message):
            convergence_study(chart, [0.0] * 4, steps)
        with pytest.raises(StepTooLargeError, match=message):
            curvature_at(chart, [0.0] * 4, step=bad)


def test_convergence_near_boundary_rejected():
    chart = chart_for("hyperbolic4HalfSpace")
    with pytest.raises(StepTooLargeError):
        convergence_study(chart, [0.0, 0.0, 0.0, 0.08], [0.02, 0.01, 0.005])
    with pytest.raises(BadIntervalError):
        convergence_study(chart, [0.0, 0.0, 0.0, 1.0], [0.01, 0.02, 0.005])


def test_orbit_quadrature_unit_three_sphere():
    # constant profile v = w = 1/2 on [0, 1]: total orbit measure is the
    # unit round 3-sphere volume 2 pi^2
    vol = orbit_quadrature(lambda t: 1.0,
                           lambda t: 16 * math.pi**2 * 0.25 * 0.5,
                           (0.0, 1.0), 16)
    assert vol == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_orbit_quadrature_zero_and_sin():
    assert orbit_quadrature(lambda t: 0.0, lambda t: 1.0, (0.0, 1.0), 16) == 0.0
    val = orbit_quadrature(math.sin, lambda t: 1.0, (0.0, math.pi), 32)
    assert val == pytest.approx(2.0, abs=1e-12)
    doubled = orbit_quadrature(math.sin, lambda t: 1.0, (0.0, math.pi), 64)
    assert abs(doubled - val) < 1e-12


def test_legendre_rule_is_cached_read_only():
    xs, ws = numgeom._legendre_rule(24)
    assert numgeom._legendre_rule(24)[0] is xs
    for a in (xs, ws):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    ts, weights, half = numgeom._legendre((0.0, 2.0), 24)
    assert np.array_equal(ts, 1.0 + xs) and weights is ws and half == 1.0


def test_orbit_quadrature_bad_interval():
    with pytest.raises(BadIntervalError):
        orbit_quadrature(lambda t: 1.0, lambda t: 1.0, (1.0, 0.0), 16)
    with pytest.raises(BadIntervalError):
        orbit_quadrature(lambda t: 1.0, lambda t: 1.0, (0.0, math.inf), 16)
    with pytest.raises(BadIntervalError):
        orbit_quadrature(lambda t: 1.0, lambda t: 1.0, (0.0, 1.0), 8)
