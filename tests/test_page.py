"""Page-metric pipeline tests.

The closed-form profile functions are never trusted directly: the Einstein
residual of the decomposition of each finite-difference operator is the
oracle that certifies the transcription, and a deliberate perturbation
check confirms the oracle has the sensitivity to catch transcription errors.
The closed-form orbit curvature that ``--negcurv`` and ``--integrate`` read is
checked against the same finite differences, the round sphere and the
Fubini-Study metric of the catalog.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from fourcurv import curvops, numgeom, secsign
from fourcurv.models import catalog
from fourcurv.page import (
    FORMULA_ULPS,
    CohomOneMetric,
    Jet,
    ORBIT_STEP,
    PAGE_SHAPE_QUARTIC,
    certify_negative_curvature,
    chebyshev_radii,
    integrate_char_numbers,
    orbit_curvature,
    orbit_operators,
    page_metric,
    page_shape_parameter,
    sphere_ansatz,
    verify_einstein,
)


def test_shape_parameter_root():
    k = page_shape_parameter()
    assert 0.28 < k < 0.29
    c4, c3, c2, c1, c0 = PAGE_SHAPE_QUARTIC
    assert abs((((c4 * k + c3) * k + c2) * k + c1) * k + c0) < 1e-14


def test_page_einstein_residual():
    m = page_metric()
    check = verify_einstein(m, chebyshev_radii(12))
    assert check.max_residual <= 1e-6
    assert check.lambda_ == pytest.approx(3.0, abs=1e-7)
    assert check.lambda_ > 0
    assert check.lambda_spread <= 1e-5


def test_sphere_ansatz_cross_check():
    m = sphere_ansatz()
    check = verify_einstein(m, [0.7, 1.2, math.pi / 2, 2.3])
    assert check.max_residual <= 1e-8
    assert check.lambda_ == pytest.approx(3.0, abs=1e-9)


def test_perturbed_profile_detected():
    base = page_metric()
    crooked = CohomOneMetric(
        u=base.u,
        v=lambda r: 1.01 * base.v(r),
        w=base.w,
        metadata=base.metadata,
    )
    check = verify_einstein(crooked, [1.0, math.pi / 2, 2.0])
    assert check.max_residual > 1e-3


def test_endpoint_closure():
    m = page_metric()
    lower, upper = m.endpoint_data()
    k2 = page_shape_parameter() ** 2
    W = 3.0 + 6.0 * k2 - k2 * k2
    for end in (lower, upper):
        assert end.v_limit > 0.4  # bolt 2-sphere keeps finite size
        assert end.v_limit == pytest.approx(math.sqrt((1 + k2) * (1 - k2) / W), rel=1e-15)
        assert end.w_slope_proper == pytest.approx(0.5, abs=1e-15)
    s = sphere_ansatz()
    lo, hi = s.endpoint_data()
    assert lo.w_slope_proper == pytest.approx(0.5, abs=1e-4)
    assert lo.v_limit < 1e-4  # full orbit collapse at a round point


def test_profile_positivity_and_chart_definiteness():
    m = page_metric()
    for r in np.linspace(1e-6, math.pi - 1e-6, 200):
        assert m.u(r) > 0 and m.v(r) > 0 and m.w(r) > 0
    # chart metric positive-definite away from the Euler-angle poles
    for th in (0.3, 1.0, 2.5):
        g = m.chart.metric_at(np.array([1.0, th, 0.5, 1.0]))
        assert np.all(np.linalg.eigvalsh(g) > 0)


@pytest.mark.parametrize("metric", [page_metric, sphere_ansatz])
def test_cohom_one_chart_is_stacked(metric):
    chart = metric().chart
    points = np.stack([np.linspace(0.1, 3.0, 9), np.linspace(0.3, 2.8, 9),
                       np.zeros(9), np.linspace(-1.0, 1.0, 9)], axis=-1)
    g = chart.metric_at(points)
    assert g.shape == (9, 4, 4)
    assert chart.metric_at(points.reshape(3, 3, 4)).shape == (3, 3, 4, 4)
    for p, gp in zip(points, g):
        assert np.array_equal(chart.metric_at(p), gp)


def test_orbit_homogeneity():
    # frames differ point to point, so compare the frame-independent data:
    # scalar curvature, Weyl spectra, traceless-Ricci singular values
    m = page_metric()
    r = 1.3
    base = curvops.decompose(orbit_curvature(m, r).operator)
    from fourcurv.numgeom import curvature_at
    for point in ([r, 1.1, 0.7, 2.0], [r, 2.0, -1.5, -3.0]):
        pc = curvature_at(m.chart, point, step=0.004)
        d = curvops.decompose(pc.operator)
        tol = 100 * max(pc.error_estimate, 1e-12)
        assert d.s == pytest.approx(base.s, abs=tol)
        assert np.abs(d.spectrum_plus - base.spectrum_plus).max() <= tol
        assert np.abs(d.spectrum_minus - base.spectrum_minus).max() <= tol
        assert np.abs(np.linalg.svd(d.ric_block, compute_uv=False)
                      - np.linalg.svd(base.ric_block, compute_uv=False)).max() <= tol


def test_orbit_curvature_batch_bitwise_equals_single():
    # a point's operator does not depend on the block it is computed in
    m = page_metric()
    radii = chebyshev_radii(20)
    batch = list(orbit_curvature(m, radii))  # a stack is indexed by point
    assert len(batch) == 20
    for r, pc in zip(radii[::3], batch[::3]):
        alone = orbit_curvature(m, r)
        assert np.array_equal(alone.operator.matrix, pc.operator.matrix)
        assert alone.to_dict() == pc.to_dict()
        assert alone.error_estimate == pc.error_estimate
    tail = orbit_curvature(m, radii[13:])
    assert all(np.array_equal(a.operator.matrix, b.operator.matrix)
               for a, b in zip(tail, batch[13:]))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


_SWEEPS = {"radii-64": lambda: chebyshev_radii(64),
           "nodes-24": lambda: numgeom.quadrature_nodes((0.0, math.pi), 24),
           "nodes-48": lambda: numgeom.quadrature_nodes((0.0, math.pi), 48)}


@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_stacked_sweep_bitwise_equals_per_orbit_public_path(sweep):
    # the radii of `page --radii 64` and of `page --nodes 24`, whose integral
    # also takes 48 nodes: each stacked value against its orbit's own objects
    m = page_metric()
    radii = _SWEEPS[sweep]()
    M, S, err = orbit_operators(m, radii)
    ds = curvops.decompositions(S, err)
    sec = secsign.einstein_min_sec(S, ds)
    assert len(M) == len(ds) == len(sec) == len(radii)
    for k, d in enumerate(ds):
        op = curvops.CurvatureOperator(M[k], err=float(err[k]))
        ref = curvops.decompose(op)
        assert _bits(S[k]) == _bits(op.in_sd_asd_basis())
        for name in ("s", "w_plus", "w_minus", "ric_block", "spectrum_plus",
                     "spectrum_minus", "err"):
            assert _bits(getattr(d, name)) == _bits(getattr(ref, name)), name
        assert curvops.gl_defect(d) == curvops.gl_defect(ref)
        assert curvops.char_densities(d) == curvops.char_densities(ref)
        min_w, _ = secsign.einstein_extreme_witnesses(op, ref)
        assert _bits(sec[k]) == _bits(min_w.sec_value)
    # the winner's witness is einstein_extreme_witnesses' own, on its orbit alone
    report = certify_negative_curvature(m, radii)
    k = list(radii).index(report.witness_radius)
    op = curvops.CurvatureOperator(M[k], err=float(err[k]))
    min_w, _ = secsign.einstein_extreme_witnesses(op, curvops.decompose(op))
    assert report.witness.to_dict() == min_w.to_dict()
    assert _bits(report.min_sec) == _bits(sec[k]) and sec[k] - sec.min() <= err[k]
    lo, hi = report.gl_defect_range
    defects = [curvops.gl_defect(d).defect for d in ds]
    assert (lo, hi) == (min(defects), max(defects))
    # the Einstein check reads the decompositions of one finite-difference
    # sweep, which are those of its orbits' PointCurvatures
    stack = orbit_curvature(m, radii)
    ds = curvops.decompositions(stack.sd_asd, stack.err)
    check = verify_einstein(m, radii)
    lambdas = [d.einstein_constant for d in ds]
    assert check.residuals == tuple(d.einstein_residual() for d in ds)
    assert check.residuals == tuple(pc.to_dict()["einsteinResidual"] for pc in stack)
    assert _bits(check.lambda_) == _bits(np.mean(lambdas))
    assert check.lambda_spread == (max(lambdas) - min(lambdas)) / max(1.0, abs(check.lambda_))


_ORACLE_SWEEPS = {"radii-64": lambda: chebyshev_radii(64),
                  **{f"nodes-{n}": functools.partial(numgeom.quadrature_nodes, (0.0, math.pi), n)
                     for n in (24, 48, 96)}}


@pytest.mark.parametrize("sweep", sorted(_ORACLE_SWEEPS))
def test_closed_form_agrees_with_finite_differences(sweep):
    # every default --negcurv radius and every quadrature node of --nodes 24
    # and 48 (which also take 48 and 96): the two evaluators agree entry by
    # entry within the finite-difference error bound
    m = page_metric()
    radii = _ORACLE_SWEEPS[sweep]()
    M, _, err = orbit_operators(m, radii)
    stack = orbit_curvature(m, radii)
    gap = np.abs(M - stack.operators).max(axis=(1, 2))
    assert (gap <= stack.err + err).all()
    assert (err < 1e-12).all()


def test_closed_form_sphere_is_identity():
    # the unit round 4-sphere has the identity operator, up to each orbit's bound,
    # also at orbits next to the poles where the terms grow like 1/r^2
    radii = [1e-6, 1e-3, *chebyshev_radii(16), math.pi - 1e-3]
    M, _, err = orbit_operators(sphere_ansatz(), radii)
    assert (np.abs(M - np.eye(6)).max(axis=(1, 2)) <= err).all()
    assert err[len(radii) // 2] < 1e-12


def test_closed_form_fubini_study_matches_catalog_up_to_orientation():
    # CP^2 with u = 1, v = sin r / 2, w = sin r cos r / 2 on (0, pi/2): the frame's
    # orientation is opposite to the complex one, so W+ and W- trade places
    def v(r):
        return np.sin(r) / 2.0

    def w(r):
        return np.sin(r) * np.cos(r) / 2.0

    fs = CohomOneMetric(u=lambda r: 1.0, v=v, w=w, metadata={})
    ref = curvops.decompose(catalog("fubiniStudy").operator)
    radii = np.linspace(0.05, math.pi / 2 - 0.05, 9)
    M, S, err = orbit_operators(fs, radii)
    for d in curvops.decompositions(S, err):
        tol = 4 * d.err
        assert d.s == pytest.approx(ref.s, abs=tol)
        assert np.abs(d.spectrum_minus - ref.spectrum_plus).max() <= tol
        assert np.abs(d.spectrum_plus - ref.spectrum_minus).max() <= tol
        assert np.abs(d.ric_block).max() <= tol
    sec = secsign.einstein_min_sec(S, curvops.decompositions(S, err))
    assert sec == pytest.approx(np.ones_like(sec), abs=1e-12)


def test_closed_form_error_covers_jet_roundoff():
    # moving every jet value by one ulp, up or down at random, must move each
    # operator by no more than its reported bound
    m = page_metric()
    radii = np.array(chebyshev_radii(16) + [1e-4, math.pi - 1e-4])
    clean, _, err = orbit_operators(m, radii)
    rng = np.random.default_rng(7)

    def shaken(profile):
        def f(r):
            jet = profile(r)
            return Jet(*(np.where(rng.integers(0, 2, np.shape(x)).astype(bool),
                                  np.nextafter(x, np.inf), np.nextafter(x, -np.inf))
                         for x in np.broadcast_arrays(*jet)))
        return f

    crooked = CohomOneMetric(u=shaken(m.u), v=shaken(m.v), w=shaken(m.w), metadata={})
    for trial in range(3):
        M, _, _ = orbit_operators(crooked, radii)
        shift = np.abs(M - clean).max(axis=(1, 2))
        assert (0.0 < shift).all() and (shift <= err).all()


def test_jet_derivatives():
    # a composition of every operation against its derivatives written out
    r = np.array([0.3, 1.1, 2.9])
    x = Jet(r, 1.0)
    f = np.float64(2.0) * np.sqrt(3.0 + np.cos(x)) / x ** 2 - np.ones(3) * np.sin(x) ** 3
    g, g1, g2 = 3.0 + np.cos(r), -np.sin(r), -np.cos(r)
    q, q1, q2 = np.sqrt(g), g1 / (2 * np.sqrt(g)), g2 / (2 * np.sqrt(g)) - g1**2 / (4 * g**1.5)
    p, p1, p2 = r**-2, -2 * r**-3, 6 * r**-4
    s, c = np.sin(r), np.cos(r)
    want = (2 * q * p - s**3,
            2 * (q1 * p + q * p1) - 3 * s**2 * c,
            2 * (q2 * p + 2 * q1 * p1 + q * p2) - (6 * s * c**2 - 3 * s**3))
    for got, ref in zip(f, want):
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
    assert tuple(1.0 - Jet(2.0, 1.0)) == (-1.0, -1.0, -0.0)


def test_closed_form_char_numbers():
    # chi = 4 and tau = 0 at every node count of the page benchmark and its doubling
    m = page_metric()
    for nodes in (24, 48):
        numbers = integrate_char_numbers(m, nodes=nodes)
        assert abs(numbers.chi - 4.0) <= 1e-12 and abs(numbers.tau) <= 1e-12
        assert numbers.doubling_delta <= 1e-12
    numbers = integrate_char_numbers(sphere_ansatz(), nodes=24)
    assert abs(numbers.chi - 2.0) <= 1e-12 and abs(numbers.tau) <= 1e-12


def test_error_estimate_covers_metric_roundoff():
    # moving every metric value by one ulp, up or down at random, must move
    # the emitted operator by no more than the reported error estimate
    m = page_metric()
    radii = np.array(chebyshev_radii(16))
    clean = orbit_curvature(m, radii)
    rng = np.random.default_rng(7)

    def noisy(x):
        g = m.chart.metric_at(x)
        up = np.triu(rng.integers(0, 2, g.shape).astype(bool))
        up |= np.swapaxes(up, -1, -2)
        return np.where(up, np.nextafter(g, np.inf), np.nextafter(g, -np.inf))

    chart = dataclasses.replace(m.chart, metric_at=noisy)
    step = np.minimum(ORBIT_STEP, 0.4 * np.minimum(radii, math.pi - radii))
    points = np.stack(np.broadcast_arrays(radii, np.pi / 2, 0.0, 0.0), axis=-1)
    for trial in range(3):
        shaken = numgeom.curvature_at(chart, points, step=step)
        for a, b in zip(clean, shaken):
            shift = np.abs(a.operator.matrix - b.operator.matrix).max()
            assert 0.0 < shift <= a.error_estimate


def test_page_negative_curvature():
    m = page_metric()
    report = certify_negative_curvature(m, chebyshev_radii(32))
    assert report.min_sec < -0.1
    w = report.witness
    M, _, err = orbit_operators(m, [report.witness_radius])
    op = curvops.CurvatureOperator(M[0], err=float(err[0]))
    assert secsign.q_form(op, w.psi_plus, w.psi_minus) == pytest.approx(w.q_value,
                                                                        abs=1e-12)
    # defect field is reported, never asserted on sign
    lo, hi = report.gl_defect_range
    assert lo <= hi


@pytest.mark.parametrize("r", [0.05, 0.0633, 0.3, 1.0, 1.313])
def test_witness_radius_of_mirror_orbits_is_the_smaller(r):
    # r and pi - r are isometric orbits: their minima differ by roundoff only
    m = page_metric()
    alone = certify_negative_curvature(m, [r])
    for radii in ([r, math.pi - r], [math.pi - r, r]):
        report = certify_negative_curvature(m, radii)
        assert report.witness_radius == r
        assert report.min_sec == report.witness.sec_value == alone.min_sec


def test_sphere_ansatz_constant_curvature():
    report = certify_negative_curvature(sphere_ansatz(), chebyshev_radii(8))
    assert report.min_sec == pytest.approx(1.0, abs=1e-6)


def test_direct_operator_input_hyperbolic_product():
    op = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).operator
    min_w, _ = secsign.einstein_extreme_witnesses(op, curvops.decompose(op))
    assert min_w.sec_value == pytest.approx(-1.0, abs=1e-12)


def test_sphere_char_numbers():
    numbers = integrate_char_numbers(sphere_ansatz(), nodes=24)
    assert numbers.chi == pytest.approx(2.0, abs=1e-3)
    assert numbers.tau == pytest.approx(0.0, abs=1e-3)


def test_page_char_numbers_light():
    numbers = integrate_char_numbers(page_metric(), nodes=24)
    assert numbers.chi == pytest.approx(4.0, abs=1e-2)
    assert numbers.tau == pytest.approx(0.0, abs=1e-2)
