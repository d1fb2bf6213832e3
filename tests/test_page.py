"""Page-metric pipeline tests.

The closed-form profile functions are never trusted directly: the closed
form computes the curvature of the metric the profiles define, so a
mistranscribed profile shows as an Einstein residual, and a deliberate
perturbation check confirms the residual has the sensitivity to catch it.
The closed-form entries themselves are checked against finite differences of
the coordinate chart, the round sphere and the Fubini-Study metric of the
catalog; the diagonal spectra that the answers read are checked against
``decompose`` of the assembled 6x6 operator (:func:`_operator`), and the bolt
terms of chi and tau against their integrands and an orbit quadrature.  A sweep,
evaluated in one pass, is held bit for bit to the scalar jet of each of its radii
(``jet_reference``).
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import jet_reference
from fourcurv import curvops, numgeom, secsign
from fourcurv.models import catalog
from fourcurv.page import (
    FORMULA_ULPS,
    CohomOneMetric,
    Jet,
    ORBIT_STEP,
    PAGE_SHAPE_QUARTIC,
    _cos,
    _sin,
    _sqrt,
    certify_negative_curvature,
    chebyshev_radii,
    integrate_char_numbers,
    orbit_curvature,
    orbit_entries,
    orbit_spectra,
    page_metric,
    page_shape_parameter,
    sphere_ansatz,
    transgression,
    verify_einstein,
)


def _operator(m, r) -> curvops.CurvatureOperator:
    """The closed-form operator of the orbit through r, assembled from its
    :func:`orbit_entries` in the coordinate basis, with their bound as err."""
    [((a, b, c, d, e), err)] = orbit_entries(m, [r])
    M = np.zeros((6, 6))
    M[0, 0] = M[1, 1] = a
    M[2, 2] = b
    M[3, 3] = c
    M[4, 4] = M[5, 5] = d
    M[0, 5] = M[5, 0] = e
    M[1, 4] = M[4, 1] = -e
    M[2, 3] = M[3, 2] = -2.0 * e
    return curvops.CurvatureOperator(M, err=err)


def _nodes(n: int) -> list[float]:
    """The n Gauss-Legendre nodes on (0, pi), as numgeom.orbit_quadrature takes them."""
    return (0.5 * math.pi + 0.5 * math.pi * leggauss(n)[0]).tolist()


def _fubini_study() -> CohomOneMetric:
    # CP^2 with u = 1, v = sin r / 2, w = sin r cos r / 2 on (0, pi/2): the frame's
    # orientation is opposite to the complex one, so W+ and W- trade places
    def v(r):
        return _sin(r) / 2.0

    def w(r):
        return _sin(r) * _cos(r) / 2.0

    return CohomOneMetric(u=lambda r: 1.0, v=v, w=w, metadata={})


def _crooked() -> CohomOneMetric:
    # the Page profiles with v off by 1%: not Einstein
    base = page_metric()
    return CohomOneMetric(u=base.u, v=lambda r: 1.01 * base.v(r), w=base.w,
                          metadata=base.metadata)


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
    check = verify_einstein(_crooked(), [1.0, math.pi / 2, 2.0])
    assert check.max_residual > 1e-3
    with pytest.raises(curvops.NotEinsteinError, match="needs an Einstein operator"):
        certify_negative_curvature(_crooked(), [1.0])


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
    for point in ([r, 1.1, 0.7, 2.0], [r, 2.0, -1.5, -3.0]):
        pc = numgeom.curvature_at(m.chart, point, step=0.004)
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


def _spectrum(x: float) -> list[float]:
    """The ascending spectrum of diag(x, x, -2x)."""
    return sorted([x, x, -2.0 * x])


def _assert_spectra_match(o, op: curvops.CurvatureOperator) -> curvops.Decomposition:
    """s, the Weyl spectra, the residual and the defect of an OrbitSpectra within
    its err of those of decompose of the same orbit's assembled operator."""
    d = curvops.decompose(op)
    tol = o.err
    assert abs(o.s - d.s) <= tol
    assert np.abs(_spectrum(o.alpha) - d.spectrum_plus).max() <= tol
    assert np.abs(_spectrum(o.gamma) - d.spectrum_minus).max() <= tol
    assert abs(o.residual - d.einstein_residual()) <= tol
    assert abs(o.defect - curvops.gl_defect(d).defect) <= tol
    return d


_SWEEPS = {"radii-64": lambda: chebyshev_radii(64),
           "nodes-24": lambda: _nodes(24),
           "nodes-48": lambda: _nodes(48)}


@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_stacked_sweep_bitwise_equals_per_orbit_public_path(sweep):
    # the radii of `page --radii 64` and Gauss-Legendre nodes: each orbit's
    # diagonal spectra against decompose of its assembled operator, its min plane
    # against einstein_extreme_witnesses, and the public answers against the orbits
    m = page_metric()
    radii = _SWEEPS[sweep]()
    orbits = orbit_spectra(m, radii)
    sec = []
    for r, o in zip(radii, orbits):
        op = _operator(m, r)
        d = _assert_spectra_match(o, op)
        min_w, _ = secsign.einstein_extreme_witnesses(op, d)
        i, j, q = o.min_plane()
        assert (i, j) == (0, 0)  # alpha, gamma < 0: the doubled eigenvalue is the least
        assert abs(q - min_w.q_value) <= o.err
        assert q == secsign.q_form(op, np.eye(3)[i], np.eye(3)[j])
        sec.append(q / 2.0)
    report = certify_negative_curvature(m, radii)
    k = list(radii).index(report.witness_radius)
    assert report.min_sec == report.witness["secValue"] == sec[k]
    assert sec[k] - min(sec) <= orbits[k].err
    assert all(x - min(sec) > o.err for r, x, o in zip(radii, sec, orbits)
               if r < report.witness_radius)
    assert report.witness == {"psiPlus": [1.0, 0.0, 0.0], "psiMinus": [1.0, 0.0, 0.0],
                              "qValue": 2.0 * sec[k], "secValue": sec[k]}
    defects = [o.defect for o in orbits]
    assert report.gl_defect_range == (min(defects), max(defects))
    check = verify_einstein(m, radii)
    assert check.residuals == tuple(o.residual for o in orbits)
    assert check.lambda_ == math.fsum(o.s / 4.0 for o in orbits) / len(orbits)


def test_spectra_of_a_non_einstein_profile_match_decompose():
    # beta and beta3 are roundoff on the Page orbits; here they are not
    m = _crooked()
    radii = chebyshev_radii(16)
    for r, o in zip(radii, orbit_spectra(m, radii)):
        _, beta3 = o.B[1:]
        assert abs(beta3) > 1e-3 and o.residual > 1e-3
        _assert_spectra_match(o, _operator(m, r))


def test_sphere_spectra_are_those_of_the_identity():
    for o in orbit_spectra(sphere_ansatz(), [1e-3, *chebyshev_radii(16), math.pi - 1e-3]):
        assert abs(o.s - 12.0) <= 12 * o.err
        assert abs(o.alpha) <= 2 * o.err and abs(o.gamma) <= 2 * o.err
        assert o.residual <= o.err


_ORACLE_SWEEPS = {"radii-64": lambda: chebyshev_radii(64),
                  **{f"nodes-{n}": (lambda n=n: _nodes(n)) for n in (24, 48, 96)}}


@pytest.mark.parametrize("sweep", sorted(_ORACLE_SWEEPS))
def test_closed_form_agrees_with_finite_differences(sweep):
    # every default --negcurv radius and Gauss-Legendre nodes: the two evaluators
    # agree entry by entry within the finite-difference error bound
    m = page_metric()
    radii = _ORACLE_SWEEPS[sweep]()
    stack = orbit_curvature(m, radii)
    for k, r in enumerate(radii):
        op = _operator(m, r)
        assert np.abs(op.matrix - stack.operators[k]).max() <= stack.err[k] + op.err
        assert op.err < 1e-12


def test_closed_form_residual_and_lambda_agree_with_finite_differences():
    # the Einstein check on the closed form against the decompositions of the
    # finite-difference operators of the same orbits, within their error bound
    m = page_metric()
    radii = chebyshev_radii(64)
    check = verify_einstein(m, radii)
    stack = orbit_curvature(m, radii)
    for pc, residual in zip(stack, check.residuals):
        d = curvops.decompose(pc.operator)
        assert abs(residual - d.einstein_residual()) <= pc.error_estimate
        assert abs(d.einstein_constant - check.lambda_) <= pc.error_estimate
    assert abs(check.lambda_ - 3.0) <= 4 * FORMULA_ULPS


def test_closed_form_sphere_is_identity():
    # the unit round 4-sphere has the identity operator, up to each orbit's bound,
    # also at orbits next to the poles where the terms grow like 1/r^2
    radii = [1e-6, 1e-3, *chebyshev_radii(16), math.pi - 1e-3]
    ops = [_operator(sphere_ansatz(), r) for r in radii]
    assert all(np.abs(op.matrix - np.eye(6)).max() <= op.err for op in ops)
    assert ops[len(radii) // 2].err < 1e-12


def test_closed_form_fubini_study_matches_catalog_up_to_orientation():
    fs = _fubini_study()
    ref = curvops.decompose(catalog("fubiniStudy").operator)
    radii = np.linspace(0.05, math.pi / 2 - 0.05, 9)
    for r, o in zip(radii, orbit_spectra(fs, radii)):
        tol = 4 * o.err
        assert o.s == pytest.approx(ref.s, abs=tol)
        assert np.abs(_spectrum(o.gamma) - ref.spectrum_plus).max() <= tol
        assert np.abs(_spectrum(o.alpha) - ref.spectrum_minus).max() <= tol
        assert o.residual <= tol
        assert o.min_plane()[2] / 2.0 == pytest.approx(1.0, abs=1e-12)
        _assert_spectra_match(o, _operator(fs, r))


def _shaken(profile, rng):
    """``profile`` with every part of its jet moved by one ulp, up or down at random."""
    def f(r):
        return Jet([tuple(math.nextafter(x, math.inf if rng.integers(2) else -math.inf)
                          for x in point) for point in r.lift(profile(r))])
    return f


def test_closed_form_error_covers_jet_roundoff():
    # moving every jet value by one ulp, up or down at random, must move each
    # operator by no more than its reported bound, and leave the witness in place
    m = page_metric()
    radii = chebyshev_radii(16) + [1e-4, math.pi - 1e-4]
    clean = orbit_entries(m, radii)
    report = certify_negative_curvature(m)
    rng = np.random.default_rng(7)
    for trial in range(3):
        crooked = CohomOneMetric(u=_shaken(m.u, rng), v=_shaken(m.v, rng),
                                 w=_shaken(m.w, rng), metadata={})
        for r, (entries, err) in zip(radii, clean):
            [(moved, _)] = orbit_entries(crooked, [r])
            shift = max(abs(x - y) for x, y in zip(moved, entries))
            assert 0.0 < shift <= err
        shaken = certify_negative_curvature(crooked)
        assert shaken.witness["psiPlus"] == report.witness["psiPlus"]
        assert shaken.witness["psiMinus"] == report.witness["psiMinus"]
        assert shaken.witness_radius == report.witness_radius
        assert abs(shaken.min_sec - report.min_sec) <= 1e-13


def test_jet_derivatives():
    # a composition of every operation against its derivatives written out, on the
    # reference jet of a float, an array and long doubles
    for r in (0.3, np.array([0.3, 1.1, 2.9]), np.array([0.3, 1.1, 2.9], dtype=np.longdouble)):
        x = jet_reference.Jet(r, 1.0)
        sx = _sin(x)
        f = 2.0 * _sqrt(3.0 + _cos(x)) / (x * x) - 1.0 * sx * sx * sx
        g, g1, g2 = 3.0 + np.cos(r), -np.sin(r), -np.cos(r)
        q, q1, q2 = np.sqrt(g), g1 / (2 * np.sqrt(g)), g2 / (2 * np.sqrt(g)) - g1**2 / (4 * g**1.5)
        p, p1, p2 = r**-2, -2 * r**-3, 6 * r**-4
        s, c = np.sin(r), np.cos(r)
        want = (2 * q * p - s**3,
                2 * (q1 * p + q * p1) - 3 * s**2 * c,
                2 * (q2 * p + 2 * q1 * p1 + q * p2) - (6 * s * c**2 - 3 * s**3))
        for got, ref in zip(f, want):
            assert np.asarray(got).dtype == np.asarray(ref).dtype
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
    assert tuple(1.0 - jet_reference.Jet(2.0, 1.0)) == (-1.0, -1.0, -0.0)
    assert type(_sqrt(2.0)) is float and type(_sin(np.float64(1.0))) is float


def _same_bits(got, want) -> bool:
    """Whether two nests of tuples and lists of floats are equal bit for bit, so
    that -0.0 differs from 0.0."""
    if type(want) is float:
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    return len(got) == len(want) and all(map(_same_bits, got, want))


# the radii of `page --radii` 16, 32 and 64 (halved onto (0, pi/2) for Fubini-Study),
# and the two Page bolts
_REFERENCE_SWEEPS = {
    f"{name}-{n}": (metric, [scale * r for r in chebyshev_radii(n)])
    for name, metric, scale in (("page", page_metric, 1.0), ("sphere", sphere_ansatz, 1.0),
                                ("fubini-study", _fubini_study, 0.5))
    for n in (16, 32, 64)
} | {"page-bolts": (page_metric, [0.0, math.pi])}


@pytest.mark.parametrize("sweep", sorted(_REFERENCE_SWEEPS))
def test_sweep_equals_the_scalar_reference_bit_for_bit(sweep):
    # one batched pass against the scalar jet of each radius alone: every jet part,
    # entry, err, spectrum and Phi
    metric, radii = _REFERENCE_SWEEPS[sweep]
    m = metric()
    assert _same_bits([tuple(map(tuple, point)) for point in zip(*m.jets(radii))],
                      [tuple(map(tuple, jet_reference.jets(m, r))) for r in radii])
    assert _same_bits(transgression(m, radii), [jet_reference.transgression(m, r) for r in radii])
    if radii[0] == 0.0:
        # w = 0 at the bolt, and the entries b and d divide by it in either evaluator
        with pytest.raises(ZeroDivisionError):
            orbit_entries(m, radii)
        with pytest.raises(ZeroDivisionError):
            jet_reference.orbit_entries(m, 0.0)
        radii = radii[1:]
    assert _same_bits(orbit_entries(m, radii), [jet_reference.orbit_entries(m, r) for r in radii])
    assert _same_bits(orbit_spectra(m, radii), [jet_reference.orbit_spectra(m, r) for r in radii])


# points with signed zeros among their derivatives, so a zero derivative term that
# is dropped or reordered shows in the sign of a zero
_SIGNED_POINTS = [(0.5, 0.0, -0.0), (1.5, -0.0, 0.0), (2.0, -1.0, 0.25), (0.25, 3.0, -0.0)]
_OPERATIONS = {
    "add": lambda x, y: x + y, "sub": lambda x, y: x - y, "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y, "neg": lambda x, y: -x, "add-number": lambda x, y: 0.5 + x,
    "sub-number": lambda x, y: x - 0.25, "number-sub": lambda x, y: 1.0 - x,
    "mul-number": lambda x, y: x * -0.5, "number-mul": lambda x, y: 2.0 * x,
    "div-number": lambda x, y: x / 3.0, "number-div": lambda x, y: 3.0 / x,
    "sqrt": lambda x, y: _sqrt(x), "sin": lambda x, y: _sin(x), "cos": lambda x, y: _cos(x),
}


@pytest.mark.parametrize("op", list(_OPERATIONS))
def test_jet_operations_equal_the_scalar_reference_bit_for_bit(op):
    # each point of a sweep against the scalar jet of that point alone
    f, x, y = _OPERATIONS[op], _SIGNED_POINTS, _SIGNED_POINTS[::-1]
    want = [tuple(f(jet_reference.Jet(*p), jet_reference.Jet(*q))) for p, q in zip(x, y)]
    assert _same_bits(list(f(Jet(x), Jet(y))), want)


@pytest.mark.parametrize("check", [verify_einstein, certify_negative_curvature, orbit_entries,
                                   transgression])
def test_an_empty_sweep_is_refused(check):
    with pytest.raises(ValueError, match="^a sweep needs at least one radius$"):
        check(page_metric(), [])


def test_closed_form_char_numbers():
    # chi = 4 and tau = 0 from the bolt terms alone: Phi_chi = -2 Q, Phi_tau = -Q^2
    numbers = integrate_char_numbers(page_metric())
    assert abs(numbers.chi - 4.0) <= 8 * FORMULA_ULPS and abs(numbers.tau) <= 8 * FORMULA_ULPS
    ends = page_metric().endpoint_data()
    for r, end, (phi_chi, phi_tau) in zip((0.0, math.pi), ends,
                                          transgression(page_metric(), (0.0, math.pi))):
        q = end.w_slope_proper if r == 0.0 else -end.w_slope_proper
        assert abs(phi_chi + 2.0 * q) <= FORMULA_ULPS and abs(phi_tau + q * q) <= FORMULA_ULPS
    # the Fubini-Study ansatz on (0, pi/2) ends at a nut and a bolt: its limit at the
    # nut gives (3, -1), the orientation opposite to the complex one
    fs = _fubini_study()
    (chi0, tau0), (chi1, tau1) = transgression(fs, (1e-8, math.pi / 2))
    assert 2.0 * (chi1 - chi0) == pytest.approx(3.0, abs=1e-12)
    assert 4.0 * (tau1 - tau0) / 3.0 == pytest.approx(-1.0, abs=1e-12)


def _integrands(m, r) -> tuple[float, float]:
    """``u v^2 w (|A|^2 + |C|^2 - 2 |B|^2, |A|^2 - |C|^2)`` of the orbit through r."""
    [o] = orbit_spectra(m, [r])
    A2, B2, C2 = (sum(x * x for x in block) for block in (o.A, o.B, o.C))
    vol = m.u(r) * m.v(r) ** 2 * m.w(r)
    return vol * (A2 + C2 - 2.0 * B2), vol * (A2 - C2)


@pytest.mark.parametrize("metric", [page_metric, _crooked, sphere_ansatz, _fubini_study])
def test_transgression_derivatives_are_the_integrands(metric):
    # a 4th-order central difference of Phi against the closed-form integrands, at the
    # default radii (inside (0, pi/2) for Fubini-Study), also off Einstein metrics
    m, h = metric(), 1e-3
    radii = chebyshev_radii(64)
    if metric is _fubini_study:
        radii = [r / 2.0 for r in radii]
    for r in radii:
        phi = transgression(m, [r + k * h for k in (-2, -1, 1, 2)])
        for n, density in enumerate(_integrands(m, r)):
            f = [p[n] for p in phi]
            derivative = (8.0 * (f[2] - f[1]) - (f[3] - f[0])) / (12.0 * h)
            assert derivative == pytest.approx(density, abs=1e-9)


def _bolt_limits(m, eps: float) -> tuple[float, float]:
    (chi0, tau0), (chi1, tau1) = transgression(m, (eps, math.pi - eps))
    return 2.0 * (chi1 - chi0), 4.0 * (tau1 - tau0) / 3.0


def test_bolt_terms_match_the_orbit_quadrature():
    # Gauss-Legendre on the closed-form densities against the bolt terms
    m = page_metric()
    numbers = integrate_char_numbers(m)
    densities = {r: curvops.char_densities(curvops.decompose(_operator(m, r)))
                 for r in _nodes(48)}

    def volume(r):
        return 16.0 * math.pi ** 2 * m.u(r) * m.v(r) ** 2 * m.w(r)

    chi = numgeom.orbit_quadrature(lambda r: densities[r].euler_density, volume,
                                   (0.0, math.pi), 48)
    tau = numgeom.orbit_quadrature(lambda r: densities[r].signature_density, volume,
                                   (0.0, math.pi), 48)
    assert abs(chi - numbers.chi) <= 1e-12 and abs(tau - numbers.tau) <= 1e-12


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
    op = _operator(m, report.witness_radius)
    assert secsign.q_form(op, w["psiPlus"], w["psiMinus"]) == pytest.approx(w["qValue"],
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
        assert report.min_sec == report.witness["secValue"] == alone.min_sec


def test_sphere_ansatz_constant_curvature():
    report = certify_negative_curvature(sphere_ansatz(), chebyshev_radii(8))
    assert report.min_sec == pytest.approx(1.0, abs=1e-6)


def test_direct_operator_input_hyperbolic_product():
    op = catalog("surfaceProduct", {"a": -1.0, "b": -1.0}).operator
    min_w, _ = secsign.einstein_extreme_witnesses(op, curvops.decompose(op))
    assert min_w.sec_value == pytest.approx(-1.0, abs=1e-12)


def test_sphere_char_numbers():
    # both ends of the sphere are nuts, where x = w/v is 0/0: the bolt terms divide
    # by zero there, and their limit gives (2, 0)
    with pytest.raises(ZeroDivisionError):
        integrate_char_numbers(sphere_ansatz())
    for eps in (1e-4, 1e-8):
        chi, tau = _bolt_limits(sphere_ansatz(), eps)
        assert chi == pytest.approx(2.0, abs=1e-12)
        assert tau == pytest.approx(0.0, abs=1e-12)


def test_page_char_numbers_light():
    numbers = integrate_char_numbers(page_metric())
    assert numbers.chi == pytest.approx(4.0, abs=1e-12)
    assert numbers.tau == pytest.approx(0.0, abs=1e-12)
