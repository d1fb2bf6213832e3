"""Catalog and chart construction tests."""

import math

import numpy as np
import pytest

from fourcurv import curvops
from fourcurv.curvops import CoverClass, CurvatureSign, classify_equality
from fourcurv.errors import BadParameterError, UnknownChartError, UnknownModelError
from fourcurv.models import catalog, chart_for, chart_reference_operator, model_names
from fourcurv.errors import FourcurvError
from fourcurv.secsign import certify_sec_sign, curvature_sign_of, einstein_sec_range, sign_flag


def test_flat_model():
    m = catalog("flat")
    assert np.array_equal(m.operator.matrix, np.zeros((6, 6)))
    assert m.flags.einstein and m.flags.kahler
    assert m.flags.sec_sign is CurvatureSign.ZERO
    assert m.known_cover is CoverClass.FLAT


def test_sphere4_model():
    m = catalog("sphere4", {"r": 1.0})
    assert np.array_equal(m.operator.matrix, np.eye(6))
    assert m.flags.einstein and not m.flags.kahler
    assert m.flags.sec_sign is CurvatureSign.NON_NEGATIVE
    assert m.known_cover is None


def test_hyperbolic4_scaling():
    m = catalog("hyperbolic4", {"r": 2.0})
    assert np.array_equal(m.operator.matrix, -0.25 * np.eye(6))
    assert m.flags.sec_sign is CurvatureSign.NON_POSITIVE
    assert m.decomposition.s == pytest.approx(-3.0)


def test_surface_product_einstein_iff_equal_curvatures():
    equal = catalog("surfaceProduct", {"a": -1.0, "b": -1.0})
    assert equal.flags.einstein
    assert equal.flags.sec_sign is CurvatureSign.NON_POSITIVE
    assert equal.known_cover is CoverClass.HYPERBOLIC_PLANE_PRODUCT

    unequal = catalog("surfaceProduct", {"a": 1.0, "b": 2.0})
    assert not unequal.flags.einstein
    expected_ric = np.diag([-0.5, 0.0, 0.0])
    assert np.array_equal(unequal.decomposition.ric_block, expected_ric)


def test_surface_product_mixed_signs_indefinite():
    m = catalog("surfaceProduct", {"a": 1.0, "b": -1.0})
    assert m.flags.sec_sign is CurvatureSign.INDEFINITE


def test_kahler_models_satisfy_identity_exactly():
    for name in ("fubiniStudy", "bergman"):
        d = catalog(name).decomposition
        wp2 = float(np.sum(d.w_plus * d.w_plus))
        assert wp2 - d.s * d.s / 24.0 == 0.0
        assert catalog(name).flags.kahler


def test_bergman_sec_range():
    d = catalog("bergman").decomposition
    from fourcurv.secsign import einstein_sec_range
    sec_min, sec_max = einstein_sec_range(d)
    assert sec_min == pytest.approx(-4.0)
    assert sec_max == pytest.approx(-1.0)


def test_every_saturated_model_classifies_to_known_cover():
    for name, params in [
        ("flat", {}),
        ("surfaceProduct", {"a": 1.0, "b": 1.0}),
        ("surfaceProduct", {"a": -1.0, "b": -1.0}),
    ]:
        m = catalog(name, params)
        assert m.known_cover is not None
        got = classify_equality(m.decomposition, m.flags.sec_sign)
        assert got is m.known_cover


# unit-scale settings of every catalog model, each with max|R| = 1
_UNIT_SETTINGS = [
    ("flat", {}), ("sphere4", {"r": 1.0}), ("hyperbolic4", {"r": 1.0}),
    ("surfaceProduct", {"a": 1.0, "b": 1.0}), ("surfaceProduct", {"a": -1.0, "b": -1.0}),
    ("surfaceProduct", {"a": 1.0, "b": -1.0}), ("surfaceProduct", {"a": 0.5, "b": 1.0}),
    ("surfaceProduct", {"a": 0.0, "b": 0.0}), ("fubiniStudy", {"s": 4.0}),
    ("bergman", {"s": -4.0}),
]


def _scaled(name, params, c):
    """The parameters of model ``name`` whose operator is c > 0 times that of ``params``."""
    if name in ("sphere4", "hyperbolic4"):
        return {"r": params["r"] / np.sqrt(c)}
    return {key: value * c for key, value in params.items()}


def test_known_cover_same_at_small_scales(rng):
    # knownCover as the catalog states it today, before it is derived from
    # classify_equality(d, sign), whose sign flag reads Zero at these scales
    assert {name for name, _ in _UNIT_SETTINGS} == set(model_names())
    for name, params in _UNIT_SETTINGS:
        want = catalog(name, params).known_cover
        for k in range(-300, -8):
            c = float(10.0 ** rng.uniform(k, k + 1))  # max|R| in [1e-300, 1e-8]
            assert catalog(name, _scaled(name, params, c)).known_cover is want, (name, c)


def test_nonsaturated_models_classify_not_saturated():
    for name in ("fubiniStudy", "bergman", "sphere4", "hyperbolic4"):
        m = catalog(name)
        got = classify_equality(m.decomposition, m.flags.sec_sign)
        assert got is CoverClass.NOT_SATURATED


def test_sec_sign_flag_of_held_operator_matches_recomposed(rng):
    # the flag certifies the catalog operator itself; rebuilding it from the
    # decomposition first gave the same flag
    for _ in range(120):
        a, b = (float(x) for x in rng.normal(0.0, 2.0, 2) * 10.0 ** rng.uniform(-3.0, 3.0))
        m = catalog("surfaceProduct", {"a": a, "b": b})
        assert not m.flags.einstein
        rebuilt = curvops.recompose(m.decomposition, basis=curvops.SD_ASD)
        assert m.flags.sec_sign is curvature_sign_of(certify_sec_sign(rebuilt))


def _einstein_sign_reference(sec_min, sec_max, tol):
    """The Einstein branch of the model sign flag as it read with its own
    comparisons, before it called the shared rule ``secsign.sign_flag``."""
    if abs(sec_min) <= tol and abs(sec_max) <= tol:
        return CurvatureSign.ZERO
    if sec_min >= -tol:
        return CurvatureSign.NON_NEGATIVE
    if sec_max <= tol:
        return CurvatureSign.NON_POSITIVE
    return CurvatureSign.INDEFINITE


def test_sign_flag_matches_einstein_reference(rng):
    # the doubled exact range at twice the tolerance gives the reference's
    # flag, also exactly at +-tol, one ulp either side and at signed zeros
    for _ in range(300):
        tol = float(10.0 ** rng.uniform(-300.0, 300.0))
        values = [0.0, -0.0]
        for t in (tol, -tol):
            values += [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
        values += (tol * rng.normal(0.0, 1.0, 4) * 10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist()
        for sec_min in values:
            for sec_max in values:
                if sec_min > sec_max:
                    continue
                bounds = (2.0 * sec_max, 2.0 * sec_max, 2.0 * sec_min, 2.0 * sec_min)
                want = _einstein_sign_reference(sec_min, sec_max, tol)
                assert sign_flag(bounds, 2.0 * tol) is want, (sec_min, sec_max, tol)


def _sweep_settings(rng):
    """3,400 seeded catalog settings: 600 per parametrized model with
    magnitudes from 1e-160 to 1e150 (half the surface products with a = b),
    and 400 sphere4 radii from 3,000 to 5,000, across the Zero threshold
    1/r^2 = CLASSIFY_TOL near r = 3162."""
    mag = 10.0 ** rng.uniform(-160.0, 150.0, (600, 6))
    mag[:, 2:4] *= rng.choice((-1.0, 1.0), (600, 2))
    settings = []
    for (r1, r2, a, b, s, t), equal in zip(mag.tolist(), rng.random(600) < 0.5):
        settings += [("sphere4", {"r": r1}), ("hyperbolic4", {"r": r2}),
                     ("surfaceProduct", {"a": a, "b": a if equal else b}),
                     ("fubiniStudy", {"s": s}), ("bergman", {"s": -t})]
    return settings + [("sphere4", {"r": r}) for r in rng.uniform(3000.0, 5000.0, 400).tolist()]


def test_catalog_sign_flags_match_reference_sweep(rng):
    settings = _sweep_settings(rng)
    assert len(settings) == 3400
    seen = set()
    for name, params in settings:
        try:
            m = catalog(name, params)
        except FourcurvError:  # entries past the float range
            continue
        d = m.decomposition
        if m.flags.einstein:
            want = _einstein_sign_reference(*einstein_sec_range(d),
                                              curvops.CLASSIFY_TOL * max(1.0, abs(d.s)))
        else:
            want = curvature_sign_of(certify_sec_sign(m.operator))
        assert m.flags.sec_sign is want, (name, params)
        if name == "sphere4" and 3000.0 <= params["r"] <= 5000.0:
            seen.add(m.flags.sec_sign)
    assert seen == {CurvatureSign.ZERO, CurvatureSign.NON_NEGATIVE}


def test_unknown_model_and_bad_parameters():
    with pytest.raises(UnknownModelError):
        catalog("torus")
    with pytest.raises(BadParameterError):
        catalog("sphere4", {"r": -1.0})
    with pytest.raises(BadParameterError):
        catalog("fubiniStudy", {"s": -5.0})
    with pytest.raises(BadParameterError):
        catalog("bergman", {"s": 5.0})
    with pytest.raises(BadParameterError):
        catalog("flat", {"r": 1.0})


def test_model_names_stable():
    assert set(model_names()) == {
        "flat", "sphere4", "hyperbolic4", "surfaceProduct", "fubiniStudy", "bergman"}


def test_flat_chart_metric():
    chart = chart_for("flatChart")
    assert np.array_equal(chart.metric_at(np.zeros(4)), np.eye(4))


def test_sphere_product_chart_special_point():
    chart = chart_for("sphereProductChart", {"a": 1.0, "b": 1.0})
    point = np.array([np.pi / 2, 0.0, np.pi / 2, 0.0])
    assert np.allclose(chart.metric_at(point), np.eye(4), atol=1e-15)


def test_unknown_chart():
    with pytest.raises(UnknownChartError):
        chart_for("minkowski")
    with pytest.raises(BadParameterError):
        chart_for("sphereProductChart", {"a": -1.0})


def test_chart_reference_operator_refuses_unknown_names_and_keys():
    with pytest.raises(UnknownChartError):
        chart_reference_operator("minkowski")
    for name in ("flatChart", "sphereProductChart", "hyperbolic4HalfSpace"):
        with pytest.raises(BadParameterError):
            chart_reference_operator(name, {"c": 1.0})


def test_chart_reference_operators():
    assert np.array_equal(chart_reference_operator("flatChart").matrix, np.zeros((6, 6)))
    ref = chart_reference_operator("sphereProductChart", {"a": 1.0, "b": 2.0})
    assert np.array_equal(ref.matrix, np.diag([1.0, 0, 0, 0, 0, 2.0]))
    assert np.array_equal(chart_reference_operator("hyperbolic4HalfSpace").matrix,
                          -np.eye(6))


def test_model_spec_json_round_trip():
    model = catalog("surfaceProduct", {"a": -1.0, "b": -1.0})
    data = model.to_dict()
    assert data["glReport"]["coverClass"] == "HyperbolicPlaneProduct"
    assert data["flags"]["secSign"] == "NonPositive"
    op = curvops.CurvatureOperator.from_dict(data["operator"])
    assert np.array_equal(op.matrix, model.operator.matrix)
