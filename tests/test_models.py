"""Catalog and chart construction tests."""

import numpy as np
import pytest

from fourcurv import curvops
from fourcurv.curvops import CoverClass, CurvatureSign, classify_equality
from fourcurv.errors import BadParameterError, UnknownChartError, UnknownModelError
from fourcurv.models import catalog, chart_for, chart_reference_operator, model_names
from fourcurv.secsign import certify_sec_sign, curvature_sign_of


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
