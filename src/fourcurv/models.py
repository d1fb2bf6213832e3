"""Catalog of exact model curvature operators and analytic metric charts.

The catalog entries are the constant-curvature spaces, surface products and
the two standard Kahler models, stored with exactly representable matrix
entries so the rest of the code can test against them bit-for-bit:

    flat                 zero operator
    sphere4(r)           (1/r^2) * Id          round 4-sphere
    hyperbolic4(r)       -(1/r^2) * Id         hyperbolic 4-space
    surfaceProduct(a,b)  diag(a,0,0,0,0,b)     product of curvature-a and -b
                                               surfaces (mixed planes flat)
    fubiniStudy(s)       W+ spectrum (-s/12, -s/12, s/6), W- = 0, s > 0
    bergman(s)           same spectrum pattern with s < 0

The Kahler models are stored directly through their Weyl spectrum pattern;
both satisfy |W+|^2 = s^2/24 exactly.  Defaults s = 24 and s = -24 make the
spectra integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import curvops, numgeom, secsign
from .curvops import COORDINATE, CoverClass, CurvatureOperator, CurvatureSign, Decomposition
from .errors import BadParameterError, UnknownChartError
from .errors import UnknownModelError


@dataclass(frozen=True)
class ModelFlags:
    einstein: bool
    kahler: bool
    sec_sign: CurvatureSign

    def to_dict(self) -> dict:
        return {
            "einstein": self.einstein,
            "kahler": self.kahler,
            "secSign": self.sec_sign.value,
        }


@dataclass(frozen=True, eq=False)
class ModelSpec:
    name: str
    parameters: dict
    operator: CurvatureOperator
    decomposition: Decomposition
    flags: ModelFlags
    known_cover: CoverClass | None

    def to_dict(self) -> dict:
        report = curvops.gl_defect(self.decomposition)
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "operator": self.operator.to_dict(),
            "decomposition": self.decomposition.to_dict(),
            "glReport": report.to_dict(),
            "flags": self.flags.to_dict(),
            "knownCover": None if self.known_cover is None else self.known_cover.value,
        }


def _require_positive(params: dict, key: str):
    if params[key] <= 0:
        raise BadParameterError(f"parameter {key!r} must be positive, got {params[key]}")


def _operator_matrix(name: str, params: dict) -> np.ndarray:
    if name == "flat":
        return np.zeros((6, 6))
    if name == "sphere4":
        _require_positive(params, "r")
        return np.eye(6) / params["r"] ** 2
    if name == "hyperbolic4":
        _require_positive(params, "r")
        return -np.eye(6) / params["r"] ** 2
    if name == "surfaceProduct":
        a, b = params["a"], params["b"]
        return np.diag([a, 0.0, 0.0, 0.0, 0.0, b])
    if name in ("fubiniStudy", "bergman"):
        s = params["s"]
        if name == "fubiniStudy" and s <= 0:
            raise BadParameterError("fubiniStudy requires s > 0")
        if name == "bergman" and s >= 0:
            raise BadParameterError("bergman requires s < 0")
        # SD/ASD basis: A = s/12 + W+, C = s/12, Kahler spectrum pattern
        A = np.diag([0.0, 0.0, s / 4.0]) if s > 0 else np.diag([s / 4.0, 0.0, 0.0])
        M = np.zeros((6, 6))
        M[:3, :3] = A
        M[3:, 3:] = (s / 12.0) * np.eye(3)
        return M
    raise UnknownModelError(f"unknown model {name!r}")


_DEFAULTS: dict[str, dict] = {
    "flat": {},
    "sphere4": {"r": 1.0},
    "hyperbolic4": {"r": 1.0},
    "surfaceProduct": {"a": 1.0, "b": 1.0},
    "fubiniStudy": {"s": 24.0},
    "bergman": {"s": -24.0},
}


def model_names() -> tuple[str, ...]:
    return tuple(_DEFAULTS)


def _sec_sign_flag(op: CurvatureOperator, d: Decomposition) -> CurvatureSign:
    if not d.is_einstein():
        return secsign.curvature_sign_of(secsign.certify_sec_sign(op))
    sec_min, sec_max = secsign.einstein_sec_range(d)
    tol = curvops.CLASSIFY_TOL * max(1.0, abs(d.s))
    if abs(sec_min) <= tol and abs(sec_max) <= tol:
        return CurvatureSign.ZERO
    if sec_min >= -tol:
        return CurvatureSign.NON_NEGATIVE
    if sec_max <= tol:
        return CurvatureSign.NON_POSITIVE
    return CurvatureSign.INDEFINITE


def _known_cover(name: str, params: dict, d: Decomposition,
                 sign: CurvatureSign) -> CoverClass | None:
    if name == "flat":
        return CoverClass.FLAT
    if name == "surfaceProduct" and params["a"] == params["b"] and params["a"] != 0:
        return (CoverClass.SPHERE_PRODUCT if params["a"] > 0
                else CoverClass.HYPERBOLIC_PLANE_PRODUCT)
    if name == "surfaceProduct" and params["a"] == params["b"] == 0:
        return CoverClass.FLAT
    return None


def catalog(name: str, parameters: Mapping[str, float] | None = None) -> ModelSpec:
    """Build a catalog model, verifying its flags at construction.

    Unknown parameter keys raise :class:`BadParameterError`; missing ones
    take the documented defaults.
    """
    if name not in _DEFAULTS:
        raise UnknownModelError(f"unknown model {name!r}; choose from {sorted(_DEFAULTS)}")
    params = dict(_DEFAULTS[name])
    for key, value in (parameters or {}).items():
        if key not in params:
            raise BadParameterError(f"model {name!r} takes no parameter {key!r}")
        params[key] = float(value)
    basis = curvops.SD_ASD if name in ("fubiniStudy", "bergman") else COORDINATE
    op = CurvatureOperator(_operator_matrix(name, params), basis=basis)
    d = curvops.decompose(op)
    sign = _sec_sign_flag(op, d)
    flags = ModelFlags(einstein=d.is_einstein(), kahler=d.is_kahler(), sec_sign=sign)
    return ModelSpec(
        name=name,
        parameters=params,
        operator=op,
        decomposition=d,
        flags=flags,
        known_cover=_known_cover(name, params, d, sign),
    )


# ---------------------------------------------------------------------------
# Analytic metric charts (validation targets for the finite-difference path)
# ---------------------------------------------------------------------------

def _flat_chart_metric(x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.eye(4), np.shape(x)[:-1] + (4, 4))


def _sphere_product_metric(a: float, b: float) -> Callable[[np.ndarray], np.ndarray]:
    # S^2(1/sqrt(a)) x S^2(1/sqrt(b)) in spherical coordinates per factor
    def metric(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (4, 4))
        g[..., 0, 0] = 1.0 / a
        g[..., 1, 1] = np.sin(x[..., 0]) ** 2 / a
        g[..., 2, 2] = 1.0 / b
        g[..., 3, 3] = np.sin(x[..., 2]) ** 2 / b
        return g

    return metric


def _hyperbolic_half_space_metric(x: np.ndarray) -> np.ndarray:
    return np.eye(4) / np.asarray(x, dtype=float)[..., 3, None, None] ** 2


_CHART_DEFAULTS: dict[str, dict] = {
    "flatChart": {},
    "sphereProductChart": {"a": 1.0, "b": 1.0},
    "hyperbolic4HalfSpace": {},
}


def chart_names() -> tuple[str, ...]:
    return tuple(_CHART_DEFAULTS)


def chart_for(name: str, parameters: Mapping[str, float] | None = None) -> numgeom.MetricChart:
    """An analytic chart whose exact frame curvature is a catalog operator."""
    if name not in _CHART_DEFAULTS:
        raise UnknownChartError(f"unknown chart {name!r}; choose from {sorted(_CHART_DEFAULTS)}")
    params = dict(_CHART_DEFAULTS[name])
    for key, value in (parameters or {}).items():
        if key not in params:
            raise BadParameterError(f"chart {name!r} takes no parameter {key!r}")
        params[key] = float(value)
    if name == "flatChart":
        return numgeom.MetricChart(
            domain=((-10.0, 10.0),) * 4,
            metric_at=_flat_chart_metric,
            suggested_step=0.01,
            name=name,
            depends_on=(),
        )
    if name == "sphereProductChart":
        a, b = params["a"], params["b"]
        if a <= 0 or b <= 0:
            raise BadParameterError("sphereProductChart needs positive curvatures a, b")
        return numgeom.MetricChart(
            domain=((0.0, np.pi), (-np.pi, np.pi), (0.0, np.pi), (-np.pi, np.pi)),
            metric_at=_sphere_product_metric(a, b),
            suggested_step=0.01,
            name=name,
            depends_on=(0, 2),
        )
    return numgeom.MetricChart(
        domain=((-10.0, 10.0), (-10.0, 10.0), (-10.0, 10.0), (0.05, 20.0)),
        metric_at=_hyperbolic_half_space_metric,
        suggested_step=0.01,
        name=name,
        depends_on=(3,),
    )


def chart_reference_operator(name: str,
                             parameters: Mapping[str, float] | None = None) -> CurvatureOperator:
    """The exact catalog operator a chart must reproduce at interior points."""
    params = dict(_CHART_DEFAULTS.get(name, {}))
    params.update(parameters or {})
    if name == "flatChart":
        return catalog("flat").operator
    if name == "sphereProductChart":
        return catalog("surfaceProduct", {"a": params["a"], "b": params["b"]}).operator
    if name == "hyperbolic4HalfSpace":
        return catalog("hyperbolic4", {"r": 1.0}).operator
    raise UnknownChartError(f"unknown chart {name!r}")
