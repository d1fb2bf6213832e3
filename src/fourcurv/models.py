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

The Kahler models are stored directly in the SD/ASD frame, with the
self-dual block A = (s/4) e3 e3^T or (s/4) e1 e1^T of rank one and no Ricci
block, so they pass the exact Kahler test and |W+|^2 = s^2/24 holds exactly.
Defaults s = 24 and s = -24 make the spectra integers.  The round and
hyperbolic 4-spaces are not Kahler at any r: their A = +-(1/r^2) I has rank 3.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import curvops, secsign
from .curvops import COORDINATE, CoverClass, CurvatureOperator, CurvatureSign, Decomposition
from .errors import BadParameterError, UnknownChartError
from .errors import UnknownModelError
from .names import CHART_DEFAULTS, MODEL_DEFAULTS
from .names import chart_names, model_names  # noqa: F401 (re-exported)


class ModelFlags(NamedTuple):
    einstein: bool
    kahler: bool
    sec_sign: CurvatureSign

    def to_dict(self) -> dict:
        return {
            "einstein": self.einstein,
            "kahler": self.kahler,
            "secSign": self.sec_sign.value,
        }


class ModelSpec(NamedTuple):
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


def _inverse_square(r: float) -> float:
    """``1 / r**2`` for the radius r, refused unless positive and finite.
    Where r^2 overflows it is ``1 / r / r``, so a subnormal 1/r^2 is valid."""
    if r <= 0:
        raise BadParameterError(f"parameter 'r' must be positive, got {r}")
    try:
        inv = 1.0 / r ** 2
    except OverflowError:
        inv = 1.0 / r / r
    except ZeroDivisionError:  # r^2 underflows to 0
        inv = math.inf
    if not 0.0 < inv < math.inf:
        raise BadParameterError(f"parameter 'r' = {r!r} puts 1/r^2 outside the float range")
    return inv


def _operator_matrix(name: str, params: dict) -> tuple[np.ndarray, str]:
    """The matrix of catalog model ``name`` and its basis tag."""
    if name == "flat":
        return np.zeros((6, 6)), COORDINATE
    if name in ("sphere4", "hyperbolic4"):
        inv = _inverse_square(params["r"])
        return np.eye(6) * (inv if name == "sphere4" else -inv), COORDINATE
    if name == "surfaceProduct":
        a, b = params["a"], params["b"]
        return np.diag([a, 0.0, 0.0, 0.0, 0.0, b]), COORDINATE
    s = params["s"]  # fubiniStudy or bergman
    if name == "fubiniStudy" and s <= 0:
        raise BadParameterError("fubiniStudy requires s > 0")
    if name == "bergman" and s >= 0:
        raise BadParameterError("bergman requires s < 0")
    if not math.isfinite(s):
        raise BadParameterError(f"parameter 's' must be finite, got {s!r}")
    # SD/ASD basis: A = s/12 + W+, C = s/12, Kahler spectrum pattern
    A = np.diag([0.0, 0.0, s / 4.0]) if s > 0 else np.diag([s / 4.0, 0.0, 0.0])
    return curvops._sd_block(A, np.zeros((3, 3)), (s / 12.0) * np.eye(3)), curvops.SD_ASD


def _sec_sign_flag(op: CurvatureOperator, d: Decomposition) -> CurvatureSign:
    if not d.is_einstein():
        return secsign.curvature_sign_of(secsign.certify_sec_sign(op))
    # the exact range as q = 2 sec bounds; doubling is exact
    sec_min, sec_max = secsign.einstein_sec_range(d)
    bounds = (2.0 * sec_max, 2.0 * sec_max, 2.0 * sec_min, 2.0 * sec_min)
    return secsign.sign_flag(bounds, 2.0 * curvops.CLASSIFY_TOL * max(1.0, abs(d.s)))


def _known_cover(name: str, params: dict) -> CoverClass | None:
    if name == "flat":
        return CoverClass.FLAT
    if name == "surfaceProduct" and params["a"] == params["b"] and params["a"] != 0:
        return (CoverClass.SPHERE_PRODUCT if params["a"] > 0
                else CoverClass.HYPERBOLIC_PLANE_PRODUCT)
    if name == "surfaceProduct" and params["a"] == params["b"] == 0:
        return CoverClass.FLAT
    return None


def _parameters(kind: str, defaults: dict[str, dict], unknown: type[Exception],
                name: str, parameters: Mapping[str, float] | None) -> dict:
    """The parameters of catalog entry ``name``: its defaults from
    ``defaults``, updated by ``parameters`` as floats.  An unknown name
    raises ``unknown``, an unknown key :class:`BadParameterError`."""
    if name not in defaults:
        raise unknown(f"unknown {kind} {name!r}; choose from {sorted(defaults)}")
    params = dict(defaults[name])
    for key, value in (parameters or {}).items():
        if key not in params:
            raise BadParameterError(f"{kind} {name!r} takes no parameter {key!r}")
        params[key] = float(value)
    return params


def catalog(name: str, parameters: Mapping[str, float] | None = None) -> ModelSpec:
    """Build a catalog model, verifying its flags at construction.

    Unknown parameter keys raise :class:`BadParameterError`; missing ones
    take the documented defaults.
    """
    params = _parameters("model", MODEL_DEFAULTS, UnknownModelError, name, parameters)
    op = CurvatureOperator(*_operator_matrix(name, params))
    d = curvops.decompose(op)
    flags = ModelFlags(einstein=d.is_einstein(), kahler=d.is_kahler(),
                       sec_sign=_sec_sign_flag(op, d))
    return ModelSpec(
        name=name,
        parameters=params,
        operator=op,
        decomposition=d,
        flags=flags,
        known_cover=_known_cover(name, params),
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


def chart_for(name: str, parameters: Mapping[str, float] | None = None) -> numgeom.MetricChart:
    """An analytic chart whose exact frame curvature is a catalog operator."""
    from . import numgeom  # not loaded by the catalog commands

    params = _parameters("chart", CHART_DEFAULTS, UnknownChartError, name, parameters)
    if name == "flatChart":
        return numgeom.MetricChart(
            domain=((-10.0, 10.0),) * 4,
            metric_at=_flat_chart_metric,
            depends_on=(),
        )
    if name == "sphereProductChart":
        a, b = params["a"], params["b"]
        if a <= 0 or b <= 0:
            raise BadParameterError("sphereProductChart needs positive curvatures a, b")
        for key, k in params.items():
            if not 1.0 / k < math.inf:  # the metric entries 1/a, 1/b
                raise BadParameterError(
                    f"parameter {key!r} = {k!r} puts 1/{key} outside the float range")
        return numgeom.MetricChart(
            domain=((0.0, np.pi), (-np.pi, np.pi), (0.0, np.pi), (-np.pi, np.pi)),
            metric_at=_sphere_product_metric(a, b),
            depends_on=(0, 2),
        )
    return numgeom.MetricChart(
        domain=((-10.0, 10.0), (-10.0, 10.0), (-10.0, 10.0), (0.05, 20.0)),
        metric_at=_hyperbolic_half_space_metric,
        depends_on=(3,),
    )


# the catalog model each chart reproduces, taking the chart's parameters
_CHART_MODEL = {
    "flatChart": "flat",
    "sphereProductChart": "surfaceProduct",
    "hyperbolic4HalfSpace": "hyperbolic4",
}


def chart_reference_operator(name: str,
                             parameters: Mapping[str, float] | None = None) -> CurvatureOperator:
    """The exact catalog operator a chart must reproduce at interior points."""
    params = _parameters("chart", CHART_DEFAULTS, UnknownChartError, name, parameters)
    return catalog(_CHART_MODEL[name], params).operator
