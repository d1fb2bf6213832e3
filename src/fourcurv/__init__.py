"""Numerical curvature algebra of oriented Einstein 4-manifolds.

Submodules:

    curvops    the SD/ASD frame change, curvature-operator decomposition,
               the pointwise Weyl bound and its saturation classifier,
               characteristic densities
    models     exact catalog operators and analytic validation charts
    secsign    sectional-curvature evaluation and sign certification
    numgeom    finite-difference curvature of metric charts, quadrature
    page       the Page metric pipeline
    geography  exact (chi, tau) lattice arithmetic
    names      catalog model and chart names, 2-form basis labels
    cli        command-line interface

The names in ``__all__`` are imported from their submodule on first use
(PEP 562), so ``import fourcurv`` loads no submodule and the geography
commands run without numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in {
    "curvops": ("CharDensities", "CoverClass", "CurvatureOperator", "CurvatureSign",
                "Decomposition", "EqualityBranch", "GLReport",
                "char_densities", "classify_equality", "decompose", "gl_defect",
                "kahler_signature_check", "recompose"),
    "geography": ("GeoPoint", "GeoReport", "report", "scan_csv",
                  "self_dual_lattice_obstruction"),
    "models": ("ModelSpec", "catalog", "chart_for"),
    "numgeom": ("MetricChart", "PointCurvature", "convergence_study", "curvature_at",
                "orbit_quadrature"),
    "page": ("CohomOneMetric", "certify_negative_curvature", "integrate_char_numbers",
             "page_metric", "verify_einstein"),
    "secsign": ("PlaneWitness", "SecSignCertificate", "Verdict",
                "certify_sec_sign", "einstein_sec_range", "q_form", "sec_of_plane"),
}.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
