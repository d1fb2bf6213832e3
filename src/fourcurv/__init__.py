"""Numerical curvature algebra of oriented Einstein 4-manifolds.

Submodules:

    curvops    2-form algebra, curvature-operator decomposition, the
               pointwise Weyl bound and its saturation classifier,
               characteristic densities
    models     exact catalog operators and analytic validation charts
    secsign    sectional-curvature evaluation and sign certification
    numgeom    finite-difference curvature of metric charts, quadrature
    page       the Page metric pipeline
    geography  exact (chi, tau) lattice arithmetic
    cli        command-line interface
"""

__version__ = "0.1.0"

from .curvops import (
    CharDensities,
    CoverClass,
    CurvatureOperator,
    CurvatureSign,
    Decomposition,
    EqualityBranch,
    GLReport,
    TwoForm,
    char_densities,
    classify_equality,
    decompose,
    gl_defect,
    kahler_signature_check,
    recompose,
    sd_projectors,
)
from .geography import GeoPoint, GeoReport, report, scan_csv, self_dual_lattice_obstruction
from .models import ModelSpec, catalog, chart_for
from .numgeom import MetricChart, PointCurvature, convergence_study, curvature_at, orbit_quadrature
from .page import (
    CohomOneMetric,
    certify_negative_curvature,
    integrate_char_numbers,
    page_metric,
    verify_einstein,
)
from .secsign import (
    PlaneWitness,
    SecSignCertificate,
    Verdict,
    certify_sec_sign,
    einstein_sec_range,
    q_form,
    sec_of_plane,
)

__all__ = [
    "CharDensities", "CoverClass", "CurvatureOperator", "CurvatureSign",
    "Decomposition", "EqualityBranch", "GLReport", "TwoForm",
    "char_densities", "classify_equality", "decompose", "gl_defect",
    "kahler_signature_check", "recompose", "sd_projectors",
    "GeoPoint", "GeoReport", "report", "scan_csv", "self_dual_lattice_obstruction",
    "ModelSpec", "catalog", "chart_for",
    "MetricChart", "PointCurvature", "convergence_study", "curvature_at",
    "orbit_quadrature",
    "CohomOneMetric", "certify_negative_curvature", "integrate_char_numbers",
    "page_metric", "verify_einstein",
    "PlaneWitness", "SecSignCertificate", "Verdict",
    "certify_sec_sign", "einstein_sec_range", "q_form", "sec_of_plane",
]
