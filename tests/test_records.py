"""The contract of the public records: read-only fields, the report keys, copies
and pickles of the same type, and identity comparison for the records that hold
arrays."""

import copy
import pickle

import numpy as np
import pytest

from fourcurv import curvops, geography, models, numgeom, page, secsign


def _operator():
    return curvops.CurvatureOperator(np.diag([1.0, 2.0, 3.0, 3.0, 2.0, 1.0]))


def _stack():
    return numgeom.curvature_at(models.chart_for("flatChart"), np.zeros((2, 4)))


def _page_orbits():
    return page.page_metric(), [1.0, 2.0]


WITNESS_KEYS = ["psiPlus", "psiMinus", "qValue", "secValue"]
DECOMPOSITION_KEYS = ["s", "wPlus", "wMinus", "ricBlock", "spectra"]
GL_KEYS = ["defect", "normWPlus", "normWMinus", "equalityBranch", "saturated", "coverClass"]

# (name, builder, a field, the keys of to_dict() or None, holds arrays)
RECORDS = [
    ("CurvatureOperator", _operator, "matrix", ["basis", "matrix"], True),
    ("Decomposition", lambda: curvops.decompose(_operator()), "w_plus", DECOMPOSITION_KEYS, True),
    ("GLReport", lambda: curvops.gl_defect(curvops.decompose(_operator())), "defect", GL_KEYS,
     False),
    ("CharDensities", lambda: curvops.char_densities(curvops.decompose(_operator())),
     "euler_density", ["eulerDensity", "signatureDensity", "ratio"], False),
    ("KahlerSignatureCheck",
     lambda: curvops.kahler_signature_check(models.catalog("fubiniStudy").decomposition),
     "density", ["density", "nonNegative"], False),
    ("PointCurvature", lambda: _stack()[0], "operator",
     ["operator", "ricci", "einsteinResidual", "stepUsed", "errorEstimate"], True),
    ("CurvatureStack", _stack, "operators", None, True),
    ("ConvergenceStudy", lambda: numgeom.convergence_study(
        models.chart_for("flatChart"), np.zeros(4), [0.02, 0.01, 0.005]),
     "steps", ["steps", "errors", "slope"], False),
    ("MetricChart", lambda: models.chart_for("flatChart"), "domain", None, False),
    ("PlaneWitness", lambda: secsign.certify_sec_sign(_operator()).max_witness, "psi_plus",
     WITNESS_KEYS, True),
    ("SecSignCertificate", lambda: secsign.certify_sec_sign(_operator()), "verdict",
     ["qMaxLower", "qMaxUpper", "qMinLower", "qMinUpper", "maxWitness", "minWitness",
      "verdict", "method"], False),
    ("ModelFlags", lambda: models.catalog("sphere4").flags, "einstein",
     ["einstein", "kahler", "secSign"], False),
    ("ModelSpec", lambda: models.catalog("sphere4"), "operator",
     ["name", "parameters", "operator", "decomposition", "glReport", "flags", "knownCover"],
     False),
    ("CohomOneMetric", page.page_metric, "metadata", None, False),
    ("EndpointData", lambda: page.page_metric().endpoint_data()[0], "v_limit",
     ["vLimit", "wSlopeProper"], False),
    ("EinsteinCheck", lambda: page.verify_einstein(*_page_orbits()), "max_residual",
     ["maxResidual", "lambda", "lambdaSpread", "radii", "residuals"], False),
    ("NegativeCurvatureReport", lambda: page.certify_negative_curvature(*_page_orbits()),
     "min_sec", ["minSec", "witnessRadius", "witness", "glDefectRange"], False),
    ("CharNumbers", lambda: page.integrate_char_numbers(page.page_metric(), nodes=16), "chi",
     ["chi", "tau", "nodes", "doublingDelta"], False),
    ("LatticeObstruction", geography.self_dual_lattice_obstruction, "tau",
     ["applicable", "tauValue", "chiValue", "integral"], False),
    ("GeoReport", lambda: geography.report(geography.GeoPoint(3, 1)), "c1sq",
     ["gromovLuck", "einsteinNonPosStrict", "bmy", "bmyEquality", "c1sq",
      "bothOrientationsComplexPossible"], False),
]


@pytest.mark.parametrize("name, build, field, keys, holds_arrays", RECORDS,
                         ids=[r[0] for r in RECORDS])
def test_record_contract(name, build, field, keys, holds_arrays):
    record = build()
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value
    if keys is not None:
        assert list(record.to_dict()) == keys
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        if keys is not None:
            assert clone.to_dict() == record.to_dict()
    if name != "CohomOneMetric":  # its profiles are closures
        assert type(pickle.loads(pickle.dumps(record))) is type(record)
    if holds_arrays:  # another record of the same values is another record
        twin = build()
        assert record == record
        assert (record == twin) is False and (record != twin) is True
