"""Each command imports only what it uses, and the lazy package keeps its API.

The import checks run ``python -X importtime -m fourcurv ...`` in a fresh
interpreter, which names on stderr every module the command imported.
"""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fourcurv

# the package's public names before they were imported lazily
PUBLIC_NAMES = {
    "CharDensities", "CoverClass", "CurvatureOperator", "CurvatureSign",
    "Decomposition", "EqualityBranch", "GLReport",
    "char_densities", "classify_equality", "decompose", "gl_defect",
    "kahler_signature_check", "recompose",
    "GeoPoint", "GeoReport", "report", "scan_csv", "self_dual_lattice_obstruction",
    "ModelSpec", "catalog", "chart_for",
    "MetricChart", "PointCurvature", "convergence_study", "curvature_at",
    "orbit_quadrature",
    "CohomOneMetric", "certify_negative_curvature", "integrate_char_numbers",
    "page_metric", "verify_einstein",
    "PlaneWitness", "SecSignCertificate", "Verdict",
    "certify_sec_sign", "einstein_sec_range", "q_form", "sec_of_plane",
}


def _env() -> dict:
    # the child imports the same package as this process, installed or not
    src = str(Path(fourcurv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def imported_by(args: list[str], cwd: Path, returncode: int = 0) -> set[str]:
    """The modules a fresh ``python -X importtime`` run of ``args`` imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=_env(), cwd=cwd)
    assert proc.returncode == returncode, proc.stderr[-500:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, returncode", [
    (["geo", "--chi", "3", "--tau", "1"], 0),
    (["scan", "--chi-max", "5"], 0),
    (["geo", "--csv", "points.csv"], 0),
    (["-h"], 0),
    (["--version"], 0),
    (["model", "nosuch"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_geography_help_and_errors_start_without_numpy(tmp_path, argv, returncode):
    (tmp_path / "points.csv").write_text("chi,tau\n3,1\n15,8\n", encoding="utf-8")
    modules = imported_by(["-m", "fourcurv", *argv], tmp_path, returncode)
    assert "fourcurv.cli" in modules
    assert "numpy" not in modules


# what the exact geography commands load, and no numerical command needs
GEOGRAPHY_ONLY = {"fourcurv.geography", "csv", "fractions", "decimal"}
# what only a finite-difference chart or the Page metric needs
CHART_ONLY = {"fourcurv.numgeom", "numpy.polynomial"}


def test_certify_loads_no_chart_or_page_module(tmp_path):
    identity = [[float(i == j) for j in range(6)] for i in range(6)]
    (tmp_path / "op.json").write_text(json.dumps({"basis": "coordinate", "matrix": identity}),
                                      encoding="utf-8")
    modules = imported_by(["-m", "fourcurv", "certify", "-i", "op.json"], tmp_path)
    assert "fourcurv.secsign" in modules
    assert not {"fourcurv.page", "fourcurv.models"} & modules
    assert not (CHART_ONLY | GEOGRAPHY_ONLY) & modules


@pytest.mark.parametrize("args", [
    ["-m", "fourcurv", "model", "sphere4"],
    # the imports of the benchmark's certify set-up
    ["-c", "from fourcurv import cli, curvops, jsonio, models, secsign"],
], ids=lambda v: " ".join(v))
def test_catalog_loads_no_chart_module(tmp_path, args):
    modules = imported_by(args, tmp_path)
    assert "fourcurv.models" in modules
    assert not (CHART_ONLY | GEOGRAPHY_ONLY) & modules


# the benchmark's page-pipeline set-up
PAGE_SETUP = ["-c", "from fourcurv import cli, page; cli.build_parser(); page.page_metric()"]


@pytest.mark.parametrize("args", [
    ["-m", "fourcurv", "page", "--verify", "--negcurv", "--integrate", "--radii", "2",
     "--nodes", "16"],
    PAGE_SETUP,
], ids=lambda v: " ".join(v[:4]))
def test_page_loads_no_geography(tmp_path, args):
    modules = imported_by(args, tmp_path)
    assert "fourcurv.page" in modules
    assert not GEOGRAPHY_ONLY & modules


@pytest.mark.parametrize("args, integrates", [
    (["-m", "fourcurv", "chart", "flatChart", "--point", "1,1,1,1"], False),
    (["-m", "fourcurv", "page", "--verify", "--radii", "2"], False),
    (["-m", "fourcurv", "page", "--negcurv", "--radii", "2"], False),
    (PAGE_SETUP, False),
    (["-m", "fourcurv", "page", "--integrate", "--nodes", "16"], True),
], ids=lambda v: " ".join(v[:5]) if isinstance(v, list) else str(v))
def test_only_the_quadrature_loads_numpy_polynomial(tmp_path, args, integrates):
    modules = imported_by(args, tmp_path)
    assert "fourcurv.numgeom" in modules
    assert ("numpy.polynomial" in modules) is integrates


def test_metric_chart_is_the_only_dataclass():
    # records are NamedTuples or slotted classes, whose creation runs no generated code
    for info in pkgutil.iter_modules(fourcurv.__path__):
        if info.name != "__main__":
            importlib.import_module(f"fourcurv.{info.name}")
    records = {f"{cls.__module__}.{cls.__qualname__}"
               for module in list(sys.modules.values())
               if module.__name__.startswith("fourcurv.")
               for cls in vars(module).values()
               if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
               and cls.__module__.startswith("fourcurv")}
    assert records == {"fourcurv.numgeom.MetricChart"}


def test_geo_scan_setup_imports_no_numpy(tmp_path):
    # the imports of the benchmark's geo-scan set-up
    modules = imported_by(["-c", "from fourcurv import cli, geography"], tmp_path)
    assert {"fourcurv.cli", "fourcurv.geography"} <= modules
    assert "numpy" not in modules


def test_every_public_name_is_its_submodule_attribute():
    assert set(fourcurv.__all__) == PUBLIC_NAMES
    assert len(fourcurv.__all__) == len(PUBLIC_NAMES)
    for name in fourcurv.__all__:
        value = getattr(fourcurv, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_dir_star_import_and_unknown_names():
    assert PUBLIC_NAMES <= set(dir(fourcurv))
    namespace: dict = {}
    exec("from fourcurv import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        fourcurv.nosuch  # noqa: B018
