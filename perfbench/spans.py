"""Span recording around the public functions of each fourcurv module.

The wrappers live here, in the benchmark, so the program itself is unchanged.
``Tracer.install()`` rebinds every module attribute that callers look up (a
function imported by name into another module is a binding of its own and is
wrapped there too); ``uninstall()`` restores the originals.

Each call records one span: name, start, end, parent span and request id.
Spans stay in memory (flat arrays) until the run ends.  Counters (matrices
handed to numpy eigen/SVD solvers, Cholesky factorisations, metric points,
quadrature nodes) are charged to the innermost open span, so a span's
inclusive count is the sum over its subtree.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module path, attribute path).  Several bindings can share a span
# name: the span names the layer function, the binding is where callers find it.
WRAPPED = (
    ("cli.main", "fourcurv.cli", "main"),
    ("cli.load", "fourcurv.jsonio", "load_operator"),
    ("cli.dumps", "fourcurv.jsonio", "dumps"),
    ("curvops.decompose", "fourcurv.curvops", "decompose"),
    ("curvops.decompose", "fourcurv.secsign", "decompose"),
    ("curvops.gl_defect", "fourcurv.curvops", "gl_defect"),
    ("curvops.char_densities", "fourcurv.curvops", "char_densities"),
    ("models.catalog", "fourcurv.models", "catalog"),
    ("models.to_dict", "fourcurv.models", "ModelSpec.to_dict"),
    ("secsign.certify", "fourcurv.secsign", "certify_sec_sign"),
    ("secsign.einstein_witness", "fourcurv.secsign", "einstein_extreme_witnesses"),
    ("numgeom.curvature_at", "fourcurv.numgeom", "curvature_at"),
    ("numgeom.quadrature", "fourcurv.numgeom", "orbit_quadrature"),
    ("page.page_metric", "fourcurv.page", "page_metric"),
    ("page.verify", "fourcurv.page", "verify_einstein"),
    ("page.negcurv", "fourcurv.page", "certify_negative_curvature"),
    ("page.integrate", "fourcurv.page", "integrate_char_numbers"),
    ("page.orbit_curvature", "fourcurv.page", "orbit_curvature"),
    ("geography.report", "fourcurv.geography", "report"),
    ("geography.scan_csv", "fourcurv.geography", "scan_csv"),
)

# numpy.linalg solvers whose matrix count is charged to the open span
EIGEN_SOLVERS = ("eig", "eigh", "eigvals", "eigvalsh", "svd")

LAYERS = ("cli", "curvops", "models", "secsign", "numgeom", "page", "geography")


def _matrices(a) -> int:
    shape = np.shape(a)
    n = 1
    for dim in shape[:-2]:
        n *= dim
    return n


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._stack = [-1]
        self.request_id = -1
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # -- recording ---------------------------------------------------------
    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, counter: str, n: int = 1) -> None:
        top = self._stack[-1]
        if top >= 0:
            self.counts[counter][top] += n

    def _span(self, name: str, fn):
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.request.append(tracer.request_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()

        return wrapper

    def _counting(self, counter: str, fn):
        """Charge the matrices passed to a numpy.linalg solver to the open span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            tracer.count(counter, _matrices(a))
            return fn(a, *args, **kwargs)

        return wrapper

    def _curvature_at(self, fn):
        """Hand ``curvature_at`` a chart whose ``metric_at`` counts points."""
        tracer = self

        def counted_chart(chart):
            inner = chart.metric_at

            def metric_at(x):
                tracer.count("metric_points", np.size(x) // 4)
                return inner(x)

            return dataclasses.replace(chart, metric_at=metric_at)

        @functools.wraps(fn)
        def wrapper(chart, *args, **kwargs):
            return fn(counted_chart(chart), *args, **kwargs)

        return wrapper

    def _quadrature(self, fn):
        """Count integrand evaluations (quadrature nodes) of ``orbit_quadrature``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(t):
                tracer.count("quadrature_nodes")
                return f(t)

            return fn(counted, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------
    def _build(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding."""
        bindings = []
        for name, module_path, attr_path in WRAPPED:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr]
            fn = original
            if name == "numgeom.curvature_at":
                fn = self._curvature_at(fn)
            elif name == "numgeom.quadrature":
                fn = self._quadrature(fn)
            bindings.append((owner, attr, original, self._span(name, fn)))
        for solver in EIGEN_SOLVERS:
            original = getattr(np.linalg, solver)
            bindings.append((np.linalg, solver, original, self._counting("eigensolves", original)))
        original = np.linalg.cholesky
        bindings.append((np.linalg, "cholesky", original, self._counting("cholesky", original)))
        return bindings

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._build()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings or ():
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------
    def to_rows(self) -> dict:
        """Plain-data form, for passing spans between processes."""
        return {
            "names": [self.names[i] for i in self.name_id],
            "start": list(self.start), "end": list(self.end),
            "parent": list(self.parent), "request": list(self.request),
            "counts": {c: {str(k): v for k, v in per.items()}
                       for c, per in self.counts.items()},
        }


class SpanSet:
    """Spans merged from one or more tracers, with durations and self times."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.counts: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))

    def add(self, rows: dict, request_id: int | None = None) -> None:
        base = len(self.name)
        self.name.extend(rows["names"])
        self.start.extend(rows["start"])
        self.end.extend(rows["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in rows["parent"])
        if request_id is None:
            self.request.extend(rows["request"])
        else:
            self.request.extend([request_id] * len(rows["names"]))
        for counter, per in rows["counts"].items():
            for k, v in per.items():
                self.counts[counter][int(k) + base] += v

    def analyse(self) -> None:
        n = len(self.name)
        self.dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.dur[i]
        self.self_time = [self.dur[i] - child_time[i] for i in range(n)]
        # inclusive counters: children close before their parents, so a
        # reverse sweep over span indices (parents have smaller indices)
        # accumulates each subtree into its root
        self.inclusive: dict[str, list[int]] = {}
        for counter, per in self.counts.items():
            acc = [0] * n
            for k, v in per.items():
                acc[k] += v
            for i in range(n - 1, -1, -1):
                p = self.parent[i]
                if p >= 0:
                    acc[p] += acc[i]
            self.inclusive[counter] = acc
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.name):
            self.by_name[name].append(i)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [self.dur[i] for i in self.by_name.get(name, ())]

    def self_times(self, name: str) -> list[float]:
        return [self.self_time[i] for i in self.by_name.get(name, ())]

    def counted(self, counter: str, name: str) -> int:
        acc = self.inclusive.get(counter)
        if acc is None:
            return 0
        return sum(acc[i] for i in self.by_name.get(name, ()))

    def total(self, counter: str) -> int:
        return sum(self.counts.get(counter, {}).values())

    def layer_self(self, layer: str) -> float:
        return sum(self.self_time[i] for i, name in enumerate(self.name)
                   if name.split(".", 1)[0] == layer)

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == name:
                return True
            p = self.parent[p]
        return False

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,request\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.request[i]}\n")

