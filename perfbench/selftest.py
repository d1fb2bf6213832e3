"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Each workload's checker passes a real result and rejects one planted
   wrong result: a flipped verdict and an upper bound below its witness
   (certify), chi off by 0.01 (page), one flipped CSV flag (geo).  On the
   known-defect probes, a planted bound below its witness counts as the
   documented defect, a planted flipped verdict does not, and the
   program's own probe results fail in no other way.
2. Every span wrapper and counter records at least one call on the
   workload where its layer does the work, and every binding of a function
   imported by name into another module is wrapped there too.
3. BENCHMARK.json names the workloads and metrics that run.py reports.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

import run  # noqa: E402

run.load_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import WRAPPED  # noqa: E402

SEED = 20251017
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def first_input(wl, kind: str, workdir: Path):
    for i in range(200):
        inp = wl.make(SEED, i)
        if inp.kind == kind:
            wl.prepare(inp, workdir)
            return i, inp
    raise LookupError(kind)


def planted_certify(workdir: Path) -> None:
    wl = workloads.CertifyGeneric()
    i, inp = first_input(wl, "nonpos", workdir)
    decomposed, certified = wl.execute(inp)
    real = wl.check(inp, (decomposed, certified), SEED, i)
    expect(not real.reasons, "certify: real certificate passes")

    cert = json.loads(certified)
    if cert["verdict"] == "Inconclusive":
        cert["verdict"] = "NonPositive"
    flipped = dict(cert, verdict="NonNegative")
    bad = wl.check(inp, (decomposed, json.dumps(flipped)), SEED, i)
    expect(bool(bad.reasons) and not bad.known, "certify: flipped verdict is rejected")

    witness_q = cert["maxWitness"]["qValue"]
    norm = float(sum(x * x for row in inp.data["matrix"] for x in row) ** 0.5)
    low = dict(cert, qMaxUpper=witness_q - 1e-6 * norm)
    bad = wl.check(inp, (decomposed, json.dumps(low)), SEED, i)
    expect(bool(bad.reasons), "certify: upper bound below its witness is rejected")
    wl.cleanup(inp)


def planted_page(workdir: Path) -> None:
    wl = workloads.PagePipeline()
    inp = workloads.Input("page", {"radii": 16, "nodes": 24, "workdir": workdir})
    res = wl.execute(inp)
    reasons, _ = checks.check_page(res.returncode, res.stdout)
    expect(not reasons, "page: real output passes")
    out = json.loads(res.stdout)
    out["charNumbers"]["chi"] += 0.01
    reasons, _ = checks.check_page(0, json.dumps(out).encode())
    expect(bool(reasons), "page: chi off by 0.01 is rejected")
    reasons, _ = checks.check_page(1, res.stdout)
    expect(bool(reasons), "page: nonzero exit code is rejected")


def planted_geo(workdir: Path) -> None:
    wl = workloads.GeoScan()
    for inp in (wl.make(SEED, 1), workloads.Input("scan", {"chi_max": 40})):
        wl.prepare(inp, workdir)
        rc, text = wl.execute(inp)
        expect(not wl.check(inp, (rc, text), SEED, 1).reasons, f"geo: real {inp.kind} output passes")
        rows = text.split("\n")
        fields = rows[7].split(",")
        fields[2] = "false" if fields[2] == "true" else "true"  # gromov_luck
        rows[7] = ",".join(fields)
        bad = wl.check(inp, (rc, "\n".join(rows)), SEED, 1)
        expect(bool(bad.reasons), f"geo: one flipped flag in {inp.kind} output is rejected")
        wl.cleanup(inp)


def probes(workdir: Path) -> None:
    """Probe outcomes are sorted into the documented defect and anything else.

    The program's own probe results are only reported: a fix of a defect
    must leave this test passing.
    """
    for name in ("certify-generic", "certify-einstein"):
        wl = workloads.WORKLOADS[name]()
        defects, other = run.run_probe(wl, SEED, workdir)
        expect(not other, f"{name}: no probe fails other than by its documented defect "
                          f"({defects} of {wl.probe_requests} show it)"
                          + (f"; other failures {other[:2]}" if other else ""))
    wl = workloads.CertifyEinstein()
    inp = wl.probe_input(SEED, 0)
    wl.prepare(inp, workdir)
    decomposed, certified = wl.execute(inp)
    cert = json.loads(certified)
    q = cert["maxWitness"]["qValue"]
    below = q - 1e-3 * abs(q) - 1e-6
    low = json.dumps(dict(cert, qMaxUpper=below, qMaxLower=below))
    bad = wl.check(inp, (decomposed, low), SEED, 0)
    expect(bool(bad.reasons) and bad.known,
           "certify-einstein: a bound below its own witness on a probe input is the defect")
    flipped = json.dumps(dict(cert, verdict="NonNegative" if cert["verdict"] == "NonPositive"
                              else "NonPositive"))
    bad = wl.check(inp, (decomposed, flipped), SEED, 0)
    expect(bool(bad.reasons) and not bad.known,
           "certify-einstein: a flipped verdict on a probe input is not taken for the defect")
    wl.cleanup(inp)


# span names and counters each workload must record
EXPECTED = {
    "certify-generic": {"cli.load", "cli.dumps", "curvops.decompose", "curvops.gl_defect",
                        "curvops.char_densities", "secsign.certify", "#eigensolves"},
    "certify-einstein": {"models.catalog", "models.to_dict", "secsign.certify",
                         "curvops.char_densities", "#eigensolves"},
    "page-pipeline": {"cli.main", "cli.dumps", "page.page_metric", "page.verify",
                      "page.negcurv", "page.integrate", "page.orbit_curvature",
                      "numgeom.curvature_at", "numgeom.quadrature", "secsign.einstein_witness",
                      "curvops.decompose", "curvops.gl_defect", "curvops.char_densities",
                      "#metric_points", "#cholesky", "#quadrature_nodes"},
    "geo-scan": {"cli.main", "geography.report", "geography.scan_csv"},
}
REQUESTS = {"certify-generic": 4, "certify-einstein": 40, "page-pipeline": 1, "geo-scan": 2}


def wrappers(workdir: Path) -> None:
    seen = set()
    for name, wanted in EXPECTED.items():
        wl = workloads.WORKLOADS[name]()
        ss, _, _, _ = run.run_traced(wl, SEED, workdir, REQUESTS[name])
        got = {n for n in ss.by_name} | {"#" + c for c, per in ss.counts.items() if per}
        seen |= got
        missing = wanted - got
        expect(not missing, f"{name}: every expected wrapper records calls"
                            + (f" (missing {sorted(missing)})" if missing else ""))
        if name == "certify-generic":
            via_secsign = any(ss.name[ss.parent[i]] == "secsign.certify"
                              for i in ss.by_name["curvops.decompose"] if ss.parent[i] >= 0)
            expect(via_secsign, "secsign.decompose binding is wrapped")
        if name == "page-pipeline":
            expect(bool(ss.inclusive["metric_points"]), "metric points are counted per point")
    expect({n for n, _, _ in WRAPPED} <= seen, "every wrapped function is exercised somewhere")


def benchmark_file() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
           and [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
           and [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
           == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the metrics and workloads run.py reports")


def main() -> int:
    benchmark_file()
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        planted_certify(workdir)
        planted_page(workdir)
        planted_geo(workdir)
        probes(workdir)
        wrappers(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
