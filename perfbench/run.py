"""fourcurv benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload certify-generic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run over a fixed
number of requests, each also run untraced for the overhead figure.
``--workload all`` runs every workload both ways and prints one table.

Lines starting with ``#`` describe the run; the last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7  # fresh interpreters per run; their median is setup_s
# A run stops taking requests after this much wall time, so that it ends
# within the 180 s a run is allowed even on a much slower program.
WALL_CAP_S = 140.0

WORKLOAD_NAMES = ("certify-generic", "certify-einstein", "page-pipeline", "geo-scan")

# The speed of a shared host drifts by 20% and more over seconds to minutes,
# for the program and for fixed reference work alike, so raw times of runs
# made minutes apart do not agree.  Short chunks of fixed work that does not
# touch the program run between requests, one per Workload.reference_every_s
# of request time, and every time is reported at the reference speed: its
# raw value scaled by the chunk's nominal time over the median of the chunks
# just before and just after it (REF_HALF on each side).  A chunk is made of
# the parts that resemble the measured work (Workload.reference); set-up
# probes, which spawn interpreters, are scaled by spawned reference
# interpreters.  A change to the program cannot move the chunks, so it shows
# in full.  Raw medians go on `#` lines.
REF_HALF = 3
SETUP_REFERENCE = ("spawn",)
# each part's time at the reference speed, in seconds
REF_NOMINAL_S = {"loop": 0.0035, "eig": 0.0009, "text": 0.0032, "spawn": 0.2}

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

PER_LAYER = (
    ("secsign.certify.calls", "count", "lower"),
    ("secsign.certify.ms_p50", "ms", "lower"),
    ("secsign.certify.ms_p90", "ms", "lower"),
    ("secsign.self_frac", "fraction", "lower"),
    ("secsign.eigensolves_per_call", "count", "lower"),
    ("secsign.bound_gap_rel_p50", "fraction", "lower"),
    ("secsign.decided_frac", "fraction", "higher"),
    ("secsign.einstein_witness.calls", "count", "lower"),
    ("secsign.einstein_witness.us_p50", "us", "lower"),
    ("curvops.decompose.calls", "count", "lower"),
    ("curvops.decompose.us_p50", "us", "lower"),
    ("curvops.gl_defect.us_p50", "us", "lower"),
    ("curvops.char_densities.calls", "count", "lower"),
    ("curvops.char_densities.us_p50", "us", "lower"),
    ("curvops.self_frac", "fraction", "lower"),
    ("models.catalog.calls", "count", "lower"),
    ("models.catalog.us_p50", "us", "lower"),
    ("cli.load_us_p50", "us", "lower"),
    ("cli.dumps_us_p50", "us", "lower"),
    ("cli.main_self_ms_p50", "ms", "lower"),
    ("cli.self_frac", "fraction", "lower"),
    ("numgeom.curvature_at.calls", "count", "lower"),
    ("numgeom.curvature_at.ms_p50", "ms", "lower"),
    ("numgeom.metric_points", "count", "lower"),
    ("numgeom.metric_points_per_curvature", "count", "lower"),
    ("numgeom.cholesky_per_curvature", "count", "lower"),
    ("numgeom.quadrature.nodes", "count", "lower"),
    ("numgeom.self_frac", "fraction", "lower"),
    ("page.verify.ms", "ms", "lower"),
    ("page.negcurv.ms", "ms", "lower"),
    ("page.integrate.ms", "ms", "lower"),
    ("page.orbits", "count", "lower"),
    ("page.density_reuse_frac", "fraction", "higher"),
    ("page.self_frac", "fraction", "lower"),
    ("page.chi_abs_err", "1", "lower"),
    ("geography.report.calls", "count", "lower"),
    ("geography.report.us_p50", "us", "lower"),
    ("geography.scan_csv.ms_p50", "ms", "lower"),
    ("geography.self_frac", "fraction", "lower"),
    ("secsign.defect.scaled_frac", "fraction", "lower"),
    ("secsign.defect.near_einstein_frac", "fraction", "lower"),
    ("bench.warmup_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def load_program():
    """Import fourcurv from this checkout's src/, or exit without a result."""
    if not (SRC / "fourcurv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fourcurv sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(PERF)]
    import fourcurv

    if Path(fourcurv.__file__).resolve().parent != (SRC / "fourcurv").resolve():
        sys.exit(f"perfbench: imported fourcurv from {fourcurv.__file__}, not {SRC}")


def machine_facts() -> dict:
    import ctypes
    import glob

    import numpy as np

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": np.__version__,
             "blas": "unknown", "blas_threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def setup_probe(code: str) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to serve."""
    from workloads import child_env

    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code + "print('ready', flush=True)\n"],
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            cwd=ROOT, env=child_env())
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready


_REF_MATRICES = None


def _ref_loop() -> None:
    acc = 0
    for i in range(40_000):
        acc += i * i


def _ref_eig() -> None:
    import numpy as np

    global _REF_MATRICES
    if _REF_MATRICES is None:
        m = np.random.default_rng(0).standard_normal((40, 6, 6))
        _REF_MATRICES = m + m.transpose(0, 2, 1)
    for _ in range(4):
        np.linalg.eigvalsh(_REF_MATRICES)


def _ref_text() -> None:
    "\n".join(f"{i},{-i},{'true' if i % 3 else 'false'}" for i in range(6000))


def _ref_spawn() -> None:
    """A fresh interpreter that imports numpy and exits."""
    from workloads import child_env

    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, cwd=ROOT, env=child_env(), check=True)


REF_PARTS = {"loop": _ref_loop, "eig": _ref_eig, "text": _ref_text, "spawn": _ref_spawn}


def reference_chunk(parts) -> float:
    """Seconds taken by one pass over the named fixed reference parts."""
    t0 = perf_counter()
    for part in parts:
        REF_PARTS[part]()
    return perf_counter() - t0


def warm_up(wl, seed: int, workdir: Path) -> float:
    """Untimed requests on inputs the run never uses; returns their wall time."""
    from workloads import timed

    t0 = perf_counter()
    for _ in range(5):
        reference_chunk(wl.reference)
    for i in range(wl.warmup_requests):
        inp = wl.warm_input(seed, i)
        wl.prepare(inp, workdir)
        timed(wl, inp)
        wl.cleanup(inp)
    return perf_counter() - t0


def run_probe(wl, seed: int, workdir: Path) -> tuple[int, list[list[str]]]:
    """Run the workload's known-defect inputs, untimed.

    Returns the number that fail in the documented way, and the reasons of
    any that fail in another way: those fail the run.
    """
    from workloads import timed

    defects, other = 0, []
    for i in range(wl.probe_requests):
        inp = wl.probe_input(seed, i)
        wl.prepare(inp, workdir)
        out, _ = timed(wl, inp)
        o = wl.check(inp, out, seed, i)
        wl.cleanup(inp)
        if o.reasons and o.known:
            defects += 1
        elif o.reasons:
            other.append(o.reasons)
    return defects, other


def median(values, scale: float = 1.0) -> float:
    """Median times ``scale``; 0 for a layer with no calls."""
    return statistics.median(values) * scale if len(values) else 0.0


def quantile(values, q: float, scale: float = 1.0) -> float:
    if len(values) < 2:
        return median(values, scale)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1] * scale


class Tally:
    """Running totals of checked outcomes; no per-request objects are kept,
    so the benchmark's own memory does not grow with the request count."""

    def __init__(self, keep_gaps: bool = False):
        self.attempted = self.failed = self.operators = self.decided = 0
        self.failures: list[list[str]] = []
        self.chi_abs_err: float | None = None
        self.maxrss_kib = 0
        self.gaps: list[float] | None = [] if keep_gaps else None

    def add(self, o) -> None:
        self.attempted += 1
        if o.reasons:
            self.failed += 1
            self.failures.append(o.reasons)
        if o.facts.get("operator"):
            self.operators += 1
            self.decided += o.facts.get("verdict", "Inconclusive") != "Inconclusive"
        if "chi_abs_err" in o.facts:
            self.chi_abs_err = max(self.chi_abs_err or 0.0, o.facts["chi_abs_err"])
        self.maxrss_kib = max(self.maxrss_kib, o.facts.get("maxrss_kib", 0))
        gap = o.facts.get("bound_gap_rel")
        if self.gaps is not None and gap is not None and gap == gap:
            self.gaps.append(gap)

    @property
    def correct(self) -> bool:
        return not self.failures

    @property
    def decided_frac(self) -> float | None:
        return self.decided / self.operators if self.operators else None


class ReferenceClock:
    """Reference chunks in time order, and the chunk count at each mark."""

    def __init__(self, parts, half: int = REF_HALF):
        self.parts, self.half = parts, half
        self.nominal = sum(REF_NOMINAL_S[p] for p in parts)
        self.chunks = array("d")
        self.marks = array("l")
        self.run(half)

    def run(self, n: int = 1) -> None:
        for _ in range(n):
            self.chunks.append(reference_chunk(self.parts))

    def mark(self) -> None:
        self.marks.append(len(self.chunks))

    def factors(self) -> list[float]:
        """The nominal over the local median chunk time, for each mark."""
        c = self.chunks
        return [self.nominal / statistics.median(c[max(0, k - self.half):k + self.half])
                for k in self.marks]


def run_untraced(wl, seed: int, seconds: float, workdir: Path):
    from workloads import timed

    clock = ReferenceClock(SETUP_REFERENCE, half=1)
    raw_setup = []
    for _ in range(SETUP_PROBES + 1):  # the first spawn primes the file cache
        clock.mark()
        raw_setup.append(setup_probe(wl.setup_code))
        clock.run()
    setup = [s * f for s, f in zip(raw_setup, clock.factors())][1:]
    raw_setup = raw_setup[1:]

    warm_s = warm_up(wl, seed, workdir)
    clock = ReferenceClock(wl.reference)
    start = perf_counter()
    busy, due, latencies, groups, tally, i = 0.0, 0.0, array("d"), [], Tally(), 0
    while ((perf_counter() - start < seconds or wl.more(i))
           and perf_counter() - start < WALL_CAP_S):
        inp = wl.make(seed, i)
        wl.prepare(inp, workdir)
        clock.mark()
        out, dt = timed(wl, inp)
        busy += dt
        latencies.append(dt)
        groups.append(wl.group(inp))
        tally.add(wl.check(inp, out, seed, i))
        wl.cleanup(inp)
        while due <= busy:
            clock.run()
            due += wl.reference_every_s
        i += 1
    clock.run(REF_HALF)
    wall_s = perf_counter() - start
    if wl.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = tally.maxrss_kib  # the largest request child
    by_group: dict = {}
    for dt, f, g in zip(latencies, clock.factors(), groups):
        by_group.setdefault(g, []).append(dt * f)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_ms": statistics.fmean(statistics.median(v) for v in by_group.values()) * 1e3,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    notes = {"raw_setup_s_samples": [round(s, 4) for s in raw_setup],
             "raw_setup_s": statistics.median(raw_setup), "warmup_s": warm_s,
             "requests": len(latencies), "timed_s": busy, "wall_s": wall_s,
             "reference_chunks": f"{len(clock.chunks)}, median "
                                 f"{statistics.median(clock.chunks) * 1e3:.4g} ms "
                                 f"({'+'.join(wl.reference)})",
             "raw_latency_p50_ms": statistics.median(latencies) * 1e3,
             # requests per second of request time; heavy-tailed on
             # certify-generic, so reported here and not bounded
             "raw_ops_per_s": len(latencies) / busy}
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        notes["raw_latency_p90_ms"] = (f"{quantile(latencies, 0.9) * 1e3:.6g} ms "
                                       f"(n={len(latencies)})")
    return metrics, tally, notes


def run_traced(wl, seed: int, workdir: Path, requests: int):
    """Each of ``requests`` inputs runs once untraced and once traced.

    Returns the traced spans, the tally and summed wall time of each mode
    (keyed by ``traced``), and the warm-up time.
    """
    from spans import SpanSet, Tracer
    from workloads import timed

    warm_s = warm_up(wl, seed, workdir)
    tracer, spanset = Tracer(), SpanSet()
    wall = {False: 0.0, True: 0.0}
    tallies = {False: Tally(), True: Tally(keep_gaps=True)}
    start = perf_counter()
    for i in range(requests):
        if perf_counter() - start > WALL_CAP_S:
            break
        inp = wl.make(seed, i)
        wl.prepare(inp, workdir)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                out, dt = timed(wl, inp)
            elif wl.in_process:
                tracer.request_id = i
                tracer.install()
                try:
                    out, dt = timed(wl, inp)
                finally:
                    tracer.uninstall()
            else:
                t0 = perf_counter()
                out = wl.execute_traced(inp)
                dt = perf_counter() - t0
                if out.spans is not None:
                    spanset.add(out.spans, request_id=i)
            wall[traced] += dt
            tallies[traced].add(wl.check(inp, out, seed, i))
        wl.cleanup(inp)
    if wl.in_process:
        spanset.add(tracer.to_rows())
    spanset.analyse()
    return spanset, tallies, wall, warm_s


def layer_metrics(ss, tally: Tally, wall: dict, warm_s: float) -> dict:
    traced = wall[True]
    ms, us = 1e3, 1e6
    m = {}

    def per_call(counter, name):
        calls = ss.calls(name)
        return ss.counted(counter, name) / calls if calls else 0.0

    def frac(layer):
        return ss.layer_self(layer) / traced if traced > 0 else 0.0

    certify = ss.durations("secsign.certify")
    m["secsign.certify.calls"] = ss.calls("secsign.certify")
    m["secsign.certify.ms_p50"] = median(certify, ms)
    m["secsign.certify.ms_p90"] = quantile(certify, 0.9, ms)
    m["secsign.self_frac"] = frac("secsign")
    m["secsign.eigensolves_per_call"] = per_call("eigensolves", "secsign.certify")
    m["secsign.bound_gap_rel_p50"] = median(tally.gaps)
    m["secsign.decided_frac"] = tally.decided_frac or 0.0
    m["secsign.einstein_witness.calls"] = ss.calls("secsign.einstein_witness")
    m["secsign.einstein_witness.us_p50"] = median(ss.durations("secsign.einstein_witness"), us)
    m["curvops.decompose.calls"] = ss.calls("curvops.decompose")
    m["curvops.decompose.us_p50"] = median(ss.durations("curvops.decompose"), us)
    m["curvops.gl_defect.us_p50"] = median(ss.durations("curvops.gl_defect"), us)
    m["curvops.char_densities.calls"] = ss.calls("curvops.char_densities")
    m["curvops.char_densities.us_p50"] = median(ss.durations("curvops.char_densities"), us)
    m["curvops.self_frac"] = frac("curvops")
    m["models.catalog.calls"] = ss.calls("models.catalog")
    m["models.catalog.us_p50"] = median(ss.durations("models.catalog"), us)
    m["cli.load_us_p50"] = median(ss.durations("cli.load"), us)
    m["cli.dumps_us_p50"] = median(ss.durations("cli.dumps"), us)
    m["cli.main_self_ms_p50"] = median(ss.self_times("cli.main"), ms)
    m["cli.self_frac"] = frac("cli")
    m["numgeom.curvature_at.calls"] = ss.calls("numgeom.curvature_at")
    m["numgeom.curvature_at.ms_p50"] = median(ss.durations("numgeom.curvature_at"), ms)
    m["numgeom.metric_points"] = ss.total("metric_points")
    m["numgeom.metric_points_per_curvature"] = per_call("metric_points", "numgeom.curvature_at")
    m["numgeom.cholesky_per_curvature"] = per_call("cholesky", "numgeom.curvature_at")
    m["numgeom.quadrature.nodes"] = ss.total("quadrature_nodes")
    m["numgeom.self_frac"] = frac("numgeom")
    m["page.verify.ms"] = median(ss.durations("page.verify"), ms)
    m["page.negcurv.ms"] = median(ss.durations("page.negcurv"), ms)
    m["page.integrate.ms"] = median(ss.durations("page.integrate"), ms)
    requests = len(set(ss.request[i] for i in ss.by_name.get("page.orbit_curvature", ())))
    m["page.orbits"] = ss.calls("page.orbit_curvature") / requests if requests else 0.0
    lookups = ss.counted("quadrature_nodes", "page.integrate")
    fresh = sum(1 for i in ss.by_name.get("page.orbit_curvature", ())
                if ss.has_ancestor(i, "page.integrate"))
    m["page.density_reuse_frac"] = 1.0 - fresh / lookups if lookups else 0.0
    m["page.self_frac"] = frac("page")
    m["page.chi_abs_err"] = tally.chi_abs_err or 0.0
    m["geography.report.calls"] = ss.calls("geography.report")
    m["geography.report.us_p50"] = median(ss.durations("geography.report"), us)
    m["geography.scan_csv.ms_p50"] = median(ss.durations("geography.scan_csv"), ms)
    m["geography.self_frac"] = frac("geography")
    m["bench.warmup_s"] = warm_s
    m["trace.overhead_frac"] = traced / wall[False] - 1.0 if wall[False] > 0 else 0.0
    return m


def run_one(args) -> int:
    load_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spanset, by_mode, wall, warm_s = run_traced(wl, args.seed, workdir,
                                                        wl.trace_requests)
            TRACE_OUT.mkdir(exist_ok=True)
            spanset.write_csv(TRACE_OUT / f"spans-{wl.name}-seed{args.seed}.csv")
            metrics = layer_metrics(spanset, by_mode[True], wall, warm_s)
            tallies = list(by_mode.values())
            notes = {"warmup_s": warm_s, "requests": by_mode[True].attempted,
                     "spans": len(spanset.name)}
            table = PER_LAYER
        else:
            metrics, tally, notes = run_untraced(wl, args.seed, args.seconds, workdir)
            tallies = [tally]
            table = END_TO_END
        defects, probe_failures = run_probe(wl, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if args.trace:
        frac = defects / wl.probe_requests if wl.probe_requests else 0.0
        metrics["secsign.defect.scaled_frac"] = frac if wl.name == "certify-generic" else 0.0
        metrics["secsign.defect.near_einstein_frac"] = (frac if wl.name == "certify-einstein"
                                                        else 0.0)
    attempted = sum(t.attempted for t in tallies) + len(probe_failures)
    failed = sum(t.failed for t in tallies) + len(probe_failures)
    correct = all(t.correct for t in tallies) and not probe_failures
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    for key, value in notes.items():
        print(f"# {key} {value}")
    print(f"# error_rate {failed / attempted:.6g} fraction ({failed} of {attempted} "
          f"requests failed)")
    if wl.probe_requests:
        print(f"# known defect: {defects} of {wl.probe_requests} {wl.probe_label} "
              f"(untimed probe inputs, not counted as requests)")
    if not args.trace:
        if tally.decided_frac is not None:
            print(f"# decided_frac {tally.decided_frac:.6g} fraction")
        if tally.chi_abs_err is not None:
            print(f"# chi_abs_err {tally.chi_abs_err:.6g} 1")
        if "raw_latency_p90_ms" not in notes:
            print(f"# raw_latency_p90_ms not reported: {notes['requests']} requests, fewer than 100")
    for reasons in [r for t in tallies for r in t.failures][:5] + probe_failures[:5]:
        print(f"# failure: {'; '.join(reasons)}")
    for name, unit, _ in table:
        print(f"# {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, summarised as one table."""
    if not (SRC / "fourcurv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fourcurv sources under {SRC}; run from a source checkout")
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            rows[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        print(f"{'metric':40s} {'unit':11s}" + "".join(f"{n:>18s}" for n in WORKLOAD_NAMES))
        for metric, unit, _ in table:
            print(f"{metric:40s} {unit:11s}" + "".join(
                f"{rows[n, trace]['metrics'][metric]['value']:18.6g}" for n in WORKLOAD_NAMES))
        print(f"{'failed/attempted':52s}" + "".join(
            f"{str(rows[n, trace]['failed']) + '/' + str(rows[n, trace]['attempted']):>18s}"
            for n in WORKLOAD_NAMES))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
