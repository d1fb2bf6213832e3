"""Alternating before/after benchmark pairs of two commits, written as one JSON file.

    python3 bench/pairs.py BASE HEAD --workloads geo-scan certify-generic \
        --seeds 301 302 303 --out BENCH_7.json \
        [--traced certify-generic --traced-seeds 311 312 313]

Each commit is exported with ``git archive`` into a temporary directory and
byte-compiled there (``compileall``), so neither side pays for compiling its
sources during a run even where ``PYTHONDONTWRITEBYTECODE`` is set.  For every
workload and seed the two sides then run ``perfbench/run.py --trace 0`` one
after the other, and the side that goes first alternates from pair to pair,
so a drift in the machine's speed does not favour either side.

The output records, per workload and side, the median and quartiles of each
end-to-end metric; every pair's values and the number of pairs each side won
(ties count for neither); ``correct`` and ``failed`` of every run; and the
machine facts and both commit ids.  The benchmark itself is only called.

A per-layer time from one traced run moves 10-20% with the machine, so
``--traced`` workloads also get one alternated pair of ``--trace 1`` runs per
``--traced-seeds`` seed, after their untraced pairs; their entry's ``traced``
records each run's per-layer metrics and, per side, each metric's median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("latency_ms", "setup_s", "peak_rss_mb")  # all of them: lower is better
SECONDS = 25
ROOT = Path(__file__).resolve().parents[1]


def export(commit: str, dest: Path, compiled: bool = True) -> None:
    """The tree of ``commit`` in ``dest``, byte-compiled unless ``compiled`` is false."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    if compiled:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=dest, check=True)


def run(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One perfbench run: ``correct``, ``failed``, ``attempted`` and the metrics,
    the end-to-end ones untraced and all per-layer ones traced."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"pairs: {workload} seed {seed} in {tree} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    names = out["metrics"] if trace else METRICS
    return {"correct": out["correct"], "failed": out["failed"], "attempted": out["attempted"],
            **{m: out["metrics"][m]["value"] for m in names}}


def alternated(trees: dict, workload: str, seeds: list[int], trace: int = 0) -> list[dict]:
    """One run per side and seed; the side that goes first alternates."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(trees[side], workload, seed, trace)
            print(f"# {workload} seed {seed} trace {trace} {side}: " + " ".join(
                f"{m}={pair[side][m]:.6g}" for m in METRICS if m in pair[side]), file=sys.stderr)
        pairs.append(pair)
    return pairs


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def machine() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def rev_parse(commit: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", commit + "^{commit}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("head", help="the commit with the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", nargs="+", default=[], metavar="WORKLOAD",
                        help="workloads of --workloads that also get traced pairs")
    parser.add_argument("--traced-seeds", nargs="+", type=int, default=[])
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    if not set(args.traced) <= set(args.workloads) or bool(args.traced) != bool(args.traced_seeds):
        parser.error("--traced names workloads of --workloads, and needs --traced-seeds")
    ids = {"base": rev_parse(args.base), "head": rev_parse(args.head)}

    result = {"commits": ids, "machine": machine(), "seconds": SECONDS, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ids}
        for side, commit in ids.items():
            export(commit, trees[side])
        for workload in args.workloads:
            pairs = alternated(trees, workload, args.seeds)
            entry = {"pairs": pairs}
            for m in METRICS:
                entry[m] = {side: summary([p[side][m] for p in pairs]) for side in ids}
                entry[m]["head_wins"] = sum(p["head"][m] < p["base"][m] for p in pairs)
                entry[m]["base_wins"] = sum(p["base"][m] < p["head"][m] for p in pairs)
            entry["all_correct"] = all(p[s]["correct"] and p[s]["failed"] == 0
                                       for p in pairs for s in ids)
            if workload in args.traced:
                traced = alternated(trees, workload, args.traced_seeds, trace=1)
                entry["traced"] = {"pairs": traced, "median": {
                    side: {m: statistics.median(p[side][m] for p in traced)
                           for m in traced[0][side] if m != "correct"} for side in ids}}
            result["workloads"][workload] = entry
            # written after every workload, so an interrupted run keeps what it measured
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
