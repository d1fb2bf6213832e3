"""Start-up cost of fresh ``fourcurv`` processes at two commits.

    python3 bench/startup.py BASE HEAD

Each commit is exported with ``git archive`` and, unlike ``bench/pairs.py``,
not byte-compiled, and every process runs with ``PYTHONDONTWRITEBYTECODE=1``:
each one compiles fourcurv's sources as a fresh checkout does.  The commands

    page --verify --negcurv --integrate
    certify -i operator.json
    model sphere4
    scan --chi-max 100

then run as ``python -X importtime -m fourcurv ...``, RUNS times per command
and side, with the side that goes first alternating from run to run.  For
each command and side the tool prints the median and quartiles of three
times of a process:

- its wall time;
- its fourcurv import time: the summed self time of fourcurv's modules and of
  the modules only they import, those imported while a fourcurv module was
  importing that a plain ``import numpy`` does not import (numpy is every
  numerical command's fixed cost, and a module both import is charged to
  whichever imports it first);
- the time from the first byte of its report on stdout, a pipe, to its exit:
  the end of the command's writing, its flushes and the interpreter's
  teardown, if it runs one.  The report reaches the pipe as it is written
  where ``PYTHONUNBUFFERED`` is set, and at the first flush that overflows or
  ends the buffer where it is not; the children inherit the variable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import export, rev_parse

RUNS = 20
COMMANDS = (("page", "--verify", "--negcurv", "--integrate"),
            ("certify", "-i", "operator.json"),
            ("model", "sphere4"),
            ("scan", "--chi-max", "100"))
# an admissible operator in the SD/ASD basis, not Einstein: tr A = tr C
OPERATOR = {"basis": "sd-asd", "matrix": [[1.0, 0.5, 0.0, 0.25, 0.0, 0.0],
                                          [0.5, 2.0, 0.0, 0.0, 0.5, 0.0],
                                          [0.0, 0.0, 3.0, 0.0, 0.0, 0.75],
                                          [0.25, 0.0, 0.0, 3.0, 0.0, 0.0],
                                          [0.0, 0.5, 0.0, 0.0, 2.0, 0.0],
                                          [0.0, 0.0, 0.75, 0.0, 0.0, 1.0]]}


def imports(importtime: str):
    """(self microseconds, module, its importers) of each ``-X importtime`` line.

    The lines come in post-order, a module after the modules it imported, so
    read backwards each line's importers are the open lines of smaller depth.
    """
    importers = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        del importers[depth:]
        yield int(self_us), name.strip(), tuple(importers)
        importers.append(name.strip())


def numpy_modules() -> set[str]:
    """The modules a plain ``import numpy`` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy"],
                          capture_output=True, text=True, check=True)
    return {name for _, name, _ in imports(proc.stderr)}


def fourcurv_import_us(importtime: str, shared: set[str]) -> int:
    """Summed self time, in microseconds, of the fourcurv modules and the modules
    imported below one of them, except those in ``shared``."""
    return sum(us for us, name, importers in imports(importtime)
               if name not in shared
               and any(m.partition(".")[0] == "fourcurv" for m in (name, *importers)))


def run(tree: Path, workdir: Path, argv: tuple[str, ...], shared: set[str]):
    """(wall seconds, fourcurv import seconds, seconds from the first stdout byte to
    the exit) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # stderr, the import times, goes to a file: a full stderr pipe would stall
    # the child before its first stdout byte
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-X", "importtime", "-m", "fourcurv", *argv],
                                cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            proc.stdout.read(1)
            first = time.perf_counter()
            proc.stdout.read()
        proc.wait()
        end = time.perf_counter()
        err.seek(0)
        stderr = err.read().decode()
    if proc.returncode != 0:
        sys.exit(f"startup: fourcurv {' '.join(argv)} in {tree} exited {proc.returncode}\n"
                 f"{stderr[-2000:]}")
    return end - start, fourcurv_import_us(stderr, shared) / 1e6, end - first


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{1e3 * q2:7.1f} ms [{1e3 * q1:6.1f}, {1e3 * q3:6.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("head", help="the commit with the change")
    args = parser.parse_args(argv)
    ids = {"base": rev_parse(args.base), "head": rev_parse(args.head)}
    with tempfile.TemporaryDirectory(prefix="startup-") as tmp:
        tmp = Path(tmp)
        (tmp / "operator.json").write_text(json.dumps(OPERATOR))
        for side, commit in ids.items():
            export(commit, tmp / side, compiled=False)
        shared = numpy_modules()
        times = {(c, side): [] for c in COMMANDS for side in ids}
        for i in range(RUNS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for command in COMMANDS:
                for side in order:
                    times[command, side].append(run(tmp / side, tmp, command, shared))
    print(f"{RUNS} fresh processes per command and side, uncompiled "
          f"(base {ids['base'][:12]}, head {ids['head'][:12]}); median [quartiles]")
    for command in COMMANDS:
        print(f"fourcurv {' '.join(command)}")
        for side in ids:
            wall, imports, tail = zip(*times[command, side])
            print(f"  {side}  wall {quartiles(wall)}  fourcurv imports {quartiles(imports)}"
                  f"  first byte to exit {quartiles(tail)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
