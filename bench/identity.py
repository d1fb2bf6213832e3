"""Byte-identity check of the command line between two commits.

    python3 bench/identity.py BASE HEAD [--seed 12]

Both commits are exported with ``pairs.export``.  One seeded corpus of
``fourcurv`` requests is then run in process in each tree, and every request
whose exit code, stdout or stderr differs between the two is printed, with
the first line where it differs.  The corpus covers:

- ``decompose`` and ``certify`` on generic, Einstein and dyadic operators, in
  both bases, at scales from 1e-100 to 1e100, and on operators that reach
  the edge branches of the dual step: zero, identity, integer diagonals with
  repeated eigenvalues, Einstein operators whose W+ has a double top
  eigenvalue and shifted semi-definite ones; ``decompose`` also at scales
  2^-100, 1 and 2^100 on operators that reach each branch of the saturation
  test (sphere and hyperbolic-plane products, with and without a small Ricci
  block, near-flat but not Einstein, s = 0 with doubled eigenvalues);
- ``model`` for each catalog model, in JSON and human format, at seeded
  parameters from 1e-160 to 1e150 and at sphere4 radii around its Zero
  threshold, and with bad parameters;
- ``chart`` for each chart at seeded points and with ``--study``, at steps too
  small for the stencil and with curvatures that overflow the frame contraction;
- ``page --verify --negcurv --integrate`` at (R, N) in {16, 32, 64} x {24, 48};
- ``geo``; ``geo --csv`` on seeded points, on a bad row and on points on
  and beside the lines 8 chi = 15 |tau|, chi = 3 tau and chi = |tau|, of
  both parities and past 2^64; and ``scan`` up to ``--chi-max 1000``, the
  largest accepted, whose table every smaller scan's is a prefix of;
- ``-h`` for every subcommand, and argument errors;
- operator files of the wrong shape or type (nested too deeply, an integer
  beyond the float range, ``true``, a string, ``null``, a nested entry, a
  ragged or short matrix, no matrix, not an object, an unknown basis), ``certify
  --tolerance`` at values that are not finite or are negative and at 0, and
  the Kahler models at a non-finite ``s``;
- last, with no draw from the seeded stream: ``decompose`` and ``certify`` on
  the Einstein operator with s = -12, W+ = diag(-3, 1, 2) and W- = 0, whose
  sec_max is 0 while the top eigenvalue of W+ is single (not saturated), at
  2^k for k in {-1000, -540, 0, 540, 1000}; on a copy of it whose file starts
  with a UTF-8 byte-order mark; and on an operator file with a 5,001-digit
  integer entry; then ``model surfaceProduct`` at (a, b) = (1e-20, 1e-20),
  (-1e-20, -1e-20), (1e-20, 2e-20) and (-1e-20, -2e-20): saturated products
  of small curvature, Einstein only where a = b; last, an operator file and a
  ``geo --csv`` file that are not UTF-8, ``model sphere4 --param r=`` and
  ``chart flatChart --point 1,x,1,1``; then the ``chart --study`` steps -0.005,
  0 and NaN, a ``sphereProductChart`` study at 2,000 steps and one at 4,097
  (one past the ``--steps`` maximum), ``model sphere4`` at r = 1.2e-154 and
  2e-154 and operator files holding 2e307 I (SD/ASD) and 3e307 I
  (coordinate), whose traces or scalar curvature overflow, and a ``geo
  --csv`` file with a short row; then the single-answer requests ``page
  --verify --radii 1``, ``page --negcurv``, ``page --integrate --nodes 16``
  and ``page --verify --radii 4096``, and ``decompose`` and ``certify`` on
  three SD/ASD operator files whose Weyl halves hold entries of 1e308 to
  1.5e308 (off the diagonal, on it, and with a top eigenvalue past the
  float range); then ``model`` and ``chart`` with a ``--param`` key given
  twice; last, ``chart flatChart`` at ``--step 1e308`` and a study at steps
  1e308, 1e307 and 1e306, whose twice-step overflows.

Each request runs as ``fourcurv.cli.main(argv)`` with ``COLUMNS=80`` and
stdout and stderr captured; the warnings registry is reset per request, so
a warning prints as it would in a fresh process, and the tree's own path in
stderr reads ``<tree>``.  Exits 1 when any request differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from pairs import export, rev_parse

MODELS = {"flat": [], "sphere4": ["r"], "hyperbolic4": ["r"], "surfaceProduct": ["a", "b"],
          "fubiniStudy": ["s"], "bergman": ["s"]}
CHARTS = {"flatChart": ((-10.0, 10.0),) * 4,
          "sphereProductChart": ((0.0, np.pi), (-np.pi, np.pi), (0.0, np.pi), (-np.pi, np.pi)),
          "hyperbolic4HalfSpace": ((-10.0, 10.0),) * 3 + ((0.05, 20.0),)}
COMMANDS = ("decompose", "certify", "model", "chart", "page", "geo", "scan")

RUNNER = r"""
import contextlib, io, json, os, sys, traceback, warnings
os.environ["COLUMNS"] = "80"
from fourcurv import cli
tree, corpus, out = sys.argv[1:]
with open(out, "w") as fh:
    for argv in json.load(open(corpus)):
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "traceback"
                stderr.write(traceback.format_exc().splitlines()[-1] + "\n")
        fh.write(json.dumps({"code": code, "stdout": stdout.getvalue(),
                             "stderr": stderr.getvalue().replace(tree, "<tree>")}) + "\n")
"""


def _operator_file(path: Path, matrix: np.ndarray, basis: str) -> str:
    path.write_text(json.dumps({"basis": basis, "matrix": matrix.tolist()}))
    return str(path)


def _operators(rng: np.random.Generator):
    """(kind, SD/ASD matrix) of unit scale: generic, Einstein and dyadic."""
    def traceless(m):
        m = 0.5 * (m + m.T)
        return m - np.trace(m) / 3.0 * np.eye(3)

    M = rng.standard_normal((6, 6))
    M = 0.5 * (M + M.T)
    shift = (np.trace(M[:3, :3]) - np.trace(M[3:, 3:])) / 6.0
    M[:3, :3] -= shift * np.eye(3)
    M[3:, 3:] += shift * np.eye(3)
    E = np.zeros((6, 6))
    s = rng.normal(0.0, 4.0)
    E[:3, :3] = traceless(rng.standard_normal((3, 3))) + s / 12.0 * np.eye(3)
    E[3:, 3:] = traceless(rng.standard_normal((3, 3))) + s / 12.0 * np.eye(3)
    D = np.zeros((6, 6))
    D[:3, :3] = np.diag(rng.integers(-8, 9, 3)) / 8.0
    D[3:, 3:] = np.diag(rng.integers(-8, 9, 3)) / 8.0
    D[3, 3] += np.trace(D[:3, :3]) - np.trace(D[3:, 3:])
    return ("generic", M), ("einstein", E), ("dyadic", D)


def _edge_operators(rng: np.random.Generator):
    """(kind, SD/ASD matrix) near the edge branches of the dual step: zero and
    identity (every eigenvalue tied), integer diagonals with repeated
    eigenvalues, alone and with a sparse integer Ricci block (whose
    iterations meet uncoupled pairs, b = 0 and tied top eigenvalues),
    Einstein operators whose W+ has a double top eigenvalue, and
    operators shifted by a multiple of I to q <= -m or q >= m, m a tenth of
    their norm, as certify-generic's semi-definite requests are."""
    H = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    yield "zero", np.zeros((6, 6))
    yield "identity", np.eye(6)
    for _ in range(4):
        a0, a1, c0 = rng.integers(-4, 5, 3).tolist()
        D = np.diag([a0, a0, a1, c0, c0, 2 * a0 + a1 - 2 * c0]).astype(float)
        yield "repeated", D
        for _ in range(int(rng.integers(1, 4))):  # a sparse integer Ricci block
            i, j = rng.integers(0, 3, 2).tolist()
            D[i, 3 + j] = D[3 + j, i] = float(rng.integers(1, 3))
        yield "repeated-ricci", D
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        E = np.zeros((6, 6))
        s = rng.normal(0.0, 4.0)
        E[:3, :3] = Q @ np.diag([-2.0, 1.0, 1.0]) @ Q.T * rng.uniform(0.5, 2.0) + s / 12.0 * np.eye(3)
        E[3:, 3:] = np.diag(rng.standard_normal(3)) + s / 12.0 * np.eye(3)
        E[3:, 3:] -= (np.trace(E[3:, 3:]) - s / 4.0) / 3.0 * np.eye(3)
        yield "double-top", E
        S = _operators(rng)[0][1]
        ts = np.linspace(-3.0, 3.0, 129) * np.linalg.norm(S, 2)
        lam = np.linalg.eigvalsh(S + ts[:, None, None] * H)
        m = 0.1 * np.linalg.norm(S)
        yield "nonpos", S - (lam[:, -1].min() + m) * np.eye(6)
        yield "nonneg", S - (lam[:, 0].max() - m) * np.eye(6)


def _saturation_operators(rng: np.random.Generator):
    """(kind, SD/ASD matrix) that reach each branch of ``gl_defect``: the
    products S^2 x S^2 and H^2 x H^2 (saturated on either side) with their
    Weyl halves rotated, alone and with a small Ricci block (saturated but
    not Einstein); a Ricci block of 1e-6 on Weyl halves of 1e-9 (within
    CLASSIFY_TOL of flat, not Einstein); and s = 0 with each Weyl half's
    bottom eigenvalue doubled (never saturated)."""
    def rotated(spectrum):
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return Q @ np.diag(spectrum) @ Q.T

    def with_ricci(S, size):
        S = S.copy()
        S[:3, 3:] = size * rng.standard_normal((3, 3))
        S[3:, :3] = S[:3, 3:].T
        return S

    for _ in range(3):
        for sign, kind in ((1.0, "sphere-product"), (-1.0, "hyperbolic-product")):
            c = sign * rng.uniform(0.5, 2.0)
            S = np.zeros((6, 6))
            S[:3, :3], S[3:, 3:] = rotated([c, 0.0, 0.0]), rotated([c, 0.0, 0.0])
            yield kind, S
            yield kind + "-ricci", with_ricci(S, 1e-3)
        F = np.zeros((6, 6))
        F[:3, :3], F[3:, 3:] = rotated([1e-9, 0.0, -1e-9]), rotated([1e-9, 0.0, -1e-9])
        yield "near-flat", with_ricci(F, 1e-6)
        a, b = rng.integers(1, 5, 2).tolist()
        yield "scalar-flat", np.diag([a, a, -2 * a, -b, -b, 2 * b]).astype(float)


def _to_coordinate(S: np.ndarray) -> np.ndarray:
    """The SD/ASD matrix S in the coordinate basis, through the orthonormal
    frames (e_i +- e_j)/sqrt(2) of the pairs (0, 5), (1, 4), (2, 3)."""
    P = np.zeros((6, 6))
    for a, (i, j, sign) in enumerate(((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))):
        P[i, a] = P[i, a + 3] = 2 ** -0.5
        P[j, a], P[j, a + 3] = sign * 2 ** -0.5, -sign * 2 ** -0.5
    return P @ S @ P.T


def corpus(seed: int, inputs: Path) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    reqs: list[list[str]] = []
    for k in range(-100, 101, 10):
        for kind, S in _operators(rng):
            for basis, M in (("sd-asd", S), ("coordinate", _to_coordinate(S))):
                # dyadic entries stay dyadic under a power-of-two scale
                M = np.ldexp(M, round(k * 3.32)) if kind == "dyadic" else M * 10.0 ** k
                path = _operator_file(inputs / f"{kind}-{basis}-{k}.json", M, basis)
                reqs += [["decompose", "-i", path], ["certify", "-i", path]]
                if k % 50 == 0:
                    reqs += [["decompose", "-i", path, "--format", "human"],
                             ["certify", "-i", path, "--tolerance", "1e-6"]]
    for n, (kind, S) in enumerate(_edge_operators(np.random.default_rng([seed, 1]))):
        for basis, M in (("sd-asd", S), ("coordinate", _to_coordinate(S))):
            for k in (-100, 0, 100):
                path = _operator_file(inputs / f"{kind}-{n}-{basis}-{k}.json",
                                      np.ldexp(M, round(k * 3.32)), basis)
                reqs += [["decompose", "-i", path], ["certify", "-i", path]]
    for n, (kind, S) in enumerate(_saturation_operators(np.random.default_rng([seed, 2]))):
        for basis, M in (("sd-asd", S), ("coordinate", _to_coordinate(S))):
            for k in (-100, 0, 100):
                path = _operator_file(inputs / f"{kind}-{n}-{basis}-2^{k}.json",
                                      np.ldexp(M, k), basis)
                reqs.append(["decompose", "-i", path])
    reqs += [["certify", "-i", str(inputs / "missing.json")], ["decompose", "-i", str(
        _operator_file(inputs / "asym.json", np.triu(np.ones((6, 6))), "coordinate"))]]

    for name, keys in MODELS.items():
        for _ in range(40):
            params = {key: float(10.0 ** rng.uniform(-160.0, 150.0)) for key in keys}
            if name == "bergman":
                params["s"] = -params["s"]
            if name == "surfaceProduct":
                a, b = (float(v * rng.choice((-1.0, 1.0))) for v in params.values())
                params = {"a": a, "b": a if rng.random() < 0.5 else b}
            argv = ["model", name] + [f"--param={key}={v!r}" for key, v in params.items()]
            reqs += [argv, argv + ["--format", "human"]]
    reqs += [["model", "sphere4", f"--param=r={r!r}"]
             for r in rng.uniform(3000.0, 5000.0, 40).tolist()]
    reqs += [["model", "surfaceProduct", "--param", "a=2", "--param", "b=2"],
             ["model", "flat", "--param", "r=1"], ["model", "sphere4", "--param", "r=-1"],
             ["model", "sphere4", "--param", "r=abc"], ["model", "sphere4", "--param", "r"],
             ["model", "fubiniStudy", "--param", "s=-1"], ["model", "bergman", "--param", "s=1"]]

    for name, box in CHARTS.items():
        lo, hi = np.array(box).T
        params = ["--param", "a=1", "--param", "b=2"] if name == "sphereProductChart" else []
        for x in rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), (5, 4)).tolist():
            point = ",".join(repr(c) for c in x)
            reqs += [["chart", name, *params, "--point", point],
                     ["chart", name, *params, "--study", "--point", point]]
        reqs += [["chart", name, "--study"], ["chart", name, "--param", "c=1"],
                 ["chart", name, "--point", "1,2,3"], ["chart", name, "--point", "99,0,0,0"],
                 ["chart", name]]
    reqs += [["chart", "flatChart", "--study", "--steps", "1e-200,1e-201,1e-202"],
             ["chart", "hyperbolic4HalfSpace", "--point", "0,0,0,1", "--step", "1e-300"],
             ["chart", "flatChart", "--point", "0,0,0,0", "--step", "1e-160"]]
    reqs += [["chart", "sphereProductChart", "--param", f"a={a}", "--param", "b=1",
              "--point", "1,0,1,0", *study]
             for a in ("1e-300", "1e-200", "1e-308", "1e-310") for study in ([], ["--study"])]

    for radii in (16, 32, 64):
        for nodes in (24, 48):
            reqs.append(["page", "--verify", "--negcurv", "--integrate",
                         "--radii", str(radii), "--nodes", str(nodes)])
    reqs += [["page", "--verify", "--radii", "0"], ["page", "--integrate", "--nodes", "8"],
             ["page"], ["page", "--verify", "--radii", "5", "--format", "human"]]

    chi = rng.integers(0, 4000, 300)
    tau = rng.integers(-chi - 3, chi + 4)
    rows = "".join(f"{c},{t}\n" for c, t in zip(chi.tolist(), tau.tolist()))
    (inputs / "points.csv").write_text("chi,tau\n" + rows)
    (inputs / "bad.csv").write_text("chi,tau\n3,1\n4,x\n")
    reqs += [["geo", "--chi", str(c), "--tau", str(t)] for c, t in zip(chi[:20], tau[:20])]
    reqs += [["geo", "--chi", "3", "--tau", "1", "--format", "human"],
             ["geo", "--csv", str(inputs / "points.csv")], ["geo", "--csv", str(inputs / "bad.csv")],
             ["geo", "--chi", "3"], ["geo", "--chi", "abc", "--tau", "1"]]
    boundary = [(chi + d, sign * tau) for k in (1, 2, 3, 8, 2**64 + 1, 2**64 + 2, 10**30 + 1)
                for chi, tau in ((15 * k, 8 * k), (3 * k, k), (k, k))
                for sign in (1, -1) for d in (-1, 0, 1)]
    (inputs / "boundary.csv").write_text(
        "chi,tau\n\n" + "".join(f"{c},{t}\n" for c, t in boundary))
    reqs.append(["geo", "--csv", str(inputs / "boundary.csv")])
    # every accepted scan is a prefix of the largest
    reqs += [["scan", "--chi-max", str(n)] for n in (0, 5, 40, 100, 400, 1000)]
    reqs += [["scan", "--chi-max", "-1"], ["scan"], ["scan", "--chi-max", "x"]]

    reqs += [["-h"], ["--version"], ["nosuch"], []] + [[c, "-h"] for c in COMMANDS]
    reqs += [["page", "--verify", "--radii", "4097"], ["page", "--integrate", "--nodes", "1001"],
             ["scan", "--chi-max", "1001"], ["scan", "--chi-max", "1" + "0" * 5000],
             ["page", "--verify", "--radii", "1" + "0" * 5000],
             ["page", "--integrate", "--nodes", "1" + "0" * 5000]]

    rows = np.eye(6).tolist()
    text = json.dumps({"matrix": rows})
    bad = {"deep": "[" * 100_000, "huge-int": text.replace("1.0", "1" + "0" * 400, 1),
           "true": text.replace("0.0", "true", 1), "string": text.replace("1.0", '"1"', 1),
           "null": text.replace("0.0", "null", 1), "nested": text.replace("0.0", "[0.0]", 1),
           "ragged": json.dumps({"matrix": rows[:5] + [rows[5][:5]]}),
           "rows": json.dumps({"matrix": rows[:5]}), "scalar": '{"matrix": 1}',
           "no-matrix": '{"basis": "coordinate"}', "not-object": "[]",
           "basis": json.dumps({"basis": "SD/ASD", "matrix": rows})}
    for name, text in bad.items():
        path = inputs / f"bad-{name}.json"
        path.write_text(text)
        reqs += [["decompose", "-i", str(path)], ["certify", "-i", str(path)]]
    neg = _operator_file(inputs / "neg.json", -1e-9 * np.eye(6), "coordinate")
    reqs += [["certify", "-i", neg, f"--tolerance={t}"]
             for t in ("-1", "inf", "-inf", "nan", "1e400", "0")]
    reqs += [["model", "fubiniStudy", f"--param=s={s}"] for s in ("inf", "nan")]
    reqs += [["model", "bergman", f"--param=s={s}"] for s in ("-inf", "nan")]

    sigma_zero = np.diag([-4.0, 0.0, 1.0, -1.0, -1.0, -1.0])  # s = -12, W+ = diag(-3, 1, 2)
    for k in (-1000, -540, 0, 540, 1000):
        path = _operator_file(inputs / f"sigma-zero-2^{k}.json", np.ldexp(sigma_zero, k), "sd-asd")
        reqs += [["decompose", "-i", path], ["certify", "-i", path]]
    (inputs / "bom.json").write_bytes(b"\xef\xbb\xbf" + (inputs / "sigma-zero-2^0.json").read_bytes())
    (inputs / "digits.json").write_text(json.dumps({"matrix": rows}).replace("1.0", "1" + "0" * 5000, 1))
    for name in ("bom", "digits"):
        reqs += [["decompose", "-i", str(inputs / f"{name}.json")],
                 ["certify", "-i", str(inputs / f"{name}.json")]]
    reqs += [["model", "surfaceProduct", "--param", f"a={a}", "--param", f"b={b}"]
             for a, b in (("1e-20", "1e-20"), ("-1e-20", "-1e-20"),
                          ("1e-20", "2e-20"), ("-1e-20", "-2e-20"))]
    (inputs / "latin1.json").write_bytes(b'{"matrix": \xff}')
    (inputs / "latin1.csv").write_bytes(b"chi,tau\n3,\xff\n")
    reqs += [["decompose", "-i", str(inputs / "latin1.json")],
             ["geo", "--csv", str(inputs / "latin1.csv")],
             ["model", "sphere4", "--param", "r="], ["chart", "flatChart", "--point", "1,x,1,1"]]
    reqs += [["chart", "flatChart", "--study", "--steps", f"0.02,0.01,{bad}"]
             for bad in ("-0.005", "0", "nan")]
    steps = [0.02 * 0.999**k for k in range(4097)]
    reqs += [["chart", "sphereProductChart", "--param", "a=1", "--param", "b=2", "--study",
              "--steps", ",".join(map(repr, steps[:n]))] for n in (2000, 4097)]
    reqs += [["model", "sphere4", f"--param=r={r}"] for r in ("1.2e-154", "2e-154")]
    for basis, scale in (("sd-asd", 2e307), ("coordinate", 3e307)):
        path = _operator_file(inputs / f"overflow-s-{basis}.json", scale * np.eye(6), basis)
        reqs += [["decompose", "-i", path], ["certify", "-i", path]]
    (inputs / "short-row.csv").write_text("chi,tau\n3,1\n7\n")
    reqs.append(["geo", "--csv", str(inputs / "short-row.csv")])
    reqs += [["page", "--verify", "--radii", "1"], ["page", "--negcurv"],
             ["page", "--integrate", "--nodes", "16"], ["page", "--verify", "--radii", "4096"]]
    weyl = {"offdiagonal": {(0, 1): 1e308, (1, 0): 1e308, (3, 4): 1e308, (4, 3): 1e308},
            "diagonal": {(0, 0): 1.5e308, (1, 1): -1.5e308, (3, 3): 1.5e308, (4, 4): -1.5e308},
            "spectrum": {(0, 0): 1e308, (0, 1): 1.5e308, (1, 0): 1.5e308, (1, 1): -1e308}}
    for name, entries in weyl.items():
        M = np.zeros((6, 6))
        for index, value in entries.items():
            M[index] = value
        path = _operator_file(inputs / f"weyl-overflow-{name}.json", M, "sd-asd")
        reqs += [["decompose", "-i", path], ["certify", "-i", path]]
    reqs += [["model", "sphere4", "--param", "r=1", "--param", "r=2"],
             ["model", "surfaceProduct", "--param", "a=1", "--param", "b=2", "--param", "a=1"],
             ["chart", "sphereProductChart", "--param", "a=1", "--param", " a=2",
              "--point", "1,0,1,0"]]
    reqs += [["chart", "flatChart", "--point", "1,1,1,1", "--step", "1e308"],
             ["chart", "flatChart", "--study", "--steps", "1e308,1e307,1e306"]]
    return reqs


def run(tree: Path, corpus_file: Path, out: Path) -> list[dict]:
    subprocess.run([sys.executable, "-c", RUNNER, str(tree), str(corpus_file), str(out)],
                   cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")), check=True)
    return [json.loads(line) for line in out.read_text().splitlines()]


def _first_difference(a: str, b: str) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}:\n      base: {x[:200]}\n      head: {y[:200]}"
    return f"lengths {len(a)} and {len(b)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("head", help="the commit with the change")
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args(argv)
    ids = {"base": rev_parse(args.base), "head": rev_parse(args.head)}
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        requests = corpus(args.seed, tmp / "inputs")
        (tmp / "corpus.json").write_text(json.dumps(requests))
        results = {}
        for side, commit in ids.items():
            export(commit, tmp / side)
            results[side] = run(tmp / side, tmp / "corpus.json", tmp / f"{side}.jsonl")
    differ = 0
    for req, base, head in zip(requests, results["base"], results["head"]):
        if base == head:
            continue
        differ += 1
        print(f"fourcurv {' '.join(req)[:160]}")
        for part in ("code", "stdout", "stderr"):
            if base[part] != head[part]:
                what = (f"{base[part]} -> {head[part]}" if part == "code"
                        else _first_difference(base[part], head[part]))
                print(f"  {part}: {what}")
    print(f"{len(requests)} requests, {differ} differ "
          f"(base {ids['base'][:12]}, head {ids['head'][:12]}, seed {args.seed})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
