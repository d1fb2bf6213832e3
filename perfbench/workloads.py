"""The four workloads: seeded inputs, one request each, and its check.

Every input is a pure function of (seed, index), so a run is reproducible
and no two requests of a run share an input.  Inputs are generated and
written before a request's clock starts, and checked after it stops.

Input mixes are stratified: each block of 20 requests holds a fixed number of
each input kind in a seeded order, so the mix, and with it the medians, do
not drift from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

from fourcurv import cli, curvops, jsonio, models, secsign
from fourcurv.errors import FourcurvError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERF = Path(__file__).resolve().parent
I3, I6 = np.eye(3), np.eye(6)
WARM_STREAM = 1 << 40
PROBE_STREAM = 1 << 41
H = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


@dataclass
class Input:
    kind: str
    data: dict = field(default_factory=dict)
    path: Path | None = None


@dataclass
class Outcome:
    reasons: list[str]
    known: bool = False  # every failure reason is a documented defect
    facts: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=4)
def _block_order(seed: int, stream: int, block: int, n: int) -> tuple[int, ...]:
    return tuple(np.random.default_rng([seed, stream, block]).permutation(n).tolist())


def _stratified(seed: int, stream: int, index: int, pattern: tuple[str, ...]) -> str:
    block, pos = divmod(index, len(pattern))
    return pattern[_block_order(seed, stream, block, len(pattern))[pos]]


def _stratified_unit(seed: int, stream: int, index: int, rng, n: int = 20) -> float:
    """A uniform draw on [0, 1) whose every block of n requests covers each
    1/n stratum once: the request cost of certify-generic grows with the
    operator's scale, so an unstratified scale would move the run medians."""
    block, pos = divmod(index, n)
    return (_block_order(seed, stream, block, n)[pos] + rng.random()) / n


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


# -- operator generation -------------------------------------------------------

def _admissible(rng, scale: float) -> np.ndarray:
    """Random symmetric SD/ASD block matrix with tr A = tr C (tests' idiom)."""
    M = rng.standard_normal((6, 6)) * scale
    M = 0.5 * (M + M.T)
    shift = (np.trace(M[:3, :3]) - np.trace(M[3:, 3:])) / 6.0
    M[:3, :3] -= shift * I3
    M[3:, 3:] += shift * I3
    return M


def _traceless(rng, scale: float) -> np.ndarray:
    W = rng.standard_normal((3, 3)) * scale
    W = 0.5 * (W + W.T)
    return W - (np.trace(W) / 3.0) * I3


def _einstein_blocks(s, wp, wm, B=None) -> np.ndarray:
    S = np.zeros((6, 6))
    S[:3, :3] = wp + (s / 12.0) * I3
    S[3:, 3:] = wm + (s / 12.0) * I3
    if B is not None:
        S[:3, 3:] = B
        S[3:, :3] = B.T
    return S


def _shift_to_sign(S: np.ndarray, sign: str) -> np.ndarray:
    """Shift by a multiple of I past a weak-duality bound 2 lam(S + tH).

    For a unit pair x, x^T H x = 0, so q <= 2 lam_max(S + tH) for every t.
    The shift makes q <= -m (or q >= m) with m = 10% of the shifted ||R||_F.
    """
    ts = np.linspace(-3.0, 3.0, 129) * np.linalg.norm(S, 2)
    ev = np.linalg.eigvalsh(S[None, :, :] + ts[:, None, None] * H[None, :, :])
    if sign == "nonpos":
        bound, direction = 2.0 * ev[:, -1].min(), -1.0
    else:
        bound, direction = -2.0 * ev[:, 0].max(), 1.0
    c = 0.5 * bound
    for _ in range(60):  # contraction: 0.1 * sqrt(6) / 2 < 1
        c = 0.5 * (bound + 0.1 * np.linalg.norm(S + direction * c * I6))
    return S + direction * c * I6


def _indefinite(rng, scale: float):
    """A random operator with sampled planes of both signs (kept as witnesses)."""
    while True:
        S = _admissible(rng, scale)
        planes = checks.random_planes(rng, 64)
        q = checks.q_values(S, *planes)
        if q.max() > 0.0 > q.min():
            keep = [int(q.argmax()), int(q.argmin())]
            return S, (planes[0][keep], planes[1][keep])


def _file_matrix(S: np.ndarray, basis: str) -> np.ndarray:
    return S if basis == "sd-asd" else checks.coordinate_matrix(S)


def _write_operator(inp: Input, workdir: Path, name: str) -> None:
    inp.path = workdir / name
    inp.path.write_text(json.dumps({"basis": inp.data["basis"],
                                    "matrix": inp.data["matrix"].tolist()}))


# -- certify: the decompose + certify request on one operator file ---------------

def certify_request(path) -> tuple[str, str]:
    """What `fourcurv decompose` then `fourcurv certify` do to one file."""
    op = jsonio.load_operator(path)
    d = curvops.decompose(op)
    out = {"decomposition": d.to_dict(), "glReport": curvops.gl_defect(d).to_dict()}
    try:
        out["charDensities"] = curvops.char_densities(d).to_dict()
    except FourcurvError:
        out["charDensities"] = None
    decomposed = jsonio.dumps(out)
    cert = secsign.certify_sec_sign(op)
    return decomposed, jsonio.dumps(cert.to_dict())


def model_request(name: str, params: dict) -> str:
    return jsonio.dumps(models.catalog(name, params).to_dict())


class Workload:
    name = ""
    in_process = True
    # Python run by each fresh interpreter of the set-up probe: the imports,
    # and the CLI parser or page_metric() where the workload uses them.
    setup_code = ""
    trace_requests = 0  # fixed request count of a traced run
    warmup_requests = 0

    def make(self, seed: int, index: int) -> Input:
        raise NotImplementedError

    def warm_input(self, seed: int, index: int) -> Input:
        """Warm-up inputs: the same kinds, from a stream the run never uses."""
        return self.make(seed + WARM_STREAM, index)

    def prepare(self, inp: Input, workdir: Path) -> None:
        pass

    def execute(self, inp: Input):
        raise NotImplementedError

    def check(self, inp: Input, out, seed: int, index: int) -> Outcome:
        raise NotImplementedError

    def cleanup(self, inp: Input) -> None:
        if inp.path is not None:
            inp.path.unlink(missing_ok=True)

    def more(self, done: int) -> bool:
        """Whether a run that has used its time must still take a request."""
        return False

    # parts of the reference chunk (see run.py) that resemble the workload's
    # work: interpreter loops and small LAPACK calls; one chunk per
    # reference_every_s of request time
    reference = ("loop", "eig")
    reference_every_s = 0.1

    def group(self, inp: Input):
        """Inputs of one group share a latency median, and the latency metric
        is the mean of the groups' medians: a median over a mix of very
        different costs would jump between them from run to run."""
        return inp.kind

    # Known-defect probe: inputs on which the program is known to answer
    # wrongly.  They are run and checked outside the timed requests, so a
    # documented defect is measured on every run without counting as a failed
    # request; a probe failure of any other kind still fails the run.
    probe_label = ""
    probe_requests = 0

    def probe_input(self, seed: int, index: int) -> Input:
        raise NotImplementedError


_CERTIFY_SETUP = ("from fourcurv import cli, curvops, jsonio, models, secsign\n"
                  "cli.build_parser().parse_args(['certify', '-i', 'operator.json'])\n")


class CertifyBase(Workload):
    setup_code = _CERTIFY_SETUP

    def prepare(self, inp, workdir):
        if "matrix" in inp.data:
            _write_operator(inp, workdir, "op.json")

    def execute(self, inp):
        if inp.kind == "model":
            return model_request(inp.data["model"], inp.data["params"])
        return certify_request(inp.path)

    def _check_operator(self, inp, out, seed, index) -> Outcome:
        S = checks.sd_matrix(inp.data["matrix"], inp.data["basis"])
        rng = np.random.default_rng([seed, index, 7])
        planes = checks.random_planes(rng, 16)
        extra = inp.data.get("witness_planes")
        if extra is not None:
            planes = (np.vstack([planes[0], extra[0]]), np.vstack([planes[1], extra[1]]))
        decomposed, certified = out
        reasons, facts = checks.check_certificate(certified, S, inp.data["expected"], planes)
        reasons += checks.check_decomposition(decomposed, S, inp.data["einstein"],
                                              inp.data.get("ratio", False))
        facts["operator"] = True
        return Outcome(reasons, facts=facts)


class CertifyGeneric(CertifyBase):
    """Non-Einstein operators: the alternating search does the work."""

    name = "certify-generic"
    trace_requests = 40
    warmup_requests = 10
    PATTERN = ("indefinite",) * 10 + ("nonpos",) * 5 + ("nonneg",) * 5
    probe_label = "scaled operators refused or misjudged"
    probe_requests = 10

    def make(self, seed, index):
        kind = _stratified(seed, 1, index, self.PATTERN)
        rng = np.random.default_rng([seed, index, 1])
        return self._operator(kind, kind, seed, index, rng)

    def probe_input(self, seed, index):
        """An operator of a random kind scaled by 10^U(150, 300)."""
        rng = np.random.default_rng([seed, index, 6])
        base = _pick(rng, ("indefinite", "nonpos", "nonneg"))
        return self._operator("scaled", base, seed, PROBE_STREAM + index, rng)

    @staticmethod
    def _operator(kind, base, seed, index, rng):
        scale = 10.0 ** (-3.0 + 6.0 * _stratified_unit(seed, 11, index, rng))
        data = {"basis": _pick(rng, ("coordinate", "sd-asd")), "einstein": False,
                "expected": base}
        if base == "indefinite":
            S, data["witness_planes"] = _indefinite(rng, scale)
        else:
            S = _shift_to_sign(_admissible(rng, scale), base)
        if kind == "scaled":
            S = S * 10.0 ** rng.uniform(150.0, 300.0)
        data["matrix"] = _file_matrix(S, data["basis"])
        return Input(kind, data)

    def group(self, inp):
        # the three kinds share one cost distribution, so one median over all
        # requests is steadier than three medians over a third of them each
        return None

    def check(self, inp, out, seed, index):
        if isinstance(out, Exception):
            return Outcome([f"{type(out).__name__}: {out}"], known=inp.kind == "scaled",
                           facts={"operator": True})
        outcome = self._check_operator(inp, out, seed, index)
        outcome.known = inp.kind == "scaled"
        return outcome


# near-Einstein certificates drop the Ricci block, so only these contradictions
# are the documented defect of that input kind
_NEAR_EINSTEIN_DEFECT = {"plane above qMaxUpper", "plane below qMinLower"}

_EINSTEIN_MODELS = ("sphere4", "hyperbolic4", "surfaceProduct", "fubiniStudy", "bergman")


class CertifyEinstein(CertifyBase):
    """Einstein and near-Einstein operators, and Einstein catalog models."""

    name = "certify-einstein"
    trace_requests = 1500
    warmup_requests = 400
    PATTERN = ("einstein",) * 9 + ("dyadic",) * 6 + ("model",) * 5
    probe_label = "near-Einstein certificates with a bound its own planes contradict"
    probe_requests = 40

    def make(self, seed, index):
        kind = _stratified(seed, 2, index, self.PATTERN)
        return self._make(kind, np.random.default_rng([seed, index, 2]))

    def probe_input(self, seed, index):
        return self._make("near", np.random.default_rng([seed, index, 8]))

    @staticmethod
    def _make(kind, rng):
        if kind == "model":
            name = _pick(rng, _EINSTEIN_MODELS)
            mag = 10.0 ** rng.uniform(-1.0, 1.0)
            params = {"sphere4": {"r": mag}, "hyperbolic4": {"r": mag},
                      "surfaceProduct": {"a": mag if rng.random() < 0.5 else -mag},
                      "fubiniStudy": {"s": 10.0 * mag}, "bergman": {"s": -10.0 * mag}}[name]
            if name == "surfaceProduct":
                params["b"] = params["a"]
            return Input(kind, {"model": name, "params": params})
        data = {"basis": _pick(rng, ("coordinate", "sd-asd")), "einstein": True}
        if kind == "dyadic":
            wp, wm = (rng.integers(-32, 33, (3, 3)) / 8.0 for _ in range(2))
            for W in (wp, wm):
                W[:] = np.triu(W) + np.triu(W, 1).T
                W[2, 2] = -W[0, 0] - W[1, 1]
            s = 12.0 * float(_pick(rng, (-1, 1)) * rng.integers(1, 41)) / 8.0
            S = _einstein_blocks(s, wp, wm)
            data["ratio"] = checks.exact_density_ratio(wp, wm, s)
        else:
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            wp, wm = _traceless(rng, scale), _traceless(rng, scale)
            s = float(rng.normal(0.0, 4.0 * scale))
            B = None
            if kind == "near":
                # Ricci block within CLASSIFY_TOL |s|, aligned with the
                # Einstein maximiser (top eigenvectors of W+ and W-)
                u = np.linalg.eigh(wp)[1][:, 2]
                v = np.linalg.eigh(wm)[1][:, 2]
                eps = rng.uniform(0.3, 0.9) * curvops.CLASSIFY_TOL * max(1.0, abs(s))
                B = eps * np.outer(u, v)
            S = _einstein_blocks(s, wp, wm, B)
        data["expected"] = "unknown"
        data["matrix"] = _file_matrix(S, data["basis"])
        return Input(kind, data)

    def check(self, inp, out, seed, index):
        if isinstance(out, Exception):
            return Outcome([f"{type(out).__name__}: {out}"],
                           facts={"operator": inp.kind != "model"})
        if inp.kind == "model":
            return Outcome(checks.check_model(out, inp.data["model"], inp.data["params"]))
        outcome = self._check_operator(inp, out, seed, index)
        outcome.known = (inp.kind == "near" and bool(outcome.reasons)
                         and set(outcome.reasons) <= _NEAR_EINSTEIN_DEFECT)
        return outcome


# -- page: one fresh `python -m fourcurv page ...` process per request --------------

PAGE_RADII = (16, 32, 64)
PAGE_NODES = (24, 48)
PAGE_COMBOS = tuple((r, n) for r in PAGE_RADII for n in PAGE_NODES)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int
    spans: dict | None = None


def run_child(argv: list[str], workdir: Path) -> ChildResult:
    """Run one child to completion; its own peak RSS comes from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                       usage.ru_maxrss)


class PagePipeline(Workload):
    """The full Page pipeline; finite differences do the work."""

    name = "page-pipeline"
    in_process = False
    setup_code = "from fourcurv import cli, page\ncli.build_parser()\npage.page_metric()\n"
    # a request is a fresh interpreter, whose start-up and imports a host
    # slows unlike in-process work: the reference is a spawned interpreter
    reference = ("spawn",)
    reference_every_s = 1.0
    trace_requests = len(PAGE_COMBOS)
    warmup_requests = 1

    def __init__(self):
        self.digests: dict[tuple[int, int], bytes] = {}

    def make(self, seed, index):
        cycle, pos = divmod(index, len(PAGE_COMBOS))
        order = np.random.default_rng([seed, cycle, 3]).permutation(len(PAGE_COMBOS))
        radii, nodes = PAGE_COMBOS[order[pos]]
        return Input("page", {"radii": radii, "nodes": nodes})

    @staticmethod
    def argv(inp) -> list[str]:
        return ["page", "--verify", "--negcurv", "--integrate",
                "--radii", str(inp.data["radii"]), "--nodes", str(inp.data["nodes"])]

    def prepare(self, inp, workdir):
        inp.data["workdir"] = workdir

    def execute(self, inp):
        return run_child([sys.executable, "-m", "fourcurv", *self.argv(inp)],
                         inp.data["workdir"])

    def execute_traced(self, inp) -> ChildResult:
        workdir = inp.data["workdir"]
        spans_path = workdir / "spans.json"
        res = run_child([sys.executable, str(PERF / "shim.py"), str(spans_path),
                         *self.argv(inp)], workdir)
        if spans_path.exists():
            res.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        return res

    def check(self, inp, out, seed, index):
        if isinstance(out, Exception):
            return Outcome([f"{type(out).__name__}: {out}"])
        try:
            reasons, facts = checks.check_page(out.returncode, out.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome([f"unreadable output: {exc!r}"])
        if out.returncode != 0:
            reasons.append(out.stderr.decode(errors="replace").strip()[-300:])
        key = (inp.data["radii"], inp.data["nodes"])
        first = self.digests.setdefault(key, out.stdout)
        if first != out.stdout:
            reasons.append(f"stdout differs for repeated {key}")
        facts["maxrss_kib"] = out.maxrss_kib
        return Outcome(reasons, facts=facts)

    def more(self, done):
        return done % len(PAGE_COMBOS) != 0  # finish the (R, N) cycle

    def group(self, inp):
        return inp.data["radii"], inp.data["nodes"]


# -- geo-scan: in-process CLI calls, `scan` and `geo --csv` alternating -------------

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GEO_ROWS = 20_000
SCAN_LO, SCAN_HI = 100, 400


@functools.lru_cache(maxsize=2)
def scan_order(seed: int) -> tuple[int, ...]:
    """All of 100..400 in a seeded order whose every prefix is spread evenly.

    The golden-ratio sequence with a seeded offset, skipping values already
    taken, so the first 301 scans of a run are distinct.
    """
    offset = np.random.default_rng([seed, 4]).random()
    n = SCAN_HI - SCAN_LO + 1
    order, taken, j = [], set(), 0
    while len(order) < n:
        v = SCAN_LO + int(((offset + j * GOLDEN) % 1.0) * n)
        if v not in taken:
            taken.add(v)
            order.append(v)
        j += 1
    return tuple(order)


def cli_call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class GeoScan(Workload):
    """Exact geography flags through the CLI's two CSV writers."""

    name = "geo-scan"
    setup_code = "from fourcurv import cli, geography\n"
    reference = ("loop", "text")  # no numpy; the CSV writers build text
    trace_requests = 8
    warmup_requests = 2

    def make(self, seed, index):
        if index % 2 == 0:
            order = scan_order(seed)
            return Input("scan", {"chi_max": order[(index // 2) % len(order)]})
        rng = np.random.default_rng([seed, index, 5])
        chi = rng.integers(0, 4000, GEO_ROWS)
        tau = rng.integers(-chi - 3, chi + 4)
        return Input("geo", {"pairs": list(zip(chi.tolist(), tau.tolist()))})

    def warm_input(self, seed, index):
        if index % 2 == 0:  # below the timed range, so no timed value is taken
            return Input("scan", {"chi_max": 50 + index})
        return self.make(seed + WARM_STREAM, index)

    def prepare(self, inp, workdir):
        if inp.kind == "geo":
            inp.path = workdir / "points.csv"
            inp.path.write_text("chi,tau\n" + "".join(f"{c},{t}\n" for c, t in inp.data["pairs"]))

    def execute(self, inp):
        if inp.kind == "scan":
            return cli_call(["scan", "--chi-max", str(inp.data["chi_max"])])
        return cli_call(["geo", "--csv", str(inp.path)])

    def check(self, inp, out, seed, index):
        if isinstance(out, Exception):
            return Outcome([f"{type(out).__name__}: {out}"])
        if inp.kind == "scan":
            want = checks.expected_csv(checks.scan_pairs(inp.data["chi_max"]))
        else:
            want = checks.expected_csv(inp.data["pairs"])
        return Outcome(checks.check_csv(out[0], out[1], want))


WORKLOADS = {w.name: w for w in (CertifyGeneric, CertifyEinstein, PagePipeline, GeoScan)}


def timed(workload: Workload, inp: Input):
    """(output or the exception raised, seconds)."""
    t0 = perf_counter()
    try:
        out = workload.execute(inp)
    except Exception as exc:  # a failed request is counted, not fatal
        out = exc
    return out, perf_counter() - t0
