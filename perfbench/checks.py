"""Output checkers, written with the benchmark's own arithmetic.

Nothing here calls fourcurv: the SD/ASD frame, the q form, the geography
flags and the Page tolerances are recomputed from their definitions, so a
defect in the program cannot also hide in its check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

EPS = np.finfo(float).eps
# A certified bound may be contradicted by this many ulps of ||R||_F before
# the contradiction counts: q is a sum of 36 rounded products.
ALLOW_ULPS = 32
# The program's verdict tolerance is 1e-8 * ||R||_F; a verdict is checked
# against the same scale-free tolerance.
VERDICT_TOL = 1e-8

_SQ = 1.0 / math.sqrt(2.0)
# Hodge star pairs coordinate slots (0,5), (1,4), (2,3) with signs +, -, +.
_PAIRS = ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))


def frame() -> np.ndarray:
    """Orthogonal 6x6 matrix whose columns are the SD then the ASD frame."""
    P = np.zeros((6, 6))
    for a, (i, j, s) in enumerate(_PAIRS):
        P[i, a] = _SQ
        P[j, a] = s * _SQ
        P[i, 3 + a] = _SQ
        P[j, 3 + a] = -s * _SQ
    return P


P_FRAME = frame()


_I = [i for i, _, _ in _PAIRS]
_J = [j for _, j, _ in _PAIRS]
_SIGN = np.array([sign for _, _, sign in _PAIRS])


def coordinate_matrix(S: np.ndarray) -> np.ndarray:
    """P S P^T by adds and halvings only, so dyadic blocks stay exact."""
    A, B, C = S[:3, :3], S[:3, 3:], S[3:, 3:]
    Bt = B.T
    M = np.empty((6, 6))
    M[np.ix_(_I, _I)] = 0.5 * ((A + C) + (B + Bt))
    M[np.ix_(_J, _J)] = np.outer(_SIGN, _SIGN) * (0.5 * ((A + C) - (B + Bt)))
    M[np.ix_(_I, _J)] = _SIGN[None, :] * (0.5 * ((A - C) - (B - Bt)))
    M[np.ix_(_J, _I)] = _SIGN[:, None] * (0.5 * ((A - C) + (B - Bt)))
    return M


def sd_matrix(matrix, basis: str) -> np.ndarray:
    """The operator in the SD/ASD frame, as a 6x6 block matrix."""
    M = np.asarray(matrix, dtype=float)
    if basis == "sd-asd":
        return M
    return P_FRAME.T @ M @ P_FRAME


def q_values(S: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """q = <x, S x> for x = (psi+, psi-), batched over rows."""
    x = np.concatenate([np.atleast_2d(plus), np.atleast_2d(minus)], axis=1)
    return np.einsum("ki,ij,kj->k", x, S, x)


def random_planes(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    u = rng.standard_normal((n, 3))
    v = rng.standard_normal((n, 3))
    return (u / np.linalg.norm(u, axis=1)[:, None], v / np.linalg.norm(v, axis=1)[:, None])


def _num(x) -> float:
    return float(x)  # also maps the emitted "Infinity" / "NaN" strings


def check_certificate(text: str, S: np.ndarray, expected: str,
                      planes: tuple[np.ndarray, np.ndarray]) -> tuple[list[str], dict]:
    """Failure reasons for one certificate, and facts for the metrics.

    ``S`` is the operator in the SD/ASD frame, ``expected`` one of
    ``nonneg``, ``nonpos``, ``indefinite`` or ``unknown``, ``planes`` extra
    unit pairs at which q is evaluated against the certified bounds.
    """
    cert = json.loads(text)
    k = float(np.abs(S).max())
    k = k if k > 0.0 else 1.0
    Sn = S / k  # q is homogeneous: check at unit scale, so nothing overflows
    norm = float(np.linalg.norm(Sn))
    allow = ALLOW_ULPS * EPS * max(norm, 1e-300)
    tol = VERDICT_TOL * norm
    reasons: list[str] = []
    bounds = [_num(cert[key]) / k for key in ("qMaxLower", "qMaxUpper", "qMinLower", "qMinUpper")]
    verdict = cert["verdict"]
    facts = {"verdict": verdict, "bound_gap_rel": math.nan}
    if not all(math.isfinite(b) for b in bounds):
        reasons.append("non-finite bound")
        return reasons, facts
    max_lo, max_hi, min_lo, min_hi = bounds
    facts["bound_gap_rel"] = (max_hi - max_lo) / norm if norm > 0 else 0.0
    if max_lo > max_hi + allow:
        reasons.append("qMaxLower above qMaxUpper")
    if min_lo > min_hi + allow:
        reasons.append("qMinLower above qMinUpper")
    wq = {}
    for key in ("maxWitness", "minWitness"):
        w = cert[key]
        plus = np.asarray(w["psiPlus"], dtype=float)
        minus = np.asarray(w["psiMinus"], dtype=float)
        if (not np.all(np.isfinite(plus)) or not np.all(np.isfinite(minus))
                or abs(np.linalg.norm(plus) - 1.0) > 1e-9
                or abs(np.linalg.norm(minus) - 1.0) > 1e-9):
            reasons.append(f"{key} is not a unit pair")
            return reasons, facts
        wq[key] = float(q_values(Sn, plus, minus)[0])
    q_max_w, q_min_w = wq["maxWitness"], wq["minWitness"]
    if max_lo > q_max_w + allow:
        reasons.append("qMaxLower not attained by its witness")
    if min_hi < q_min_w - allow:
        reasons.append("qMinUpper not attained by its witness")
    qs = np.concatenate([[q_max_w, q_min_w], q_values(Sn, *planes)])
    if float(qs.max()) > max_hi + allow:
        reasons.append("plane above qMaxUpper")
    if float(qs.min()) < min_lo - allow:
        reasons.append("plane below qMinLower")
    if verdict == "NonNegative" and float(qs.min()) < -(tol + allow):
        reasons.append("NonNegative contradicted by a plane")
    if verdict == "NonPositive" and float(qs.max()) > tol + allow:
        reasons.append("NonPositive contradicted by a plane")
    if verdict == "Indefinite" and not (q_max_w > 0.0 > q_min_w):
        reasons.append("Indefinite without witnesses of both signs")
    wrong = {"nonneg": ("NonPositive", "Indefinite"), "nonpos": ("NonNegative", "Indefinite"),
             "indefinite": ("NonNegative", "NonPositive")}.get(expected, ())
    if verdict in wrong:
        reasons.append(f"verdict {verdict} where {expected} is known")
    return reasons, facts


def exact_density_ratio(w_plus, w_minus, s) -> str | None:
    """Euler/signature density ratio 3/2 (|W+|^2 + |W-|^2 + s^2/24) / (|W+|^2 - |W-|^2)."""
    wp2 = sum(Fraction(float(x)) ** 2 for x in np.ravel(w_plus))
    wm2 = sum(Fraction(float(x)) ** 2 for x in np.ravel(w_minus))
    sig = wp2 - wm2
    if sig == 0:
        return None
    r = Fraction(3, 2) * (wp2 + wm2 + Fraction(float(s)) ** 2 / 24) / sig
    return f"{r.numerator}/{r.denominator}"


def check_decomposition(text: str, S: np.ndarray, einstein: bool,
                        ratio: str | None | bool) -> list[str]:
    """``ratio`` is the exact expected ratio string, None, or False to skip."""
    out = json.loads(text)
    reasons = []
    s = 2.0 * (np.trace(S[:3, :3]) + np.trace(S[3:, 3:]))
    scale = max(1.0, float(np.abs(S).max()))
    if abs(_num(out["decomposition"]["s"]) - s) > 1e-12 * scale:
        reasons.append("scalar curvature differs")
    cd = out["charDensities"]
    if einstein and cd is None:
        reasons.append("no densities for an Einstein operator")
    if not einstein and cd is not None:
        reasons.append("densities for a non-Einstein operator")
    if ratio is not False and cd is not None and cd["ratio"] != ratio:
        reasons.append(f"density ratio {cd['ratio']} != {ratio}")
    return reasons


def check_model(text: str, name: str, params: dict) -> list[str]:
    out = json.loads(text)
    expected_s = {
        "sphere4": lambda p: 12.0 / p["r"] ** 2,
        "hyperbolic4": lambda p: -12.0 / p["r"] ** 2,
        "surfaceProduct": lambda p: 2.0 * (p["a"] + p["b"]),
        "fubiniStudy": lambda p: p["s"],
        "bergman": lambda p: p["s"],
    }[name](params)
    positive = {"sphere4": True, "hyperbolic4": False, "fubiniStudy": True,
                "bergman": False, "surfaceProduct": params.get("a", 0.0) > 0}[name]
    reasons = []
    s = _num(out["decomposition"]["s"])
    if abs(s - expected_s) > 1e-12 * max(1.0, abs(expected_s)):
        reasons.append(f"model s {s} != {expected_s}")
    if out["flags"]["einstein"] is not True:
        reasons.append("Einstein model not flagged Einstein")
    sign = "NonNegative" if positive else "NonPositive"
    if out["flags"]["secSign"] != sign:
        reasons.append(f"model secSign {out['flags']['secSign']} != {sign}")
    return reasons


# -- page ---------------------------------------------------------------------

PAGE_CHI, PAGE_LAMBDA = 4.0, 3.0


def check_page(returncode: int, stdout: bytes) -> tuple[list[str], dict]:
    if returncode != 0:
        return [f"exit code {returncode}"], {}
    out = json.loads(stdout)
    e, n, c = out["einstein"], out["negativeCurvature"], out["charNumbers"]
    chi, tau = _num(c["chi"]), _num(c["tau"])
    reasons = []
    if not abs(chi - PAGE_CHI) <= 1e-3:
        reasons.append(f"chi {chi!r}")
    if not abs(tau) <= 1e-6:
        reasons.append(f"tau {tau!r}")
    if not abs(_num(e["lambda"]) - PAGE_LAMBDA) <= 1e-6:
        reasons.append(f"lambda {e['lambda']!r}")
    if not _num(e["maxResidual"]) <= 1e-6:
        reasons.append(f"maxResidual {e['maxResidual']!r}")
    if not _num(n["minSec"]) < 0.0:
        reasons.append(f"minSec {n['minSec']!r}")
    return reasons, {"chi_abs_err": abs(chi - PAGE_CHI)}


# -- geography ----------------------------------------------------------------

GEO_HEADER = ("chi,tau,gromov_luck,einstein_nonpos_strict,bmy,"
              "bmy_equality,c1sq,both_orientations_complex")


def geo_row(chi: int, tau: int) -> str:
    t = abs(tau)
    flags = (chi >= t, 8 * chi > 15 * t, chi >= 3 * tau, chi == 3 * tau)
    b = ["true" if f else "false" for f in flags]
    return (f"{chi},{tau},{b[0]},{b[1]},{b[2]},{b[3]},{2 * chi + 3 * tau},"
            f"{'true' if tau % 2 == 0 else 'false'}")


def expected_csv(pairs) -> str:
    return "\n".join([GEO_HEADER, *(geo_row(c, t) for c, t in pairs)]) + "\n"


def scan_pairs(chi_max: int):
    return ((chi, tau) for chi in range(chi_max + 1) for tau in range(-chi, chi + 1))


def check_csv(returncode: int, text: str, want: str) -> list[str]:
    """``want`` is :func:`expected_csv` of the requested pairs."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if text == want:
        return []
    got_rows, want_rows = text.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_rows, want_rows)):
        if a != b:
            return [f"row {i}: {a!r} != {b!r}"]
    return [f"row count {len(got_rows)} != {len(want_rows)}"]
