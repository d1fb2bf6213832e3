"""Shared generators for randomized operator tests.

All randomness is seeded through numpy Generators so every run is
reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fourcurv import curvops
from fourcurv.curvops import SD_ASD, CurvatureOperator
from fourcurv.secsign import _canonical


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SO(3) matrix via QR with positive diagonal."""
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_traceless_symmetric(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    M = rng.standard_normal((3, 3)) * scale
    M = 0.5 * (M + M.T)
    return M - (np.trace(M) / 3.0) * np.eye(3)


def random_admissible_operator(rng: np.random.Generator, scale: float = 1.0,
                               basis: str = SD_ASD) -> CurvatureOperator:
    """Random symmetric operator with the Bianchi trace balance enforced."""
    M = rng.standard_normal((6, 6)) * scale
    M = 0.5 * (M + M.T)
    A, B, C = M[:3, :3], M[:3, 3:], M[3:, 3:]
    shift = (np.trace(A) - np.trace(C)) / 6.0
    A = A - shift * np.eye(3)
    C = C + shift * np.eye(3)
    full = np.zeros((6, 6))
    full[:3, :3] = A
    full[:3, 3:] = B
    full[3:, :3] = B.T
    full[3:, 3:] = C
    op = CurvatureOperator(full, basis=SD_ASD)
    if basis == SD_ASD:
        return op
    return CurvatureOperator(op.in_coordinate_basis(), basis="coordinate")


def assemble_einstein(s: float, w_plus: np.ndarray, w_minus: np.ndarray,
                      basis: str = SD_ASD) -> CurvatureOperator:
    M = np.zeros((6, 6))
    M[:3, :3] = w_plus + (s / 12.0) * np.eye(3)
    M[3:, 3:] = w_minus + (s / 12.0) * np.eye(3)
    op = CurvatureOperator(M, basis=SD_ASD)
    if basis == SD_ASD:
        return op
    return CurvatureOperator(op.in_coordinate_basis(), basis="coordinate")


def random_einstein_operator(rng: np.random.Generator, scale: float = 1.0) -> CurvatureOperator:
    wp = random_traceless_symmetric(rng, scale)
    wm = random_traceless_symmetric(rng, scale)
    s = float(rng.normal(0.0, 4.0 * scale))
    return assemble_einstein(s, wp, wm)


def rotated_spectrum(rng: np.random.Generator, spectrum) -> np.ndarray:
    Q = random_rotation(rng)
    return Q @ np.diag(np.asarray(spectrum, dtype=float)) @ Q.T


def orientation_flipped(d: curvops.Decomposition) -> curvops.Decomposition:
    """The decomposition of the same operator under the opposite orientation:
    the roles of the SD and ASD halves swap, and the Ricci block transposes."""
    return curvops.Decomposition(
        s=d.s,
        w_plus=d.w_minus,
        w_minus=d.w_plus,
        ric_block=d.ric_block.T,
        spectrum_plus=d.spectrum_minus,
        spectrum_minus=d.spectrum_plus,
        err=d.err,
    )


def witness_two_form(psi_plus, psi_minus) -> np.ndarray:
    """Coordinate-basis coefficients of the unit 2-form (psi+ + psi-)/sqrt(2)
    of a witness plane, from its unit vectors in the SD/ASD frames: the frames
    are (e_i +- sign e_j)/sqrt(2) over the Hodge pairs (i, j, sign) below."""
    c = np.zeros(6)
    for a, (i, j, sign) in enumerate(((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))):
        c[i] = 0.5 * (psi_plus[a] + psi_minus[a])
        c[j] = 0.5 * sign * (psi_plus[a] - psi_minus[a])
    return c


# ---------------------------------------------------------------------------
# Grid oracle for q_max, independent of the dual certificate: exact
# sphere-constrained inner solves (secular equation) and alternating
# maximization from many starts.
# ---------------------------------------------------------------------------

_BISECT_ITERS = 80


def _sphere_max_batch(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Maximizers of x^T diag(c) x + 2 <b_k, x> over |x| = 1, batched over k.

    Solves the secular equation sum_i b_i^2/(sigma - c_i)^2 = 1 for the
    Lagrange multiplier sigma > max(c) by bisection (robust against the
    hard case, where the solution gains a component along the top
    eigenvector).  ``c`` is shape (3,), ``b`` is (k, 3); returns (k, 3).
    """
    b = np.atleast_2d(b)
    k = b.shape[0]
    cmax = c[-1]
    bnorm = np.linalg.norm(b, axis=1)
    scale = max(1.0, float(np.abs(c).max()))

    lo = np.full(k, cmax)
    hi = cmax + np.maximum(bnorm, 1e-300)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        gaps = np.maximum(mid[:, None] - c[None, :], 1e-300)
        phi = np.sum((b / gaps) ** 2, axis=1)
        take_lo = phi > 1.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    sigma = hi

    gaps = sigma[:, None] - c[None, :]
    tiny = 1e-14 * scale + 1e-300
    safe = gaps > tiny
    x = np.where(safe, b / np.where(safe, gaps, 1.0), 0.0)
    # hard case: a genuine norm deficit is filled along the top
    # eigendirection; bisection roundoff (deficit ~ ulp) is left to the
    # final renormalization so regular-case witnesses stay stationary
    n2 = np.sum(x * x, axis=1)
    top_fill = np.sqrt(np.maximum(0.0, 1.0 - n2))
    x[:, 2] += np.where(n2 < 1.0 - 1e-10, top_fill, 0.0)
    norms = np.linalg.norm(x, axis=1)
    # b = 0 and degenerate fills can leave x = 0; fall back to the top axis
    zero = norms < 1e-150
    x[zero] = np.array([0.0, 0.0, 1.0])
    norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


def _q_batch(a: np.ndarray, c: np.ndarray, Bt: np.ndarray,
             u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (np.sum(u * u * a[None, :], axis=1)
            + np.sum(v * v * c[None, :], axis=1)
            + 2.0 * np.sum(u * (v @ Bt.T), axis=1))


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform directions on the unit 2-sphere."""
    k = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * k
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _alternating_max(a, c, Bt, starts, max_sweeps, improvement_tol):
    """Best witness of q from a batch of psi_plus starts.

    Alternates the exact inner solves until the batch maximum stops
    improving.  Returns (q, u, v) in the A/C eigenbases with the winner
    selected by maximal q and lexicographic tie-break on the canonical
    witness coordinates.
    """
    u = starts
    v = _sphere_max_batch(c, u @ Bt)
    q = _q_batch(a, c, Bt, u, v)
    for _ in range(max_sweeps):
        u = _sphere_max_batch(a, v @ Bt.T)
        v = _sphere_max_batch(c, u @ Bt)
        q_new = _q_batch(a, c, Bt, u, v)
        # inner solves are exact maximizations, so q is nondecreasing per start
        if float(np.max(q_new - q)) < improvement_tol:
            q = q_new
            break
        q = q_new
    best = float(q.max())
    # deterministic reduction: max q, then lexicographically smallest witness
    top = np.flatnonzero(q >= best)
    winner = None
    for idx in top:
        cu, cv = _canonical(u[idx], v[idx])
        key = (q[idx], tuple(-cu), tuple(-cv))
        if winner is None or key > winner[0]:
            winner = (key, cu, cv)
    _, cu, cv = winner
    return float(_q_batch(a, c, Bt, cu[None, :], cv[None, :])[0]), cu, cv


def grid_oracle_qmax(op: CurvatureOperator, n_grid: int = 2562,
                     polish_top: int = 256) -> tuple[float, float]:
    """Independent q_max oracle: exhaustive direction grid with exact inner
    solves, then alternation polish of the best candidates.

    Every one of the ``n_grid`` Fibonacci directions gets an exact inner
    solve; the ``polish_top`` best are then alternated to convergence.
    Returns ``(polished, bare)``: the polished maximum, and the maximum of
    the bare grid, a lower bound on q_max taken from the same grid pass.  It
    is reference code for the tests: a primal search that shares no
    optimization code with the dual certificate it is compared against.
    """
    A, B, C = op.blocks()
    a, Qa = np.linalg.eigh(A)
    c, Qc = np.linalg.eigh(C)
    Bt = Qa.T @ B @ Qc
    u = _fibonacci_sphere(n_grid)
    v = _sphere_max_batch(c, u @ Bt)
    q = (np.sum(u * u * a[None, :], axis=1) + np.sum(v * v * c[None, :], axis=1)
         + 2.0 * np.sum(u * (v @ Bt.T), axis=1))
    top = np.argsort(q)[-polish_top:]
    q_best, _, _ = _alternating_max(a, c, Bt, u[top], 200, 1e-13)
    return float(q_best), float(q.max())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
