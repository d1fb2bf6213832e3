"""Pointwise curvature algebra for oriented Riemannian 4-manifolds.

A curvature operator is a symmetric endomorphism of the 6-dimensional space
of 2-forms at a point, written in the ordered coordinate basis

    e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4

of an oriented orthonormal coframe.  The basis is declared orthonormal, the
Hodge star acts with the sign pattern of this ordering, and the operator is
normalized so that sec(span(X, Y)) = <R(X^Y), X^Y> for orthonormal X, Y.
With this convention the identity operator is the unit round 4-sphere
(s = 12, sec = 1).

The module provides the self-dual/anti-self-dual split, the block
decomposition (scalar curvature s, Weyl halves W+/W-, traceless-Ricci
block), the Gursky-LeBrun saturation defect |s|/sqrt(6) - (|W+| + |W-|)
with its equality-case classifier, and the Chern-Gauss-Bonnet /
Hirzebruch-signature densities for Einstein operators.

All value types are immutable after construction (arrays are marked
read-only) and every operation is a pure function of its inputs, so
unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    BianchiViolationError,
    IndefiniteSignError,
    InvalidBlocksError,
    NotAdmissibleError,
    NotEinsteinError,
    NotKahlerError,
    NotSymmetricError,
)
from .names import CLASSIFY_TOL, COORDINATE, SD_ASD

# Tolerance for symmetry / first-Bianchi / block-trace validation, relative
# to max(1, max|R|) for operators.
STRUCTURAL_TOL = 1e-9
_SQRT6 = math.sqrt(6.0)
_EYE3 = np.eye(3)

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Hodge star pairs the basis 2-forms (0,5), (1,4), (2,3) with signs +,-,+.
# The self-dual frame is f_a = (E_i + sign * E_j)/sqrt(2); flipping the sign
# gives the anti-self-dual frame.  Every SD/ASD conversion below indexes this
# one table, through its array columns _SD_I, _SD_J, _SD_SIGN.
_SD_PAIRS = ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))
_SD_I, _SD_J, _SD_SIGN = (np.array(col) for col in zip(*_SD_PAIRS))
_set = object.__setattr__  # how a Record's __init__ sets its slots


class CoverClass(str, Enum):
    SPHERE_PRODUCT = "SphereProduct"
    FLAT = "Flat"
    HYPERBOLIC_PLANE_PRODUCT = "HyperbolicPlaneProduct"
    NOT_SATURATED = "NotSaturated"


class EqualityBranch(str, Enum):
    NON_POSITIVE = "NonPositive"
    NON_NEGATIVE = "NonNegative"
    NONE = "None"


class CurvatureSign(str, Enum):
    NON_POSITIVE = "NonPositive"
    NON_NEGATIVE = "NonNegative"
    INDEFINITE = "Indefinite"
    ZERO = "Zero"


# Entry (a, b) of the SD/ASD blocks combines M[i_a, i_b], s_b M[i_a, j_b],
# s_a M[j_a, i_b] and s_a s_b M[j_a, j_b] over the pairs (i, j, s) of
# _SD_PAIRS: the flat indices and the signs of these four terms.
_PAIR_ROWS = (_SD_I, _SD_J)
_PAIR_SIGNS = (np.ones(3), _SD_SIGN)
_TERMS = ((0, 0), (0, 1), (1, 0), (1, 1))
_TERM_INDEX = np.array([6 * _PAIR_ROWS[p][:, None] + _PAIR_ROWS[q] for p, q in _TERMS])
_TERM_SIGN = np.array([_PAIR_SIGNS[p][:, None] * _PAIR_SIGNS[q] for p, q in _TERMS])


def _block_transform(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate-basis matrices ``(..., 6, 6)`` -> (A, B, C) blocks of the
    SD/ASD-basis matrices.

    Uses the index arithmetic of the sqrt(2)-normalized eigenframe directly,
    so the transform is exact on dyadic inputs (only adds and halving).
    """
    terms = np.take(M.reshape(M.shape[:-2] + (36,)), _TERM_INDEX, axis=-1) * _TERM_SIGN
    mm, mj, jm, jj = (terms[..., t, :, :] for t in range(4))
    A = 0.5 * ((mm + jj) + (mj + jm))
    C = 0.5 * ((mm + jj) - (mj + jm))
    B = 0.5 * ((mm - jj) - (mj - jm))
    return A, B, C


def _block_assemble(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_block_transform`; exact on dyadic inputs."""
    P, D, Q, E = A + C, A - C, B + B.T, B - B.T
    M = np.empty(36)
    M[_TERM_INDEX] = _TERM_SIGN * (0.5 * np.stack((P + Q, D - E, D + E, P - Q)))
    return M.reshape(6, 6)


def _sd_block(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The SD/ASD-basis matrices [[A, B], [B^T, C]] of three stacks of blocks
    ``(..., 3, 3)``, as a new array."""
    S = np.empty(np.shape(A)[:-2] + (6, 6))
    S[..., :3, :3], S[..., :3, 3:], S[..., 3:, :3], S[..., 3:, 3:] = A, B, B.swapaxes(-1, -2), C
    return S


def _sd_asd_matrix(M: np.ndarray, basis: str) -> np.ndarray:
    """The operators ``M`` of shape ``(..., 6, 6)`` as [[A, B], [B^T, C]] in the
    SD/ASD frame.

    Of an SD/ASD-basis input the upper off-diagonal block B is the one used.
    """
    if basis == SD_ASD:
        return _sd_block(M[..., :3, :3], M[..., :3, 3:], M[..., 3:, 3:])
    return _sd_block(*_block_transform(M))


def _traces(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(tr A - tr C, 2 (tr A + tr C))`` of SD/ASD matrices ``(..., 6, 6)``:
    the first-Bianchi defect, signed, and the scalar curvature s."""
    diagonal = S.diagonal(axis1=-2, axis2=-1)  # as np.trace sums it
    trace_a, trace_c = diagonal[..., :3].sum(axis=-1), diagonal[..., 3:].sum(axis=-1)
    return trace_a - trace_c, 2.0 * (trace_a + trace_c)


def _symmetry_defect(M: np.ndarray) -> np.ndarray:
    """``max|R - R^T|`` of matrices ``(..., 6, 6)``."""
    return np.abs(M - M.swapaxes(-1, -2)).max(axis=(-2, -1))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _ldexp(x: float, n: int) -> float:
    """x * 2**n, exact unless it leaves the float range (then 0 or inf)."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _exponent(entries: list[float]) -> int:
    """The e with ``2**(e-1) <= max|x| < 2**e`` over the entries, 0 when all are
    zero; from a list, which is cheaper than a numpy reduction."""
    return math.frexp(max(max(entries), -min(entries)) if entries else 0.0)[1]


def _unit_scaled(v) -> np.ndarray:
    """v as floats scaled by a power of two, which is exact, to ``max|v|`` in [1/2, 1)."""
    v = np.asarray(v, dtype=float)
    return np.ldexp(v, -_exponent(v.ravel().tolist()))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a, the one matrix norm of the package: taken on a
    scaled by a power of two so that the squares cannot overflow, it equals
    ``sqrt(sum a^2)`` wherever that does not overflow or underflow."""
    v = a.ravel()
    e = _exponent(v.tolist())
    v = np.ldexp(v, -e)
    return _ldexp(math.sqrt(v.dot(v)), e)


# ---------------------------------------------------------------------------
# Curvature operators and their decomposition
# ---------------------------------------------------------------------------

def not_finite_error(M: np.ndarray) -> NotAdmissibleError:
    """The refusal of an operator matrix with NaN or infinite entries."""
    return NotAdmissibleError(
        f"operator matrix has {int(np.sum(~np.isfinite(M)))} of 36 entries "
        "not finite (NaN or Infinity)")


def check_admissible(M: np.ndarray, basis: str = COORDINATE, err=0.0) -> np.ndarray:
    """The SD/ASD matrices of the operator matrices ``M``, shape ``(..., 6, 6)``
    in ``basis``, once each is admissible with its error bound ``err`` (one, or
    one per matrix).

    Admissible: every entry is finite (also in the SD/ASD frame), as are the
    diagonal-block traces and the scalar curvature ``2 (tr A + tr C)``, and the
    symmetry defect ``max|R - R^T|`` and the first-Bianchi defect ``tr A - tr C``
    (the SD and ASD diagonal blocks) both lie within ``max(STRUCTURAL_TOL, 10
    err) * max(1, max|R|)``: absolute up to unit entries and relative beyond.
    The first matrix that is not is refused, by the first of these tests it
    fails, in one line and without numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        S = _sd_asd_matrix(M, basis)
        bianchi, s = _traces(S)
        size = np.abs(M).max(axis=(-2, -1))  # NaN where an entry is
        tol = np.fmax(STRUCTURAL_TOL, 10.0 * err) * np.maximum(1.0, size)
        sym = _symmetry_defect(M)
        tests = (np.isfinite(size), np.isfinite(S).all(axis=(-2, -1)), np.isfinite(s),
                 sym <= tol, np.abs(bianchi) <= tol)
    passed = tests[0] & tests[1] & tests[2] & tests[3] & tests[4]
    if passed.all():
        return S
    k = np.unravel_index(np.argmin(passed), passed.shape)  # the first refused matrix
    finite, framed, traced, symmetric, _ = (bool(t[k]) for t in tests)
    tol, sym, bianchi = float(tol[k]), float(sym[k]), float(bianchi[k])
    if not finite:
        raise not_finite_error(M[k])
    if not framed:
        raise NotAdmissibleError(
            f"operator entries up to {size[k]:.3e} overflow in the SD/ASD frame")
    if not traced:
        raise NotAdmissibleError(
            f"operator entries up to {size[k]:.3e} overflow in the traces "
            "or the scalar curvature")
    if not symmetric:
        raise NotSymmetricError(
            f"symmetry defect {sym:.3e} exceeds tolerance {tol:.1e}", defect=sym)
    raise BianchiViolationError(
        f"Bianchi trace defect {bianchi:.3e} exceeds tolerance {tol:.1e}", defect=abs(bianchi))


class Record:
    """Base of the records that hold arrays, validate their input or are a sequence:
    ``__init__`` sets each slot once, then it is read-only; records compare by identity."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle: the (None, slots) of object.__getstate__
        for name, value in state[1].items():
            _set(self, name, value)


class CurvatureOperator(Record):
    """Symmetric 6x6 curvature operator with a basis convention tag and an
    absolute bound ``err`` on the error of its entries (0 for exact input).

    Construction validates admissibility with :func:`check_admissible`.
    """

    __slots__ = ("matrix", "basis", "err", "_sd_asd")

    def __init__(self, matrix: np.ndarray, basis: str = COORDINATE, err: float = 0.0):
        M = np.asarray(matrix, dtype=float)
        if M.shape != (6, 6):
            raise ValueError("curvature operator must be a 6x6 matrix")
        if basis not in (COORDINATE, SD_ASD):
            raise ValueError(f"unknown basis tag {basis!r}")
        S = check_admissible(M, basis, err)
        S.setflags(write=False)
        _set(self, "matrix", _readonly(M))
        _set(self, "basis", basis)
        _set(self, "err", err)
        _set(self, "_sd_asd", S)  # computed once, read-only

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (A, B, C) blocks of the operator in the SD/ASD frame (read-only)."""
        S = self._sd_asd
        return S[:3, :3], S[:3, 3:], S[3:, 3:]

    def in_coordinate_basis(self) -> np.ndarray:
        if self.basis == COORDINATE:
            return np.array(self.matrix)
        return _block_assemble(*self.blocks())

    def in_sd_asd_basis(self) -> np.ndarray:
        return np.array(self._sd_asd)

    def symmetry_defect(self) -> float:
        return float(_symmetry_defect(self.matrix))

    def bianchi_defect(self) -> float:
        return float(abs(_traces(self._sd_asd)[0]))

    def to_dict(self) -> dict:
        return {"basis": self.basis, "matrix": self.matrix.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "CurvatureOperator":
        if "matrix" not in data:
            raise ValueError("operator JSON needs a 'matrix' field")
        return cls(np.asarray(data["matrix"], dtype=float), basis=data.get("basis", COORDINATE))


class Decomposition(Record):
    """Block decomposition of a curvature operator.

    ``s`` is the scalar curvature, ``w_plus``/``w_minus`` the traceless
    Weyl halves acting on the SD/ASD frames, ``ric_block`` the off-diagonal
    traceless-Ricci block, and the spectra are sorted ascending.  ``err``,
    the operator's error bound, widens :meth:`is_einstein`; it is not
    serialized.  The arrays are read-only copies.
    """

    __slots__ = ("s", "w_plus", "w_minus", "ric_block", "spectrum_plus", "spectrum_minus", "err")

    def __init__(self, s: float, w_plus: np.ndarray, w_minus: np.ndarray, ric_block: np.ndarray,
                 spectrum_plus: np.ndarray, spectrum_minus: np.ndarray, err: float = 0.0):
        _set(self, "s", s)
        _set(self, "w_plus", _readonly(w_plus))
        _set(self, "w_minus", _readonly(w_minus))
        _set(self, "ric_block", _readonly(ric_block))
        _set(self, "spectrum_plus", _readonly(spectrum_plus))
        _set(self, "spectrum_minus", _readonly(spectrum_minus))
        _set(self, "err", err)

    @property
    def einstein_constant(self) -> float:
        return self.s / 4.0

    def norm_w_plus(self) -> float:
        return _norm(self.w_plus)

    def norm_w_minus(self) -> float:
        return _norm(self.w_minus)

    def einstein_residual(self) -> float:
        """Frobenius norm of the traceless-Ricci block over max(1, |s|)."""
        return _norm(self.ric_block) / max(1.0, abs(self.s))

    def is_einstein(self) -> bool:
        """The residual within ``max(CLASSIFY_TOL, 20 err)``."""
        return self.einstein_residual() <= max(CLASSIFY_TOL, 20.0 * self.err)

    def require_einstein(self) -> None:
        """Raise :class:`NotEinsteinError` unless :meth:`is_einstein`."""
        if not self.is_einstein():
            r = self.einstein_residual()
            raise NotEinsteinError(f"needs an Einstein operator; residual {r:.3e}", residual=r)

    def _kahler_sigmas(self) -> tuple[float, float, float]:
        """The top two singular values of the self-dual rows ``[A | B] =
        [w_plus + (s/12) I | ric_block]``, and err, all scaled exactly by the
        power of two that brings the largest of s and the entries to [1/2, 1)."""
        entries = [self.s, *self.w_plus.ravel().tolist(), *self.ric_block.ravel().tolist()]
        e = -_exponent(entries)
        rows = np.ldexp(np.concatenate((self.w_plus, self.ric_block), axis=1), e)
        rows.flat[::7] += math.ldexp(self.s, e) / 12.0  # entries (i, i) of A
        return (*np.linalg.svd(rows, compute_uv=False).tolist()[:2], _ldexp(self.err, e))

    def is_kahler(self) -> bool:
        """Whether the self-dual rows ``[A | B]`` have rank at most one, as
        U(2) holonomy forces: ``A = (s/4) omega omega^T``, ``B = omega b^T``
        (Besse, *Einstein Manifolds*, ch. 2 and 16).  Tested as ``sigma2 <=
        CLASSIFY_TOL sigma1 + 9 err``: an SD/ASD entry is off by at most 2 err,
        so the 3x6 rows are off by at most sqrt(18) 2 err < 9 err in norm, and
        by Weyl's inequality sigma2 by no more."""
        sigma1, sigma2, err = self._kahler_sigmas()
        return bool(sigma2 <= CLASSIFY_TOL * sigma1 + 9.0 * err)

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "wPlus": self.w_plus.tolist(),
            "wMinus": self.w_minus.tolist(),
            "ricBlock": self.ric_block.tolist(),
            "spectra": {
                "plus": self.spectrum_plus.tolist(),
                "minus": self.spectrum_minus.tolist(),
            },
        }


def _weyl(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s, W, halves)`` of SD/ASD matrices ``S`` of shape ``(..., 6, 6)``.

    ``s`` is the scalar curvature, twice the sum of the two diagonal-block
    traces; ``W[..., 0, :, :]`` and ``W[..., 1, :, :]`` are the Weyl halves, the
    SD and ASD diagonal blocks less ``(s/12) I``; ``halves`` are their symmetric
    parts ``W/2 + W^T/2``, which do not overflow where W does not.
    """
    _, s = _traces(S)
    W = np.concatenate((S[..., None, :3, :3], S[..., None, 3:, 3:]), axis=-3)
    W = W - (s / 12.0)[..., None, None, None] * _EYE3
    return s, W, 0.5 * W + 0.5 * W.swapaxes(-1, -2)


def _split(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arithmetic of :func:`decompose` over leading axes: ``(s, W,
    spectra)`` of SD/ASD matrices ``S`` of shape ``(..., 6, 6)``, with ``s``
    and ``W`` of :func:`_weyl` and ``spectra`` the ascending eigenvalues of
    the Weyl halves, from one batched ``eigvalsh`` of their symmetric parts.
    """
    s, W, halves = _weyl(S)
    return s, W, np.linalg.eigvalsh(halves)


def _decomposition(S, s, W, spectra, err) -> Decomposition:
    """The :class:`Decomposition` of one SD/ASD matrix from its :func:`_split`."""
    return Decomposition(s=float(s), w_plus=W[0], w_minus=W[1], ric_block=S[:3, 3:],
                         spectrum_plus=spectra[0], spectrum_minus=spectra[1], err=float(err))


def decompose(op: CurvatureOperator) -> Decomposition:
    """Split an admissible curvature operator into its irreducible blocks.

    The SD diagonal block equals ``w_plus + (s/12) I``, the ASD diagonal
    block equals ``w_minus + (s/12) I`` and the off-diagonal block is the
    traceless-Ricci part (:func:`_split`).  All arithmetic is exact basis
    bookkeeping, so exactly-representable model operators decompose exactly.
    """
    return _decomposition(op._sd_asd, *_split(op._sd_asd), op.err)


# _WEDGE[a] maps e_b to e_a^e_b in the PAIRS basis: e_i^e_j = E_p = -e_j^e_i, p = (i, j)
_WEDGE = np.array([[[float((a, b) == p) - float((b, a) == p) for b in range(4)] for p in PAIRS]
                   for a in range(4)])


def frame_ricci(op: CurvatureOperator) -> np.ndarray:
    """The frame Ricci tensor ``Ric_bc = sum_a <R(e_a^e_b), e_a^e_c> = sum_a N_a^T M N_a``,
    M the coordinate-basis matrix and N_a = _WEDGE[a]: trace s, and 3 I for the identity."""
    return (_WEDGE.swapaxes(1, 2) @ op.in_coordinate_basis() @ _WEDGE).sum(axis=0)


def recompose(d: Decomposition, basis: str = COORDINATE) -> CurvatureOperator:
    """Rebuild the curvature operator from a decomposition.

    Raises :class:`InvalidBlocksError` when a Weyl half has a trace beyond
    the admissibility tolerance ``max(STRUCTURAL_TOL, 10 err) * max(1,
    max|A, B, C|)`` of the blocks, and :class:`NotSymmetricError` (from the
    operator's own test) when a Weyl half is not symmetric.
    """
    A = d.w_plus + (d.s / 12.0) * np.eye(3)
    C = d.w_minus + (d.s / 12.0) * np.eye(3)
    scale = max(1.0, *(float(np.abs(X).max()) for X in (A, d.ric_block, C)))
    tol = max(STRUCTURAL_TOL, 10.0 * d.err) * scale
    for name, W in (("w_plus", d.w_plus), ("w_minus", d.w_minus)):
        if not abs(float(np.trace(W))) <= tol:
            raise InvalidBlocksError(f"{name} has nonzero trace {np.trace(W):.3e}")
    assemble = _sd_block if basis == SD_ASD else _block_assemble
    return CurvatureOperator(assemble(A, d.ric_block, C), basis=basis, err=d.err)


# ---------------------------------------------------------------------------
# The Gursky-LeBrun defect and the saturation classifier
# ---------------------------------------------------------------------------

class GLReport(NamedTuple):
    """Saturation report for the bound |s|/sqrt(6) >= |W+| + |W-|."""

    defect: float
    norm_w_plus: float
    norm_w_minus: float
    equality_branch: EqualityBranch
    saturated: bool
    cover_class: CoverClass

    def to_dict(self) -> dict:
        return {
            "defect": self.defect,
            "normWPlus": self.norm_w_plus,
            "normWMinus": self.norm_w_minus,
            "equalityBranch": self.equality_branch.value,
            "saturated": self.saturated,
            "coverClass": self.cover_class.value,
        }


# the cover of a saturated Einstein operator on each equality branch
_BRANCH_COVER = {EqualityBranch.NON_POSITIVE: CoverClass.HYPERBOLIC_PLANE_PRODUCT,
                 EqualityBranch.NON_NEGATIVE: CoverClass.SPHERE_PRODUCT}


def _gl_terms(d: Decomposition) -> tuple[float, tuple[float, float, float], float, float]:
    """``(s, terms, tau, ric)``: the defect as the paper's three terms, their bound,
    and the norm of the traceless-Ricci block.

    A traceless spectrum a <= b <= m has ``6 m^2 - |lam|^2 = 2 (m - a)(m - b)``, so
    ``delta = sqrt(6) m - |lam| = 2 (m - a)(m - b) / (sqrt(6) m + |lam|) >= 0``, zero
    exactly when the top eigenvalue is doubled.  For s <= 0 the defect is then
    ``delta(W+) + delta(W-) - 2 sqrt(6) sigma``, ``sigma = s/12 + (m+ + m-)/2`` (sec_max
    of an Einstein operator); for s > 0 the terms are those of -R, with the bottom
    eigenvalues and ``+ 2 sqrt(6) sec_min``.

    ``tau = CLASSIFY_TOL (|s| + |W+| + |W-|) + 30 err``: an SD/ASD entry is off by at
    most 2 err, so s/12 = tr(A + C)/6 by 2 err, an entry of W = A - (s/12) I by 4 err
    and |dW| <= sqrt(72) err, which bounds the moves of m and |lam|; delta moves by
    (sqrt(6) + 1) sqrt(72) err < 30 err, and sigma = (lam_max(A) + lam_max(C))/2 by
    |dA| <= 6 err, its term by 12 sqrt(6) err < 30 err.  The Ricci block moves by
    sqrt(9) 2 err < 30 err, so an Einstein operator has ``ric <= tau``, with no floor.
    All four are times 2^e, which brings the largest of |s| and the spectra to
    [1/2, 1), so that the products neither underflow nor overflow.
    """
    p, q = d.spectrum_plus.tolist(), d.spectrum_minus.tolist()
    if d.s > 0.0:  # the terms of -R: the negated spectra, ascending
        p, q = [-p[2], -p[1], -p[0]], [-q[2], -q[1], -q[0]]
    e = -_exponent([d.s, *p, *q])
    s = math.ldexp(d.s, e)
    sigma, size, terms = -abs(s) / 12.0, abs(s), []
    for a, b, m in (p, q):
        a, b, m = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(m, e)
        norm = math.hypot(a, b, m)
        den = _SQRT6 * m + norm
        terms.append(2.0 * (m - a) * (m - b) / den if den else 0.0)
        sigma += m / 2.0
        size += norm
    terms.append(-2.0 * _SQRT6 * sigma)
    tau = CLASSIFY_TOL * size + 30.0 * _ldexp(d.err, e)
    return s, tuple(terms), tau, _ldexp(_norm(d.ric_block), e)


def gl_defect(d: Decomposition) -> GLReport:
    """Evaluate the defect |s|/sqrt(6) - (|W+| + |W-|) and test saturation.

    The defect is defined for every operator; its sign guarantee only holds
    under the Einstein/semi-definite hypotheses, which this function does not
    check.  ``saturated``: each of the defect's three terms (:func:`_gl_terms`)
    lies within tau, i.e. doubled extreme eigenvalues and sec touching 0.  The
    branch is the sign of s; a saturated operator with |s| <= tau is flat and
    has none.  The cover class, from the branch or ``Flat``, is only assigned
    to Einstein inputs: :meth:`Decomposition.is_einstein`, and, as its
    ``max(1, |s|)`` floor passes any small operator, ``ric <= tau`` as well.
    """
    nwp, nwm = d.norm_w_plus(), d.norm_w_minus()
    defect = abs(d.s) / _SQRT6 - (nwp + nwm)
    s, terms, tau, ric = _gl_terms(d)
    saturated = max(map(abs, terms)) <= tau
    branch, cover = EqualityBranch.NONE, CoverClass.NOT_SATURATED
    if saturated and abs(s) > tau:
        branch = EqualityBranch.NON_POSITIVE if s < 0 else EqualityBranch.NON_NEGATIVE
    if saturated and ric <= tau and d.is_einstein():
        cover = _BRANCH_COVER.get(branch, CoverClass.FLAT)
    return GLReport(float(defect), nwp, nwm, branch, saturated, cover)


def classify_equality(d: Decomposition, curvature_sign: CurvatureSign) -> CoverClass:
    """Classify a saturated Einstein operator by its model cover.

    Pointwise algebra: which of the three saturation models (sphere product,
    flat space, hyperbolic-plane product) the operator is consistent with,
    given the certified sign of its sectional curvature.  That is the cover
    class of :func:`gl_defect` when it is ``Flat`` or its equality branch is
    the given sign, else ``NotSaturated``.  Raises :class:`NotEinsteinError`
    for non-Einstein input and :class:`IndefiniteSignError` for an indefinite sign.
    """
    d.require_einstein()
    if curvature_sign is CurvatureSign.INDEFINITE:
        raise IndefiniteSignError(
            "equality classification requires semi-definite sectional curvature")
    report = gl_defect(d)
    if (report.cover_class is CoverClass.FLAT
            or report.equality_branch.value == curvature_sign.value):
        return report.cover_class
    return CoverClass.NOT_SATURATED


# ---------------------------------------------------------------------------
# Characteristic densities
# ---------------------------------------------------------------------------

class CharDensities(NamedTuple):
    """Euler and signature integrands of an Einstein operator.

    ``ratio`` is the Euler-to-signature quotient as an exact rational
    (computed from the exact rational values of the float inputs), or None
    when the signature density vanishes.  It is formed when read, from the
    densities' exact numerators over ``24 * 4^K`` and ``4^K`` for an integer K.
    """

    euler_density: float
    signature_density: float
    euler_numerator: int
    signature_numerator: int

    @property
    def ratio(self) -> Fraction | None:
        from fractions import Fraction  # not loaded by the Page quadrature, which reads no ratio

        n, m = self.euler_numerator, self.signature_numerator
        return Fraction(n, 16 * m) if m else None

    def to_dict(self) -> dict:
        ratio = self.ratio
        return {
            "eulerDensity": self.euler_density,
            "signatureDensity": self.signature_density,
            "ratio": None if ratio is None else f"{ratio.numerator}/{ratio.denominator}",
        }


def _exact_squares(d: Decomposition) -> tuple[int, int, int, int]:
    """``(K, |W+|^2, |W-|^2, s^2)``, exact integers over ``4^K``: each entry
    n / 2^k is an integer over 2^K, K the largest k."""
    entries = d.w_plus.ravel().tolist() + d.w_minus.ravel().tolist() + [float(d.s)]
    ratios = [x.as_integer_ratio() for x in entries]
    K = max(den for _, den in ratios).bit_length() - 1
    n = [num << (K + 1 - den.bit_length()) for num, den in ratios]  # x = n / 2^K
    return K, sum(v * v for v in n[:9]), sum(v * v for v in n[9:18]), n[18] * n[18]


def _density(num: int, den: int, c: float = 1.0) -> float:
    """``(num / den) / c``, with ``num / den`` correctly rounded, for c of order
    one; +-inf only where the value leaves the float range, even where
    ``num / den`` alone does."""
    try:
        return num / den / c
    except OverflowError:  # divide at the scale 2^e, which is exact, then scale back
        e = num.bit_length() - den.bit_length()
        return _ldexp(num / (den << e) / c, e)


def char_densities(d: Decomposition) -> CharDensities:
    """Chern-Gauss-Bonnet and signature densities of an Einstein operator.

        euler     = (|W+|^2 + |W-|^2 + s^2/24) / (8 pi^2)
        signature = (|W+|^2 - |W-|^2) / (12 pi^2)

    The squares are exact (:func:`_exact_squares`), so the ratio is exact
    and the floats are :func:`_density` quotients, +-inf only where a
    density leaves the float range.  Restricted to operators Einstein
    within their own error (:meth:`Decomposition.is_einstein`): the general
    traceless-Ricci correction is out of scope here.
    """
    d.require_einstein()
    K, wp2, wm2, s2 = _exact_squares(d)
    euler_num = 24 * (wp2 + wm2) + s2  # over 24 * 4^K
    sig_num = wp2 - wm2  # over 4^K
    return CharDensities(_density(euler_num, 24 << 2 * K, 8.0 * math.pi**2),
                         _density(sig_num, 1 << 2 * K, 12.0 * math.pi**2), euler_num, sig_num)


class KahlerSignatureCheck(NamedTuple):
    density: float
    non_negative: bool

    def to_dict(self) -> dict:
        return {"density": self.density, "nonNegative": self.non_negative}


def kahler_signature_check(d: Decomposition) -> KahlerSignatureCheck:
    """Pointwise signature integrand |W+|^2 - |W-|^2 of a Kahler operator
    (:meth:`Decomposition.is_kahler`, else :class:`NotKahlerError`).  For
    non-positively curved Kahler-Einstein operators it is non-negative, the
    pointwise mechanism behind tau >= 0.  It is the :func:`_density`
    quotient of :func:`_exact_squares` (+-inf beyond the float range), and
    ``non_negative``, density >= -CLASSIFY_TOL s^2, is decided on them."""
    if not d.is_kahler():
        sigma1, sigma2, _ = d._kahler_sigmas()
        raise NotKahlerError(f"[A | B] is not rank one: sigma2/sigma1 = {sigma2 / sigma1:.6g}")
    K, wp2, wm2, s2 = _exact_squares(d)
    p, q = CLASSIFY_TOL.as_integer_ratio()  # exactly, as integers: wp2 - wm2 >= -(p/q) s2
    return KahlerSignatureCheck(_density(wp2 - wm2, 1 << 2 * K),
                                non_negative=(wp2 - wm2) * q >= -p * s2)
