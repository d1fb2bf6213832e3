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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (
    BianchiViolationError,
    DensityOverflowError,
    IndefiniteSignError,
    InvalidBlocksError,
    NotAdmissibleError,
    NotEinsteinError,
    NotKahlerError,
    NotSymmetricError,
    ToleranceTooTightError,
)

# Tolerance for symmetry / first-Bianchi / block-trace validation, relative
# to max(1, max|R|) for operators.
STRUCTURAL_TOL = 1e-9
# Relative tolerance (scaled by max(1, |s|)) for saturation, eigenvalue
# multiplicities and the Einstein test.
CLASSIFY_TOL = 1e-7

BASIS_LABELS = ("e1^e2", "e1^e3", "e1^e4", "e2^e3", "e2^e4", "e3^e4")
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Hodge star pairs the basis 2-forms (0,5), (1,4), (2,3) with signs +,-,+.
# The self-dual frame is f_a = (E_i + sign * E_j)/sqrt(2); flipping the sign
# gives the anti-self-dual frame.  Every SD/ASD conversion below indexes this
# one table, through its array columns _SD_I, _SD_J, _SD_SIGN.
_SD_PAIRS = ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))
_SD_I, _SD_J, _SD_SIGN = (np.array(col) for col in zip(*_SD_PAIRS))

COORDINATE = "coordinate"
SD_ASD = "sd-asd"


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


_HODGE = np.zeros((6, 6))
_HODGE[_SD_I, _SD_J] = _HODGE[_SD_J, _SD_I] = _SD_SIGN
_HODGE.setflags(write=False)


def hodge_star_matrix() -> np.ndarray:
    """Matrix of the Hodge star on 2-forms in the coordinate basis (read-only)."""
    return _HODGE


# Entry (a, b) of the SD/ASD blocks combines M[i_a, i_b], s_b M[i_a, j_b],
# s_a M[j_a, i_b] and s_a s_b M[j_a, j_b] over the pairs (i, j, s) of
# _SD_PAIRS: the flat indices and the signs of these four terms.
_PAIR_ROWS = (_SD_I, _SD_J)
_PAIR_SIGNS = (np.ones(3), _SD_SIGN)
_TERMS = ((0, 0), (0, 1), (1, 0), (1, 1))
_TERM_INDEX = np.array([6 * _PAIR_ROWS[p][:, None] + _PAIR_ROWS[q] for p, q in _TERMS])
_TERM_SIGN = np.array([_PAIR_SIGNS[p][:, None] * _PAIR_SIGNS[q] for p, q in _TERMS])


def _block_transform(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate-basis 6x6 -> (A, B, C) blocks of the SD/ASD-basis matrix.

    Uses the index arithmetic of the sqrt(2)-normalized eigenframe directly,
    so the transform is exact on dyadic inputs (only adds and halving).
    """
    mm, mj, jm, jj = M.take(_TERM_INDEX) * _TERM_SIGN
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


def _sd_asd_matrix(M: np.ndarray, basis: str) -> np.ndarray:
    """The operator as [[A, B], [B^T, C]] in the SD/ASD frame.

    Of an SD/ASD-basis input the upper off-diagonal block B is the one used.
    """
    if basis == SD_ASD:
        S = np.array(M)
    else:
        S = np.empty((6, 6))
        with np.errstate(over="ignore"):  # the caller refuses what overflows
            S[:3, :3], S[:3, 3:], S[3:, 3:] = _block_transform(M)
    S[3:, :3] = S[:3, 3:].T
    return S


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


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a, taken on a scaled by a power of two so that the
    squares cannot overflow; equal to ``np.linalg.norm(a)`` wherever that
    does not overflow or underflow."""
    v = a.ravel()
    entries = v.tolist()  # max|v| from the list: cheaper than a numpy reduction
    e = math.frexp(max(max(entries), -min(entries)))[1]
    v = np.ldexp(v, -e)
    return _ldexp(math.sqrt(float(v.dot(v))), e)


# ---------------------------------------------------------------------------
# 2-forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoForm:
    """A 2-form given by its 6 coefficients in the coordinate basis."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (6,):
            raise ValueError("TwoForm needs exactly 6 coefficients")
        object.__setattr__(self, "coefficients", _readonly(c))

    @classmethod
    def from_wedge(cls, X, Y) -> "TwoForm":
        """The decomposable form X ^ Y of two tangent vectors."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        c = np.array([X[i] * Y[j] - X[j] * Y[i] for i, j in PAIRS])
        return cls(c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def wedge_square(self) -> float:
        """Coefficient of the wedge square against the volume form (Plucker).

        Vanishes exactly on decomposable forms.
        """
        c = self.coefficients
        return 2.0 * (c[0] * c[5] - c[1] * c[4] + c[2] * c[3])

    def is_decomposable(self, tol: float = 1e-10) -> bool:
        """Decomposability, checked through both equivalent criteria.

        The wedge-square pairing must vanish and the self-dual and
        anti-self-dual halves must have equal norm.  ``|plus|^2 - |minus|^2``
        is the wedge square, so both are held to the one threshold
        ``tol * max(1, |omega|^2)``; they can disagree only by roundoff.
        """
        bound = tol * max(1.0, self.norm() ** 2)
        plucker_zero = abs(self.wedge_square()) <= bound
        plus, minus = sd_projectors(self)
        norms_equal = abs(plus.norm() ** 2 - minus.norm() ** 2) <= bound
        if plucker_zero != norms_equal:
            raise ToleranceTooTightError(
                "decomposability criteria disagree; tolerance too tight for input"
            )
        return plucker_zero


def sd_projectors(omega: TwoForm) -> tuple[TwoForm, TwoForm]:
    """Split a 2-form into its self-dual and anti-self-dual parts.

    Returns ``(plus, minus)`` with ``plus + minus == omega``, where the parts
    are the +1 and -1 eigencomponents of the Hodge star.
    """
    c = omega.coefficients
    star = _HODGE @ c
    return TwoForm(0.5 * (c + star)), TwoForm(0.5 * (c - star))


def sd_frame_components(omega: TwoForm) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of a 2-form in the orthonormal SD/ASD eigenframes."""
    c = omega.coefficients
    ci, cj = c[_SD_I], _SD_SIGN * c[_SD_J]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return (ci + cj) * inv_sqrt2, (ci - cj) * inv_sqrt2


def two_form_from_frame_components(plus, minus) -> TwoForm:
    """Inverse of :func:`sd_frame_components`."""
    plus = np.asarray(plus, dtype=float)
    minus = np.asarray(minus, dtype=float)
    c = np.zeros(6)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    c[_SD_I] += (plus + minus) * inv_sqrt2
    c[_SD_J] += _SD_SIGN * (plus - minus) * inv_sqrt2
    return TwoForm(c)


# ---------------------------------------------------------------------------
# Curvature operators and their decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CurvatureOperator:
    """Symmetric 6x6 curvature operator with a basis convention tag.

    Construction validates admissibility: every entry must be finite (also
    in the SD/ASD frame), and the symmetry defect ``max|R - R^T|`` and the
    first-Bianchi defect (trace of the SD diagonal block minus trace of the
    ASD diagonal block) must both lie within ``tol * max(1, max|R|)``, so
    the test is absolute up to unit entries and relative beyond.
    """

    matrix: np.ndarray
    basis: str = COORDINATE
    tol: float = STRUCTURAL_TOL

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (6, 6):
            raise ValueError("curvature operator must be a 6x6 matrix")
        if self.basis not in (COORDINATE, SD_ASD):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        if not np.isfinite(M).all():
            raise NotAdmissibleError(
                f"operator matrix has {int(np.sum(~np.isfinite(M)))} of 36 entries "
                "not finite (NaN or Infinity)")
        S = _sd_asd_matrix(M, self.basis)
        if not np.isfinite(S).all():
            raise NotAdmissibleError(
                f"operator entries up to {np.abs(M).max():.3e} overflow in the SD/ASD frame")
        tol = float(self.tol) * max(1.0, float(np.abs(M).max()))
        sym_defect = float(np.abs(M - M.T).max())
        if not sym_defect <= tol:
            raise NotSymmetricError(
                f"symmetry defect {sym_defect:.3e} exceeds tolerance {tol:.1e}",
                defect=sym_defect,
            )
        bianchi = float(np.trace(S[:3, :3]) - np.trace(S[3:, 3:]))
        if not abs(bianchi) <= tol:
            raise BianchiViolationError(
                f"Bianchi trace defect {bianchi:.3e} exceeds tolerance {tol:.1e}",
                defect=abs(bianchi),
            )
        object.__setattr__(self, "matrix", _readonly(M))
        S.setflags(write=False)
        object.__setattr__(self, "_sd_asd", S)  # computed once, read-only

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

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def symmetry_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())

    def bianchi_defect(self) -> float:
        A, _, C = self.blocks()
        return float(abs(np.trace(A) - np.trace(C)))

    def to_dict(self) -> dict:
        return {"basis": self.basis, "matrix": self.matrix.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "CurvatureOperator":
        if "matrix" not in data:
            raise ValueError("operator JSON needs a 'matrix' field")
        return cls(np.asarray(data["matrix"], dtype=float), basis=data.get("basis", COORDINATE))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Block decomposition of a curvature operator.

    ``s`` is the scalar curvature, ``w_plus``/``w_minus`` the traceless
    Weyl halves acting on the SD/ASD frames, ``ric_block`` the off-diagonal
    traceless-Ricci block, and the spectra are sorted ascending.
    """

    s: float
    w_plus: np.ndarray
    w_minus: np.ndarray
    ric_block: np.ndarray
    spectrum_plus: np.ndarray
    spectrum_minus: np.ndarray

    def __post_init__(self):
        for name in ("w_plus", "w_minus", "ric_block", "spectrum_plus", "spectrum_minus"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

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

    def is_einstein(self, tol: float = CLASSIFY_TOL) -> bool:
        return self.einstein_residual() <= tol

    def is_kahler(self) -> bool:
        """The Kahler identity |W+|^2 = s^2/24, to within
        ``CLASSIFY_TOL * max(1, s^2)``, decided on scaled squares."""
        _, bound, s2, (wp2,) = _scaled_squares(self.s, self.w_plus)
        return abs(wp2 - s2 / 24.0) <= bound

    def orientation_flipped(self) -> "Decomposition":
        """Swap the roles of the SD and ASD halves."""
        return Decomposition(
            s=self.s,
            w_plus=self.w_minus,
            w_minus=self.w_plus,
            ric_block=self.ric_block.T,
            spectrum_plus=self.spectrum_minus,
            spectrum_minus=self.spectrum_plus,
        )

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


def decompose(op: CurvatureOperator) -> Decomposition:
    """Split an admissible curvature operator into its irreducible blocks.

    The SD diagonal block equals ``w_plus + (s/12) I``, the ASD diagonal
    block equals ``w_minus + (s/12) I`` and the off-diagonal block is the
    traceless-Ricci part.  The scalar curvature is twice the sum of the two
    diagonal-block traces.  All arithmetic is exact basis bookkeeping, so
    exactly-representable model operators decompose exactly.
    """
    A, B, C = op.blocks()
    s = 2.0 * (np.trace(A) + np.trace(C))
    W = np.stack((A, C)) - (s / 12.0) * np.eye(3)  # the Weyl halves W+, W-
    # one batched call; eigvalsh returns ascending order for symmetric input
    spectra = np.linalg.eigvalsh(0.5 * (W + np.swapaxes(W, 1, 2)))
    return Decomposition(
        s=float(s),
        w_plus=W[0],
        w_minus=W[1],
        ric_block=B,
        spectrum_plus=spectra[0],
        spectrum_minus=spectra[1],
    )


def recompose(d: Decomposition, basis: str = COORDINATE) -> CurvatureOperator:
    """Rebuild the curvature operator from a decomposition.

    Raises :class:`InvalidBlocksError` when the Weyl halves are not traceless
    symmetric within ``STRUCTURAL_TOL``.
    """
    for name, W in (("w_plus", d.w_plus), ("w_minus", d.w_minus)):
        if abs(float(np.trace(W))) > STRUCTURAL_TOL * max(1.0, abs(d.s)):
            raise InvalidBlocksError(f"{name} has nonzero trace {np.trace(W):.3e}")
        if np.abs(W - W.T).max() > STRUCTURAL_TOL:
            raise InvalidBlocksError(f"{name} is not symmetric")
    A = d.w_plus + (d.s / 12.0) * np.eye(3)
    C = d.w_minus + (d.s / 12.0) * np.eye(3)
    if basis == SD_ASD:
        M = np.zeros((6, 6))
        M[:3, :3] = A
        M[:3, 3:] = d.ric_block
        M[3:, :3] = d.ric_block.T
        M[3:, 3:] = C
    else:
        M = _block_assemble(A, d.ric_block, C)
    return CurvatureOperator(M, basis=basis)


# ---------------------------------------------------------------------------
# The Gursky-LeBrun defect and the saturation classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GLReport:
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


def _multiplicities_hold(d: Decomposition, branch: EqualityBranch) -> bool:
    tol = CLASSIFY_TOL * max(1.0, abs(d.s))
    lp, mp, vp = d.spectrum_plus
    lm, mm, vm = d.spectrum_minus
    if branch is EqualityBranch.NON_POSITIVE:
        # top eigenvalue doubled in each half
        return (vp - mp) <= tol and (vm - mm) <= tol
    # bottom eigenvalue doubled in each half
    return (mp - lp) <= tol and (mm - lm) <= tol


def _is_flat(d: Decomposition) -> bool:
    return (abs(d.s) <= CLASSIFY_TOL
            and d.norm_w_plus() <= CLASSIFY_TOL
            and d.norm_w_minus() <= CLASSIFY_TOL)


def gl_defect(d: Decomposition) -> GLReport:
    """Evaluate the defect |s|/sqrt(6) - (|W+| + |W-|) and test saturation.

    The defect is defined for every operator; its sign guarantee only holds
    under the Einstein/semi-definite hypotheses, which this function does not
    check.  ``saturated`` requires both a vanishing defect and the
    branch-specific doubled eigenvalues, with the branch chosen by the sign
    of the scalar curvature.  The cover class is the saturation model the
    operator is pointwise consistent with, and is only assigned to Einstein
    inputs.  All tests use ``CLASSIFY_TOL``, relative to ``max(1, |s|)``
    except the absolute flatness test.
    """
    nwp = d.norm_w_plus()
    nwm = d.norm_w_minus()
    defect = abs(d.s) / math.sqrt(6.0) - (nwp + nwm)

    branch = EqualityBranch.NONE
    saturated = False
    cover = CoverClass.NOT_SATURATED
    if abs(defect) <= CLASSIFY_TOL * max(1.0, abs(d.s)):
        if _is_flat(d):
            saturated = True
            cover = CoverClass.FLAT if d.is_einstein() else CoverClass.NOT_SATURATED
        elif d.s < 0 and _multiplicities_hold(d, EqualityBranch.NON_POSITIVE):
            branch = EqualityBranch.NON_POSITIVE
            saturated = True
            if d.is_einstein():
                cover = CoverClass.HYPERBOLIC_PLANE_PRODUCT
        elif d.s > 0 and _multiplicities_hold(d, EqualityBranch.NON_NEGATIVE):
            branch = EqualityBranch.NON_NEGATIVE
            saturated = True
            if d.is_einstein():
                cover = CoverClass.SPHERE_PRODUCT
    return GLReport(
        defect=float(defect),
        norm_w_plus=nwp,
        norm_w_minus=nwm,
        equality_branch=branch,
        saturated=saturated,
        cover_class=cover,
    )


def classify_equality(d: Decomposition, curvature_sign: CurvatureSign) -> CoverClass:
    """Classify a saturated Einstein operator by its model cover.

    This is pointwise algebra: it reports which of the three saturation
    models (sphere product, flat space, hyperbolic-plane product) the
    operator is consistent with, given the certified sign of its sectional
    curvature.  Flat input is ``Flat`` for every semi-definite sign;
    otherwise the answer is the cover class of :func:`gl_defect` when its
    equality branch (chosen by the sign of s) is the given sign, and
    ``NotSaturated`` when it is not.  Raises :class:`NotEinsteinError` for
    non-Einstein input and :class:`IndefiniteSignError` when the sign is
    indefinite.
    """
    if not d.is_einstein():
        raise NotEinsteinError(
            f"traceless-Ricci residual {d.einstein_residual():.3e} exceeds {CLASSIFY_TOL:.1e}",
            residual=d.einstein_residual(),
        )
    if curvature_sign is CurvatureSign.INDEFINITE:
        raise IndefiniteSignError(
            "equality classification requires semi-definite sectional curvature"
        )
    if _is_flat(d):
        return CoverClass.FLAT
    report = gl_defect(d)
    if report.equality_branch.value == curvature_sign.value:
        return report.cover_class
    return CoverClass.NOT_SATURATED


# ---------------------------------------------------------------------------
# Characteristic densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharDensities:
    """Euler and signature integrands of an Einstein operator.

    ``ratio`` is the Euler-to-signature quotient as an exact rational
    (computed from the exact rational values of the float inputs), or None
    when the signature density vanishes.
    """

    euler_density: float
    signature_density: float
    ratio: Fraction | None

    def to_dict(self) -> dict:
        ratio = None if self.ratio is None else f"{self.ratio.numerator}/{self.ratio.denominator}"
        return {
            "eulerDensity": self.euler_density,
            "signatureDensity": self.signature_density,
            "ratio": ratio,
        }


def char_densities(d: Decomposition, tol: float = CLASSIFY_TOL) -> CharDensities:
    """Chern-Gauss-Bonnet and signature densities of an Einstein operator.

        euler     = (|W+|^2 + |W-|^2 + s^2/24) / (8 pi^2)
        signature = (|W+|^2 - |W-|^2) / (12 pi^2)

    The norms are evaluated exactly on the matrix entries, so the ratio is
    exact whenever the inputs are: every float is n / 2^k, so the sums are
    Python integers over the common denominator 4^K (K the largest k), and
    the floats are their correctly rounded integer quotients, the same
    values ``float(Fraction)`` gives.  Restricted to Einstein operators: the
    general traceless-Ricci correction is out of scope here.
    """
    if not d.is_einstein(tol):
        raise NotEinsteinError(
            f"densities need an Einstein operator; residual {d.einstein_residual():.3e}",
            residual=d.einstein_residual(),
        )
    entries = d.w_plus.ravel().tolist() + d.w_minus.ravel().tolist() + [float(d.s)]
    ratios = [x.as_integer_ratio() for x in entries]
    K = max(den for _, den in ratios).bit_length() - 1
    n = [num << (K + 1 - den.bit_length()) for num, den in ratios]  # x = n / 2^K
    wp2 = sum(v * v for v in n[:9])
    wm2 = sum(v * v for v in n[9:18])
    euler_num = 24 * (wp2 + wm2) + n[18] * n[18]  # over 24 * 4^K
    sig_num = wp2 - wm2  # over 4^K
    ratio = Fraction(euler_num, 16 * sig_num) if sig_num else None
    try:
        euler, signature = euler_num / (24 << 2 * K), sig_num / (1 << 2 * K)
    except OverflowError:
        raise DensityOverflowError(
            "characteristic densities exceed the float range (|W|^2 or s^2 above 1e308)"
        ) from None
    return CharDensities(
        euler_density=euler / (8.0 * math.pi**2),
        signature_density=signature / (12.0 * math.pi**2),
        ratio=ratio,
    )


@dataclass(frozen=True)
class KahlerSignatureCheck:
    density: float
    non_negative: bool

    def to_dict(self) -> dict:
        return {"density": self.density, "nonNegative": self.non_negative}


def _scaled_squares(s: float, *blocks: np.ndarray) -> tuple[int, float, float, list[float]]:
    """``(e, CLASSIFY_TOL * max(1, s^2), s^2, [|B|^2 for B in blocks])``, all
    but e scaled by 4^-e.

    s and the blocks are first scaled by 2^-e, the power of two that brings
    their largest magnitude to [1/2, 1).  That is exact, so a test on these
    squares decides as the unscaled one wherever the unscaled squares stay
    in the float range, and beyond it nothing overflows.
    """
    entries = [s] + [x for B in blocks for x in B.ravel().tolist()]
    e = math.frexp(max(max(entries), -min(entries)))[1]
    s = _ldexp(s, -e)
    squares = [float(np.sum(B * B)) for B in (np.ldexp(B, -e) for B in blocks)]
    return e, CLASSIFY_TOL * max(_ldexp(1.0, -2 * e), s * s), s * s, squares


def kahler_signature_check(d: Decomposition) -> KahlerSignatureCheck:
    """Pointwise signature integrand |W+|^2 - |W-|^2 for a Kahler operator.

    Verifies the Kahler identity first (:meth:`Decomposition.is_kahler`) and
    raises :class:`NotKahlerError` if it fails.  For non-positively curved
    Kahler-Einstein operators the returned density is non-negative, which is
    the pointwise mechanism behind the signature bound tau >= 0.  The
    density is formed on scaled squares too, so it is infinite only when it
    lies outside the float range.
    """
    e, bound, s2, (wp2, wm2) = _scaled_squares(d.s, d.w_plus, d.w_minus)
    if not d.is_kahler():
        raise NotKahlerError(f"|W+|^2 = {_ldexp(wp2, 2 * e):.6g} deviates from "
                             f"s^2/24 = {_ldexp(s2 / 24.0, 2 * e):.6g}")
    density = wp2 - wm2
    return KahlerSignatureCheck(density=_ldexp(density, 2 * e), non_negative=density >= -bound)
