"""Exact integer and rational arithmetic for the (chi, tau) geography of
closed oriented 4-manifolds.

Every comparison is exact: the strict bound chi > (15/8)|tau| for
non-positively curved non-flat Einstein metrics, the Gromov-Luck bound
chi >= |tau| for aspherical manifolds, the Bogomolov-Miyaoka-Yau bound
chi >= 3 tau with its ball-quotient equality line, the first Chern number
c1^2 = 2 chi + 3 tau, and the Todd/Beauville parity obstruction for carrying
complex structures with both orientations (tau must be even).

The module evaluates necessary conditions only; it never claims a lattice
point is realized by a manifold.
"""

from __future__ import annotations

import csv
import io
import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import _digit_limit, _past_digit_limit

EINSTEIN_SLOPE = Fraction(15, 8)

CSV_HEADER = ("chi,tau,gromov_luck,einstein_nonpos_strict,bmy,"
              "bmy_equality,c1sq,both_orientations_complex")

# the CSV row of each (gromov_luck, einstein_nonpos_strict, bmy, bmy_equality,
# both_orientations_complex), the flags of ``_flags``: ``_ROWS[flags] % (chi, tau, c1sq)``
_ROWS = {flags: "%%d,%%s,%s,%s,%s,%s,%%s,%s\n" % tuple(("false", "true")[f] for f in flags)
         for flags in itertools.product((False, True), repeat=5)}


class GeoPoint(NamedTuple("GeoPoint", [("chi", int), ("tau", int)])):
    """An integer (chi, tau) pair."""

    __slots__ = ()

    def __new__(cls, chi: int, tau: int):
        if not isinstance(chi, int) or not isinstance(tau, int):
            raise TypeError("chi and tau are topological invariants: integers only")
        return tuple.__new__(cls, (chi, tau))


class GeoReport(NamedTuple):
    gromov_luck: bool
    einstein_nonpos_strict: bool
    bmy: bool
    bmy_equality: bool
    c1sq: int
    both_orientations_complex_possible: bool

    def to_dict(self) -> dict:
        return {
            "gromovLuck": self.gromov_luck,
            "einsteinNonPosStrict": self.einstein_nonpos_strict,
            "bmy": self.bmy,
            "bmyEquality": self.bmy_equality,
            "c1sq": self.c1sq,
            "bothOrientationsComplexPossible": self.both_orientations_complex_possible,
        }


def _flags(chi: int, tau: int) -> tuple[tuple[bool, bool, bool, bool, bool], int]:
    """The flags of an integer (chi, tau) pair, exactly, as their ``_ROWS`` key, and
    c1sq: the one computation of them, for ``report`` and both CSV writers."""
    a = abs(tau)
    return (chi >= a,                   # gromov_luck
            8 * chi > 15 * a,           # einstein_nonpos_strict
            chi >= 3 * tau,             # bmy
            chi == 3 * tau,             # bmy_equality
            tau % 2 == 0), 2 * chi + 3 * tau  # both_orientations_complex_possible; c1sq


def report(p: tuple[int, int]) -> GeoReport:
    """All geography flags of an integer (chi, tau) pair, exactly."""
    (gl, ens, bmy, bmy_eq, both), c1sq = _flags(*p)
    return tuple.__new__(GeoReport, (gl, ens, bmy, bmy_eq, c1sq, both))


class LatticeObstruction(NamedTuple):
    """Outcome of intersecting chi = 2 + tau with chi = (15/8) tau."""

    tau: Fraction
    chi: Fraction
    integral: bool

    def to_dict(self) -> dict:
        return {
            "applicable": True,
            "tauValue": f"{self.tau.numerator}/{self.tau.denominator}",
            "chiValue": f"{self.chi.numerator}/{self.chi.denominator}",
            "integral": self.integral,
        }


def self_dual_lattice_obstruction() -> LatticeObstruction:
    """The non-integrality that rules out the saturated self-dual case.

    When the first Betti number vanishes, chi = 2 + tau; intersected with
    the saturated line chi = (15/8) tau this forces tau = 16/7, which is not
    an integer.
    """
    # (15/8) tau = 2 + tau  =>  (7/8) tau = 2
    tau = Fraction(2) / (EINSTEIN_SLOPE - 1)
    chi = EINSTEIN_SLOPE * tau
    assert chi == 2 + tau
    return LatticeObstruction(tau=tau, chi=chi, integral=tau.denominator == 1)


def _cuts(chi: int) -> list[int]:
    """The sorted taus of -chi..chi where a run of constant flags starts, then
    chi + 1: run i is ``range(cuts[i], cuts[i + 1])``.

    Only the parity and c1sq change inside a run: 8 chi > 15 |tau| holds
    exactly for |tau| <= (8 chi - 1)//15, chi >= 3 tau for tau <= chi//3,
    chi == 3 tau only at tau = chi/3 if an integer, and chi >= |tau| all along."""
    e, b = (8 * chi - 1) // 15, chi // 3
    starts = (-chi, -e, b + 1, e + 1, chi + 1) + ((b,) if 3 * b == chi else ())
    return sorted({c for c in starts if -chi <= c <= chi + 1})


def scan_csv(chi_max: int) -> str:
    """The CSV table of all integer points with 0 <= chi <= chi_max and
    |tau| <= chi, in lexicographic order.

    Each run of :func:`_cuts` takes its flags from ``report`` of its first
    point, and its parities and c1sq step from its first two (of a one-row
    run, its point and the next, which is not printed), then formats its
    rows with one ``%`` over a template of its two ``_ROWS`` (even and odd).
    """
    if chi_max < 0:
        raise ValueError("chi_max must be non-negative")
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    writelines = out.writelines
    for chi in range(chi_max + 1):
        cuts = _cuts(chi)
        for lo, hi in zip(cuts, cuts[1:]):
            gl, ens, bmy, bmy_eq, c1sq, both = report((chi, lo))
            first = _ROWS[gl, ens, bmy, bmy_eq, both] % (chi, "%d", "%d")
            n = hi - lo
            *_, c1sq_next, both_next = report((chi, lo + 1))
            step = c1sq_next - c1sq
            args = [0] * (2 * n)  # tau and c1sq of each row, in turn
            args[::2] = range(lo, hi)
            args[1::2] = range(c1sq, c1sq + n * step, step)
            pair = first + _ROWS[gl, ens, bmy, bmy_eq, both_next] % (chi, "%d", "%d")
            # writelines makes one write per row, as a per-row formatter does: the buffer
            # grows through the same sizes, and a process that makes many scans keeps
            # its peak RSS (writing whole runs raised the geo-scan benchmark's by 9%)
            writelines(((pair * (n // 2) + first * (n % 2)) % tuple(args)).splitlines(True))
    return out.getvalue()


def _shown(field: str, n: int = 20) -> str:
    """``repr`` of a field's first ``n`` characters, marked ``...`` when cut."""
    return repr(field[:n]) + "..." * (len(field) > n)


def points_csv(text: str) -> str:
    """Flags of each ``chi,tau`` row of a CSV text, as the scan's CSV table.

    Blank rows are skipped, and so is a header: the first non-blank row if
    its first field is ``chi``.  Any other row with fewer than two fields,
    a non-integer field or an integer past ``sys.get_int_max_str_digits()``
    (also in c1sq), and a text that csv cannot read (a field past its field
    size limit), raises ``ValueError`` naming its line, with at most the first
    20 characters of each field of a non-integer row.  Each row is
    ``_ROWS[flags] % (chi, tau, c1sq)`` of :func:`_flags`.
    """
    reader = csv.reader(io.StringIO(text))
    out = io.StringIO()
    write = out.write
    write(CSV_HEADER + "\n")
    header = True  # until the first non-blank row
    try:
        for row in reader:
            if not row:
                continue
            if header:
                header = False
                if row[0].strip().lower() == "chi":
                    continue
            if len(row) < 2:
                raise ValueError(f"line {reader.line_num}: expected chi,tau, found one field")
            try:
                chi, tau = int(row[0]), int(row[1])
            except ValueError as exc:
                where = f"line {reader.line_num}: "
                if _past_digit_limit(exc):
                    raise ValueError(where + _digit_limit("chi or tau has")) from None
                raise ValueError(f"{where}chi and tau must be integers, "
                                 f"got {_shown(row[0])}, {_shown(row[1])}") from None
            flags, c1sq = _flags(chi, tau)
            try:
                write(_ROWS[flags] % (chi, tau, c1sq))
            except ValueError:  # chi and tau were read under the limit; c1sq can pass it
                raise ValueError(f"line {reader.line_num}: "
                                 + _digit_limit("c1sq = 2 chi + 3 tau has")) from None
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return out.getvalue()
