"""Exact lattice arithmetic tests."""

import random
from fractions import Fraction

import pytest

from fourcurv import geography
from fourcurv.geography import (
    CSV_HEADER,
    GeoPoint,
    GeoReport,
    points_csv,
    report,
    scan_csv,
    self_dual_lattice_obstruction,
)


def test_ball_quotient_line():
    rep = report(GeoPoint(3, 1))
    assert rep.bmy and rep.bmy_equality
    assert rep.c1sq == 9
    assert rep.gromov_luck


def test_fifteen_eighths_boundary_is_excluded():
    rep = report(GeoPoint(15, 8))
    assert not rep.einstein_nonpos_strict  # 8*15 == 15*8: strict bound fails
    assert rep.gromov_luck
    assert report(GeoPoint(16, 8)).einstein_nonpos_strict


def test_cp2_blowup_twice():
    rep = report(GeoPoint(5, -1))
    assert rep.c1sq == 7
    assert not rep.both_orientations_complex_possible


def test_negative_tau_symmetry():
    for chi in range(0, 12):
        for tau in range(-chi, chi + 1):
            a = report(GeoPoint(chi, tau))
            b = report(GeoPoint(chi, -tau))
            assert a.gromov_luck == b.gromov_luck
            assert a.einstein_nonpos_strict == b.einstein_nonpos_strict
            assert a.both_orientations_complex_possible == b.both_orientations_complex_possible
            # Todd relation: c1sq(flip) - c1sq = -6 tau
            assert b.c1sq - a.c1sq == -6 * tau
            assert a.both_orientations_complex_possible == (tau % 2 == 0)


def test_strict_bound_implies_gromov_luck():
    for chi in range(0, 40):
        for tau in range(-chi, chi + 1):
            rep = report(GeoPoint(chi, tau))
            if rep.einstein_nonpos_strict:
                assert rep.gromov_luck
            if rep.bmy_equality:
                assert rep.bmy


def test_lattice_obstruction():
    out = self_dual_lattice_obstruction()
    assert out.to_dict()["applicable"] is True
    assert out.tau == Fraction(16, 7)
    assert out.chi == Fraction(30, 7)
    assert out.integral is False
    # consistency: tau = 16/7 sits on both lines
    assert out.chi == 2 + out.tau
    assert out.chi == Fraction(15, 8) * out.tau


def test_scan_zero():
    assert scan_csv(0).splitlines()[1:] == ["0,0,true,false,true,true,0,true"]


def test_scan_examples():
    rows = (line.split(",") for line in scan_csv(4).splitlines()[1:])
    table = {(int(r[0]), int(r[1])): r[2:] for r in rows}
    assert table[(4, 2)][1] == "true"  # einstein_nonpos_strict: 32 > 30
    assert table[(3, 3)][0] == "true"  # gromov_luck
    assert table[(3, 3)][2] == "false"  # bmy: 3 < 9


def test_scan_rejects_negative():
    with pytest.raises(ValueError):
        scan_csv(-1)


def test_scan_csv_deterministic():
    a = scan_csv(6)
    b = scan_csv(6)
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,0,true,false,true,true,0,true"
    # row count: sum over chi of (2 chi + 1)
    assert len(lines) - 1 == sum(2 * chi + 1 for chi in range(7))


def test_geopoint_integrality():
    for chi, tau in ((1.5, 0), ("3", 1), (3, None)):
        with pytest.raises(TypeError):
            GeoPoint(chi, tau)


def test_records_are_immutable():
    p = GeoPoint(3, 1)
    rep = report(p)
    for record, field in ((p, "chi"), (p, "tau"), (rep, "bmy"), (rep, "c1sq")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert (p.chi, p.tau) == (3, 1) and rep.c1sq == 9


def test_report_to_dict_contract():
    d = report(GeoPoint(3, 1)).to_dict()
    assert [(k, type(v), v) for k, v in d.items()] == [
        ("gromovLuck", bool, True), ("einsteinNonPosStrict", bool, True), ("bmy", bool, True),
        ("bmyEquality", bool, True), ("c1sq", int, 9),
        ("bothOrientationsComplexPossible", bool, False)]


def _row_reference(p, rep):
    """The per-field CSV row formatter, reading each record by field name:
    the byte reference for both CSV writers."""
    b = ("false", "true")
    return (f"{p.chi},{p.tau},{b[rep.gromov_luck]},{b[rep.einstein_nonpos_strict]},"
            f"{b[rep.bmy]},{b[rep.bmy_equality]},{rep.c1sq},"
            f"{b[rep.both_orientations_complex_possible]}\n")


def _csv_reference(pairs, report=report):
    return CSV_HEADER + "\n" + "".join(
        _row_reference(GeoPoint(c, t), report(GeoPoint(c, t))) for c, t in pairs)


def _scan_pairs(chi_max):
    return [(c, t) for c in range(chi_max + 1) for t in range(-c, c + 1)]


def _boundary_pairs(seed):
    """Points on and beside every line the flags test, at small and huge scale."""
    rng = random.Random(seed)
    pairs = []
    for scale in (1, 10**3, 2**64, 10**30):
        for _ in range(25):
            k = rng.randrange(scale, 2 * scale + 40)
            for chi, tau in ((k, k), (k, -k), (k - 1, k), (15 * k, 8 * k), (3 * k, k),
                             (3 * k - 1, k), (2 * k, k - 1)):
                for d in (-1, 0, 1):  # the line itself and its neighbours
                    pairs += [(chi + d, tau), (chi + d, -tau), (-chi - d, tau)]
    rng.shuffle(pairs)
    return pairs


def test_scan_csv_matches_row_reference():
    for n in [*range(61), 400]:  # 400: the benchmark's largest chi_max
        assert scan_csv(n) == _csv_reference(_scan_pairs(n))


@pytest.mark.parametrize("seed", [3, 4])
def test_points_csv_matches_row_reference(seed):
    pairs = _boundary_pairs(seed)
    assert {tau % 2 for _, tau in pairs} == {0, 1}
    assert max(abs(c) for c, _ in pairs) > 2**64 and max(abs(t) for _, t in pairs) > 2**64
    text = "chi,tau\n" + "".join(f"{c},{t}\n" for c, t in pairs)
    assert points_csv(text) == _csv_reference(pairs)
    for chi, tau in pairs:  # the flags against their definitions, in exact rationals
        rep = report(GeoPoint(chi, tau))
        assert rep.gromov_luck == (chi >= abs(tau))
        assert rep.einstein_nonpos_strict == (Fraction(chi) > Fraction(15, 8) * abs(tau))
        assert rep.bmy == (Fraction(chi, 3) >= tau) and rep.bmy_equality == (Fraction(chi, 3) == tau)


def test_every_row_goes_through_report(monkeypatch):
    # the scan writes runs of rows from report's first two points of each run: with
    # every flag and c1sq negated, its table is still the per-row one of that report
    def negated(p):
        gl, ens, bmy, bmy_eq, c1sq, both = report(p)
        return GeoReport(not gl, not ens, not bmy, not bmy_eq, -c1sq, not both)

    monkeypatch.setattr(geography, "report", negated)
    for n in (0, 1, 7, 40):
        want = _csv_reference(_scan_pairs(n), negated)
        assert scan_csv(n) == want != _csv_reference(_scan_pairs(n))
    monkeypatch.undo()
    pairs = _boundary_pairs(5)[:200]
    text = "chi,tau\n\n" + "".join(f"{c},{t}\n" + "\n" * (i % 3 == 0)
                                   for i, (c, t) in enumerate(pairs))
    want_points = _csv_reference(pairs, negated)
    want_scans = {n: _csv_reference(_scan_pairs(n), negated) for n in (0, 1, 7, 40)}
    want_reports = [negated(p) for p in pairs]
    # points_csv takes each data row from one _flags call, in order, and none for
    # the header or blank rows
    flags, calls = geography._flags, []

    def counting(chi, tau):
        calls.append((chi, tau))
        return flags(chi, tau)

    monkeypatch.setattr(geography, "_flags", counting)
    monkeypatch.setattr(geography, "report", None)  # and builds no GeoReport
    rows = points_csv(text).splitlines()[1:]
    assert calls == pairs and len(rows) == len(pairs)

    # _flags is the one computation of the flags: points_csv, report and the scan
    # (through report) all follow it
    monkeypatch.undo()

    def negated_flags(chi, tau):
        key, c1sq = flags(chi, tau)
        return tuple(not f for f in key), -c1sq

    monkeypatch.setattr(geography, "_flags", negated_flags)
    assert points_csv(text) == want_points
    assert all(scan_csv(n) == want for n, want in want_scans.items())
    assert [report(p) for p in pairs] == want_reports
